//! Randomized property tests for the virtual-memory substrate: translation
//! safety, page-walk consistency and frame disjointness. Driven by the
//! workspace's deterministic [`DetRng`] (no external framework).

use psa_common::{DetRng, PageSize, VAddr};
use psa_vmem::{AddressSpace, AspaceConfig, Mmu, MmuConfig, PhysMem, PhysMemConfig};

fn phys() -> PhysMem {
    PhysMem::new(PhysMemConfig { bytes: 1 << 30 }, 11).expect("shape")
}

/// Translation is a function: the same virtual address always maps to
/// the same physical address, for any access order.
#[test]
fn translation_is_stable() {
    let mut rng = DetRng::new(0x7A51);
    for _ in 0..16 {
        let huge = rng.unit();
        let addrs: Vec<u64> = (0..1 + rng.index(199))
            .map(|_| rng.below(1 << 33))
            .collect();
        let mut pm = phys();
        let mut aspace = AddressSpace::new(AspaceConfig {
            huge_fraction: huge,
            seed: 3,
        });
        let mut first = std::collections::HashMap::new();
        for &a in addrs.iter().chain(addrs.iter()) {
            let v = VAddr::new(a);
            let t = aspace.translate_or_map(&mut pm, v).expect("memory fits");
            let p = t.apply(v).raw();
            if let Some(&prev) = first.get(&a) {
                assert_eq!(p, prev, "translation changed for {a:#x}");
            } else {
                first.insert(a, p);
            }
        }
    }
}

/// Two distinct virtual pages never share physical bytes — mappings
/// are injective (no aliasing), at any THP mix.
#[test]
fn mappings_never_alias() {
    let mut rng = DetRng::new(0xA11A5);
    for _ in 0..16 {
        let huge = rng.unit();
        let pages: std::collections::HashSet<u64> = (0..1 + rng.index(149))
            .map(|_| rng.below(100_000))
            .collect();
        let mut pm = phys();
        let mut aspace = AddressSpace::new(AspaceConfig {
            huge_fraction: huge,
            seed: 7,
        });
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &page in &pages {
            let v = VAddr::new(page * 4096);
            let t = aspace.translate_or_map(&mut pm, v).expect("memory fits");
            if seen.insert((t.pbase.raw(), t.size)) {
                spans.push((t.pbase.raw(), t.pbase.raw() + t.size.bytes()));
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "physical overlap {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// The MMU agrees with the raw address space, and its page-size
/// metadata (the PPM payload) matches the installed mapping.
#[test]
fn mmu_translation_matches_page_table() {
    let mut rng = DetRng::new(0x3313);
    for _ in 0..16 {
        let mut pm = phys();
        let mut aspace = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.5,
            seed: 13,
        });
        let mut mmu = Mmu::new(MmuConfig::default()).expect("shape");
        for _ in 0..1 + rng.index(99) {
            let v = VAddr::new(rng.below(1 << 32));
            let out = mmu.translate(&mut aspace, &mut pm, v).expect("memory fits");
            let reference = aspace.translate_or_map(&mut pm, v).expect("mapped");
            assert_eq!(out.paddr, reference.apply(v));
            assert_eq!(out.size, reference.size);
            // Offsets survive translation within the page.
            assert_eq!(out.paddr.page_offset(out.size), v.page_offset(out.size));
        }
    }
}

/// Page walks are bounded by the radix depth and shrink for 2MB pages.
#[test]
fn walk_length_bounded() {
    let mut rng = DetRng::new(0x111A);
    for _ in 0..16 {
        let mut pm = phys();
        let mut aspace = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.5,
            seed: 17,
        });
        let mut mmu = Mmu::new(MmuConfig::default()).expect("shape");
        for _ in 0..1 + rng.index(79) {
            let out = mmu
                .translate(&mut aspace, &mut pm, VAddr::new(rng.below(1 << 34)))
                .expect("memory fits");
            let max = match out.size {
                PageSize::Size4K => 4,
                PageSize::Size2M => 3,
            };
            assert!(
                out.walk_lines().len() <= max,
                "walk of {} steps",
                out.walk_lines().len()
            );
        }
    }
}
