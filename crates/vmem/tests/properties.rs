//! Randomized property tests for the virtual-memory substrate: translation
//! safety, page-walk consistency, frame disjointness and agreement of the
//! dense page table with a map-based reference. Driven by the
//! workspace's deterministic [`DetRng`] (no external framework).

use std::collections::HashMap;

use psa_common::{Dec, DetRng, Enc, PAddr, PLine, PageSize, Persist, VAddr};
use psa_vmem::page_table::{PageTable, LEVEL_SHIFTS};
use psa_vmem::{
    AddressSpace, AspaceConfig, MapError, Mmu, MmuConfig, PhysMem, PhysMemConfig, Translation,
};

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

/// The radix table the dense nodes replaced: one hash map per node. It
/// allocates its node frames from its own allocator, seeded like the
/// table's, so both see the same frames and read the same PTE lines.
struct RefTable {
    nodes: Vec<(PAddr, HashMap<u64, RefEntry>)>,
}

#[derive(Clone, Copy)]
enum RefEntry {
    Table(usize),
    Leaf(PAddr, PageSize),
}

impl RefTable {
    fn new(phys: &mut PhysMem) -> Self {
        let root = phys.alloc(PageSize::Size4K).expect("memory fits");
        Self {
            nodes: vec![(root, HashMap::new())],
        }
    }

    fn index(vaddr: VAddr, level: usize) -> u64 {
        (vaddr.raw() >> LEVEL_SHIFTS[level]) & 0x1ff
    }

    fn map(
        &mut self,
        phys: &mut PhysMem,
        vbase: VAddr,
        pbase: PAddr,
        size: PageSize,
    ) -> Result<(), MapError> {
        if vbase.page_offset(size) != 0 || pbase.page_offset(size) != 0 {
            return Err(MapError::Misaligned { vbase, size });
        }
        let leaf_level = if size == PageSize::Size2M { 2 } else { 3 };
        let mut node = 0;
        for level in 0..leaf_level {
            let idx = Self::index(vbase, level);
            match self.nodes[node].1.get(&idx).copied() {
                Some(RefEntry::Table(next)) => node = next,
                Some(RefEntry::Leaf(..)) => return Err(MapError::AlreadyMapped { vbase }),
                None => {
                    self.nodes
                        .push((phys.alloc(PageSize::Size4K)?, HashMap::new()));
                    let next = self.nodes.len() - 1;
                    self.nodes[node].1.insert(idx, RefEntry::Table(next));
                    node = next;
                }
            }
        }
        let idx = Self::index(vbase, leaf_level);
        if self.nodes[node].1.contains_key(&idx) {
            return Err(MapError::AlreadyMapped { vbase });
        }
        self.nodes[node].1.insert(idx, RefEntry::Leaf(pbase, size));
        Ok(())
    }

    /// The PTE lines a full walk reads, and the mapping it finds.
    fn walk(&self, vaddr: VAddr) -> (Vec<PLine>, Option<Translation>) {
        let mut lines = Vec::new();
        let mut node = 0;
        for level in 0..4 {
            let idx = Self::index(vaddr, level);
            lines.push(PAddr::new(self.nodes[node].0.raw() + idx * 8).line());
            match self.nodes[node].1.get(&idx) {
                Some(&RefEntry::Table(next)) => node = next,
                Some(&RefEntry::Leaf(pbase, size)) => {
                    let vbase = vaddr.page_base(size);
                    return (lines, Some(Translation { vbase, pbase, size }));
                }
                None => break,
            }
        }
        (lines, None)
    }

    fn leaves(&self) -> usize {
        let leaf = |e: &&RefEntry| matches!(e, RefEntry::Leaf(..));
        self.nodes
            .iter()
            .map(|(_, m)| m.values().filter(leaf).count())
            .sum()
    }
}

/// The dense page table agrees with the map-based reference on every
/// mapping, translation, walk (each PTE line read) and error, across
/// save/load round trips, mixing 4KB and 2MB pages in a few shared
/// regions so that mappings share interior nodes and collide.
#[test]
fn dense_page_table_matches_a_map_based_reference() {
    let mut rng = DetRng::new(0xD3_5E);
    // Outcomes of map: installed, already mapped, misaligned.
    let mut outcomes = [0; 3];
    for case in 0..12 {
        let (mut phys, mut ref_phys) = (phys(), phys());
        let mut table = PageTable::new(&mut phys).expect("memory fits");
        let mut reference = RefTable::new(&mut ref_phys);
        for step in 0..600 {
            // Two PML4 slots × two PDPT slots × five 2MB regions.
            let vpage =
                (rng.below(2) << 27) | (rng.below(2) << 18) | (rng.below(5) << 9) | rng.below(512);
            let vaddr = VAddr::new((vpage << 12) | rng.below(4096));
            let at = format!("case {case} step {step} at {vaddr}");
            match rng.below(8) {
                0..=2 => {
                    let size = if rng.chance(0.3) {
                        PageSize::Size2M
                    } else {
                        PageSize::Size4K
                    };
                    let mut vbase = vaddr.page_base(size);
                    let mut pbase = PAddr::new(rng.below(1 << 24) << 12).page_base(size);
                    if rng.chance(0.05) {
                        vbase = vaddr;
                    }
                    if rng.chance(0.05) {
                        pbase = PAddr::new(pbase.raw() | 0x800);
                    }
                    let result = table.map(&mut phys, vbase, pbase, size);
                    assert_eq!(
                        result,
                        reference.map(&mut ref_phys, vbase, pbase, size),
                        "map of {size} at {vbase}, {at}"
                    );
                    outcomes[match result {
                        Ok(()) => 0,
                        Err(MapError::AlreadyMapped { .. }) => 1,
                        Err(_) => 2,
                    }] += 1;
                }
                3..=5 => assert_eq!(table.translate(vaddr), reference.walk(vaddr).1, "{at}"),
                6 => {
                    let walk = table.walk(vaddr);
                    let levels: Vec<u8> = walk.steps().iter().map(|s| s.level).collect();
                    let lines: Vec<PLine> = walk.steps().iter().map(|s| s.pte_line).collect();
                    assert_eq!((lines, walk.translation), reference.walk(vaddr), "{at}");
                    assert!(levels.iter().copied().eq(0..levels.len() as u8), "{at}");
                }
                _ => {
                    let mut e = Enc::new();
                    table.save(&mut e);
                    let bytes = e.into_bytes();
                    let mut back = PageTable::default();
                    back.load(&mut Dec::new(&bytes)).expect("own bytes load");
                    let mut again = Enc::new();
                    back.save(&mut again);
                    assert_eq!(again.into_bytes(), bytes, "{at}");
                    table = back;
                }
            }
        }
        assert_eq!(table.node_count(), reference.nodes.len(), "case {case}");
        let leaves = table.mapped_pages(PageSize::Size4K) + table.mapped_pages(PageSize::Size2M);
        assert_eq!(leaves as usize, reference.leaves(), "case {case}");
    }
    assert!(
        outcomes.iter().all(|&n| n > 20),
        "map outcomes {outcomes:?}"
    );
}
