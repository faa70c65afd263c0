//! Demand-paged address spaces with a THP-style large-page policy.
//!
//! On the first touch of a 2MB virtual region the policy decides — in the
//! spirit of Linux Transparent Huge Pages — whether to back the whole
//! region with one 2MB frame or fault its 4KB pages in individually. The
//! decision is a deterministic hash of the region number, so a workload's
//! `huge_fraction` directly controls the fraction of its memory in 2MB
//! pages (what Figure 3 of the paper measures on real hardware).

use psa_common::fxhash::FxHashMap;
use psa_common::rng::fnv1a;
use psa_common::{PageSize, Persist, VAddr};

use crate::frames::PhysMem;
use crate::page_table::{MapError, PageTable, Translation, Walk};

/// Policy knobs for one address space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AspaceConfig {
    /// Probability that a 2MB virtual region is backed by a huge page.
    /// 1.0 ≈ `THP=always` on a lightly fragmented machine; 0.0 ≈ `THP=never`.
    pub huge_fraction: f64,
    /// Seed for the per-region backing decisions.
    pub seed: u64,
}

impl Default for AspaceConfig {
    fn default() -> Self {
        // The paper measures ~85% of allocated memory in 2MB pages across
        // its workloads on a real THP-enabled system (§V-A).
        Self {
            huge_fraction: 0.85,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RegionBacking {
    /// Region backed by one 2MB page.
    Huge {
        translation: Translation,
        /// One bit per 4KB chunk of the page touched so far.
        touched: [u64; 8],
    },
    /// Region faulted as individual 4KB pages, whose leaves all sit in
    /// page-table node `node`: a hit reads its PTE word directly.
    Small { node: u32 },
}

impl Default for RegionBacking {
    fn default() -> Self {
        RegionBacking::Small { node: 0 }
    }
}

impl psa_common::Persist for RegionBacking {
    fn save(&self, e: &mut psa_common::Enc) {
        match self {
            RegionBacking::Huge {
                translation,
                touched,
            } => {
                e.put_u8(0);
                translation.save(e);
                touched.save(e);
            }
            RegionBacking::Small { node } => {
                e.put_u8(1);
                node.save(e);
            }
        }
    }
    fn load(&mut self, d: &mut psa_common::Dec) -> Result<(), psa_common::CodecError> {
        *self = match d.get_u8()? {
            0 => {
                let mut translation = Translation::default();
                translation.load(d)?;
                let mut touched = [0; 8];
                touched.load(d)?;
                RegionBacking::Huge {
                    translation,
                    touched,
                }
            }
            1 => RegionBacking::Small { node: d.get_u32()? },
            _ => return Err(psa_common::CodecError::Corrupt("region backing tag")),
        };
        Ok(())
    }
}

/// Record a touch of 4KB page `vpage` in its huge region's bitmap;
/// returns whether the chunk had not been touched before.
fn touch_chunk(touched: &mut [u64; 8], vpage: u64) -> bool {
    let chunk = vpage % 512;
    let (word, bit) = ((chunk / 64) as usize, 1u64 << (chunk % 64));
    let fresh = touched[word] & bit == 0;
    touched[word] |= bit;
    fresh
}

/// One process's virtual address space.
#[derive(Debug)]
pub struct AddressSpace {
    config: AspaceConfig,
    page_table: Option<PageTable>,
    regions: FxHashMap<u64, RegionBacking>,
    /// Distinct 4KB-page-sized chunks touched inside huge-backed regions —
    /// the touch-weighted usage metric (see [`Self::huge_usage_fraction`]).
    /// The running total of the regions' bitmaps: derived, never persisted.
    touched_in_huge: u64,
    /// One-entry MRU cache: the last translated 4KB virtual page number
    /// and its translation. Mappings are never removed or changed once
    /// established, so a hit can return without a region lookup or a
    /// table lookup — and bursty access streams hit almost every time.
    /// Derived state: invalidated on restore, never persisted.
    last_vpage: u64,
    last_trans: Option<Translation>,
}

// The THP policy knobs (`config`) are rebuilt from the simulation
// configuration; everything the demand pager has learned is state: the
// page table and each region's backing. The touched-chunk total and the
// MRU fields are derived: excluded from the byte stream, recounted from
// the region bitmaps and invalidated on load. A huge region must be
// exactly the 2MB leaf the table holds for it, the table may hold no
// other 2MB leaf, and a small region must name the PT node the table
// reaches for it.
impl Persist for AddressSpace {
    fn save(&self, e: &mut psa_common::Enc) {
        self.page_table.save(e);
        self.regions.save(e);
    }

    fn load(&mut self, d: &mut psa_common::Dec) -> Result<(), psa_common::CodecError> {
        self.page_table.load(d)?;
        self.regions.load(d)?;
        let mut huge = 0;
        for (&region, backing) in &self.regions {
            match *backing {
                RegionBacking::Huge { translation, .. } => {
                    let leaf = self
                        .page_table
                        .as_ref()
                        .and_then(|pt| pt.translate(translation.vbase));
                    if translation.vbase.page_number(PageSize::Size2M) != region
                        || leaf != Some(translation)
                    {
                        return Err(psa_common::CodecError::Corrupt(
                            "huge region disagrees with its page-table leaf",
                        ));
                    }
                    huge += 1;
                }
                RegionBacking::Small { node } => {
                    let base = VAddr::new(region.wrapping_mul(PageSize::Size2M.bytes()));
                    if self.node_at(base, 3) != Some(node) {
                        return Err(psa_common::CodecError::Corrupt(
                            "small region names another page-table node",
                        ));
                    }
                }
            }
        }
        if huge != self.mapped_pages(PageSize::Size2M) {
            return Err(psa_common::CodecError::Corrupt(
                "2MB page-table leaf without a huge region",
            ));
        }
        self.touched_in_huge = self
            .regions
            .values()
            .map(|r| match r {
                RegionBacking::Huge { touched, .. } => {
                    touched.iter().map(|w| u64::from(w.count_ones())).sum()
                }
                RegionBacking::Small { .. } => 0,
            })
            .sum();
        self.last_vpage = u64::MAX;
        self.last_trans = None;
        Ok(())
    }
}

impl AddressSpace {
    /// Create an empty address space.
    pub fn new(config: AspaceConfig) -> Self {
        Self {
            config,
            page_table: None,
            regions: FxHashMap::default(),
            touched_in_huge: 0,
            last_vpage: u64::MAX,
            last_trans: None,
        }
    }

    fn decide_huge(&self, region: u64) -> bool {
        let h = fnv1a(&[self.config.seed.to_le_bytes(), region.to_le_bytes()].concat());
        (h >> 11) as f64 / (1u64 << 53) as f64 <= self.config.huge_fraction
    }

    fn table(&mut self, phys: &mut PhysMem) -> Result<&mut PageTable, MapError> {
        if self.page_table.is_none() {
            self.page_table = Some(PageTable::new(phys)?);
        }
        Ok(self.page_table.as_mut().expect("just created"))
    }

    /// Translate `vaddr`, demand-mapping the page on first touch.
    ///
    /// # Errors
    ///
    /// Fails only when physical memory is exhausted.
    pub fn translate_or_map(
        &mut self,
        phys: &mut PhysMem,
        vaddr: VAddr,
    ) -> Result<Translation, MapError> {
        // MRU fast path: same 4KB page as the previous translation. A huge
        // page's bitmap already holds this chunk (it was set when the
        // cache entry was established), so the repeat touch is a pure
        // no-op on every structure.
        let vpage = vaddr.page_number(PageSize::Size4K);
        if self.last_vpage == vpage {
            if let Some(t) = self.last_trans {
                return Ok(t);
            }
        }
        let region = vaddr.page_number(PageSize::Size2M);
        let t = match self.regions.get_mut(&region) {
            Some(RegionBacking::Huge {
                translation,
                touched,
            }) => {
                self.touched_in_huge += u64::from(touch_chunk(touched, vpage));
                *translation
            }
            Some(&mut RegionBacking::Small { node }) => {
                match self
                    .page_table
                    .as_ref()
                    .and_then(|pt| pt.leaf_at(node, vaddr))
                {
                    Some(t) => t,
                    None => self.map_small(phys, vaddr)?,
                }
            }
            None => self.map_region(phys, vaddr)?,
        };
        self.last_vpage = vpage;
        self.last_trans = Some(t);
        Ok(t)
    }

    /// First touch of `vaddr`'s 2MB region: back it by one 2MB page or
    /// fault in the touched 4KB page, as the policy decides.
    #[cold]
    fn map_region(&mut self, phys: &mut PhysMem, vaddr: VAddr) -> Result<Translation, MapError> {
        let region = vaddr.page_number(PageSize::Size2M);
        if self.decide_huge(region) {
            let pbase = phys.alloc(PageSize::Size2M)?;
            let vbase = vaddr.page_base(PageSize::Size2M);
            let t = Translation {
                vbase,
                pbase,
                size: PageSize::Size2M,
            };
            self.table(phys)?
                .map(phys, vbase, pbase, PageSize::Size2M)?;
            let mut touched = [0; 8];
            touch_chunk(&mut touched, vaddr.page_number(PageSize::Size4K));
            self.regions.insert(
                region,
                RegionBacking::Huge {
                    translation: t,
                    touched,
                },
            );
            self.touched_in_huge += 1;
            Ok(t)
        } else {
            let t = self.map_small(phys, vaddr)?;
            let node = self.node_at(vaddr, 3).expect("a 4KB page was just mapped");
            self.regions.insert(region, RegionBacking::Small { node });
            Ok(t)
        }
    }

    #[cold]
    fn map_small(&mut self, phys: &mut PhysMem, vaddr: VAddr) -> Result<Translation, MapError> {
        let pbase = phys.alloc(PageSize::Size4K)?;
        let vbase = vaddr.page_base(PageSize::Size4K);
        let t = Translation {
            vbase,
            pbase,
            size: PageSize::Size4K,
        };
        self.table(phys)?
            .map(phys, vbase, pbase, PageSize::Size4K)?;
        Ok(t)
    }

    /// Walk the page table for `vaddr`, optionally skipping levels resolved
    /// by the MMU caches. The page must already be mapped.
    pub(crate) fn walk(&self, vaddr: VAddr, skip_levels: u8, start_node: u32) -> Option<Walk> {
        self.page_table
            .as_ref()
            .map(|pt| pt.walk_from(vaddr, skip_levels, start_node))
    }

    /// Interior node reached after `levels` levels.
    pub(crate) fn node_at(&self, vaddr: VAddr, levels: u8) -> Option<u32> {
        self.page_table
            .as_ref()
            .and_then(|pt| pt.node_at(vaddr, levels))
    }

    fn mapped_pages(&self, size: PageSize) -> u64 {
        self.page_table
            .as_ref()
            .map_or(0, |pt| pt.mapped_pages(size))
    }

    /// Bytes currently mapped via 4KB pages.
    pub fn bytes_4k(&self) -> u64 {
        self.mapped_pages(PageSize::Size4K) * PageSize::Size4K.bytes()
    }

    /// Bytes currently mapped via 2MB pages.
    pub fn bytes_2m(&self) -> u64 {
        self.mapped_pages(PageSize::Size2M) * PageSize::Size2M.bytes()
    }

    /// Interior page-table nodes backing this space, each holding one 4KB
    /// frame — lets the `PSA_CHECK=1` checker reconcile the frame
    /// allocator's books against every consumer.
    pub fn page_table_nodes(&self) -> usize {
        self.page_table.as_ref().map_or(0, |pt| pt.node_count())
    }

    /// Fraction of the *touched* working set backed by 2MB pages — the
    /// Figure 3 metric. Touch-weighted (distinct 4KB chunks actually
    /// accessed) rather than allocation-weighted, because one sparse touch
    /// allocates a whole 2MB frame and would otherwise drown the 4KB side
    /// of the ratio; the touch-weighted form is also what matters to the
    /// prefetcher (the probability that an accessed block sits in a huge
    /// page). Zero when nothing is mapped yet.
    pub fn huge_usage_fraction(&self) -> f64 {
        let huge = self.touched_in_huge * PageSize::Size4K.bytes();
        let total = self.bytes_4k() + huge;
        if total == 0 {
            0.0
        } else {
            huge as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::PhysMemConfig;
    use psa_common::PAddr;

    fn phys() -> PhysMem {
        PhysMem::new(
            PhysMemConfig {
                bytes: 512 * 1024 * 1024,
            },
            3,
        )
        .unwrap()
    }

    #[test]
    fn always_huge_maps_2mb() {
        let mut pm = phys();
        let mut a = AddressSpace::new(AspaceConfig {
            huge_fraction: 1.0,
            seed: 1,
        });
        let t = a
            .translate_or_map(&mut pm, VAddr::new(0x1234_5678))
            .unwrap();
        assert_eq!(t.size, PageSize::Size2M);
        assert_eq!(a.huge_usage_fraction(), 1.0);
    }

    #[test]
    fn never_huge_maps_4kb() {
        let mut pm = phys();
        let mut a = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.0,
            seed: 1,
        });
        let t = a
            .translate_or_map(&mut pm, VAddr::new(0x1234_5678))
            .unwrap();
        assert_eq!(t.size, PageSize::Size4K);
        assert_eq!(a.huge_usage_fraction(), 0.0);
    }

    #[test]
    fn translation_is_stable_across_touches() {
        let mut pm = phys();
        let mut a = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.5,
            seed: 9,
        });
        let v = VAddr::new(0xdead_b000);
        let t1 = a.translate_or_map(&mut pm, v).unwrap();
        let t2 = a
            .translate_or_map(&mut pm, VAddr::new(0xdead_b040))
            .unwrap();
        assert_eq!(t1.pbase, t2.pbase);
        assert_eq!(t1.apply(v), t2.apply(v));
    }

    #[test]
    fn huge_fraction_controls_usage() {
        let mut pm = phys();
        let mut a = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.5,
            seed: 42,
        });
        // Touch 128 distinct 2MB regions sparsely (one 4KB touch each, so
        // small-backed regions contribute one 4KB page).
        for r in 0..128u64 {
            a.translate_or_map(&mut pm, VAddr::new(r << 21)).unwrap();
        }
        let huge_regions = a.bytes_2m() / PageSize::Size2M.bytes();
        assert!((40..=90).contains(&huge_regions), "got {huge_regions}");
    }

    #[test]
    fn adjacent_virtual_4k_pages_not_physically_adjacent() {
        let mut pm = phys();
        let mut a = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.0,
            seed: 7,
        });
        let mut adjacent = 0;
        let mut prev: Option<PAddr> = None;
        for page in 0..512u64 {
            let t = a
                .translate_or_map(&mut pm, VAddr::new(page * 4096))
                .unwrap();
            if let Some(p) = prev {
                if t.pbase.raw() == p.raw() + 4096 {
                    adjacent += 1;
                }
            }
            prev = Some(t.pbase);
        }
        assert!(adjacent < 8, "physical layout too contiguous: {adjacent}");
    }

    #[test]
    fn huge_page_preserves_virtual_contiguity_physically() {
        // Inside a 2MB page, virtual adjacency IS physical adjacency — the
        // property that makes page-crossing prefetching safe there.
        let mut pm = phys();
        let mut a = AddressSpace::new(AspaceConfig {
            huge_fraction: 1.0,
            seed: 7,
        });
        let base = 0x4000_0000u64;
        let t0 = a.translate_or_map(&mut pm, VAddr::new(base)).unwrap();
        for off in (0..PageSize::Size2M.bytes()).step_by(4096) {
            let t = a.translate_or_map(&mut pm, VAddr::new(base + off)).unwrap();
            assert_eq!(t.apply(VAddr::new(base + off)).raw(), t0.pbase.raw() + off);
        }
    }

    #[test]
    fn huge_usage_matches_a_hash_set_reference_across_restores() {
        let config = AspaceConfig {
            huge_fraction: 0.5,
            seed: 23,
        };
        let mut pm = phys();
        let mut a = AddressSpace::new(config);
        let mut touched_huge = std::collections::HashSet::new();
        let mut touched_small = std::collections::HashSet::new();
        let mut rng = psa_common::DetRng::new(0x7E57);
        let mut vpage = 0;
        for step in 0..20_000u32 {
            // 64 regions, each touched at a skewed subset of its chunks,
            // with runs of repeat touches for the MRU fast path.
            if !rng.chance(0.3) {
                vpage = (rng.below(64) << 9) | rng.below(512).min(rng.below(512));
            }
            let vaddr = VAddr::new((vpage << 12) | rng.below(4096));
            let t = a.translate_or_map(&mut pm, vaddr).unwrap();
            match t.size {
                PageSize::Size2M => touched_huge.insert(vpage),
                PageSize::Size4K => touched_small.insert(vpage),
            };
            let huge = touched_huge.len() as f64 * 4096.0;
            let expected = huge / (huge + touched_small.len() as f64 * 4096.0);
            assert_eq!(a.huge_usage_fraction(), expected, "step {step}");
            if step % 2_500 == 2_499 {
                let mut e = psa_common::Enc::new();
                a.save(&mut e);
                let mut restored = AddressSpace::new(config);
                restored
                    .load(&mut psa_common::Dec::new(&e.into_bytes()))
                    .unwrap();
                assert_eq!(restored.huge_usage_fraction(), expected);
                a = restored;
            }
        }
        assert!(!touched_huge.is_empty() && !touched_small.is_empty());
    }

    #[test]
    fn decision_is_deterministic_per_seed() {
        let mut pm1 = phys();
        let mut pm2 = phys();
        let mut a = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.5,
            seed: 11,
        });
        let mut b = AddressSpace::new(AspaceConfig {
            huge_fraction: 0.5,
            seed: 11,
        });
        for r in 0..64u64 {
            let v = VAddr::new(r << 21);
            let ta = a.translate_or_map(&mut pm1, v).unwrap();
            let tb = b.translate_or_map(&mut pm2, v).unwrap();
            assert_eq!(ta.size, tb.size);
        }
    }

    /// Map a mix of huge and small regions, apply `damage`, save, and
    /// load the bytes into a fresh address space.
    fn reload(
        damage: impl FnOnce(&mut AddressSpace),
    ) -> Result<AddressSpace, psa_common::CodecError> {
        let config = AspaceConfig {
            huge_fraction: 0.5,
            seed: 42,
        };
        let mut pm = phys();
        let mut a = AddressSpace::new(config);
        for r in 0..32u64 {
            a.translate_or_map(&mut pm, VAddr::new(r << 21 | 0x3000))
                .unwrap();
        }
        assert!(a.bytes_2m() > 0 && a.bytes_4k() > 0);
        damage(&mut a);
        let mut e = psa_common::Enc::new();
        a.save(&mut e);
        let mut back = AddressSpace::new(config);
        back.load(&mut psa_common::Dec::new(&e.into_bytes()))?;
        Ok(back)
    }

    fn first_huge(a: &mut AddressSpace) -> (u64, &mut Translation) {
        a.regions
            .iter_mut()
            .find_map(|(&r, b)| match b {
                RegionBacking::Huge { translation, .. } => Some((r, translation)),
                RegionBacking::Small { .. } => None,
            })
            .expect("a huge region")
    }

    #[test]
    fn reload_recounts_mapped_bytes_from_the_table() {
        let mut before = (0, 0, 0);
        let back = reload(|a| before = (a.bytes_4k(), a.bytes_2m(), a.page_table_nodes())).unwrap();
        assert_eq!(
            (back.bytes_4k(), back.bytes_2m(), back.page_table_nodes()),
            before
        );
    }

    #[test]
    fn huge_region_disagreeing_with_its_leaf_is_corrupt() {
        let err = reload(|a| first_huge(a).1.pbase = PAddr::new(0x20_0000)).unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
        let err = reload(|a| {
            let (region, t) = first_huge(a);
            let t = *t;
            a.regions.insert(
                region + 1000,
                RegionBacking::Huge {
                    translation: t,
                    touched: [0; 8],
                },
            );
        })
        .unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn huge_leaf_without_its_region_is_corrupt() {
        let err = reload(|a| {
            let (region, _) = first_huge(a);
            a.regions.remove(&region);
        })
        .unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn small_region_naming_another_node_is_corrupt() {
        for shift in [1, 1000] {
            let err = reload(|a| {
                let node = a.regions.values_mut().find_map(|b| match b {
                    RegionBacking::Small { node } => Some(node),
                    RegionBacking::Huge { .. } => None,
                });
                *node.expect("a small region") += shift;
            })
            .unwrap_err();
            assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
        }
        // A huge region's leaf holds no PT node to name.
        let err = reload(|a| {
            let (region, _) = first_huge(a);
            a.regions.insert(region, RegionBacking::Small { node: 0 });
        })
        .unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }
}
