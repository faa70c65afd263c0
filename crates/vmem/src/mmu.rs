//! The per-core MMU: TLB hierarchy + MMU caches + page walker.
//!
//! [`Mmu::translate`] is the single entry point the core model calls before
//! every memory access. Its [`TranslationOutcome`] carries the translated
//! physical address, the **page size** (the metadata PPM propagates to the
//! L1D MSHR on a miss), the TLB-side latency, and the physical page-table
//! lines a walk must fetch through the cache hierarchy (empty on TLB hits).

use psa_common::{CodecError, PAddr, PLine, PageSize, VAddr};

use crate::aspace::AddressSpace;
use crate::frames::PhysMem;
use crate::mmu_cache::{MmuCacheConfig, MmuCaches};
use crate::page_table::MapError;
use crate::tlb::{Tlb, TlbConfig, TlbConfigError, TlbStats};

/// MMU shape, defaulting to Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuConfig {
    /// L1 DTLB shape (64-entry, 4-way).
    pub dtlb: TlbConfig,
    /// L2 STLB shape (1536-entry, 12-way).
    pub stlb: TlbConfig,
    /// L1 DTLB access latency in cycles (1).
    pub dtlb_latency: u64,
    /// L2 STLB access latency in cycles (8).
    pub stlb_latency: u64,
    /// Page-structure cache shapes.
    pub psc: MmuCacheConfig,
}

impl Default for MmuConfig {
    fn default() -> Self {
        Self {
            dtlb: TlbConfig::l1_dtlb(),
            stlb: TlbConfig::l2_stlb(),
            dtlb_latency: 1,
            stlb_latency: 8,
            psc: MmuCacheConfig::default(),
        }
    }
}

/// Where a translation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbHitLevel {
    /// L1 DTLB hit.
    L1,
    /// L2 STLB hit.
    L2,
    /// Full or partial page walk.
    Walk,
}

/// Result of translating one access.
#[derive(Debug, Clone, Copy)]
pub struct TranslationOutcome {
    /// Translated physical address.
    pub paddr: PAddr,
    /// Size of the containing page — the PPM bit's payload.
    pub size: PageSize,
    /// TLB lookup latency in cycles (excludes page-walk memory time).
    pub tlb_latency: u64,
    walk_lines: [PLine; 4],
    walk_len: u8,
    /// Which level satisfied the translation.
    pub level: TlbHitLevel,
}

impl TranslationOutcome {
    /// An outcome with no walk lines yet (all a TLB hit carries).
    fn new(paddr: PAddr, size: PageSize, tlb_latency: u64, level: TlbHitLevel) -> Self {
        Self {
            paddr,
            size,
            tlb_latency,
            walk_lines: [PLine::default(); 4],
            walk_len: 0,
            level,
        }
    }

    /// Physical PTE lines the walker must read through the memory
    /// hierarchy, outermost first; empty on TLB hits.
    pub fn walk_lines(&self) -> &[PLine] {
        &self.walk_lines[..usize::from(self.walk_len)]
    }
}

/// MMU statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MmuStats {
    /// Translations performed.
    pub translations: u64,
    /// Page walks performed.
    pub walks: u64,
    /// Total PTE reads issued by walks.
    pub walk_accesses: u64,
}

/// The per-core MMU.
#[derive(Debug)]
pub struct Mmu {
    config: MmuConfig,
    dtlb: Tlb,
    stlb: Tlb,
    psc: MmuCaches,
    stats: MmuStats,
}

psa_common::persist_struct!(MmuStats {
    translations,
    walks,
    walk_accesses,
});

psa_common::persist_struct!(Mmu {
    dtlb,
    stlb,
    psc,
    stats,
});

impl Mmu {
    /// Build an MMU of the given shape.
    ///
    /// # Errors
    ///
    /// Fails if either TLB shape is unrealisable.
    pub fn new(config: MmuConfig) -> Result<Self, TlbConfigError> {
        Ok(Self {
            config,
            dtlb: Tlb::new(config.dtlb)?,
            stlb: Tlb::new(config.stlb)?,
            psc: MmuCaches::new(config.psc),
            stats: MmuStats::default(),
        })
    }

    /// Translate `vaddr`, demand-mapping the page on first touch.
    ///
    /// # Errors
    ///
    /// Fails only when physical memory is exhausted.
    pub fn translate(
        &mut self,
        aspace: &mut AddressSpace,
        phys: &mut PhysMem,
        vaddr: VAddr,
    ) -> Result<TranslationOutcome, MapError> {
        self.stats.translations += 1;
        // Ensure the mapping exists (demand paging; the minor-fault cost is
        // not modelled, matching trace-driven simulator practice).
        let translation = aspace.translate_or_map(phys, vaddr)?;
        let paddr = translation.apply(vaddr);
        let size = translation.size;

        if self.dtlb.lookup(vaddr, size) {
            return Ok(TranslationOutcome::new(
                paddr,
                size,
                self.config.dtlb_latency,
                TlbHitLevel::L1,
            ));
        }
        let latency = self.config.dtlb_latency + self.config.stlb_latency;
        if self.stlb.lookup(vaddr, size) {
            self.dtlb.fill(vaddr, size);
            return Ok(TranslationOutcome::new(
                paddr,
                size,
                latency,
                TlbHitLevel::L2,
            ));
        }

        // Page walk, shortened by the page-structure caches.
        self.stats.walks += 1;
        let (skip, start) = match self.psc.lookup(vaddr) {
            Some(hit) => (hit.skip_levels, hit.node),
            None => (0, 0),
        };
        let walk = aspace
            .walk(vaddr, skip, start)
            .expect("table exists after mapping");
        debug_assert!(walk.translation.is_some(), "walked an unmapped page");
        // + 1: walker dispatch overhead.
        let mut out = TranslationOutcome::new(paddr, size, latency + 1, TlbHitLevel::Walk);
        for step in walk.steps() {
            out.walk_lines[usize::from(out.walk_len)] = step.pte_line;
            out.walk_len += 1;
        }
        self.stats.walk_accesses += u64::from(out.walk_len);
        // Fill the MMU caches with every interior node the walk resolved:
        // a step is followed by another only when its entry names the node
        // the next step reads. Leaf entries (the PD entry of a 2MB page)
        // end the walk, so they are the TLB's job, not the PSC's.
        for pair in walk.steps().windows(2) {
            self.psc.fill(vaddr, pair[0].level, pair[1].node);
        }
        self.stlb.fill(vaddr, size);
        self.dtlb.fill(vaddr, size);
        Ok(out)
    }

    /// Check a restored MMU against the restored address space it
    /// translates for. The two load separately, and a walk resumes from a
    /// cached page-structure node without checking it, so every valid
    /// cache entry must name the node the table reaches for its prefix.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] when an entry names any other node.
    pub fn check_restored(&self, aspace: &AddressSpace) -> Result<(), CodecError> {
        if self
            .psc
            .agree(|vaddr, levels| aspace.node_at(vaddr, levels))
        {
            Ok(())
        } else {
            Err(CodecError::Corrupt(
                "page-structure cache names a node the page table does not hold there",
            ))
        }
    }

    /// MMU statistics.
    pub fn stats(&self) -> MmuStats {
        self.stats
    }

    /// L1 DTLB statistics.
    pub fn dtlb_stats(&self) -> TlbStats {
        self.dtlb.stats()
    }

    /// L2 STLB statistics.
    pub fn stlb_stats(&self) -> TlbStats {
        self.stlb.stats()
    }

    /// Whether the page containing `vaddr` is resident in either TLB level
    /// (no LRU/statistics side effects) — the IPCP++ crossing condition.
    pub fn tlb_resident(&self, vaddr: VAddr) -> bool {
        self.dtlb.peek(vaddr).is_some() || self.stlb.peek(vaddr).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspace::AspaceConfig;
    use crate::frames::PhysMemConfig;

    fn setup(huge: f64) -> (PhysMem, AddressSpace, Mmu) {
        let phys = PhysMem::new(
            PhysMemConfig {
                bytes: 512 * 1024 * 1024,
            },
            3,
        )
        .unwrap();
        let aspace = AddressSpace::new(AspaceConfig {
            huge_fraction: huge,
            seed: 5,
        });
        let mmu = Mmu::new(MmuConfig::default()).unwrap();
        (phys, aspace, mmu)
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let (mut phys, mut aspace, mut mmu) = setup(0.0);
        let v = VAddr::new(0x1000_0000);
        let first = mmu.translate(&mut aspace, &mut phys, v).unwrap();
        assert_eq!(first.level, TlbHitLevel::Walk);
        assert_eq!(first.walk_lines().len(), 4);
        let second = mmu.translate(&mut aspace, &mut phys, v).unwrap();
        assert_eq!(second.level, TlbHitLevel::L1);
        assert!(second.walk_lines().is_empty());
        assert_eq!(second.tlb_latency, 1);
        assert_eq!(first.paddr, second.paddr);
    }

    #[test]
    fn huge_page_walk_is_shorter() {
        let (mut phys, mut aspace, mut mmu) = setup(1.0);
        let out = mmu
            .translate(&mut aspace, &mut phys, VAddr::new(0x4000_0000))
            .unwrap();
        assert_eq!(out.size, PageSize::Size2M);
        assert_eq!(out.walk_lines().len(), 3);
    }

    #[test]
    fn psc_shortens_sibling_walks() {
        let (mut phys, mut aspace, mut mmu) = setup(0.0);
        // First 4KB page: full 4-step walk.
        let a = mmu
            .translate(&mut aspace, &mut phys, VAddr::new(0x0))
            .unwrap();
        assert_eq!(a.walk_lines().len(), 4);
        // A sibling page in the same 2MB region, far enough to miss both
        // TLBs? It won't miss (TLBs are big) — so blow the DTLB/STLB by
        // touching it only via a fresh MMU sharing nothing. Instead verify
        // via a fresh MMU that the PSC effect needs warm caches:
        let b = mmu
            .translate(&mut aspace, &mut phys, VAddr::new(0x1000))
            .unwrap();
        // TLB hit for the region? No: different 4KB page → TLB miss, but
        // PDE cache is warm → only the PT step.
        assert_eq!(b.level, TlbHitLevel::Walk);
        assert_eq!(b.walk_lines().len(), 1);
    }

    #[test]
    fn restored_psc_must_name_the_table_node() {
        let (mut phys, mut aspace, mut mmu) = setup(0.0);
        for page in [0u64, 1, 600, 1 << 18] {
            mmu.translate(&mut aspace, &mut phys, VAddr::new(page * 4096))
                .unwrap();
        }
        assert_eq!(mmu.check_restored(&aspace), Ok(()));
        let pt_node = aspace.node_at(VAddr::new(0), 3).unwrap();
        let bad = [
            // Out of the table's range: the next walk would index past it.
            (2, 50_000),
            // In range, but the root, not a PT node.
            (2, 0),
            // A PT node cached as the PD node of a region.
            (1, pt_node),
        ];
        for (level, node) in bad {
            let (mut phys, mut aspace, mut mmu) = setup(0.0);
            mmu.translate(&mut aspace, &mut phys, VAddr::new(0))
                .unwrap();
            mmu.psc.fill(VAddr::new(0), level, node);
            assert!(
                matches!(mmu.check_restored(&aspace), Err(CodecError::Corrupt(_))),
                "level {level} node {node}"
            );
        }
        // A valid entry with no page table at all.
        let (_, aspace, mut mmu) = setup(0.0);
        mmu.psc.fill(VAddr::new(0), 0, 1);
        assert!(mmu.check_restored(&aspace).is_err());
    }

    #[test]
    fn page_size_metadata_flows_through() {
        let (mut phys, mut aspace, mut mmu) = setup(1.0);
        for off in [0u64, 0x1000, 0x10_0000] {
            let out = mmu
                .translate(&mut aspace, &mut phys, VAddr::new(0x8000_0000 + off))
                .unwrap();
            assert!(out.size.bit(), "PPM bit must read 2MB");
        }
    }

    #[test]
    fn stats_accumulate() {
        let (mut phys, mut aspace, mut mmu) = setup(0.0);
        for page in 0..10u64 {
            mmu.translate(&mut aspace, &mut phys, VAddr::new(page * 4096))
                .unwrap();
        }
        let s = mmu.stats();
        assert_eq!(s.translations, 10);
        assert_eq!(s.walks, 10);
        assert!(s.walk_accesses >= 10);
        assert_eq!(mmu.dtlb_stats().misses, 10);
    }

    #[test]
    fn stlb_catches_dtlb_capacity_misses() {
        let (mut phys, mut aspace, mut mmu) = setup(0.0);
        // Touch more 4KB pages than the 64-entry DTLB holds, then re-touch.
        for page in 0..256u64 {
            mmu.translate(&mut aspace, &mut phys, VAddr::new(page * 4096))
                .unwrap();
        }
        let mut l2_hits = 0;
        for page in 0..256u64 {
            let out = mmu
                .translate(&mut aspace, &mut phys, VAddr::new(page * 4096))
                .unwrap();
            if out.level == TlbHitLevel::L2 {
                l2_hits += 1;
            }
            assert_ne!(out.level, TlbHitLevel::Walk, "STLB holds 1536 entries");
        }
        assert!(
            l2_hits > 100,
            "most re-touches should be STLB hits, got {l2_hits}"
        );
    }
}
