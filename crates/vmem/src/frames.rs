//! Physical frame allocation with randomised 4KB placement.
//!
//! Physical memory is divided into 2MB *regions*. A region is consumed
//! either whole (backing one 2MB huge page) or fragmented into 512 4KB
//! frames that are handed out in random order across random regions. The
//! randomisation is the load-bearing property: it guarantees that two
//! virtually-consecutive 4KB pages are almost never physically consecutive,
//! which is why a physical-address prefetcher must not cross 4KB frame
//! boundaries blindly — the premise of the whole paper.

use psa_common::{DetRng, PAddr, PageSize};

/// Number of 4KB frames in one 2MB region.
const FRAMES_PER_REGION: u64 = 512;

/// Configuration for [`PhysMem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysMemConfig {
    /// Total physical memory in bytes. Table I: 8GB single-core, 32GB
    /// multi-core.
    pub bytes: u64,
}

impl Default for PhysMemConfig {
    fn default() -> Self {
        Self {
            bytes: 8 * 1024 * 1024 * 1024,
        }
    }
}

/// Errors from physical allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysMemError {
    /// No region left to open or allocate.
    OutOfMemory {
        /// Which page size the failed request asked for.
        requested: PageSize,
    },
    /// Configured size is not a positive multiple of 2MB.
    BadSize {
        /// The offending byte count.
        bytes: u64,
    },
}

impl std::fmt::Display for PhysMemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysMemError::OutOfMemory { requested } => {
                write!(f, "out of physical memory allocating a {requested} frame")
            }
            PhysMemError::BadSize { bytes } => {
                write!(
                    f,
                    "physical memory size must be a positive multiple of 2MB, got {bytes}"
                )
            }
        }
    }
}

impl std::error::Error for PhysMemError {}

/// The machine's physical memory allocator, shared by all address spaces.
#[derive(Debug)]
pub struct PhysMem {
    config: PhysMemConfig,
    rng: DetRng,
    /// Region indices not yet opened, in randomised order (pop from back).
    free_regions: Vec<u32>,
    /// Regions opened for 4KB allocation that still have free slots, paired
    /// with their not-yet-allocated slot indices.
    open: Vec<(u32, Vec<u16>)>,
    allocated_4k: u64,
    allocated_2m: u64,
}

// The capacity (`config`) is rebuilt from the simulation configuration; the
// RNG stream position and free lists are the allocator's state. Loaded
// lists must be ones `alloc` could have left: each region inside the
// capacity and in at most one list, each open region with a free slot,
// each slot in range and free once.
impl psa_common::Persist for PhysMem {
    fn save(&self, e: &mut psa_common::Enc) {
        self.rng.save(e);
        self.free_regions.save(e);
        self.open.save(e);
        self.allocated_4k.save(e);
        self.allocated_2m.save(e);
    }

    fn load(&mut self, d: &mut psa_common::Dec) -> Result<(), psa_common::CodecError> {
        let corrupt = |what| Err(psa_common::CodecError::Corrupt(what));
        self.rng.load(d)?;
        self.free_regions.load(d)?;
        self.open.load(d)?;
        self.allocated_4k.load(d)?;
        self.allocated_2m.load(d)?;
        let mut listed = vec![false; (self.config.bytes / PageSize::Size2M.bytes()) as usize];
        let open = self.open.iter().map(|(region, _)| region);
        for &region in self.free_regions.iter().chain(open) {
            match listed.get_mut(region as usize) {
                None => return corrupt("physical region out of range"),
                Some(true) => return corrupt("physical region listed twice"),
                Some(seen) => *seen = true,
            }
        }
        for (_, slots) in &self.open {
            if slots.is_empty() {
                return corrupt("open physical region without a free slot");
            }
            let mut free = [0u64; FRAMES_PER_REGION as usize / 64];
            for &slot in slots {
                let Some(word) = free.get_mut(usize::from(slot) / 64) else {
                    return corrupt("frame slot out of range");
                };
                let bit = 1 << (slot % 64);
                if *word & bit != 0 {
                    return corrupt("frame slot listed twice");
                }
                *word |= bit;
            }
        }
        Ok(())
    }
}

impl PhysMem {
    /// Create an allocator over `config.bytes` of physical memory.
    ///
    /// # Errors
    ///
    /// Returns [`PhysMemError::BadSize`] unless the size is a positive
    /// multiple of 2MB.
    pub fn new(config: PhysMemConfig, seed: u64) -> Result<Self, PhysMemError> {
        let region_bytes = PageSize::Size2M.bytes();
        if config.bytes == 0 || !config.bytes.is_multiple_of(region_bytes) {
            return Err(PhysMemError::BadSize {
                bytes: config.bytes,
            });
        }
        let regions = (config.bytes / region_bytes) as u32;
        let mut rng = DetRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut free_regions: Vec<u32> = (0..regions).collect();
        // Fisher-Yates shuffle so region opening order is random.
        for i in (1..free_regions.len()).rev() {
            let j = rng.index(i + 1);
            free_regions.swap(i, j);
        }
        Ok(Self {
            config,
            rng,
            free_regions,
            open: Vec::new(),
            allocated_4k: 0,
            allocated_2m: 0,
        })
    }

    /// Allocate one frame of `size`; returns its base physical address.
    ///
    /// 4KB frames come from random slots of random fragmented regions; 2MB
    /// frames consume a whole region and are naturally 2MB-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`PhysMemError::OutOfMemory`] when physical memory is
    /// exhausted.
    pub fn alloc(&mut self, size: PageSize) -> Result<PAddr, PhysMemError> {
        match size {
            PageSize::Size2M => {
                let region = self
                    .free_regions
                    .pop()
                    .ok_or(PhysMemError::OutOfMemory { requested: size })?;
                self.allocated_2m += 1;
                Ok(region_base(region))
            }
            PageSize::Size4K => {
                if self.open.is_empty() {
                    self.open_region(size)?;
                }
                // Pick a random open region to draw from, so consecutive 4KB
                // allocations land in scattered regions.
                let oi = self.rng.index(self.open.len());
                let (region, slots) = &mut self.open[oi];
                let region = *region;
                let si = self.rng.index(slots.len());
                let slot = slots.swap_remove(si);
                if slots.is_empty() {
                    self.open.swap_remove(oi);
                }
                self.allocated_4k += 1;
                Ok(PAddr::new(
                    region_base(region).raw() + u64::from(slot) * 4096,
                ))
            }
        }
    }

    fn open_region(&mut self, requested: PageSize) -> Result<(), PhysMemError> {
        let region = self
            .free_regions
            .pop()
            .ok_or(PhysMemError::OutOfMemory { requested })?;
        self.open
            .push((region, (0..FRAMES_PER_REGION as u16).collect()));
        Ok(())
    }

    /// Bytes currently allocated to 4KB frames.
    pub fn allocated_4k_bytes(&self) -> u64 {
        self.allocated_4k * PageSize::Size4K.bytes()
    }

    /// Bytes currently allocated to 2MB frames.
    pub fn allocated_2m_bytes(&self) -> u64 {
        self.allocated_2m * PageSize::Size2M.bytes()
    }

    /// Total configured physical bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.config.bytes
    }
}

fn region_base(region: u32) -> PAddr {
    PAddr::new(u64::from(region) * PageSize::Size2M.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PhysMem {
        PhysMem::new(
            PhysMemConfig {
                bytes: 64 * 1024 * 1024,
            },
            99,
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(matches!(
            PhysMem::new(PhysMemConfig { bytes: 0 }, 1),
            Err(PhysMemError::BadSize { .. })
        ));
        assert!(matches!(
            PhysMem::new(
                PhysMemConfig {
                    bytes: 3 * 1024 * 1024
                },
                1
            ),
            Err(PhysMemError::BadSize { .. })
        ));
    }

    #[test]
    fn huge_frames_are_2mb_aligned_and_unique() {
        let mut pm = small();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            let a = pm.alloc(PageSize::Size2M).unwrap();
            assert_eq!(a.raw() % PageSize::Size2M.bytes(), 0);
            assert!(seen.insert(a.raw()));
        }
        assert!(matches!(
            pm.alloc(PageSize::Size2M),
            Err(PhysMemError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn small_frames_are_4kb_aligned_and_unique() {
        let mut pm = small();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let a = pm.alloc(PageSize::Size4K).unwrap();
            assert_eq!(a.raw() % 4096, 0);
            assert!(seen.insert(a.raw()));
            assert!(a.raw() < pm.capacity_bytes());
        }
    }

    #[test]
    fn consecutive_4k_allocations_are_rarely_adjacent() {
        // The property PPM exists for: back-to-back 4KB allocations (which a
        // process would map to consecutive virtual pages) must not be
        // physically contiguous in general.
        let mut pm = small();
        let addrs: Vec<u64> = (0..2000)
            .map(|_| pm.alloc(PageSize::Size4K).unwrap().raw())
            .collect();
        let adjacent = addrs
            .windows(2)
            .filter(|w| w[1] == w[0] + 4096 || w[0] == w[1] + 4096)
            .count();
        assert!(adjacent < 20, "too many adjacent frames: {adjacent}");
    }

    #[test]
    fn mixed_allocation_never_overlaps() {
        let mut pm = small();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut rng = DetRng::new(5);
        for _ in 0..600 {
            let size = if rng.chance(0.05) {
                PageSize::Size2M
            } else {
                PageSize::Size4K
            };
            if let Ok(a) = pm.alloc(size) {
                spans.push((a.raw(), a.raw() + size.bytes()));
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "overlap between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn accounting_tracks_allocations() {
        let mut pm = small();
        pm.alloc(PageSize::Size2M).unwrap();
        pm.alloc(PageSize::Size4K).unwrap();
        pm.alloc(PageSize::Size4K).unwrap();
        assert_eq!(pm.allocated_2m_bytes(), 2 * 1024 * 1024);
        assert_eq!(pm.allocated_4k_bytes(), 8192);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = small();
        let mut b = small();
        for _ in 0..100 {
            assert_eq!(
                a.alloc(PageSize::Size4K).unwrap(),
                b.alloc(PageSize::Size4K).unwrap()
            );
        }
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let mut pm = PhysMem::new(
            PhysMemConfig {
                bytes: 2 * 1024 * 1024,
            },
            1,
        )
        .unwrap();
        for _ in 0..FRAMES_PER_REGION {
            pm.alloc(PageSize::Size4K).unwrap();
        }
        let err = pm.alloc(PageSize::Size4K).unwrap_err();
        assert!(err.to_string().contains("4KB"));
    }

    /// Save `pm` after `damage` and load the bytes into a fresh allocator
    /// of the same capacity.
    fn reload(
        mut pm: PhysMem,
        damage: impl FnOnce(&mut PhysMem),
    ) -> Result<PhysMem, psa_common::CodecError> {
        use psa_common::Persist;
        damage(&mut pm);
        let mut e = psa_common::Enc::new();
        pm.save(&mut e);
        let mut back = small();
        back.load(&mut psa_common::Dec::new(&e.into_bytes()))?;
        Ok(back)
    }

    /// An allocator with one region open and partly used.
    fn opened() -> PhysMem {
        let mut pm = small();
        for _ in 0..10 {
            pm.alloc(PageSize::Size4K).unwrap();
        }
        assert_eq!(pm.open.len(), 1);
        pm
    }

    #[test]
    fn snapshot_round_trips_mid_region() {
        let mut pm = opened();
        let mut back = reload(opened(), |_| {}).unwrap();
        for _ in 0..1000 {
            assert_eq!(
                back.alloc(PageSize::Size4K).unwrap(),
                pm.alloc(PageSize::Size4K).unwrap()
            );
        }
    }

    #[test]
    fn out_of_range_region_is_corrupt() {
        // 64MB holds regions 0..32.
        let err = reload(opened(), |pm| pm.free_regions.push(32)).unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
        let err = reload(opened(), |pm| pm.open[0].0 = 40).unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn region_listed_twice_is_corrupt() {
        let err = reload(opened(), |pm| {
            let open = pm.open[0].0;
            pm.free_regions.push(open);
        })
        .unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
        let err = reload(opened(), |pm| {
            let free = pm.free_regions[0];
            pm.free_regions.push(free);
        })
        .unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn open_region_without_free_slots_is_corrupt() {
        // Loaded as is, the next 4KB allocation would draw a slot from an
        // empty list.
        let err = reload(opened(), |pm| pm.open[0].1.clear()).unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn slot_out_of_range_or_listed_twice_is_corrupt() {
        let err = reload(opened(), |pm| pm.open[0].1.push(512)).unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
        let err = reload(opened(), |pm| {
            let slot = pm.open[0].1[0];
            pm.open[0].1.push(slot);
        })
        .unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }
}
