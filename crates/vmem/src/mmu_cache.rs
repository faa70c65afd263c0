//! MMU caches (x86 "page structure caches").
//!
//! These small fully-associative caches remember interior page-table nodes
//! so that a page walk can skip the upper radix levels. Level `i` caches the
//! node reached *after* consuming virtual-address bits down to
//! `LEVEL_SHIFTS[i]`; a hit at the PDE cache (level 2) leaves only the PT
//! access, a hit at the PDPTE cache (level 1) leaves PD (+PT), and so on.

use psa_common::VAddr;

use crate::page_table::LEVEL_SHIFTS;

/// Sizes of the three page-structure caches (PML4E, PDPTE, PDE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuCacheConfig {
    /// PML4E-cache entries (level 0 prefixes).
    pub pml4e: usize,
    /// PDPTE-cache entries (level 1 prefixes).
    pub pdpte: usize,
    /// PDE-cache entries (level 2 prefixes).
    pub pde: usize,
}

impl Default for MmuCacheConfig {
    fn default() -> Self {
        // Typical published shapes (e.g. Bhattacharjee, MICRO'13).
        Self {
            pml4e: 4,
            pdpte: 4,
            pde: 32,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PscEntry {
    prefix: u64,
    node: u32,
    last_use: u64,
    valid: bool,
}

psa_common::persist_struct!(PscEntry {
    prefix,
    node,
    last_use,
    valid,
});

#[derive(Debug)]
struct PscLevel {
    entries: Vec<PscEntry>,
}

psa_common::persist_struct!(PscLevel { entries });

impl PscLevel {
    fn new(n: usize) -> Self {
        Self {
            entries: vec![
                PscEntry {
                    prefix: 0,
                    node: 0,
                    last_use: 0,
                    valid: false
                };
                n
            ],
        }
    }

    fn lookup(&mut self, prefix: u64, stamp: u64) -> Option<u32> {
        self.entries
            .iter_mut()
            .find(|e| e.valid && e.prefix == prefix)
            .map(|e| {
                e.last_use = stamp;
                e.node
            })
    }

    fn fill(&mut self, prefix: u64, node: u32, stamp: u64) {
        if self.entries.is_empty() {
            return;
        }
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.valid && e.prefix == prefix)
        {
            e.node = node;
            e.last_use = stamp;
            return;
        }
        let victim = self
            .entries
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_use } else { 0 })
            .expect("non-empty");
        *victim = PscEntry {
            prefix,
            node,
            last_use: stamp,
            valid: true,
        };
    }
}

/// A hit in the MMU caches: how many radix levels the walk may skip and the
/// interior node to resume from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PscHit {
    /// Levels already resolved (1..=3). The walk starts at this level.
    pub skip_levels: u8,
    /// Page-table node id to resume from.
    pub node: u32,
}

/// The three page-structure caches of one MMU.
#[derive(Debug)]
pub struct MmuCaches {
    levels: [PscLevel; 3],
    stamp: u64,
}

psa_common::persist_struct!(MmuCaches { levels, stamp });

impl MmuCaches {
    /// Build the caches.
    pub fn new(config: MmuCacheConfig) -> Self {
        Self {
            levels: [
                PscLevel::new(config.pml4e),
                PscLevel::new(config.pdpte),
                PscLevel::new(config.pde),
            ],
            stamp: 0,
        }
    }

    fn prefix(vaddr: VAddr, level: usize) -> u64 {
        vaddr.raw() >> LEVEL_SHIFTS[level]
    }

    /// Find the deepest cached prefix for `vaddr`, if any.
    pub fn lookup(&mut self, vaddr: VAddr) -> Option<PscHit> {
        self.stamp += 1;
        let stamp = self.stamp;
        // Deepest first: PDE, then PDPTE, then PML4E.
        for level in (0..3).rev() {
            let prefix = Self::prefix(vaddr, level);
            if let Some(node) = self.levels[level].lookup(prefix, stamp) {
                return Some(PscHit {
                    skip_levels: level as u8 + 1,
                    node,
                });
            }
        }
        None
    }

    /// Whether every valid entry names the node that `node_at(vaddr,
    /// levels)` resolves for its prefix: the only node a walk could have
    /// cached there, since mapped interior nodes never move.
    pub(crate) fn agree(&self, node_at: impl Fn(VAddr, u8) -> Option<u32>) -> bool {
        self.levels.iter().enumerate().all(|(level, l)| {
            l.entries.iter().filter(|e| e.valid).all(|e| {
                let vaddr = VAddr::new(e.prefix << LEVEL_SHIFTS[level]);
                node_at(vaddr, level as u8 + 1) == Some(e.node)
            })
        })
    }

    /// After a walk resolved the node following level `level` for `vaddr`,
    /// cache it.
    pub fn fill(&mut self, vaddr: VAddr, level: u8, node: u32) {
        debug_assert!(level < 3);
        self.stamp += 1;
        let stamp = self.stamp;
        let prefix = Self::prefix(vaddr, usize::from(level));
        self.levels[usize::from(level)].fill(prefix, node, stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caches() -> MmuCaches {
        MmuCaches::new(MmuCacheConfig {
            pml4e: 2,
            pdpte: 2,
            pde: 4,
        })
    }

    #[test]
    fn empty_caches_miss() {
        let mut c = caches();
        assert_eq!(c.lookup(VAddr::new(0x1234_5678)), None);
    }

    #[test]
    fn deepest_level_wins() {
        let mut c = caches();
        let v = VAddr::new(0x7f12_3456_7000);
        c.fill(v, 0, 10);
        c.fill(v, 2, 30);
        let hit = c.lookup(v).unwrap();
        assert_eq!(hit.skip_levels, 3);
        assert_eq!(hit.node, 30);
    }

    #[test]
    fn pde_entry_covers_whole_2mb_region_only() {
        let mut c = caches();
        let v = VAddr::new(0x4000_0000);
        c.fill(v, 2, 5);
        // Same 2MB region → hit.
        assert!(c.lookup(VAddr::new(0x401f_ffff)).is_some());
        // Next 2MB region → the PDE prefix differs.
        assert!(c.lookup(VAddr::new(0x4020_0000)).is_none());
    }

    #[test]
    fn pml4e_entry_covers_512gb_region() {
        let mut c = caches();
        c.fill(VAddr::new(0), 0, 1);
        let hit = c.lookup(VAddr::new(0x7f_ffff_ffff)).unwrap();
        assert_eq!(hit.skip_levels, 1);
    }

    #[test]
    fn lru_within_level() {
        let mut c = caches();
        let region = |n: u64| VAddr::new(n << 21);
        c.fill(region(0), 2, 0);
        c.fill(region(1), 2, 1);
        c.fill(region(2), 2, 2);
        c.fill(region(3), 2, 3);
        assert!(c.lookup(region(0)).is_some()); // refresh
        c.fill(region(4), 2, 4); // evicts region 1
        assert!(c.lookup(region(0)).is_some());
        assert!(c.lookup(region(1)).is_none());
    }

    #[test]
    fn zero_sized_level_is_inert() {
        let mut c = MmuCaches::new(MmuCacheConfig {
            pml4e: 0,
            pdpte: 0,
            pde: 0,
        });
        c.fill(VAddr::new(0x1000), 2, 9);
        assert_eq!(c.lookup(VAddr::new(0x1000)), None);
    }
}
