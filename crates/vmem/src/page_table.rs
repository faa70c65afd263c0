//! A 4-level x86-64-style radix page table.
//!
//! Interior nodes (PML4, PDPT, PD, PT) each occupy one simulated 4KB
//! physical frame, so a page walk touches genuine physical cache lines that
//! the simulator charges through the memory hierarchy — reproducing why 2MB
//! pages help (one fewer level) and why TLB misses hurt.
//!
//! 2MB mappings terminate at the PD level (level 2); 4KB mappings at the PT
//! level (level 3), exactly as on x86-64.

use psa_common::{PAddr, PLine, PageSize, VAddr};

use crate::frames::{PhysMem, PhysMemError};

/// Per-level virtual-address shift: PML4, PDPT, PD, PT.
pub const LEVEL_SHIFTS: [u32; 4] = [39, 30, 21, 12];

/// A completed virtual→physical mapping for one page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Translation {
    /// Base virtual address of the page.
    pub vbase: VAddr,
    /// Base physical address of the backing frame.
    pub pbase: PAddr,
    /// The page size — the metadata PPM propagates.
    pub size: PageSize,
}

psa_common::persist_struct!(Translation { vbase, pbase, size });

impl Translation {
    /// Translate an arbitrary virtual address covered by this mapping.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `vaddr` lies outside the mapped page.
    #[inline]
    pub fn apply(&self, vaddr: VAddr) -> PAddr {
        debug_assert_eq!(vaddr.page_base(self.size), self.vbase);
        PAddr::new(self.pbase.raw() + vaddr.page_offset(self.size))
    }
}

/// Errors installing a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The virtual range is already mapped (possibly at another size).
    AlreadyMapped {
        /// Base virtual address of the conflicting request.
        vbase: VAddr,
    },
    /// The base address is not aligned to the requested page size.
    Misaligned {
        /// The unaligned base address.
        vbase: VAddr,
        /// The requested page size.
        size: PageSize,
    },
    /// Could not allocate a frame for an interior page-table node.
    Phys(PhysMemError),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::AlreadyMapped { vbase } => write!(f, "virtual page {vbase} already mapped"),
            MapError::Misaligned { vbase, size } => {
                write!(f, "virtual base {vbase} not aligned to {size}")
            }
            MapError::Phys(e) => write!(f, "page-table node allocation failed: {e}"),
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Phys(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PhysMemError> for MapError {
    fn from(e: PhysMemError) -> Self {
        MapError::Phys(e)
    }
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Table(u32),
    Leaf { pbase: PAddr, size: PageSize },
}

impl Default for Entry {
    fn default() -> Self {
        Entry::Table(0)
    }
}

impl psa_common::Persist for Entry {
    fn save(&self, e: &mut psa_common::Enc) {
        match self {
            Entry::Table(next) => {
                e.put_u8(0);
                e.put_u32(*next);
            }
            Entry::Leaf { pbase, size } => {
                e.put_u8(1);
                pbase.save(e);
                size.save(e);
            }
        }
    }
    fn load(&mut self, d: &mut psa_common::Dec) -> Result<(), psa_common::CodecError> {
        *self = match d.get_u8()? {
            0 => Entry::Table(d.get_u32()?),
            1 => {
                let mut pbase = PAddr::default();
                pbase.load(d)?;
                let mut size = PageSize::default();
                size.load(d)?;
                Entry::Leaf { pbase, size }
            }
            _ => return Err(psa_common::CodecError::Corrupt("page-table entry tag")),
        };
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Node {
    /// Physical frame holding this 512-entry table node.
    frame: PAddr,
    entries: psa_common::fxhash::FxHashMap<u16, Entry>,
}

psa_common::persist_struct!(Node { frame, entries });

/// One step of a page walk: the physical line of the PTE that was read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStep {
    /// Radix level, 0 = PML4 … 3 = PT.
    pub level: u8,
    /// Physical cache line holding the entry.
    pub pte_line: PLine,
}

/// The result of walking the table for one virtual address. A walk reads
/// at most one entry per radix level, so its steps live inline and a walk
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    steps: [WalkStep; 4],
    len: u8,
    /// The mapping found, if any.
    pub translation: Option<Translation>,
}

impl Walk {
    /// PTE lines read, outermost first.
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..usize::from(self.len)]
    }
}

/// The radix page table of one address space.
///
/// The `Default` value is an *empty* table (no root node) and exists only as
/// a load target for the checkpoint codec; [`PageTable::new`] is the real
/// constructor.
#[derive(Debug, Default)]
pub struct PageTable {
    nodes: Vec<Node>,
    mapped_pages: u64,
}

psa_common::persist_struct!(PageTable {
    nodes,
    mapped_pages,
});

impl PageTable {
    /// Create an empty table, allocating the root (PML4) node's frame.
    ///
    /// # Errors
    ///
    /// Fails if physical memory is exhausted.
    pub fn new(phys: &mut PhysMem) -> Result<Self, PhysMemError> {
        let frame = phys.alloc(PageSize::Size4K)?;
        Ok(Self {
            nodes: vec![Node {
                frame,
                entries: psa_common::fxhash::FxHashMap::default(),
            }],
            mapped_pages: 0,
        })
    }

    fn index(vaddr: VAddr, level: usize) -> u16 {
        ((vaddr.raw() >> LEVEL_SHIFTS[level]) & 0x1ff) as u16
    }

    fn pte_line(&self, node: u32, idx: u16) -> PLine {
        PAddr::new(self.nodes[node as usize].frame.raw() + u64::from(idx) * 8).line()
    }

    /// Install a mapping for the page of `size` based at `vbase`.
    ///
    /// # Errors
    ///
    /// * [`MapError::Misaligned`] if `vbase`/`pbase` are not `size`-aligned.
    /// * [`MapError::AlreadyMapped`] if any part of the range is mapped.
    /// * [`MapError::Phys`] if an interior node frame cannot be allocated.
    pub fn map(
        &mut self,
        phys: &mut PhysMem,
        vbase: VAddr,
        pbase: PAddr,
        size: PageSize,
    ) -> Result<(), MapError> {
        if vbase.page_offset(size) != 0 || pbase.page_offset(size) != 0 {
            return Err(MapError::Misaligned { vbase, size });
        }
        let leaf_level = match size {
            PageSize::Size2M => 2,
            PageSize::Size4K => 3,
        };
        let mut node = 0u32;
        for level in 0..leaf_level {
            let idx = Self::index(vbase, level);
            match self.nodes[node as usize].entries.get(&idx) {
                Some(Entry::Table(next)) => node = *next,
                Some(Entry::Leaf { .. }) => return Err(MapError::AlreadyMapped { vbase }),
                None => {
                    let frame = phys.alloc(PageSize::Size4K)?;
                    let next = self.nodes.len() as u32;
                    self.nodes.push(Node {
                        frame,
                        entries: psa_common::fxhash::FxHashMap::default(),
                    });
                    self.nodes[node as usize]
                        .entries
                        .insert(idx, Entry::Table(next));
                    node = next;
                }
            }
        }
        let idx = Self::index(vbase, leaf_level);
        let slot = &mut self.nodes[node as usize].entries;
        if slot.contains_key(&idx) {
            return Err(MapError::AlreadyMapped { vbase });
        }
        slot.insert(idx, Entry::Leaf { pbase, size });
        self.mapped_pages += 1;
        Ok(())
    }

    /// Look up `vaddr` without recording walk steps.
    pub fn translate(&self, vaddr: VAddr) -> Option<Translation> {
        self.walk_from(vaddr, 0, 0).translation
    }

    /// Walk the table for `vaddr` starting below `skip_levels` already
    /// resolved by MMU caches (0 = full walk from PML4). `start_node` is the
    /// node the skipped prefix resolved to.
    pub(crate) fn walk_from(&self, vaddr: VAddr, skip_levels: u8, start_node: u32) -> Walk {
        let mut walk = Walk {
            steps: [WalkStep::default(); 4],
            len: 0,
            translation: None,
        };
        let mut node = start_node;
        for level in usize::from(skip_levels)..4 {
            let idx = Self::index(vaddr, level);
            walk.steps[usize::from(walk.len)] = WalkStep {
                level: level as u8,
                pte_line: self.pte_line(node, idx),
            };
            walk.len += 1;
            match self.nodes[node as usize].entries.get(&idx) {
                Some(Entry::Table(next)) => node = *next,
                Some(Entry::Leaf { pbase, size }) => {
                    walk.translation = Some(Translation {
                        vbase: vaddr.page_base(*size),
                        pbase: *pbase,
                        size: *size,
                    });
                    break;
                }
                None => break,
            }
        }
        walk
    }

    /// Resolve the node reached after walking `levels` levels for `vaddr`,
    /// if that prefix is fully present. Used by MMU-cache fills.
    pub(crate) fn node_at(&self, vaddr: VAddr, levels: u8) -> Option<u32> {
        let mut node = 0u32;
        for level in 0..usize::from(levels) {
            match self.nodes[node as usize]
                .entries
                .get(&Self::index(vaddr, level))
            {
                Some(Entry::Table(next)) => node = *next,
                _ => return None,
            }
        }
        Some(node)
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of interior nodes (≥1; the PML4 always exists).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::PhysMemConfig;

    fn setup() -> (PhysMem, PageTable) {
        let mut phys = PhysMem::new(
            PhysMemConfig {
                bytes: 256 * 1024 * 1024,
            },
            7,
        )
        .unwrap();
        let pt = PageTable::new(&mut phys).unwrap();
        (phys, pt)
    }

    #[test]
    fn map_and_translate_4k() {
        let (mut phys, mut pt) = setup();
        let pbase = phys.alloc(PageSize::Size4K).unwrap();
        pt.map(&mut phys, VAddr::new(0x1000), pbase, PageSize::Size4K)
            .unwrap();
        let t = pt.translate(VAddr::new(0x1abc)).unwrap();
        assert_eq!(t.size, PageSize::Size4K);
        assert_eq!(t.apply(VAddr::new(0x1abc)).raw(), pbase.raw() + 0xabc);
        assert!(pt.translate(VAddr::new(0x2000)).is_none());
    }

    #[test]
    fn map_and_translate_2m() {
        let (mut phys, mut pt) = setup();
        let pbase = phys.alloc(PageSize::Size2M).unwrap();
        pt.map(&mut phys, VAddr::new(0x4000_0000), pbase, PageSize::Size2M)
            .unwrap();
        let t = pt.translate(VAddr::new(0x4012_3456)).unwrap();
        assert_eq!(t.size, PageSize::Size2M);
        assert_eq!(
            t.apply(VAddr::new(0x4012_3456)).raw(),
            pbase.raw() + 0x12_3456
        );
    }

    #[test]
    fn walk_depth_matches_page_size() {
        // 4KB walk: 4 levels; 2MB walk: 3 levels — the TLB-miss saving the
        // paper cites for large pages.
        let (mut phys, mut pt) = setup();
        let p4 = phys.alloc(PageSize::Size4K).unwrap();
        let p2 = phys.alloc(PageSize::Size2M).unwrap();
        pt.map(&mut phys, VAddr::new(0x1000), p4, PageSize::Size4K)
            .unwrap();
        pt.map(&mut phys, VAddr::new(0x4000_0000), p2, PageSize::Size2M)
            .unwrap();
        assert_eq!(pt.walk_from(VAddr::new(0x1000), 0, 0).steps().len(), 4);
        assert_eq!(pt.walk_from(VAddr::new(0x4000_0000), 0, 0).steps().len(), 3);
    }

    #[test]
    fn rejects_double_map_and_misalignment() {
        let (mut phys, mut pt) = setup();
        let p = phys.alloc(PageSize::Size4K).unwrap();
        pt.map(&mut phys, VAddr::new(0x1000), p, PageSize::Size4K)
            .unwrap();
        assert!(matches!(
            pt.map(&mut phys, VAddr::new(0x1000), p, PageSize::Size4K),
            Err(MapError::AlreadyMapped { .. })
        ));
        assert!(matches!(
            pt.map(&mut phys, VAddr::new(0x1234), p, PageSize::Size4K),
            Err(MapError::Misaligned { .. })
        ));
    }

    #[test]
    fn walk_steps_live_in_distinct_frames_per_level() {
        let (mut phys, mut pt) = setup();
        let p = phys.alloc(PageSize::Size4K).unwrap();
        pt.map(&mut phys, VAddr::new(0x7fff_1234_5000), p, PageSize::Size4K)
            .unwrap();
        let walk = pt.walk_from(VAddr::new(0x7fff_1234_5000), 0, 0);
        let frames: std::collections::HashSet<u64> = walk
            .steps()
            .iter()
            .map(|s| s.pte_line.addr().page_number(PageSize::Size4K))
            .collect();
        assert_eq!(frames.len(), 4, "each level sits in its own node frame");
    }

    #[test]
    fn partial_walk_skips_levels() {
        let (mut phys, mut pt) = setup();
        let p = phys.alloc(PageSize::Size4K).unwrap();
        let v = VAddr::new(0x5555_5555_5000 & !0xfff);
        pt.map(&mut phys, v, p, PageSize::Size4K).unwrap();
        let node = pt.node_at(v, 2).unwrap();
        let walk = pt.walk_from(v, 2, node);
        assert_eq!(walk.steps().len(), 2);
        assert_eq!(walk.translation.unwrap().pbase, p);
    }

    #[test]
    fn sibling_4k_pages_share_interior_nodes() {
        let (mut phys, mut pt) = setup();
        let before = pt.node_count();
        for i in 0..8 {
            let p = phys.alloc(PageSize::Size4K).unwrap();
            pt.map(&mut phys, VAddr::new(0x1000 * (i + 1)), p, PageSize::Size4K)
                .unwrap();
        }
        // One PML4→PDPT→PD→PT chain: 3 new nodes for 8 sibling pages.
        assert_eq!(pt.node_count(), before + 3);
        assert_eq!(pt.mapped_pages(), 8);
    }
}
