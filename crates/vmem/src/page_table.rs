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

/// PTE words per node: nine virtual-address bits per level.
const ENTRIES: usize = 512;

// Each node slot holds one PTE word, as in hardware, so the page size
// travels in the same word as the frame. Zero is an empty slot. Bits 12
// and up of a present word hold the child node's index (a table entry)
// or the frame base (a leaf; every frame is at least 4KB-aligned).
// `HUGE` marks a 2MB leaf, where x86 keeps its PS bit.
const PRESENT: u64 = 1;
const LEAF: u64 = 1 << 1;
const HUGE: u64 = 1 << 7;
const FLAG_BITS: u64 = 0xfff;

/// A decoded PTE word.
#[derive(Clone, Copy)]
enum Pte {
    Empty,
    Table(u32),
    Leaf(PAddr, PageSize),
}

impl Pte {
    #[inline]
    fn decode(word: u64) -> Self {
        if word & PRESENT == 0 {
            Pte::Empty
        } else if word & LEAF == 0 {
            Pte::Table((word >> 12) as u32)
        } else {
            Pte::Leaf(
                PAddr::new(word & !FLAG_BITS),
                PageSize::from_bit(word & HUGE != 0),
            )
        }
    }

    fn encode(self) -> u64 {
        match self {
            Pte::Empty => 0,
            Pte::Table(node) => u64::from(node) << 12 | PRESENT,
            Pte::Leaf(pbase, size) => {
                pbase.raw() | PRESENT | LEAF | if size.bit() { HUGE } else { 0 }
            }
        }
    }
}

/// The radix level whose entries map pages of `size`.
fn leaf_level(size: PageSize) -> usize {
    match size {
        PageSize::Size2M => 2,
        PageSize::Size4K => 3,
    }
}

#[derive(Debug)]
struct Node {
    /// Physical frame holding this node's PTE words.
    frame: PAddr,
    ptes: Box<[u64; ENTRIES]>,
}

impl Node {
    fn new(frame: PAddr) -> Self {
        Self {
            frame,
            ptes: Box::new([0; ENTRIES]),
        }
    }
}

impl Default for Node {
    fn default() -> Self {
        Self::new(PAddr::default())
    }
}

// A node writes its frame and then its present entries in index order,
// each as its index and its PTE word. What the words say is checked
// across the whole table (`PageTable::recount`); here only that each
// index is in range and listed once.
impl psa_common::Persist for Node {
    fn save(&self, e: &mut psa_common::Enc) {
        self.frame.save(e);
        e.put_usize(self.ptes.iter().filter(|&&w| w != 0).count());
        for (idx, &word) in self.ptes.iter().enumerate().filter(|(_, &w)| w != 0) {
            e.put_u16(idx as u16);
            e.put_u64(word);
        }
    }

    fn load(&mut self, d: &mut psa_common::Dec) -> Result<(), psa_common::CodecError> {
        let corrupt = |what| Err(psa_common::CodecError::Corrupt(what));
        self.frame.load(d)?;
        if self.frame.page_offset(PageSize::Size4K) != 0 {
            return corrupt("page-table node frame not 4KB-aligned");
        }
        self.ptes.fill(0);
        let mut next = 0;
        for _ in 0..d.get_len()? {
            let idx = usize::from(d.get_u16()?);
            let word = d.get_u64()?;
            if idx >= ENTRIES {
                return corrupt("page-table entry index out of range");
            }
            if idx < next {
                return corrupt("page-table entries out of index order");
            }
            if word == 0 {
                return corrupt("empty page-table entry listed");
            }
            self.ptes[idx] = word;
            next = idx + 1;
        }
        Ok(())
    }
}

/// One step of a page walk: the physical line of the PTE that was read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStep {
    /// Radix level, 0 = PML4 … 3 = PT.
    pub level: u8,
    /// The node holding the entry, so MMU-cache fills need no second
    /// descent from the root.
    pub(crate) node: u32,
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
    /// Leaves installed, indexed by [`PageSize::bit`]. Derived from the
    /// nodes: never persisted, recounted on load.
    leaves: [u64; 2],
}

impl psa_common::Persist for PageTable {
    fn save(&self, e: &mut psa_common::Enc) {
        self.nodes.save(e);
    }

    fn load(&mut self, d: &mut psa_common::Dec) -> Result<(), psa_common::CodecError> {
        self.nodes.load(d)?;
        self.leaves = self.recount()?;
        Ok(())
    }
}

impl PageTable {
    /// Create an empty table, allocating the root (PML4) node's frame.
    ///
    /// # Errors
    ///
    /// Fails if physical memory is exhausted.
    pub fn new(phys: &mut PhysMem) -> Result<Self, PhysMemError> {
        let frame = phys.alloc(PageSize::Size4K)?;
        Ok(Self {
            nodes: vec![Node::new(frame)],
            leaves: [0; 2],
        })
    }

    fn index(vaddr: VAddr, level: usize) -> usize {
        ((vaddr.raw() >> LEVEL_SHIFTS[level]) & 0x1ff) as usize
    }

    #[inline]
    fn pte(&self, node: u32, vaddr: VAddr, level: usize) -> Pte {
        Pte::decode(self.nodes[node as usize].ptes[Self::index(vaddr, level)])
    }

    /// Check that loaded nodes form the tree [`Self::map`] builds, and
    /// count its leaves. Nodes are pushed as they are linked in, so every
    /// node but the root is named by exactly one table entry of an earlier
    /// node, table entries stop above the PT level, and each leaf sits at
    /// its size's level with a base aligned to that size.
    fn recount(&self) -> Result<[u64; 2], psa_common::CodecError> {
        let corrupt = |what| Err(psa_common::CodecError::Corrupt(what));
        if self.nodes.is_empty() {
            return corrupt("page table without a root node");
        }
        let mut levels = vec![u8::MAX; self.nodes.len()];
        levels[0] = 0;
        let mut leaves = [0; 2];
        for (i, node) in self.nodes.iter().enumerate() {
            let level = levels[i];
            if level == u8::MAX {
                return corrupt("page-table node named by no entry");
            }
            for &word in node.ptes.iter().filter(|&&w| w != 0) {
                let pte = Pte::decode(word);
                if pte.encode() != word {
                    return corrupt("page-table entry with unknown bits");
                }
                match pte {
                    Pte::Table(child) => {
                        let child = child as usize;
                        if child <= i || child >= self.nodes.len() {
                            return corrupt("page-table entry names a node out of range");
                        }
                        if level >= 3 {
                            return corrupt("page-table entry below the PT level");
                        }
                        if levels[child] != u8::MAX {
                            return corrupt("page-table node named by two entries");
                        }
                        levels[child] = level + 1;
                    }
                    Pte::Leaf(pbase, size) => {
                        if pbase.page_offset(size) != 0 {
                            return corrupt("page-table leaf base not aligned to its size");
                        }
                        if usize::from(level) != leaf_level(size) {
                            return corrupt("page-table leaf at the wrong level");
                        }
                        leaves[usize::from(size.bit())] += 1;
                    }
                    Pte::Empty => unreachable!("a non-zero word without PRESENT re-encodes to 0"),
                }
            }
        }
        Ok(leaves)
    }

    fn pte_line(&self, node: u32, idx: usize) -> PLine {
        PAddr::new(self.nodes[node as usize].frame.raw() + idx as u64 * 8).line()
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
        let leaf_level = leaf_level(size);
        let mut node = 0u32;
        for level in 0..leaf_level {
            match self.pte(node, vbase, level) {
                Pte::Table(next) => node = next,
                Pte::Leaf(..) => return Err(MapError::AlreadyMapped { vbase }),
                Pte::Empty => {
                    let frame = phys.alloc(PageSize::Size4K)?;
                    let next = self.nodes.len() as u32;
                    self.nodes.push(Node::new(frame));
                    self.nodes[node as usize].ptes[Self::index(vbase, level)] =
                        Pte::Table(next).encode();
                    node = next;
                }
            }
        }
        let slot = &mut self.nodes[node as usize].ptes[Self::index(vbase, leaf_level)];
        if *slot != 0 {
            return Err(MapError::AlreadyMapped { vbase });
        }
        *slot = Pte::Leaf(pbase, size).encode();
        self.leaves[usize::from(size.bit())] += 1;
        Ok(())
    }

    /// Look up `vaddr` without recording walk steps.
    pub fn translate(&self, vaddr: VAddr) -> Option<Translation> {
        let mut node = 0u32;
        for level in 0..4 {
            match self.pte(node, vaddr, level) {
                Pte::Table(next) => node = next,
                Pte::Leaf(pbase, size) => {
                    return Some(Translation {
                        vbase: vaddr.page_base(size),
                        pbase,
                        size,
                    })
                }
                Pte::Empty => break,
            }
        }
        None
    }

    /// The 4KB mapping for `vaddr` in PT node `node`, which the caller
    /// resolved for `vaddr`'s 2MB region (see [`Self::node_at`]).
    #[inline]
    pub(crate) fn leaf_at(&self, node: u32, vaddr: VAddr) -> Option<Translation> {
        match self.pte(node, vaddr, 3) {
            Pte::Leaf(pbase, size) => Some(Translation {
                vbase: vaddr.page_base(size),
                pbase,
                size,
            }),
            _ => None,
        }
    }

    /// Walk the table for `vaddr` from the root, recording the PTE line
    /// read at each level.
    pub fn walk(&self, vaddr: VAddr) -> Walk {
        self.walk_from(vaddr, 0, 0)
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
            walk.steps[usize::from(walk.len)] = WalkStep {
                level: level as u8,
                node,
                pte_line: self.pte_line(node, Self::index(vaddr, level)),
            };
            walk.len += 1;
            match self.pte(node, vaddr, level) {
                Pte::Table(next) => node = next,
                Pte::Leaf(pbase, size) => {
                    walk.translation = Some(Translation {
                        vbase: vaddr.page_base(size),
                        pbase,
                        size,
                    });
                    break;
                }
                Pte::Empty => break,
            }
        }
        walk
    }

    /// Resolve the node reached after walking `levels` levels for `vaddr`,
    /// if that prefix is fully present.
    pub(crate) fn node_at(&self, vaddr: VAddr, levels: u8) -> Option<u32> {
        let mut node = 0u32;
        for level in 0..usize::from(levels) {
            match self.pte(node, vaddr, level) {
                Pte::Table(next) => node = next,
                _ => return None,
            }
        }
        Some(node)
    }

    /// Number of leaf mappings of `size` installed.
    pub fn mapped_pages(&self, size: PageSize) -> u64 {
        self.leaves[usize::from(size.bit())]
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
        assert_eq!(pt.walk(VAddr::new(0x1000)).steps().len(), 4);
        assert_eq!(pt.walk(VAddr::new(0x4000_0000)).steps().len(), 3);
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
        let walk = pt.walk(VAddr::new(0x7fff_1234_5000));
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
        assert_eq!(pt.mapped_pages(PageSize::Size4K), 8);
        assert_eq!(pt.mapped_pages(PageSize::Size2M), 0);
    }

    /// Encode a table as its node list: each node's frame and its
    /// present `(index, word)` entries, in the order given.
    fn encode(nodes: &[(u64, &[(u16, u64)])]) -> Vec<u8> {
        let mut e = psa_common::Enc::new();
        e.put_usize(nodes.len());
        for (frame, entries) in nodes {
            e.put_u64(*frame);
            e.put_usize(entries.len());
            for &(idx, word) in *entries {
                e.put_u16(idx);
                e.put_u64(word);
            }
        }
        e.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<PageTable, psa_common::CodecError> {
        use psa_common::Persist;
        let mut pt = PageTable::default();
        pt.load(&mut psa_common::Dec::new(bytes))?;
        Ok(pt)
    }

    fn table(node: u32) -> u64 {
        Pte::Table(node).encode()
    }

    /// A 4KB page at virtual 0 through four nodes in frames 0x1000..0x4000.
    fn chain(leaf: u64) -> Vec<u8> {
        encode(&[
            (0x1000, &[(0, table(1))]),
            (0x2000, &[(0, table(2))]),
            (0x3000, &[(0, table(3))]),
            (0x4000, &[(0, leaf)]),
        ])
    }

    #[test]
    fn save_load_round_trips_and_recounts_leaves() {
        use psa_common::Persist;
        let (mut phys, mut pt) = setup();
        for i in 0..40u64 {
            let p = phys.alloc(PageSize::Size4K).unwrap();
            pt.map(&mut phys, VAddr::new(0x1000 * i), p, PageSize::Size4K)
                .unwrap();
        }
        let p = phys.alloc(PageSize::Size2M).unwrap();
        pt.map(&mut phys, VAddr::new(0x4000_0000), p, PageSize::Size2M)
            .unwrap();
        let mut e = psa_common::Enc::new();
        pt.save(&mut e);
        let bytes = e.into_bytes();
        let back = load(&bytes).unwrap();
        assert_eq!(back.mapped_pages(PageSize::Size4K), 40);
        assert_eq!(back.mapped_pages(PageSize::Size2M), 1);
        assert_eq!(back.node_count(), pt.node_count());
        for v in [0x5123, 0x27_fff, 0x4012_3456, 0x9000_0000] {
            let v = VAddr::new(v);
            assert_eq!(back.translate(v), pt.translate(v));
            assert_eq!(back.walk(v).steps(), pt.walk(v).steps());
        }
        let mut again = psa_common::Enc::new();
        back.save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn well_formed_hand_encoded_table_loads() {
        let pt = load(&chain(
            Pte::Leaf(PAddr::new(0x7000), PageSize::Size4K).encode(),
        ))
        .unwrap();
        let t = pt.translate(VAddr::new(0x123)).unwrap();
        assert_eq!((t.pbase.raw(), t.size), (0x7000, PageSize::Size4K));
    }

    #[test]
    fn entry_index_of_512_or_more_is_corrupt() {
        let bytes = encode(&[(0x1000, &[(512, table(1))]), (0x2000, &[])]);
        assert!(matches!(
            load(&bytes),
            Err(psa_common::CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn duplicate_or_unordered_entries_are_corrupt() {
        let leaf = Pte::Leaf(PAddr::new(0x7000), PageSize::Size4K).encode();
        for entries in [[(3, leaf), (3, leaf)], [(4, leaf), (3, leaf)]] {
            let bytes = encode(&[
                (0x1000, &[(0, table(1))]),
                (0x2000, &[(0, table(2))]),
                (0x3000, &[(0, table(3))]),
                (0x4000, &entries),
            ]);
            assert!(matches!(
                load(&bytes),
                Err(psa_common::CodecError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn table_entry_out_of_range_or_not_after_its_parent_is_corrupt() {
        for bytes in [
            // Names a node past the end.
            encode(&[(0x1000, &[(0, table(2))]), (0x2000, &[])]),
            // Names itself.
            encode(&[(0x1000, &[(0, table(0))])]),
            // Names an earlier node (a cycle back to the root).
            encode(&[(0x1000, &[(0, table(1))]), (0x2000, &[(7, table(0))])]),
            // A child index too wide for a node id.
            encode(&[(0x1000, &[(0, (1 << 44) | table(1))]), (0x2000, &[])]),
        ] {
            assert!(matches!(
                load(&bytes),
                Err(psa_common::CodecError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn nodes_outside_one_tree_are_corrupt() {
        for bytes in [
            // Node 2 is named by no entry.
            encode(&[(0x1000, &[(0, table(1))]), (0x2000, &[]), (0x3000, &[])]),
            // Node 1 is named twice.
            encode(&[(0x1000, &[(0, table(1)), (1, table(1))]), (0x2000, &[])]),
            // A fifth level.
            encode(&[
                (0x1000, &[(0, table(1))]),
                (0x2000, &[(0, table(2))]),
                (0x3000, &[(0, table(3))]),
                (0x4000, &[(0, table(4))]),
                (0x5000, &[]),
            ]),
            // No root at all.
            encode(&[]),
        ] {
            assert!(matches!(
                load(&bytes),
                Err(psa_common::CodecError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn leaf_not_aligned_to_its_size_or_level_is_corrupt() {
        // A 2MB leaf whose base is only 4KB-aligned.
        let misaligned = Pte::Leaf(PAddr::new(0x20_1000), PageSize::Size2M).encode();
        let bytes = encode(&[
            (0x1000, &[(0, table(1))]),
            (0x2000, &[(0, table(2))]),
            (0x3000, &[(0, misaligned)]),
        ]);
        assert!(matches!(
            load(&bytes),
            Err(psa_common::CodecError::Corrupt(_))
        ));
        // A 2MB leaf at the PT level, and a 4KB leaf at the PD level.
        let huge = Pte::Leaf(PAddr::new(0x20_0000), PageSize::Size2M).encode();
        assert!(matches!(
            load(&chain(huge)),
            Err(psa_common::CodecError::Corrupt(_))
        ));
        let small = Pte::Leaf(PAddr::new(0x7000), PageSize::Size4K).encode();
        let bytes = encode(&[
            (0x1000, &[(0, table(1))]),
            (0x2000, &[(0, table(2))]),
            (0x3000, &[(0, small)]),
        ]);
        assert!(matches!(
            load(&bytes),
            Err(psa_common::CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_bits_empty_words_and_unaligned_frames_are_corrupt() {
        let leaf = Pte::Leaf(PAddr::new(0x7000), PageSize::Size4K).encode();
        for bytes in [
            chain(leaf | 1 << 5),
            chain(leaf & !PRESENT),
            chain(0),
            encode(&[(0x1800, &[])]),
        ] {
            assert!(matches!(
                load(&bytes),
                Err(psa_common::CodecError::Corrupt(_))
            ));
        }
    }
}
