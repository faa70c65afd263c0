//! The trace generator: turns a [`WorkloadSpec`] into an infinite,
//! deterministic instruction stream for the core model.
//!
//! Each pattern component owns a disjoint virtual-address region (regions
//! are gigabytes apart so they never share pages) and a small set of
//! program counters (so PC-indexed prefetchers like IPCP and PPF see
//! stable classification targets). The generator interleaves bursts from
//! the weighted components and pads with non-memory instructions to hit
//! the spec's memory intensity.

use psa_common::rng::{chance_cutoff, weighted_cutoffs};
use psa_common::{CodecError, DetRng, VAddr, LINE_BYTES};
use psa_cpu::Instr;

use crate::spec::WorkloadSpec;

/// Component indices, matching [`crate::spec::PatternMix::weights`].
const STREAM: usize = 0;
const STRIDE_SMALL: usize = 1;
const STRIDE_LARGE: usize = 2;
const SUBPAGE: usize = 3;
const CHASE: usize = 4;
const RANDOM: usize = 5;
const HOT: usize = 6;
const NUM_COMPONENTS: usize = 7;

/// Parallel stream cursors per stream component (memory-level parallelism).
const STREAM_CURSORS: usize = 4;
/// Concurrent sub-page walkers — co-located data structures accessed in
/// alternation, as in Figure 1 of the paper.
const SUBPAGE_CURSORS: usize = 4;
/// Width of the subpage component's locality window in 4KB pages (2MB, so
/// the concurrent walkers usually share a 2MB page).
const SUBPAGE_WINDOW_PAGES: u64 = 512;
/// Longest filler gap owed before one access.
const MAX_GAP: u64 = 64;

#[derive(Debug, Clone)]
struct Component {
    /// First virtual address of this component's region.
    base: u64,
    /// Region size in lines.
    lines: u64,
    /// Cursors (line indices within the region; element indices for the
    /// stream component; raw LCG state for the chase component).
    cursors: Vec<u64>,
    next_cursor: usize,
    /// Fixed stride in lines (stride components).
    stride: u64,
    /// Base line of the sliding locality window (subpage component).
    window: u64,
}

/// Every random draw of a memory access (`TraceGenerator::access`; a
/// filler draws nothing) as an integer test on
/// [`DetRng::unit_bits`], fixed when the generator is built. Each one
/// decides exactly what the f64 draw it stands for (`unit() < p`, or the
/// weighted fold) decides on the same raw value; see
/// [`chance_cutoff`] and [`weighted_cutoffs`].
#[derive(Debug, Clone, Copy)]
struct Draws {
    /// Component pick: the component index is the number of these
    /// cutoffs the draw reaches.
    pick: [u64; NUM_COMPONENTS - 1],
    /// Cutoff of each step of the geometric filler gap, probability
    /// `1 / max(mean_gap, 1)`; `None` when the spec owes no filler.
    gap: Option<u64>,
    /// 1 when the mean gap is under one instruction, so the gap (at
    /// least one step) is lowered to allow back-to-back accesses.
    gap_short: u64,
    /// A stream restarts elsewhere (probability 1/16384 per access).
    stream_restart: u64,
    /// A stride walk restarts elsewhere (1/2048).
    stride_restart: u64,
    /// The subpage locality window slides (1/64 per finished walk).
    window_slide: u64,
    /// A chase hop is a dependent load (`max(dependent_fraction, 0.9)`).
    dependent: u64,
    /// An independent access is a store (`store_ratio`).
    store: u64,
}

impl Draws {
    fn new(spec: &WorkloadSpec) -> Self {
        let weights = spec.mix.weights();
        let pick = weighted_cutoffs(&weights)
            .try_into()
            .expect("one cutoff between each pair of components");
        // Owe filler between accesses so the long-run memory instruction
        // fraction matches `mem_ratio`.
        let mean_gap = (1.0 / spec.mem_ratio - 1.0).max(0.0);
        Draws {
            pick,
            gap: (mean_gap > 0.0).then(|| chance_cutoff(1.0 / mean_gap.max(1.0))),
            gap_short: u64::from(mean_gap < 1.0),
            stream_restart: chance_cutoff(1.0 / 16384.0),
            stride_restart: chance_cutoff(1.0 / 2048.0),
            window_slide: chance_cutoff(1.0 / 64.0),
            dependent: chance_cutoff(spec.dependent_fraction.max(0.9)),
            store: chance_cutoff(spec.store_ratio),
        }
    }
}

/// A deterministic, infinite instruction stream.
#[derive(Debug)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    rng: DetRng,
    draws: Draws,
    /// The chase component's hot subset, in lines from its base.
    hot_lines: u64,
    comps: [Component; NUM_COMPONENTS],
    /// Non-memory instructions still owed before the next access.
    filler_left: u64,
    /// Retired instruction counter (drives PC diversity).
    count: u64,
}

psa_common::persist_struct!(Component {
    base,
    lines,
    cursors,
    next_cursor,
    stride,
    window,
});

// `spec`, `draws` and `hot_lines` are configuration; the RNG stream
// position, all component cursors and the filler debt are the generator's
// state. A component's base, length, stride and cursor count are fixed
// when the generator is built, so a load must find the ones the generator
// rebuilt from the same spec and seed holds, a cursor index inside its
// cursors, and every cursor inside the range the generator keeps it in.
impl psa_common::Persist for TraceGenerator {
    fn save(&self, e: &mut psa_common::Enc) {
        self.rng.save(e);
        self.comps.save(e);
        self.filler_left.save(e);
        self.count.save(e);
    }

    fn load(&mut self, d: &mut psa_common::Dec) -> Result<(), CodecError> {
        let shape = |c: &Component| (c.base, c.lines, c.stride, c.cursors.len());
        let rebuilt = self.comps.each_ref().map(shape);
        self.rng.load(d)?;
        self.comps.load(d)?;
        if self.comps.iter().map(shape).ne(rebuilt) {
            return Err(CodecError::Corrupt(
                "generator component differs from its spec",
            ));
        }
        if self.comps.iter().any(|c| c.next_cursor >= c.cursors.len()) {
            return Err(CodecError::Corrupt("generator cursor index out of range"));
        }
        if !self
            .comps
            .iter()
            .enumerate()
            .all(|(i, c)| cursors_in_range(i, c))
        {
            return Err(CodecError::Corrupt("generator cursor out of range"));
        }
        self.filler_left.load(d)?;
        self.count.load(d)
    }
}

/// Whether component `i`'s cursors and window lie where the generator
/// keeps them: stream elements below `lines · 8`, line cursors below
/// `lines`, the subpage window a window-aligned page below `lines / 64`.
/// The chase cursor is LCG state and may hold any value.
fn cursors_in_range(i: usize, c: &Component) -> bool {
    let below = |bound: u64| c.cursors.iter().all(|&x| x < bound);
    match i {
        STREAM => below(c.lines * 8),
        SUBPAGE => {
            let window_pages = TraceGenerator::window_pages(c.lines);
            below(c.lines) && c.window < c.lines / 64 && c.window.is_multiple_of(window_pages)
        }
        CHASE => true,
        _ => below(c.lines),
    }
}

impl TraceGenerator {
    /// Build the generator for `spec`, streaming deterministically from
    /// `seed` (the workload name is folded in, so different workloads
    /// diverge even with equal seeds).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid workload spec: {e}"));
        let mut rng = DetRng::for_name(seed, spec.name);
        let active = spec.mix.active_components().max(1) as u64;
        let per_component_lines = (spec.footprint_lines() / active).max(512);
        let comps: [Component; NUM_COMPONENTS] = std::array::from_fn(|i| {
            // Regions 16GB apart: never share a page at any size.
            let base = (i as u64 + 1) << 34;
            let lines = match i {
                HOT => 256, // 16KB hot set
                _ => per_component_lines,
            };
            let cursors = match i {
                STREAM => (0..STREAM_CURSORS).map(|_| rng.below(lines)).collect(),
                SUBPAGE => (0..SUBPAGE_CURSORS)
                    .map(|_| rng.below(lines / 64) * 64)
                    .collect(),
                _ => vec![rng.below(lines)],
            };
            let stride = match i {
                STRIDE_SMALL => 2 + rng.below(15),   // 2..=16 lines
                STRIDE_LARGE => 65 + rng.below(448), // 65..=512 lines
                _ => 1,
            };
            Component {
                base,
                lines,
                cursors,
                next_cursor: 0,
                stride,
                window: 0,
            }
        });
        // Pointer chases have working-set locality: most hops stay inside
        // a hot subset of the structure.
        let chase_lines = comps[CHASE].lines;
        Self {
            spec: *spec,
            rng,
            draws: Draws::new(spec),
            hot_lines: (chase_lines / 16).max(1024).min(chase_lines),
            comps,
            filler_left: 0,
            count: 0,
        }
    }

    /// The spec driving this generator.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// `x % d` for `x < 2d`, the range every caller keeps: cursors are
    /// reduced before they are stored, positions are drawn below the
    /// bound, and a load rejects cursors outside their range.
    #[inline]
    fn fast_rem(x: u64, d: u64) -> u64 {
        debug_assert!(x / 2 < d, "{x} is not below twice {d}");
        if x < d {
            x
        } else {
            x - d
        }
    }

    fn addr(comp: &Component, line_idx: u64) -> VAddr {
        VAddr::new(comp.base + Self::fast_rem(line_idx, comp.lines) * LINE_BYTES)
    }

    /// Per-sub-page stride for the subpage-grain component: neighbouring
    /// 4KB pages get different strides, so a 2MB-grain prefetcher aliases
    /// contradictory patterns into one table entry.
    fn subpage_stride(page4k: u64) -> u64 {
        1 + (page4k.wrapping_mul(0x9e37_79b9)) % 5
    }

    /// The subpage component's locality window, in 4KB pages, for a
    /// region of `lines` lines.
    fn window_pages(lines: u64) -> u64 {
        SUBPAGE_WINDOW_PAGES.min(lines / 64).max(1)
    }

    /// Filler owed before the next access: a geometric count in
    /// `[1, MAX_GAP]` (one draw per step, until a draw hits the gap
    /// cutoff), lowered by `gap_short`.
    fn filler_gap(&mut self) -> u64 {
        let Some(cutoff) = self.draws.gap else {
            return 0;
        };
        let mut n = 1;
        while n < MAX_GAP && !self.rng.hit(cutoff) {
            n += 1;
        }
        n - self.draws.gap_short
    }

    /// The next instruction. Most instructions are fillers, which need
    /// only the counter and the owed-filler test, so that path is
    /// inlined into every caller; a memory access is one call.
    #[inline]
    fn instr(&mut self) -> Instr {
        self.count += 1;
        if self.filler_left > 0 {
            self.filler_left -= 1;
            return Instr::op(VAddr::new(0x10_0000 + (self.count % 64) * 4));
        }
        self.access()
    }

    /// A memory access, and the filler gap owed before the next one. The
    /// draws run in the order the stream is defined by: the gap, the
    /// access, then the store.
    #[inline(never)]
    fn access(&mut self) -> Instr {
        self.filler_left = self.filler_gap();
        let (vaddr, pc, dependent) = self.next_access();
        if dependent {
            Instr::dependent_load(pc, vaddr)
        } else if self.rng.hit(self.draws.store) {
            Instr::store(pc, vaddr)
        } else {
            Instr::load(pc, vaddr)
        }
    }

    fn next_access(&mut self) -> (VAddr, VAddr, bool) {
        let k = self.rng.unit_bits();
        let comp_idx = self.draws.pick.iter().filter(|&&c| k >= c).count();
        let pc_base = 0x40_0000 + (comp_idx as u64) * 0x1000;
        let comp = &mut self.comps[comp_idx];
        let (vaddr, pc_slot, dependent) = match comp_idx {
            STREAM => {
                // Element-granular streaming: real streaming kernels touch
                // each 64-byte line ~8 times (8-byte elements), so most
                // accesses hit the L1D and the *miss* stream is one miss
                // per line — the realistic MPKI regime.
                let slot = comp.next_cursor;
                comp.next_cursor = if slot + 1 == comp.cursors.len() {
                    0
                } else {
                    slot + 1
                };
                let elem = comp.cursors[slot];
                comp.cursors[slot] = Self::fast_rem(elem + 1, comp.lines * 8);
                // Occasionally restart the stream elsewhere (line-aligned).
                if self.rng.hit(self.draws.stream_restart) {
                    comp.cursors[slot] = self.rng.below(comp.lines) * 8;
                }
                let addr =
                    VAddr::new(comp.base + Self::fast_rem(elem, comp.lines * 8) * (LINE_BYTES / 8));
                (addr, slot as u64, false)
            }
            STRIDE_SMALL | STRIDE_LARGE => {
                let pos = comp.cursors[0];
                comp.cursors[0] = Self::fast_rem(pos + comp.stride, comp.lines);
                if self.rng.hit(self.draws.stride_restart) {
                    comp.cursors[0] = self.rng.below(comp.lines);
                }
                (Self::addr(comp, pos), 0, false)
            }
            SUBPAGE => {
                // Figure 1's scenario: several co-located data structures
                // (concurrent walkers) in one 2MB locality window, accessed
                // in alternation. Each walker strides through its own 4KB
                // sub-page — a clean pattern at the 4KB indexing grain —
                // but at the 2MB grain the walkers share one table entry,
                // whose delta history ping-pongs between structures: the
                // over-generalisation that makes Pref-PSA-2MB lose on
                // 4KB-grain workloads (soplex, tc.road; §VI-B1).
                let slot = comp.next_cursor;
                comp.next_cursor = if slot + 1 == comp.cursors.len() {
                    0
                } else {
                    slot + 1
                };
                let pos = comp.cursors[slot];
                let page4k = (comp.base / 4096) + pos / 64;
                let stride = Self::subpage_stride(page4k.wrapping_add(slot as u64));
                let next = pos + stride;
                comp.cursors[slot] = if next / 64 != pos / 64 {
                    // Walk done: next sub-page within the sliding locality
                    // window (TLB-friendly, like real blocked access).
                    let window_pages = Self::window_pages(comp.lines);
                    if self.rng.hit(self.draws.window_slide) {
                        // Slide the window occasionally.
                        comp.window = self.rng.below(comp.lines / 64) / window_pages * window_pages;
                    }
                    (comp.window + self.rng.below(window_pages)) % (comp.lines / 64) * 64
                } else {
                    next
                };
                (Self::addr(comp, pos), 1, false)
            }
            CHASE => {
                // Pointer chasing: an LCG *state* drives the positions so
                // the visit order never repeats — no phantom spatial
                // pattern for a delta prefetcher to learn, matching real
                // pointer chases (only *temporal* prefetchers capture
                // them).
                let state = comp.cursors[0]
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                comp.cursors[0] = state;
                let pos = if state & 3 != 0 {
                    (state >> 2) % self.hot_lines
                } else {
                    (state >> 2) % comp.lines
                };
                let dep = self.rng.hit(self.draws.dependent);
                (Self::addr(comp, pos), 2, dep)
            }
            RANDOM => {
                let pos = self.rng.below(comp.lines);
                (Self::addr(comp, pos), 3, false)
            }
            HOT => {
                let pos = self.rng.below(comp.lines);
                (Self::addr(comp, pos), 4, false)
            }
            _ => unreachable!("component index bounded by the pick cutoffs"),
        };
        (vaddr, VAddr::new(pc_base + pc_slot * 8), dependent)
    }
}

impl crate::source::WorkloadSource for TraceGenerator {
    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn next_instr(&mut self) -> Result<Instr, crate::source::TraceError> {
        Ok(self.instr())
    }

    fn take_filler(&mut self, max: u64) -> u64 {
        let n = self.filler_left.min(max);
        self.filler_left -= n;
        self.count += n;
        n
    }

    fn save_cursor(&self, e: &mut psa_common::Enc) {
        e.put_u8(crate::source::SOURCE_KIND_SYNTHETIC);
        psa_common::Persist::save(self, e);
    }

    fn load_cursor(&mut self, d: &mut psa_common::Dec) -> Result<(), psa_common::CodecError> {
        if d.get_u8()? != crate::source::SOURCE_KIND_SYNTHETIC {
            return Err(psa_common::CodecError::Corrupt(
                "cursor is not a synthetic-generator cursor",
            ));
        }
        psa_common::Persist::load(self, d)
    }
}

impl Iterator for TraceGenerator {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        Some(self.instr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PatternMix, Suite};
    use psa_common::PageSize;
    use psa_cpu::InstrKind;

    fn spec(mix: PatternMix, mem_ratio: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: "gen-test",
            suite: Suite::Spec06,
            huge_fraction: 0.9,
            footprint: 64 << 20,
            mem_ratio,
            store_ratio: 0.1,
            dependent_fraction: 0.9,
            mix,
            intensive: true,
        }
    }

    fn collect(spec: &WorkloadSpec, n: usize, seed: u64) -> Vec<Instr> {
        TraceGenerator::new(spec, seed).take(n).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let s = spec(
            PatternMix {
                stream: 1.0,
                random: 1.0,
                ..Default::default()
            },
            0.3,
        );
        assert_eq!(collect(&s, 5000, 7), collect(&s, 5000, 7));
        assert_ne!(collect(&s, 5000, 7), collect(&s, 5000, 8));
    }

    #[test]
    fn memory_intensity_matches_spec() {
        for ratio in [0.2, 0.4] {
            let s = spec(
                PatternMix {
                    stream: 1.0,
                    ..Default::default()
                },
                ratio,
            );
            let instrs = collect(&s, 50_000, 1);
            let mem = instrs
                .iter()
                .filter(|i| !matches!(i.kind, InstrKind::Op))
                .count() as f64
                / instrs.len() as f64;
            assert!((mem - ratio).abs() < 0.08, "ratio {ratio}: measured {mem}");
        }
    }

    #[test]
    fn stream_component_is_sequential() {
        let s = spec(
            PatternMix {
                stream: 1.0,
                ..Default::default()
            },
            0.9,
        );
        let instrs = collect(&s, 2000, 3);
        let lines: Vec<u64> = instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { vaddr, .. } | InstrKind::Store { vaddr } => {
                    Some(vaddr.line().raw())
                }
                _ => None,
            })
            .collect();
        // With 4 interleaved cursors, sorting per cursor isn't needed:
        // consecutive accesses from one cursor differ by exactly 1 line.
        // Just check plenty of +1 steps exist across the stream.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let seq = sorted.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            seq as f64 > sorted.len() as f64 * 0.8,
            "{seq}/{}",
            sorted.len()
        );
    }

    #[test]
    fn streams_cross_4k_boundaries() {
        let s = spec(
            PatternMix {
                stream: 1.0,
                ..Default::default()
            },
            0.9,
        );
        let instrs = collect(&s, 20_000, 3);
        let crossings = instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { vaddr, .. } => Some(vaddr),
                _ => None,
            })
            .filter(|v| v.page_offset(PageSize::Size4K) == 0)
            .count();
        assert!(
            crossings > 10,
            "streams must enter new 4KB pages: {crossings}"
        );
    }

    #[test]
    fn large_stride_component_uses_long_deltas() {
        let s = spec(
            PatternMix {
                stride_large: 1.0,
                ..Default::default()
            },
            0.9,
        );
        let instrs = collect(&s, 200, 5);
        let lines: Vec<i64> = instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { vaddr, .. } | InstrKind::Store { vaddr } => {
                    Some(vaddr.line().raw() as i64)
                }
                _ => None,
            })
            .collect();
        let deltas: Vec<i64> = lines.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            deltas.iter().filter(|&&d| d > 64).count() > deltas.len() / 2,
            "strides must exceed 64 lines: {deltas:?}"
        );
    }

    #[test]
    fn chase_component_produces_dependent_loads() {
        let s = spec(
            PatternMix {
                pointer_chase: 1.0,
                ..Default::default()
            },
            0.9,
        );
        let instrs = collect(&s, 2000, 5);
        let dependent = instrs
            .iter()
            .filter(|i| {
                matches!(
                    i.kind,
                    InstrKind::Load {
                        dependent: true,
                        ..
                    }
                )
            })
            .count();
        assert!(
            dependent > 1000,
            "chase loads must be dependent: {dependent}"
        );
    }

    #[test]
    fn components_use_disjoint_regions_and_pcs() {
        let s = spec(
            PatternMix {
                stream: 1.0,
                pointer_chase: 1.0,
                ..Default::default()
            },
            0.9,
        );
        let instrs = collect(&s, 4000, 9);
        let mut stream_pcs = std::collections::HashSet::new();
        let mut chase_pcs = std::collections::HashSet::new();
        for i in &instrs {
            if let InstrKind::Load { vaddr, .. } = i.kind {
                if vaddr.raw() >> 34 == 1 {
                    stream_pcs.insert(i.pc);
                } else if vaddr.raw() >> 34 == 5 {
                    chase_pcs.insert(i.pc);
                }
            }
        }
        assert!(!stream_pcs.is_empty() && !chase_pcs.is_empty());
        assert!(stream_pcs.is_disjoint(&chase_pcs));
    }

    #[test]
    fn subpage_component_varies_stride_per_4k_page() {
        // Two different 4KB pages should (usually) expose different strides.
        let strides: std::collections::HashSet<u64> =
            (0..64).map(TraceGenerator::subpage_stride).collect();
        assert!(
            strides.len() >= 3,
            "per-page strides must vary: {strides:?}"
        );
    }

    #[test]
    fn store_ratio_respected() {
        let s = spec(
            PatternMix {
                stream: 1.0,
                ..Default::default()
            },
            0.5,
        );
        let instrs = collect(&s, 40_000, 11);
        let (mut loads, mut stores) = (0u32, 0u32);
        for i in &instrs {
            match i.kind {
                InstrKind::Load { .. } => loads += 1,
                InstrKind::Store { .. } => stores += 1,
                InstrKind::Op => {}
            }
        }
        let ratio = f64::from(stores) / f64::from(loads + stores);
        assert!((ratio - 0.1).abs() < 0.03, "store ratio {ratio}");
    }

    #[test]
    fn footprint_bounds_addresses() {
        let s = spec(
            PatternMix {
                random: 1.0,
                ..Default::default()
            },
            0.9,
        );
        let region_lines = s.footprint_lines().max(512);
        for i in collect(&s, 10_000, 13) {
            if let InstrKind::Load { vaddr, .. } = i.kind {
                let off = vaddr.raw() - (6u64 << 34);
                assert!(off / 64 < region_lines);
            }
        }
    }

    /// The f64 draw an integer cutoff stands for: `unit() < p` at the
    /// draw `k = unit_bits()`.
    fn unit_below(k: u64, p: f64) -> bool {
        (k as f64 * (1.0 / (1u64 << 53) as f64)) < p.clamp(0.0, 1.0)
    }

    fn catalog() -> impl Iterator<Item = &'static WorkloadSpec> {
        crate::catalog::WORKLOADS
            .iter()
            .chain(&crate::catalog::NON_INTENSIVE)
    }

    #[test]
    fn catalog_cutoffs_decide_what_the_float_draws_decide() {
        for spec in catalog() {
            let draws = Draws::new(spec);
            let mean_gap = (1.0 / spec.mem_ratio - 1.0).max(0.0);
            let gap = draws.gap.expect("every catalog spec owes filler");
            let cases = [
                (draws.store, spec.store_ratio),
                (draws.dependent, spec.dependent_fraction.max(0.9)),
                (gap, 1.0 / mean_gap.max(1.0)),
                (draws.stream_restart, 1.0 / 16384.0),
                (draws.stride_restart, 1.0 / 2048.0),
                (draws.window_slide, 1.0 / 64.0),
            ];
            for (cutoff, p) in cases {
                for k in [cutoff.saturating_sub(1), cutoff, cutoff + 1] {
                    if k < 1 << 53 {
                        assert_eq!(k < cutoff, unit_below(k, p), "{} p {p} k {k}", spec.name);
                    }
                }
            }
            assert_eq!(draws.gap_short, u64::from(mean_gap < 1.0));
        }
    }

    #[test]
    fn catalog_pick_cutoffs_match_the_weighted_fold() {
        for spec in catalog() {
            let weights = spec.mix.weights();
            let total: f64 = weights.iter().sum();
            let cutoffs = Draws::new(spec).pick;
            let pick = |k: u64| cutoffs.iter().filter(|&&c| k >= c).count();
            let ks = cutoffs
                .iter()
                .flat_map(|&c| [c.saturating_sub(1), c, c + 1])
                .chain([0, (1 << 53) - 1])
                .filter(|&k| k < 1 << 53);
            for k in ks {
                assert_eq!(
                    pick(k),
                    psa_common::rng::weighted_fold(&weights, total, k),
                    "{} k {k}",
                    spec.name
                );
            }
        }
    }

    /// The f64 geometric filler gap that [`TraceGenerator::filler_gap`]
    /// replaces: `burst_len(max(mean_gap, 1), 64)`, less one under a
    /// mean gap of one.
    fn float_gap(rng: &mut DetRng, mem_ratio: f64) -> u64 {
        let mean_gap = (1.0 / mem_ratio - 1.0).max(0.0);
        if mean_gap <= 0.0 {
            return 0;
        }
        let p = 1.0 / mean_gap.max(1.0);
        let mut n = 1;
        while n < 64 && rng.unit() >= p {
            n += 1;
        }
        n - u64::from(mean_gap < 1.0)
    }

    #[test]
    fn filler_gap_draws_what_the_float_loop_draws() {
        for mem_ratio in [0.05, 0.3, 0.5, 0.6, 0.9, 1.0 - f64::EPSILON / 2.0] {
            let s = spec(
                PatternMix {
                    stream: 1.0,
                    ..Default::default()
                },
                mem_ratio,
            );
            let mut g = TraceGenerator::new(&s, 3);
            let mut oracle = g.rng.clone();
            for _ in 0..2_000 {
                assert_eq!(g.filler_gap(), float_gap(&mut oracle, mem_ratio));
            }
            assert_eq!(g.rng.next_u64(), oracle.next_u64(), "same draws consumed");
        }
    }

    /// A mixed-component generator advanced `n` instructions.
    fn advanced(n: usize) -> (WorkloadSpec, TraceGenerator) {
        let s = spec(
            PatternMix {
                stream: 1.0,
                stride_small: 1.0,
                subpage_grain: 1.0,
                pointer_chase: 1.0,
                random: 1.0,
                ..Default::default()
            },
            0.4,
        );
        let mut g = TraceGenerator::new(&s, 31);
        g.by_ref().take(n).for_each(drop);
        (s, g)
    }

    /// Save `g` after `damage` and load it into a generator rebuilt from
    /// the same spec and seed.
    fn reload(
        s: &WorkloadSpec,
        mut g: TraceGenerator,
        damage: impl FnOnce(&mut TraceGenerator),
    ) -> Result<TraceGenerator, psa_common::CodecError> {
        use psa_common::Persist;
        damage(&mut g);
        let mut e = psa_common::Enc::new();
        g.save(&mut e);
        let mut back = TraceGenerator::new(s, 31);
        back.load(&mut psa_common::Dec::new(&e.into_bytes()))?;
        Ok(back)
    }

    #[test]
    fn reload_resumes_the_same_stream() {
        let (s, g) = advanced(3_000);
        let back = reload(&s, g, |_| {}).unwrap();
        let (_, straight) = advanced(3_000);
        assert_eq!(
            back.take(5_000).collect::<Vec<_>>(),
            straight.take(5_000).collect::<Vec<_>>()
        );
    }

    #[test]
    fn component_unlike_the_rebuilt_generator_is_corrupt() {
        let damages: [fn(&mut TraceGenerator); 5] = [
            // Loaded as is, the next access would divide by zero lines.
            |g| g.comps[STREAM].lines = 0,
            |g| g.comps[RANDOM].lines += 1,
            |g| g.comps[CHASE].base = 0,
            |g| g.comps[STRIDE_SMALL].stride += 1,
            |g| g.comps[SUBPAGE].cursors.push(0),
        ];
        for damage in damages {
            let (s, g) = advanced(500);
            let err = reload(&s, g, damage).unwrap_err();
            assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn cursor_index_past_the_cursors_is_corrupt() {
        for comp in [STREAM, HOT] {
            let (s, g) = advanced(500);
            let err = reload(&s, g, |g| {
                g.comps[comp].next_cursor = g.comps[comp].cursors.len();
            })
            .unwrap_err();
            assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
        }
        // Fewer cursors than the index names: an out-of-bounds read.
        let (s, g) = advanced(500);
        let err = reload(&s, g, |g| {
            g.comps[STREAM].cursors.truncate(1);
            g.comps[STREAM].next_cursor = 2;
        })
        .unwrap_err();
        assert!(matches!(err, psa_common::CodecError::Corrupt(_)), "{err}");
    }

    /// Load `damage`d state; a corrupt cursor must be refused, and the
    /// largest value the generator itself could hold (`edge`) accepted.
    fn cursor_bound(damage: impl Fn(&mut TraceGenerator), edge: impl Fn(&mut TraceGenerator)) {
        let (s, g) = advanced(500);
        let err = reload(&s, g, damage).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        let (s, g) = advanced(500);
        let mut back = reload(&s, g, edge).expect("an in-range cursor loads");
        back.by_ref().take(5_000).for_each(drop);
    }

    #[test]
    fn stream_element_past_the_region_is_corrupt() {
        cursor_bound(
            |g| g.comps[STREAM].cursors[1] = g.comps[STREAM].lines * 8,
            |g| g.comps[STREAM].cursors[1] = g.comps[STREAM].lines * 8 - 1,
        );
    }

    #[test]
    fn stride_cursor_past_the_region_is_corrupt() {
        for comp in [STRIDE_SMALL, STRIDE_LARGE] {
            // Loaded as is, the next stride access would overflow
            // `pos + stride`.
            cursor_bound(
                |g| g.comps[comp].cursors[0] = u64::MAX - 1,
                |g| g.comps[comp].cursors[0] = g.comps[comp].lines - 1,
            );
            cursor_bound(|g| g.comps[comp].cursors[0] = g.comps[comp].lines, |_| {});
        }
    }

    #[test]
    fn subpage_cursor_or_window_out_of_range_is_corrupt() {
        cursor_bound(
            |g| g.comps[SUBPAGE].cursors[2] = g.comps[SUBPAGE].lines,
            |g| g.comps[SUBPAGE].cursors[2] = g.comps[SUBPAGE].lines - 1,
        );
        let last_window = |g: &TraceGenerator| {
            let c = &g.comps[SUBPAGE];
            let width = TraceGenerator::window_pages(c.lines);
            (c.lines / 64 - 1) / width * width
        };
        cursor_bound(
            |g| g.comps[SUBPAGE].window = g.comps[SUBPAGE].lines / 64,
            |g| g.comps[SUBPAGE].window = last_window(g),
        );
        // Not a multiple of the window width.
        cursor_bound(|g| g.comps[SUBPAGE].window = 1, |_| {});
    }

    #[test]
    fn chase_state_may_hold_any_value() {
        for state in [0, u64::MAX, 1 << 63] {
            let (s, g) = advanced(500);
            let mut back = reload(&s, g, |g| g.comps[CHASE].cursors[0] = state).unwrap();
            back.by_ref().take(5_000).for_each(drop);
        }
    }

    #[test]
    fn random_and_hot_cursors_past_the_region_are_corrupt() {
        for comp in [RANDOM, HOT] {
            cursor_bound(
                |g| g.comps[comp].cursors[0] = g.comps[comp].lines,
                |g| g.comps[comp].cursors[0] = g.comps[comp].lines - 1,
            );
        }
    }
}
