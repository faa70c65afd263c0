//! SoA-layout parity: the flat-plane `Cache` must agree, call for call,
//! with the historical per-line representation.
//!
//! The array used to store one 40-byte struct per way with a global
//! `u64` LRU stamp; it now keeps 7 bytes per way in separate planes: a
//! set-relative `u32` tag, a `u8` LRU rank within the set, a status byte
//! and a source byte. These tests pin the *semantics* of the old layout
//! with an independent array-of-structs reference model that keeps the
//! stamps, and drive both through long randomised op sequences across
//! set shapes from direct-mapped to 16-way: every
//! `probe`/`fill`/`contains`/`mark_dirty` return value, every eviction
//! (line, dirty bit, useless-prefetch accounting, source annotation), and
//! the full LRU victim order must match exactly — also across snapshots,
//! which the array under test takes and restores as it goes.

use psa_cache::{Cache, CacheConfig, Evicted, FillKind, HitInfo};
use psa_common::{Dec, DetRng, Enc, Persist};
use psa_common::{PLine, LINE_BYTES};

/// One way of the reference model — the old per-line block struct.
#[derive(Debug, Clone, Copy, Default)]
struct RefBlock {
    line: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    used: bool,
    source: u8,
    last_use: u64,
}

/// Array-of-structs reference: the pre-SoA `Cache` semantics, written
/// the straightforward way (two scans, `min_by_key` victim selection).
struct RefCache {
    sets: usize,
    ways: usize,
    blocks: Vec<Vec<RefBlock>>,
    stamp: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets,
            ways,
            blocks: vec![vec![RefBlock::default(); ways]; sets],
            stamp: 0,
        }
    }

    fn set_of(&self, line: PLine) -> usize {
        (line.raw() as usize) & (self.sets - 1)
    }

    fn find(&self, line: PLine) -> Option<usize> {
        self.blocks[self.set_of(line)]
            .iter()
            .position(|b| b.valid && b.line == line.raw())
    }

    fn probe(&mut self, line: PLine) -> Option<HitInfo> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(line);
        let w = self.find(line)?;
        let b = &mut self.blocks[set][w];
        b.last_use = stamp;
        let first_use = b.prefetched && !b.used;
        if first_use {
            b.used = true;
        }
        Some(HitInfo {
            was_prefetched: b.prefetched,
            prefetch_source: b.source,
            first_use,
        })
    }

    fn contains(&self, line: PLine) -> bool {
        self.find(line).is_some()
    }

    fn mark_dirty(&mut self, line: PLine) {
        let set = self.set_of(line);
        if let Some(w) = self.find(line) {
            self.blocks[set][w].dirty = true;
        }
    }

    fn fill(&mut self, line: PLine, kind: FillKind, dirty: bool) -> Option<Evicted> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(line);
        if let Some(w) = self.find(line) {
            let b = &mut self.blocks[set][w];
            b.dirty |= dirty;
            b.last_use = stamp;
            return None;
        }
        // Historical victim choice: `min_by_key` over the ways, invalid
        // ways keyed to 0 so any free way beats any valid one, first
        // minimum winning ties.
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                let b = &self.blocks[set][w];
                if b.valid {
                    b.last_use
                } else {
                    0
                }
            })
            .expect("ways >= 1");
        let old = self.blocks[set][victim];
        let evicted = old.valid.then(|| Evicted {
            line: PLine::new(old.line),
            dirty: old.dirty,
            unused_prefetch: old.prefetched && !old.used,
            prefetch_source: old.source,
        });
        let (prefetched, source) = match kind {
            FillKind::Demand => (false, 0),
            FillKind::Prefetch { source } => (true, source),
        };
        self.blocks[set][victim] = RefBlock {
            line: line.raw(),
            valid: true,
            dirty,
            prefetched,
            used: false,
            source,
            last_use: stamp,
        };
        evicted
    }
}

fn shape(sets: usize, ways: usize) -> CacheConfig {
    CacheConfig {
        name: "parity",
        bytes: LINE_BYTES * sets as u64 * ways as u64,
        ways,
        latency: 1,
        mshr_entries: 4,
    }
}

/// Save `cache` and load the bytes into a freshly built cache of the
/// same shape.
fn restored(cache: &Cache) -> Cache {
    let mut e = Enc::new();
    cache.save(&mut e);
    let mut fresh = Cache::new(*cache.config()).expect("valid shape");
    fresh
        .load(&mut Dec::new(&e.into_bytes()))
        .expect("a saved cache loads");
    assert_eq!(fresh.stats(), cache.stats());
    fresh
}

/// Drive both models through `steps` random operations over a line pool
/// ~3× the capacity (plenty of conflict misses and evictions), checking
/// every return value as it happens. Every few hundred steps the array
/// under test continues from a snapshot of itself, so its tags and LRU
/// ranks must survive persistence exactly.
fn parity_run(sets: usize, ways: usize, steps: u32, seed: u64) {
    let cfg = shape(sets, ways);
    let mut soa = Cache::new(cfg).expect("valid shape");
    let mut aos = RefCache::new(sets, ways);
    let pool = (sets * ways * 3) as u64;
    let mut rng = DetRng::new(seed);
    for step in 0..steps {
        let line = PLine::new(rng.below(pool));
        let ctx = |op: &str| format!("{sets}x{ways} step {step}: {op} {}", line.raw());
        match rng.below(10) {
            // Demand probes dominate, as they do in the walk.
            0..=4 => assert_eq!(soa.probe(line), aos.probe(line), "{}", ctx("probe")),
            5..=6 => {
                let dirty = rng.chance(0.3);
                assert_eq!(
                    soa.fill(line, FillKind::Demand, dirty),
                    aos.fill(line, FillKind::Demand, dirty),
                    "{}",
                    ctx("demand fill")
                );
            }
            7..=8 => {
                let source = rng.below(2) as u8;
                assert_eq!(
                    soa.fill(line, FillKind::Prefetch { source }, false),
                    aos.fill(line, FillKind::Prefetch { source }, false),
                    "{}",
                    ctx("prefetch fill")
                );
            }
            _ => {
                soa.mark_dirty(line);
                aos.mark_dirty(line);
            }
        }
        assert_eq!(
            soa.contains(line),
            aos.contains(line),
            "{}",
            ctx("contains")
        );
        if step % 300 == 299 {
            soa = restored(&soa);
        }
    }
    soa.audit().expect("invariants hold after random workload");
}

#[test]
fn parity_direct_mapped() {
    parity_run(8, 1, 4_000, 0xA11CE);
}

#[test]
fn parity_two_way() {
    parity_run(4, 2, 4_000, 0xB0B);
}

#[test]
fn parity_l2c_shape() {
    // 8-way like the L2C, few sets so eviction pressure is constant.
    parity_run(4, 8, 8_000, 0xC0FFEE);
}

#[test]
fn parity_llc_shape() {
    // 16-way like the LLC.
    parity_run(2, 16, 8_000, 0xD1CE);
}

#[test]
fn parity_single_set_stress() {
    // Fully-associative corner: every line fights over one set, so the
    // LRU order and first-minimal tie-break are exercised on every fill.
    parity_run(1, 8, 8_000, 0x5EED);
}

/// A fill must refresh a resident line in place (prefetch racing a
/// demand through different paths), never evict on a re-fill.
#[test]
fn refill_refreshes_in_place() {
    let mut soa = Cache::new(shape(1, 2)).expect("valid shape");
    let mut aos = RefCache::new(1, 2);
    let a = PLine::new(0);
    let b = PLine::new(1);
    // Fill both ways, then re-fill the LRU one dirty: same block, no
    // eviction, dirty bit set, and the *other* way becomes the victim.
    for (line, dirty) in [(a, false), (b, false), (a, true)] {
        assert_eq!(
            soa.fill(line, FillKind::Demand, dirty),
            aos.fill(line, FillKind::Demand, dirty)
        );
    }
    let c = PLine::new(2);
    let ev_soa = soa.fill(c, FillKind::Demand, false);
    let ev_aos = aos.fill(c, FillKind::Demand, false);
    assert_eq!(ev_soa, ev_aos);
    assert_eq!(
        ev_soa.expect("set was full").line,
        b,
        "a was refreshed, b is LRU"
    );
}
