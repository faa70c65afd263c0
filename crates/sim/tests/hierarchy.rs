//! System-level sanity: the machine must respond to resource knobs in the
//! physically-required direction (the backbone of Figure 12's sweeps) —
//! plus per-level unit tests against the `psa_hier` walk the machine is
//! assembled from.

use psa_cache::{Cache, CacheConfig};
use psa_common::obs::EventRing;
use psa_common::{PLine, VAddr};
use psa_core::{PageSizePolicy, PrefetchRequest};
use psa_hier::{CacheLevel, Feedback, MemoryBackend, Request, Role, Walk, WalkStats};
use psa_prefetchers::PrefetcherKind;
use psa_sim::{SimConfig, System};
use psa_traces::catalog;

fn quick() -> SimConfig {
    SimConfig::default()
        .with_warmup(4_000)
        .with_instructions(16_000)
}

#[test]
fn faster_dram_never_hurts() {
    let w = catalog::workload("lbm").unwrap();
    let mut prev = 0.0;
    for mts in [400, 1600, 6400] {
        let mut cfg = quick();
        cfg.dram.mts = mts;
        let ipc = System::baseline(cfg, w).run().ipc();
        assert!(
            ipc >= prev * 0.98,
            "IPC must not degrade with bandwidth: {ipc} at {mts} MT/s vs {prev}"
        );
        prev = ipc;
    }
}

#[test]
fn bigger_llc_never_misses_more() {
    // A hot-set workload whose footprint straddles the smaller LLC sizes.
    let w = catalog::workload("hmmer").unwrap();
    let mut prev = u64::MAX;
    for bytes in [256u64 << 10, 1 << 20, 2 << 20] {
        let mut cfg = quick();
        cfg.llc.bytes = bytes;
        let misses = System::baseline(cfg, w).run().llc.demand_misses;
        assert!(
            prev == u64::MAX || misses <= prev + prev / 10,
            "LLC misses should not grow with capacity: {misses} at {bytes}B vs {prev}"
        );
        prev = misses;
    }
}

#[test]
fn more_l1d_mshrs_do_not_reduce_throughput() {
    let w = catalog::workload("bwaves").unwrap();
    let mut cfg8 = quick();
    cfg8.l1d.mshr_entries = 4;
    let small = System::baseline(cfg8, w).run().ipc();
    let mut cfg32 = quick();
    cfg32.l1d.mshr_entries = 32;
    let big = System::baseline(cfg32, w).run().ipc();
    assert!(
        big >= small * 0.98,
        "MLP must not shrink with more MSHRs: {big} vs {small}"
    );
}

#[test]
fn memory_intensive_workloads_sit_below_the_width_ceiling() {
    for name in ["lbm", "mcf", "milc"] {
        let w = catalog::workload(name).unwrap();
        let ipc = System::baseline(quick(), w).run().ipc();
        assert!(ipc > 0.0 && ipc < 4.0, "{name}: IPC {ipc} out of range");
    }
}

#[test]
fn non_intensive_workloads_run_faster_than_intensive() {
    let quiet = catalog::workload("povray").unwrap();
    let heavy = catalog::workload("mcf").unwrap();
    let q = System::baseline(quick(), quiet).run();
    let h = System::baseline(quick(), heavy).run();
    assert!(
        q.ipc() > h.ipc(),
        "a hot-set workload must out-run a pointer chase: {} vs {}",
        q.ipc(),
        h.ipc()
    );
    assert!(q.llc_mpki() < h.llc_mpki());
}

#[test]
fn prefetcher_variants_all_run_for_every_kind() {
    let w = catalog::workload("roms_s").unwrap();
    for kind in PrefetcherKind::EVALUATED {
        for policy in PageSizePolicy::ALL {
            let r = System::single_core(quick(), w, kind, policy).run();
            assert!(r.ipc() > 0.0, "{kind}{}: zero IPC", policy.suffix());
        }
    }
}

#[test]
fn multicore_shares_the_llc() {
    // Two copies of a streaming workload on a shared LLC must each run
    // slower than the same workload alone on the same machine.
    let w = catalog::workload("lbm").unwrap();
    let cfg = SimConfig::for_cores(2)
        .with_warmup(2_000)
        .with_instructions(10_000);
    let duo = System::multi_core_baseline(cfg, &[w, w]).run_multi();
    let solo = System::multi_core_baseline(cfg, &[w]).run_multi();
    assert!(
        duo.ipc[0] <= solo.ipc[0] * 1.05,
        "contention must not speed a core up: {} vs {}",
        duo.ipc[0],
        solo.ipc[0]
    );
}

// ---------------------------------------------------------------------------
// Per-level unit tests against the psa-hier CacheLevel/Walk API.
// ---------------------------------------------------------------------------

/// Fixed-latency memory test double recording every demand it serves.
struct FlatBackend {
    latency: u64,
    demands: Vec<(PLine, u64, bool)>,
}

impl FlatBackend {
    fn new(latency: u64) -> Self {
        Self {
            latency,
            demands: Vec::new(),
        }
    }
}

impl MemoryBackend for FlatBackend {
    fn demand(&mut self, line: PLine, at: u64, write: bool) -> u64 {
        self.demands.push((line, at, write));
        at + self.latency
    }

    fn prefetch(&mut self, _line: PLine, at: u64) -> Option<u64> {
        Some(at + self.latency)
    }
}

fn level(bytes: u64, ways: usize, latency: u64, mshrs: usize, role: Role) -> CacheLevel {
    let cache = Cache::new(CacheConfig {
        name: "T",
        bytes,
        ways,
        latency,
        mshr_entries: mshrs,
    })
    .unwrap();
    CacheLevel::new(cache, role)
}

fn req(line: u64) -> Request {
    Request {
        line: PLine::new(line),
        pc: VAddr::new(0),
        write: false,
        huge: false,
    }
}

/// Everything a `Walk` borrows besides the levels and the backend.
struct Scratch {
    ring: EventRing,
    feedback: Vec<Feedback>,
    stats: WalkStats,
    pf_buf: Vec<PrefetchRequest>,
}

impl Scratch {
    fn new(levels: usize) -> Self {
        Self {
            ring: EventRing::disabled(),
            feedback: Vec::new(),
            stats: WalkStats::new(levels),
            pf_buf: Vec::new(),
        }
    }
}

macro_rules! walk {
    ($levels:expr, $mem:expr, $s:expr) => {
        Walk {
            levels: $levels,
            memory: $mem,
            ring: &mut $s.ring,
            feedback: &mut $s.feedback,
            stats: &mut $s.stats,
            pf_buf: &mut $s.pf_buf,
            core: 0,
        }
    };
}

#[test]
fn level_miss_then_hit_has_exact_timing() {
    let mut l0 = level(4 << 10, 4, 5, 8, Role::Entry);
    let mut mem = FlatBackend::new(100);
    let mut s = Scratch::new(1);
    let mut lv = [&mut l0];
    let mut w = walk!(&mut lv, &mut mem, s);

    // Cold miss: descend past the level at t + latency, complete when the
    // backend answers.
    let (done, hit) = w.demand(0, &req(7), 0, false).unwrap();
    assert!(!hit);
    assert_eq!(done, 105, "5-cycle probe + 100-cycle memory");
    assert_eq!(mem.demands, vec![(PLine::new(7), 5, false)]);

    // After the fill matures the same line is a hit at the level latency.
    let mut lv = [&mut l0];
    let mut w = walk!(&mut lv, &mut mem, s);
    let (done, hit) = w.demand(0, &req(7), 200, false).unwrap();
    assert!(hit, "matured fill must be drained into the array");
    assert_eq!(done, 205);
    assert_eq!(mem.demands.len(), 1, "a hit never touches memory");
}

#[test]
fn pending_miss_merges_instead_of_refetching() {
    let mut l0 = level(4 << 10, 4, 5, 8, Role::Entry);
    let mut mem = FlatBackend::new(100);
    let mut s = Scratch::new(1);
    let mut lv = [&mut l0];
    let mut w = walk!(&mut lv, &mut mem, s);
    let (first, _) = w.demand(0, &req(7), 0, false).unwrap();

    // Second demand to the in-flight line merges onto the MSHR entry.
    let mut lv = [&mut l0];
    let mut w = walk!(&mut lv, &mut mem, s);
    let (second, hit) = w.demand(0, &req(7), 10, false).unwrap();
    assert!(!hit);
    assert_eq!(second, first, "merged demand completes with the fill");
    assert_eq!(mem.demands.len(), 1, "merge must not refetch");
}

#[test]
fn full_mshr_bumps_a_demand_to_the_earliest_fill() {
    let mut l0 = level(4 << 10, 4, 5, 2, Role::Entry);
    let mut mem = FlatBackend::new(100);
    let mut s = Scratch::new(1);
    for line in [1, 2] {
        let mut lv = [&mut l0];
        let mut w = walk!(&mut lv, &mut mem, s);
        w.demand(0, &req(line), 0, false).unwrap();
    }
    assert!(l0.mshr.is_full());

    // Third distinct miss stalls until the earliest in-flight fill (105)
    // frees a slot, then descends.
    let mut lv = [&mut l0];
    let mut w = walk!(&mut lv, &mut mem, s);
    let (done, _) = w.demand(0, &req(3), 0, false).unwrap();
    assert_eq!(
        s.stats.debug.mshr_bump_stall, 105,
        "entry level accounts the bump stall"
    );
    assert_eq!(done, 210, "bumped to 105, then 5-cycle probe + memory");
    assert_eq!(mem.demands.last(), Some(&(PLine::new(3), 110, false)));
}

#[test]
fn dirty_evictions_write_back_in_eviction_order() {
    // 1-way, 2-set array: even lines all collide in set 0.
    let mut l0 = level(128, 1, 5, 8, Role::Entry);
    let mut mem = FlatBackend::new(100);
    let mut s = Scratch::new(1);
    for (line, t) in [(0u64, 0u64), (2, 200), (4, 400)] {
        let mut lv = [&mut l0];
        let mut w = walk!(&mut lv, &mut mem, s);
        let mut r = req(line);
        r.write = true;
        w.demand(0, &r, t, false).unwrap();
    }
    // Each store misses; each matured dirty fill evicts its predecessor,
    // whose writeback reaches memory before the newcomer's own descent.
    assert_eq!(
        mem.demands,
        vec![
            (PLine::new(0), 5, true),
            (PLine::new(2), 205, true),
            (PLine::new(0), 400, true), // eviction of line 0, written back
            (PLine::new(4), 405, true),
        ]
    );
}

#[test]
fn walk_generalises_from_two_to_three_levels() {
    let mem_lat = 100;
    let line = 9u64;

    // Two-level chain: entry (5) over shared (20).
    let mut a0 = level(4 << 10, 4, 5, 8, Role::Entry);
    let mut a1 = level(64 << 10, 8, 20, 8, Role::Shared);
    let mut mem2 = FlatBackend::new(mem_lat);
    let mut s2 = Scratch::new(2);
    let mut lv = [&mut a0, &mut a1];
    let mut w = walk!(&mut lv, &mut mem2, s2);
    let (done2, _) = w.demand(0, &req(line), 0, false).unwrap();
    assert_eq!(done2, 5 + 20 + mem_lat);
    assert_eq!(mem2.demands, vec![(PLine::new(line), 25, false)]);

    // Three-level chain: entry (5), attach (10), shared (20). Same walk
    // code, one more level of latency.
    let mut b0 = level(4 << 10, 4, 5, 8, Role::Entry);
    let mut b1 = level(16 << 10, 8, 10, 8, Role::Attach);
    let mut b2 = level(64 << 10, 8, 20, 8, Role::Shared);
    let mut mem3 = FlatBackend::new(mem_lat);
    let mut s3 = Scratch::new(3);
    let mut lv = [&mut b0, &mut b1, &mut b2];
    let mut w = walk!(&mut lv, &mut mem3, s3);
    let (done3, _) = w.demand(0, &req(line), 0, false).unwrap();
    assert_eq!(done3, 5 + 10 + 20 + mem_lat);
    assert_eq!(mem3.demands, vec![(PLine::new(line), 35, false)]);

    // Every level on the path allocated, and a later access hits at the
    // entry level in both shapes.
    let mut lv = [&mut a0, &mut a1];
    let mut w = walk!(&mut lv, &mut mem2, s2);
    let (h2, hit2) = w.demand(0, &req(line), 1_000, false).unwrap();
    let mut lv = [&mut b0, &mut b1, &mut b2];
    let mut w = walk!(&mut lv, &mut mem3, s3);
    let (h3, hit3) = w.demand(0, &req(line), 1_000, false).unwrap();
    assert!(hit2 && hit3);
    assert_eq!(h2, 1_005);
    assert_eq!(h3, 1_005, "entry-level hits cost the same in both shapes");
}
