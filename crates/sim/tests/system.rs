//! End-to-end system tests: whole-machine runs through the public API.
//!
//! These started life as `system.rs` unit tests; the hierarchy refactor
//! moved them out of the crate so they exercise exactly the surface
//! downstream code sees.

use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{L1dPrefKind, SimConfig, SimError, System};
use psa_traces::catalog;

fn quick() -> SimConfig {
    SimConfig::default()
        .with_warmup(2_000)
        .with_instructions(10_000)
}

#[test]
fn baseline_runs_and_reports() {
    let r = System::baseline(quick(), catalog::workload("lbm").unwrap()).run();
    assert_eq!(r.instructions, 10_000);
    assert!(r.cycles > 0);
    assert!(r.ipc() > 0.0 && r.ipc() <= 4.0);
    assert!(r.llc.demand_accesses() > 0, "lbm must stress the LLC");
    assert!(r.module.is_none());
}

#[test]
fn prefetching_beats_baseline_on_a_stream() {
    let base = System::baseline(quick(), catalog::workload("lbm").unwrap()).run();
    let spp = System::single_core(
        quick(),
        catalog::workload("lbm").unwrap(),
        PrefetcherKind::Spp,
        PageSizePolicy::Original,
    )
    .run();
    assert!(
        spp.ipc() > base.ipc() * 1.02,
        "SPP must speed up a stream: {} vs {}",
        spp.ipc(),
        base.ipc()
    );
    assert!(spp.module.unwrap().issued > 0);
}

#[test]
fn psa_beats_original_on_a_huge_page_stream() {
    // Needs a long enough window for prefetch lead to build; small
    // windows are cold-start noise.
    let cfg = SimConfig::default()
        .with_warmup(40_000)
        .with_instructions(120_000);
    let w = catalog::workload("lbm").unwrap();
    let orig = System::single_core(cfg, w, PrefetcherKind::Spp, PageSizePolicy::Original).run();
    let psa = System::single_core(cfg, w, PrefetcherKind::Spp, PageSizePolicy::Psa).run();
    // At laptop-scale budgets PSA and original trade a few percent on
    // lbm (PSA shifts coverage from L2C fills to LLC fills); the guard
    // is against collapse, not single-digit noise. The geomean-level
    // claims are asserted in the experiments crate.
    assert!(
        psa.ipc() >= orig.ipc() * 0.90,
        "PSA must not collapse on a streaming huge-page workload: {} vs {}",
        psa.ipc(),
        orig.ipc()
    );
    // The original discards crossing prefetches; PSA does not.
    let ob = orig.boundary.unwrap();
    let pb = psa.boundary.unwrap();
    // And PSA must recover real coverage from the crossing freedom.
    assert!(
        psa.llc.demand_misses <= orig.llc.demand_misses,
        "PSA LLC coverage must not regress: {} vs {}",
        psa.llc.demand_misses,
        orig.llc.demand_misses
    );
    assert!(
        ob.discarded_cross_4k_in_huge > 0,
        "Figure 2 counter must fire"
    );
    assert_eq!(
        pb.discarded_cross_4k_in_huge, 0,
        "PSA never discards for in-huge crossing"
    );
}

#[test]
fn determinism() {
    let w = catalog::workload("milc").unwrap();
    let a = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::PsaSd).run();
    let b = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::PsaSd).run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l2c.demand_misses, b.l2c.demand_misses);
    assert_eq!(a.module.unwrap().issued, b.module.unwrap().issued);
}

#[test]
fn multicore_runs_all_cores() {
    let w1 = catalog::workload("lbm").unwrap();
    let w2 = catalog::workload("mcf").unwrap();
    let r = System::multi_core(
        SimConfig::for_cores(2)
            .with_warmup(1_000)
            .with_instructions(5_000),
        &[w1, w2],
        PrefetcherKind::Spp,
        PageSizePolicy::Psa,
    )
    .run_multi();
    assert_eq!(r.ipc.len(), 2);
    assert!(r.ipc.iter().all(|&x| x > 0.0));
    assert_eq!(r.workloads, vec!["lbm", "mcf"]);
}

#[test]
fn thp_series_tracks_huge_usage() {
    let r = System::baseline(quick(), catalog::workload("lbm").unwrap()).run();
    assert!(!r.thp_series.is_empty());
    let last = r.thp_series.last().unwrap().1;
    assert!(last > 0.8, "lbm maps ~95% huge: {last}");
    let r4k = System::baseline(quick(), catalog::workload("soplex").unwrap()).run();
    assert!(
        r4k.huge_usage < 0.4,
        "soplex is 4KB-dominated: {}",
        r4k.huge_usage
    );
}

#[test]
fn l1d_prefetcher_config_runs() {
    let mut cfg = quick();
    cfg.l1d_prefetcher = L1dPrefKind::IpcpPlusPlus;
    let r = System::baseline(cfg, catalog::workload("lbm").unwrap()).run();
    assert!(r.ipc() > 0.0);
}

#[test]
fn try_build_reports_bad_shapes_as_values() {
    let mut cfg = quick();
    cfg.sd.dedicated_sets = 4096; // cannot fit the 1024-set L2C
    let err = System::try_single_core(
        cfg,
        catalog::workload("lbm").unwrap(),
        PrefetcherKind::Spp,
        PageSizePolicy::PsaSd,
    )
    .err()
    .expect("oversized dueling groups must be rejected");
    assert!(matches!(err, SimError::Config { .. }), "{err}");
    assert!(err.to_string().contains("module"), "{err}");
}

#[test]
fn watchdog_aborts_a_crafted_stall_with_a_snapshot() {
    // Threshold 1: nothing retires before the ROB fills (352 entries)
    // and nothing drains before the first fill matures, but the fetch
    // cycle advances every 4 instructions — so the gap exceeds one
    // cycle almost immediately and the "stall" is detected.
    let cfg = quick().with_watchdog(1);
    let sys = System::single_core(
        cfg,
        catalog::workload("lbm").unwrap(),
        PrefetcherKind::Spp,
        PageSizePolicy::Psa,
    );
    match sys.try_run() {
        Err(SimError::WatchdogStall(snap)) => {
            assert_eq!(snap.watchdog_cycles, 1);
            assert!(snap.cycle > snap.last_progress_cycle + 1);
            assert_eq!(snap.cores.len(), 1);
            assert_eq!(snap.cores[0].retired, 0, "no retirement yet");
            assert_eq!(snap.llc_mshr_capacity, 64);
        }
        other => panic!("expected a watchdog stall, got {other:?}"),
    }
}

#[test]
fn watchdog_disabled_and_default_let_runs_finish() {
    let w = catalog::workload("lbm").unwrap();
    let on = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::Psa)
        .try_run()
        .expect("default threshold never fires on a healthy run");
    let off = System::single_core(
        quick().with_watchdog(0),
        w,
        PrefetcherKind::Spp,
        PageSizePolicy::Psa,
    )
    .try_run()
    .expect("disabled watchdog");
    assert_eq!(on.cycles, off.cycles, "watchdog must not perturb timing");
}

#[test]
fn invariant_checker_passes_on_seeded_runs() {
    let w = catalog::workload("milc").unwrap();
    let checked = System::single_core(
        quick().with_check(true),
        w,
        PrefetcherKind::Spp,
        PageSizePolicy::PsaSd,
    )
    .try_run()
    .expect("audits hold on a healthy seeded run");
    let plain = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::PsaSd).run();
    assert_eq!(
        checked.cycles, plain.cycles,
        "read-only audits must not perturb timing"
    );
    assert_eq!(checked.l2c.demand_misses, plain.l2c.demand_misses);

    // Multi-core: exercises cross-core annotation ownership and the
    // shared frame-map reconciliation.
    System::multi_core(
        SimConfig::for_cores(2)
            .with_warmup(1_000)
            .with_instructions(4_000)
            .with_check(true),
        &[w, catalog::workload("mcf").unwrap()],
        PrefetcherKind::Spp,
        PageSizePolicy::PsaSd,
    )
    .try_run_multi()
    .expect("audits hold on a multi-core run");
}

#[test]
fn audit_runs_on_a_fresh_machine() {
    let sys = System::baseline(quick(), catalog::workload("lbm").unwrap());
    sys.audit().expect("an untouched machine is consistent");
}
