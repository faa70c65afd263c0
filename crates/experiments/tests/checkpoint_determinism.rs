//! End-to-end determinism of the tiered checkpoint/result store through
//! the run cache: finished single-core and multi-core reports memoised
//! in the memory and disk tiers, corrupt-store recovery and
//! injected-fault storms must all reproduce the cold path bit for bit.
//!
//! Each phase runs in its own execution context; a fresh context on the
//! same directory reopens the store exactly as a fresh process would.

use psa_core::PageSizePolicy;
use psa_experiments::runner::{self, Variant};
use psa_experiments::{RunnerOptions, Settings};
use psa_prefetchers::PrefetcherKind;
use psa_sim::SimConfig;
use psa_store::fault::FaultPlan;
use psa_store::{Store, StoreConfig};
use psa_traces::mixes::random_mixes;
use psa_traces::WorkloadSpec;
use std::fs;
use std::path::{Path, PathBuf};

fn jobs() -> Vec<(&'static WorkloadSpec, Variant)> {
    let variants = [
        Variant::NoPrefetch,
        Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Original),
        Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
        Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::PsaSd),
    ];
    ["lbm", "soplex"]
        .iter()
        .map(|n| runner::workload(n).unwrap())
        .flat_map(|w| variants.iter().map(move |&v| (w, v)))
        .collect()
}

fn config() -> SimConfig {
    SimConfig::default()
        .with_warmup(2_000)
        .with_instructions(6_000)
}

/// Run the whole batch through a fresh cache in `settings`' context and
/// Debug-format every outcome — bit-identical state produces
/// byte-identical strings, and a failed job shows as `Failed`.
fn run_all(settings: &Settings) -> Vec<String> {
    let jobs = jobs();
    let mut cache = settings.cache();
    cache.run_batch_refs(config(), &jobs);
    jobs.iter()
        .map(|&(w, v)| format!("{:?}", cache.outcome_ref(config(), w, v)))
        .collect()
}

/// A fresh context (a "fresh process") over a store in `dir`, optionally
/// under a fault plan.
fn on_disk(dir: &Path, fault_plan: Option<&str>) -> Settings {
    Settings::new(RunnerOptions {
        ckpt_dir: Some(dir.to_path_buf()),
        fault_plan: fault_plan.map(|spec| FaultPlan::parse(spec).unwrap()),
        ..RunnerOptions::default()
    })
}

fn seg_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".psg"))
        })
        .collect();
    files.sort();
    files
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psa-ckpt-det-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn warm_checkpoints_reproduce_the_cold_path_bit_for_bit() {
    let n = jobs().len() as u64;

    // Phase A: cold reference (no disk store, empty memory store).
    let memory = Settings::default();
    let reference = run_all(&memory);
    assert!(
        reference.iter().all(|r| r.starts_with("Ok(")),
        "a reference job failed"
    );

    // Phase B: a second cache in the same context is answered by the
    // reports the first one memoised in the memory-only store: the same
    // bytes, and nothing simulated. `run_all` also looks each job up in
    // its own cache once, so Phase A counted `n` run-cache hits and
    // Phase B counts those `n` plus `n` store hits.
    let before = memory.ctx.stats();
    assert_eq!(before.memo_hits, n, "phase A: one run-cache lookup per job");
    let memoised = run_all(&memory);
    let after = memory.ctx.stats();
    assert_eq!(memoised, reference, "memoised run diverged from cold run");
    assert_eq!(
        (after.simulated, after.sim_cycles),
        (before.simulated, before.sim_cycles),
        "a memoised job simulated"
    );
    assert_eq!(
        after.memo_hits - before.memo_hits,
        2 * n,
        "every job should be a memory-tier report hit"
    );
    assert_eq!(
        (after.ckpt_hits, after.warmups_shared),
        (0, 0),
        "no disk store is set, and a memory-only store holds no snapshot"
    );

    // Phase C: with a store directory, finished reports persist in the
    // tiered store. A fresh context reopens the store and must serve
    // every job bit-identically (memoised reports, counted as
    // ckpt_hits).
    let dir = temp_dir("tiered");
    let seeded = run_all(&on_disk(&dir, None));
    assert_eq!(seeded, reference, "disk-seeding run diverged");
    assert!(
        dir.join("MANIFEST").exists(),
        "tiered store manifest missing"
    );
    assert!(!seg_files(&dir).is_empty(), "no store segments written");

    // A memoised run's only artifact is its report: the disk tier holds
    // exactly one entry per job.
    let store = Store::open(StoreConfig::new(dir.clone()));
    assert_eq!(
        store.disk_entries(),
        jobs().len(),
        "one stored report per job, and nothing else"
    );
    drop(store);

    let reopened = on_disk(&dir, None);
    let from_disk = run_all(&reopened);
    let stats = reopened.ctx.stats();
    drop(reopened);
    assert_eq!(from_disk, reference, "disk-warm run diverged from cold run");
    assert_eq!(
        stats.ckpt_hits, n,
        "every job should be served from the store (memoised reports)"
    );
    assert_eq!(
        (stats.simulated, stats.sim_cycles),
        (0, 0),
        "a job answered by a memoised report is not a simulation"
    );
    assert_eq!(stats.failed, 0, "store traffic must not fail jobs");

    // Phase D: damage the store — truncate every segment and flip a
    // byte of the manifest. Recovery must quarantine the damage, fall
    // back to cold runs, and still reproduce the reference — no panic,
    // no silently wrong numbers.
    for path in seg_files(&dir) {
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len().min(10)]).unwrap();
    }
    let manifest = dir.join("MANIFEST");
    let mut bytes = fs::read(&manifest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&manifest, bytes).unwrap();

    let quarantined = runner::global_stats().store.quarantined;
    let damaged = on_disk(&dir, None);
    let degraded = run_all(&damaged);
    let stats = damaged.ctx.stats();
    assert_eq!(degraded, reference, "corrupt-store fallback diverged");
    assert_eq!(stats.ckpt_hits, 0, "corrupt entries must not count as hits");
    assert!(
        stats.store.quarantined > quarantined,
        "recovery should have quarantined the damage"
    );
    assert_eq!(stats.failed, 0, "fallback is not a failure");

    // Phase E: a seeded fault storm over a fresh store. Faulted writes
    // and reads degrade to cold work; results never change.
    let storm_dir = temp_dir("storm");
    let storm = Some("seed=5,torn=0.1,flip=0.1,enospc=0.05,eio=0.15");
    let injected = runner::global_stats().store.injected_faults;
    for pass in ["cold", "warm"] {
        let stormy = on_disk(&storm_dir, storm);
        assert_eq!(run_all(&stormy), reference, "faulted {pass} run diverged");
        assert_eq!(
            stormy.ctx.stats().failed,
            0,
            "injected IO faults must not fail jobs"
        );
    }
    assert!(
        runner::global_stats().store.injected_faults > injected,
        "the fault plan should actually inject"
    );

    for d in [dir, storm_dir] {
        let _ = fs::remove_dir_all(&d);
    }
}

/// Multi-core mixes memoise their reports like single-core runs: a
/// second fresh context on the same store serves every mix job from
/// disk, simulates nothing and reproduces the first bit for bit.
#[test]
fn mix_reports_are_served_from_disk() {
    let mut mix_config = SimConfig::for_cores(2);
    mix_config.warmup = config().warmup;
    mix_config.instructions = config().instructions;
    let mixes = random_mixes(2, 2, mix_config.seed);
    let variants = [PageSizePolicy::Original, PageSizePolicy::Psa]
        .map(|policy| Variant::Pref(PrefetcherKind::Spp, policy));
    let n = (mixes.len() * variants.len()) as u64;
    let run = |settings: &Settings| -> Vec<String> {
        settings
            .cache()
            .mix_rows(mix_config, &mixes, &variants)
            .iter()
            .map(|row| format!("{row:?}"))
            .collect()
    };

    let dir = temp_dir("mixes");
    let cold = on_disk(&dir, None);
    let first = run(&cold);
    let stats = cold.ctx.stats();
    drop(cold);
    assert_eq!(first.len(), mixes.len(), "a mix job failed: {first:?}");
    assert_eq!((stats.simulated, stats.ckpt_hits, stats.failed), (n, 0, 0));

    let warm = on_disk(&dir, None);
    let second = run(&warm);
    let stats = warm.ctx.stats();
    drop(warm);
    assert_eq!(second, first, "disk-served mix reports diverged");
    assert_eq!(
        (stats.simulated, stats.ckpt_hits),
        (0, n),
        "every mix job should be served from the store"
    );
    let _ = fs::remove_dir_all(&dir);
}
