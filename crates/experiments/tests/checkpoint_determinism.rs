//! End-to-end determinism of the tiered checkpoint/result store through
//! the real executors: memory hits, tiered disk hits, memoised finished
//! reports, warm snapshots restored from disk, corrupt-store recovery
//! and injected-fault storms must all reproduce the cold path bit for
//! bit.
//!
//! Each phase runs in its own execution context; a fresh context on the
//! same directory reopens the store exactly as a fresh process would.

use psa_core::PageSizePolicy;
use psa_experiments::runner::{self, JobSpec, Variant};
use psa_experiments::{ckpt, RunnerOptions, Settings};
use psa_prefetchers::PrefetcherKind;
use psa_sim::{SimConfig, System};
use psa_store::fault::FaultPlan;
use psa_store::{EntryKind, Store, StoreConfig};
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
/// Debug-format every report — bit-identical state produces
/// byte-identical strings.
fn run_all(settings: &Settings) -> Vec<String> {
    let jobs = jobs();
    let mut cache = settings.cache();
    cache.run_batch_refs(config(), &jobs);
    jobs.iter()
        .map(|&(w, v)| format!("{:?}", cache.run_ref(config(), w, v)))
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

    // Phase B: a second cache in the same context shares every warm-up
    // from the memory tier — and reproduces the reports exactly.
    let before = memory.ctx.stats();
    let warm = run_all(&memory);
    let after = memory.ctx.stats();
    assert_eq!(warm, reference, "memory-warm run diverged from cold run");
    assert_eq!(
        after.warmups_shared - before.warmups_shared,
        n,
        "every job should share its warm-up from memory"
    );
    assert_eq!(after.ckpt_hits, 0, "no disk store is set");

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

    // A memoised run's only artifact is its report: the store holds no
    // warm snapshot under any run's warm key.
    let mut store = Store::open(StoreConfig::new(dir.clone()));
    for (w, v) in jobs() {
        let key = ckpt::warm_key(&v.build_config(config()), &[w.name], &v.label());
        assert!(
            store.get(EntryKind::Warmup, key).is_none(),
            "{}/{}: a memoised run stored a warm snapshot",
            w.name,
            v.label()
        );
    }
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

/// The warm-snapshot path that remains with a disk store: fig14-style
/// multi-core mix jobs through `parallel_map_isolated` and
/// `warm_via_checkpoint`. A second fresh context on the same store
/// restores every warm-up from disk and reproduces the first bit for bit.
#[test]
fn isolated_jobs_restore_every_warm_up_from_disk() {
    let mut mix_config = SimConfig::for_cores(2);
    mix_config.warmup = config().warmup;
    mix_config.instructions = config().instructions;
    let mixes = random_mixes(2, 2, mix_config.seed);
    let jobs: Vec<(usize, PageSizePolicy)> = (0..mixes.len())
        .flat_map(|i| [PageSizePolicy::Original, PageSizePolicy::Psa].map(|p| (i, p)))
        .collect();
    let label = |policy| Variant::Pref(PrefetcherKind::Spp, policy).label();
    let run = |settings: &Settings| -> Vec<String> {
        runner::parallel_map_isolated(
            &settings.ctx,
            &jobs,
            |&(i, policy)| JobSpec {
                workload: mixes[i][0].name,
                label: format!("{}/mix{i}", label(policy)),
            },
            |&(i, policy), env| {
                let cfg = env.config(mix_config);
                let mix = &mixes[i];
                let build = move || System::try_multi_core(cfg, mix, PrefetcherKind::Spp, policy);
                ckpt::warm_via_checkpoint(&settings.ctx, &build, &label(policy))?.try_run_multi()
            },
        )
        .iter()
        .map(|r| format!("{r:?}"))
        .collect()
    };

    let dir = temp_dir("isolated");
    let cold = on_disk(&dir, None);
    let first = run(&cold);
    let stats = cold.ctx.stats();
    drop(cold);
    assert!(first.iter().all(|r| r.starts_with("Some(")), "{first:?}");
    assert_eq!((stats.ckpt_hits, stats.failed), (0, 0));

    let warm = on_disk(&dir, None);
    let second = run(&warm);
    let stats = warm.ctx.stats();
    drop(warm);
    assert_eq!(second, first, "disk-restored warm-ups diverged");
    assert_eq!(
        stats.ckpt_hits,
        jobs.len() as u64,
        "every warm-up should be restored from disk"
    );
    let _ = fs::remove_dir_all(&dir);
}
