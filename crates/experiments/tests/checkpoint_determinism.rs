//! End-to-end determinism of the tiered checkpoint/result store through
//! the real `RunCache` batch executor: memory hits, tiered disk hits,
//! memoised finished reports, corrupt-store recovery and injected-fault
//! storms must all reproduce the cold path bit for bit.
//!
//! Each phase runs in its own execution context; a fresh context on the
//! same directory reopens the store exactly as a fresh process would.

use psa_core::PageSizePolicy;
use psa_experiments::runner::{self, Variant};
use psa_experiments::{RunnerOptions, Settings};
use psa_prefetchers::PrefetcherKind;
use psa_sim::SimConfig;
use psa_store::fault::FaultPlan;
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

    // Phase C: with a store directory, warm-ups and finished reports
    // persist in the tiered store. A fresh context reopens the store
    // and must serve every job bit-identically (memoised reports,
    // counted as ckpt_hits).
    let dir = temp_dir("tiered");
    let seeded = run_all(&on_disk(&dir, None));
    assert_eq!(seeded, reference, "disk-seeding run diverged");
    assert!(
        dir.join("MANIFEST").exists(),
        "tiered store manifest missing"
    );
    assert!(!seg_files(&dir).is_empty(), "no store segments written");

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
