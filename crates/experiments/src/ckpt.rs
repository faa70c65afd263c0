//! Checkpoint/result sharing through the crash-safe tiered store
//! (`psa-store`): memoise whole finished reports, and share warm-up
//! snapshots across processes, instead of re-simulating them.
//!
//! # Sharing model
//!
//! * With observability off, every `(workload, variant)` run memoises its
//!   finished [`RunReport`] in the context's store, memory-only or
//!   tiered, and a served job memoises its clean document. A repeat at
//!   the same key skips the whole simulation and serves bit-identical
//!   report bytes: another figure's [`crate::runner::RunCache`] over the
//!   same context, another job forked from a daemon's context, or, with
//!   `PSA_CKPT_DIR` set, a later process. A memoised run stores nothing
//!   else: its warm key names the same run as its report key, so the
//!   report always answers before a warm snapshot could. It warms up in
//!   place, and so does an observed run, which must execute to produce
//!   its event stream.
//! * Warm snapshots are shared only through [`warm_via_checkpoint`], by
//!   the jobs without a report memo: the custom-configured jobs of
//!   [`crate::runner::parallel_map_isolated`] (fig11 ISO storage, fig14/15
//!   mixes, ablations). It touches the store only when the context has a
//!   disk tier (`PSA_CKPT_DIR`), where the snapshots persist across
//!   processes; a memory-only store never holds one. A snapshot is only
//!   reusable under an **exact key** ([`warm_key`]), because the
//!   prefetcher trains during warm-up and every variant therefore
//!   reaches a different warm state.
//!
//! Each store hit is counted by the tier that answered it: from memory,
//! a report or document is a `memo_hits` hit and a warm snapshot a
//! `warmups_shared` one; from disk, either is a `ckpt_hits` hit.
//!
//! # Storage
//!
//! Each [`Context`] holds a checkpoint-store handle, opened once from its
//! options: [`psa_store::Store`] — a byte-budgeted true-LRU memory tier
//! over append-only checksummed disk segments under an atomically-swapped
//! manifest — when `PSA_CKPT_DIR` is set, else a memory-only LRU.
//! `PSA_FAULT_PLAN` threads a deterministic IO fault plan into the store
//! (CI and tests; see `docs/ROBUSTNESS.md`). Files from the retired flat
//! layout (`psa-*.ckpt`) are ignored: those warm-ups run cold once.
//!
//! # Robustness
//!
//! A checkpoint is advisory. Every rejection — truncated file, flipped
//! bit, foreign format version, key collision — surfaces as a typed
//! error inside the store, which responds by quarantining the entry and
//! rebuilding the machine for a cold warm-up. Store write failures are
//! counted (`psa_common::obs::store`), never fatal. A damaged store can
//! cost time, never correctness, and never a panic.

use crate::context::{Context, Counter};
use crate::options::RunnerOptions;
use psa_common::rng::fnv1a;
use psa_sim::{
    RunReport, SimConfig, SimError, Snapshot, System, REPORT_CODEC_VERSION, SNAPSHOT_VERSION,
};
use psa_store::lru::Lru;
use psa_store::{EntryKind, Store, StoreConfig, Tier};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A context's checkpoint/result store handle.
pub(crate) struct CkptStore(Mutex<Backend>);

enum Backend {
    /// Memory only: no `PSA_CKPT_DIR`.
    Memory(Lru),
    /// The tiered crash-safe store rooted at `PSA_CKPT_DIR`.
    Tiered(Box<Store>),
}

impl CkptStore {
    /// Open the store `options` describe. Opening the tiered store runs
    /// its recovery-on-open scan; see [`psa_store::Store::open`].
    pub(crate) fn open(options: &RunnerOptions) -> CkptStore {
        let mem_cap = options.ckpt_mem_mb.unwrap_or(256).saturating_mul(1 << 20);
        let backend = match &options.ckpt_dir {
            Some(dir) => {
                let mut cfg = StoreConfig::new(dir.clone());
                cfg.mem_cap_bytes = mem_cap;
                cfg.disk_cap_bytes =
                    (options.ckpt_disk_mb.unwrap_or(2048) as u64).saturating_mul(1 << 20);
                cfg.fault_plan = options.fault_plan.clone();
                Backend::Tiered(Box::new(Store::open(cfg)))
            }
            None => Backend::Memory(Lru::new(mem_cap)),
        };
        CkptStore(Mutex::new(backend))
    }

    fn with<R>(&self, f: impl FnOnce(&mut Backend) -> R) -> R {
        f(&mut self.0.lock().expect("unpoisoned checkpoint store"))
    }

    fn get(&self, kind: EntryKind, key: u64) -> Option<(Arc<Vec<u8>>, Tier)> {
        self.with(|b| match b {
            Backend::Memory(lru) => lru
                .get((kind.tag(), key))
                .map(|bytes| (bytes, Tier::Memory)),
            Backend::Tiered(store) => store.get(kind, key),
        })
    }

    /// Write failures (ENOSPC, exhausted retries, degraded store) are
    /// counted by the store itself, never fatal.
    fn put(&self, kind: EntryKind, key: u64, bytes: Arc<Vec<u8>>) {
        self.with(|b| match b {
            Backend::Memory(lru) => lru.put((kind.tag(), key), bytes),
            Backend::Tiered(store) => {
                let _ = store.put(kind, key, bytes);
            }
        });
    }

    fn is_tiered(&self) -> bool {
        self.with(|b| matches!(b, Backend::Tiered(_)))
    }
}

/// The identity hash of a machine's warm state: snapshot format version,
/// the *effective* configuration (after every variant mutation), the
/// workload on each core, and the caller's label for state the config
/// cannot see (e.g. a hand-built ISO-storage module).
pub fn warm_key(config: &SimConfig, workloads: &[&'static str], label: &str) -> u64 {
    let mut id = Vec::new();
    id.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    id.extend_from_slice(format!("{config:?}").as_bytes());
    for w in workloads {
        id.push(0);
        id.extend_from_slice(w.as_bytes());
    }
    id.push(0);
    id.extend_from_slice(label.as_bytes());
    fnv1a(&id)
}

/// Build a machine and bring it to its warm-up boundary, sharing the
/// warm-up work through `ctx`'s disk-backed store when an exact-key match
/// exists. The returned [`System`] is always positioned exactly where a
/// cold `run_to_warm` would leave it — results downstream are
/// bit-identical either way (`crates/sim/src/snapshot.rs` proves it).
///
/// Without a disk tier this is a cold warm-up and touches no store: these
/// jobs are deduplicated within their figure, so a snapshot kept in
/// memory would never be read.
///
/// `build` must construct the machine deterministically from scratch; it
/// is called once on the hot paths and once more if a restore is
/// rejected. `label` names machine state the config cannot describe
/// (variant label, custom module) and becomes part of the key.
///
/// # Errors
///
/// Only construction and simulation errors propagate ([`SimError::Config`],
/// watchdog stalls during a cold warm-up…). Checkpoint rejections never
/// do — they downgrade to a cold warm-up.
pub fn warm_via_checkpoint(
    ctx: &Context,
    build: &dyn Fn() -> Result<System, SimError>,
    label: &str,
) -> Result<System, SimError> {
    let mut sys = build()?;
    if sys.config().warmup == 0 {
        return Ok(sys);
    }
    if !ctx.store().is_tiered() {
        warm_in_place(ctx, &mut sys)?;
        return Ok(sys);
    }
    let key = warm_key(sys.config(), sys.workload_names(), label);

    // Memory tier, then disk tier; the first snapshot found gets one
    // restore attempt. Everything here is checkpoint traffic, charged to
    // the snapshot-I/O phase of the wall-time profile.
    let t_snap = Instant::now();
    if let Some((bytes, tier)) = ctx.store().get(EntryKind::Warmup, key) {
        // A checksummed frame that fails snapshot decoding can only be a
        // format drift the version key missed; treat it as a miss.
        if let Ok(snap) = Snapshot::from_bytes(&bytes) {
            match sys.restore(&snap, key) {
                Ok(()) => {
                    // A disk hit was already promoted into the store's
                    // memory tier by its own get.
                    ctx.count_hit(tier, Counter::WarmupsShared);
                    ctx.count_time(Counter::PhaseSnapshotNanos, t_snap.elapsed());
                    return Ok(sys);
                }
                // A restore can fail partway and leave the machine torn;
                // discard it and rebuild for the cold path.
                Err(_) => sys = build()?,
            }
        }
    }
    ctx.count_time(Counter::PhaseSnapshotNanos, t_snap.elapsed());

    warm_in_place(ctx, &mut sys)?;

    let t_snap = Instant::now();
    let bytes = Arc::new(sys.snapshot(key).to_bytes());
    ctx.store().put(EntryKind::Warmup, key, bytes);
    ctx.count_time(Counter::PhaseSnapshotNanos, t_snap.elapsed());
    Ok(sys)
}

/// Run `sys`'s warm-up, charged to the warm-up phase of the wall-time
/// profile.
pub(crate) fn warm_in_place(ctx: &Context, sys: &mut System) -> Result<(), SimError> {
    let t_warm = Instant::now();
    sys.run_to_warm()?;
    ctx.count_time(Counter::PhaseWarmNanos, t_warm.elapsed());
    Ok(())
}

/// Whether finished-report and finished-document memoisation is on: it
/// needs observability off, because an observed run must actually
/// execute to produce its event stream. Every store tier memoises.
pub(crate) fn memo_enabled(config: &SimConfig) -> bool {
    !config.obs.enabled
}

/// The identity hash of a finished report: report codec version, the
/// pre-variant configuration, the workload, and the variant label
/// (which encodes every config mutation a variant applies).
pub(crate) fn report_key(config: &SimConfig, workload: &str, label: &str) -> u64 {
    let mut id = Vec::new();
    id.extend_from_slice(b"report\0");
    id.extend_from_slice(&REPORT_CODEC_VERSION.to_le_bytes());
    id.extend_from_slice(format!("{config:?}").as_bytes());
    id.push(0);
    id.extend_from_slice(workload.as_bytes());
    id.push(0);
    id.extend_from_slice(label.as_bytes());
    fnv1a(&id)
}

/// Fetch a memoised finished report. Any decode rejection (version,
/// workload-name mismatch from a key collision) is a miss; a hit counts
/// by the tier that answered it (`memo_hits` or `ckpt_hits`).
pub(crate) fn report_from_store(
    ctx: &Context,
    key: u64,
    workload: &'static str,
) -> Option<RunReport> {
    let (bytes, tier) = ctx.store().get(EntryKind::Report, key)?;
    let report = RunReport::from_store_bytes(&bytes, workload).ok()?;
    ctx.count_hit(tier, Counter::MemoHits);
    Some(report)
}

/// Memoise a finished report.
pub(crate) fn report_to_store(ctx: &Context, key: u64, report: &RunReport) {
    ctx.store()
        .put(EntryKind::Report, key, Arc::new(report.to_store_bytes()));
}

/// Fetch memoised finished-document bytes (a whole BENCH JSON served
/// without simulating). A hit counts by the tier that answered it
/// (`memo_hits` or `ckpt_hits`).
pub(crate) fn document_from_store(ctx: &Context, key: u64) -> Option<Arc<Vec<u8>>> {
    let (bytes, tier) = ctx.store().get(EntryKind::Document, key)?;
    ctx.count_hit(tier, Counter::MemoHits);
    Some(bytes)
}

/// Memoise finished-document bytes.
pub(crate) fn document_to_store(ctx: &Context, key: u64, bytes: Arc<Vec<u8>>) {
    ctx.store().put(EntryKind::Document, key, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunOutcome, Settings, Variant};
    use psa_core::PageSizePolicy;
    use psa_prefetchers::PrefetcherKind;
    use psa_traces::{catalog, WorkloadRef};

    /// A memory-only context memoises reports and never holds a warm
    /// snapshot: not after a run-cache batch, and not after a
    /// `warm_via_checkpoint` job.
    #[test]
    fn memory_only_store_memoises_reports_and_holds_no_warm_snapshot() {
        let config = SimConfig::default()
            .with_warmup(1_000)
            .with_instructions(4_000);
        let settings = Settings::default();
        let lbm: WorkloadRef = catalog::workload("lbm").unwrap().into();
        let jobs = [
            (lbm, Variant::NoPrefetch),
            (lbm, Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa)),
        ];
        // The warm key of `label` over the machine `config` builds.
        let warm_entry = |config: SimConfig, label: &str| {
            let sys = System::try_from_refs(config, &[lbm]).unwrap();
            let key = warm_key(sys.config(), sys.workload_names(), label);
            settings.ctx.store().get(EntryKind::Warmup, key)
        };

        let mut first = settings.cache();
        first.run_batch_refs(config, &jobs);
        for &(_, v) in &jobs {
            let entry = warm_entry(v.build_config(config), &v.label());
            assert!(entry.is_none(), "{}: a warm snapshot", v.label());
        }

        let iso = Variant::NoPrefetch.build_config(config);
        let build = move || System::try_from_refs(iso, &[lbm]);
        warm_via_checkpoint(&settings.ctx, &build, "iso/lbm").unwrap();
        assert!(warm_entry(iso, "iso/lbm").is_none(), "an isolated job");

        let before = settings.ctx.stats();
        let mut second = settings.cache();
        second.run_batch_refs(config, &jobs);
        let after = settings.ctx.stats();
        assert_eq!(
            (after.simulated, after.sim_cycles),
            (before.simulated, before.sim_cycles),
            "a memoised job simulated"
        );
        assert_eq!(after.memo_hits - before.memo_hits, jobs.len() as u64);
        for &(w, v) in &jobs {
            let bytes = |outcome: &RunOutcome| outcome.report().map(|r| r.to_store_bytes());
            let cold = bytes(first.outcome_ref(config, w, v));
            assert!(cold.is_some(), "{}: the cold job failed", v.label());
            assert_eq!(
                bytes(second.outcome_ref(config, w, v)),
                cold,
                "{}: the memoised report differs",
                v.label()
            );
        }
    }
}
