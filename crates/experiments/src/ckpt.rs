//! Result sharing through the crash-safe tiered store (`psa-store`):
//! memoise whole finished reports and documents instead of
//! re-simulating them.
//!
//! # Sharing model
//!
//! With observability off, every job of a [`crate::runner::RunCache`]
//! memoises its finished report in the context's store, memory-only or
//! tiered: a single-core [`psa_sim::RunReport`] or a multi-core mix's
//! [`psa_sim::MultiReport`]. A served job memoises its clean document. A
//! repeat at the same key skips the whole simulation and serves
//! bit-identical report bytes: another cache over the same context,
//! another job forked from a daemon's context, or, with `PSA_CKPT_DIR`
//! set, a later process. A job stores nothing else: no run writes a
//! warm-up snapshot. Every run warms up in place, and so does an
//! observed run, which must execute to produce its event stream.
//!
//! Each store hit is counted by the tier that answered it: from memory,
//! a `memo_hits` hit; from disk, a `ckpt_hits` one.
//!
//! # Storage
//!
//! Each [`Context`] holds a checkpoint-store handle, opened once from its
//! options: [`psa_store::Store`] — a byte-budgeted true-LRU memory tier
//! over append-only checksummed disk segments under an atomically-swapped
//! manifest — when `PSA_CKPT_DIR` is set, else a memory-only LRU.
//! `PSA_FAULT_PLAN` threads a deterministic IO fault plan into the store
//! (CI and tests; see `docs/ROBUSTNESS.md`). Files from the retired flat
//! layout (`psa-*.ckpt`) are ignored.
//!
//! # Robustness
//!
//! A memoised entry is advisory. Every rejection — truncated bytes,
//! flipped bit, foreign codec version, key collision — surfaces as a
//! typed error inside the store or the report decoder, and the job
//! simulates instead. Store write failures are counted
//! (`psa_common::obs::store`), never fatal. A damaged store can cost
//! time, never correctness, and never a panic.

use crate::context::{Context, Counter};
use crate::options::RunnerOptions;
use psa_common::rng::fnv1a;
use psa_sim::{SimConfig, SimError, System, REPORT_CODEC_VERSION};
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
/// configuration the job's variant built, and the workload (a mix's
/// workloads joined by `+`). Variants that build one machine share it.
pub(crate) fn report_key(config: &SimConfig, workload: &str) -> u64 {
    let mut id = Vec::new();
    id.extend_from_slice(b"report\0");
    id.extend_from_slice(&REPORT_CODEC_VERSION.to_le_bytes());
    id.extend_from_slice(format!("{config:?}").as_bytes());
    id.push(0);
    id.extend_from_slice(workload.as_bytes());
    fnv1a(&id)
}

/// Fetch a memoised finished report. Any `decode` rejection (version,
/// workload-name mismatch from a key collision) is a miss; a hit counts
/// by the tier that answered it (`memo_hits` or `ckpt_hits`).
pub(crate) fn report_from_store<R>(
    ctx: &Context,
    key: u64,
    decode: impl FnOnce(&[u8]) -> Result<R, SimError>,
) -> Option<R> {
    let (bytes, tier) = ctx.store().get(EntryKind::Report, key)?;
    let report = decode(&bytes).ok()?;
    ctx.count_hit(tier);
    Some(report)
}

/// Memoise a finished report's bytes.
pub(crate) fn report_to_store(ctx: &Context, key: u64, bytes: Vec<u8>) {
    ctx.store().put(EntryKind::Report, key, Arc::new(bytes));
}

/// Fetch memoised finished-document bytes (a whole BENCH JSON served
/// without simulating). A hit counts by the tier that answered it
/// (`memo_hits` or `ckpt_hits`).
pub(crate) fn document_from_store(ctx: &Context, key: u64) -> Option<Arc<Vec<u8>>> {
    let (bytes, tier) = ctx.store().get(EntryKind::Document, key)?;
    ctx.count_hit(tier);
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

    /// A memory-only context memoises one report per job and nothing
    /// else: no warm snapshot. A second cache is answered by them.
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
        let entries = || {
            settings.ctx.store().with(|b| match b {
                Backend::Memory(lru) => lru.len(),
                Backend::Tiered(_) => unreachable!("no store directory"),
            })
        };

        let mut first = settings.cache();
        first.run_batch_refs(config, &jobs);
        assert_eq!(entries(), jobs.len(), "one report per job, nothing else");

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
