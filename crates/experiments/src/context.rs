//! The execution context: what one experiment run — a bench binary, a
//! served job, a test — executes within.
//!
//! A [`Context`] holds the validated [`RunnerOptions`], the
//! checkpoint-store handle, that context's own executor counters
//! ([`ExecStats`]) and one failure/run journal. A binary builds one at
//! its entry point (through [`crate::Settings::new`]); the daemon forks
//! one per served job ([`Context::fork`]), so every job's document shows
//! its own failures and counters while all of them share the daemon's
//! store. [`crate::runner::global_stats`] is the process-wide sum of
//! every context's counters.

use crate::ckpt::CkptStore;
use crate::options::RunnerOptions;
use psa_common::obs::store::StoreSnapshot;
use psa_sim::report::{self, Json};
use psa_sim::RunReport;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One executor counter; each [`ExecStats`] number but the per-thread
/// runs and the store block is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    Simulated,
    MemoHits,
    BusyNanos,
    WallNanos,
    SimCycles,
    /// A high-water mark: recorded with `max`, not summed.
    QueuePeak,
    Failed,
    WatchdogAborted,
    BatchWallNanos,
    WarmupsShared,
    CkptHits,
    PhaseWarmNanos,
    PhaseMeasureNanos,
    PhaseSnapshotNanos,
}

/// A set of executor counters.
pub(crate) struct Counters([AtomicU64; 14]);

impl Counters {
    const fn new() -> Self {
        Counters([const { AtomicU64::new(0) }; 14])
    }

    fn add(&self, counter: Counter, v: u64) {
        let slot = &self.0[counter as usize];
        if counter == Counter::QueuePeak {
            slot.fetch_max(v, Ordering::Relaxed);
        } else {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// The counters as [`ExecStats`]. The store block is always the
    /// process-wide storage-tier counters: the store outlives contexts.
    pub(crate) fn snapshot(&self, per_thread: Vec<u64>) -> ExecStats {
        let n = |c: Counter| self.0[c as usize].load(Ordering::Relaxed);
        let d = |c: Counter| Duration::from_nanos(n(c));
        ExecStats {
            simulated: n(Counter::Simulated),
            memo_hits: n(Counter::MemoHits),
            busy: d(Counter::BusyNanos),
            wall: d(Counter::WallNanos),
            sim_cycles: n(Counter::SimCycles),
            queue_peak: n(Counter::QueuePeak),
            per_thread,
            failed: n(Counter::Failed),
            watchdog_aborted: n(Counter::WatchdogAborted),
            batch_wall: d(Counter::BatchWallNanos),
            warmups_shared: n(Counter::WarmupsShared),
            ckpt_hits: n(Counter::CkptHits),
            phase_warm: d(Counter::PhaseWarmNanos),
            phase_measure: d(Counter::PhaseMeasureNanos),
            phase_snapshot: d(Counter::PhaseSnapshotNanos),
            store: psa_common::obs::store::global().snapshot(),
        }
    }
}

/// Every context's counters, summed (read by
/// [`crate::runner::global_stats`]).
pub(crate) static TOTAL: Counters = Counters::new();

/// A context's journal, keyed and sorted by (workload, label).
#[derive(Default)]
struct Journal {
    /// Failed jobs: reason and whether the watchdog aborted it (last
    /// record wins).
    failures: BTreeMap<(&'static str, String), (String, bool)>,
    /// Completed runs' reports, kept only under `json_runs`.
    runs: BTreeMap<(&'static str, String), RunReport>,
}

/// One execution context (see the module docs).
pub struct Context {
    options: RunnerOptions,
    store: Arc<CkptStore>,
    counters: Counters,
    per_thread: Mutex<Vec<u64>>,
    journal: Mutex<Journal>,
}

impl Context {
    /// A context over `options`, opening the checkpoint store they
    /// describe (running its recovery-on-open scan when `ckpt_dir` is
    /// set). Two stores open on one directory do not coordinate, so
    /// contexts that run at the same time on one `ckpt_dir` must be
    /// forks of one context ([`Context::fork`]).
    pub fn new(options: RunnerOptions) -> Context {
        let store = Arc::new(CkptStore::open(&options));
        Context::with_store(options, store)
    }

    fn with_store(options: RunnerOptions, store: Arc<CkptStore>) -> Context {
        Context {
            options,
            store,
            counters: Counters::new(),
            per_thread: Mutex::new(Vec::new()),
            journal: Mutex::new(Journal::default()),
        }
    }

    /// A fresh context over the same options and the same store, with
    /// its own counters and journal — what each served job runs in.
    pub fn fork(&self) -> Context {
        Context::with_store(self.options.clone(), Arc::clone(&self.store))
    }

    /// The options this context was built from.
    pub fn options(&self) -> &RunnerOptions {
        &self.options
    }

    pub(crate) fn store(&self) -> &CkptStore {
        &self.store
    }

    /// Count `v` on this context and on the process-wide total.
    pub(crate) fn count(&self, counter: Counter, v: u64) {
        self.counters.add(counter, v);
        TOTAL.add(counter, v);
    }

    /// Count a duration in nanoseconds.
    pub(crate) fn count_time(&self, counter: Counter, elapsed: Duration) {
        self.count(counter, elapsed.as_nanos() as u64);
    }

    /// Add one pool's per-worker run counts.
    pub(crate) fn count_threads(&self, runs: &[u64]) {
        let mut per_thread = self.per_thread.lock().expect("unpoisoned thread counts");
        if per_thread.len() < runs.len() {
            per_thread.resize(runs.len(), 0);
        }
        for (total, n) in per_thread.iter_mut().zip(runs) {
            *total += n;
        }
    }

    /// This context's executor statistics.
    pub fn stats(&self) -> ExecStats {
        let per_thread = self.per_thread.lock().expect("unpoisoned thread counts");
        self.counters.snapshot(per_thread.clone())
    }

    /// Record a failed job: a `failures` entry plus the failure counters.
    pub(crate) fn journal_failure(
        &self,
        workload: &'static str,
        label: String,
        reason: &str,
        watchdog: bool,
    ) {
        self.count(Counter::Failed, 1);
        if watchdog {
            self.count(Counter::WatchdogAborted, 1);
        }
        self.journal
            .lock()
            .expect("unpoisoned journal")
            .failures
            .insert((workload, label), (reason.into(), watchdog));
    }

    /// Record a completed run's report when the options ask for
    /// `json_runs`.
    pub(crate) fn journal_run(&self, workload: &'static str, label: String, report: &RunReport) {
        if self.options.json_runs {
            self.journal
                .lock()
                .expect("unpoisoned journal")
                .runs
                .insert((workload, label), report.clone());
        }
    }

    /// This context's failed jobs as the documented `failures` array of
    /// `{workload, variant, reason, watchdog}`, sorted by (workload,
    /// label). Empty — serialising to exactly `"failures": []` — when
    /// every job completed.
    pub fn failures_json(&self) -> Json {
        let journal = self.journal.lock().expect("unpoisoned journal");
        Json::Arr(
            journal
                .failures
                .iter()
                .map(|((w, label), (reason, watchdog))| {
                    Json::obj([
                        ("workload", Json::str(*w)),
                        ("variant", Json::str(label)),
                        ("reason", Json::str(reason)),
                        ("watchdog", Json::Bool(*watchdog)),
                    ])
                })
                .collect(),
        )
    }

    /// This context's completed runs as `{workload, variant, report}`,
    /// sorted by (workload, label); empty unless `json_runs` is set.
    pub(crate) fn runs_json(&self) -> Json {
        let journal = self.journal.lock().expect("unpoisoned journal");
        Json::Arr(
            journal
                .runs
                .iter()
                .map(|((w, label), r)| run_entry(w, label, r))
                .collect(),
        )
    }
}

/// One `{workload, variant, report}` entry of a `runs` array.
pub(crate) fn run_entry(workload: &str, label: &str, r: &RunReport) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("variant", Json::str(label)),
        ("report", report::run_report(r)),
    ])
}

/// Execution statistics of one [`Context`] (or, via
/// [`crate::runner::global_stats`], the sum of every context in the
/// process).
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Simulations actually executed.
    pub simulated: u64,
    /// `run()`/`speedup()` calls served from a run-cache memo instead.
    pub memo_hits: u64,
    /// Summed per-run wall-clock (CPU-side work across all threads).
    pub busy: Duration,
    /// Wall-clock spent executing batches and maps (elapsed time).
    pub wall: Duration,
    /// Simulated cycles across executed runs.
    pub sim_cycles: u64,
    /// Deepest work queue handed to the executor at once.
    pub queue_peak: u64,
    /// Jobs run by each worker thread, summed over the pools used.
    pub per_thread: Vec<u64>,
    /// Jobs that ended in a failure (panic, watchdog stall or
    /// validation error) instead of a report.
    pub failed: u64,
    /// The subset of `failed` aborted by the forward-progress watchdog.
    pub watchdog_aborted: u64,
    /// Wall-clock spent inside `RunCache` batches specifically (a subset
    /// of `wall`): the number the checkpoint-determinism CI gate
    /// compares between cold and warm passes.
    pub batch_wall: Duration,
    /// Warm-ups skipped by restoring a checkpoint from the store's
    /// memory tier.
    pub warmups_shared: u64,
    /// Jobs served from the on-disk checkpoint/result store
    /// (`PSA_CKPT_DIR`): warm-ups restored from disk plus finished
    /// reports and documents memoised by an earlier process.
    pub ckpt_hits: u64,
    /// Worker time spent simulating warm-ups. Summed across threads, so
    /// the three phases can exceed `batch_wall`.
    pub phase_warm: Duration,
    /// Worker time spent in measured runs.
    pub phase_measure: Duration,
    /// Worker time spent on checkpoint/snapshot I/O (encode, decode,
    /// restore, store traffic).
    pub phase_snapshot: Duration,
    /// Storage-tier counters of the checkpoint/result store (hits,
    /// misses, retries, quarantined entries, recovered bytes, write
    /// failures, injected faults). Always process-wide: the store is
    /// shared by every context.
    pub store: StoreSnapshot,
}

impl ExecStats {
    /// Simulated cycles per wall-clock second; 0 when nothing ran.
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / secs
        }
    }

    /// One-line human summary for experiment banners.
    pub fn summary(&self) -> String {
        let per_thread = if self.per_thread.is_empty() {
            String::new()
        } else {
            format!(", per-thread runs {:?}", self.per_thread)
        };
        let failures = if self.failed == 0 {
            String::new()
        } else {
            format!(
                ", {} FAILED ({} watchdog)",
                self.failed, self.watchdog_aborted
            )
        };
        let warm = if self.warmups_shared == 0 && self.ckpt_hits == 0 {
            String::new()
        } else {
            format!(
                ", {} warm-ups shared ({} from disk)",
                self.warmups_shared + self.ckpt_hits,
                self.ckpt_hits
            )
        };
        format!(
            "{} simulated, {} memo hits, {:.2}s wall / {:.2}s busy, {:.1} Mcycles/s, queue peak {}{}{}{}",
            self.simulated,
            self.memo_hits,
            self.wall.as_secs_f64(),
            self.busy.as_secs_f64(),
            self.cycles_per_sec() / 1e6,
            self.queue_peak,
            per_thread,
            warm,
            failures,
        )
    }

    /// The stats as a JSON object: the `"executor"` section of emitted
    /// documents, for an executor `threads` wide.
    pub fn to_json(&self, threads: usize) -> Json {
        Json::obj([
            ("threads", Json::uint(threads as u64)),
            ("simulated_runs", Json::uint(self.simulated)),
            ("memo_hits", Json::uint(self.memo_hits)),
            ("wall_seconds", Json::Num(self.wall.as_secs_f64())),
            ("busy_seconds", Json::Num(self.busy.as_secs_f64())),
            ("sim_cycles", Json::uint(self.sim_cycles)),
            ("sim_cycles_per_sec", Json::Num(self.cycles_per_sec())),
            ("queue_peak", Json::uint(self.queue_peak)),
            (
                "per_thread_runs",
                Json::Arr(self.per_thread.iter().map(|&n| Json::uint(n)).collect()),
            ),
            ("failed_runs", Json::uint(self.failed)),
            ("watchdog_aborted", Json::uint(self.watchdog_aborted)),
            (
                "batch_wall_seconds",
                Json::Num(self.batch_wall.as_secs_f64()),
            ),
            ("warmups_shared", Json::uint(self.warmups_shared)),
            ("ckpt_hits", Json::uint(self.ckpt_hits)),
            (
                "phases",
                Json::obj([
                    ("warmup_seconds", Json::Num(self.phase_warm.as_secs_f64())),
                    (
                        "measure_seconds",
                        Json::Num(self.phase_measure.as_secs_f64()),
                    ),
                    (
                        "snapshot_io_seconds",
                        Json::Num(self.phase_snapshot.as_secs_f64()),
                    ),
                ]),
            ),
            (
                "store",
                Json::obj([
                    ("hits", Json::uint(self.store.hits)),
                    ("misses", Json::uint(self.store.misses)),
                    ("retries", Json::uint(self.store.retries)),
                    ("quarantined", Json::uint(self.store.quarantined)),
                    ("recovered_bytes", Json::uint(self.store.recovered_bytes)),
                    ("write_failures", Json::uint(self.store.write_failures)),
                    ("injected_faults", Json::uint(self.store.injected_faults)),
                ]),
            ),
        ])
    }
}
