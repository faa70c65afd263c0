//! Shared experiment plumbing: run settings, workload selection, a
//! memoising run cache, and the parallel experiment executor.
//!
//! # Execution context
//!
//! Everything here executes within a [`Context`]: the validated
//! [`RunnerOptions`], the checkpoint store, and the context's own
//! executor counters and failure/run journal. [`Settings`] carries one
//! next to the run's [`SimConfig`], so figure entry points take only
//! `&Settings`; a binary builds it once from the environment
//! ([`RunnerOptions::from_env`]), tests build it from values.
//!
//! # Parallel execution
//!
//! Every `(workload, variant)` simulation is independent — each owns its
//! [`System`], and every stochastic choice flows from the run's own seeded
//! RNG — so experiments fan them out across cores with
//! [`RunCache::run_batch_refs`] (a work-queue over `std::thread::scope`,
//! no external dependencies). Results are **bit-identical** to the serial
//! order regardless of thread count or scheduling; the
//! `parallel_matches_serial` test asserts it. The thread count is the
//! context's [`RunnerOptions::effective_threads`] (`PSA_THREADS`,
//! default: all available cores); one thread forces the serial path.
//!
//! # Observability
//!
//! Every job charges its context's [`ExecStats`]: simulations executed,
//! memo and store hits, per-run wall-clock, simulated cycles (and the
//! derived cycles/second throughput), peak queue depth and per-thread
//! run counts. A job answered by a memoised report counts as a hit, not
//! as a simulation. Each emitted `BENCH_*.json` embeds its context's
//! counters under `"executor"`; [`global_stats`] sums every context in
//! the process.
//!
//! # Report memoisation
//!
//! With observability off, every `(workload, variant)` run memoises its
//! finished report in the context's [`crate::ckpt`] store, memory-only
//! or tiered: a later run under the same exact key — another cache over
//! the same context, or with `PSA_CKPT_DIR` set a later process — is
//! served the bit-identical report without simulating. A run warms up in
//! place and writes no warm snapshot. See `docs/CHECKPOINT.md`.
//!
//! # Fault isolation
//!
//! Every job — memoised `(workload, variant)` pairs in [`RunCache`] and
//! custom-configured jobs in [`parallel_map_isolated`] — runs under
//! [`std::panic::catch_unwind`] and through the simulator's `Result`
//! paths, so one panicking or watchdog-stalled job becomes a recorded gap
//! ([`RunOutcome::Failed`] / a `None` slot) instead of poisoning the
//! batch: the remaining jobs complete bit-identically to a clean run, the
//! failure lands in the context's journal (the `"failures"` array of its
//! documents, see [`Context::failures_json`]), and figures render
//! partial results with explicit gaps ([`RunCache::rows`] leaves out a
//! workload with any failed job). The options' `inject_panic` and
//! `inject_stall` (`PSA_INJECT_PANIC` / `PSA_INJECT_STALL`: `<workload>`
//! or `<workload>/<label>`) inject faults for testing this machinery
//! (see `docs/ROBUSTNESS.md`).

use crate::ckpt;
use crate::context::{run_entry, Context, Counter, ExecStats};
use crate::options::RunnerOptions;
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::report::{self, Json};
use psa_sim::{L1dPrefKind, ObsReport, RunReport, SimConfig, SimError, System};
use psa_traces::{catalog, WorkloadRef, WorkloadSpec};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// Experiment-wide settings: the run configuration plus the execution
/// context it runs in.
#[derive(Clone)]
pub struct Settings {
    /// The machine/run configuration (Table I + instruction budget).
    pub config: SimConfig,
    /// The execution context: options, checkpoint store, executor
    /// counters and failure/run journal.
    pub ctx: Arc<Context>,
}

impl Default for Settings {
    /// Settings over [`RunnerOptions::default()`]: the laptop-scale
    /// budget and a memory-only store. Reads no environment.
    fn default() -> Self {
        Settings::new(RunnerOptions::default())
    }
}

impl Settings {
    /// A fresh context over `options`, with the laptop-scale default
    /// budget (40k warm-up + 120k measured instructions; the paper runs
    /// 250M+250M) overridden by the options' own run shape.
    pub fn new(options: RunnerOptions) -> Settings {
        let base = SimConfig::default()
            .with_warmup(40_000)
            .with_instructions(120_000);
        Settings {
            config: options.apply(base),
            ctx: Arc::new(Context::new(options)),
        }
    }

    /// Settings for one served job: `config` in a fork of this context
    /// (same options and store, its own counters and journal).
    pub fn fork(&self, config: SimConfig) -> Settings {
        Settings {
            config,
            ctx: Arc::new(self.ctx.fork()),
        }
    }

    /// A run cache executing in this context.
    pub fn cache(&self) -> RunCache {
        RunCache::in_context(Arc::clone(&self.ctx))
    }

    /// The evaluated workload set, honouring the options'
    /// `workload_limit` by stride-sampling so each suite stays
    /// represented.
    pub fn workloads(&self) -> Vec<&'static WorkloadSpec> {
        let all: Vec<&'static WorkloadSpec> = catalog::all().iter().collect();
        match self.ctx.options().workload_limit {
            Some(limit) if limit < all.len() => {
                let stride = all.len().div_ceil(limit);
                all.into_iter().step_by(stride).collect()
            }
            _ => all,
        }
    }

    /// Number of multi-core mixes: the options' `mixes` (default 8; the
    /// paper uses 100).
    pub fn mixes(&self) -> usize {
        self.ctx.options().mixes.unwrap_or(8)
    }
}

/// Look up a workload in the trace catalog, reporting a miss as a typed
/// error instead of an `expect` at every call site.
///
/// # Errors
///
/// Returns [`SimError::UnknownWorkload`] when `name` matches nothing.
pub fn workload(name: &str) -> Result<&'static WorkloadSpec, SimError> {
    catalog::workload(name).ok_or_else(|| SimError::UnknownWorkload { name: name.into() })
}

/// What ran on the L2C prefetcher slot (or, for [`Variant::L1d`], which
/// L1D prefetcher ran with the L2C slot empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// No prefetching anywhere (the speedup baseline of Figures 4/5/13).
    NoPrefetch,
    /// A prefetcher at one of the paper's page-size policies.
    Pref(PrefetcherKind, PageSizePolicy),
    /// Like [`Variant::Pref`] but with the §III "Magic" page-size oracle
    /// instead of PPM's MSHR bit.
    PrefMagic(PrefetcherKind, PageSizePolicy),
    /// An L1D prefetcher with no L2C prefetching (Figure 13's comparison
    /// points).
    L1d(L1dPrefKind),
}

impl Variant {
    /// Stable label used in JSON exports and summaries.
    pub fn label(&self) -> String {
        match self {
            Variant::NoPrefetch => "no-prefetch".into(),
            Variant::Pref(kind, policy) => format!("{}{}", kind.name(), policy.suffix()),
            Variant::PrefMagic(kind, policy) => {
                format!("{}-Magic{}", kind.name(), policy.suffix())
            }
            Variant::L1d(kind) => format!("L1D-{kind}"),
        }
    }

    /// Every expressible variant, in a stable order — the inverse domain
    /// of [`Variant::label`]. The kind list is [`PrefetcherKind::ALL`],
    /// the one canonical (append-only) family order, so a new family is
    /// automatically enumerable and parseable here the moment it exists.
    pub fn all() -> Vec<Variant> {
        const POLICIES: [PageSizePolicy; 4] = [
            PageSizePolicy::Original,
            PageSizePolicy::Psa,
            PageSizePolicy::Psa2m,
            PageSizePolicy::PsaSd,
        ];
        const L1D: [L1dPrefKind; 4] = [
            L1dPrefKind::None,
            L1dPrefKind::NextLine,
            L1dPrefKind::Ipcp,
            L1dPrefKind::IpcpPlusPlus,
        ];
        let mut all = vec![Variant::NoPrefetch];
        for &k in &PrefetcherKind::ALL {
            for &p in &POLICIES {
                all.push(Variant::Pref(k, p));
            }
        }
        for &k in &PrefetcherKind::ALL {
            for &p in &POLICIES {
                all.push(Variant::PrefMagic(k, p));
            }
        }
        for &k in &L1D {
            all.push(Variant::L1d(k));
        }
        all
    }

    /// Parse a [`Variant::label`] back into the variant. Guaranteed
    /// total over the label space by construction: the finite candidate
    /// set is enumerated and compared by label, so `parse(v.label())
    /// == Some(v)` for every variant (the round-trip test proves it).
    pub fn parse(label: &str) -> Option<Variant> {
        Variant::all().into_iter().find(|v| v.label() == label)
    }

    /// The [`SimConfig`] this variant actually simulates: the module
    /// spec, the Magic page-size oracle, and the L1D prefetcher are the
    /// only fields a variant touches. This is the one place the mapping
    /// lives — the executor and external drivers (golden fixtures, the
    /// bench harness) share it, so a run reproduced outside the run
    /// cache is bit-identical to the memoised one.
    pub fn build_config(&self, config: SimConfig) -> SimConfig {
        use psa_prefetchers::ModuleSpec;
        match *self {
            Variant::NoPrefetch => config.with_module_spec(ModuleSpec::none()),
            Variant::Pref(kind, policy) => config.with_module_spec(ModuleSpec::pref(kind, policy)),
            Variant::PrefMagic(kind, policy) => {
                let mut c = config.with_module_spec(ModuleSpec::pref(kind, policy));
                c.page_size_source = psa_core::ppm::PageSizeSource::Magic;
                c
            }
            Variant::L1d(kind) => {
                let mut c = config.with_module_spec(ModuleSpec::none());
                c.l1d_prefetcher = kind;
                c
            }
        }
    }
}

/// How one memoised `(workload, variant)` job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The simulation completed and produced a report (boxed: a report is
    /// an order of magnitude larger than a failure record).
    Ok(Box<RunReport>),
    /// The job panicked, stalled into the watchdog, or failed validation.
    /// The batch it ran in still completed; this row is a recorded gap.
    Failed {
        /// The workload that was running.
        workload: &'static str,
        /// The variant that was running.
        variant: Variant,
        /// Human-readable failure description (panic message, watchdog
        /// snapshot, or config error).
        reason: String,
        /// The failure was a forward-progress watchdog abort.
        watchdog: bool,
    },
}

impl RunOutcome {
    /// The report, when the job completed.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            RunOutcome::Ok(r) => Some(r),
            RunOutcome::Failed { .. } => None,
        }
    }
}

/// Where a memoised job's report came from.
enum Answer {
    /// The context's store held the finished report.
    Memo(RunReport),
    /// The job simulated it.
    Simulated(RunReport),
}

/// Simulate one `(workload, variant)` pair, or answer it from the
/// context's memoised reports. Pure: the run owns its [`System`] and
/// seeded RNG, so the result depends only on the arguments — this is
/// what makes parallel execution bit-identical to serial, and a memoised
/// report bit-identical to a fresh one.
fn try_simulate(
    ctx: &Context,
    config: SimConfig,
    workload: WorkloadRef,
    variant: Variant,
) -> Result<Answer, SimError> {
    // The key hashes the pre-variant config plus the label, which
    // encodes every config mutation a variant applies.
    let memo_key = ckpt::memo_enabled(&config)
        .then(|| ckpt::report_key(&config, workload.name(), &variant.label()));
    if let Some(key) = memo_key {
        let t0 = Instant::now();
        let hit = ckpt::report_from_store(ctx, key, workload.name());
        ctx.count_time(Counter::PhaseSnapshotNanos, t0.elapsed());
        if let Some(report) = hit {
            return Ok(Answer::Memo(report));
        }
    }
    // No warm snapshot: the run's warm key names the same run as its
    // report key, so the memoised report always answers first.
    let mut sys = System::try_from_refs(variant.build_config(config), &[workload])?;
    ckpt::warm_in_place(ctx, &mut sys)?;
    let t0 = Instant::now();
    let result = sys.try_run_observed();
    ctx.count_time(Counter::PhaseMeasureNanos, t0.elapsed());
    let (report, obs) = result?;
    if let (Some(obs), Some(path)) = (obs, &ctx.options().obs_trace) {
        write_trace(path, &obs);
    }
    if let Some(key) = memo_key {
        let t0 = Instant::now();
        ckpt::report_to_store(ctx, key, &report);
        ctx.count_time(Counter::PhaseSnapshotNanos, t0.elapsed());
    }
    Ok(Answer::Simulated(report))
}

/// Write the first observed run's Chrome `trace_event` JSON to `path`
/// (`PSA_OBS_TRACE`). One trace per process: the first measured run to
/// finish wins, which is deterministic with one worker thread and
/// representative otherwise. An unwritable path is a warning, not a
/// failed run.
fn write_trace(path: &Path, obs: &ObsReport) {
    static TRACE_ONCE: Once = Once::new();
    TRACE_ONCE.call_once(|| {
        if let Err(e) = std::fs::write(path, obs.to_chrome_trace()) {
            eprintln!("PSA_OBS_TRACE: cannot write {}: {e}", path.display());
        }
    });
}

/// Whether a fault-injection target (`<workload>` or
/// `<workload>/<label>`) names this job.
fn targets(target: Option<&str>, workload: &str, label: &str) -> bool {
    target.is_some_and(|t| {
        t == workload || t.strip_prefix(workload).and_then(|r| r.strip_prefix('/')) == Some(label)
    })
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Run one job body under the context's fault injection, in isolation:
/// panics are caught and simulator errors are values, and either becomes
/// `Err((reason, watchdog))`. The fault never escapes to the batch.
fn isolated<R>(
    ctx: &Context,
    workload: &str,
    label: &str,
    body: impl FnOnce(&JobEnv) -> Result<R, SimError>,
) -> Result<R, (String, bool)> {
    let options = ctx.options();
    let env = JobEnv {
        stall: targets(options.inject_stall.as_deref(), workload, label),
    };
    let panic = targets(options.inject_panic.as_deref(), workload, label);
    let result = catch_unwind(AssertUnwindSafe(|| {
        if panic {
            panic!("injected panic (PSA_INJECT_PANIC)");
        }
        body(&env)
    }));
    match result {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => {
            let watchdog = matches!(e, SimError::WatchdogStall(_));
            Err((e.to_string(), watchdog))
        }
        Err(payload) => Err((format!("panic: {}", panic_message(payload)), false)),
    }
}

/// Run one memoised job in isolation; a fault becomes a
/// [`RunOutcome::Failed`] row. Every job but one a memoised report
/// answered counts as simulated, failed ones included.
fn run_job(
    ctx: &Context,
    config: SimConfig,
    workload: WorkloadRef,
    variant: Variant,
) -> RunOutcome {
    let result = isolated(ctx, workload.name(), &variant.label(), |env| {
        try_simulate(ctx, env.config(config), workload, variant)
    });
    match result {
        Ok(Answer::Memo(report)) => RunOutcome::Ok(Box::new(report)),
        Ok(Answer::Simulated(report)) => {
            ctx.count(Counter::Simulated, 1);
            ctx.count(Counter::SimCycles, report.cycles);
            RunOutcome::Ok(Box::new(report))
        }
        Err((reason, watchdog)) => {
            ctx.count(Counter::Simulated, 1);
            RunOutcome::Failed {
                workload: workload.name(),
                variant,
                reason,
                watchdog,
            }
        }
    }
}

/// Map `f` over `items` on the context's worker pool (a work queue over
/// `std::thread::scope`), preserving input order — the output equals a
/// serial `items.iter().map(f)` whenever `f` is pure. The pool counts
/// its timing and queue depth in `ctx`, not simulations: `f` counts
/// those. A `batch` (a [`RunCache`] batch) also counts its wall time as
/// `batch_wall`.
fn pool_map<T, R>(ctx: &Context, items: &[T], batch: bool, f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = ctx.options().effective_threads().min(items.len()).max(1);
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let busy = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut ran = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return ran;
            };
            let t0 = Instant::now();
            let r = f(item);
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            *slots[i].lock().expect("unpoisoned slot") = Some(r);
            ran += 1;
        }
    };
    let per_thread: Vec<u64> = if workers == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let wall = started.elapsed();
    ctx.count(Counter::QueuePeak, items.len() as u64);
    ctx.count(Counter::BusyNanos, busy.into_inner());
    ctx.count_time(Counter::WallNanos, wall);
    if batch {
        ctx.count_time(Counter::BatchWallNanos, wall);
    }
    ctx.count_threads(&per_thread);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("unpoisoned slot")
                .expect("slot filled")
        })
        .collect()
}

/// Identity of one custom-configured simulation job — the jobs that do
/// not fit the `(workload, variant)` memo key space (custom Set-Dueling
/// shapes, doubled-storage modules, multi-core mixes). The label joins
/// the workload name in fault-injection matching
/// (`PSA_INJECT_*=<workload>/<label>`) and in the `failures` journal.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload driving the run (the first core's, for mixes).
    pub workload: &'static str,
    /// What machine ran, uniquely within the figure (e.g.
    /// `fig11/SPP/ISO Storage`).
    pub label: String,
}

/// The fault injection resolved for one isolated job. The job body must
/// pass its run configuration through [`JobEnv::config`] so an injected
/// stall can take effect.
#[derive(Debug, Clone, Copy)]
pub struct JobEnv {
    stall: bool,
}

impl JobEnv {
    /// `config` with the injection applied: a stall injection drops the
    /// watchdog threshold to 1 cycle, so the run aborts via the watchdog
    /// almost immediately (nothing retires before the ROB fills; nothing
    /// drains before the first fill matures).
    pub fn config(&self, config: SimConfig) -> SimConfig {
        let mut config = config;
        if self.stall {
            config.watchdog_cycles = 1;
        }
        config
    }
}

/// Map `f` over `items` on `ctx`'s worker pool with per-job fault
/// isolation, preserving input order — the executor for simulation jobs
/// outside the memoised `(workload, variant)` space (custom Set-Dueling
/// shapes, doubled-storage modules, multi-core mixes). `f` must be pure
/// for the order-independence to hold. Each item counts as one
/// simulation of `ctx`.
///
/// Each job is described by `spec` (workload + unique label) and executed
/// by `f` under [`std::panic::catch_unwind`]; `f` reports simulator
/// faults as [`SimError`] values and must thread its `SimConfig` through
/// [`JobEnv::config`]. A failed job yields `None` in its slot — the
/// figure renders the survivors with an explicit gap — and lands in the
/// context's failure journal, exactly like a failed memoised job.
/// Injection targets match `<workload>` or `<workload>/<label>`.
pub fn parallel_map_isolated<T, R, S, F>(
    ctx: &Context,
    items: &[T],
    spec: S,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    S: Fn(&T) -> JobSpec + Sync,
    F: Fn(&T, &JobEnv) -> Result<R, SimError> + Sync,
{
    ctx.count(Counter::Simulated, items.len() as u64);
    pool_map(ctx, items, false, |item| {
        let s = spec(item);
        isolated(ctx, s.workload, &s.label, |env| f(item, env))
            .map_err(|(reason, watchdog)| {
                ctx.journal_failure(s.workload, s.label, &reason, watchdog);
            })
            .ok()
    })
}

/// A memoising single-core run cache: each (workload, variant) simulates
/// once per cache, no matter how many reductions consume it. Failed jobs
/// are memoised too — a fault is as deterministic as a report, and
/// retrying it would just fail again.
///
/// Every method takes its workload as anything convertible into a
/// [`WorkloadRef`] — a catalog `&'static WorkloadSpec` or a trace file.
pub struct RunCache {
    ctx: Arc<Context>,
    runs: HashMap<(&'static str, Variant), RunOutcome>,
}

impl Default for RunCache {
    fn default() -> Self {
        Self::new()
    }
}

impl RunCache {
    /// A standalone cache over [`RunnerOptions::default()`]: its own
    /// memory-only store, counters and journal. Reads no environment.
    pub fn new() -> Self {
        Self::in_context(Arc::new(Context::new(RunnerOptions::default())))
    }

    /// A cache executing in `ctx`.
    pub(crate) fn in_context(ctx: Arc<Context>) -> Self {
        RunCache {
            ctx,
            runs: HashMap::new(),
        }
    }

    /// Execution statistics of the cache's context.
    pub fn stats(&self) -> ExecStats {
        self.ctx.stats()
    }

    /// Memoise `outcome`, journalling it (run journal or failure journal)
    /// in the context.
    fn admit(&mut self, name: &'static str, v: Variant, outcome: RunOutcome) {
        match &outcome {
            RunOutcome::Ok(report) => self.ctx.journal_run(name, v.label(), report),
            RunOutcome::Failed {
                reason, watchdog, ..
            } => self.ctx.journal_failure(name, v.label(), reason, *watchdog),
        }
        self.runs.insert((name, v), outcome);
    }

    /// Simulate every not-yet-cached `(workload, variant)` pair of `jobs`
    /// in parallel (work-queue over the context's worker count), then
    /// serve all of them from the memo. Synthetic specs and trace
    /// replays mix freely in one batch. Results are bit-identical to
    /// running the same jobs serially, in any order: each run is
    /// independent and owns its seeded RNG. A panicking or
    /// watchdog-stalled job becomes a [`RunOutcome::Failed`] entry; the
    /// rest of the batch completes unperturbed.
    pub fn run_batch_refs<W>(&mut self, config: SimConfig, jobs: &[(W, Variant)]) -> usize
    where
        W: Copy + Into<WorkloadRef>,
    {
        self.run_batch_refs_with(config, jobs, &|_, _| {})
    }

    /// [`RunCache::run_batch_refs`] with a progress hook: `progress(done,
    /// total)` fires after each job of this batch finishes (from worker
    /// threads, concurrently, on the parallel path — `done` values may
    /// arrive out of order, but each value 1..=total fires exactly once
    /// and `total` is the batch's not-yet-cached job count). The hook
    /// must not panic; it runs inside the worker loop.
    pub fn run_batch_refs_with<W>(
        &mut self,
        config: SimConfig,
        jobs: &[(W, Variant)],
        progress: &(dyn Fn(u64, u64) + Sync),
    ) -> usize
    where
        W: Copy + Into<WorkloadRef>,
    {
        let mut todo: Vec<(WorkloadRef, Variant)> = Vec::new();
        let mut queued: HashSet<(&'static str, Variant)> = HashSet::new();
        for &(w, v) in jobs {
            let w: WorkloadRef = w.into();
            if !self.runs.contains_key(&(w.name(), v)) && queued.insert((w.name(), v)) {
                todo.push((w, v));
            }
        }
        if todo.is_empty() {
            return 0;
        }
        let total = todo.len() as u64;
        let finished = AtomicU64::new(0);
        let ctx = &*self.ctx;
        let outcomes = pool_map(ctx, &todo, true, |&(w, v)| {
            let outcome = run_job(ctx, config, w, v);
            progress(finished.fetch_add(1, Ordering::Relaxed) + 1, total);
            outcome
        });
        for (&(w, v), outcome) in todo.iter().zip(outcomes) {
            self.admit(w.name(), v, outcome);
        }
        todo.len()
    }

    /// Simulate (or recall) `workload` under `variant`, keeping the fault
    /// as a value.
    pub fn outcome_ref(
        &mut self,
        config: SimConfig,
        workload: impl Into<WorkloadRef>,
        variant: Variant,
    ) -> &RunOutcome {
        let workload = workload.into();
        let key = (workload.name(), variant);
        if self.runs.contains_key(&key) {
            self.ctx.count(Counter::MemoHits, 1);
        } else {
            let ctx = &*self.ctx;
            let outcome = pool_map(ctx, &[(workload, variant)], false, |&(w, v)| {
                run_job(ctx, config, w, v)
            });
            let outcome = outcome.into_iter().next().expect("one job, one outcome");
            self.admit(workload.name(), variant, outcome);
        }
        &self.runs[&key]
    }

    /// Run `workloads × variants` as one batch and return the rows a
    /// figure can render: in workload order, every workload whose every
    /// variant completed, with its reports in variant order. A workload
    /// with any failed job is an explicit gap — absent here, its fault in
    /// the context's failure journal — so no figure has a panicking path.
    pub fn rows<W>(
        &mut self,
        config: SimConfig,
        workloads: &[W],
        variants: &[Variant],
    ) -> Vec<(W, Vec<&RunReport>)>
    where
        W: Copy + Into<WorkloadRef>,
    {
        let jobs: Vec<(W, Variant)> = workloads
            .iter()
            .flat_map(|&w| variants.iter().map(move |&v| (w, v)))
            .collect();
        self.run_batch_refs(config, &jobs);
        workloads
            .iter()
            .filter_map(|&w| {
                let name = w.into().name();
                let reports = variants
                    .iter()
                    .map(|&v| self.runs.get(&(name, v)).and_then(RunOutcome::report))
                    .collect::<Option<Vec<_>>>()?;
                Some((w, reports))
            })
            .collect()
    }

    /// Every cached completed run as a JSON array of
    /// `{workload, variant, report}`, sorted by (workload, variant label)
    /// for stable output. Failed jobs are in the context's journal, not
    /// here.
    pub fn runs_json(&self) -> Json {
        let mut entries: Vec<(&'static str, String, &RunReport)> = self
            .runs
            .iter()
            .filter_map(|(&(w, v), outcome)| outcome.report().map(|r| (w, v.label(), r)))
            .collect();
        entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        Json::Arr(
            entries
                .into_iter()
                .map(|(w, label, r)| run_entry(w, &label, r))
                .collect(),
        )
    }
}

/// One workload's speedup: its IPC under a variant over its IPC under
/// the baseline, or 1.0 when the baseline retired nothing.
pub fn speedup(ipc: f64, base_ipc: f64) -> f64 {
    if base_ipc <= 0.0 {
        1.0
    } else {
        ipc / base_ipc
    }
}

/// The process-wide sum of every context's executor counters — what
/// `/metrics`, the bench banner and external harnesses read. No document
/// renders it: each document's `executor` block is its own context's.
pub fn global_stats() -> ExecStats {
    crate::context::TOTAL.snapshot(Vec::new())
}

/// The current `BENCH_*.json` document schema version (see
/// docs/METRICS.md for the version history).
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// Assemble the standard `BENCH_<figure>.json` document: schema version,
/// figure id and title, the run configuration, the figure-specific `rows`,
/// the `failures` journal of the settings' context (empty when every job
/// completed), and that context's executor statistics. With `json_runs`
/// (`PSA_JSON_RUNS=1`) the context's raw per-run reports ride along
/// under `"runs"`.
pub fn doc(figure: &str, title: &str, settings: &Settings, rows: Json) -> Json {
    let ctx = &settings.ctx;
    let mut doc = Json::obj([
        ("schema_version", Json::uint(BENCH_SCHEMA_VERSION)),
        ("figure", Json::str(figure)),
        ("title", Json::str(title)),
        ("config", report::sim_config(&settings.config)),
        ("rows", rows),
        ("failures", ctx.failures_json()),
        (
            "executor",
            ctx.stats().to_json(ctx.options().effective_threads()),
        ),
    ]);
    if ctx.options().json_runs {
        doc.push("runs", ctx.runs_json());
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick() -> SimConfig {
        SimConfig::default()
            .with_warmup(1_000)
            .with_instructions(4_000)
    }

    fn lbm() -> &'static WorkloadSpec {
        catalog::workload("lbm").unwrap()
    }

    #[test]
    fn cache_memoises_and_counts() {
        let mut cache = RunCache::new();
        let a = cache
            .outcome_ref(quick(), lbm(), Variant::NoPrefetch)
            .clone();
        let b = cache.outcome_ref(quick(), lbm(), Variant::NoPrefetch);
        assert!(a.report().is_some());
        assert_eq!(&a, b);
        assert_eq!(cache.runs.len(), 1);
        // The second lookup must be a memo hit, not a re-simulation.
        assert_eq!(cache.stats().simulated, 1);
        assert_eq!(cache.stats().memo_hits, 1);
    }

    #[test]
    fn batch_skips_cached_and_duplicate_jobs() {
        let mut cache = RunCache::new();
        let w = lbm();
        cache.outcome_ref(quick(), w, Variant::NoPrefetch);
        let jobs = vec![
            (w, Variant::NoPrefetch), // already cached
            (w, Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa)),
            (w, Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa)), // duplicate
        ];
        assert_eq!(cache.run_batch_refs(quick(), &jobs), 1);
        assert_eq!(cache.stats().simulated, 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let workloads: Vec<&'static WorkloadSpec> = ["lbm", "milc", "soplex"]
            .iter()
            .map(|n| catalog::workload(n).unwrap())
            .collect();
        let variants = [
            Variant::NoPrefetch,
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
            Variant::L1d(L1dPrefKind::NextLine),
        ];
        let jobs: Vec<(&'static WorkloadSpec, Variant)> = workloads
            .iter()
            .flat_map(|&w| variants.iter().map(move |&v| (w, v)))
            .collect();

        // Serial reference, then a work-queue over 3 workers.
        let mut serial = Settings::new(RunnerOptions::default().with_threads(1)).cache();
        serial.run_batch_refs(quick(), &jobs);
        let mut parallel = Settings::new(RunnerOptions::default().with_threads(3)).cache();
        parallel.run_batch_refs(quick(), &jobs);
        assert_eq!(parallel.stats().per_thread.len(), 3);

        let serial = serial.rows(quick(), &workloads, &variants);
        let parallel = parallel.rows(quick(), &workloads, &variants);
        assert_eq!(serial.len(), workloads.len(), "every serial job completed");
        // Whole-list equality: a missing or misaligned parallel row fails.
        assert_eq!(serial, parallel, "serial and parallel runs diverged");
    }

    #[test]
    fn rows_keep_order_and_leave_out_failed_workloads() {
        let settings = Settings::new(RunnerOptions {
            inject_panic: Some("milc/SPP-PSA".into()),
            ..RunnerOptions::default()
        });
        let mut cache = settings.cache();
        let workloads: Vec<&'static WorkloadSpec> = ["soplex", "milc", "lbm"]
            .iter()
            .map(|n| catalog::workload(n).unwrap())
            .collect();
        let variants = [
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
            Variant::NoPrefetch,
        ];
        let rows: Vec<(&WorkloadSpec, Vec<RunReport>)> = cache
            .rows(quick(), &workloads, &variants)
            .into_iter()
            .map(|(w, reports)| (w, reports.into_iter().cloned().collect()))
            .collect();
        let names: Vec<&str> = rows.iter().map(|(w, _)| w.name).collect();
        assert_eq!(names, ["soplex", "lbm"]);
        for (w, reports) in &rows {
            for (&v, r) in variants.iter().zip(reports) {
                let outcome = cache.outcome_ref(quick(), *w, v);
                assert_eq!(outcome.report(), Some(r), "{}/{}", w.name, v.label());
            }
        }
        assert_eq!(cache.stats().failed, 1);
    }

    #[test]
    fn isolated_map_preserves_order_and_journals_gaps() {
        let settings = Settings::new(RunnerOptions {
            threads: Some(4),
            inject_panic: Some("lbm/square/7".into()),
            ..RunnerOptions::default()
        });
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map_isolated(
            &settings.ctx,
            &items,
            |x| JobSpec {
                workload: "lbm",
                label: format!("square/{x}"),
            },
            |&x, _| Ok(x * x),
        );
        let expect: Vec<Option<u64>> = items.iter().map(|&x| (x != 7).then_some(x * x)).collect();
        assert_eq!(out, expect);
        let failures = settings.ctx.failures_json().pretty();
        assert!(failures.contains("square/7"), "{failures}");
        assert_eq!(settings.ctx.stats().failed, 1);
    }

    #[test]
    fn speedup_is_ratio() {
        let mut cache = RunCache::new();
        let variants = [
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
            Variant::NoPrefetch,
        ];
        let rows = cache.rows(quick(), &[lbm()], &variants);
        let s = speedup(rows[0].1[0].ipc(), rows[0].1[1].ipc());
        assert!(s > 0.1 && s < 10.0, "speedup {s}");
        assert_eq!(speedup(0.5, 0.25), 2.0);
        assert_eq!(speedup(0.5, 0.0), 1.0, "an idle baseline is no speedup");
    }

    #[test]
    fn workload_selection_honours_limit() {
        assert_eq!(Settings::default().workloads().len(), 80);
        let some = Settings::new(RunnerOptions::default().with_workload_limit(10)).workloads();
        assert!(some.len() <= 10 && some.len() >= 8, "got {}", some.len());
        assert_eq!(Settings::default().mixes(), 8);
    }

    #[test]
    fn runs_json_and_doc_are_well_formed() {
        let settings = Settings {
            config: quick(),
            ..Settings::new(RunnerOptions {
                json_runs: true,
                ..RunnerOptions::default()
            })
        };
        let mut cache = settings.cache();
        cache.outcome_ref(
            quick(),
            lbm(),
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::PsaSd),
        );
        let runs = cache.runs_json();
        let entry = &runs.as_arr().unwrap()[0];
        assert_eq!(entry.get("workload").unwrap().as_str(), Some("lbm"));
        assert_eq!(entry.get("variant").unwrap().as_str(), Some("SPP-PSA-SD"));
        assert!(entry.get("report").unwrap().get("ipc").is_some());

        let doc = doc("figXX", "smoke", &settings, Json::Arr(vec![]));
        for field in [
            "schema_version",
            "figure",
            "title",
            "config",
            "rows",
            "failures",
            "executor",
            "runs",
        ] {
            assert!(doc.get(field).is_some(), "missing {field}");
        }
        assert_eq!(doc.get("schema_version").unwrap(), &Json::uint(4));
        assert_eq!(
            doc.get("runs").unwrap(),
            &runs,
            "the context journalled its run"
        );
        // Schema v3: the executor section carries the phase profile.
        let phases = doc.get("executor").unwrap().get("phases").unwrap();
        for field in ["warmup_seconds", "measure_seconds", "snapshot_io_seconds"] {
            assert!(phases.get(field).is_some(), "missing phases.{field}");
        }
        // Schema v4: the executor section carries the store counters.
        let store = doc.get("executor").unwrap().get("store").unwrap();
        for field in [
            "hits",
            "misses",
            "retries",
            "quarantined",
            "recovered_bytes",
            "write_failures",
            "injected_faults",
        ] {
            assert!(store.get(field).is_some(), "missing store.{field}");
        }
        // Round-trips through the hand-rolled parser.
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn phase_profile_accounts_for_run_time() {
        let mut cache = RunCache::new();
        let astar = catalog::workload("astar").unwrap();
        let outcome = cache.outcome_ref(quick(), astar, Variant::NoPrefetch);
        assert!(outcome.report().is_some(), "astar completed");
        // This context just simulated a warm-up and a measured run, so
        // both phases must have accumulated wall time — in the context
        // and in the process-wide sum.
        for stats in [cache.stats(), global_stats()] {
            assert!(stats.phase_warm > Duration::ZERO, "warm phase untimed");
            assert!(
                stats.phase_measure > Duration::ZERO,
                "measure phase untimed"
            );
        }
    }

    #[test]
    fn unknown_workload_is_a_value_not_a_panic() {
        assert!(matches!(
            workload("nope"),
            Err(SimError::UnknownWorkload { .. })
        ));
        assert_eq!(workload("lbm").unwrap().name, "lbm");
    }

    #[test]
    fn injected_panic_is_isolated_and_memoised() {
        let milc = catalog::workload("milc").unwrap();

        // Clean reference for the job that survives the faulty batch.
        let reference = RunCache::new()
            .outcome_ref(quick(), milc, Variant::NoPrefetch)
            .clone();
        assert!(reference.report().is_some());

        let settings = Settings::new(RunnerOptions {
            inject_panic: Some("lbm/no-prefetch".into()),
            ..RunnerOptions::default()
        });
        let mut cache = settings.cache();
        cache.run_batch_refs(
            quick(),
            &[(lbm(), Variant::NoPrefetch), (milc, Variant::NoPrefetch)],
        );
        // The panicking job became a Failed value; the batch completed and
        // the surviving run is bit-identical to the clean reference.
        match cache.outcome_ref(quick(), lbm(), Variant::NoPrefetch) {
            RunOutcome::Failed {
                reason, watchdog, ..
            } => {
                assert!(reason.contains("injected panic"), "{reason}");
                assert!(!watchdog);
            }
            RunOutcome::Ok(_) => panic!("injected panic was not recorded"),
        }
        assert_eq!(
            cache.outcome_ref(quick(), milc, Variant::NoPrefetch),
            &reference
        );
        assert_eq!(cache.stats().failed, 1);
        let survivors: Vec<&str> = cache
            .rows(quick(), &[lbm(), milc], &[Variant::NoPrefetch])
            .iter()
            .map(|(w, _)| w.name)
            .collect();
        assert_eq!(survivors, ["milc"]);
        // Faults are deterministic, so the failure is memoised: asking
        // again must not re-simulate.
        let hits = cache.stats().memo_hits;
        assert!(matches!(
            cache.outcome_ref(quick(), lbm(), Variant::NoPrefetch),
            RunOutcome::Failed { .. }
        ));
        assert_eq!(cache.stats().memo_hits, hits + 1);
        // The context's failure journal picked the fault up.
        let failures = settings.ctx.failures_json();
        let arr = failures.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("workload").unwrap().as_str(), Some("lbm"));
        assert_eq!(arr[0].get("variant").unwrap().as_str(), Some("no-prefetch"));
    }

    #[test]
    fn injected_stall_trips_the_watchdog() {
        let ctx = Context::new(RunnerOptions {
            inject_stall: Some("lbm/no-prefetch".into()),
            ..RunnerOptions::default()
        });
        match run_job(&ctx, quick(), lbm().into(), Variant::NoPrefetch) {
            RunOutcome::Failed {
                reason, watchdog, ..
            } => {
                assert!(watchdog);
                assert!(reason.contains("no retire/drain progress"), "{reason}");
            }
            RunOutcome::Ok(_) => panic!("stall injection did not trip the watchdog"),
        }
    }

    #[test]
    fn injection_targets_a_workload_or_one_of_its_jobs() {
        assert!(targets(Some("lbm"), "lbm", "SPP"));
        assert!(targets(Some("lbm/SPP"), "lbm", "SPP"));
        assert!(!targets(Some("lbm/SPP"), "lbm", "SPP-PSA"));
        assert!(!targets(Some("lbm/SPP"), "lb", "m/SPP"));
        assert!(!targets(None, "lbm", "SPP"));
    }

    #[test]
    fn variant_labels_are_stable() {
        assert_eq!(Variant::NoPrefetch.label(), "no-prefetch");
        assert_eq!(
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::PsaSd).label(),
            "SPP-PSA-SD"
        );
        assert_eq!(
            Variant::PrefMagic(PrefetcherKind::Spp, PageSizePolicy::Psa).label(),
            "SPP-Magic-PSA"
        );
        assert_eq!(
            Variant::L1d(L1dPrefKind::IpcpPlusPlus).label(),
            "L1D-IPCP++"
        );
    }
}
