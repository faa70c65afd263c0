//! Shared experiment plumbing: run settings, workload selection, and
//! the one executor every figure runs on, the memoising [`RunCache`].
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
//! Every job — a `(workload, variant)` run, or a variant over a
//! multi-core mix — is independent: each owns its [`System`], and every
//! stochastic choice flows from the run's own seeded RNG. So a cache
//! fans a batch out across cores ([`RunCache::run_batch_refs`],
//! [`RunCache::rows`], [`RunCache::mix_rows`]: a work-queue over
//! `std::thread::scope`, no external dependencies). Results are
//! **bit-identical** to the serial order regardless of thread count or
//! scheduling; the `parallel_matches_serial` test asserts it. The
//! thread count is the context's [`RunnerOptions::effective_threads`]
//! (`PSA_THREADS`, default: all available cores); one thread forces the
//! serial path.
//!
//! # Observability
//!
//! Every job charges its context's [`ExecStats`]: simulations executed,
//! memo and store hits, per-run wall-clock, simulated single-core cycles
//! (and the derived cycles/second throughput), peak queue depth and
//! per-thread run counts. A job answered by a memoised report counts as
//! a hit, not as a simulation. Each emitted `BENCH_*.json` embeds its
//! context's counters under `"executor"`; [`global_stats`] sums every
//! context in the process.
//!
//! # Report memoisation
//!
//! A job is the configuration its variant builds and its workload (or
//! mix): variants that build one machine, such as a Magic variant and
//! its PPM twin, are one job, which a batch simulates once and records
//! under each of their labels. With observability off, every job also
//! memoises its finished [`RunReport`] or [`MultiReport`] in the
//! context's [`crate::ckpt`] store, memory-only or tiered: a later job
//! under the same exact key — another cache over the same context, or
//! with `PSA_CKPT_DIR` set a later process — is served the
//! bit-identical report without simulating. A run warms up in place
//! and writes no warm snapshot. See `docs/CHECKPOINT.md`.
//!
//! # Fault isolation
//!
//! Every job runs under [`std::panic::catch_unwind`] and through the
//! simulator's `Result` paths, so one panicking or watchdog-stalled job
//! becomes a recorded gap ([`RunOutcome::Failed`], or a mix missing from
//! [`RunCache::mix_rows`]) instead of poisoning the batch: the remaining
//! jobs complete bit-identically to a clean run, the failure lands in
//! the context's journal (the `"failures"` array of its documents, see
//! [`Context::failures_json`]), and figures render partial results with
//! explicit gaps ([`RunCache::rows`] leaves out a workload with any
//! failed job). A job is named by its workload (a mix's workloads
//! joined by `+`) and its label: the variant label, or
//! `<scope>/<variant label>` in a [`RunCache::scoped`] cache. The
//! options' `inject_panic` and `inject_stall` (`PSA_INJECT_PANIC` /
//! `PSA_INJECT_STALL`: `<workload>` or `<workload>/<label>`) inject
//! faults for testing this machinery (see `docs/ROBUSTNESS.md`).

use crate::ckpt;
use crate::context::{run_entry, Context, Counter, ExecStats};
use crate::options::RunnerOptions;
use psa_common::rng::fnv1a;
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::report::{self, Json};
use psa_sim::{L1dPrefKind, MultiReport, ObsReport, RunReport, SimConfig, SimError, System};
use psa_traces::{catalog, intern, WorkloadRef, WorkloadSpec};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
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
    /// §III's "Magic" page-size oracle, labelled apart for Figures 4/5 and
    /// 16. It builds the same machine as [`Variant::Pref`]: PPM's MSHR bit
    /// is the translation's page size, so the oracle sees the same value.
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
    /// spec and the L1D prefetcher are the only fields a variant touches
    /// (a Magic variant builds its PPM twin); a prefetcher keeps the config's
    /// storage scale. This is the one place the mapping lives — the
    /// executor and external drivers (golden fixtures, the bench
    /// harness) share it, so a run reproduced outside the run cache is
    /// bit-identical to the memoised one.
    pub fn build_config(&self, config: SimConfig) -> SimConfig {
        use psa_prefetchers::ModuleSpec;
        let pref = |kind, policy| {
            ModuleSpec::pref(kind, policy).with_storage_scale(config.module_spec.storage_scale)
        };
        match *self {
            Variant::NoPrefetch => config.with_module_spec(ModuleSpec::none()),
            Variant::Pref(kind, policy) | Variant::PrefMagic(kind, policy) => {
                config.with_module_spec(pref(kind, policy))
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

/// A finished report the executor memoises: one core's [`RunReport`]
/// or a mix's [`MultiReport`].
trait Report: Sized + Send + Clone {
    /// Run a warm machine's measured window.
    fn measure(sys: System, ctx: &Context) -> Result<Self, SimError>;
    /// Decode memoised bytes of the run on `workloads`.
    fn decode(bytes: &[u8], workloads: &[WorkloadRef]) -> Result<Self, SimError>;
    /// Encode for the context's store.
    fn encode(&self) -> Vec<u8>;
}

/// A single-core run also counts its simulated cycles and writes the
/// observed trace.
impl Report for RunReport {
    fn measure(sys: System, ctx: &Context) -> Result<Self, SimError> {
        let (report, obs) = sys.try_run_observed()?;
        if let (Some(obs), Some(path)) = (obs, &ctx.options().obs_trace) {
            write_trace(path, &obs);
        }
        ctx.count(Counter::SimCycles, report.cycles);
        Ok(report)
    }

    fn decode(bytes: &[u8], workloads: &[WorkloadRef]) -> Result<Self, SimError> {
        RunReport::from_store_bytes(bytes, workloads[0].name())
    }

    fn encode(&self) -> Vec<u8> {
        self.to_store_bytes()
    }
}

impl Report for MultiReport {
    fn measure(sys: System, _: &Context) -> Result<Self, SimError> {
        sys.try_run_multi()
    }

    fn decode(bytes: &[u8], workloads: &[WorkloadRef]) -> Result<Self, SimError> {
        let names: Vec<&'static str> = workloads.iter().map(WorkloadRef::name).collect();
        MultiReport::from_store_bytes(bytes, &names)
    }

    fn encode(&self) -> Vec<u8> {
        self.to_store_bytes()
    }
}

/// Where a job's report came from.
enum Answer<R> {
    /// The context's store held the finished report.
    Memo(R),
    /// The job simulated it.
    Simulated(R),
}

/// One job: `variant` on a machine with one core per workload. `name`
/// is its workload's name, or a mix's names joined by `+`.
struct Job {
    workloads: Vec<WorkloadRef>,
    name: &'static str,
    variant: Variant,
}

impl Job {
    fn new(workloads: Vec<WorkloadRef>, variant: Variant) -> Job {
        Job {
            name: job_name(&workloads),
            workloads,
            variant,
        }
    }
}

/// The name a job on `workloads` memoises and journals under.
fn job_name(workloads: &[WorkloadRef]) -> &'static str {
    match workloads {
        [w] => w.name(),
        _ => intern(
            &workloads
                .iter()
                .map(WorkloadRef::name)
                .collect::<Vec<_>>()
                .join("+"),
        ),
    }
}

/// Simulate one job, or answer it from the context's memoised reports.
/// Pure: the run owns its [`System`] and seeded RNG, so the result
/// depends only on the arguments — this is what makes parallel
/// execution bit-identical to serial, and a memoised report
/// bit-identical to a fresh one.
fn try_simulate<R: Report>(
    ctx: &Context,
    config: SimConfig,
    job: &Job,
) -> Result<Answer<R>, SimError> {
    let config = job.variant.build_config(config);
    let memo_key = ckpt::memo_enabled(&config).then(|| ckpt::report_key(&config, job.name));
    if let Some(key) = memo_key {
        let t0 = Instant::now();
        let hit = ckpt::report_from_store(ctx, key, |bytes| R::decode(bytes, &job.workloads));
        ctx.count_time(Counter::PhaseStoreNanos, t0.elapsed());
        if let Some(report) = hit {
            return Ok(Answer::Memo(report));
        }
    }
    let mut sys = System::try_from_refs(config, &job.workloads)?;
    ckpt::warm_in_place(ctx, &mut sys)?;
    let t0 = Instant::now();
    let result = R::measure(sys, ctx);
    ctx.count_time(Counter::PhaseMeasureNanos, t0.elapsed());
    let report = result?;
    if let Some(key) = memo_key {
        let t0 = Instant::now();
        ckpt::report_to_store(ctx, key, report.encode());
        ctx.count_time(Counter::PhaseStoreNanos, t0.elapsed());
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

/// Whether either of the options' fault injections names this job.
fn injected(options: &RunnerOptions, workload: &str, label: &str) -> bool {
    [&options.inject_panic, &options.inject_stall]
        .into_iter()
        .any(|target| targets(target.as_deref(), workload, label))
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

/// A failed job: its reason, and whether the watchdog aborted it.
type Fault = (String, bool);

/// Run one job in isolation under its journal label's fault injection:
/// panics are caught and simulator errors are values, and either becomes
/// `Err((reason, watchdog))`. The fault never escapes to the batch.
/// Every job but one a memoised report answered counts as simulated,
/// failed ones included.
fn run_job<R: Report>(
    ctx: &Context,
    mut config: SimConfig,
    job: &Job,
    label: &str,
) -> Result<R, Fault> {
    let options = ctx.options();
    // A 1-cycle watchdog aborts the run almost immediately: nothing
    // retires before the ROB fills, nothing drains before the first fill
    // matures.
    if targets(options.inject_stall.as_deref(), job.name, label) {
        config.watchdog_cycles = 1;
    }
    let panic = targets(options.inject_panic.as_deref(), job.name, label);
    let result = catch_unwind(AssertUnwindSafe(|| {
        if panic {
            panic!("injected panic (PSA_INJECT_PANIC)");
        }
        try_simulate(ctx, config, job)
    }));
    let outcome = match result {
        Ok(Ok(Answer::Memo(report))) => return Ok(report),
        Ok(Ok(Answer::Simulated(report))) => Ok(report),
        Ok(Err(e)) => Err((e.to_string(), matches!(e, SimError::WatchdogStall(_)))),
        Err(payload) => Err((format!("panic: {}", panic_message(payload)), false)),
    };
    ctx.count(Counter::Simulated, 1);
    outcome
}

/// Map `f` over `items` on the context's worker pool (a work queue over
/// `std::thread::scope`), preserving input order — the output equals a
/// serial `items.iter().map(f)` whenever `f` is pure. The pool counts
/// its timing and queue depth in `ctx`, not simulations: `f` counts
/// those.
fn pool_map<T, R>(ctx: &Context, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
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

/// A job's memo key: the hash of the configuration its variant builds,
/// and its name. Variants that build one machine share the key.
type Key = (u64, &'static str);

/// Where a cache records one label's outcome: its job and its variant.
type Slot = (Key, Variant);

/// The key of `variant`'s job on the workload (or mix) named `name`.
fn job_key(config: SimConfig, name: &'static str, variant: Variant) -> Key {
    let built = variant.build_config(config);
    (fnv1a(format!("{built:?}").as_bytes()), name)
}

/// The memoising executor: each job — the configuration a variant
/// builds, on a workload or a mix — simulates once per cache, no matter
/// how many labels build it or reductions consume it. Failed jobs are
/// memoised too: a fault is as deterministic as a report, and retrying
/// it would just fail again.
///
/// A cache journals and fault-injects each job under its variant label,
/// or `<scope>/<variant label>` in a [`RunCache::scoped`] cache. Every
/// method takes its workloads as anything convertible into a
/// [`WorkloadRef`] — a catalog `&'static WorkloadSpec` or a trace file.
pub struct RunCache {
    ctx: Arc<Context>,
    scope: Option<String>,
    runs: HashMap<Slot, RunOutcome>,
    mixes: HashMap<Slot, Option<MultiReport>>,
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
            scope: None,
            runs: HashMap::new(),
            mixes: HashMap::new(),
        }
    }

    /// This cache, journalling and fault-injecting each job as
    /// `<scope>/<variant label>`: how a figure that sweeps its own
    /// configurations names each one's jobs apart. Simulates nothing
    /// differently.
    pub fn scoped(self, scope: impl Into<String>) -> Self {
        RunCache {
            scope: Some(scope.into()),
            ..self
        }
    }

    /// Execution statistics of the cache's context.
    pub fn stats(&self) -> ExecStats {
        self.ctx.stats()
    }

    /// The journal and fault-injection label of `variant`'s jobs.
    fn label(&self, variant: Variant) -> String {
        match &self.scope {
            Some(scope) => format!("{scope}/{}", variant.label()),
            None => variant.label(),
        }
    }

    /// Run every job of `jobs` whose slot `done` does not hold, once
    /// each, as one isolated batch, and return every fresh outcome under
    /// each label that builds it, journalling each failure. A label a
    /// fault injection names runs alone, so its fault stays its own.
    fn execute<R: Report>(
        &self,
        config: SimConfig,
        jobs: Vec<Job>,
        done: impl Fn(&Slot) -> bool,
        progress: &(dyn Fn(u64, u64) + Sync),
    ) -> Vec<(Slot, Result<R, Fault>)> {
        let mut todo: Vec<(Job, Key, Vec<Variant>)> = Vec::new();
        let mut index: HashMap<(Key, Option<Variant>), usize> = HashMap::new();
        for job in jobs {
            let key = job_key(config, job.name, job.variant);
            if done(&(key, job.variant)) {
                continue;
            }
            let alone = injected(self.ctx.options(), job.name, &self.label(job.variant))
                .then_some(job.variant);
            match index.entry((key, alone)) {
                Entry::Occupied(slot) => {
                    let variants = &mut todo[*slot.get()].2;
                    if !variants.contains(&job.variant) {
                        variants.push(job.variant);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(todo.len());
                    let variant = job.variant;
                    todo.push((job, key, vec![variant]));
                }
            }
        }
        if todo.is_empty() {
            return Vec::new();
        }
        let total = todo.len() as u64;
        let finished = AtomicU64::new(0);
        let ctx = &*self.ctx;
        let outcomes = pool_map(ctx, &todo, |(job, _, _)| {
            let outcome = run_job::<R>(ctx, config, job, &self.label(job.variant));
            progress(finished.fetch_add(1, Ordering::Relaxed) + 1, total);
            outcome
        });
        todo.into_iter()
            .zip(outcomes)
            .flat_map(|((job, key, variants), outcome)| {
                let n = variants.len();
                variants
                    .into_iter()
                    .zip(std::iter::repeat_n(outcome, n))
                    .map(move |(variant, outcome)| {
                        if let Err((reason, watchdog)) = &outcome {
                            ctx.journal_failure(job.name, self.label(variant), reason, *watchdog);
                        }
                        ((key, variant), outcome)
                    })
            })
            .collect()
    }

    /// Simulate every not-yet-cached `(workload, variant)` pair of `jobs`
    /// in parallel (work-queue over the context's worker count), then
    /// serve all of them from the memo. Synthetic specs and trace
    /// replays mix freely in one batch. Results are bit-identical to
    /// running the same jobs serially, in any order: each run is
    /// independent and owns its seeded RNG. A panicking or
    /// watchdog-stalled job becomes a [`RunOutcome::Failed`] entry; the
    /// rest of the batch completes unperturbed. Pairs whose variants
    /// build one machine share one simulation. Returns how many pairs
    /// the batch newly recorded.
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
        let jobs = jobs.iter().map(|&(w, v)| Job::new(vec![w.into()], v));
        let fresh = self.execute(
            config,
            jobs.collect(),
            |k| self.runs.contains_key(k),
            progress,
        );
        let ran = fresh.len();
        for (slot @ ((_, workload), variant), outcome) in fresh {
            let outcome = match outcome {
                Ok(report) => {
                    self.ctx.journal_run(workload, self.label(variant), &report);
                    RunOutcome::Ok(Box::new(report))
                }
                Err((reason, watchdog)) => RunOutcome::Failed {
                    workload,
                    variant,
                    reason,
                    watchdog,
                },
            };
            self.runs.insert(slot, outcome);
        }
        ran
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
        if self.run_batch_refs(config, &[(workload, variant)]) == 0 {
            self.ctx.count(Counter::MemoHits, 1);
        }
        &self.runs[&(job_key(config, workload.name(), variant), variant)]
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
                    .map(|&v| {
                        let slot = (job_key(config, name, v), v);
                        self.runs.get(&slot).and_then(RunOutcome::report)
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some((w, reports))
            })
            .collect()
    }

    /// [`RunCache::rows`] for multi-core mixes: run `mixes × variants`
    /// as one isolated batch, memoising each [`MultiReport`] in the
    /// context's store, and return every mix whose every variant
    /// completed, in mix order, with its reports in variant order. A
    /// mix's jobs journal under its workloads' names joined by `+`.
    pub fn mix_rows<'m, W>(
        &mut self,
        config: SimConfig,
        mixes: &'m [Vec<W>],
        variants: &[Variant],
    ) -> Vec<(&'m [W], Vec<&MultiReport>)>
    where
        W: Copy + Into<WorkloadRef>,
    {
        let refs: Vec<Vec<WorkloadRef>> = mixes
            .iter()
            .map(|mix| mix.iter().map(|&w| w.into()).collect())
            .collect();
        let jobs = refs
            .iter()
            .flat_map(|mix| variants.iter().map(|&v| Job::new(mix.clone(), v)));
        let fresh = self.execute(
            config,
            jobs.collect(),
            |k| self.mixes.contains_key(k),
            &|_, _| {},
        );
        self.mixes.extend(
            fresh
                .into_iter()
                .map(|(slot, outcome)| (slot, outcome.ok())),
        );
        mixes
            .iter()
            .zip(refs)
            .filter_map(|(mix, refs)| {
                let name = job_name(&refs);
                let reports = variants
                    .iter()
                    .map(|&v| {
                        let slot = (job_key(config, name, v), v);
                        self.mixes.get(&slot).and_then(Option::as_ref)
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some((mix.as_slice(), reports))
            })
            .collect()
    }

    /// Every cached completed single-core run as a JSON array of
    /// `{workload, variant, report}`, sorted by (workload, label) for
    /// stable output. Failed jobs are in the context's journal, not
    /// here.
    pub fn runs_json(&self) -> Json {
        let mut entries: Vec<(&'static str, String, &RunReport)> = self
            .runs
            .iter()
            .filter_map(|(&((_, w), v), outcome)| outcome.report().map(|r| (w, self.label(v), r)))
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

/// Each row's speedup of its first report over the first report of the
/// same workload's row in `base`, in `rows` order — for a figure whose
/// baseline runs in another configuration or scope. A workload missing
/// from `base` is a gap.
pub fn speedups_over(
    rows: &[(&WorkloadSpec, Vec<&RunReport>)],
    base: &[(&WorkloadSpec, Vec<&RunReport>)],
) -> Vec<f64> {
    rows.iter()
        .filter_map(|(w, r)| {
            let (_, b) = base.iter().find(|(bw, _)| bw.name == w.name)?;
            Some(speedup(r[0].ipc(), b[0].ipc()))
        })
        .collect()
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
    fn a_magic_label_shares_its_ppm_twins_run() {
        let bwaves = catalog::workload("bwaves").unwrap();
        let ppm = Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa);
        let magic = Variant::PrefMagic(PrefetcherKind::Spp, PageSizePolicy::Psa);
        let mut cache = RunCache::new();
        assert_eq!(
            cache.run_batch_refs(quick(), &[(bwaves, ppm), (bwaves, magic)]),
            2
        );
        assert_eq!(cache.stats().simulated, 1, "one machine, one run");
        let ppm_run = cache.outcome_ref(quick(), bwaves, ppm).clone();
        assert!(ppm_run.report().is_some());
        assert_eq!(cache.outcome_ref(quick(), bwaves, magic), &ppm_run);
        let runs = cache.runs_json();
        let labels: Vec<&str> = runs
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("variant").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(labels, ["SPP-Magic-PSA", "SPP-PSA"]);
    }

    #[test]
    fn a_fault_injected_into_a_magic_label_fails_it_alone() {
        let bwaves = catalog::workload("bwaves").unwrap();
        let ppm = Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa);
        let magic = Variant::PrefMagic(PrefetcherKind::Spp, PageSizePolicy::Psa);
        let settings = Settings::new(RunnerOptions {
            inject_panic: Some("bwaves/SPP-Magic-PSA".into()),
            ..RunnerOptions::default()
        });
        let mut cache = settings.cache();
        cache.run_batch_refs(quick(), &[(bwaves, ppm), (bwaves, magic)]);
        assert!(cache.outcome_ref(quick(), bwaves, ppm).report().is_some());
        assert!(matches!(
            cache.outcome_ref(quick(), bwaves, magic),
            RunOutcome::Failed { variant, .. } if *variant == magic
        ));
        assert_eq!((cache.stats().simulated, cache.stats().failed), (2, 1));
        let failures = settings.ctx.failures_json();
        let arr = failures.as_arr().unwrap();
        assert_eq!(arr.len(), 1, "{}", failures.pretty());
        assert_eq!(
            arr[0].get("variant").unwrap().as_str(),
            Some("SPP-Magic-PSA")
        );
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
    fn mix_rows_keep_order_and_memoise_a_faulted_gap() {
        let mut config = SimConfig::for_cores(2)
            .with_warmup(1_000)
            .with_instructions(4_000);
        config.seed = quick().seed;
        let mixes = psa_traces::mixes::random_mixes(3, 2, config.seed);
        let names = |mix: &[&WorkloadSpec]| mix.iter().map(|w| w.name).collect::<Vec<_>>();
        let faulted = names(&mixes[1]).join("+");
        let variants = [
            Variant::NoPrefetch,
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Original),
        ];
        let settings = Settings::new(RunnerOptions {
            threads: Some(2),
            inject_panic: Some(format!("{faulted}/mixes/SPP")),
            ..RunnerOptions::default()
        });
        let mut cache = settings.cache().scoped("mixes");
        let rows: Vec<(Vec<&str>, Vec<MultiReport>)> = cache
            .mix_rows(config, &mixes, &variants)
            .into_iter()
            .map(|(mix, r)| (names(mix), r.into_iter().cloned().collect()))
            .collect();
        let kept = [names(&mixes[0]), names(&mixes[2])];
        assert_eq!(
            rows.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            kept
        );
        for (mix, reports) in &rows {
            assert!(reports.iter().all(|r| &r.workloads == mix));
            assert_ne!(reports[0], reports[1], "each variant ran");
        }
        // The gap is journalled under the mix's name and its scoped label.
        let failures = settings.ctx.failures_json();
        let arr = failures.as_arr().unwrap();
        assert_eq!(arr.len(), 1, "{}", failures.pretty());
        assert_eq!(arr[0].get("workload").unwrap().as_str(), Some(&*faulted));
        assert_eq!(arr[0].get("variant").unwrap().as_str(), Some("mixes/SPP"));
        assert_eq!((cache.stats().simulated, cache.stats().failed), (6, 1));
        // The failed job is memoised like the rest: asking again runs
        // nothing and still leaves the faulted mix out.
        assert_eq!(cache.mix_rows(config, &mixes, &variants).len(), 2);
        assert_eq!((cache.stats().simulated, cache.stats().failed), (6, 1));
        // The surviving mixes match a clean serial run.
        let mut clean = Settings::new(RunnerOptions::default().with_threads(1)).cache();
        let expect: Vec<Vec<MultiReport>> = clean
            .mix_rows(config, &mixes, &variants)
            .into_iter()
            .filter(|(mix, _)| names(mix).join("+") != faulted)
            .map(|(_, r)| r.into_iter().cloned().collect())
            .collect();
        assert_eq!(rows.into_iter().map(|(_, r)| r).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn memo_keys_on_the_configuration() {
        let v = Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa);
        let mut slow = quick();
        slow.dram.mts = 800;
        let mut cache = RunCache::new();
        let fast_run = cache.outcome_ref(quick(), lbm(), v).clone();
        let slow_run = cache.outcome_ref(slow, lbm(), v).clone();
        let fresh = RunCache::new().outcome_ref(slow, lbm(), v).clone();
        assert!(slow_run.report().is_some());
        assert_ne!(slow_run, fast_run, "the second configuration was not run");
        assert_eq!(slow_run, fresh);
        assert_eq!(cache.stats().simulated, 2);
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
        let mut cache = Settings::new(RunnerOptions {
            inject_stall: Some("lbm/no-prefetch".into()),
            ..RunnerOptions::default()
        })
        .cache();
        match cache.outcome_ref(quick(), lbm(), Variant::NoPrefetch) {
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
