//! The async job queue: bounded admission, keyed dedup, a worker pool
//! over [`psa_experiments::service`], and graceful drain.
//!
//! # Dedup before shedding
//!
//! A submission first consults the [`InFlight`] registry keyed by
//! [`SweepSpec::key`]: an identical spec — queued, running, or already
//! finished — is *joined*, never re-queued, so dedup is exempt from
//! admission control (answering from an existing job costs nothing).
//! Only a genuinely new spec competes for queue capacity; past
//! capacity it is shed with a load-aware `Retry-After`. Registration
//! and admission happen atomically (the registry runs the admission
//! check under its own lock), so two racing identical submissions can
//! never both lead.
//!
//! # Survivable failures
//!
//! Per-simulation panics are already isolated inside the runner
//! (`catch_unwind` per job, recorded in the document's `failures[]`).
//! The worker adds one more boundary around the whole job: a panic
//! that escapes the runner marks the job `Failed` with the panic
//! message, un-registers its dedup key so a retry can lead, and the
//! worker thread keeps serving.

use crate::metrics::Metrics;
use psa_experiments::service::{self, SweepSpec};
use psa_experiments::Settings;
use psa_store::sync::{Entered, InFlight};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a job is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a document.
    Done,
    /// Terminated by a worker-level panic.
    Failed,
}

impl Phase {
    /// Stable lowercase name for API bodies.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }
}

/// Mutable job state (behind the job's mutex).
#[derive(Debug)]
pub struct JobStatus {
    /// Life-cycle phase.
    pub phase: Phase,
    /// Simulations finished so far (== `total` once done).
    pub completed: u64,
    /// Total simulations this job expands to.
    pub total: u64,
    /// Submissions that joined this job instead of creating a new one.
    pub joined: u64,
    /// The finished document was served from the memoised disk tier.
    pub from_cache: bool,
    /// The finished document's `failures` array is empty.
    pub clean: bool,
    /// Panic message, when `phase == Failed`.
    pub error: Option<String>,
    /// The finished document bytes, when `phase == Done`.
    pub result: Option<Arc<Vec<u8>>>,
}

/// One accepted job.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (rendered as `j<id>` in the API).
    pub id: u64,
    /// The validated spec.
    pub spec: SweepSpec,
    /// The spec's dedup/memo key.
    pub key: u64,
    /// Mutable state.
    status: Mutex<JobStatus>,
}

impl Job {
    /// Run `f` on the job's current status.
    pub fn with_status<R>(&self, f: impl FnOnce(&JobStatus) -> R) -> R {
        f(&self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobStatus> {
        match self.status.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Outcome of [`JobQueue::submit`].
#[derive(Debug)]
pub enum Submitted {
    /// A new job was queued.
    Accepted(Arc<Job>),
    /// An identical job already exists; serve from it.
    Deduped(Arc<Job>),
    /// The queue is full; retry after the given seconds.
    Shed {
        /// Load-aware client backoff hint.
        retry_after_secs: u64,
    },
}

struct QueueState {
    pending: VecDeque<Arc<Job>>,
    by_id: HashMap<u64, Arc<Job>>,
}

/// The bounded, deduplicating job queue plus its worker pool.
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    dedup: InFlight<u64, Arc<Job>>,
    /// Server metrics (shared with the HTTP layer).
    pub metrics: Arc<Metrics>,
    capacity: usize,
    workers: usize,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    job_delay: Duration,
    /// The server's settings: its base config and execution context,
    /// which every job forks.
    settings: Settings,
}

impl JobQueue {
    /// Build a queue over the server's `settings` and start `workers`
    /// worker threads. Returns the queue handle and the worker join
    /// handles (join them after [`JobQueue::begin_shutdown`] to drain).
    ///
    /// Returns only once every worker thread is running. A thread takes
    /// its name when it first runs, and the server answers requests as
    /// soon as it binds, so anything that finds the workers by name
    /// (`/proc/<pid>/task/*/comm`, `top -H`) must never see a live server
    /// without them.
    pub fn start(
        capacity: usize,
        workers: usize,
        job_delay: Duration,
        metrics: Arc<Metrics>,
        settings: Settings,
    ) -> (Arc<JobQueue>, Vec<std::thread::JoinHandle<()>>) {
        let queue = Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                by_id: HashMap::new(),
            }),
            ready: Condvar::new(),
            dedup: InFlight::new(),
            metrics,
            capacity,
            workers: workers.max(1),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            job_delay,
            settings,
        });
        let running = Arc::new(Barrier::new(queue.workers + 1));
        let handles = (0..queue.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let running = Arc::clone(&running);
                std::thread::Builder::new()
                    .name(format!("psa-serve-worker-{i}"))
                    .spawn(move || {
                        running.wait();
                        worker_loop(&queue)
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        running.wait();
        (queue, handles)
    }

    /// Submit a spec: dedup first, then bounded admission.
    pub fn submit(&self, spec: SweepSpec) -> Submitted {
        let key = spec.key(self.settings.config);
        // The admission check runs inside the registry lock, so
        // key-registration and queue-entry are one atomic step; a shed
        // submission registers nothing.
        let entered = self.dedup.try_enter(key, || {
            let mut st = self.lock_state();
            if self.shutdown.load(Ordering::SeqCst) || st.pending.len() >= self.capacity {
                return Err(self.retry_after_secs(st.pending.len()));
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let job = Arc::new(Job {
                id,
                key,
                status: Mutex::new(JobStatus {
                    phase: Phase::Queued,
                    completed: 0,
                    total: spec.total_jobs(),
                    joined: 0,
                    from_cache: false,
                    clean: true,
                    error: None,
                    result: None,
                }),
                spec,
            });
            st.pending.push_back(Arc::clone(&job));
            st.by_id.insert(id, Arc::clone(&job));
            self.metrics
                .queue_depth
                .store(st.pending.len() as u64, Ordering::Relaxed);
            self.ready.notify_one();
            Ok(job)
        });
        match entered {
            Ok(Entered::Led(job)) => {
                self.metrics.jobs_accepted.fetch_add(1, Ordering::Relaxed);
                Submitted::Accepted(job)
            }
            Ok(Entered::Joined(job)) => {
                self.metrics.jobs_deduped.fetch_add(1, Ordering::Relaxed);
                job.lock().joined += 1;
                Submitted::Deduped(job)
            }
            Err(retry_after_secs) => {
                self.metrics.jobs_shed.fetch_add(1, Ordering::Relaxed);
                Submitted::Shed { retry_after_secs }
            }
        }
    }

    /// Look up a job by id.
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.lock_state().by_id.get(&id).cloned()
    }

    /// Jobs queued or running right now (the number a drain waits for).
    pub fn outstanding(&self) -> u64 {
        self.lock_state().pending.len() as u64 + self.metrics.jobs_in_flight.load(Ordering::Relaxed)
    }

    /// Stop admitting work and wake idle workers; queued jobs still
    /// drain. Join the handles from [`JobQueue::start`] to wait.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }

    /// Load-aware backoff hint: how long until the backlog should have
    /// cleared at the observed mean job rate, clamped to [1, 600].
    fn retry_after_secs(&self, depth: usize) -> u64 {
        let mean = self.metrics.mean_job_secs();
        let secs = ((depth + 1) as f64 * mean / self.workers as f64).ceil();
        (secs as u64).clamp(1, 600)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn run_one(&self, job: &Arc<Job>) {
        self.metrics.jobs_in_flight.fetch_add(1, Ordering::Relaxed);
        job.lock().phase = Phase::Running;
        if !self.job_delay.is_zero() {
            // Test/ops throttle: makes queue saturation deterministic.
            std::thread::sleep(self.job_delay);
        }
        let started = Instant::now();
        let progress_job = Arc::clone(job);
        let progress = move |done: u64, total: u64| {
            let mut st = match progress_job.status.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.completed = done;
            st.total = total;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            service::run_job(&self.settings, &job.spec, &progress)
        }));
        self.metrics.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok(served) => {
                self.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
                if served.from_cache {
                    self.metrics.jobs_from_cache.fetch_add(1, Ordering::Relaxed);
                }
                self.metrics.note_job(started.elapsed());
                let mut st = job.lock();
                st.from_cache = served.from_cache;
                st.clean = served.clean;
                st.completed = st.total;
                st.result = Some(served.bytes);
                st.phase = Phase::Done;
            }
            Err(panic) => {
                self.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                let mut st = job.lock();
                st.error = Some(panic_message(&panic));
                st.phase = Phase::Failed;
                drop(st);
                // Un-register the key so a resubmission can lead a
                // fresh attempt instead of joining a corpse.
                self.dedup.remove(&job.key);
            }
        }
    }
}

fn worker_loop(queue: &Arc<JobQueue>) {
    loop {
        let job = {
            let mut st = queue.lock_state();
            loop {
                if let Some(job) = st.pending.pop_front() {
                    queue
                        .metrics
                        .queue_depth
                        .store(st.pending.len() as u64, Ordering::Relaxed);
                    break job;
                }
                if queue.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                st = match queue.ready.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        queue.run_one(&job);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_sim::report::Json;

    fn tiny_spec(seed: u64) -> SweepSpec {
        let body = format!(
            r#"{{"figure": "fig08", "workloads": ["lbm"], "variants": ["no-prefetch"],
                "seed": {seed}, "warmup": 200, "instructions": 500}}"#
        );
        SweepSpec::from_json(&Json::parse(&body).expect("spec json")).expect("valid spec")
    }

    #[test]
    fn identical_specs_dedup_distinct_specs_queue() {
        let metrics = Arc::new(Metrics::new(8));
        let (queue, handles) = JobQueue::start(
            8,
            1,
            Duration::ZERO,
            Arc::clone(&metrics),
            Settings::default(),
        );
        let first = match queue.submit(tiny_spec(1)) {
            Submitted::Accepted(job) => job,
            other => panic!("expected acceptance, got {other:?}"),
        };
        match queue.submit(tiny_spec(1)) {
            Submitted::Deduped(job) => assert_eq!(job.id, first.id),
            other => panic!("expected dedup, got {other:?}"),
        }
        match queue.submit(tiny_spec(2)) {
            Submitted::Accepted(job) => assert_ne!(job.id, first.id),
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert_eq!(metrics.jobs_accepted.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.jobs_deduped.load(Ordering::Relaxed), 1);
        queue.begin_shutdown();
        for h in handles {
            h.join().expect("worker joins");
        }
        // The drain finished both jobs.
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 2);
        first.with_status(|st| {
            assert_eq!(st.phase, Phase::Done);
            assert!(st.result.is_some());
        });
    }

    #[test]
    fn full_queue_sheds_with_positive_retry_after() {
        let metrics = Arc::new(Metrics::new(1));
        // Slow worker, capacity 1: the second distinct spec must shed.
        let (queue, handles) = JobQueue::start(
            1,
            1,
            Duration::from_millis(300),
            Arc::clone(&metrics),
            Settings::default(),
        );
        let mut accepted = 0;
        let mut shed = 0;
        for seed in 10..16 {
            match queue.submit(tiny_spec(seed)) {
                Submitted::Accepted(_) => accepted += 1,
                Submitted::Shed { retry_after_secs } => {
                    assert!(retry_after_secs >= 1);
                    shed += 1;
                }
                Submitted::Deduped(_) => panic!("distinct specs cannot dedup"),
            }
        }
        assert!(accepted >= 1, "at least the first submission is admitted");
        assert!(shed >= 1, "capacity 1 must shed under a burst of 6");
        assert_eq!(accepted + shed, 6);
        assert_eq!(metrics.jobs_shed.load(Ordering::Relaxed), shed);
        queue.begin_shutdown();
        for h in handles {
            h.join().expect("worker joins");
        }
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), accepted);
    }
}
