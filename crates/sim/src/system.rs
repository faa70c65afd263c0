//! The simulated machine: cores, private L1D/L2C, shared LLC and DRAM.
//!
//! The memory hierarchy itself — the per-level walk, MSHR drains,
//! prefetch issue and usefulness tracking — lives in [`psa_hier`]; this
//! module assembles [`psa_hier::CacheLevel`]s into a machine
//! (see `crate::port`), drives the step loop, and turns the run into
//! reports.
//!
//! # Timing model
//!
//! Lazy-fill event handling: every access at cycle *t* first drains MSHR
//! entries whose fills have matured (≤ *t*) into the arrays, then resolves
//! against the array. Misses allocate MSHR entries whose fill time comes
//! from the next level; a full MSHR stalls demands until the earliest fill
//! and silently drops prefetches — giving prefetch traffic a real resource
//! cost (Figure 12A sweeps exactly this).
//!
//! # PPM plumbing
//!
//! [`psa_vmem::Mmu::translate`] yields the page size with each
//! translation; the port threads it through every level as the explicit
//! [`psa_hier::Request::huge`] bit, and the walk hands it to the
//! [`psa_core::PsaModule`] on every L2C demand access. Page-walk PTE
//! reads are charged through the L2C→LLC→DRAM path. Which module a core
//! carries is decided by the [`ModuleSpec`] value on [`SimConfig`] — the
//! `single_core`/`baseline` constructors are sugar that fill it in.

use psa_cache::Cache;
use psa_common::obs::{Counter, EventKind, EventRing, ObsReport};
use psa_common::{CodecError, Dec, Enc, Persist, VAddr};
use psa_core::ppm::PageSizeSource;
use psa_core::{ModuleObs, PageSizePolicy};
use psa_cpu::{Core, Instr};
use psa_dram::Dram;
use psa_hier::{CacheLevel, Feedback, Role, WalkStats, PASS};
use psa_prefetchers::{Ipcp, IpcpConfig, L1dPrefetcher, ModuleSpec, NextLineL1d, PrefetcherKind};
use psa_traces::{WorkloadRef, WorkloadSource, WorkloadSpec};
use psa_vmem::{AddressSpace, AspaceConfig, Mmu, PhysMem};

use crate::config::{L1dPrefKind, SimConfig};
use crate::error::{CoreStall, SimError, StallSnapshot};
use crate::metrics::{MultiReport, RunReport};
use crate::port::{CoreHier, CorePort, SharedHier};

/// The run loop's mutable cursor, owned by the [`System`] so a run can be
/// paused at any step boundary, checkpointed, and resumed — the step that
/// executes next is a pure function of this state plus the components.
struct RunState {
    /// Instructions executed per core.
    executed: Vec<u64>,
    /// Total steps taken (one instruction on one core per step).
    steps: u64,
    /// The cycle at which each core crossed warm-up and its measured
    /// window began; `None` while it is still warming up.
    warm_at: Vec<Option<u64>>,
    /// Cores still short of their instruction budget.
    active: Vec<usize>,
    /// Sampled (instructions, huge-usage fraction) for core 0.
    thp_series: Vec<(u64, f64)>,
    /// Watchdog: progress-event count at the last observed progress.
    last_progress: u64,
    /// Watchdog: cycle at the last observed progress.
    last_progress_cycle: u64,
}

psa_common::persist_struct!(RunState {
    executed,
    steps,
    warm_at,
    active,
    thp_series,
    last_progress,
    last_progress_cycle,
});

impl RunState {
    fn new(config: &SimConfig, n: usize) -> Self {
        Self {
            executed: vec![0; n],
            steps: 0,
            warm_at: vec![(config.warmup == 0).then_some(0); n],
            active: (0..n).collect(),
            thp_series: Vec::new(),
            last_progress: 0,
            last_progress_cycle: 0,
        }
    }

    /// Check a restored cursor against the `n`-core machine it was loaded
    /// into: it must be one that a run under `config` reaches at a step
    /// boundary, so no later step can index or subtract out of range.
    fn check(&self, config: &SimConfig, n: usize, thp_sample_every: u64) -> Result<(), CodecError> {
        let corrupt = |what| Err(CodecError::Corrupt(what));
        if self.executed.len() != n || self.warm_at.len() != n {
            return corrupt("run cursor length differs from the core count");
        }
        let total = config.warmup + config.instructions;
        for (&exec, warm_at) in self.executed.iter().zip(&self.warm_at) {
            if exec > total {
                return corrupt("run cursor past the instruction budget");
            }
            if warm_at.is_some() != (exec >= config.warmup) {
                return corrupt("warm-up cycle disagrees with the instructions executed");
            }
        }
        if self.executed.iter().map(|&e| u128::from(e)).sum::<u128>() != u128::from(self.steps) {
            return corrupt("step count differs from the instructions executed");
        }
        let mut listed = vec![false; n];
        for &i in &self.active {
            if i >= n || listed[i] || self.executed[i] == total {
                return corrupt("active list names a finished, unknown or repeated core");
            }
            listed[i] = true;
        }
        if self.active.len() != self.executed.iter().filter(|&&e| e < total).count() {
            return corrupt("active list misses an unfinished core");
        }
        if self.thp_series.len() as u64 != self.executed[0] / thp_sample_every {
            return corrupt("THP series length differs from the samples taken");
        }
        Ok(())
    }
}

/// A fully-wired simulated machine, ready to run once.
pub struct System {
    config: SimConfig,
    cores: Vec<Core>,
    ctxs: Vec<CoreHier>,
    shared: SharedHier,
    sources: Vec<Box<dyn WorkloadSource>>,
    names: Vec<&'static str>,
    state: RunState,
    /// Sampled event timeline; purely observational and never part of the
    /// checkpoint byte stream (a restored machine starts with a fresh
    /// ring, matching the warm-up boundary reset of a straight-through
    /// run).
    ring: EventRing,
    /// THP-series sampling interval in core-0 instructions, derived from
    /// the run budget (total / 24 samples).
    thp_sample_every: u64,
    /// The `executed[0]` count at which the next THP-usage sample is due
    /// (always a multiple of `thp_sample_every`). Derived cursor —
    /// recomputed on restore, never persisted — replacing a per-step
    /// hardware divide with one compare.
    next_thp_sample: u64,
}

impl System {
    /// A single-core Table I machine running `workload` with the given
    /// prefetcher and page-size policy at the L2C.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (shapes that
    /// cannot be built) — see [`System::try_single_core`].
    pub fn single_core(
        config: SimConfig,
        workload: &WorkloadSpec,
        kind: PrefetcherKind,
        policy: PageSizePolicy,
    ) -> Self {
        Self::try_single_core(config, workload, kind, policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`System::single_core`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on a machine that cannot be built.
    pub fn try_single_core(
        config: SimConfig,
        workload: &WorkloadSpec,
        kind: PrefetcherKind,
        policy: PageSizePolicy,
    ) -> Result<Self, SimError> {
        Self::try_from_spec(
            config.with_module_spec(ModuleSpec::pref(kind, policy)),
            &[workload],
        )
    }

    /// A single-core machine with **no prefetching at any level** — the
    /// speedup baseline of Figures 4, 5 and 13.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration — see [`System::try_baseline`].
    pub fn baseline(config: SimConfig, workload: &WorkloadSpec) -> Self {
        Self::try_baseline(config, workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`System::baseline`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on a machine that cannot be built.
    pub fn try_baseline(config: SimConfig, workload: &WorkloadSpec) -> Result<Self, SimError> {
        Self::try_from_spec(config.with_module_spec(ModuleSpec::none()), &[workload])
    }

    /// A multi-core machine; `workloads[i]` runs on core `i`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration or an empty workload list —
    /// see [`System::try_multi_core`].
    pub fn multi_core(
        config: SimConfig,
        workloads: &[&WorkloadSpec],
        kind: PrefetcherKind,
        policy: PageSizePolicy,
    ) -> Self {
        Self::try_multi_core(config, workloads, kind, policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`System::multi_core`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on a machine that cannot be built.
    pub fn try_multi_core(
        config: SimConfig,
        workloads: &[&WorkloadSpec],
        kind: PrefetcherKind,
        policy: PageSizePolicy,
    ) -> Result<Self, SimError> {
        Self::try_from_spec(
            config.with_module_spec(ModuleSpec::pref(kind, policy)),
            workloads,
        )
    }

    /// A multi-core machine with no prefetching.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration or an empty workload list —
    /// see [`System::try_multi_core_baseline`].
    pub fn multi_core_baseline(config: SimConfig, workloads: &[&WorkloadSpec]) -> Self {
        Self::try_multi_core_baseline(config, workloads).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`System::multi_core_baseline`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on a machine that cannot be built.
    pub fn try_multi_core_baseline(
        config: SimConfig,
        workloads: &[&WorkloadSpec],
    ) -> Result<Self, SimError> {
        Self::try_from_spec(config.with_module_spec(ModuleSpec::none()), workloads)
    }

    /// Build the machine the configuration's [`ModuleSpec`] describes —
    /// the data-driven entry point every other constructor is sugar for.
    /// `workloads[i]` runs on core `i`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on a machine that cannot be built or
    /// an empty workload list.
    pub fn try_from_spec(config: SimConfig, workloads: &[&WorkloadSpec]) -> Result<Self, SimError> {
        let refs: Vec<WorkloadRef> = workloads.iter().map(|&w| WorkloadRef::from(w)).collect();
        Self::try_build(config, &refs)
    }

    /// Build the machine from typed [`WorkloadRef`]s — synthetic specs
    /// and `.psatrace` replays mix freely; `refs[i]` drives core `i`.
    /// This is the most general constructor: every other `try_*` is
    /// sugar over it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on a machine that cannot be built or
    /// an empty ref list, and [`SimError::Trace`] when a trace file
    /// cannot be opened or its header no longer parses.
    pub fn try_from_refs(config: SimConfig, refs: &[WorkloadRef]) -> Result<Self, SimError> {
        Self::try_build(config, refs)
    }

    fn try_build(mut config: SimConfig, workloads: &[WorkloadRef]) -> Result<Self, SimError> {
        if workloads.is_empty() {
            return Err(SimError::Config {
                what: "at least one workload is required".into(),
            });
        }
        config.cores = workloads.len();
        config.validate()?;
        let shape = |name: &str, e: &dyn std::fmt::Display| SimError::Config {
            what: format!("{name}: {e}"),
        };
        let obs_on = config.obs.enabled;
        let mut shared = SharedHier {
            llc: CacheLevel::new(
                Cache::new(config.llc).map_err(|e| shape("LLC", &e))?,
                Role::Shared,
            ),
            dram: Dram::new(config.dram).map_err(|e| shape("DRAM", &e))?,
            phys: PhysMem::new(config.phys, config.seed)
                .map_err(|e| shape("physical memory", &e))?,
            feedback: Vec::new(),
        };
        let mut cores = Vec::new();
        let mut ctxs = Vec::new();
        let mut sources = Vec::new();
        let mut names = Vec::new();
        for (i, w) in workloads.iter().enumerate() {
            cores.push(Core::new(config.core));
            let mut l2c = CacheLevel::new(
                Cache::new(config.l2c).map_err(|e| shape("L2C", &e))?,
                Role::Attach,
            );
            l2c.module = config
                .module_spec
                .build_module(
                    l2c.cache.num_sets(),
                    config.sd,
                    config.module,
                    PageSizeSource::Ppm,
                    obs_on,
                )
                .map_err(|e| shape("prefetching module", &e))?;
            let l1d = CacheLevel::new(
                Cache::new(config.l1d).map_err(|e| shape("L1D", &e))?,
                Role::Entry,
            );
            let l1d_pref: Option<Box<dyn L1dPrefetcher>> = match config.l1d_prefetcher {
                L1dPrefKind::None => None,
                L1dPrefKind::NextLine => Some(Box::new(NextLineL1d::new(1))),
                L1dPrefKind::Ipcp | L1dPrefKind::IpcpPlusPlus => {
                    Some(Box::new(Ipcp::new(IpcpConfig::default())))
                }
            };
            ctxs.push(CoreHier {
                id: i as u8,
                aspace: AddressSpace::new(AspaceConfig {
                    huge_fraction: w.huge_fraction(),
                    seed: config.seed ^ (i as u64).wrapping_mul(0x9e37),
                }),
                mmu: Mmu::new(config.mmu).map_err(|e| shape("MMU", &e))?,
                levels: [l1d, l2c],
                l1d_pref,
                l1d_cross: config.l1d_prefetcher == L1dPrefKind::IpcpPlusPlus,
                pf_buf: Vec::with_capacity(32),
                l1d_pref_buf: Vec::with_capacity(8),
                stats: WalkStats::new(3),
            });
            // Same per-core seed derivation the concrete generator always
            // used; trace replays ignore it (the file is the stream).
            sources.push(w.build_source(config.seed.wrapping_add(7919 * i as u64))?);
            names.push(w.name());
        }
        let ring = if obs_on {
            for core in &mut cores {
                core.enable_obs();
            }
            for ctx in &mut ctxs {
                for level in &mut ctx.levels {
                    level.enable_obs();
                }
            }
            shared.llc.enable_obs();
            shared.dram.enable_obs();
            EventRing::new(config.obs.ring_capacity, config.obs.sample_every)
        } else {
            EventRing::disabled()
        };
        let budget = config.warmup + config.instructions;
        let thp_sample_every = (budget / 24).max(1);
        let mut state = RunState::new(&config, workloads.len());
        // Room for every sample the run takes (at most 47), so the
        // measured loop never grows the series.
        state
            .thp_series
            .reserve_exact((budget / thp_sample_every) as usize);
        Ok(Self {
            config,
            cores,
            ctxs,
            shared,
            sources,
            names,
            state,
            ring,
            thp_sample_every,
            next_thp_sample: thp_sample_every,
        })
    }

    /// The configuration this machine was built from. A checkpoint can
    /// only be restored into a machine rebuilt from the same value.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload name on each core, in core order.
    pub fn workload_names(&self) -> &[&'static str] {
        &self.names
    }

    /// Total forward-progress events so far: ROB retirements plus MSHR
    /// drains anywhere in the machine. In the time-warp timing model a
    /// livelock shows up as simulated time advancing with this sum frozen
    /// — the signal the watchdog monitors.
    fn progress_events(&self) -> u64 {
        let core_retires: u64 = self.cores.iter().map(|c| c.stats().retired).sum();
        let private_drains: u64 = self
            .ctxs
            .iter()
            .map(|c| c.levels.iter().map(|l| l.mshr.stats().drained).sum::<u64>())
            .sum();
        core_retires + private_drains + self.shared.llc.mshr.stats().drained
    }

    fn stall_snapshot(&self, cycle: u64, last_progress_cycle: u64) -> StallSnapshot {
        StallSnapshot {
            cycle,
            last_progress_cycle,
            watchdog_cycles: self.config.watchdog_cycles,
            cores: self
                .cores
                .iter()
                .zip(&self.ctxs)
                .enumerate()
                .map(|(i, (core, ctx))| CoreStall {
                    core: i,
                    now: core.now(),
                    rob_len: core.rob_len(),
                    rob_head_completion: core.rob_head(),
                    retired: core.stats().retired,
                    l1d_mshr: ctx.levels[0].mshr.len(),
                    l2c_mshr: ctx.levels[1].mshr.len(),
                })
                .collect(),
            llc_mshr: self.shared.llc.mshr.len(),
            llc_mshr_capacity: self.shared.llc.mshr.capacity(),
            dram_busy_banks: self.shared.dram.busy_banks(cycle),
            dram_latest_free_at: self.shared.dram.latest_bank_free_at(),
        }
    }

    /// Audit the whole hierarchy's invariants (the `PSA_CHECK=1` checker):
    /// MSHR leak freedom, cache tag/valid consistency, set-dueling leader
    /// layout, annotation-bit ownership, and page-table/frame-map
    /// agreement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] naming the violated structure.
    pub fn audit(&self) -> Result<(), SimError> {
        let fail = |what: String| Err(SimError::Invariant { what });
        let ncores = self.ctxs.len() as u8;
        for (i, ctx) in self.ctxs.iter().enumerate() {
            let at = |s: String| SimError::Invariant {
                what: format!("core {i}: {s}"),
            };
            for level in &ctx.levels {
                level
                    .mshr
                    .audit()
                    .map_err(|s| at(format!("{} {s}", level.name())))?;
                level.cache.audit().map_err(&at)?;
            }
            // Annotation-bit ownership: an L2C prefetched block's source is
            // `(core << 1) | competitor`, and the core must be this one.
            for b in ctx.levels[1].cache.valid_blocks() {
                if b.prefetched && usize::from(b.source >> 1) != i {
                    return fail(format!(
                        "core {i}: L2C prefetched block {} annotated with source {:#04x} \
                         owned by core {}",
                        b.line,
                        b.source,
                        b.source >> 1
                    ));
                }
            }
            if let Some(sd) = ctx.levels[1].module.as_ref().and_then(|m| m.dueling()) {
                sd.audit(ctx.levels[1].cache.num_sets()).map_err(&at)?;
            }
        }
        self.shared
            .llc
            .mshr
            .audit()
            .map_err(|s| SimError::Invariant {
                what: format!("LLC {s}"),
            })?;
        self.shared
            .llc
            .cache
            .audit()
            .map_err(|s| SimError::Invariant { what: s })?;
        // LLC-tracked prefetched blocks must name an existing core; the
        // pass-through bit is stripped before the block is marked
        // prefetched, so it must never appear here.
        for b in self.shared.llc.cache.valid_blocks() {
            if b.prefetched && (b.source & PASS != 0 || b.source >> 1 >= ncores) {
                return fail(format!(
                    "LLC prefetched block {} annotated with source {:#04x} \
                     (cores: {ncores})",
                    b.line, b.source
                ));
            }
        }
        // Frame-map agreement: address spaces and their page tables are
        // the only allocator clients, so the allocator's books must equal
        // the sum over cores.
        let bytes_2m: u64 = self.ctxs.iter().map(|c| c.aspace.bytes_2m()).sum();
        let bytes_4k: u64 = self
            .ctxs
            .iter()
            .map(|c| c.aspace.bytes_4k() + c.aspace.page_table_nodes() as u64 * 4096)
            .sum();
        if self.shared.phys.allocated_2m_bytes() != bytes_2m {
            return fail(format!(
                "frame map: {} bytes in 2MB frames allocated vs {} mapped by address spaces",
                self.shared.phys.allocated_2m_bytes(),
                bytes_2m
            ));
        }
        if self.shared.phys.allocated_4k_bytes() != bytes_4k {
            return fail(format!(
                "frame map: {} bytes in 4KB frames allocated vs {} mapped by address \
                 spaces and page tables",
                self.shared.phys.allocated_4k_bytes(),
                bytes_4k
            ));
        }
        Ok(())
    }

    fn check_enabled(&self) -> bool {
        // `PSA_CHECK=1` reaches here through `RunnerOptions` in the
        // experiments crate; this crate never reads the environment.
        self.config.check
    }

    /// Execute one step: one instruction on the core that is earliest in
    /// simulated time. The choice is a pure function of the machine state,
    /// so any prefix of the step sequence is a valid pause point — runs
    /// resumed from a restored checkpoint replay the identical sequence.
    fn step(&mut self, check: bool, budget: u64) -> Result<(), SimError> {
        let total = self.config.warmup + self.config.instructions;
        let watchdog = self.config.watchdog_cycles;
        // Single-core machines (every fig08 system) skip the time-ordered
        // scheduling scan — there is nothing to order.
        let (pos, i) = if self.state.active.len() == 1 {
            (0, self.state.active[0])
        } else {
            let (pos, &i) = self
                .state
                .active
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| self.cores[i].now())
                .expect("non-empty active set");
            (pos, i)
        };
        if watchdog > 0 {
            // The stepped core's fetch cycle is the global low
            // watermark of simulated time. Summing every component's
            // progress counters each step is measurable overhead, so the
            // sweep only runs once the window has lapsed since the last
            // recorded progress: a healthy run re-stamps the counters and
            // moves on, while a true stall is still detected within two
            // watchdog windows (the first lapsed sweep records the final
            // progress, the second confirms nothing moved). Simulated
            // state is untouched either way.
            let now = self.cores[i].now();
            if now.saturating_sub(self.state.last_progress_cycle) > watchdog {
                let progress = self.progress_events();
                if progress != self.state.last_progress {
                    self.state.last_progress = progress;
                    self.state.last_progress_cycle = now;
                } else {
                    self.ring.record_rare(
                        EventKind::Watchdog,
                        now,
                        i as u32,
                        now.saturating_sub(self.state.last_progress_cycle),
                    );
                    return Err(SimError::WatchdogStall(Box::new(
                        self.stall_snapshot(now, self.state.last_progress_cycle),
                    )));
                }
            }
        }
        // A pending run of filler (non-memory) instructions executes as
        // one batch: fillers touch no shared state and consume no
        // randomness, and `execute_ops` replays the exact per-instruction
        // fetch/retire arithmetic, so batching is invisible to simulated
        // state. The batch is capped so it ends at (never crosses) every
        // boundary this function tests per instruction — the THP sample
        // point, the warm-up crossing, the core's total budget and the
        // caller's step budget — and it degenerates to the single-step
        // path while the event ring is recording, so per-retire event
        // streams stay identical under observability.
        let mut batch = 0;
        if !self.ring.enabled() {
            let exec = self.state.executed[i];
            let mut cap = (total - exec).min(budget);
            if self.state.warm_at[i].is_none() {
                cap = cap.min(self.config.warmup - exec);
            }
            if i == 0 {
                cap = cap.min(self.next_thp_sample - exec);
            }
            batch = self.sources[i].take_filler(cap);
        }
        if batch > 0 {
            self.cores[i].execute_ops(batch);
        } else {
            batch = 1;
            let instr: Instr = self.sources[i].next_instr()?;
            {
                let mut port = CorePort {
                    ctx: &mut self.ctxs[i],
                    shared: &mut self.shared,
                    ring: &mut self.ring,
                };
                self.cores[i].execute(&instr, &mut port)?;
            }
            // Dispatch LLC-level prefetch feedback to the owning modules,
            // draining in place so the queue keeps its capacity. The queue
            // is empty again before the step ends, so no pause point ever
            // sees an entry.
            if !self.shared.feedback.is_empty() {
                for fb in self.shared.feedback.drain(..) {
                    let (Feedback::Useful { source, line }
                    | Feedback::UsefulLate { source, line }
                    | Feedback::Useless { source, line }
                    | Feedback::Fill { source, line }) = fb;
                    let core = usize::from((source & !PASS) >> 1);
                    let Some(m) = self
                        .ctxs
                        .get_mut(core)
                        .and_then(|c| c.levels[1].module.as_mut())
                    else {
                        continue;
                    };
                    let (pc, competitor) = (VAddr::new(0), source & 1);
                    match fb {
                        Feedback::Useful { .. } => m.on_useful(line, pc, competitor, true),
                        Feedback::UsefulLate { .. } => m.on_useful(line, pc, competitor, false),
                        Feedback::Useless { .. } => m.on_useless(line, competitor),
                        Feedback::Fill { .. } => m.on_prefetch_fill(line, competitor),
                    }
                }
            }
        }
        self.state.executed[i] += batch;
        self.state.steps += batch;
        self.ring.record(
            EventKind::Retire,
            self.cores[i].now(),
            i as u32,
            self.state.executed[i],
        );
        if i == 0 && self.state.executed[0] == self.next_thp_sample {
            self.next_thp_sample += self.thp_sample_every;
            self.state.thp_series.push((
                self.state.executed[0],
                self.ctxs[0].aspace.huge_usage_fraction(),
            ));
        }
        if self.state.warm_at[i].is_none() && self.state.executed[i] == self.config.warmup {
            // The core's measured window starts here: every counter its
            // report reads, and its observability hooks, restart from
            // zero. The shared LLC and DRAM restart once every core is
            // warm. A restored machine carries the zeroed counters in its
            // snapshot and starts with fresh hooks, so both paths agree.
            self.state.warm_at[i] = Some(self.cores[i].projected_finish());
            self.cores[i].reset_obs();
            let ctx = &mut self.ctxs[i];
            for level in &mut ctx.levels {
                level.reset_window();
            }
            ctx.stats.reset();
            if self.warmed_up() {
                self.shared.llc.reset_window();
                self.shared.dram.reset_window();
                self.ring.reset();
                if check {
                    self.audit()?;
                }
            }
        }
        if self.state.executed[i] == total {
            self.state.active.swap_remove(pos);
        }
        Ok(())
    }

    /// Whether every core has executed its full warm-up + measured budget.
    pub fn finished(&self) -> bool {
        self.state.active.is_empty()
    }

    /// Total steps executed so far (one instruction on one core per step).
    pub fn steps_done(&self) -> u64 {
        self.state.steps
    }

    /// Whether every core has crossed its warm-up point.
    pub fn warmed_up(&self) -> bool {
        self.state.warm_at.iter().all(Option::is_some)
    }

    /// Advance the run until `steps` total steps have executed (across the
    /// whole machine, counted from build) or the run finishes, whichever
    /// comes first. Returns whether the run is now finished.
    ///
    /// Splitting a run into `run_to` segments is bit-identical to running
    /// it straight through: the step sequence is deterministic and no
    /// per-segment state exists outside the [`System`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogStall`] or [`SimError::Invariant`]
    /// exactly as an uninterrupted run would.
    pub fn run_to(&mut self, steps: u64) -> Result<bool, SimError> {
        let check = self.check_enabled();
        while !self.state.active.is_empty() && self.state.steps < steps {
            self.step(check, steps - self.state.steps)?;
        }
        Ok(self.finished())
    }

    /// Advance the run until every core has crossed warm-up (a no-op when
    /// already warm). This is the canonical checkpoint instant: the
    /// counters have just been zeroed, the measured region has not
    /// started.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogStall`] or [`SimError::Invariant`]
    /// exactly as an uninterrupted run would.
    pub fn run_to_warm(&mut self) -> Result<(), SimError> {
        let check = self.check_enabled();
        while !self.state.active.is_empty() && !self.warmed_up() {
            self.step(check, u64::MAX)?;
        }
        Ok(())
    }

    /// Run every core to the end of its budget and return each core's
    /// measured cycles: from its warm-up crossing to its drained finish.
    fn run_all(&mut self) -> Result<Vec<u64>, SimError> {
        let check = self.check_enabled();
        while !self.state.active.is_empty() {
            self.step(check, u64::MAX)?;
        }
        if check {
            self.audit()?;
        }
        Ok(self
            .cores
            .iter_mut()
            .zip(&self.state.warm_at)
            .map(|(c, warm_at)| c.drain().saturating_sub(warm_at.unwrap_or(0)).max(1))
            .collect())
    }

    /// Serialize the machine's complete mutable state. Shape/config data
    /// is *not* written — see the restore contract in
    /// [`crate::snapshot`].
    pub(crate) fn save_payload(&self, e: &mut Enc) {
        debug_assert!(
            self.shared.feedback.is_empty(),
            "the LLC feedback queue drains within the step that fills it"
        );
        e.put_usize(self.cores.len());
        for c in &self.cores {
            c.save(e);
        }
        for c in &self.ctxs {
            c.save(e);
        }
        self.shared.save(e);
        for s in &self.sources {
            s.save_cursor(e);
        }
        self.state.save(e);
    }

    /// Load mutable state saved by [`System::save_payload`] into this
    /// machine, which must have been built from the same configuration
    /// and workloads. On error the machine is partially overwritten and
    /// must be discarded.
    pub(crate) fn load_payload(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        let n = d.get_usize()?;
        if n != self.cores.len() {
            return Err(CodecError::Corrupt("core count mismatch"));
        }
        for c in &mut self.cores {
            c.load(d)?;
        }
        for c in &mut self.ctxs {
            c.load(d)?;
        }
        self.shared.load(d)?;
        for s in &mut self.sources {
            s.load_cursor(d)?;
        }
        self.state.load(d)?;
        if d.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after state"));
        }
        self.state
            .check(&self.config, self.cores.len(), self.thp_sample_every)?;
        // A multiple-of-interval count has already been sampled (the
        // sample fires in the same step that reaches the count), so the
        // cursor always points at the *next* multiple.
        self.next_thp_sample =
            (self.state.executed[0] / self.thp_sample_every + 1) * self.thp_sample_every;
        Ok(())
    }

    /// Run a single-core system to completion.
    ///
    /// # Panics
    ///
    /// Panics if the system was built with more than one core, on a
    /// watchdog stall, or on an invariant violation — see
    /// [`System::try_run`].
    pub fn run(self) -> RunReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run a single-core system to completion, reporting watchdog stalls
    /// and invariant violations as values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogStall`] when the forward-progress
    /// watchdog fires, [`SimError::PhysMemExhausted`] when the workload
    /// outgrows the configured physical memory, or
    /// [`SimError::Invariant`] when the audits are enabled and fail.
    ///
    /// # Panics
    ///
    /// Panics if the system was built with more than one core.
    pub fn try_run(self) -> Result<RunReport, SimError> {
        self.try_run_observed().map(|(report, _)| report)
    }

    /// Like [`System::try_run`], but also hands back what the
    /// observability layer captured over the measured window — `None`
    /// when the layer is disabled (the default). The report half is
    /// bit-identical either way: observability is purely observational.
    ///
    /// # Errors
    ///
    /// As [`System::try_run`].
    ///
    /// # Panics
    ///
    /// Panics if the system was built with more than one core.
    pub fn try_run_observed(mut self) -> Result<(RunReport, Option<ObsReport>), SimError> {
        assert_eq!(self.cores.len(), 1, "use run_multi for multi-core systems");
        let cycles = self.run_all()?;
        let ctx = &self.ctxs[0];
        let module = ctx.levels[1].module.as_ref();
        let report = RunReport {
            workload: self.names[0],
            instructions: self.config.instructions,
            cycles: cycles[0],
            l2c: ctx.levels[1].cache.stats(),
            llc: self.shared.llc.cache.stats(),
            dram: self.shared.dram.stats(),
            module: module.map(|m| m.stats()),
            boundary: module.map(|m| m.boundary_stats()),
            l2c_avg_latency: ctx.stats.lat[1].avg(),
            llc_avg_latency: ctx.stats.lat[2].avg(),
            huge_usage: ctx.aspace.huge_usage_fraction(),
            thp_series: std::mem::take(&mut self.state.thp_series),
            debug: ctx.stats.debug,
        };
        let obs = self.obs_report(&report);
        Ok((report, obs))
    }

    /// Assemble what the observability layer captured over the measured
    /// window of a single-core run (obs state is reset at the all-warm
    /// crossing): named counters, histogram summaries and the sampled
    /// event timeline. `None` when the layer is disabled.
    ///
    /// Issue counts are not counted twice: `module.issued*` and each
    /// `pref_*.issued` are read from the windowed `report.module`, so they
    /// match the report by construction; every other prefetch event comes
    /// from the module's own [`psa_core::ModuleObs`].
    fn obs_report(&self, report: &RunReport) -> Option<ObsReport> {
        if !self.config.obs.enabled {
            return None;
        }
        let module = self.ctxs[0].levels[1].module.as_ref();
        let stats = report.module.unwrap_or_default();
        let no_module = ModuleObs::default();
        let o = module.map_or(&no_module, |m| m.obs());
        let both = |c: &[Counter; 2]| c[0].get() + c[1].get();
        let mut counters = vec![
            ("module.issued", stats.issued),
            ("module.issued_psa", stats.issued_by[0]),
            ("module.issued_psa2m", stats.issued_by[1]),
            ("module.fills", both(&o.fills)),
            ("module.useful_timely", both(&o.useful_timely)),
            ("module.useful_late", both(&o.useful_late)),
            ("module.useless", both(&o.useless)),
        ];
        let mut histograms = vec![
            (
                "core0.load_to_use",
                self.cores[0].obs_load_to_use().summary(),
            ),
            (
                "l1d_mshr.occupancy",
                self.ctxs[0].levels[0].mshr.obs_occupancy().summary(),
            ),
            (
                "l2c_mshr.occupancy",
                self.ctxs[0].levels[1].mshr.obs_occupancy().summary(),
            ),
            (
                "llc_mshr.occupancy",
                self.shared.llc.mshr.obs_occupancy().summary(),
            ),
            (
                "dram.queue_delay",
                self.shared.dram.obs_queue_delay().summary(),
            ),
        ];
        if let Some(m) = module {
            // Each competitor slot's burst histogram, then its issued /
            // fills / useful / useless counters.
            let names = [
                (
                    "pref_psa.candidates_per_access",
                    [
                        "pref_psa.issued",
                        "pref_psa.fills",
                        "pref_psa.useful",
                        "pref_psa.useless",
                    ],
                ),
                (
                    "pref_psa2m.candidates_per_access",
                    [
                        "pref_psa2m.issued",
                        "pref_psa2m.fills",
                        "pref_psa2m.useful",
                        "pref_psa2m.useless",
                    ],
                ),
            ];
            // A lone prefetcher (slot 0) is credited with every issue,
            // whichever annotation its requests carry.
            let issued = match m.competitors() {
                1 => [stats.issued, 0],
                _ => stats.issued_by,
            };
            for (slot, (hname, cname)) in names.into_iter().enumerate().take(m.competitors()) {
                histograms.push((hname, o.candidates_per_access[slot].summary()));
                counters.push((cname[0], issued[slot]));
                counters.push((cname[1], o.fills[slot].get()));
                counters.push((cname[2], o.useful(slot)));
                counters.push((cname[3], o.useless[slot].get()));
            }
        }
        Some(ObsReport {
            counters,
            histograms,
            events: self.ring.events(),
            seen: EventKind::ALL
                .iter()
                .map(|&k| (k.name(), self.ring.seen(k)))
                .collect(),
            sample_every: self.config.obs.sample_every,
        })
    }

    /// Run a multi-core system to completion.
    ///
    /// # Panics
    ///
    /// Panics on a watchdog stall or an invariant violation — see
    /// [`System::try_run_multi`].
    pub fn run_multi(self) -> MultiReport {
        self.try_run_multi().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run a multi-core system to completion, reporting watchdog stalls
    /// and invariant violations as values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogStall`] when the forward-progress
    /// watchdog fires, [`SimError::PhysMemExhausted`] when the workloads
    /// outgrow the configured physical memory, or
    /// [`SimError::Invariant`] when the audits are enabled and fail.
    pub fn try_run_multi(mut self) -> Result<MultiReport, SimError> {
        let instructions = self.config.instructions as f64;
        let cycles = self.run_all()?;
        Ok(MultiReport {
            workloads: self.names.clone(),
            ipc: cycles.iter().map(|&c| instructions / c as f64).collect(),
            llc: self.shared.llc.cache.stats(),
            dram: self.shared.dram.stats(),
        })
    }
}

#[cfg(test)]
impl System {
    /// Core `i`'s MMU, for tests that damage its saved bytes.
    pub(crate) fn mmu(&self, i: usize) -> &psa_vmem::Mmu {
        &self.ctxs[i].mmu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CheckpointError;
    use psa_traces::catalog;

    fn mcf() -> System {
        System::single_core(
            SimConfig::default()
                .with_warmup(2_000)
                .with_instructions(8_000),
            catalog::workload("mcf").unwrap(),
            PrefetcherKind::Spp,
            PageSizePolicy::PsaSd,
        )
    }

    /// Pause a run built by `build` after `steps` steps, apply `damage` to
    /// its cursor, and restore the snapshot into a freshly built machine.
    fn restore_damaged(
        build: impl Fn() -> System,
        steps: u64,
        damage: impl FnOnce(&mut RunState),
    ) -> Result<(), SimError> {
        let mut sys = build();
        sys.run_to(steps).unwrap();
        damage(&mut sys.state);
        let snap = sys.snapshot(1);
        build().restore(&snap, 1)
    }

    fn assert_corrupt(got: Result<(), SimError>, case: &str) {
        assert!(
            matches!(got, Err(SimError::Checkpoint(CheckpointError::Corrupt(_)))),
            "{case}: {got:?}"
        );
    }

    #[test]
    fn cursor_past_warmup_without_its_crossing_is_corrupt() {
        // A cursor that claims 2,500 instructions but never crossed the
        // 2,000-instruction warm-up: resumed, its filler batch cap would
        // compute `warmup - executed` and underflow.
        let got = restore_damaged(mcf, 100, |s| s.executed[0] = 2_500);
        assert_corrupt(got, "executed past warm-up");
    }

    #[test]
    fn cursor_shorter_than_the_core_count_is_corrupt() {
        let duo = || {
            System::multi_core(
                SimConfig::for_cores(2)
                    .with_warmup(1_000)
                    .with_instructions(4_000),
                &[
                    catalog::workload("lbm").unwrap(),
                    catalog::workload("mcf").unwrap(),
                ],
                PrefetcherKind::Spp,
                PageSizePolicy::PsaSd,
            )
        };
        let got = restore_damaged(duo, 100, |s| s.executed.truncate(1));
        assert_corrupt(got, "one core's count for two cores");
    }

    /// Where to pause a run, a name, and how to damage the cursor.
    type Damage = (u64, &'static str, fn(&mut RunState));

    #[test]
    fn every_unreachable_cursor_is_corrupt() {
        // Paused before warm-up ends (step 100), after it (3,000) and
        // after the run finished.
        for steps in [100, 3_000, u64::MAX] {
            restore_damaged(mcf, steps, |_| {}).expect("an undamaged cursor restores");
        }
        let cases: [Damage; 11] = [
            (100, "warm-up cycle set early", |s| s.warm_at[0] = Some(1)),
            (100, "warm-up cycles too long", |s| s.warm_at.push(None)),
            (100, "steps differ", |s| s.steps += 1),
            (100, "active core repeated", |s| s.active.push(0)),
            (100, "THP sample ahead", |s| s.thp_series.push((0, 0.0))),
            (3_000, "warm-up cycle unset late", |s| s.warm_at[0] = None),
            (3_000, "unfinished core not active", |s| s.active.clear()),
            (3_000, "unknown core active", |s| s.active[0] = 1),
            (3_000, "THP samples missing", |s| s.thp_series.clear()),
            (3_000, "past the budget", |s| {
                s.executed[0] = 10_001;
                s.steps = 10_001;
            }),
            (u64::MAX, "finished core active", |s| s.active.push(0)),
        ];
        for (steps, case, damage) in cases {
            assert_corrupt(restore_damaged(mcf, steps, damage), case);
        }
    }
}
