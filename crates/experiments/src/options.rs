//! [`RunnerOptions`]: every documented `PSA_*` knob as one typed value,
//! read from the environment exactly once, at a binary's entry point.

use psa_sim::{ObsConfig, SimConfig, SimError};
use psa_store::fault::FaultPlan;
use std::ffi::OsString;
use std::path::PathBuf;

/// Every documented `PSA_*` knob as one typed options value — the single
/// supported way the environment reaches the machinery. A binary builds
/// one with [`RunnerOptions::from_env`] (strict: a set-but-malformed
/// variable is a [`SimError::EnvVar`] naming the variable and the value,
/// never a silently ignored knob) and hands it to its execution context
/// ([`crate::Settings::new`]); the `with_*` builders override fields
/// programmatically, and [`RunnerOptions::apply`] threads the run-shape
/// subset into a [`SimConfig`].
///
/// `from_env` is the only place in the workspace that parses `PSA_*`
/// variables; library code and tests configure through values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerOptions {
    /// `PSA_THREADS` — parallel-executor worker count (`None`: all
    /// available cores; see [`RunnerOptions::effective_threads`]).
    pub threads: Option<usize>,
    /// `PSA_WORKLOAD_LIMIT` — stride-subsample the 80-workload set.
    pub workload_limit: Option<usize>,
    /// `PSA_MIXES` — multi-core mix count (`None`: default 8).
    pub mixes: Option<usize>,
    /// `PSA_WARMUP` — warm-up instructions per core.
    pub warmup: Option<u64>,
    /// `PSA_INSTRUCTIONS` — measured instructions per core.
    pub instructions: Option<u64>,
    /// `PSA_WATCHDOG` — forward-progress watchdog threshold in cycles
    /// (0 disables).
    pub watchdog: Option<u64>,
    /// `PSA_CHECK` — run the hierarchy invariant audits at drain points.
    pub check: Option<bool>,
    /// `PSA_JSON_RUNS=1` — embed raw per-run reports in emitted JSON.
    pub json_runs: bool,
    /// `PSA_CKPT_MEM_MB` — memory-tier cap of the checkpoint/result
    /// store: memoised reports and documents, and with a disk tier warm
    /// snapshots too (`None`: 256MB).
    pub ckpt_mem_mb: Option<usize>,
    /// `PSA_CKPT_DIR` — directory of the checkpoint/result store's disk
    /// tier (`None`: memory only).
    pub ckpt_dir: Option<PathBuf>,
    /// `PSA_CKPT_DISK_MB` — disk-tier budget of the tiered checkpoint
    /// store (`None`: 2048MB).
    pub ckpt_disk_mb: Option<usize>,
    /// `PSA_FAULT_PLAN` — deterministic IO fault plan injected under
    /// the checkpoint store (testing and CI machinery, see
    /// `docs/ROBUSTNESS.md`).
    pub fault_plan: Option<FaultPlan>,
    /// `PSA_INJECT_PANIC` — fault-inject a panic into the named job
    /// (`<workload>` or `<workload>/<label>`; testing machinery).
    pub inject_panic: Option<String>,
    /// `PSA_INJECT_STALL` — fault-inject a watchdog stall likewise.
    pub inject_stall: Option<String>,
    /// `PSA_UPDATE_GOLDEN=1` — rewrite the golden digests (test-only;
    /// read by [`crate::golden::check`]).
    pub update_golden: bool,
    /// `PSA_BENCH_JSON_DIR` — where `BENCH_*.json` documents go
    /// (`None`: the working directory).
    pub bench_json_dir: Option<PathBuf>,
    /// `PSA_TRACE_FILE` — the `.psatrace` the trace-replay figure
    /// streams (`None`: the committed sample fixture).
    pub trace_file: Option<PathBuf>,
    /// `PSA_OBS=1` plus `PSA_OBS_RING` / `PSA_OBS_SAMPLE` — the
    /// observability layer shape ([`ObsConfig`]); `None` leaves the
    /// config's own (default: disabled) setting untouched.
    pub obs: Option<ObsConfig>,
    /// `PSA_OBS_TRACE` — write the first observed run's Chrome
    /// `trace_event` JSON to this path.
    pub obs_trace: Option<PathBuf>,
}

impl RunnerOptions {
    /// Read every documented `PSA_*` variable, strictly. Call it once,
    /// at a binary's entry point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EnvVar`] naming the variable and the value
    /// when any set variable does not parse.
    pub fn from_env() -> Result<Self, SimError> {
        Self::from_vars(|key| std::env::var_os(key))
    }

    /// [`RunnerOptions::from_env`] over an arbitrary variable lookup, so
    /// the strict parse is testable without touching the process
    /// environment.
    fn from_vars(vars: impl Fn(&str) -> Option<OsString>) -> Result<Self, SimError> {
        let vars = Vars(&vars);
        let obs_on = vars.flag("PSA_OBS")?;
        let obs_ring = vars.positive_u32("PSA_OBS_RING")?;
        let obs_sample = vars.positive_u32("PSA_OBS_SAMPLE")?;
        let obs = (obs_on.is_some() || obs_ring.is_some() || obs_sample.is_some()).then(|| {
            let base = ObsConfig::default();
            ObsConfig {
                enabled: obs_on.unwrap_or(false),
                ring_capacity: obs_ring.unwrap_or(base.ring_capacity),
                sample_every: obs_sample.unwrap_or(base.sample_every),
            }
        });
        Ok(Self {
            threads: vars.positive("PSA_THREADS")?,
            workload_limit: vars.positive("PSA_WORKLOAD_LIMIT")?,
            mixes: vars.positive("PSA_MIXES")?,
            warmup: vars.unsigned("PSA_WARMUP")?,
            instructions: vars.unsigned("PSA_INSTRUCTIONS")?,
            watchdog: vars.unsigned("PSA_WATCHDOG")?,
            check: vars.flag("PSA_CHECK")?,
            json_runs: vars.flag("PSA_JSON_RUNS")?.unwrap_or(false),
            ckpt_mem_mb: vars.positive("PSA_CKPT_MEM_MB")?,
            ckpt_dir: vars.path("PSA_CKPT_DIR"),
            ckpt_disk_mb: vars.positive("PSA_CKPT_DISK_MB")?,
            fault_plan: vars.fault_plan("PSA_FAULT_PLAN")?,
            inject_panic: vars.raw("PSA_INJECT_PANIC"),
            inject_stall: vars.raw("PSA_INJECT_STALL"),
            update_golden: vars.flag("PSA_UPDATE_GOLDEN")?.unwrap_or(false),
            bench_json_dir: vars.path("PSA_BENCH_JSON_DIR"),
            trace_file: vars.path("PSA_TRACE_FILE"),
            obs,
            obs_trace: vars.path("PSA_OBS_TRACE"),
        })
    }

    /// Override the worker-thread count.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Override the workload subsample limit.
    pub fn with_workload_limit(mut self, n: usize) -> Self {
        self.workload_limit = Some(n);
        self
    }

    /// Override the multi-core mix count.
    pub fn with_mixes(mut self, n: usize) -> Self {
        self.mixes = Some(n);
        self
    }

    /// Override the warm-up instruction budget.
    pub fn with_warmup(mut self, n: u64) -> Self {
        self.warmup = Some(n);
        self
    }

    /// Override the measured instruction budget.
    pub fn with_instructions(mut self, n: u64) -> Self {
        self.instructions = Some(n);
        self
    }

    /// Override the watchdog threshold (0 disables).
    pub fn with_watchdog(mut self, cycles: u64) -> Self {
        self.watchdog = Some(cycles);
        self
    }

    /// Enable or disable the hierarchy invariant audits.
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = Some(check);
        self
    }

    /// Override the observability shape (`ObsConfig::on()` enables it).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Thread the run-shape subset (budgets, watchdog, audits,
    /// observability) into a [`SimConfig`]; unset fields leave the
    /// config's own values untouched.
    pub fn apply(&self, mut config: SimConfig) -> SimConfig {
        if let Some(v) = self.warmup {
            config.warmup = v;
        }
        if let Some(v) = self.instructions {
            config.instructions = v;
        }
        if let Some(v) = self.watchdog {
            config.watchdog_cycles = v;
        }
        if let Some(v) = self.check {
            config.check = v;
        }
        if let Some(obs) = self.obs {
            config.obs = obs;
        }
        config
    }

    /// The worker-thread count these options resolve to: `threads` when
    /// set, else every available core.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// A variable lookup with the strict parsers: unset is `None`,
/// set-but-malformed is a [`SimError::EnvVar`] naming the variable and
/// the value.
struct Vars<'a>(&'a dyn Fn(&str) -> Option<OsString>);

impl Vars<'_> {
    /// A value taken verbatim, as text; unset is `None`.
    fn raw(&self, key: &str) -> Option<String> {
        (self.0)(key).map(|v| v.to_string_lossy().into_owned())
    }

    fn error(key: &str, value: String, reason: String) -> SimError {
        SimError::EnvVar {
            var: key.into(),
            value,
            reason,
        }
    }

    /// A `T` that must also satisfy `valid` (described by `expected`).
    fn parse<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, SimError> {
        let Some(raw) = self.raw(key) else {
            return Ok(None);
        };
        match raw.parse::<T>() {
            Ok(v) if valid(&v) => Ok(Some(v)),
            _ => Err(Self::error(key, raw, format!("expected {expected}"))),
        }
    }

    /// A positive integer (zero is malformed).
    fn positive(&self, key: &str) -> Result<Option<usize>, SimError> {
        self.parse(key, "a positive integer", |n: &usize| *n > 0)
    }

    /// A positive 32-bit integer.
    fn positive_u32(&self, key: &str) -> Result<Option<u32>, SimError> {
        self.parse(key, "a positive 32-bit integer", |n: &u32| *n > 0)
    }

    /// Any unsigned integer.
    fn unsigned(&self, key: &str) -> Result<Option<u64>, SimError> {
        self.parse(key, "an unsigned integer", |_: &u64| true)
    }

    /// A boolean flag: `1` is true, `0` is false.
    fn flag(&self, key: &str) -> Result<Option<bool>, SimError> {
        match self.raw(key).as_deref() {
            None => Ok(None),
            Some("1") => Ok(Some(true)),
            Some("0") => Ok(Some(false)),
            Some(other) => Err(Self::error(key, other.into(), "expected 0 or 1".into())),
        }
    }

    /// A [`FaultPlan`] spec, validated by [`FaultPlan::parse`].
    fn fault_plan(&self, key: &str) -> Result<Option<FaultPlan>, SimError> {
        self.raw(key)
            .map(|raw| FaultPlan::parse(&raw).map_err(|reason| Self::error(key, raw, reason)))
            .transpose()
    }

    /// A path taken verbatim; unset or empty is `None`.
    fn path(&self, key: &str) -> Option<PathBuf> {
        (self.0)(key).filter(|v| !v.is_empty()).map(PathBuf::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from(pairs: &[(&str, &str)]) -> Result<RunnerOptions, SimError> {
        RunnerOptions::from_vars(|key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn strict_parsing_reports_the_offender() {
        match from(&[("PSA_THREADS", "banana")]).unwrap_err() {
            SimError::EnvVar { var, value, .. } => {
                assert_eq!(var, "PSA_THREADS");
                assert_eq!(value, "banana");
            }
            other => panic!("expected EnvVar, got {other}"),
        }
        // Every knob kind is strict: positive integers, flags, u64
        // budgets, the u32 observability shape and the fault plan.
        for (var, value) in [
            ("PSA_WORKLOAD_LIMIT", "0"),
            ("PSA_MIXES", "-3"),
            ("PSA_OBS", "yes"),
            ("PSA_CHECK", "true"),
            ("PSA_WARMUP", "10k"),
            ("PSA_OBS_RING", "0"),
            ("PSA_OBS_SAMPLE", "-1"),
            ("PSA_CKPT_DISK_MB", "0"),
            ("PSA_FAULT_PLAN", "torn=2.0"),
        ] {
            let msg = from(&[(var, value)]).unwrap_err().to_string();
            assert!(msg.contains(var) && msg.contains(value), "{msg}");
        }
    }

    #[test]
    fn every_variable_is_read() {
        let opts = from(&[
            ("PSA_THREADS", "3"),
            ("PSA_WORKLOAD_LIMIT", "10"),
            ("PSA_MIXES", "2"),
            ("PSA_WARMUP", "500"),
            ("PSA_INSTRUCTIONS", "2000"),
            ("PSA_WATCHDOG", "0"),
            ("PSA_CHECK", "1"),
            ("PSA_JSON_RUNS", "1"),
            ("PSA_CKPT_MEM_MB", "64"),
            ("PSA_CKPT_DIR", "/tmp/ckpt"),
            ("PSA_CKPT_DISK_MB", "512"),
            ("PSA_FAULT_PLAN", "seed=3,eio=0.1"),
            ("PSA_INJECT_PANIC", "lbm"),
            ("PSA_INJECT_STALL", "milc/SPP"),
            ("PSA_UPDATE_GOLDEN", "1"),
            ("PSA_BENCH_JSON_DIR", "/tmp/out"),
            ("PSA_TRACE_FILE", "/tmp/x.psatrace"),
            ("PSA_OBS", "1"),
            ("PSA_OBS_RING", "128"),
            ("PSA_OBS_SAMPLE", "4"),
            ("PSA_OBS_TRACE", "/tmp/trace.json"),
        ])
        .expect("every variable parses");
        assert_eq!(opts.threads, Some(3));
        assert_eq!(opts.effective_threads(), 3);
        assert_eq!((opts.workload_limit, opts.mixes), (Some(10), Some(2)));
        assert_eq!((opts.warmup, opts.instructions), (Some(500), Some(2000)));
        assert_eq!(opts.watchdog, Some(0));
        assert_eq!(opts.check, Some(true));
        assert!(opts.json_runs && opts.update_golden);
        assert_eq!(opts.ckpt_mem_mb, Some(64));
        assert_eq!(opts.ckpt_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(opts.ckpt_disk_mb, Some(512));
        assert_eq!(
            opts.fault_plan,
            Some(FaultPlan::parse("seed=3,eio=0.1").unwrap())
        );
        assert_eq!(opts.inject_panic.as_deref(), Some("lbm"));
        assert_eq!(opts.inject_stall.as_deref(), Some("milc/SPP"));
        assert_eq!(opts.bench_json_dir, Some(PathBuf::from("/tmp/out")));
        assert_eq!(opts.trace_file, Some(PathBuf::from("/tmp/x.psatrace")));
        let obs = opts.obs.expect("PSA_OBS* sets the obs shape");
        assert!(obs.enabled);
        assert_eq!((obs.ring_capacity, obs.sample_every), (128, 4));
        assert_eq!(opts.obs_trace, Some(PathBuf::from("/tmp/trace.json")));

        // apply() threads the run-shape subset into a SimConfig…
        let cfg = opts.apply(SimConfig::default());
        assert_eq!((cfg.warmup, cfg.instructions), (500, 2000));
        assert_eq!(cfg.watchdog_cycles, 0);
        assert!(cfg.check);
        assert_eq!(cfg.obs, obs);
        // …while an empty options value leaves the config untouched.
        let untouched = RunnerOptions::default().apply(cfg);
        assert_eq!(untouched.warmup, cfg.warmup);
        assert_eq!(untouched.obs, cfg.obs);
        assert!(untouched.check);
    }

    #[test]
    fn programmatic_options_override_the_variables() {
        let opts = from(&[("PSA_WARMUP", "111"), ("PSA_OBS", "1")])
            .expect("clean parse")
            .with_warmup(222)
            .with_obs(ObsConfig::default());
        let cfg = opts.apply(SimConfig::default());
        assert_eq!(cfg.warmup, 222);
        assert!(!cfg.obs.enabled, "builder beat PSA_OBS=1");
    }

    #[test]
    fn empty_paths_are_unset() {
        let opts = from(&[("PSA_CKPT_DIR", ""), ("PSA_TRACE_FILE", "")]).unwrap();
        assert_eq!((opts.ckpt_dir, opts.trace_file), (None, None));
    }
}
