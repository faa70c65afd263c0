//! Simulation configuration — Table I of the paper as a value.

use crate::error::SimError;
use psa_cache::CacheConfig;
use psa_common::obs::ObsConfig;
use psa_common::{PLine, LINE_BYTES};
use psa_core::{ModuleConfig, SdConfig};
use psa_cpu::CoreConfig;
use psa_dram::DramConfig;
use psa_prefetchers::ModuleSpec;
use psa_vmem::{MmuConfig, PhysMemConfig};

/// Which L1D prefetcher (if any) runs alongside the L1D — the Figure 13
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum L1dPrefKind {
    /// No L1D prefetching (the paper's default system).
    #[default]
    None,
    /// Next-line at the L1D.
    NextLine,
    /// IPCP, confined to 4KB virtual pages.
    Ipcp,
    /// IPCP++: may cross a 4KB page when the target page is TLB resident.
    IpcpPlusPlus,
}

impl std::fmt::Display for L1dPrefKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            L1dPrefKind::None => f.write_str("none"),
            L1dPrefKind::NextLine => f.write_str("NL"),
            L1dPrefKind::Ipcp => f.write_str("IPCP"),
            L1dPrefKind::IpcpPlusPlus => f.write_str("IPCP++"),
        }
    }
}

/// Full machine + run configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of cores (1, 4 or 8 in the paper).
    pub cores: usize,
    /// Core shape (Table I: 352-entry ROB, 4-wide).
    pub core: CoreConfig,
    /// L1D shape (48KB, 12-way, 5-cycle, 16 MSHRs).
    pub l1d: CacheConfig,
    /// L2C shape (512KB, 8-way, 10-cycle, 32 MSHRs).
    pub l2c: CacheConfig,
    /// LLC shape (2MB/core, 16-way, 20-cycle, 64 MSHRs/core).
    pub llc: CacheConfig,
    /// DRAM shape (3200 MT/s default; Figure 12C sweeps it).
    pub dram: DramConfig,
    /// MMU shape (Table I TLBs).
    pub mmu: MmuConfig,
    /// Physical memory (8GB single-core, 32GB multi-core).
    pub phys: PhysMemConfig,
    /// Set-Dueling shape for Pref-PSA-SD (32+32 sets, 3-bit Csel).
    pub sd: SdConfig,
    /// Prefetch issue-path limits.
    pub module: ModuleConfig,
    /// The L2C prefetching module each core carries — family, page-size
    /// policy and tuning knobs as a plain value. The default is the
    /// no-prefetch baseline; `System::try_single_core` and friends are
    /// sugar that fill this in.
    pub module_spec: ModuleSpec,
    /// L1D prefetcher for Figure 13 configurations.
    pub l1d_prefetcher: L1dPrefKind,
    /// Warm-up instructions per core (µarch state settles; not measured).
    pub warmup: u64,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Master seed (trace generation, frame placement, THP decisions).
    pub seed: u64,
    /// Forward-progress watchdog: abort a run after this many simulated
    /// cycles without a ROB retirement or an MSHR drain anywhere in the
    /// machine. `0` disables the watchdog. Real runs retire every few
    /// cycles once the ROB fills and drain on every memory access, so the
    /// default of two million cycles only fires on genuine livelock.
    pub watchdog_cycles: u64,
    /// Run the hierarchy invariant audits at drain points (`PSA_CHECK=1`
    /// reaches here through `RunnerOptions` in the experiments crate).
    pub check: bool,
    /// Observability layer shape ([`psa_common::obs`]). Disabled by
    /// default: every hook in the machine is then a no-op and runs are
    /// bit-identical to an uninstrumented build.
    pub obs: ObsConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::for_cores(1)
    }
}

impl SimConfig {
    /// Table I configuration for an `n`-core machine.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn for_cores(n: usize) -> Self {
        assert!(n > 0, "at least one core");
        Self {
            cores: n,
            core: CoreConfig::default(),
            l1d: CacheConfig::l1d(),
            l2c: CacheConfig::l2c(),
            llc: CacheConfig::llc(n),
            dram: DramConfig {
                channels: if n > 4 { 2 } else { 1 },
                ..DramConfig::default()
            },
            mmu: MmuConfig::default(),
            phys: PhysMemConfig {
                bytes: if n > 1 { 32 } else { 8 } * 1024 * 1024 * 1024,
            },
            sd: SdConfig::default(),
            module: ModuleConfig::default(),
            module_spec: ModuleSpec::none(),
            l1d_prefetcher: L1dPrefKind::None,
            warmup: 100_000,
            instructions: 300_000,
            seed: 0xC0FFEE,
            watchdog_cycles: 2_000_000,
            check: false,
            obs: ObsConfig::default(),
        }
    }

    /// Override the measured instruction count.
    pub fn with_instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Override the warm-up instruction count.
    pub fn with_warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the L2C prefetching module ([`ModuleSpec::none`] for the
    /// baseline).
    pub fn with_module_spec(mut self, spec: ModuleSpec) -> Self {
        self.module_spec = spec;
        self
    }

    /// Override the forward-progress watchdog threshold (`0` disables).
    pub fn with_watchdog(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = cycles;
        self
    }

    /// Enable or disable the hierarchy invariant audits.
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = check;
        self
    }

    /// Override the observability shape (`ObsConfig::on()` enables the
    /// whole layer). Environment overrides (`PSA_WARMUP`, `PSA_OBS`, …)
    /// are applied by `RunnerOptions` in the experiments crate — this
    /// crate never reads the environment.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Check the scalar run parameters before building a machine: the
    /// structural shapes (cache geometry, DRAM, set-dueling layout) are
    /// validated by their own constructors on `System::try_*`. Physical
    /// memory is checked against every cache's 32-bit tags here, so no
    /// simulated line can overflow them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] naming the offending knob.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |what: &str| Err(SimError::Config { what: what.into() });
        if self.cores == 0 {
            return bad("cores must be at least 1");
        }
        if let Err(what) = self.obs.validate() {
            return bad(what);
        }
        if self.instructions == 0 {
            return bad("measured instructions must be non-zero");
        }
        if self.core.rob_entries == 0 || self.core.width == 0 {
            return bad("degenerate core shape (zero ROB entries or width)");
        }
        let last_line = PLine::new(self.phys.bytes.saturating_sub(1) / LINE_BYTES);
        for (name, c) in [("L1D", &self.l1d), ("L2C", &self.l2c), ("LLC", &self.llc)] {
            if c.mshr_entries == 0 {
                return Err(SimError::Config {
                    what: format!("{name} needs at least one MSHR entry"),
                });
            }
            if !c.can_tag(last_line) {
                return Err(SimError::Config {
                    what: format!(
                        "{name}: {} bytes of physical memory overflow its 32-bit tags",
                        self.phys.bytes
                    ),
                });
            }
        }
        Ok(())
    }

    /// Render the configuration as the paper's Table I.
    pub fn table1(&self) -> String {
        let mut t = psa_common::Table::new(vec!["Component".into(), "Configuration".into()]);
        t.row(vec![
            "CPU Core".into(),
            format!(
                "{} core(s), 4GHz, {}-entry ROB, {}-wide",
                self.cores, self.core.rob_entries, self.core.width
            ),
        ]);
        t.row(vec![
            "L1 DTLB".into(),
            format!(
                "{}-entry, {}-way, {}-cycle",
                self.mmu.dtlb.entries_4k, self.mmu.dtlb.ways, self.mmu.dtlb_latency
            ),
        ]);
        t.row(vec![
            "L2 TLB".into(),
            format!(
                "{}-entry, {}-way, {}-cycle",
                self.mmu.stlb.entries_4k, self.mmu.stlb.ways, self.mmu.stlb_latency
            ),
        ]);
        for (name, c) in [
            ("L1 DCache", &self.l1d),
            ("L2 Cache", &self.l2c),
            ("LLC", &self.llc),
        ] {
            t.row(vec![
                name.into(),
                format!(
                    "{}KB, {}-way, {}-cycle, {}-entry MSHR",
                    c.bytes >> 10,
                    c.ways,
                    c.latency,
                    c.mshr_entries
                ),
            ]);
        }
        t.row(vec![
            "L2C dueling".into(),
            format!(
                "{} sets/competitor, {}-bit Csel",
                self.sd.dedicated_sets, self.sd.csel_bits
            ),
        ]);
        t.row(vec![
            "DRAM".into(),
            format!(
                "{}GB, {} MT/s, {} channel(s)",
                self.phys.bytes >> 30,
                self.dram.mts,
                self.dram.channels
            ),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.cores, 1);
        assert_eq!(c.core.rob_entries, 352);
        assert_eq!(c.l1d.bytes, 48 << 10);
        assert_eq!(c.l2c.bytes, 512 << 10);
        assert_eq!(c.llc.bytes, 2 << 20);
        assert_eq!(c.dram.mts, 3200);
        assert_eq!(c.phys.bytes, 8 << 30);
        assert_eq!(c.sd.dedicated_sets, 32);
    }

    #[test]
    fn multicore_scales_shared_resources() {
        let c = SimConfig::for_cores(8);
        assert_eq!(c.llc.bytes, 16 << 20);
        assert_eq!(c.phys.bytes, 32 << 30);
        assert_eq!(c.dram.channels, 2);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::default()
            .with_warmup(5)
            .with_instructions(10)
            .with_seed(3);
        assert_eq!((c.warmup, c.instructions, c.seed), (5, 10, 3));
    }

    #[test]
    fn table1_renders_key_rows() {
        let text = SimConfig::default().table1();
        assert!(text.contains("352-entry ROB"));
        assert!(text.contains("3200 MT/s"));
        assert!(text.contains("L2C dueling"));
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        SimConfig::default().validate().expect("Table I is sound");
        let c = SimConfig {
            instructions: 0,
            ..SimConfig::default()
        };
        assert!(matches!(c.validate(), Err(SimError::Config { .. })));
        let mut c = SimConfig::default();
        c.l2c.mshr_entries = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("L2C"), "{err}");
        let c = SimConfig::default().with_obs(psa_common::obs::ObsConfig {
            enabled: true,
            ring_capacity: 0,
            sample_every: 64,
        });
        assert!(matches!(c.validate(), Err(SimError::Config { .. })));
    }

    #[test]
    fn validate_rejects_memory_beyond_the_l1d_tags() {
        // The 64-set L1D has the fewest sets, so the largest tags: 2^32
        // tags of 64 lines of 64 bytes span 16 TiB, and the top tag marks
        // an empty way.
        let mut c = SimConfig::default();
        c.phys.bytes = 16 << 40;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, SimError::Config { .. }));
        assert!(err.to_string().contains("L1D"), "{err}");
        c.phys.bytes = (16 << 40) - (2 << 20);
        c.validate()
            .expect("the lines below 16 TiB fit the L1D's tags");
    }
}
