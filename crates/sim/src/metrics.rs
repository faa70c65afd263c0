//! Measured-window reports produced by simulation runs.

use crate::error::{CheckpointError, SimError};
use psa_cache::CacheStats;
use psa_common::codec::{Dec, Enc, Persist};
use psa_core::boundary::BoundaryStats;
use psa_core::ModuleStats;
use psa_dram::DramStats;
use psa_hier::PortDebug;

/// The report of one single-core run, restricted to the measured window
/// (post-warmup).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Instructions measured.
    pub instructions: u64,
    /// Cycles spent on the measured instructions.
    pub cycles: u64,
    /// L2C counters.
    pub l2c: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Prefetching-module issue statistics (None for the no-prefetch
    /// baseline).
    pub module: Option<ModuleStats>,
    /// Boundary-legality counters (Figure 2's discard probability).
    pub boundary: Option<BoundaryStats>,
    /// Mean L2C demand access latency in cycles.
    pub l2c_avg_latency: f64,
    /// Mean LLC demand access latency in cycles.
    pub llc_avg_latency: f64,
    /// Fraction of the address space's memory mapped with 2MB pages at the
    /// end of the run.
    pub huge_usage: f64,
    /// Sampled (instruction count, 2MB usage fraction) series — Figure 3.
    pub thp_series: Vec<(u64, f64)>,
    /// Internal diagnostic counters (MSHR stall cycles, clean vs merged
    /// miss profile, load latency profile) — see [`PortDebug`]. Not part
    /// of the stable API and deliberately excluded from the stable JSON
    /// sections.
    pub debug: PortDebug,
}

impl RunReport {
    /// Instructions per cycle over the measured window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2C demand misses per kilo-instruction.
    pub fn l2c_mpki(&self) -> f64 {
        self.l2c.demand_misses as f64 * 1000.0 / self.instructions.max(1) as f64
    }

    /// LLC demand misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.demand_misses as f64 * 1000.0 / self.instructions.max(1) as f64
    }

    /// Prefetch accuracy at `level` (useful / (useful + useless)); `None`
    /// when no prefetch completed.
    pub fn accuracy(&self, stats: CacheStats) -> Option<f64> {
        let denom = stats.useful_prefetches + stats.useless_prefetches;
        (denom > 0).then(|| stats.useful_prefetches as f64 / denom as f64)
    }

    /// Miss coverage relative to a baseline run: the fraction of the
    /// baseline's misses this run eliminated. Positive is better.
    pub fn coverage_vs(&self, baseline_misses: u64, own_misses: u64) -> f64 {
        if baseline_misses == 0 {
            0.0
        } else {
            (baseline_misses as f64 - own_misses as f64) / baseline_misses as f64
        }
    }

    /// Encode this report for the tiered result store (`psa-store`).
    ///
    /// The payload is version-tagged and carries the workload name so
    /// decoding can refuse a report that belongs to a different run —
    /// the store's frame checksum guards the bytes, this guards the
    /// *meaning*.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut e = store_header(self.workload);
        self.instructions.save(&mut e);
        self.cycles.save(&mut e);
        self.l2c.save(&mut e);
        self.llc.save(&mut e);
        self.dram.save(&mut e);
        self.module.save(&mut e);
        self.boundary.save(&mut e);
        self.l2c_avg_latency.save(&mut e);
        self.llc_avg_latency.save(&mut e);
        self.huge_usage.save(&mut e);
        self.thp_series.save(&mut e);
        self.debug.save(&mut e);
        e.into_bytes()
    }

    /// Decode a report previously written by
    /// [`RunReport::to_store_bytes`], for the given `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation, a foreign codec
    /// version, or a workload-name mismatch — callers treat all of
    /// them as a cache miss and re-run the simulation.
    pub fn from_store_bytes(bytes: &[u8], workload: &'static str) -> Result<Self, SimError> {
        let mut d = Dec::new(bytes);
        check_store_header(&mut d, workload)?;
        let mut r = RunReport {
            workload,
            instructions: 0,
            cycles: 0,
            l2c: CacheStats::default(),
            llc: CacheStats::default(),
            dram: DramStats::default(),
            module: None,
            boundary: None,
            l2c_avg_latency: 0.0,
            llc_avg_latency: 0.0,
            huge_usage: 0.0,
            thp_series: Vec::new(),
            debug: PortDebug::default(),
        };
        r.instructions.load(&mut d).map_err(codec)?;
        r.cycles.load(&mut d).map_err(codec)?;
        r.l2c.load(&mut d).map_err(codec)?;
        r.llc.load(&mut d).map_err(codec)?;
        r.dram.load(&mut d).map_err(codec)?;
        r.module.load(&mut d).map_err(codec)?;
        r.boundary.load(&mut d).map_err(codec)?;
        r.l2c_avg_latency.load(&mut d).map_err(codec)?;
        r.llc_avg_latency.load(&mut d).map_err(codec)?;
        r.huge_usage.load(&mut d).map_err(codec)?;
        r.thp_series.load(&mut d).map_err(codec)?;
        r.debug.load(&mut d).map_err(codec)?;
        check_drained(&d)?;
        Ok(r)
    }
}

/// Start a memoised report's bytes: the codec version, then the name of
/// the run's workload (a mix's names joined by `+`).
fn store_header(name: &str) -> Enc {
    let mut e = Enc::new();
    e.put_u32(REPORT_CODEC_VERSION);
    e.put_usize(name.len());
    e.put_bytes(name.as_bytes());
    e
}

/// Read [`store_header`]'s fields, refusing a foreign codec version or a
/// report of another run.
fn check_store_header(d: &mut Dec, name: &str) -> Result<(), SimError> {
    let version = d.get_u32().map_err(codec)?;
    if version != REPORT_CODEC_VERSION {
        return Err(SimError::Checkpoint(CheckpointError::VersionMismatch {
            found: version,
            expected: REPORT_CODEC_VERSION,
        }));
    }
    let name_len = d.get_len().map_err(codec)?;
    if name_len != name.len() {
        return Err(corrupt("report workload name"));
    }
    for expected in name.as_bytes() {
        if d.get_u8().map_err(codec)? != *expected {
            return Err(corrupt("report workload name"));
        }
    }
    Ok(())
}

/// Refuse bytes left over after a decoded report.
fn check_drained(d: &Dec) -> Result<(), SimError> {
    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes after report"));
    }
    Ok(())
}

fn corrupt(what: &'static str) -> SimError {
    SimError::Checkpoint(CheckpointError::Corrupt(what))
}

fn codec(e: psa_common::codec::CodecError) -> SimError {
    use psa_common::codec::CodecError;
    match e {
        CodecError::Eof => SimError::Checkpoint(CheckpointError::Truncated),
        CodecError::Corrupt(what) => corrupt(what),
    }
}

/// Version written into (and required of) memoised report bytes.
/// Bump on any change to [`RunReport`]'s persisted shape; stale store
/// entries then decode as version mismatches and fall back to re-runs.
pub const REPORT_CODEC_VERSION: u32 = 1;

/// The report of one multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiReport {
    /// Per-core workload names.
    pub workloads: Vec<&'static str>,
    /// Per-core IPC over each core's measured window.
    pub ipc: Vec<f64>,
    /// Shared-LLC counters over the fully-warm window.
    pub llc: CacheStats,
    /// DRAM counters over the fully-warm window.
    pub dram: DramStats,
}

impl MultiReport {
    /// Encode this report for the tiered result store, under the same
    /// version-and-name header as [`RunReport::to_store_bytes`]: the
    /// name is the per-core workloads joined by `+`.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut e = store_header(&self.workloads.join("+"));
        self.ipc.save(&mut e);
        self.llc.save(&mut e);
        self.dram.save(&mut e);
        e.into_bytes()
    }

    /// Decode a report previously written by
    /// [`MultiReport::to_store_bytes`], for the mix `workloads`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on truncation, trailing bytes, a
    /// foreign codec version, another mix's workload names, or an IPC
    /// count other than one per core.
    pub fn from_store_bytes(bytes: &[u8], workloads: &[&'static str]) -> Result<Self, SimError> {
        let mut d = Dec::new(bytes);
        check_store_header(&mut d, &workloads.join("+"))?;
        let mut r = MultiReport {
            workloads: workloads.to_vec(),
            ipc: Vec::new(),
            llc: CacheStats::default(),
            dram: DramStats::default(),
        };
        r.ipc.load(&mut d).map_err(codec)?;
        if r.ipc.len() != workloads.len() {
            return Err(corrupt("mix report IPC count"));
        }
        r.llc.load(&mut d).map_err(codec)?;
        r.dram.load(&mut d).map_err(codec)?;
        check_drained(&d)?;
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(instr: u64, cycles: u64) -> RunReport {
        RunReport {
            workload: "t",
            instructions: instr,
            cycles,
            l2c: CacheStats::default(),
            llc: CacheStats::default(),
            dram: DramStats::default(),
            module: None,
            boundary: None,
            l2c_avg_latency: 0.0,
            llc_avg_latency: 0.0,
            huge_usage: 0.0,
            thp_series: Vec::new(),
            debug: PortDebug::default(),
        }
    }

    #[test]
    fn ipc_and_mpki() {
        let mut r = report(1000, 500);
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        r.llc.demand_misses = 5;
        assert!((r.llc_mpki() - 5.0).abs() < 1e-12);
        assert_eq!(report(10, 0).ipc(), 0.0);
    }

    #[test]
    fn accuracy_handling() {
        let r = report(1, 1);
        assert_eq!(r.accuracy(CacheStats::default()), None);
        let s = CacheStats {
            useful_prefetches: 3,
            useless_prefetches: 1,
            ..Default::default()
        };
        assert!((r.accuracy(s).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_signs() {
        let r = report(1, 1);
        assert!((r.coverage_vs(100, 40) - 0.6).abs() < 1e-12);
        assert!(r.coverage_vs(100, 120) < 0.0);
        assert_eq!(r.coverage_vs(0, 10), 0.0);
    }

    #[test]
    fn store_bytes_roundtrip_bit_identical() {
        let mut r = report(123_456, 98_765);
        r.l2c.demand_misses = 17;
        r.module = Some(ModuleStats {
            accesses: 9,
            issued: 4,
            ..Default::default()
        });
        r.l2c_avg_latency = 13.25;
        r.huge_usage = 0.375;
        r.thp_series = vec![(1000, 0.1), (2000, 0.375)];
        r.debug.load_latency_max = 99;
        let bytes = r.to_store_bytes();
        let back = RunReport::from_store_bytes(&bytes, "t").expect("decode");
        assert_eq!(r, back);
    }

    #[test]
    fn store_bytes_reject_wrong_workload_version_and_damage() {
        let r = report(10, 10);
        let bytes = r.to_store_bytes();
        assert!(RunReport::from_store_bytes(&bytes, "other").is_err());
        assert!(RunReport::from_store_bytes(&bytes[..bytes.len() - 1], "t").is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(RunReport::from_store_bytes(&extra, "t").is_err());
        let mut wrong_version = bytes;
        wrong_version[0] ^= 0xff;
        let err = RunReport::from_store_bytes(&wrong_version, "t").expect_err("version");
        assert!(err.to_string().contains("version"), "{err}");
    }

    fn mix() -> MultiReport {
        MultiReport {
            workloads: vec!["a", "b"],
            ipc: vec![0.75, 1.5],
            llc: CacheStats {
                demand_misses: 12,
                ..Default::default()
            },
            dram: DramStats {
                row_hits: 3,
                ..Default::default()
            },
        }
    }

    #[test]
    fn mix_store_bytes_roundtrip_bit_identical() {
        let r = mix();
        let back = MultiReport::from_store_bytes(&r.to_store_bytes(), &["a", "b"]).expect("decode");
        assert_eq!(r, back);
    }

    #[test]
    fn mix_store_bytes_reject_wrong_workloads_version_damage_and_ipc_count() {
        let bytes = mix().to_store_bytes();
        let decode = |bytes: &[u8]| MultiReport::from_store_bytes(bytes, &["a", "b"]);
        assert!(MultiReport::from_store_bytes(&bytes, &["b", "a"]).is_err());
        assert!(MultiReport::from_store_bytes(&bytes, &["a"]).is_err());
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode(&extra).is_err());
        let mut wrong_version = bytes;
        wrong_version[0] ^= 0xff;
        let err = decode(&wrong_version).expect_err("version");
        assert!(err.to_string().contains("version"), "{err}");
        let three = MultiReport {
            ipc: vec![0.75, 1.5, 2.0],
            ..mix()
        };
        let err = decode(&three.to_store_bytes()).expect_err("IPC count");
        assert!(err.to_string().contains("IPC count"), "{err}");
    }
}
