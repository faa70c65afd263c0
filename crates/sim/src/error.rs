//! Typed simulation errors.
//!
//! Construction, validation and execution of a [`crate::System`] report
//! failures as [`SimError`] values instead of ad-hoc panics, so the
//! experiment executor can isolate a bad (workload, variant) job without
//! poisoning the rest of a batch. The watchdog variant carries a
//! [`StallSnapshot`] — enough machine state to diagnose a no-progress
//! stall post-mortem from a `BENCH_*.json` failure record.

use std::fmt;

/// Any error the simulator reports through `Result` paths.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration cannot be built into a machine (bad cache shape,
    /// degenerate DRAM geometry, set-dueling layout that does not fit…).
    Config {
        /// What was wrong, naming the offending component.
        what: String,
    },
    /// A trace-catalog lookup failed.
    UnknownWorkload {
        /// The name that matched nothing.
        name: String,
    },
    /// An environment variable held a value that does not parse.
    EnvVar {
        /// The variable's name.
        var: String,
        /// The raw value found.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The forward-progress watchdog aborted a run: `watchdog_cycles`
    /// elapsed with no ROB retirement and no MSHR drain anywhere in the
    /// machine.
    WatchdogStall(Box<StallSnapshot>),
    /// The opt-in invariant checker (`PSA_CHECK=1`) found the machine in
    /// an inconsistent state.
    Invariant {
        /// The violated invariant, naming the structure.
        what: String,
    },
    /// The workload's footprint outgrew the configured physical memory —
    /// the frame allocator had no free frame left for a new mapping.
    PhysMemExhausted {
        /// Which mapping failed (address and size).
        what: String,
    },
    /// A checkpoint could not be accepted: damaged bytes, a foreign
    /// format version, or a snapshot taken from a different machine.
    /// Callers treat every cause the same way — discard the checkpoint
    /// and warm up cold; none of them is ever a panic.
    Checkpoint(CheckpointError),
    /// A trace-file workload source failed: the file is missing,
    /// truncated, corrupt, a foreign format version, or its content
    /// hash does not match the pinned reference. Surfaces at machine
    /// build time (open/verify) or mid-run (a block fails its checksum
    /// during streaming) — never as a panic.
    Trace(psa_traces::TraceError),
}

impl From<psa_traces::TraceError> for SimError {
    fn from(e: psa_traces::TraceError) -> Self {
        SimError::Trace(e)
    }
}

/// Why a checkpoint was rejected. Each cause names the *first* check that
/// failed; validation stops there, so e.g. a truncated file is reported
/// as [`CheckpointError::Truncated`] even if its version field is also
/// stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the encoded state was complete.
    Truncated,
    /// A structural field held an impossible value (bad magic, bad tag,
    /// checksum mismatch, trailing bytes…).
    Corrupt(&'static str),
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The snapshot belongs to a different (config, workloads, variant)
    /// key — restoring it would silently simulate the wrong machine.
    KeyMismatch {
        /// Key found in the header.
        found: u64,
        /// Key the caller expected.
        expected: u64,
    },
    /// The checkpoint store's disk is out of space; writes degraded to
    /// memory-only for the rest of the process.
    Enospc(String),
    /// A transient IO fault survived every bounded-backoff retry.
    TransientIo {
        /// Attempts made (including the first).
        attempts: u32,
        /// Operation description.
        what: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => f.write_str("truncated checkpoint"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {expected})"
                )
            }
            CheckpointError::KeyMismatch { found, expected } => write!(
                f,
                "checkpoint key {found:#018x} does not match expected {expected:#018x}"
            ),
            CheckpointError::Enospc(what) => {
                write!(f, "checkpoint store out of disk space: {what}")
            }
            CheckpointError::TransientIo { attempts, what } => write!(
                f,
                "checkpoint store transient I/O failure after {attempts} attempts: {what}"
            ),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config { what } => write!(f, "invalid configuration: {what}"),
            SimError::UnknownWorkload { name } => {
                write!(f, "unknown workload {name:?} (not in the trace catalog)")
            }
            SimError::EnvVar { var, value, reason } => {
                write!(f, "environment variable {var}={value:?}: {reason}")
            }
            SimError::WatchdogStall(snap) => write!(f, "watchdog stall: {snap}"),
            SimError::Invariant { what } => write!(f, "invariant violated: {what}"),
            SimError::PhysMemExhausted { what } => write!(
                f,
                "physical memory exhausted ({what}): enlarge PhysMemConfig for this workload set"
            ),
            SimError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            SimError::Trace(e) => write!(f, "trace replay failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<psa_hier::HierError> for SimError {
    fn from(e: psa_hier::HierError) -> Self {
        SimError::Invariant {
            what: e.to_string(),
        }
    }
}

/// Machine state captured when the watchdog fires, for post-mortem
/// diagnosis of the stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallSnapshot {
    /// Simulated cycle (global low watermark) at abort.
    pub cycle: u64,
    /// Last cycle at which any core retired or any MSHR drained.
    pub last_progress_cycle: u64,
    /// The threshold that was exceeded.
    pub watchdog_cycles: u64,
    /// Per-core state.
    pub cores: Vec<CoreStall>,
    /// Shared-LLC MSHR occupancy.
    pub llc_mshr: usize,
    /// Shared-LLC MSHR capacity.
    pub llc_mshr_capacity: usize,
    /// DRAM banks still busy at the abort cycle (the pending queue).
    pub dram_busy_banks: usize,
    /// Latest cycle at which any DRAM bank frees up.
    pub dram_latest_free_at: u64,
}

/// One core's contribution to a [`StallSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStall {
    /// Core index.
    pub core: usize,
    /// The core's fetch cycle.
    pub now: u64,
    /// Instructions occupying ROB slots.
    pub rob_len: usize,
    /// Completion cycle of the ROB head (next to retire), if any.
    pub rob_head_completion: Option<u64>,
    /// Instructions retired so far.
    pub retired: u64,
    /// L1D MSHR occupancy.
    pub l1d_mshr: usize,
    /// L2C MSHR occupancy.
    pub l2c_mshr: usize,
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no retire/drain progress for {} cycles (cycle {}, last progress at {});",
            self.cycle.saturating_sub(self.last_progress_cycle),
            self.cycle,
            self.last_progress_cycle
        )?;
        for c in &self.cores {
            write!(
                f,
                " core {}: now={} rob={} head={} retired={} l1d_mshr={} l2c_mshr={};",
                c.core,
                c.now,
                c.rob_len,
                c.rob_head_completion
                    .map_or_else(|| "-".into(), |t| t.to_string()),
                c.retired,
                c.l1d_mshr,
                c.l2c_mshr
            )?;
        }
        write!(
            f,
            " llc_mshr={}/{} dram_busy_banks={} dram_latest_free_at={}",
            self.llc_mshr, self.llc_mshr_capacity, self.dram_busy_banks, self.dram_latest_free_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = SimError::EnvVar {
            var: "PSA_THREADS".into(),
            value: "banana".into(),
            reason: "expected a positive integer".into(),
        };
        let s = e.to_string();
        assert!(s.contains("PSA_THREADS"));
        assert!(s.contains("banana"));

        let e = SimError::UnknownWorkload {
            name: "nope".into(),
        };
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn stall_snapshot_renders_core_state() {
        let snap = StallSnapshot {
            cycle: 5_000,
            last_progress_cycle: 2_000,
            watchdog_cycles: 1_000,
            cores: vec![CoreStall {
                core: 0,
                now: 5_000,
                rob_len: 352,
                rob_head_completion: Some(9_999),
                retired: 17,
                l1d_mshr: 16,
                l2c_mshr: 32,
            }],
            llc_mshr: 64,
            llc_mshr_capacity: 64,
            dram_busy_banks: 3,
            dram_latest_free_at: 12_345,
        };
        let s = SimError::WatchdogStall(Box::new(snap)).to_string();
        assert!(s.contains("3000 cycles"), "{s}");
        assert!(s.contains("rob=352"), "{s}");
        assert!(s.contains("llc_mshr=64/64"), "{s}");
    }
}
