//! DRAM timing model.
//!
//! Models what the paper's evaluation depends on:
//!
//! * **Row buffers** — one open row per bank; row hits are much cheaper
//!   than conflicts. Spatial prefetchers owe part of their win to row-buffer
//!   locality (§II-A), and this model reproduces it.
//! * **Bandwidth** — the data bus serialises 64B transfers at a rate set by
//!   the configured MT/s, so prefetch traffic genuinely competes with
//!   demand traffic. Figure 12C sweeps 400–6400 MT/s and the 8-core results
//!   (Figure 15) are bandwidth-bound; both effects come from this model.
//! * **Bank parallelism** — independent banks overlap accesses.
//!
//! # Example
//!
//! ```
//! use psa_dram::{Dram, DramConfig};
//! use psa_common::PLine;
//!
//! let mut dram = Dram::new(DramConfig::default()).unwrap();
//! let t1 = dram.access(PLine::new(0), 0, false);
//! let t2 = dram.access(PLine::new(1), 0, false); // same row: hit, but bus-serialised
//! assert!(t2 > t1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use psa_common::geometry::checked_log2;
use psa_common::obs::Histogram;
use psa_common::PLine;

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Transfer rate in mega-transfers per second (Table I: 3200; Figure
    /// 12C sweeps 400–6400).
    pub mts: u64,
    /// Independent channels, each with its own data bus.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Core clock in GHz used to convert DRAM time into core cycles.
    pub core_ghz: u64,
    /// CAS latency in core cycles (row already open).
    pub t_cas: u64,
    /// RCD latency in core cycles (activate a closed row).
    pub t_rcd: u64,
    /// Precharge latency in core cycles (close a conflicting row).
    pub t_rp: u64,
    /// Prefetch backpressure: a prefetch aimed at a bank whose backlog
    /// extends more than this many cycles past `now` is dropped. This
    /// approximates a demand-first FR-FCFS controller in a time-warp model
    /// (demands can never queue behind an unbounded prefetch backlog).
    pub prefetch_backlog: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // ~12.5ns per timing component at a 4GHz core = 50 cycles, the
        // ballpark trace-driven simulators use for DDR4-3200.
        Self {
            mts: 3200,
            channels: 1,
            banks_per_channel: 32,
            row_bytes: 8192,
            core_ghz: 4,
            t_cas: 50,
            t_rcd: 50,
            t_rp: 50,
            prefetch_backlog: 200,
        }
    }
}

impl DramConfig {
    /// Core cycles the data bus is busy per 64-byte transfer
    /// (8 bytes per beat).
    pub fn transfer_cycles(&self) -> u64 {
        // cycles = core_hz * 64B / (mts * 1e6 * 8B) = core_ghz * 8000 / mts
        (self.core_ghz * 8000).div_ceil(self.mts)
    }
}

/// Error: unrealisable DRAM shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfigError(String);

impl std::fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid DRAM config: {}", self.0)
    }
}

impl std::error::Error for DramConfigError {}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

psa_common::persist_struct!(Bank {
    open_row,
    busy_until
});

/// DRAM access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses (cache writebacks).
    pub writes: u64,
    /// Accesses hitting an open row.
    pub row_hits: u64,
    /// Accesses to an idle (closed) row.
    pub row_opens: u64,
    /// Accesses conflicting with another open row.
    pub row_conflicts: u64,
    /// Total core cycles the data buses were busy.
    pub bus_busy_cycles: u64,
    /// Prefetches dropped by controller backpressure.
    pub prefetch_drops: u64,
}

impl DramStats {
    /// Row-buffer hit fraction in `[0, 1]`; 0 when unused.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_opens + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The DRAM device: banks with open-row policy plus per-channel buses.
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    bus_free: Vec<u64>,
    channel_bits: u32,
    bank_bits: u32,
    row_line_shift: u32,
    transfer: u64,
    stats: DramStats,
    /// Queueing-delay distribution: cycles each access waited behind its
    /// target bank (`start - now`). Disabled by default; purely
    /// observational and never part of the checkpoint byte stream (its
    /// total reconciles with the windowed `reads + writes`).
    obs_queue_delay: Histogram,
}

psa_common::persist_struct!(DramStats {
    reads,
    writes,
    row_hits,
    row_opens,
    row_conflicts,
    bus_busy_cycles,
    prefetch_drops,
});

// Address-mapping shifts and the transfer time are derived from the
// configuration; banks, buses and counters are the mutable state.
psa_common::persist_struct!(Dram {
    banks,
    bus_free,
    stats,
});

impl Dram {
    /// Build the device.
    ///
    /// # Errors
    ///
    /// Fails unless channels, banks and row size are powers of two and the
    /// transfer rate is non-zero.
    pub fn new(config: DramConfig) -> Result<Self, DramConfigError> {
        if config.mts == 0 || config.core_ghz == 0 {
            return Err(DramConfigError("mts and core_ghz must be non-zero".into()));
        }
        let channel_bits = checked_log2("channels", config.channels as u64)
            .map_err(|e| DramConfigError(e.to_string()))?;
        let bank_bits = checked_log2("banks", config.banks_per_channel as u64)
            .map_err(|e| DramConfigError(e.to_string()))?;
        let row_lines = config.row_bytes / 64;
        let row_line_bits =
            checked_log2("row lines", row_lines).map_err(|e| DramConfigError(e.to_string()))?;
        Ok(Self {
            config,
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0
                };
                config.channels * config.banks_per_channel
            ],
            bus_free: vec![0; config.channels],
            channel_bits,
            bank_bits,
            row_line_shift: row_line_bits,
            transfer: config.transfer_cycles(),
            stats: DramStats::default(),
            obs_queue_delay: Histogram::disabled(),
        })
    }

    /// Switch the device's observability hook on (per-access queueing
    /// delay histogram). Off by default; enabling changes no simulated
    /// state.
    pub fn enable_obs(&mut self) {
        self.obs_queue_delay = Histogram::new(true);
    }

    /// The queueing-delay distribution recorded so far.
    pub fn obs_queue_delay(&self) -> &Histogram {
        &self.obs_queue_delay
    }

    /// Start a measured window: zero the counters and the queueing
    /// histogram. Bank, row and bus state carry on.
    pub fn reset_window(&mut self) {
        self.stats = DramStats::default();
        self.obs_queue_delay.reset();
    }

    /// The configuration in force.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn map(&self, line: PLine) -> (usize, usize, u64) {
        // Row-interleaved mapping (row : bank : channel : column): the
        // column bits are lowest, so a sequential stream stays in one row
        // of one bank for a whole row buffer (row-hit locality), then
        // moves to the next channel/bank. This is the locality spatial
        // prefetchers exploit (§II-A of the PSA paper). The bank index is
        // additionally XOR-permuted with low row bits so concurrent
        // streams do not ping-pong rows of one bank persistently
        // (permutation-based page interleaving).
        let raw = line.raw();
        let channel = ((raw >> self.row_line_shift) & ((1 << self.channel_bits) - 1)) as usize;
        let row = raw >> (self.channel_bits + self.bank_bits + self.row_line_shift);
        let bank_mask = (1u64 << self.bank_bits) - 1;
        let bank =
            (((raw >> (self.row_line_shift + self.channel_bits)) ^ row) & bank_mask) as usize;
        (channel, bank, row)
    }

    /// Perform one 64-byte access beginning no earlier than `now`; returns
    /// the core cycle at which the data has fully transferred.
    pub fn access(&mut self, line: PLine, now: u64, is_write: bool) -> u64 {
        let (channel, bank_idx, row) = self.map(line);
        let bank = &mut self.banks[channel * self.config.banks_per_channel + bank_idx];
        let start = now.max(bank.busy_until);
        self.obs_queue_delay.record(start - now);
        let array_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.config.t_cas
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.config.t_rp + self.config.t_rcd + self.config.t_cas
            }
            None => {
                self.stats.row_opens += 1;
                self.config.t_rcd + self.config.t_cas
            }
        };
        let was_hit = matches!(bank.open_row, Some(open) if open == row);
        bank.open_row = Some(row);
        let data_ready = start + array_latency;
        // Serialise on the channel's data bus.
        let bus_start = data_ready.max(self.bus_free[channel]);
        let done = bus_start + self.transfer;
        self.bus_free[channel] = done;
        // Column reads to an open row pipeline (successive CAS commands gate
        // on the data bus, not on each other); activations occupy the bank
        // until the array delivers.
        bank.busy_until = if was_hit {
            start + self.transfer
        } else {
            data_ready
        };
        self.stats.bus_busy_cycles += self.transfer;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        done
    }

    /// Like [`Dram::access`] but subject to prefetch backpressure: returns
    /// `None` (and leaves the device untouched) when the target bank's
    /// backlog already extends more than `prefetch_backlog` cycles past
    /// `now` — the controller would have deprioritised the prefetch behind
    /// demand traffic anyway, and in a time-warp model the only safe
    /// approximation of that is to drop it.
    pub fn prefetch_access(&mut self, line: PLine, now: u64) -> Option<u64> {
        let (channel, bank_idx, _) = self.map(line);
        let bank = &self.banks[channel * self.config.banks_per_channel + bank_idx];
        if bank.busy_until > now + self.config.prefetch_backlog {
            self.stats.prefetch_drops += 1;
            return None;
        }
        Some(self.access(line, now, false))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Banks still occupied at core cycle `now` — the "pending DRAM queue"
    /// entry of watchdog stall snapshots.
    pub fn busy_banks(&self, now: u64) -> usize {
        self.banks.iter().filter(|b| b.busy_until > now).count()
    }

    /// Latest cycle at which any bank frees up (0 when never used).
    pub fn latest_bank_free_at(&self) -> u64 {
        self.banks.iter().map(|b| b.busy_until).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(mts: u64) -> Dram {
        Dram::new(DramConfig {
            mts,
            ..DramConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn transfer_cycles_scale_with_rate() {
        assert_eq!(
            DramConfig {
                mts: 3200,
                ..DramConfig::default()
            }
            .transfer_cycles(),
            10
        );
        assert_eq!(
            DramConfig {
                mts: 400,
                ..DramConfig::default()
            }
            .transfer_cycles(),
            80
        );
        assert_eq!(
            DramConfig {
                mts: 6400,
                ..DramConfig::default()
            }
            .transfer_cycles(),
            5
        );
    }

    #[test]
    fn row_hit_is_cheaper_than_conflict() {
        let mut d = dram(3200);
        // First access opens the row.
        let t0 = d.access(PLine::new(0), 0, false);
        assert_eq!(t0, 50 + 50 + 10); // tRCD + tCAS + transfer
                                      // Same row, sequential line: row hit (start gated by bank busy).
        let t1 = d.access(PLine::new(16), t0, false);
        assert_eq!(t1, t0 + 50 + 10);
        // Different row, same bank: conflict.
        let far = PLine::new(1 << 30);
        let t2 = d.access(far, t1, false);
        assert_eq!(t2, t1 + 150 + 10);
        let s = d.stats();
        assert_eq!((s.row_opens, s.row_hits, s.row_conflicts), (1, 1, 1));
    }

    #[test]
    fn banks_overlap_but_bus_serialises() {
        let mut d = dram(3200);
        // Two accesses to different banks at the same time: array latencies
        // overlap; transfers serialise on the single channel bus.
        let a = d.access(PLine::new(0), 0, false);
        let b = d.access(PLine::new(128), 0, false); // next row → bank 1
        assert_eq!(a, 110);
        assert_eq!(b, 120, "second transfer queues behind the first");
    }

    #[test]
    fn sequential_lines_share_a_row() {
        let mut d = dram(3200);
        d.access(PLine::new(0), 0, false);
        for i in 1..128u64 {
            d.access(PLine::new(i), 0, false);
        }
        let s = d.stats();
        assert_eq!(s.row_opens, 1, "one activation serves a whole 8KB row");
        assert_eq!(s.row_hits, 127);
    }

    #[test]
    fn bandwidth_bound_stream() {
        // With many banks, a long stream is bus-bound: completion time grows
        // by ~transfer_cycles per access.
        let mut d = dram(3200);
        let mut last = 0;
        for i in 0..1000u64 {
            last = d.access(PLine::new(i), 0, false);
        }
        let per_access = last as f64 / 1000.0;
        assert!((per_access - 10.0).abs() < 1.0, "got {per_access}");
    }

    #[test]
    fn low_rate_throttles_throughput() {
        let mut slow = dram(400);
        let mut fast = dram(6400);
        let mut t_slow = 0;
        let mut t_fast = 0;
        for i in 0..200u64 {
            t_slow = slow.access(PLine::new(i), 0, false);
            t_fast = fast.access(PLine::new(i), 0, false);
        }
        assert!(t_slow > 10 * t_fast, "slow {t_slow} vs fast {t_fast}");
    }

    #[test]
    fn start_time_respects_now() {
        let mut d = dram(3200);
        let t = d.access(PLine::new(0), 1_000_000, false);
        assert_eq!(t, 1_000_000 + 110);
    }

    #[test]
    fn write_counted_separately() {
        let mut d = dram(3200);
        d.access(PLine::new(0), 0, true);
        d.access(PLine::new(1), 0, false);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn multi_channel_buses_are_independent() {
        let mut d = Dram::new(DramConfig {
            channels: 2,
            ..DramConfig::default()
        })
        .unwrap();
        let a = d.access(PLine::new(0), 0, false); // channel 0
        let b = d.access(PLine::new(128), 0, false); // channel 1
        assert_eq!(a, b, "independent channels should not serialise");
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Dram::new(DramConfig {
            channels: 3,
            ..DramConfig::default()
        })
        .is_err());
        assert!(Dram::new(DramConfig {
            mts: 0,
            ..DramConfig::default()
        })
        .is_err());
    }

    #[test]
    fn obs_queue_delay_counts_every_access() {
        let mut d = dram(3200);
        d.access(PLine::new(0), 0, false);
        assert_eq!(d.obs_queue_delay().total(), 0, "disabled by default");
        d.enable_obs();
        // Back-to-back same-bank accesses at now=0: the second waits for
        // the bank.
        d.access(PLine::new(0), 0, false);
        d.access(PLine::new(16), 0, false);
        d.access(PLine::new(17), 0, true);
        let h = d.obs_queue_delay();
        assert_eq!(h.total(), 3, "one sample per access, reads and writes");
        assert!(h.sum() > 0, "bank backpressure must show up as delay");
        d.reset_window();
        assert_eq!(d.obs_queue_delay().total(), 0);
        assert_eq!(d.stats(), DramStats::default());
    }

    #[test]
    fn row_hit_rate_reported() {
        let mut d = dram(3200);
        let mut now = 0;
        for i in 0..128u64 {
            now = d.access(PLine::new(i * 16), now, false); // same bank, same row until row boundary
        }
        assert!(d.stats().row_hit_rate() > 0.5);
    }
}
