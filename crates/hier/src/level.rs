//! One cache level and the per-core walk statistics.

use psa_cache::{Cache, Mshr, MshrEntry};
use psa_common::{CodecError, Dec, Enc, PLine, Persist, VAddr};
use psa_core::PsaModule;

/// A late (demand-merged) prefetch still earns timely credit when the
/// demand's residual wait was below this, i.e. the prefetch hid almost the
/// whole miss.
pub const LATE_TIMELY_SLACK: u64 = 200;

/// High bit of the block-source annotation: the fill is a pass-through
/// copy (a prefetch destined for a level above, parked here on its way up)
/// whose usefulness is tracked at the destination level, not here.
pub const PASS: u8 = 0x80;

/// Whether a prefetch may take an MSHR slot: prefetches never consume the
/// last quarter of the file, so demand misses keep making progress
/// (prefetches are droppable, demands are not).
pub fn prefetch_room(mshr: &Mshr) -> bool {
    mshr.len() + mshr.capacity().div_ceil(4) <= mshr.capacity()
}

/// What a [`CacheLevel`] is in the hierarchy. The walk logic is identical
/// across levels; the role decides how a level credits prefetch
/// usefulness, which demands its latency statistic covers, and what it
/// records for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The entry level (the L1D). Its prefetches are untagged and train
    /// nothing, load latency is measured at the port instead, and a
    /// full-MSHR bump stall is charged to the core
    /// ([`PortDebug::mshr_bump_stall`]).
    Entry,
    /// A private level with a module attach point (the L2C). Usefulness
    /// is credited synchronously to the attached module, only trigger
    /// accesses count toward its latency, and it records detailed ring
    /// events (`L2cMiss`, `MshrAlloc`, `MshrFree`) and the clean/merged
    /// miss profile in [`PortDebug`].
    Attach,
    /// The level shared between cores (the LLC). Usefulness events are
    /// queued as [`Feedback`] values for the driver to dispatch to the
    /// owning core's module, every demand arrival (page-walk PTE reads
    /// included) counts toward its latency, and writes reach it only as
    /// writebacks.
    Shared,
}

/// One demand request descending the hierarchy.
///
/// The PPM bit ([`Request::huge`]) is explicit here — it is written into
/// the MSHR metadata at every level the request allocates in, and handed
/// to the prefetching module at its attach level as the page size.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Physical line accessed.
    pub line: PLine,
    /// Program counter of the triggering instruction.
    pub pc: VAddr,
    /// Whether the access is a store.
    pub write: bool,
    /// PPM: the page-size bit observed at translation time (true = the
    /// access falls in a huge page).
    pub huge: bool,
}

/// One level of the memory hierarchy: array + MSHR file + latency +
/// optional prefetching-module attach point + role.
///
/// Persists as a unit: array, MSHR, and the attached module (when
/// present), in that order.
pub struct CacheLevel {
    /// The tag/data array.
    pub cache: Cache,
    /// The level's miss-status-holding registers.
    pub mshr: Mshr,
    /// Access latency in cycles, charged on every hop through the level.
    pub latency: u64,
    /// The prefetching module attached at this level, if any. The walk
    /// fires it on trigger accesses and, at a [`Role::Attach`] level,
    /// credits it with its prefetches' usefulness.
    pub module: Option<PsaModule>,
    /// What the level is in the hierarchy.
    pub role: Role,
    /// Reusable scratch for the walk's MSHR drain (matured entries are
    /// collected here before filling the array). Cleared before every use
    /// and never persisted — it carries no state between drains.
    pub drain_buf: Vec<MshrEntry>,
}

impl CacheLevel {
    /// Bundle a built array into a level; the MSHR file and latency come
    /// from the array's [`psa_cache::CacheConfig`].
    pub fn new(cache: Cache, role: Role) -> Self {
        let mshr = Mshr::new(cache.config().mshr_entries);
        let latency = cache.config().latency;
        Self {
            cache,
            mshr,
            latency,
            module: None,
            role,
            drain_buf: Vec::new(),
        }
    }

    /// The level's human-readable name (from the array configuration).
    pub fn name(&self) -> &'static str {
        self.cache.config().name
    }

    /// Switch on the level's MSHR occupancy histogram. Off by default;
    /// enabling changes no simulated state. A module's counters are
    /// switched on where it is built (`ModuleSpec::build_module`).
    pub fn enable_obs(&mut self) {
        self.mshr.enable_obs();
    }

    /// Start a measured window: zero the array's statistics, the MSHR
    /// file's observability hooks and the attached module's counters.
    /// The MSHR's own statistics stay cumulative (the watchdog and the
    /// leak audit read them).
    pub fn reset_window(&mut self) {
        self.cache.reset_stats();
        self.mshr.reset_obs();
        if let Some(m) = &mut self.module {
            m.reset_window();
        }
    }
}

impl Persist for CacheLevel {
    fn save(&self, e: &mut Enc) {
        self.cache.save(e);
        self.mshr.save(e);
        if let Some(m) = &self.module {
            m.save(e);
        }
        // `latency` and `role` are configuration, rebuilt before a
        // restore.
    }

    fn load(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.cache.load(d)?;
        self.mshr.load(d)?;
        if let Some(m) = &mut self.module {
            m.load(d)?;
        }
        Ok(())
    }
}

/// Per-level demand-latency accumulator (sum of cycles, access count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelLat {
    /// Total demand latency in cycles.
    pub sum: u64,
    /// Demand accesses accounted.
    pub cnt: u64,
}

psa_common::persist_struct!(LevelLat { sum, cnt });

impl LevelLat {
    /// Average latency, or 0.0 when no access was accounted.
    pub fn avg(&self) -> f64 {
        if self.cnt == 0 {
            0.0
        } else {
            self.sum as f64 / self.cnt as f64
        }
    }
}

/// Issue-path diagnostics for one core, written by the walk and the
/// memory port. All fields are running totals except
/// [`PortDebug::load_latency_max`], a running maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortDebug {
    /// Cycles demand accesses stalled waiting for a full entry-level MSHR
    /// file to free a slot.
    pub mshr_bump_stall: u64,
    /// Trigger demand misses that allocated a fresh MSHR entry at the
    /// profiled level.
    pub clean_misses: u64,
    /// Trigger demand misses that merged into an in-flight entry (late
    /// prefetches and overlapping demands).
    pub merged_misses: u64,
    /// Total latency of the clean misses, in cycles.
    pub clean_latency_sum: u64,
    /// Total latency of the merged misses, in cycles.
    pub merged_latency_sum: u64,
    /// Loads issued through the port.
    pub loads: u64,
    /// Total load latency (issue → value available), in cycles.
    pub load_latency_sum: u64,
    /// Largest single load latency observed, in cycles (running maximum —
    /// kept by [`PortDebug::reset`]).
    pub load_latency_max: u64,
}

psa_common::persist_struct!(PortDebug {
    mshr_bump_stall,
    clean_misses,
    merged_misses,
    clean_latency_sum,
    merged_latency_sum,
    loads,
    load_latency_sum,
    load_latency_max,
});

impl PortDebug {
    /// Zero the totals at the start of a measured window;
    /// `load_latency_max` stays the running maximum.
    pub fn reset(&mut self) {
        *self = PortDebug {
            load_latency_max: self.load_latency_max,
            ..PortDebug::default()
        };
    }
}

/// Per-core statistics the walk writes as requests descend: one
/// [`LevelLat`] per level (indexed like the walk's level slice) plus the
/// [`PortDebug`] diagnostics.
#[derive(Debug, Clone, Default)]
pub struct WalkStats {
    /// Demand-latency accumulators, one per level.
    pub lat: Vec<LevelLat>,
    /// Issue-path diagnostics.
    pub debug: PortDebug,
}

psa_common::persist_struct!(WalkStats { lat, debug });

impl WalkStats {
    /// Zeroed statistics for a hierarchy of `levels` levels.
    pub fn new(levels: usize) -> Self {
        Self {
            lat: vec![LevelLat::default(); levels],
            debug: PortDebug::default(),
        }
    }

    /// Zero the latency sums and the diagnostic totals at the start of a
    /// measured window (see [`PortDebug::reset`]).
    pub fn reset(&mut self) {
        self.lat.fill(LevelLat::default());
        self.debug.reset();
    }
}

/// Cross-core prefetch feedback discovered at a [`Role::Shared`] level,
/// queued for the driver to dispatch to the owning core's module in the
/// same step. The queue is empty between steps, so it is never part of a
/// snapshot.
#[derive(Debug, Clone, Copy)]
pub enum Feedback {
    /// A tracked prefetched block saw its first demand use, timely.
    Useful {
        /// Block-source annotation (`(core << 1) | competitor`).
        source: u8,
        /// The block.
        line: PLine,
    },
    /// A tracked prefetch merged with a demand too late to hide the miss.
    UsefulLate {
        /// Block-source annotation.
        source: u8,
        /// The block.
        line: PLine,
    },
    /// A tracked prefetched block was evicted unused.
    Useless {
        /// Block-source annotation.
        source: u8,
        /// The block.
        line: PLine,
    },
    /// A tracked prefetch filled the level.
    Fill {
        /// Block-source annotation.
        source: u8,
        /// The block.
        line: PLine,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_room_reserves_the_last_quarter() {
        let mut mshr = Mshr::new(16);
        for i in 0..13 {
            assert!(prefetch_room(&mshr), "slot {i} should admit a prefetch");
            mshr.alloc(
                PLine::new(i),
                1_000 + i,
                psa_cache::MshrMeta {
                    is_prefetch: true,
                    source: 0,
                    huge: false,
                    write: false,
                },
            )
            .unwrap();
        }
        assert!(!prefetch_room(&mshr), "the last quarter is demand-only");
    }

    #[test]
    fn port_debug_windows_all_but_the_max() {
        let mut w = PortDebug {
            mshr_bump_stall: 5,
            clean_misses: 10,
            merged_misses: 1,
            clean_latency_sum: 100,
            merged_latency_sum: 7,
            loads: 50,
            load_latency_sum: 900,
            load_latency_max: 120,
        };
        w.reset();
        assert_eq!(
            w,
            PortDebug {
                load_latency_max: 120,
                ..PortDebug::default()
            }
        );
        assert_eq!(w.load_latency_max, 120, "max is a running maximum");
    }
}
