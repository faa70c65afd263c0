//! Set-associative cache arrays with LRU replacement and prefetch metadata.
//!
//! All cache levels in the paper use LRU (Table I). Every block carries:
//!
//! * a `prefetched` flag plus the **source annotation** Pref-PSA-SD relies
//!   on (§IV-B2) — which competing prefetcher issued the fill;
//! * a `used` flag so a prefetched block is counted *useful* exactly once,
//!   on its first demand hit (the event that updates `Csel`).

use psa_common::geometry::checked_log2;
use psa_common::{CodecError, Dec, Enc, PLine, Persist, LINE_BYTES};

/// Shape and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name for error messages and reports.
    pub name: &'static str,
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
    /// MSHR entries for this level.
    pub mshr_entries: usize,
}

impl CacheConfig {
    /// Table I L1I: 32KB, 8-way, 4-cycle, 8 MSHRs.
    pub fn l1i() -> Self {
        Self {
            name: "L1I",
            bytes: 32 << 10,
            ways: 8,
            latency: 4,
            mshr_entries: 8,
        }
    }

    /// Table I L1D: 48KB, 12-way, 5-cycle, 16 MSHRs.
    pub fn l1d() -> Self {
        Self {
            name: "L1D",
            bytes: 48 << 10,
            ways: 12,
            latency: 5,
            mshr_entries: 16,
        }
    }

    /// Table I L2C: 512KB, 8-way, 10-cycle, 32 MSHRs.
    pub fn l2c() -> Self {
        Self {
            name: "L2C",
            bytes: 512 << 10,
            ways: 8,
            latency: 10,
            mshr_entries: 32,
        }
    }

    /// Table I LLC: 2MB/core, 16-way, 20-cycle, 64 MSHRs.
    pub fn llc(cores: usize) -> Self {
        Self {
            name: "LLC",
            bytes: (2 << 20) * cores as u64,
            ways: 16,
            latency: 20,
            mshr_entries: 64 * cores.max(1),
        }
    }

    /// Number of sets implied by the shape.
    pub fn sets(&self) -> u64 {
        self.bytes / (LINE_BYTES * self.ways as u64)
    }
}

/// Error: unrealisable cache shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfigError(String);

impl std::fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid cache shape: {}", self.0)
    }
}

impl std::error::Error for CacheConfigError {}

/// How a fill entered the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillKind {
    /// A demand miss fill.
    Demand,
    /// A prefetch fill issued by the identified prefetcher
    /// (the Pref-PSA-SD annotation).
    Prefetch {
        /// Issuing-prefetcher id (0 = Pref-PSA, 1 = Pref-PSA-2MB by
        /// convention in `psa-core`).
        source: u8,
    },
}

/// Result of a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// The block had been brought in by a prefetch.
    pub was_prefetched: bool,
    /// Issuing prefetcher (meaningful when `was_prefetched`).
    pub prefetch_source: u8,
    /// This is the first demand touch of the prefetched block — the event
    /// that counts it useful and trains `Csel`.
    pub first_use: bool,
}

/// A block pushed out by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: PLine,
    /// It was dirty and must be written back.
    pub dirty: bool,
    /// It was a prefetched block that was never demanded — a useless
    /// prefetch, for accuracy accounting.
    pub unused_prefetch: bool,
    /// Issuing prefetcher of an unused prefetched block.
    pub prefetch_source: u8,
}

/// Per-way status bits, packed into one byte of the `flags` plane.
const F_VALID: u8 = 1 << 0;
const F_DIRTY: u8 = 1 << 1;
const F_PREFETCHED: u8 = 1 << 2;
const F_USED: u8 = 1 << 3;

/// Per-level hit/miss and prefetch-usefulness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit (including hits on prefetched blocks).
    pub demand_hits: u64,
    /// Demand lookups that missed the array.
    pub demand_misses: u64,
    /// Prefetch fills installed.
    pub prefetch_fills: u64,
    /// Prefetched blocks demanded at least once before eviction.
    pub useful_prefetches: u64,
    /// Prefetched blocks evicted without ever being demanded.
    pub useless_prefetches: u64,
    /// Dirty evictions (writebacks to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand accesses observed.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Demand miss ratio in `[0, 1]`; 0 when unused.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_misses as f64 / total as f64
        }
    }
}

/// One set-associative cache level.
///
/// The array state is a structure-of-arrays: the tag, recency and status
/// planes live in separate parallel vectors indexed `set * ways + way`.
/// A set lookup touches one contiguous run of each plane it needs — a
/// probe reads 8–16 consecutive tags instead of striding through 40-byte
/// block structs — which is what makes the per-access `Walk` cheap.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// Tag plane: the resident line's raw id (garbage while invalid).
    tags: Vec<u64>,
    /// Recency plane: `stamp` at last touch (LRU key; 0 while invalid).
    last_use: Vec<u64>,
    /// Status plane: `F_VALID | F_DIRTY | F_PREFETCHED | F_USED`.
    flags: Vec<u8>,
    /// Pref-PSA-SD source annotation (meaningful while `F_PREFETCHED`).
    source: Vec<u8>,
    stamp: u64,
    stats: CacheStats,
}

psa_common::persist_struct!(CacheStats {
    demand_hits,
    demand_misses,
    prefetch_fills,
    useful_prefetches,
    useless_prefetches,
    writebacks,
});

// `config` and `sets` are geometry, rebuilt from the simulation
// configuration; only the array contents and counters are state. The SoA
// planes are written as they are held, and a plane of any other length
// than the built geometry's is rejected: it was written by a cache of
// another shape, and the next probe would index past the planes.
impl Persist for Cache {
    fn save(&self, e: &mut Enc) {
        self.tags.save(e);
        self.last_use.save(e);
        self.flags.save(e);
        self.source.save(e);
        self.stamp.save(e);
        self.stats.save(e);
    }

    fn load(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.tags.load(d)?;
        self.last_use.load(d)?;
        self.flags.load(d)?;
        self.source.load(d)?;
        let n = self.sets * self.config.ways;
        if [
            self.tags.len(),
            self.last_use.len(),
            self.flags.len(),
            self.source.len(),
        ] != [n; 4]
        {
            return Err(CodecError::Corrupt(
                "cache planes do not match the geometry",
            ));
        }
        if self
            .flags
            .iter()
            .any(|&f| f & !(F_VALID | F_DIRTY | F_PREFETCHED | F_USED) != 0)
        {
            return Err(CodecError::Corrupt("cache status flags"));
        }
        self.stamp.load(d)?;
        self.stats.load(d)
    }
}

impl Cache {
    /// Build a cache of the given shape.
    ///
    /// # Errors
    ///
    /// Fails unless the shape divides into a power-of-two number of sets.
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        if config.ways == 0 || config.bytes == 0 {
            return Err(CacheConfigError(format!(
                "{}: zero ways or bytes",
                config.name
            )));
        }
        if !config.bytes.is_multiple_of(LINE_BYTES * config.ways as u64) {
            return Err(CacheConfigError(format!(
                "{}: {} bytes not divisible into {}-way 64B sets",
                config.name, config.bytes, config.ways
            )));
        }
        let sets = config.sets();
        checked_log2(config.name, sets).map_err(|e| CacheConfigError(e.to_string()))?;
        let n = sets as usize * config.ways;
        Ok(Self {
            config,
            sets: sets as usize,
            tags: vec![0; n],
            last_use: vec![0; n],
            flags: vec![0; n],
            source: vec![0; n],
            stamp: 0,
            stats: CacheStats::default(),
        })
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The set this line maps to — exposed because Set Dueling dedicates
    /// specific L2C sets to each competing prefetcher (§IV-B2).
    #[inline]
    pub fn set_of(&self, line: PLine) -> usize {
        (line.raw() as usize) & (self.sets - 1)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Index of the first way of `line`'s set in the SoA planes.
    #[inline]
    fn set_base(&self, line: PLine) -> usize {
        self.set_of(line) * self.config.ways
    }

    /// The way holding `line` within the set starting at `base`, if any.
    ///
    /// Branch-light by construction: one pass over the set's contiguous
    /// tag and flag bytes, folding validity into the comparison instead of
    /// branching per way.
    #[inline]
    fn find_way(&self, base: usize, raw: u64) -> Option<usize> {
        let ways = self.config.ways;
        let tags = &self.tags[base..base + ways];
        let flags = &self.flags[base..base + ways];
        (0..ways).find(|&w| (tags[w] == raw) & (flags[w] & F_VALID != 0))
    }

    /// Demand lookup. Hits update LRU and prefetch-usefulness state.
    pub fn probe(&mut self, line: PLine) -> Option<HitInfo> {
        self.stamp += 1;
        let base = self.set_base(line);
        match self.find_way(base, line.raw()) {
            Some(w) => {
                let i = base + w;
                self.last_use[i] = self.stamp;
                let f = self.flags[i];
                let was_prefetched = f & F_PREFETCHED != 0;
                let first_use = was_prefetched && f & F_USED == 0;
                if first_use {
                    self.flags[i] = f | F_USED;
                    self.stats.useful_prefetches += 1;
                }
                self.stats.demand_hits += 1;
                Some(HitInfo {
                    was_prefetched,
                    prefetch_source: self.source[i],
                    first_use,
                })
            }
            None => {
                self.stats.demand_misses += 1;
                None
            }
        }
    }

    /// Non-destructive presence check (no LRU or stats update) — used by
    /// prefetch filtering.
    pub fn contains(&self, line: PLine) -> bool {
        self.find_way(self.set_base(line), line.raw()).is_some()
    }

    /// Mark a resident line dirty (store hit). No-op if absent.
    pub fn mark_dirty(&mut self, line: PLine) {
        let base = self.set_base(line);
        if let Some(w) = self.find_way(base, line.raw()) {
            self.flags[base + w] |= F_DIRTY;
        }
    }

    /// Install `line`, evicting the LRU block if the set is full.
    ///
    /// Re-filling a resident line refreshes it in place (this happens when
    /// a prefetch and a demand race through different paths).
    pub fn fill(&mut self, line: PLine, kind: FillKind, dirty: bool) -> Option<Evicted> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let FillKind::Prefetch { .. } = kind {
            self.stats.prefetch_fills += 1;
        }
        let base = self.set_base(line);
        // One fused pass finds both the resident way (first match, exactly
        // as `find_way`) and the replacement victim; the common miss path
        // previously scanned the set twice. Victim choice: first invalid
        // way (key 0 — `stamp` starts at 1, so a valid way never keys to
        // 0), else least-recently-used, first-minimal on ties via strict
        // `<` — reproducing the historical `min_by_key` over per-way
        // structs bit-for-bit.
        let ways = self.config.ways;
        let raw = line.raw();
        let mut hit = None;
        let mut victim = 0;
        let mut best = u64::MAX;
        {
            let tags = &self.tags[base..base + ways];
            let flags = &self.flags[base..base + ways];
            let last_use = &self.last_use[base..base + ways];
            for w in 0..ways {
                let valid = flags[w] & F_VALID != 0;
                if hit.is_none() && (tags[w] == raw) & valid {
                    hit = Some(w);
                }
                let key = if valid { last_use[w] } else { 0 };
                if key < best {
                    best = key;
                    victim = w;
                }
            }
        }
        if let Some(w) = hit {
            let i = base + w;
            self.flags[i] |= if dirty { F_DIRTY } else { 0 };
            self.last_use[i] = stamp;
            return None;
        }
        let i = base + victim;
        let f = self.flags[i];
        let evicted = if f & F_VALID != 0 {
            let unused_prefetch = f & F_PREFETCHED != 0 && f & F_USED == 0;
            Some(Evicted {
                line: PLine::new(self.tags[i]),
                dirty: f & F_DIRTY != 0,
                unused_prefetch,
                prefetch_source: self.source[i],
            })
        } else {
            None
        };
        if let Some(e) = &evicted {
            if e.unused_prefetch {
                self.stats.useless_prefetches += 1;
            }
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        let (prefetched, source) = match kind {
            FillKind::Demand => (false, 0),
            FillKind::Prefetch { source } => (true, source),
        };
        self.tags[i] = line.raw();
        self.flags[i] =
            F_VALID | if dirty { F_DIRTY } else { 0 } | if prefetched { F_PREFETCHED } else { 0 };
        self.source[i] = source;
        self.last_use[i] = stamp;
        evicted
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Every valid block, for invariant audits. Read-only: touches neither
    /// LRU state nor statistics.
    pub fn valid_blocks(&self) -> impl Iterator<Item = BlockView> + '_ {
        let ways = self.config.ways;
        self.flags
            .iter()
            .enumerate()
            .filter(|(_, f)| **f & F_VALID != 0)
            .map(move |(i, f)| BlockView {
                line: PLine::new(self.tags[i]),
                set: i / ways,
                prefetched: f & F_PREFETCHED != 0,
                source: self.source[i],
                used: f & F_USED != 0,
            })
    }

    /// Audit the array's internal invariants (the `PSA_CHECK=1` checker):
    /// every valid block's tag maps to the set it occupies, no line is
    /// resident twice within a set, and prefetch accounting is consistent
    /// (a prefetched block becomes useful or useless at most once, so
    /// `useful + useless ≤ prefetch_fills`).
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable description of the violated
    /// invariant.
    pub fn audit(&self) -> Result<(), String> {
        for set in 0..self.sets {
            let base = set * self.config.ways;
            let tags = &self.tags[base..base + self.config.ways];
            let flags = &self.flags[base..base + self.config.ways];
            for (i, (&tag, &f)) in tags.iter().zip(flags).enumerate() {
                if f & F_VALID == 0 {
                    continue;
                }
                let line = PLine::new(tag);
                if self.set_of(line) != set {
                    return Err(format!(
                        "{}: block {} resident in set {} but maps to set {}",
                        self.config.name,
                        line,
                        set,
                        self.set_of(line)
                    ));
                }
                if tags[..i]
                    .iter()
                    .zip(flags)
                    .any(|(&o, &of)| of & F_VALID != 0 && o == tag)
                {
                    return Err(format!(
                        "{}: line {} resident twice in set {}",
                        self.config.name, line, set
                    ));
                }
            }
        }
        let s = &self.stats;
        if s.useful_prefetches + s.useless_prefetches > s.prefetch_fills {
            return Err(format!(
                "{}: {} useful + {} useless prefetches exceed {} prefetch fills",
                self.config.name, s.useful_prefetches, s.useless_prefetches, s.prefetch_fills
            ));
        }
        Ok(())
    }
}

/// A read-only view of one valid cache block, for invariant audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockView {
    /// The resident line.
    pub line: PLine,
    /// The set it occupies.
    pub set: usize,
    /// It was installed by a prefetch.
    pub prefetched: bool,
    /// The Pref-PSA-SD source annotation (meaningful when `prefetched`).
    pub source: u8,
    /// It has been demanded since installation.
    pub used: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways.
        Cache::new(CacheConfig {
            name: "T",
            bytes: 4 * LINE_BYTES,
            ways: 2,
            latency: 1,
            mshr_entries: 4,
        })
        .unwrap()
    }

    fn line(n: u64) -> PLine {
        PLine::new(n)
    }

    #[test]
    fn paper_shapes_construct() {
        for c in [
            CacheConfig::l1i(),
            CacheConfig::l1d(),
            CacheConfig::l2c(),
            CacheConfig::llc(1),
        ] {
            let cache = Cache::new(c).unwrap();
            assert_eq!(cache.config().sets() as usize, cache.num_sets());
        }
        // L1D: 48KB 12-way → 64 sets; L2C: 512KB 8-way → 1024 sets.
        assert_eq!(CacheConfig::l1d().sets(), 64);
        assert_eq!(CacheConfig::l2c().sets(), 1024);
        assert_eq!(CacheConfig::llc(4).sets(), 8192);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Cache::new(CacheConfig {
            name: "bad",
            bytes: 3 * LINE_BYTES,
            ways: 2,
            latency: 1,
            mshr_entries: 1
        })
        .is_err());
    }

    #[test]
    fn persist_rejects_another_shape_and_unknown_flags() {
        let mut c = tiny();
        c.fill(line(4), FillKind::Prefetch { source: 1 }, true);
        let mut e = Enc::new();
        c.save(&mut e);
        let bytes = e.into_bytes();
        let mut same = tiny();
        same.load(&mut Dec::new(&bytes)).unwrap();
        assert!(same.contains(line(4)));

        // Four sets instead of two: every plane is twice as long.
        let mut wider = Cache::new(CacheConfig {
            bytes: 8 * LINE_BYTES,
            ..*tiny().config()
        })
        .unwrap();
        assert!(wider.load(&mut Dec::new(&bytes)).is_err());

        // A status byte with a bit outside the four flags.
        let mut e = Enc::new();
        vec![0u64; 4].save(&mut e);
        vec![0u64; 4].save(&mut e);
        vec![F_USED << 1, 0, 0, 0].save(&mut e);
        vec![0u8; 4].save(&mut e);
        0u64.save(&mut e);
        CacheStats::default().save(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(
            tiny().load(&mut Dec::new(&bytes)),
            Err(CodecError::Corrupt("cache status flags"))
        );
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = tiny();
        assert!(c.probe(line(4)).is_none());
        c.fill(line(4), FillKind::Demand, false);
        let hit = c.probe(line(4)).unwrap();
        assert!(!hit.was_prefetched);
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even lines).
        c.fill(line(0), FillKind::Demand, false);
        c.fill(line(2), FillKind::Demand, false);
        c.probe(line(0)); // refresh 0
        let ev = c.fill(line(4), FillKind::Demand, false).unwrap();
        assert_eq!(ev.line, line(2));
        assert!(c.contains(line(0)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn prefetch_first_use_counts_once() {
        let mut c = tiny();
        c.fill(line(6), FillKind::Prefetch { source: 1 }, false);
        let h1 = c.probe(line(6)).unwrap();
        assert!(h1.was_prefetched && h1.first_use);
        assert_eq!(h1.prefetch_source, 1);
        let h2 = c.probe(line(6)).unwrap();
        assert!(h2.was_prefetched && !h2.first_use);
        assert_eq!(c.stats().useful_prefetches, 1);
    }

    #[test]
    fn unused_prefetch_eviction_counts_useless() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Prefetch { source: 0 }, false);
        c.fill(line(2), FillKind::Demand, false);
        c.probe(line(2));
        let ev = c.fill(line(4), FillKind::Demand, false).unwrap();
        assert!(ev.unused_prefetch);
        assert_eq!(ev.prefetch_source, 0);
        assert_eq!(c.stats().useless_prefetches, 1);
    }

    #[test]
    fn dirty_eviction_is_writeback() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Demand, true);
        c.fill(line(2), FillKind::Demand, false);
        c.probe(line(2));
        let ev = c.fill(line(4), FillKind::Demand, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn mark_dirty_on_store_hit() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Demand, false);
        c.mark_dirty(line(0));
        c.fill(line(2), FillKind::Demand, false);
        c.probe(line(2));
        let ev = c.fill(line(4), FillKind::Demand, false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn refill_resident_line_does_not_evict() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Demand, false);
        c.fill(line(2), FillKind::Demand, false);
        assert!(c
            .fill(line(0), FillKind::Prefetch { source: 0 }, false)
            .is_none());
        assert!(c.contains(line(0)) && c.contains(line(2)));
    }

    #[test]
    fn set_mapping_uses_low_line_bits() {
        let c = tiny();
        assert_eq!(c.set_of(line(0)), 0);
        assert_eq!(c.set_of(line(1)), 1);
        assert_eq!(c.set_of(line(2)), 0);
        assert_eq!(c.set_of(line(1025)), 1);
    }

    #[test]
    fn contains_does_not_touch_lru_or_stats() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Demand, false);
        let before = c.stats();
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(2)));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.probe(line(0));
        c.fill(line(0), FillKind::Demand, false);
        c.probe(line(0));
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
