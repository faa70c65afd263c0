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

    /// Whether `line`, and so every line below it, fits this shape's
    /// 32-bit set-relative tags (`line >> log2(sets)`, with `u32::MAX`
    /// reserved for an empty way). For the 64-set L1D the lines of just
    /// under 16 TiB of physical memory fit.
    pub fn can_tag(&self, line: PLine) -> bool {
        line.raw() >> self.sets().max(1).ilog2() < u64::from(EMPTY)
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

/// Per-way status bits, packed into one byte of the `flags` plane. An
/// empty way's status byte is 0.
const F_DIRTY: u8 = 1 << 0;
const F_PREFETCHED: u8 = 1 << 1;
const F_USED: u8 = 1 << 2;

/// Tag-plane marker of an empty way. No resident line's tag reaches it
/// (see [`CacheConfig::can_tag`]), so validity lives in the tags alone.
const EMPTY: u32 = u32::MAX;

/// Most ways an 8-bit LRU rank can order.
const MAX_WAYS: usize = 256;

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
/// A set lookup touches one contiguous run of each plane it needs —
/// finding a line's way scans 8–16 consecutive 4-byte tags and nothing
/// else — and a way costs 7 bytes: a `u32` set-relative tag plus one
/// rank, one status and one source byte.
///
/// Every operation taking a line panics if the line's tag overflows 32
/// bits; `SimConfig::validate` bounds physical memory so that no
/// simulated line does (see [`CacheConfig::can_tag`]).
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `log2(sets)`: a line's tag is `line >> set_bits`, its set the bits
    /// below.
    set_bits: u32,
    /// Tag plane: the resident line's set-relative tag, [`EMPTY`] while
    /// the way is empty.
    tags: Vec<u32>,
    /// Recency plane: the way's LRU rank in its set, 0 = most recently
    /// touched. A set's ranks are a permutation of `0..ways`, and empty
    /// ways rank above every filled way, in way order.
    ranks: Vec<u8>,
    /// Status plane: `F_DIRTY | F_PREFETCHED | F_USED` (0 while empty).
    flags: Vec<u8>,
    /// Pref-PSA-SD source annotation (meaningful while `F_PREFETCHED`, 0
    /// while empty).
    source: Vec<u8>,
    stats: CacheStats,
    /// Prefetched blocks that were resident and not yet judged useful or
    /// useless when [`Cache::reset_stats`] last zeroed the counters. Each
    /// can still earn one verdict, so the audit allows this many verdicts
    /// beyond the window's prefetch fills.
    unjudged_at_reset: u64,
}

psa_common::persist_struct!(CacheStats {
    demand_hits,
    demand_misses,
    prefetch_fills,
    useful_prefetches,
    useless_prefetches,
    writebacks,
});

// `config`, `sets` and `set_bits` are geometry, rebuilt from the
// simulation configuration; only the array contents and counters are
// state. The SoA planes are written as they are held. A plane of any
// other length than the built geometry's was written by a cache of
// another shape, and the next probe would index past the planes. A set
// whose ranks are not a permutation of its ways would leave `fill`
// without a victim, an empty way with status or source bits is a state
// no run reaches, and so is more unjudged prefetches at the last reset
// than the array has ways. All four are rejected.
impl Persist for Cache {
    fn save(&self, e: &mut Enc) {
        self.tags.save(e);
        self.ranks.save(e);
        self.flags.save(e);
        self.source.save(e);
        self.stats.save(e);
        self.unjudged_at_reset.save(e);
    }

    fn load(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.tags.load(d)?;
        self.ranks.load(d)?;
        self.flags.load(d)?;
        self.source.load(d)?;
        let n = self.sets * self.config.ways;
        if [
            self.tags.len(),
            self.ranks.len(),
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
            .any(|&f| f & !(F_DIRTY | F_PREFETCHED | F_USED) != 0)
        {
            return Err(CodecError::Corrupt("cache status flags"));
        }
        for set in 0..self.sets {
            self.check_set(set).map_err(CodecError::Corrupt)?;
        }
        self.stats.load(d)?;
        self.unjudged_at_reset.load(d)?;
        if self.unjudged_at_reset > n as u64 {
            return Err(CodecError::Corrupt(
                "more unjudged prefetches than cache ways",
            ));
        }
        Ok(())
    }
}

impl Cache {
    /// Build a cache of the given shape.
    ///
    /// # Errors
    ///
    /// Fails unless the shape divides into a power-of-two number of sets
    /// of at most 256 ways.
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        if config.ways == 0 || config.bytes == 0 {
            return Err(CacheConfigError(format!(
                "{}: zero ways or bytes",
                config.name
            )));
        }
        if config.ways > MAX_WAYS {
            return Err(CacheConfigError(format!(
                "{}: {} ways exceed the {MAX_WAYS} an 8-bit LRU rank can order",
                config.name, config.ways
            )));
        }
        if !config.bytes.is_multiple_of(LINE_BYTES * config.ways as u64) {
            return Err(CacheConfigError(format!(
                "{}: {} bytes not divisible into {}-way 64B sets",
                config.name, config.bytes, config.ways
            )));
        }
        let sets = config.sets();
        let set_bits =
            checked_log2(config.name, sets).map_err(|e| CacheConfigError(e.to_string()))?;
        let ways = config.ways;
        let n = sets as usize * ways;
        Ok(Self {
            config,
            sets: sets as usize,
            set_bits,
            tags: vec![EMPTY; n],
            ranks: (0..n).map(|i| (ways - 1 - i % ways) as u8).collect(),
            flags: vec![0; n],
            source: vec![0; n],
            stats: CacheStats::default(),
            unjudged_at_reset: 0,
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

    /// `line`'s set-relative tag.
    #[inline]
    fn tag_of(&self, line: PLine) -> u32 {
        let tag = line.raw() >> self.set_bits;
        assert!(
            tag < u64::from(EMPTY),
            "{}: line {line} overflows the 32-bit tags",
            self.config.name
        );
        tag as u32
    }

    /// The line held by a way of `set` tagged `tag`.
    #[inline]
    fn line_at(&self, set: usize, tag: u32) -> PLine {
        PLine::new((u64::from(tag) << self.set_bits) | set as u64)
    }

    /// The way holding the line tagged `tag` within the set starting at
    /// `base`, if any.
    ///
    /// One pass over the set's contiguous tags and nothing else: an empty
    /// way's tag is [`EMPTY`], which no line's tag equals.
    #[inline]
    fn find_way(&self, base: usize, tag: u32) -> Option<usize> {
        self.tags[base..base + self.config.ways]
            .iter()
            .position(|&t| t == tag)
    }

    /// Make way `w` of the set starting at `base` the most recently used:
    /// every way ranked below it ages by one and it takes rank 0.
    #[inline]
    fn touch(&mut self, base: usize, w: usize) {
        let ranks = &mut self.ranks[base..base + self.config.ways];
        let r = ranks[w];
        for x in ranks.iter_mut() {
            *x += u8::from(*x < r);
        }
        ranks[w] = 0;
    }

    /// Demand lookup. Hits update LRU and prefetch-usefulness state.
    pub fn probe(&mut self, line: PLine) -> Option<HitInfo> {
        let base = self.set_base(line);
        let Some(w) = self.find_way(base, self.tag_of(line)) else {
            self.stats.demand_misses += 1;
            return None;
        };
        self.touch(base, w);
        let i = base + w;
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

    /// Non-destructive presence check (no LRU or stats update) — used by
    /// prefetch filtering.
    pub fn contains(&self, line: PLine) -> bool {
        self.find_way(self.set_base(line), self.tag_of(line))
            .is_some()
    }

    /// Mark a resident line dirty (store hit). No-op if absent.
    pub fn mark_dirty(&mut self, line: PLine) {
        let base = self.set_base(line);
        if let Some(w) = self.find_way(base, self.tag_of(line)) {
            self.flags[base + w] |= F_DIRTY;
        }
    }

    /// Install `line`, evicting the LRU block if the set is full.
    ///
    /// Re-filling a resident line refreshes it in place (this happens when
    /// a prefetch and a demand race through different paths).
    pub fn fill(&mut self, line: PLine, kind: FillKind, dirty: bool) -> Option<Evicted> {
        if let FillKind::Prefetch { .. } = kind {
            self.stats.prefetch_fills += 1;
        }
        let set = self.set_of(line);
        let ways = self.config.ways;
        let base = set * ways;
        let tag = self.tag_of(line);
        let dirty_bit = if dirty { F_DIRTY } else { 0 };
        if let Some(w) = self.find_way(base, tag) {
            self.flags[base + w] |= dirty_bit;
            self.touch(base, w);
            return None;
        }
        // The victim is the way ranked oldest: the first empty way while
        // the set has one, else the least recently touched block.
        let oldest = (ways - 1) as u8;
        let victim = self.ranks[base..base + ways]
            .iter()
            .position(|&r| r == oldest)
            .expect("a set's ranks are a permutation of 0..ways");
        let i = base + victim;
        let evicted = (self.tags[i] != EMPTY).then(|| {
            let f = self.flags[i];
            Evicted {
                line: self.line_at(set, self.tags[i]),
                dirty: f & F_DIRTY != 0,
                unused_prefetch: f & F_PREFETCHED != 0 && f & F_USED == 0,
                prefetch_source: self.source[i],
            }
        });
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
        self.tags[i] = tag;
        self.flags[i] = dirty_bit | if prefetched { F_PREFETCHED } else { 0 };
        self.source[i] = source;
        self.touch(base, victim);
        evicted
    }

    /// Statistics accumulated since the last [`Cache::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the statistics (the start of a measured window), noting how
    /// many resident prefetched blocks are still unjudged: their verdicts
    /// fall in the new window, their fills did not.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.unjudged_at_reset = self
            .flags
            .iter()
            .filter(|&&f| f & (F_PREFETCHED | F_USED) == F_PREFETCHED)
            .count() as u64;
    }

    /// Every valid block, for invariant audits. Read-only: touches neither
    /// LRU state nor statistics.
    pub fn valid_blocks(&self) -> impl Iterator<Item = BlockView> + '_ {
        let ways = self.config.ways;
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &tag)| tag != EMPTY)
            .map(move |(i, &tag)| {
                let f = self.flags[i];
                BlockView {
                    line: self.line_at(i / ways, tag),
                    set: i / ways,
                    prefetched: f & F_PREFETCHED != 0,
                    source: self.source[i],
                    used: f & F_USED != 0,
                }
            })
    }

    /// The per-set encoding every reachable state keeps: the ranks are a
    /// permutation of `0..ways`, and an empty way carries no status or
    /// source. `load` rejects a set that breaks it and `audit` reports
    /// one.
    fn check_set(&self, set: usize) -> Result<(), &'static str> {
        let ways = self.config.ways;
        let planes = set * ways..(set + 1) * ways;
        let mut seen = [0u64; MAX_WAYS / 64];
        for &r in &self.ranks[planes.clone()] {
            let (word, bit) = (usize::from(r) / 64, 1u64 << (r % 64));
            if usize::from(r) >= ways || seen[word] & bit != 0 {
                return Err("cache LRU ranks are not a permutation of the ways");
            }
            seen[word] |= bit;
        }
        if planes
            .into_iter()
            .any(|i| self.tags[i] == EMPTY && (self.flags[i] | self.source[i]) != 0)
        {
            return Err("empty cache way with status or source bits");
        }
        Ok(())
    }

    /// Audit the array's internal invariants (the `PSA_CHECK=1` checker):
    /// every set keeps the rank and empty-way encoding, no line is
    /// resident twice within a set, and prefetch accounting is consistent
    /// (a prefetched block becomes useful or useless at most once, so
    /// `useful + useless ≤ prefetch_fills` plus the blocks still unjudged
    /// at the last [`Cache::reset_stats`]).
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable description of the violated
    /// invariant.
    pub fn audit(&self) -> Result<(), String> {
        let ways = self.config.ways;
        for set in 0..self.sets {
            self.check_set(set)
                .map_err(|what| format!("{}: set {set}: {what}", self.config.name))?;
            let tags = &self.tags[set * ways..(set + 1) * ways];
            for (i, &tag) in tags.iter().enumerate() {
                if tag != EMPTY && tags[..i].contains(&tag) {
                    return Err(format!(
                        "{}: line {} resident twice in set {}",
                        self.config.name,
                        self.line_at(set, tag),
                        set
                    ));
                }
            }
        }
        let s = &self.stats;
        if s.useful_prefetches + s.useless_prefetches > s.prefetch_fills + self.unjudged_at_reset {
            return Err(format!(
                "{}: {} useful + {} useless prefetches exceed {} prefetch fills \
                 + {} unjudged at the last reset",
                self.config.name,
                s.useful_prefetches,
                s.useless_prefetches,
                s.prefetch_fills,
                self.unjudged_at_reset
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

        // A status byte with a bit outside the three flags.
        let bytes = planes([0, 1, 0, 1], [1, 0, 1, 0], [F_USED << 1, 0, 0, 0], [0; 4]);
        assert_eq!(
            tiny().load(&mut Dec::new(&bytes)),
            Err(CodecError::Corrupt("cache status flags"))
        );
    }

    /// The bytes `Cache::save` writes for a `tiny()` cache holding these
    /// planes (lines 0 and 2 map to set 0 with tags 0 and 1).
    fn planes(tags: [u32; 4], ranks: [u8; 4], flags: [u8; 4], source: [u8; 4]) -> Vec<u8> {
        let mut e = Enc::new();
        tags.to_vec().save(&mut e);
        ranks.to_vec().save(&mut e);
        flags.to_vec().save(&mut e);
        source.to_vec().save(&mut e);
        CacheStats::default().save(&mut e);
        0u64.save(&mut e);
        e.into_bytes()
    }

    #[test]
    fn persist_rejects_ranks_that_are_not_a_permutation() {
        let sound = planes([0, 1, EMPTY, EMPTY], [1, 0, 1, 0], [0; 4], [0; 4]);
        let mut c = tiny();
        c.load(&mut Dec::new(&sound)).unwrap();
        assert!(c.contains(line(0)) && c.contains(line(2)));
        // A repeated rank, then a rank outside `0..ways`.
        for ranks in [[0, 0, 1, 0], [1, 0, 2, 0]] {
            let bytes = planes([0, 1, EMPTY, EMPTY], ranks, [0; 4], [0; 4]);
            assert_eq!(
                tiny().load(&mut Dec::new(&bytes)),
                Err(CodecError::Corrupt(
                    "cache LRU ranks are not a permutation of the ways"
                )),
                "{ranks:?}"
            );
        }
    }

    #[test]
    fn persist_rejects_empty_ways_with_status_or_source() {
        for (flags, source) in [([0, 0, F_DIRTY, 0], [0; 4]), ([0; 4], [0, 0, 0, 1])] {
            let bytes = planes([0, 1, EMPTY, EMPTY], [1, 0, 1, 0], flags, source);
            assert_eq!(
                tiny().load(&mut Dec::new(&bytes)),
                Err(CodecError::Corrupt(
                    "empty cache way with status or source bits"
                )),
                "{flags:?} {source:?}"
            );
        }
    }

    #[test]
    fn persist_keeps_the_unjudged_count_within_the_ways() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Prefetch { source: 0 }, false);
        c.reset_stats();
        let mut e = Enc::new();
        c.save(&mut e);
        let mut restored = tiny();
        restored.load(&mut Dec::new(&e.into_bytes())).unwrap();
        assert_eq!(restored.unjudged_at_reset, 1);
        // `tiny()` has four ways: four unjudged blocks load, five cannot.
        let load = |count: u64| {
            let mut bytes = planes([0, 1, EMPTY, EMPTY], [1, 0, 1, 0], [0; 4], [0; 4]);
            let at = bytes.len() - 8;
            bytes[at..].copy_from_slice(&count.to_le_bytes());
            tiny().load(&mut Dec::new(&bytes))
        };
        assert_eq!(load(4), Ok(()));
        assert_eq!(
            load(5),
            Err(CodecError::Corrupt(
                "more unjudged prefetches than cache ways"
            ))
        );
    }

    #[test]
    fn reset_stats_lets_carried_prefetches_be_judged_once() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Prefetch { source: 0 }, false);
        c.fill(line(1), FillKind::Prefetch { source: 0 }, false);
        c.fill(line(2), FillKind::Prefetch { source: 0 }, false);
        c.probe(line(2)); // judged useful before the reset
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        // Both still-unjudged blocks earn their verdicts in the window
        // that no fill of theirs belongs to.
        c.probe(line(0));
        c.fill(line(3), FillKind::Demand, false);
        c.fill(line(5), FillKind::Demand, false);
        let s = c.stats();
        assert_eq!((s.useful_prefetches, s.useless_prefetches), (1, 1));
        assert_eq!(s.prefetch_fills, 0);
        c.audit().expect("carried verdicts are within the bound");
        // One verdict more than the carried blocks can give is a fault.
        c.stats.useless_prefetches += 1;
        let err = c.audit().unwrap_err();
        assert!(err.contains("1 useful + 2 useless"), "{err}");
    }

    #[test]
    fn audit_reports_broken_sets() {
        let filled = || {
            let mut c = tiny();
            c.fill(line(0), FillKind::Demand, false);
            c.audit().expect("a filled cache is consistent");
            c
        };
        let mut c = filled();
        c.ranks[1] = c.ranks[0];
        assert!(c.audit().unwrap_err().contains("set 0: cache LRU ranks"));
        let mut c = filled();
        c.source[3] = 1;
        assert!(c.audit().unwrap_err().contains("set 1: empty cache way"));
        let mut c = filled();
        c.tags[1] = c.tags[0];
        assert!(c.audit().unwrap_err().contains("resident twice in set 0"));
    }

    #[test]
    fn rejects_more_ways_than_a_rank_orders() {
        let one_set = |ways: usize| CacheConfig {
            name: "wide",
            bytes: LINE_BYTES * ways as u64,
            ways,
            latency: 1,
            mshr_entries: 1,
        };
        let err = Cache::new(one_set(257)).unwrap_err();
        assert!(err.to_string().contains("257 ways"), "{err}");
        // 256 ways rank 0..=255: the 257th distinct fill evicts the first.
        let mut c = Cache::new(one_set(256)).unwrap();
        for n in 0..256 {
            assert_eq!(c.fill(line(n), FillKind::Demand, false), None);
        }
        let ev = c.fill(line(256), FillKind::Demand, false).unwrap();
        assert_eq!(ev.line, line(0));
        c.audit().unwrap();
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
