//! Signature Path Prefetcher (Kim, Pugsley, Gratz, Reddy, Wilkerson,
//! Chishti — MICRO 2016).
//!
//! SPP compresses the delta history of each page into a 12-bit *signature*
//! (Signature Table, indexed by **physical page number** — the structure
//! Pref-PSA-2MB re-indexes), predicts the next deltas from a signature-
//! indexed Pattern Table, and walks the predicted path speculatively,
//! multiplying per-step confidences. High-confidence prefetches fill the
//! L2C, lower-confidence ones the LLC; a global-accuracy factor throttles
//! speculation. A small Global History Register carries signatures across
//! page boundaries so a new page can inherit the stream's pattern.
//!
//! The indexing grain is a constructor parameter: with
//! [`IndexGrain::Page2M`] this *is* SPP-PSA-2MB's underlying prefetcher —
//! the Signature Table keys on 2MB page numbers and deltas range ±32768
//! (§III-C of the PSA paper).

use psa_common::geometry::xor_fold;
use psa_common::{CodecError, Dec, Enc, PLine, Persist, SatCounter, VAddr};
use psa_core::{AccessContext, Candidate, FillLevel, IndexGrain, Prefetcher};

/// SPP structure sizes and thresholds, following the MICRO 2016 paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SppConfig {
    /// Signature Table sets (×ways = 256 entries).
    pub st_sets: usize,
    /// Signature Table ways.
    pub st_ways: usize,
    /// Pattern Table entries (512).
    pub pt_entries: usize,
    /// Signature width in bits (12).
    pub sig_bits: u32,
    /// Delta slots per Pattern Table entry (4).
    pub deltas_per_entry: usize,
    /// Confidence-counter width (4-bit).
    pub counter_bits: u32,
    /// Maximum lookahead depth (confidence-bounded in the original
    /// hardware; 24 here).
    pub max_depth: usize,
    /// Path-confidence threshold to issue a prefetch (0.25).
    pub conf_prefetch: f64,
    /// Path-confidence threshold to fill into L2C rather than LLC (0.90).
    pub conf_l2: f64,
    /// Global History Register entries (8).
    pub ghr_entries: usize,
    /// Floor below which even suggestions (for PPF) stop (0.03).
    pub suggest_floor: f64,
}

impl Default for SppConfig {
    fn default() -> Self {
        Self {
            st_sets: 64,
            st_ways: 4,
            pt_entries: 512,
            sig_bits: 12,
            deltas_per_entry: 4,
            counter_bits: 4,
            max_depth: 24,
            conf_prefetch: 0.25,
            conf_l2: 0.90,
            ghr_entries: 8,
            suggest_floor: 0.03,
        }
    }
}

/// One speculative step of the signature path — consumed directly by SPP
/// and, with its metadata, by PPF's perceptron features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SppSuggestion {
    /// Absolute candidate line (may cross the page; legality is the
    /// module's job).
    pub line: PLine,
    /// Path confidence in `(0, 1]`.
    pub confidence: f64,
    /// Lookahead depth (1 = first step).
    pub depth: u8,
    /// The predicted delta that produced this step.
    pub delta: i64,
    /// Signature at this step.
    pub sig: u16,
    /// In-page offset of the candidate at the indexing grain.
    pub offset: i64,
}

#[derive(Debug, Clone, Copy, Default)]
struct StEntry {
    tag: u64,
    last_offset: i64,
    sig: u16,
    valid: bool,
    lru: u64,
}

psa_common::persist_struct!(StEntry {
    tag,
    last_offset,
    sig,
    valid,
    lru,
});

#[derive(Debug, Clone, Copy, Default)]
struct GhrEntry {
    sig: u16,
    _confidence: f64,
    /// Page (at the indexing grain) whose lookahead ran off the edge.
    page: u64,
    last_offset: i64,
    delta: i64,
    valid: bool,
}

psa_common::persist_struct!(GhrEntry {
    sig,
    _confidence,
    page,
    last_offset,
    delta,
    valid,
});

/// The Signature Path Prefetcher.
#[derive(Debug)]
pub struct Spp {
    config: SppConfig,
    grain: IndexGrain,
    st: Vec<StEntry>,
    /// Pattern table in structure-of-arrays form: entry `i`'s signature
    /// counter is `pt_c_sig[i]` and its delta slots are the contiguous
    /// window `pt_deltas[i*cap .. i*cap + pt_len[i]]` (`cap` =
    /// `deltas_per_entry`). Every lookahead depth of every access reads
    /// one entry, so the slots live inline in one flat allocation instead
    /// of behind a per-entry heap vector.
    pt_c_sig: Vec<SatCounter>,
    pt_len: Vec<u8>,
    pt_deltas: Vec<(i64, SatCounter)>,
    ghr: Vec<GhrEntry>,
    ghr_next: usize,
    stamp: u64,
    /// Global accuracy throttle: issued & useful prefetch counters.
    issued: u32,
    useful: u32,
    /// Accesses since the throttle counters were last aged. Periodic aging
    /// lets a throttled prefetcher probe again after a phase change
    /// instead of staying off forever.
    throttle_age: u32,
    suggestions: Vec<SppSuggestion>,
}

impl Spp {
    /// Build SPP with its page-indexed structures at `grain`.
    pub fn new(config: SppConfig, grain: IndexGrain) -> Self {
        assert!(
            (1..=usize::from(u8::MAX)).contains(&config.deltas_per_entry),
            "deltas_per_entry must fit the flat pattern table's u8 slot counts"
        );
        let pt_c_sig = vec![SatCounter::new(config.counter_bits); config.pt_entries];
        let pt_len = vec![0u8; config.pt_entries];
        let pt_deltas = vec![
            (0i64, SatCounter::new(config.counter_bits));
            config.pt_entries * config.deltas_per_entry
        ];
        Self {
            config,
            grain,
            st: vec![
                StEntry {
                    tag: 0,
                    last_offset: 0,
                    sig: 0,
                    valid: false,
                    lru: 0
                };
                config.st_sets * config.st_ways
            ],
            pt_c_sig,
            pt_len,
            pt_deltas,
            ghr: vec![
                GhrEntry {
                    sig: 0,
                    _confidence: 0.0,
                    page: 0,
                    last_offset: 0,
                    delta: 0,
                    valid: false
                };
                config.ghr_entries
            ],
            ghr_next: 0,
            stamp: 0,
            issued: 0,
            useful: 0,
            throttle_age: 0,
            suggestions: Vec::with_capacity(16),
        }
    }

    /// The indexing grain in force.
    pub fn grain(&self) -> IndexGrain {
        self.grain
    }

    fn sig_mask(&self) -> u16 {
        ((1u32 << self.config.sig_bits) - 1) as u16
    }

    /// Compress a signed delta into the 7-bit field the signature shifts
    /// in: sign bit + 6 magnitude bits (magnitudes above 63 — possible at
    /// the 2MB grain — are XOR-folded down).
    fn delta_code(delta: i64) -> u16 {
        let sign = u16::from(delta < 0) << 6;
        let mag = xor_fold(delta.unsigned_abs(), 6) as u16;
        sign | mag
    }

    fn next_sig(&self, sig: u16, delta: i64) -> u16 {
        ((sig << 3) ^ Self::delta_code(delta)) & self.sig_mask()
    }

    fn pt_index(&self, sig: u16) -> usize {
        // The fold already confines the index to `trailing_zeros(len)`
        // bits, and 2^trailing_zeros(len) divides (hence never exceeds)
        // `len` — so no reduction step is needed. This runs once per
        // lookahead depth on every access; a `% len` here is a hardware
        // divide on the hot path.
        let idx = xor_fold(u64::from(sig), self.config.pt_entries.trailing_zeros()) as usize;
        debug_assert!(idx < self.pt_c_sig.len());
        idx
    }

    /// Current global-accuracy scaling factor ∈ [0.1, 1.0]; inaccurate
    /// phases throttle path confidence hard, as SPP's global accuracy
    /// counters do.
    fn alpha(&self) -> f64 {
        if self.issued < 16 {
            // Cold start / post-throttle probing: speculate cautiously
            // until real accuracy feedback accumulates.
            0.5
        } else {
            (f64::from(self.useful) / f64::from(self.issued)).clamp(0.1, 1.0)
        }
    }

    fn train_pt(&mut self, sig: u16, delta: i64) {
        let idx = self.pt_index(sig);
        let cap = self.config.deltas_per_entry;
        self.pt_c_sig[idx].inc();
        let len = usize::from(self.pt_len[idx]);
        let slots = &mut self.pt_deltas[idx * cap..idx * cap + len];
        if let Some((_, c)) = slots.iter_mut().find(|(d, _)| *d == delta) {
            c.inc();
            return;
        }
        let mut c = SatCounter::new(self.config.counter_bits);
        c.inc();
        if len < cap {
            self.pt_deltas[idx * cap + len] = (delta, c);
            self.pt_len[idx] += 1;
            return;
        }
        // Replace the weakest delta slot.
        let weakest = slots
            .iter_mut()
            .min_by_key(|(_, c)| c.value())
            .expect("non-empty slots");
        *weakest = (delta, c);
    }

    /// Observe an access: update ST/PT and regenerate the suggestion list
    /// (the signature-path walk). Returns the suggestions for this access.
    ///
    /// This is the entry point PPF reuses with its own filtering.
    pub fn suggest(&mut self, ctx: &AccessContext) -> &[SppSuggestion] {
        self.throttle_age += 1;
        if self.throttle_age >= 4096 {
            self.throttle_age = 0;
            self.issued /= 2;
            self.useful /= 2;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let page = self.grain.page_of(ctx.line);
        let offset = self.grain.offset_of(ctx.line) as i64;

        // --- Signature Table lookup / update ---
        let mut bootstrap = false;
        let mut cold_no_history = false;
        let set = (page as usize) & (self.config.st_sets - 1);
        let ways = self.config.st_ways;
        let range = set * ways..(set + 1) * ways;
        let slot = self.st[range.clone()]
            .iter()
            .position(|e| e.valid && e.tag == page);
        let current_sig = match slot {
            Some(w) => {
                let idx = set * ways + w;
                let (old_sig, last_offset) = (self.st[idx].sig, self.st[idx].last_offset);
                let delta = offset - last_offset;
                if delta == 0 {
                    self.st[idx].lru = stamp;
                    old_sig
                } else {
                    self.train_pt(old_sig, delta);
                    let new_sig = self.next_sig(old_sig, delta);
                    let e = &mut self.st[idx];
                    e.sig = new_sig;
                    e.last_offset = offset;
                    e.lru = stamp;
                    new_sig
                }
            }
            None => {
                // New page: try to inherit the stream's signature from the
                // GHR (a lookahead recently ran off the end of a page whose
                // continuation would land at exactly this offset).
                let lines = self.grain.lines_per_page() as i64;
                // Match requires both the predicted continuation offset and
                // page adjacency, so one stream's crossing never bootstraps
                // an unrelated page (the physically-next page is the right
                // continuation target inside a huge page; across true 4KB
                // pages adjacency is not guaranteed anyway, so the match
                // being conservative there costs nothing).
                let inherited = self
                    .ghr
                    .iter()
                    .find(|g| {
                        g.valid && g.page + 1 == page && (g.last_offset + g.delta) - lines == offset
                    })
                    .map(|g| self.next_sig(g.sig, g.delta));
                bootstrap = inherited.is_some();
                cold_no_history = inherited.is_none();
                let sig = inherited.unwrap_or(0);
                let victim = self.st[range]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
                    .map(|(w, _)| w)
                    .expect("non-empty set");
                self.st[set * ways + victim] = StEntry {
                    tag: page,
                    last_offset: offset,
                    sig,
                    valid: true,
                    lru: stamp,
                };
                sig
            }
        };

        // --- Signature-path lookahead ---
        self.suggestions.clear();
        // First touch of a page with no GHR-matched stream behind it: the
        // zero signature's pattern-table entry aggregates *every* page's
        // first delta (dominated by whichever streams run concurrently),
        // so issuing from it sprays stream deltas onto unrelated pages.
        // Only GHR-matched pages may prefetch before their first delta.
        if cold_no_history {
            return &self.suggestions;
        }
        let mut sig = current_sig;
        let mut path_offset = offset;
        // A GHR-inherited signature is a cross-page guess, not an observed
        // pattern: bootstrap prefetching starts at reduced confidence so a
        // wrong inheritance (the next page has a different pattern) costs
        // a couple of blocks, not a full lookahead walk.
        let mut confidence = if bootstrap { 0.5 } else { 1.0 };
        let alpha = self.alpha();
        let lines = self.grain.lines_per_page() as i64;
        let cap = self.config.deltas_per_entry;
        for depth in 1..=self.config.max_depth {
            let idx = self.pt_index(sig);
            let entry_c_sig = self.pt_c_sig[idx];
            let slots = &self.pt_deltas[idx * cap..idx * cap + usize::from(self.pt_len[idx])];
            // A signature trained fewer than twice has no reliable ratio —
            // a single observation always looks 100% confident.
            if entry_c_sig.value() < 2 || slots.is_empty() {
                break;
            }
            let c_sig = f64::from(entry_c_sig.value());
            // At the first step, emit every delta whose confidence clears
            // the floor (pattern-table entries can legitimately hold a
            // branchy pattern); deeper steps emit only along the strongest
            // path. Spraying every delta at every depth would leak one
            // stream's delta into another stream's path whenever two
            // signature paths alias in the pattern table.
            let (best_delta, best_conf) = if depth == 1 {
                let mut best = (0i64, -1.0f64);
                for &(delta, c) in slots {
                    let conf = confidence * alpha * (f64::from(c.value()) / c_sig).min(1.0);
                    if conf > best.1 {
                        best = (delta, conf);
                    }
                    if conf >= self.config.suggest_floor {
                        let cand_offset = path_offset + delta;
                        if let Some(line) = self.grain.line_at(page, cand_offset) {
                            self.suggestions.push(SppSuggestion {
                                line,
                                confidence: conf,
                                depth: depth as u8,
                                delta,
                                sig,
                                offset: cand_offset,
                            });
                        }
                    }
                }
                best
            } else {
                // Deeper steps only need the winning delta, and
                // `confidence * alpha * min(c/c_sig, 1)` is monotone in the
                // integer `min(c, c_sig)` (the multiplier is strictly
                // positive and adjacent quotients differ by ≥ 1/c_sig, far
                // above f64 rounding), so the argmax can run on raw counter
                // values — one division per depth instead of one per delta.
                // Strict `>` keeps the first maximal entry, exactly like the
                // float comparison it replaces.
                let c_sig_val = entry_c_sig.value();
                let mut best_i = 0usize;
                let mut best_key = -1i64;
                for (i, &(_, c)) in slots.iter().enumerate() {
                    let key = i64::from(c.value().min(c_sig_val));
                    if key > best_key {
                        best_key = key;
                        best_i = i;
                    }
                }
                let (delta, c) = slots[best_i];
                let conf = confidence * alpha * (f64::from(c.value()) / c_sig).min(1.0);
                (delta, conf)
            };
            if depth > 1 && best_conf >= self.config.suggest_floor {
                let cand_offset = path_offset + best_delta;
                if let Some(line) = self.grain.line_at(page, cand_offset) {
                    self.suggestions.push(SppSuggestion {
                        line,
                        confidence: best_conf,
                        depth: depth as u8,
                        delta: best_delta,
                        sig,
                        offset: cand_offset,
                    });
                }
            }
            if best_conf < self.config.suggest_floor {
                break;
            }
            path_offset += best_delta;
            sig = self.next_sig(sig, best_delta);
            confidence = best_conf;
            // Path ran off the page: record the *first* crossing in the
            // GHR so the next page can inherit the stream, and keep
            // walking (the PSA module decides whether the out-of-page
            // candidates are legal).
            let prev_offset = path_offset - best_delta;
            if (path_offset < 0 || path_offset >= lines) && (0..lines).contains(&prev_offset) {
                let g = GhrEntry {
                    sig,
                    _confidence: confidence,
                    page,
                    last_offset: prev_offset,
                    delta: best_delta,
                    valid: true,
                };
                self.ghr[self.ghr_next] = g;
                self.ghr_next = (self.ghr_next + 1) % self.ghr.len();
            }
        }
        &self.suggestions
    }
}

impl Prefetcher for Spp {
    fn name(&self) -> &'static str {
        "SPP"
    }

    fn on_access(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
        let conf_prefetch = self.config.conf_prefetch;
        let conf_l2 = self.config.conf_l2;
        let suggestions = self.suggest(ctx);
        out.extend(
            suggestions
                .iter()
                .filter(|s| s.confidence >= conf_prefetch)
                .map(|s| Candidate {
                    line: s.line,
                    fill_level: if s.confidence >= conf_l2 {
                        FillLevel::L2C
                    } else {
                        FillLevel::Llc
                    },
                }),
        );
    }

    fn on_issue(&mut self, _line: PLine) {
        self.issued = self.issued.saturating_add(1);
        if self.issued == u32::MAX {
            self.issued /= 2;
            self.useful /= 2;
        }
    }

    fn on_useful(&mut self, _line: PLine, _pc: VAddr) {
        self.useful = self.useful.saturating_add(1);
    }

    fn storage_bytes(&self) -> usize {
        // ST: tag(16b)+offset+sig ≈ 6B/entry; PT: 4 deltas × (7b+4b) + 4b
        // ≈ 6B/entry; GHR negligible.
        self.st.len() * 6 + self.pt_c_sig.len() * 6
    }

    // `suggestions` is rebuilt from scratch on every access and never read
    // across accesses, so it stays out of the checkpoint.
    fn save_state(&self, e: &mut Enc) {
        self.st.save(e);
        self.pt_c_sig.save(e);
        self.pt_len.save(e);
        self.pt_deltas.save(e);
        self.ghr.save(e);
        self.ghr_next.save(e);
        self.stamp.save(e);
        self.issued.save(e);
        self.useful.save(e);
        self.throttle_age.save(e);
    }

    fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.st.load(d)?;
        self.pt_c_sig.load(d)?;
        self.pt_len.load(d)?;
        self.pt_deltas.load(d)?;
        self.ghr.load(d)?;
        self.ghr_next.load(d)?;
        let c = &self.config;
        if self.st.len() != c.st_sets * c.st_ways
            || self.pt_c_sig.len() != c.pt_entries
            || self.pt_len.len() != c.pt_entries
            || self.pt_deltas.len() != c.pt_entries * c.deltas_per_entry
            || self.ghr.len() != c.ghr_entries
            || self.ghr_next >= c.ghr_entries
        {
            return Err(CodecError::Corrupt(
                "SPP table shapes do not match the configuration",
            ));
        }
        if self
            .pt_len
            .iter()
            .any(|&len| usize::from(len) > c.deltas_per_entry)
        {
            return Err(CodecError::Corrupt(
                "pattern-table entry overflows its slots",
            ));
        }
        self.stamp.load(d)?;
        self.issued.load(d)?;
        self.useful.load(d)?;
        self.throttle_age.load(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_common::PageSize;

    fn ctx(line: u64) -> AccessContext {
        AccessContext {
            line: PLine::new(line),
            pc: VAddr::new(0x400),
            cache_hit: false,
            page_size: PageSize::Size2M,
        }
    }

    fn train_stride(spp: &mut Spp, page_base: u64, stride: u64, count: u64) {
        let mut out = Vec::new();
        for i in 0..count {
            out.clear();
            spp.on_access(&ctx(page_base + i * stride), &mut out);
        }
    }

    #[test]
    fn learns_unit_stride_and_prefetches_ahead() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        train_stride(&mut spp, 0, 1, 12);
        let mut out = Vec::new();
        spp.on_access(&ctx(12), &mut out);
        assert!(!out.is_empty(), "a trained stream must prefetch");
        assert!(
            out.iter().any(|c| c.line == PLine::new(13)),
            "next line predicted"
        );
        // Lookahead goes deeper than one step on a saturated pattern.
        assert!(out.iter().any(|c| c.line.raw() > 13), "lookahead depth > 1");
    }

    #[test]
    fn learns_negative_stride() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        let mut out = Vec::new();
        for i in 0..12u64 {
            out.clear();
            spp.on_access(&ctx(60 - i), &mut out);
        }
        out.clear();
        spp.on_access(&ctx(48), &mut out);
        assert!(out.iter().any(|c| c.line == PLine::new(47)));
    }

    #[test]
    fn confidence_grades_fill_level() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        train_stride(&mut spp, 0, 1, 20);
        // Simulate a perfectly accurate history so the global-accuracy
        // factor rises to 1 (in the real system this feedback comes from
        // the cache's useful-prefetch accounting).
        for i in 0..64 {
            spp.on_issue(PLine::new(i));
            spp.on_useful(PLine::new(i), VAddr::new(0));
        }
        let mut out = Vec::new();
        spp.on_access(&ctx(20), &mut out);
        // First step of a saturated path: L2C; deep steps decay toward LLC.
        let first = out
            .iter()
            .find(|c| c.line == PLine::new(21))
            .expect("step 1");
        assert_eq!(first.fill_level, FillLevel::L2C);
    }

    #[test]
    fn suggestions_cross_page_boundary_for_module_to_judge() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        // Train at the end of a 4KB page (lines 52..63), stream continues.
        train_stride(&mut spp, 52, 1, 11);
        let s = spp.suggest(&ctx(63)).to_vec();
        assert!(
            s.iter().any(|c| c.line.raw() >= 64),
            "lookahead must emit candidates beyond the 4KB page: {s:?}"
        );
    }

    #[test]
    fn ghr_carries_stream_into_next_page() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        train_stride(&mut spp, 40, 1, 24); // runs through line 63
                                           // First touch of the next page at offset 0 (line 64): inherited
                                           // signature should immediately predict the continuation.
        let s = spp.suggest(&ctx(64)).to_vec();
        assert!(
            s.iter().any(|c| c.line == PLine::new(65)),
            "inherited signature should predict the stream: {s:?}"
        );
    }

    #[test]
    fn grain_2m_learns_strides_beyond_64_lines() {
        // A 100-line stride is invisible at the 4KB grain (|delta| > 64
        // lands in another 4KB page, so consecutive accesses to the same
        // 4KB page never occur) but trivial at the 2MB grain — the milc
        // behaviour from §III-C.
        let mut fine = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        let mut coarse = Spp::new(SppConfig::default(), IndexGrain::Page2M);
        train_stride(&mut fine, 0, 100, 20);
        train_stride(&mut coarse, 0, 100, 20);
        let mut out_fine = Vec::new();
        let mut out_coarse = Vec::new();
        fine.on_access(&ctx(2000), &mut out_fine);
        coarse.on_access(&ctx(2000), &mut out_coarse);
        assert!(
            out_coarse.iter().any(|c| c.line == PLine::new(2100)),
            "coarse sees the stride"
        );
        assert!(
            !out_fine.iter().any(|c| c.line == PLine::new(2100)),
            "fine grain cannot represent a 100-line delta"
        );
    }

    #[test]
    fn grain_2m_aliases_subpage_patterns() {
        // Two different 4KB sub-pages of one 2MB page with opposite strides
        // pollute each other at the 2MB grain — why PSA-2MB hurts some
        // workloads (tc.road in §VI-B1).
        let mut coarse = Spp::new(SppConfig::default(), IndexGrain::Page2M);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            coarse.on_access(&ctx(i), &mut out); // +1 stride in sub-page 0
            out.clear();
            coarse.on_access(&ctx(200 - i), &mut out); // −1 stride in sub-page 3
        }
        // The signatures interleave: the PT sees alternating huge deltas,
        // so neither clean stride reaches high confidence quickly.
        out.clear();
        coarse.on_access(&ctx(8), &mut out);
        let clean_next = out.iter().any(|c| c.line == PLine::new(9));
        // (This documents the aliasing; the fine grain keeps them apart.)
        let mut fine = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        for i in 0..8u64 {
            out.clear();
            fine.on_access(&ctx(i), &mut out);
            out.clear();
            fine.on_access(&ctx(200 - i), &mut out);
        }
        out.clear();
        fine.on_access(&ctx(8), &mut out);
        let fine_next = out.iter().any(|c| c.line == PLine::new(9));
        assert!(
            fine_next,
            "fine grain learns the +1 stride despite interleaving"
        );
        let _ = clean_next; // coarse may or may not recover; fine must.
    }

    #[test]
    fn alpha_throttles_after_useless_prefetches() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        for i in 0..200 {
            spp.on_issue(PLine::new(i));
        }
        assert!(
            (spp.alpha() - 0.1).abs() < 1e-12,
            "all-useless history → floor"
        );
        for i in 0..200 {
            spp.on_useful(PLine::new(i), VAddr::new(0));
        }
        assert!((spp.alpha() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn state_loads_only_into_the_same_shape() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        train_stride(&mut spp, 0, 2, 30);
        let mut e = Enc::new();
        spp.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut same = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        same.load_state(&mut Dec::new(&bytes)).expect("clean load");
        let mut e2 = Enc::new();
        same.save_state(&mut e2);
        assert_eq!(bytes, e2.into_bytes(), "save→load→save is a fixpoint");

        let mut doubled = crate::PrefetcherKind::Spp.build_scaled(IndexGrain::Page4K, 2);
        assert!(doubled.load_state(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn storage_is_kilobytes_not_megabytes() {
        let spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        let kb = spp.storage_bytes() / 1024;
        assert!((1..=16).contains(&kb), "SPP budget ≈ few KB, got {kb}KB");
    }

    #[test]
    fn untrained_prefetcher_stays_quiet() {
        let mut spp = Spp::new(SppConfig::default(), IndexGrain::Page4K);
        let mut out = Vec::new();
        spp.on_access(&ctx(1000), &mut out);
        assert!(out.is_empty(), "no pattern, no prefetch");
    }

    #[test]
    fn delta_code_distinguishes_sign() {
        assert_ne!(Spp::delta_code(5), Spp::delta_code(-5));
        assert_eq!(Spp::delta_code(5), Spp::delta_code(5));
    }
}
