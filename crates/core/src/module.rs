//! The L2C prefetching module: one or two page size aware prefetchers plus
//! PPM, boundary legality and (for Pref-PSA-SD) Set-Dueling selection.
//!
//! This is the composition point of the paper's Figure 7(A): the simulator
//! hands every L2C demand access to [`PsaModule::on_access`] and receives
//! the legal, deduplicated prefetch requests to inject; cache feedback
//! (useful hits, useless evictions, fills) flows back through the
//! `on_*` methods, routed to the issuing prefetcher via the annotation bit.

use psa_common::obs::{Counter, Histogram};
use psa_common::{CodecError, Dec, Enc, PLine, PageSize, Persist, VAddr};

use crate::boundary::{BoundaryChecker, BoundaryPolicy, BoundaryStats, Verdict};
use crate::dueling::{SdConfig, SdConfigError, Selected, SetDueling};
use crate::grain::IndexGrain;
use crate::ppm::{PageSizeSource, Ppm};
use crate::prefetcher::{AccessContext, Candidate, FillLevel, Prefetcher};
use crate::PageSizePolicy;

/// Annotation value for Pref-PSA (the 4KB-indexed competitor).
pub const SOURCE_PSA: u8 = 0;
/// Annotation value for Pref-PSA-2MB (the 2MB-indexed competitor).
pub const SOURCE_PSA_2MB: u8 = 1;

/// A legal prefetch request ready for injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Physical line to prefetch.
    pub line: PLine,
    /// Placement (L2C or LLC), from the prefetcher's confidence.
    pub fill_level: FillLevel,
    /// Issuing prefetcher — stored as the block's annotation bit.
    pub source: u8,
}

/// Module issue-path limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleConfig {
    /// Maximum prefetches injected per access.
    pub max_per_access: usize,
}

impl Default for ModuleConfig {
    fn default() -> Self {
        Self { max_per_access: 4 }
    }
}

/// Issue-path statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// L2C accesses observed.
    pub accesses: u64,
    /// Raw candidates emitted by the (selected) prefetcher.
    pub candidates: u64,
    /// Requests issued after legality, dedup and the per-access cap.
    pub issued: u64,
    /// Requests suppressed as recent duplicates.
    pub deduped: u64,
    /// Issued requests per competitor `[Psa, Psa2m]`.
    pub issued_by: [u64; 2],
    /// Accesses for which each competitor was selected `[Psa, Psa2m]`.
    pub selected_by: [u64; 2],
}

/// Per-competitor observability counters for the issue path and the
/// timeliness of its prefetches. Disabled by default; purely
/// observational and never part of the checkpoint byte stream. Indexed
/// by the competitor an event is credited to: `[Psa, Psa2m]` when the
/// module has both (Pref-PSA-SD), slot 0 alone otherwise — so
/// Pref-PSA-2MB's single 2MB-indexed prefetcher counts in slot 0 even
/// though its requests carry [`SOURCE_PSA_2MB`]. Issue counts are not
/// repeated here: they are [`ModuleStats::issued_by`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleObs {
    /// Candidates emitted per `on_access` call, per competitor —
    /// including the training-only calls of Pref-PSA-SD's unselected
    /// competitor.
    pub candidates_per_access: [Histogram; 2],
    /// Prefetch fills that completed into a cache, per competitor.
    pub fills: [Counter; 2],
    /// Useful prefetches that beat their demand (timely), per competitor.
    pub useful_timely: [Counter; 2],
    /// Useful prefetches the demand merged with in an MSHR (late), per
    /// competitor.
    pub useful_late: [Counter; 2],
    /// Prefetched blocks evicted unused, per competitor.
    pub useless: [Counter; 2],
}

impl ModuleObs {
    fn counters(&mut self) -> [&mut [Counter; 2]; 4] {
        [
            &mut self.fills,
            &mut self.useful_timely,
            &mut self.useful_late,
            &mut self.useless,
        ]
    }

    fn enable(&mut self) {
        for h in &mut self.candidates_per_access {
            *h = Histogram::new(true);
        }
        for group in self.counters() {
            for c in group.iter_mut() {
                *c = Counter::new(true);
            }
        }
    }

    fn reset(&mut self) {
        for h in &mut self.candidates_per_access {
            h.reset();
        }
        for group in self.counters() {
            for c in group.iter_mut() {
                c.reset();
            }
        }
    }

    /// Useful prefetches (timely + late) credited to competitor `slot`.
    pub fn useful(&self, slot: usize) -> u64 {
        self.useful_timely[slot].get() + self.useful_late[slot].get()
    }
}

/// The complete page size aware L2C prefetching module.
pub struct PsaModule {
    policy: PageSizePolicy,
    ppm: Ppm,
    psa: Box<dyn Prefetcher>,
    psa_2mb: Option<Box<dyn Prefetcher>>,
    boundary: BoundaryChecker,
    dueling: Option<SetDueling>,
    config: ModuleConfig,
    scratch: Vec<Candidate>,
    scratch_alt: Vec<Candidate>,
    stats: ModuleStats,
    /// Boxed so its histograms stay out of the bytes moved when the walk
    /// takes the module out of its level on every trigger access.
    obs: Box<ModuleObs>,
}

psa_common::persist_struct!(ModuleStats {
    accesses,
    candidates,
    issued,
    deduped,
    issued_by,
    selected_by,
});

/// Checkpointing: the module's composition (which prefetchers exist, the
/// dueling layout, policies) is configuration and is rebuilt before a load;
/// only training/selection state and counters travel in the byte stream.
/// The scratch buffers are cleared at the start of every access and carry
/// no information across accesses.
impl Persist for PsaModule {
    fn save(&self, e: &mut Enc) {
        self.psa.save_state(e);
        if let Some(b) = &self.psa_2mb {
            b.save_state(e);
        }
        self.boundary.save(e);
        if let Some(duel) = &self.dueling {
            duel.save(e);
        }
        self.stats.save(e);
    }

    fn load(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.psa.load_state(d)?;
        if let Some(b) = &mut self.psa_2mb {
            b.load_state(d)?;
        }
        self.boundary.load(d)?;
        if let Some(duel) = &mut self.dueling {
            duel.load(d)?;
        }
        self.stats.load(d)
    }
}

impl std::fmt::Debug for PsaModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsaModule")
            .field("policy", &self.policy)
            .field("prefetcher", &self.psa.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PsaModule {
    /// Build the module for `policy` around the prefetcher produced by
    /// `factory` (called once per required indexing grain).
    ///
    /// * `source` — how page-size information reaches the module
    ///   ([`PageSizeSource::Ppm`]; forced to `None` for
    ///   [`PageSizePolicy::Original`]).
    /// * `l2c_sets` — number of L2C sets, needed to lay out the dueling
    ///   sample sets.
    ///
    /// # Errors
    ///
    /// Fails if `policy` is `PsaSd` and the dueling shape does not fit the
    /// cache.
    pub fn new(
        policy: PageSizePolicy,
        source: PageSizeSource,
        factory: &dyn Fn(IndexGrain) -> Box<dyn Prefetcher>,
        l2c_sets: usize,
        sd: SdConfig,
        config: ModuleConfig,
    ) -> Result<Self, SdConfigError> {
        let (grain_a, want_b, boundary, source) = match policy {
            PageSizePolicy::Original => (
                IndexGrain::Page4K,
                false,
                BoundaryPolicy::Strict4K,
                PageSizeSource::None,
            ),
            PageSizePolicy::Psa => (IndexGrain::Page4K, false, BoundaryPolicy::PageAware, source),
            PageSizePolicy::Psa2m => (IndexGrain::Page2M, false, BoundaryPolicy::PageAware, source),
            PageSizePolicy::PsaSd => (IndexGrain::Page4K, true, BoundaryPolicy::PageAware, source),
        };
        let psa = factory(grain_a);
        // A prefetcher with no page-indexed structure (BOP) is identical at
        // every indexing grain, so Pref-PSA-SD degenerates to Pref-PSA:
        // §VI-B1 "all BOP versions provide the same speedups".
        let want_b = want_b && psa.uses_page_indexing();
        let dueling = if want_b {
            Some(SetDueling::new(sd, l2c_sets)?)
        } else {
            None
        };
        Ok(Self {
            policy,
            ppm: Ppm::new(source),
            psa,
            psa_2mb: want_b.then(|| factory(IndexGrain::Page2M)),
            boundary: BoundaryChecker::new(boundary),
            dueling,
            config,
            scratch: Vec::with_capacity(32),
            scratch_alt: Vec::with_capacity(32),
            stats: ModuleStats::default(),
            obs: Box::default(),
        })
    }

    /// Switch the module's observability counters on. Off by default;
    /// enabling changes no simulated state.
    pub fn enable_obs(&mut self) {
        self.obs.enable();
    }

    /// The observability counters recorded so far.
    pub fn obs(&self) -> &ModuleObs {
        &self.obs
    }

    /// Start a measured window: zero the issue-path and boundary
    /// counters and the observability hooks. Training and selection state
    /// carry on.
    pub fn reset_window(&mut self) {
        self.stats = ModuleStats::default();
        self.boundary = BoundaryChecker::new(self.boundary.policy());
        self.obs.reset();
    }

    /// Number of competing prefetchers: 2 for a Pref-PSA-SD module over
    /// a page-indexed family, 1 otherwise. [`ModuleObs`] slots below this
    /// count are the ones events can be credited to.
    pub fn competitors(&self) -> usize {
        1 + usize::from(self.psa_2mb.is_some())
    }

    /// The variant this module implements.
    pub fn policy(&self) -> PageSizePolicy {
        self.policy
    }

    /// Underlying prefetcher name.
    pub fn prefetcher_name(&self) -> &'static str {
        self.psa.name()
    }

    /// Observe one L2C demand access and produce prefetch requests.
    ///
    /// * `mshr_bit` — the PPM page-size bit carried by the L1D MSHR entry;
    /// * `oracle_size` — the true page size from the translation metadata
    ///   (used for boundary legality and to audit the PPM bit);
    /// * `set` — the L2C set of the accessed line (for Set Dueling);
    /// * `present` — residency oracle (cache/MSHR probes): candidates that
    ///   are already resident or in flight are skipped *without* consuming
    ///   the per-access issue budget, exactly as a hardware prefetch queue
    ///   drops them before issue.
    #[allow(clippy::too_many_arguments)]
    pub fn on_access(
        &mut self,
        line: PLine,
        pc: VAddr,
        cache_hit: bool,
        mshr_bit: bool,
        oracle_size: PageSize,
        set: usize,
        present: &dyn Fn(&Candidate) -> bool,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.stats.accesses += 1;
        let page_size = self.ppm.resolve(mshr_bit, oracle_size);
        let ctx = AccessContext {
            line,
            pc,
            cache_hit,
            page_size,
        };

        self.scratch.clear();
        self.scratch_alt.clear();
        let bursts = &mut self.obs.candidates_per_access;
        let source_id = match (&mut self.dueling, &mut self.psa_2mb) {
            (Some(duel), Some(psa_2mb)) => {
                let selected = duel.select(set, page_size);
                // Train both competitors on all accesses (SD-Proposed) or
                // only the selected one (SD-Standard); candidates are taken
                // from the selected competitor only.
                let competitors = [
                    (Selected::Psa, self.psa.as_mut()),
                    (Selected::Psa2m, psa_2mb.as_mut()),
                ];
                for ((which, p), burst) in competitors.into_iter().zip(bursts) {
                    if !duel.should_train(which, selected) {
                        continue;
                    }
                    let out = if which == selected {
                        &mut self.scratch
                    } else {
                        &mut self.scratch_alt
                    };
                    p.on_access(&ctx, out);
                    burst.record(out.len() as u64);
                    self.scratch_alt.clear();
                }
                match selected {
                    Selected::Psa => SOURCE_PSA,
                    Selected::Psa2m => SOURCE_PSA_2MB,
                }
            }
            _ => {
                self.psa.on_access(&ctx, &mut self.scratch);
                bursts[0].record(self.scratch.len() as u64);
                match self.policy {
                    PageSizePolicy::Psa2m => SOURCE_PSA_2MB,
                    _ => SOURCE_PSA,
                }
            }
        };
        self.stats.selected_by[source_id as usize] += 1;
        let slot = self.route(source_id);

        self.stats.candidates += self.scratch.len() as u64;
        let mut issued_now = 0;
        for i in 0..self.scratch.len() {
            if issued_now >= self.config.max_per_access {
                break;
            }
            let cand = self.scratch[i];
            if cand.line == line {
                continue; // the demand itself fetches the trigger line
            }
            // Legality is classified against the *true* page size so that
            // the Figure 2 counters ("discarded while in a huge page") are
            // meaningful even for the Original module, whose prefetcher is
            // oblivious to page sizes. For PSA variants the resolved and
            // oracle sizes are identical (audited in `Ppm::resolve`), and
            // the Strict4K policy never crosses regardless, so legality is
            // unaffected.
            if self.boundary.check(line, oracle_size, cand.line) != Verdict::Allowed {
                continue;
            }
            if present(&cand) || out.iter().any(|r| r.line == cand.line) {
                // Already resident, in flight, or requested earlier in this
                // batch: a hardware prefetch queue drops these before issue.
                self.stats.deduped += 1;
                continue;
            }
            out.push(PrefetchRequest {
                line: cand.line,
                fill_level: cand.fill_level,
                source: source_id,
            });
            self.competitor(slot).on_issue(cand.line);
            self.stats.issued += 1;
            self.stats.issued_by[source_id as usize] += 1;
            issued_now += 1;
        }
    }

    /// The competitor slot credited with a prefetch annotated `source`:
    /// the 2MB-indexed competitor when the module has one, else the lone
    /// prefetcher (Pref-PSA-2MB annotates with [`SOURCE_PSA_2MB`] but has
    /// a single prefetcher).
    fn route(&self, source: u8) -> usize {
        usize::from(source == SOURCE_PSA_2MB && self.psa_2mb.is_some())
    }

    fn competitor(&mut self, slot: usize) -> &mut dyn Prefetcher {
        match &mut self.psa_2mb {
            Some(b) if slot == 1 => b.as_mut(),
            _ => self.psa.as_mut(),
        }
    }

    /// A prefetched block (annotated with `source`) filled into the cache.
    pub fn on_prefetch_fill(&mut self, line: PLine, source: u8) {
        let slot = self.route(source);
        self.obs.fills[slot].inc();
        self.competitor(slot).on_prefetch_fill(line);
    }

    /// First demand hit on a prefetched block: credit the issuing
    /// prefetcher and update `Csel`.
    ///
    /// `timely` distinguishes a prefetch that completed before its demand
    /// (a real cache hit) from a *late* one the demand merged with in the
    /// MSHR. Both train the underlying prefetcher's accuracy (the block
    /// was correctly predicted), but only timely hits move `Csel`: a
    /// barely-ahead competitor must not out-vote a genuinely timely one.
    pub fn on_useful(&mut self, line: PLine, pc: VAddr, source: u8, timely: bool) {
        let slot = self.route(source);
        if timely {
            self.obs.useful_timely[slot].inc();
        } else {
            self.obs.useful_late[slot].inc();
        }
        self.competitor(slot).on_useful(line, pc);
        if timely {
            if let Some(duel) = &mut self.dueling {
                duel.on_useful_prefetch(if source == SOURCE_PSA_2MB {
                    Selected::Psa2m
                } else {
                    Selected::Psa
                });
            }
        }
    }

    /// A prefetched block was evicted without use.
    pub fn on_useless(&mut self, line: PLine, source: u8) {
        let slot = self.route(source);
        self.obs.useless[slot].inc();
        self.competitor(slot).on_useless(line);
    }

    /// Issue-path statistics.
    pub fn stats(&self) -> ModuleStats {
        self.stats
    }

    /// Boundary-legality counters (Figure 2).
    pub fn boundary_stats(&self) -> BoundaryStats {
        self.boundary.stats()
    }

    /// Current dueling state, if this is a Pref-PSA-SD module.
    pub fn dueling(&self) -> Option<&SetDueling> {
        self.dueling.as_ref()
    }

    /// Total metadata storage of the contained prefetchers in bytes, for
    /// the ISO-storage comparison (Figure 11).
    pub fn storage_bytes(&self) -> usize {
        self.psa.storage_bytes() + self.psa_2mb.as_ref().map_or(0, |p| p.storage_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// `(on_issue, on_useful)` calls a fake prefetcher received, shared
    /// with the test that built it.
    type Hooks = Rc<Cell<(u64, u64)>>;

    /// Emits the next `n` lines after the trigger, within the indexing
    /// grain's addressing range.
    struct FakePref {
        grain: IndexGrain,
        degree: i64,
        accesses: u64,
        fills: u64,
        usefuls: u64,
        useless: u64,
        hooks: Hooks,
    }

    impl FakePref {
        fn boxed(grain: IndexGrain, degree: i64) -> Box<dyn Prefetcher> {
            Self::with_hooks(grain, degree, &Hooks::default())
        }

        fn with_hooks(grain: IndexGrain, degree: i64, hooks: &Hooks) -> Box<dyn Prefetcher> {
            Box::new(Self {
                grain,
                degree,
                accesses: 0,
                fills: 0,
                usefuls: 0,
                useless: 0,
                hooks: Rc::clone(hooks),
            })
        }
    }

    impl Prefetcher for FakePref {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn on_access(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            self.accesses += 1;
            let page = self.grain.page_of(ctx.line);
            let off = self.grain.offset_of(ctx.line) as i64;
            for d in 1..=self.degree {
                if let Some(l) = self.grain.line_at(page, off + d) {
                    out.push(Candidate::l2c(l));
                }
            }
        }
        fn on_issue(&mut self, _line: PLine) {
            let (issues, usefuls) = self.hooks.get();
            self.hooks.set((issues + 1, usefuls));
        }
        fn on_prefetch_fill(&mut self, _line: PLine) {
            self.fills += 1;
        }
        fn on_useful(&mut self, _line: PLine, _pc: VAddr) {
            self.usefuls += 1;
            let (issues, usefuls) = self.hooks.get();
            self.hooks.set((issues, usefuls + 1));
        }
        fn on_useless(&mut self, _line: PLine) {
            self.useless += 1;
        }
        fn storage_bytes(&self) -> usize {
            100
        }
        fn save_state(&self, e: &mut Enc) {
            self.accesses.save(e);
            self.fills.save(e);
            self.usefuls.save(e);
            self.useless.save(e);
        }
        fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError> {
            self.accesses.load(d)?;
            self.fills.load(d)?;
            self.usefuls.load(d)?;
            self.useless.load(d)
        }
    }

    fn module(policy: PageSizePolicy) -> PsaModule {
        PsaModule::new(
            policy,
            PageSizeSource::Ppm,
            &|grain| FakePref::boxed(grain, 4),
            1024,
            SdConfig::default(),
            ModuleConfig::default(),
        )
        .unwrap()
    }

    fn run(m: &mut PsaModule, line: u64, huge: bool, set: usize) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        let size = PageSize::from_bit(huge);
        m.on_access(
            PLine::new(line),
            VAddr::new(0x400),
            false,
            huge,
            size,
            set,
            &|_| false,
            &mut out,
        );
        out
    }

    #[test]
    fn original_stops_at_4k_even_in_huge_pages() {
        let mut m = module(PageSizePolicy::Original);
        // Trigger at line 62 of a huge page: candidates 63,64,65,66 — only
        // 63 is legal for the original module.
        let reqs = run(&mut m, 62, true, 3);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].line, PLine::new(63));
        assert_eq!(m.boundary_stats().discarded_cross_4k_in_huge, 3);
    }

    #[test]
    fn psa_crosses_4k_inside_huge_pages() {
        let mut m = module(PageSizePolicy::Psa);
        let reqs = run(&mut m, 62, true, 3);
        assert_eq!(
            reqs.len(),
            4,
            "all four candidates legal inside the 2MB page"
        );
        assert!(reqs.iter().all(|r| r.source == SOURCE_PSA));
    }

    #[test]
    fn psa_still_respects_4k_pages() {
        let mut m = module(PageSizePolicy::Psa);
        let reqs = run(&mut m, 62, false, 3);
        assert_eq!(reqs.len(), 1, "trigger in a 4KB page: only line 63 legal");
        assert_eq!(m.boundary_stats().discarded_out_of_page, 3);
    }

    #[test]
    fn psa2m_requests_carry_the_2mb_annotation() {
        let mut m = module(PageSizePolicy::Psa2m);
        let reqs = run(&mut m, 62, true, 3);
        assert!(reqs.iter().all(|r| r.source == SOURCE_PSA_2MB));
    }

    #[test]
    fn sd_sample_sets_route_to_their_competitor() {
        let mut m = module(PageSizePolicy::PsaSd);
        // Set 0 → PSA sample; set 16 → PSA-2MB sample (1024 sets / 32).
        let a = run(&mut m, 62, true, 0);
        assert!(a.iter().all(|r| r.source == SOURCE_PSA));
        let b = run(&mut m, 62 + 128, true, 16);
        assert!(b.iter().all(|r| r.source == SOURCE_PSA_2MB));
        assert_eq!(m.stats().selected_by, [1, 1]);
    }

    #[test]
    fn sd_useful_feedback_moves_csel_and_follower_choice() {
        let mut m = module(PageSizePolicy::PsaSd);
        let follower_set = 3;
        let before = run(&mut m, 62, true, follower_set);
        assert!(
            before.iter().all(|r| r.source == SOURCE_PSA),
            "MSB starts clear"
        );
        for _ in 0..5 {
            m.on_useful(PLine::new(1), VAddr::new(0), SOURCE_PSA_2MB, true);
        }
        let after = run(&mut m, 1062, true, follower_set);
        assert!(after.iter().all(|r| r.source == SOURCE_PSA_2MB));
        assert_eq!(m.dueling().unwrap().credit(), [0, 5]);
    }

    #[test]
    fn presence_oracle_dedupes() {
        let mut m = module(PageSizePolicy::Psa);
        let first = run(&mut m, 10, true, 3);
        assert_eq!(first.len(), 4);
        // Pretend everything the first batch requested is now in flight.
        let inflight: Vec<PLine> = first.iter().map(|r| r.line).collect();
        let mut out = Vec::new();
        m.on_access(
            PLine::new(10),
            VAddr::new(0x400),
            false,
            true,
            PageSize::Size2M,
            3,
            &|c| inflight.contains(&c.line),
            &mut out,
        );
        assert!(out.is_empty(), "in-flight candidates suppressed: {out:?}");
        assert_eq!(m.stats().deduped, 4);
    }

    #[test]
    fn per_access_cap_enforced() {
        let mut m = PsaModule::new(
            PageSizePolicy::Psa,
            PageSizeSource::Ppm,
            &|grain| FakePref::boxed(grain, 32),
            1024,
            SdConfig::default(),
            ModuleConfig { max_per_access: 8 },
        )
        .unwrap();
        let reqs = run(&mut m, 0, true, 3);
        assert_eq!(reqs.len(), 8);
    }

    #[test]
    fn storage_doubles_for_sd() {
        assert_eq!(module(PageSizePolicy::Psa).storage_bytes(), 100);
        assert_eq!(module(PageSizePolicy::PsaSd).storage_bytes(), 200);
    }

    #[test]
    fn persist_roundtrip_preserves_selection_state() {
        // Train an SD module until its Csel steers followers to PSA-2MB,
        // save, restore into a fresh module, and check both the stats and
        // the follower-set routing survive the trip.
        let mut m = module(PageSizePolicy::PsaSd);
        run(&mut m, 62, true, 0);
        run(&mut m, 190, true, 16);
        for _ in 0..5 {
            m.on_useful(PLine::new(1), VAddr::new(0), SOURCE_PSA_2MB, true);
        }
        let mut e = Enc::new();
        m.save(&mut e);
        let bytes = e.into_bytes();

        let mut fresh = module(PageSizePolicy::PsaSd);
        let mut d = Dec::new(&bytes);
        fresh.load(&mut d).unwrap();
        assert_eq!(d.remaining(), 0, "all module bytes consumed");
        assert_eq!(fresh.stats(), m.stats());
        assert_eq!(fresh.boundary_stats(), m.boundary_stats());
        assert_eq!(fresh.dueling().unwrap().credit(), [0, 5]);
        let follower_set = 3;
        assert_eq!(
            run(&mut fresh, 1062, true, follower_set),
            run(&mut m, 1062, true, follower_set),
            "restored module must route followers identically"
        );
    }

    #[test]
    fn obs_counters_track_bursts_and_timeliness() {
        let mut m = module(PageSizePolicy::Psa);
        let first = run(&mut m, 62, true, 3);
        assert_eq!(
            m.obs().candidates_per_access[0].total(),
            0,
            "disabled by default"
        );
        m.enable_obs();
        run(&mut m, 1062, true, 3);
        assert_eq!(m.obs().candidates_per_access[0].sum(), 4);
        m.on_prefetch_fill(first[0].line, SOURCE_PSA);
        m.on_useful(first[0].line, VAddr::new(0), SOURCE_PSA, true);
        m.on_useful(first[1].line, VAddr::new(0), SOURCE_PSA, false);
        m.on_useless(first[2].line, SOURCE_PSA);
        let o = m.obs();
        assert_eq!(o.fills[0].get(), 1);
        assert_eq!(o.useful_timely[0].get(), 1);
        assert_eq!(o.useful_late[0].get(), 1);
        assert_eq!(o.useless[0].get(), 1);
        assert_eq!(o.useful(0), 2);
        assert!(m.stats().issued > 0 && m.boundary_stats().candidates > 0);
        m.reset_window();
        assert_eq!(m.obs().candidates_per_access[0].total(), 0);
        assert_eq!(m.obs().useful(0), 0);
        // The reset zeroes the aggregate stats with the obs counters.
        assert_eq!(m.stats(), ModuleStats::default());
        assert_eq!(m.boundary_stats(), BoundaryStats::default());
    }

    #[test]
    fn lone_2mb_prefetcher_is_credited_in_slot_0() {
        // Pref-PSA-2MB annotates its requests with the 2MB source bit but
        // has one prefetcher: every event belongs to it, in slot 0.
        let hooks = Hooks::default();
        let mut m = PsaModule::new(
            PageSizePolicy::Psa2m,
            PageSizeSource::Ppm,
            &|grain| FakePref::with_hooks(grain, 4, &hooks),
            1024,
            SdConfig::default(),
            ModuleConfig::default(),
        )
        .unwrap();
        m.enable_obs();
        let reqs = run(&mut m, 62, true, 3);
        assert!(reqs.iter().all(|r| r.source == SOURCE_PSA_2MB));
        m.on_prefetch_fill(reqs[0].line, SOURCE_PSA_2MB);
        m.on_useful(reqs[0].line, VAddr::new(0), SOURCE_PSA_2MB, true);
        m.on_useless(reqs[1].line, SOURCE_PSA_2MB);
        assert_eq!(m.competitors(), 1);
        assert_eq!(hooks.get(), (reqs.len() as u64, 1));
        let o = m.obs();
        assert_eq!(o.candidates_per_access[0].total(), 1);
        assert_eq!(
            (o.fills[0].get(), o.useful(0), o.useless[0].get()),
            (1, 1, 1)
        );
        assert_eq!(o.candidates_per_access[1].total(), 0);
        assert_eq!(
            (o.fills[1].get(), o.useful(1), o.useless[1].get()),
            (0, 0, 0)
        );
    }

    #[test]
    fn sd_bursts_count_training_only_calls() {
        let mut m = module(PageSizePolicy::PsaSd);
        m.enable_obs();
        // A PSA leader, a PSA-2MB leader and a follower set: SD-Proposed
        // trains both competitors on each, but only the selected one's
        // candidates reach the issue path.
        for set in [0, 16, 3] {
            run(&mut m, 62, true, set);
        }
        assert_eq!(m.competitors(), 2);
        let bursts = &m.obs().candidates_per_access;
        assert_eq!([bursts[0].total(), bursts[1].total()], [3, 3]);
        assert_eq!(bursts[0].sum() + bursts[1].sum(), 2 * m.stats().candidates);
    }
}
