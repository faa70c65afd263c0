//! The prefetcher abstraction the paper's techniques wrap.
//!
//! PPM is "compatible with any cache prefetcher without implying design
//! modifications" (§IV-A). This trait is that boundary: implementations
//! (SPP, VLDP, BOP, PPF in `psa-prefetchers`) receive L2C accesses and emit
//! *candidate* lines; everything page-size-aware — legality, indexing
//! grain selection, set dueling — happens outside, in
//! [`crate::module::PsaModule`].

use psa_common::{CodecError, Dec, Enc, PLine, PageSize, VAddr};

/// One L2C access as the prefetching module sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessContext {
    /// Physical line accessed (L2C prefetchers operate on physical
    /// addresses — §II-C2).
    pub line: PLine,
    /// Program counter of the triggering instruction.
    pub pc: VAddr,
    /// Whether the access hit in the L2C.
    pub cache_hit: bool,
    /// The trigger block's page size as resolved by [`crate::ppm::Ppm`].
    /// Prefetcher *implementations must not read this* — it exists for the
    /// module's boundary checks; PPM changes no prefetcher internals.
    pub page_size: PageSize,
}

/// Where a prefetched block should be placed, mirroring SPP-style
/// confidence-directed placement (high confidence → L2C, low → LLC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillLevel {
    /// Fill into the L2C.
    #[default]
    L2C,
    /// Fill only into the LLC.
    Llc,
}

/// A candidate prefetch emitted by a prefetcher.
///
/// Candidates may point outside the trigger's page; the module's
/// [`crate::boundary::BoundaryChecker`] decides legality. That split is
/// what lets the *same* prefetcher implementation serve as original,
/// Pref-PSA and Pref-PSA-2MB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Absolute physical line to prefetch.
    pub line: PLine,
    /// Placement hint.
    pub fill_level: FillLevel,
}

impl Candidate {
    /// A candidate destined for the L2C.
    pub fn l2c(line: PLine) -> Self {
        Self {
            line,
            fill_level: FillLevel::L2C,
        }
    }

    /// A candidate destined for the LLC.
    pub fn llc(line: PLine) -> Self {
        Self {
            line,
            fill_level: FillLevel::Llc,
        }
    }
}

/// A spatial L2C prefetcher.
///
/// Implementations are constructed with an [`crate::grain::IndexGrain`]
/// that selects which page number indexes their internal structures; they
/// must not otherwise consult page sizes.
pub trait Prefetcher {
    /// Human-readable name ("SPP", "VLDP", …).
    fn name(&self) -> &'static str;

    /// Observe one L2C access and append prefetch candidates to `out`.
    ///
    /// Called for *every* L2C demand access — under Pref-PSA-SD both
    /// competing prefetchers train on all accesses (§IV-B3) even when only
    /// one of them is allowed to issue.
    fn on_access(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>);

    /// A request this instance produced was actually issued to the memory
    /// system (post legality/dedup filtering). Accuracy throttles should
    /// count these, not raw candidate emissions.
    fn on_issue(&mut self, line: PLine) {
        let _ = line;
    }

    /// A prefetch this instance issued has filled into the cache.
    fn on_prefetch_fill(&mut self, line: PLine) {
        let _ = line;
    }

    /// A block this instance prefetched was demanded (useful prefetch).
    fn on_useful(&mut self, line: PLine, pc: VAddr) {
        let _ = (line, pc);
    }

    /// A block this instance prefetched was evicted unused (useless).
    fn on_useless(&mut self, line: PLine) {
        let _ = line;
    }

    /// Whether any internal structure is indexed by the physical page
    /// number. When false, Pref-PSA-2MB degenerates to Pref-PSA — the
    /// paper's BOP case (§VI-B1: "all BOP versions provide the same
    /// speedups").
    fn uses_page_indexing(&self) -> bool {
        true
    }

    /// Approximate metadata storage in bytes, for the ISO-storage ablation
    /// (Figure 11).
    fn storage_bytes(&self) -> usize;

    /// Serialise every mutable training structure into `e`.
    ///
    /// Together with [`Prefetcher::load_state`] this is the checkpointing
    /// contract: after `load_state` replays bytes written by `save_state`
    /// into a freshly constructed instance *of the same configuration*, the
    /// instance must behave bit-identically to the one that was saved.
    /// Configuration (grain, table shapes) is **not** serialised — the
    /// restore target is rebuilt from config first.
    fn save_state(&self, e: &mut Enc);

    /// Restore state written by [`Prefetcher::save_state`] into `self`,
    /// which must have been built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the byte stream is truncated or
    /// corrupt; `self` may then be partially overwritten and must be
    /// discarded.
    fn load_state(&mut self, d: &mut Dec) -> Result<(), CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial next-line emitter used to exercise the trait's surface.
    struct NextLine;

    impl Prefetcher for NextLine {
        fn name(&self) -> &'static str {
            "next-line"
        }
        fn on_access(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            if let Some(next) = ctx.line.checked_add(1) {
                out.push(Candidate::l2c(next));
            }
        }
        fn uses_page_indexing(&self) -> bool {
            false
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn save_state(&self, _e: &mut Enc) {}
        fn load_state(&mut self, _d: &mut Dec) -> Result<(), CodecError> {
            Ok(())
        }
    }

    #[test]
    fn trait_object_safety_and_defaults() {
        let mut p: Box<dyn Prefetcher> = Box::new(NextLine);
        let ctx = AccessContext {
            line: PLine::new(5),
            pc: VAddr::new(0x400),
            cache_hit: false,
            page_size: PageSize::Size4K,
        };
        let mut out = Vec::new();
        p.on_access(&ctx, &mut out);
        assert_eq!(out, vec![Candidate::l2c(PLine::new(6))]);
        // Default hooks are no-ops and must not panic.
        p.on_prefetch_fill(PLine::new(6));
        p.on_useful(PLine::new(6), VAddr::new(0x400));
        p.on_useless(PLine::new(6));
        assert_eq!(p.name(), "next-line");
        assert!(!p.uses_page_indexing());
    }

    #[test]
    fn candidate_constructors() {
        assert_eq!(Candidate::l2c(PLine::new(1)).fill_level, FillLevel::L2C);
        assert_eq!(Candidate::llc(PLine::new(1)).fill_level, FillLevel::Llc);
    }
}
