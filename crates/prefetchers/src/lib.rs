//! The spatial cache prefetchers the paper evaluates, implemented from
//! their original publications:
//!
//! * [`spp`] — Signature Path Prefetcher (Kim et al., MICRO 2016): a
//!   confidence-based look-ahead L2C prefetcher; the paper's primary
//!   vehicle and the basis of PPF.
//! * [`vldp`] — Variable Length Delta Prefetcher (Shevgoor et al., MICRO
//!   2015): multiple delta-history prediction tables of increasing depth.
//! * [`bop`] — Best-Offset Prefetcher (Michaud, HPCA 2016): offset
//!   learning with recent-request matching. BOP keeps **no page-indexed
//!   structure**, so its PSA-2MB variant degenerates to PSA, exactly as
//!   §VI-B1 of the paper observes.
//! * [`ppf`] — Perceptron-based Prefetch Filtering (Bhatia et al., ISCA
//!   2019): an aggressive SPP filtered by a hashed perceptron.
//! * [`ipcp`] — Instruction Pointer Classifier Prefetcher (Pakalapati &
//!   Panda, ISCA 2020): the state-of-the-art **L1D** prefetcher used as
//!   the comparison point in Figure 13, plus its page-crossing IPCP++
//!   variant.
//! * [`nextline`] — next-line prefetchers for both L1D and L2C baselines.
//! * [`pangloss`] — Pangloss (Papaphilippou et al., DPC-3 2019): a
//!   Markov chain over compressed page-local deltas with LFU aging;
//!   prefetch degree follows the chain's transition confidence.
//! * [`dspatch`] — DSPatch (Bera et al., MICRO 2019): dual OR/AND
//!   bit-pattern tables per PC signature with bandwidth-aware selection
//!   between the coverage- and accuracy-biased patterns.
//!
//! All L2C prefetchers implement [`psa_core::Prefetcher`] and are
//! constructed through [`PrefetcherKind::build`] with an
//! [`IndexGrain`] — the only knob the paper's Pref-PSA-2MB transformation
//! turns (§IV-B1). [`spec::ModuleSpec`] packages a kind, a page-size
//! policy and tuning knobs into a plain value the simulator can build a
//! full [`psa_core::PsaModule`] from — variants are data, not closures.
//!
//! # Example
//!
//! ```
//! use psa_prefetchers::PrefetcherKind;
//! use psa_core::IndexGrain;
//!
//! let spp = PrefetcherKind::Spp.build(IndexGrain::Page4K);
//! assert_eq!(spp.name(), "SPP");
//! assert!(spp.uses_page_indexing());
//!
//! let bop = PrefetcherKind::Bop.build(IndexGrain::Page2M);
//! assert!(!bop.uses_page_indexing(), "BOP has no page-indexed structure");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bop;
pub mod dspatch;
pub mod ipcp;
pub mod nextline;
pub mod pangloss;
pub mod ppf;
pub mod spec;
pub mod spp;
pub mod vldp;

use psa_core::{IndexGrain, Prefetcher};

pub use ipcp::{Ipcp, IpcpConfig, L1dPrefetcher};
pub use nextline::{NextLine, NextLineL1d};
pub use spec::ModuleSpec;

/// The L2C prefetchers evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// Signature Path Prefetcher.
    Spp,
    /// Variable Length Delta Prefetcher.
    Vldp,
    /// Perceptron-based Prefetch Filtering (SPP + perceptron).
    Ppf,
    /// Best-Offset Prefetcher.
    Bop,
    /// Next-line baseline.
    NextLine,
    /// Pangloss Markov-chain delta prefetcher.
    Pangloss,
    /// DSPatch dual bit-pattern spatial prefetcher.
    Dspatch,
}

impl PrefetcherKind {
    /// The four prefetchers of the paper's headline evaluation, in figure
    /// order.
    pub const EVALUATED: [PrefetcherKind; 4] = [
        PrefetcherKind::Spp,
        PrefetcherKind::Vldp,
        PrefetcherKind::Ppf,
        PrefetcherKind::Bop,
    ];

    /// Every L2C family, in canonical (stable export) order. This is
    /// *the* list — variant enumeration, label parsing and the serve
    /// API's `prefetchers` field all derive from it, so a new family
    /// cannot be added to one surface and forgotten in another. New
    /// kinds append; the existing order never reshuffles.
    pub const ALL: [PrefetcherKind; 7] = [
        PrefetcherKind::Spp,
        PrefetcherKind::Vldp,
        PrefetcherKind::Ppf,
        PrefetcherKind::Bop,
        PrefetcherKind::NextLine,
        PrefetcherKind::Pangloss,
        PrefetcherKind::Dspatch,
    ];

    /// Construct the prefetcher with its structures indexed at `grain`.
    pub fn build(self, grain: IndexGrain) -> Box<dyn Prefetcher> {
        self.build_scaled(grain, 1)
    }

    /// Like [`PrefetcherKind::build`], with every table shape multiplied
    /// by `scale` (clamped to ≥1) — the ISO-storage comparison's doubled
    /// prefetchers are `scale == 2`. Next-line has no tables and ignores
    /// the scale.
    pub fn build_scaled(self, grain: IndexGrain, scale: usize) -> Box<dyn Prefetcher> {
        let s = scale.max(1);
        match self {
            PrefetcherKind::Spp => {
                let d = spp::SppConfig::default();
                Box::new(spp::Spp::new(
                    spp::SppConfig {
                        st_sets: d.st_sets * s,
                        pt_entries: d.pt_entries * s,
                        ..d
                    },
                    grain,
                ))
            }
            PrefetcherKind::Vldp => {
                let d = vldp::VldpConfig::default();
                Box::new(vldp::Vldp::new(
                    vldp::VldpConfig {
                        dhb_entries: d.dhb_entries * s,
                        dpt_entries: d.dpt_entries * s,
                        opt_entries: d.opt_entries * s,
                        ..d
                    },
                    grain,
                ))
            }
            PrefetcherKind::Ppf => {
                let d = ppf::PpfConfig::default();
                Box::new(ppf::Ppf::new(
                    ppf::PpfConfig {
                        table_entries: d.table_entries * s,
                        pt_entries: d.pt_entries * s,
                        rt_entries: d.rt_entries * s,
                        ..d
                    },
                    grain,
                ))
            }
            PrefetcherKind::Bop => {
                let d = bop::BopConfig::default();
                Box::new(bop::Bop::new(
                    bop::BopConfig {
                        rr_entries: d.rr_entries * s,
                        ..d
                    },
                    grain,
                ))
            }
            PrefetcherKind::NextLine => Box::new(NextLine::new(1)),
            PrefetcherKind::Pangloss => {
                let d = pangloss::PanglossConfig::default();
                Box::new(pangloss::Pangloss::new(
                    pangloss::PanglossConfig {
                        dt_rows: d.dt_rows * s.next_power_of_two(),
                        page_sets: d.page_sets * s.next_power_of_two(),
                        ..d
                    },
                    grain,
                ))
            }
            PrefetcherKind::Dspatch => {
                let d = dspatch::DspatchConfig::default();
                Box::new(dspatch::Dspatch::new(
                    dspatch::DspatchConfig {
                        pb_entries: d.pb_entries * s,
                        spt_entries: d.spt_entries * s.next_power_of_two(),
                        ..d
                    },
                    grain,
                ))
            }
        }
    }

    /// The paper's name for this prefetcher.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::Spp => "SPP",
            PrefetcherKind::Vldp => "VLDP",
            PrefetcherKind::Ppf => "PPF",
            PrefetcherKind::Bop => "BOP",
            PrefetcherKind::NextLine => "NL",
            PrefetcherKind::Pangloss => "Pangloss",
            PrefetcherKind::Dspatch => "DSPatch",
        }
    }
}

impl std::fmt::Display for PrefetcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PrefetcherKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spp" => Ok(PrefetcherKind::Spp),
            "vldp" => Ok(PrefetcherKind::Vldp),
            "ppf" => Ok(PrefetcherKind::Ppf),
            "bop" => Ok(PrefetcherKind::Bop),
            "nl" | "nextline" | "next-line" => Ok(PrefetcherKind::NextLine),
            "pangloss" => Ok(PrefetcherKind::Pangloss),
            "dspatch" => Ok(PrefetcherKind::Dspatch),
            other => Err(format!("unknown prefetcher '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for kind in PrefetcherKind::ALL {
            let parsed: PrefetcherKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<PrefetcherKind>().is_err());
    }

    #[test]
    fn all_starts_with_the_evaluated_kinds() {
        // Canonical order is append-only: the headline four stay in the
        // same positions forever, so exports never reshuffle.
        assert_eq!(&PrefetcherKind::ALL[..4], &PrefetcherKind::EVALUATED[..]);
    }

    #[test]
    fn build_produces_named_prefetchers() {
        for kind in PrefetcherKind::ALL {
            let p = kind.build(IndexGrain::Page4K);
            assert_eq!(p.name(), kind.name());
            assert!(p.storage_bytes() > 0 || kind == PrefetcherKind::NextLine);
        }
    }

    #[test]
    fn scaled_builds_really_scale_storage() {
        for kind in PrefetcherKind::ALL {
            if kind == PrefetcherKind::NextLine {
                continue;
            }
            let base = kind.build(IndexGrain::Page4K).storage_bytes() as f64;
            let doubled = kind.build_scaled(IndexGrain::Page4K, 2).storage_bytes() as f64;
            let ratio = doubled / base;
            assert!(
                (1.5..=2.5).contains(&ratio),
                "{kind:?}: scale 2 gives ratio {ratio:.2}"
            );
        }
    }

    #[test]
    fn only_bop_lacks_page_indexing() {
        assert!(PrefetcherKind::Spp
            .build(IndexGrain::Page4K)
            .uses_page_indexing());
        assert!(PrefetcherKind::Vldp
            .build(IndexGrain::Page4K)
            .uses_page_indexing());
        assert!(PrefetcherKind::Ppf
            .build(IndexGrain::Page4K)
            .uses_page_indexing());
        assert!(!PrefetcherKind::Bop
            .build(IndexGrain::Page4K)
            .uses_page_indexing());
    }
}
