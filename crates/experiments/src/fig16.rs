//! Figure 16 (repo extension): the new prefetcher families — Pangloss
//! and DSPatch — run through the full page-size-awareness matrix next to
//! SPP, the paper's primary vehicle.
//!
//! For each family the figure reports the geomean speedup of every PSA
//! policy (PSA, PSA-2MB, PSA-SD) **and** the PSA Magic oracle over that
//! family's own Original implementation, per suite group and over all
//! workloads — Figure 9's shape, extended with the oracle column (which
//! runs the PPM machine: PPM's bit is the translation's page size) and
//! pointed at genuinely different prediction structures: SPP walks
//! delta signatures, Pangloss walks a Markov chain of compressed
//! deltas, DSPatch replays dueling spatial bit patterns.

use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;

use crate::fig09::{self, SuiteCell};
use crate::runner::{self, Settings, Variant};

/// The families compared: the paper's vehicle plus the two extensions.
pub const FAMILIES: [PrefetcherKind; 3] = [
    PrefetcherKind::Spp,
    PrefetcherKind::Pangloss,
    PrefetcherKind::Dspatch,
];

/// Run the sweep over the standard workload selection: per family, every
/// PSA policy and the PSA Magic oracle, named by [`Variant::label`].
pub fn collect(settings: &Settings) -> Vec<SuiteCell> {
    let workloads = settings.workloads();
    FAMILIES
        .into_iter()
        .flat_map(|kind| {
            let measured = [
                Variant::Pref(kind, PageSizePolicy::Psa),
                Variant::Pref(kind, PageSizePolicy::Psa2m),
                Variant::Pref(kind, PageSizePolicy::PsaSd),
                Variant::PrefMagic(kind, PageSizePolicy::Psa),
            ]
            .map(|v| (v.label(), v));
            fig09::suite_cells(settings, &workloads, kind, &measured)
        })
        .collect()
}

/// Text rendering plus the `BENCH_fig16.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let cells = collect(settings);
    let text = fig09::render(
        &cells,
        "Figure 16 — new families vs SPP, geomean speedup over each family's original (%)",
    );
    let doc = runner::doc(
        "fig16",
        "new families (Pangloss, DSPatch) vs SPP, geomean speedup over each family's original",
        settings,
        fig09::cells_json(&cells),
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn new_families_complete_the_matrix_on_a_small_slice() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_workload_limit(4)
                .with_warmup(2_000)
                .with_instructions(8_000),
        );
        let cells = collect(&settings);
        assert_eq!(cells.len(), FAMILIES.len() * 4);
        for c in &cells {
            assert!(
                c.all > 0.2 && c.all < 5.0,
                "{} {}: implausible speedup {}",
                c.kind,
                c.label,
                c.all
            );
        }
        // The Magic oracle can never *lose* to PPM by resolving page
        // sizes late — sanity-check it stays in the same ballpark.
        for kind in FAMILIES {
            let by = |v: Variant| cells.iter().find(|c| c.label == v.label()).map(|c| c.all);
            let psa = by(Variant::Pref(kind, PageSizePolicy::Psa)).unwrap();
            let magic = by(Variant::PrefMagic(kind, PageSizePolicy::Psa)).unwrap();
            assert!(
                (psa - magic).abs() < 0.5,
                "{kind}: PPM {psa} vs Magic {magic} diverge wildly"
            );
        }
    }
}
