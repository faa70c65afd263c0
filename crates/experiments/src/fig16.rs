//! Figure 16 (repo extension): the new prefetcher families — Pangloss
//! and DSPatch — run through the full page-size-awareness matrix next to
//! SPP, the paper's primary vehicle.
//!
//! For each family the figure reports the geomean speedup of every PSA
//! policy (PSA, PSA-2MB, PSA-SD) **and** the PSA Magic oracle over that
//! family's own Original implementation, per suite group and over all
//! workloads — Figure 9's shape, extended with the oracle column and
//! pointed at genuinely different prediction structures: SPP walks
//! delta signatures, Pangloss walks a Markov chain of compressed
//! deltas, DSPatch replays dueling spatial bit patterns.

use psa_common::{geomean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;
use psa_traces::{SuiteGroup, WorkloadSpec};

use crate::runner::{self, Settings, Variant};

/// The families compared: the paper's vehicle plus the two extensions.
pub const FAMILIES: [PrefetcherKind; 3] = [
    PrefetcherKind::Spp,
    PrefetcherKind::Pangloss,
    PrefetcherKind::Dspatch,
];

/// Geomean speedups for one (family, variant) cell.
#[derive(Debug, Clone)]
pub struct Fig16Cell {
    /// Prefetcher family.
    pub kind: PrefetcherKind,
    /// The measured variant (a PSA policy or the Magic oracle).
    pub variant: Variant,
    /// Geomean per group, in [SPEC, GAP+ML+CLOUD, QMM] order.
    pub per_group: [f64; 3],
    /// Geomean across all workloads.
    pub all: f64,
}

const GROUPS: [SuiteGroup; 3] = [SuiteGroup::Spec, SuiteGroup::GapMlCloud, SuiteGroup::Qmm];

/// The measured (non-baseline) variants of one family, in column order.
fn measured(kind: PrefetcherKind) -> [Variant; 4] {
    [
        Variant::Pref(kind, PageSizePolicy::Psa),
        Variant::Pref(kind, PageSizePolicy::Psa2m),
        Variant::Pref(kind, PageSizePolicy::PsaSd),
        Variant::PrefMagic(kind, PageSizePolicy::Psa),
    ]
}

/// Run the full sweep over the given workloads.
pub fn collect_over(settings: &Settings, workloads: &[&'static WorkloadSpec]) -> Vec<Fig16Cell> {
    let mut out = Vec::new();
    for kind in FAMILIES {
        let mut cache = settings.cache();
        let base = Variant::Pref(kind, PageSizePolicy::Original);
        let mut variants = vec![base];
        variants.extend(measured(kind));
        let jobs: Vec<_> = workloads
            .iter()
            .flat_map(|&w| variants.iter().map(move |&v| (w, v)))
            .collect();
        cache.run_batch_refs(settings.config, &jobs);
        // A failed workload drops out of every geomean for this family;
        // the fault is recorded in the document's `failures` array.
        let survivors = cache.surviving_refs(workloads, &variants);
        for variant in measured(kind) {
            let speedups: Vec<(SuiteGroup, f64)> = survivors
                .iter()
                .map(|&w| {
                    (
                        w.suite.group(),
                        cache.speedup_ref(settings.config, w, variant, base),
                    )
                })
                .collect();
            let per_group = GROUPS.map(|g| {
                geomean(
                    &speedups
                        .iter()
                        .filter(|(sg, _)| *sg == g)
                        .map(|(_, s)| *s)
                        .collect::<Vec<_>>(),
                )
            });
            let all = geomean(&speedups.iter().map(|(_, s)| *s).collect::<Vec<_>>());
            out.push(Fig16Cell {
                kind,
                variant,
                per_group,
                all,
            });
        }
    }
    out
}

/// Run over the standard workload selection.
pub fn collect(settings: &Settings) -> Vec<Fig16Cell> {
    collect_over(settings, &settings.workloads())
}

/// Render the figure.
pub fn run(settings: &Settings) -> String {
    render(&collect(settings))
}

/// Text rendering plus the `BENCH_fig16.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let cells = collect(settings);
    let text = render(&cells);
    let doc = runner::doc(
        "fig16",
        "new families (Pangloss, DSPatch) vs SPP, geomean speedup over each family's original",
        settings,
        cells_json(&cells),
    );
    (text, doc)
}

/// Cells as JSON rows.
pub fn cells_json(cells: &[Fig16Cell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("prefetcher", Json::str(c.kind.name())),
                    ("variant", Json::str(c.variant.label())),
                    ("spec_geomean", Json::Num(c.per_group[0])),
                    ("gap_ml_cloud_geomean", Json::Num(c.per_group[1])),
                    ("qmm_geomean", Json::Num(c.per_group[2])),
                    ("all_geomean", Json::Num(c.all)),
                ])
            })
            .collect(),
    )
}

/// Render a cell list.
pub fn render(cells: &[Fig16Cell]) -> String {
    let mut t = Table::new(vec![
        "prefetcher".into(),
        "variant".into(),
        "SPEC".into(),
        "GAP+ML+CLOUD".into(),
        "QMM".into(),
        "ALL".into(),
    ]);
    for c in cells {
        t.row(vec![
            c.kind.name().into(),
            c.variant.label(),
            pct((c.per_group[0] - 1.0) * 100.0),
            pct((c.per_group[1] - 1.0) * 100.0),
            pct((c.per_group[2] - 1.0) * 100.0),
            pct((c.all - 1.0) * 100.0),
        ]);
    }
    format!(
        "Figure 16 — new families vs SPP, geomean speedup over each family's original (%)\n{}",
        t.render()
    )
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
                c.variant.label(),
                c.all
            );
        }
        // The Magic oracle can never *lose* to PPM by resolving page
        // sizes late — sanity-check it stays in the same ballpark.
        for kind in FAMILIES {
            let by = |v: Variant| cells.iter().find(|c| c.variant == v).map(|c| c.all);
            let psa = by(Variant::Pref(kind, PageSizePolicy::Psa)).unwrap();
            let magic = by(Variant::PrefMagic(kind, PageSizePolicy::Psa)).unwrap();
            assert!(
                (psa - magic).abs() < 0.5,
                "{kind}: PPM {psa} vs Magic {magic} diverge wildly"
            );
        }
    }
}
