//! Figure 9: geomean speedups of the PSA, PSA-2MB and PSA-SD versions of
//! SPP, VLDP, PPF and BOP over each prefetcher's original implementation,
//! per suite group (SPEC / GAP+ML+CLOUD / QMM) and over all workloads.

use psa_common::{geomean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;
use psa_traces::{SuiteGroup, WorkloadSpec};

use crate::runner::{self, Settings, Variant};

/// Geomean speedups of one (prefetcher, variant) cell over that
/// prefetcher's Original implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteCell {
    /// Prefetcher.
    pub kind: PrefetcherKind,
    /// The measured variant's name in the table and the JSON rows.
    pub label: String,
    /// Geomean per group, in [SPEC, GAP+ML+CLOUD, QMM] order.
    pub per_group: [f64; 3],
    /// Geomean across all workloads.
    pub all: f64,
}

const GROUPS: [SuiteGroup; 3] = [SuiteGroup::Spec, SuiteGroup::GapMlCloud, SuiteGroup::Qmm];

/// One cell per `(label, variant)` of `measured`: its geomean speedup
/// over `kind`'s Original across `workloads`, per suite group and over
/// all. A workload with any failed job drops out of every cell; the
/// fault is recorded in the document's `failures` array.
pub fn suite_cells(
    settings: &Settings,
    workloads: &[&'static WorkloadSpec],
    kind: PrefetcherKind,
    measured: &[(String, Variant)],
) -> Vec<SuiteCell> {
    let mut variants = vec![Variant::Pref(kind, PageSizePolicy::Original)];
    variants.extend(measured.iter().map(|&(_, v)| v));
    let mut cache = settings.cache();
    let rows = cache.rows(settings.config, workloads, &variants);
    measured
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let speedups: Vec<(SuiteGroup, f64)> = rows
                .iter()
                .map(|(w, r)| (w.suite.group(), runner::speedup(r[i + 1].ipc(), r[0].ipc())))
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
            SuiteCell {
                kind,
                label: label.clone(),
                per_group,
                all,
            }
        })
        .collect()
}

/// Run the full sweep over the given workloads (injectable so the
/// non-intensive experiment can reuse it).
pub fn collect_over(settings: &Settings, workloads: &[&'static WorkloadSpec]) -> Vec<SuiteCell> {
    PrefetcherKind::EVALUATED
        .into_iter()
        .flat_map(|kind| {
            let measured = [
                PageSizePolicy::Psa,
                PageSizePolicy::Psa2m,
                PageSizePolicy::PsaSd,
            ]
            .map(|policy| (policy.to_string(), Variant::Pref(kind, policy)));
            suite_cells(settings, workloads, kind, &measured)
        })
        .collect()
}

/// Run over the standard workload selection.
pub fn collect(settings: &Settings) -> Vec<SuiteCell> {
    collect_over(settings, &settings.workloads())
}

/// Text rendering plus the `BENCH_fig09.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let cells = collect(settings);
    let text = render(
        &cells,
        "Figure 9 — geomean speedup over each prefetcher's original (%)",
    );
    let doc = runner::doc(
        "fig09",
        "geomean speedup over each prefetcher's original",
        settings,
        cells_json(&cells),
    );
    (text, doc)
}

/// Cells as JSON rows (shared with Figure 16 and the non-intensive
/// experiment).
pub fn cells_json(cells: &[SuiteCell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("prefetcher", Json::str(c.kind.name())),
                    ("variant", Json::str(&c.label)),
                    ("spec_geomean", Json::Num(c.per_group[0])),
                    ("gap_ml_cloud_geomean", Json::Num(c.per_group[1])),
                    ("qmm_geomean", Json::Num(c.per_group[2])),
                    ("all_geomean", Json::Num(c.all)),
                ])
            })
            .collect(),
    )
}

/// Render a cell list under a title.
pub fn render(cells: &[SuiteCell], title: &str) -> String {
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
            c.label.clone(),
            pct((c.per_group[0] - 1.0) * 100.0),
            pct((c.per_group[1] - 1.0) * 100.0),
            pct((c.per_group[2] - 1.0) * 100.0),
            pct((c.all - 1.0) * 100.0),
        ]);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn bop_variants_are_identical() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_workload_limit(6)
                .with_warmup(2_000)
                .with_instructions(8_000),
        );
        let cells = collect(&settings);
        assert_eq!(cells.len(), 12);
        // §VI-B1: BOP has no page-indexed structure, so PSA == PSA-2MB ==
        // PSA-SD exactly.
        let bop: Vec<&SuiteCell> = cells
            .iter()
            .filter(|c| c.kind == PrefetcherKind::Bop)
            .collect();
        assert_eq!(bop.len(), 3);
        for c in &bop[1..] {
            assert!(
                (c.all - bop[0].all).abs() < 1e-9,
                "BOP variants must degenerate: {} vs {}",
                c.all,
                bop[0].all
            );
        }
    }
}
