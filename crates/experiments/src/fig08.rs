//! Figure 8: per-workload speedups of SPP-PSA, SPP-PSA-2MB and SPP-PSA-SD
//! over the original SPP, across the 80-workload set, plus the geomean.

use psa_common::{geomean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;
use psa_traces::WorkloadSpec;

use crate::runner::{self, Settings, Variant};

/// One workload's variant speedups over SPP original.
#[derive(Debug, Clone)]
pub struct Fig08Row {
    /// Workload name.
    pub name: &'static str,
    /// SPP-PSA / SPP.
    pub psa: f64,
    /// SPP-PSA-2MB / SPP.
    pub psa_2mb: f64,
    /// SPP-PSA-SD / SPP.
    pub psa_sd: f64,
}

/// Run the sweep for one prefetcher kind (Figure 8 uses SPP).
pub fn collect(settings: &Settings, kind: PrefetcherKind) -> Vec<Fig08Row> {
    let mut cache = settings.cache();
    let base = Variant::Pref(kind, PageSizePolicy::Original);
    let workloads = settings.workloads();
    let variants: Vec<Variant> = [
        PageSizePolicy::Original,
        PageSizePolicy::Psa,
        PageSizePolicy::Psa2m,
        PageSizePolicy::PsaSd,
    ]
    .into_iter()
    .map(|policy| Variant::Pref(kind, policy))
    .collect();
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|&w| variants.iter().map(move |&v| (w, v)))
        .collect();
    cache.run_batch_refs(settings.config, &jobs);
    // A failed workload leaves an explicit gap (its row is dropped); the
    // fault itself is recorded in the document's `failures` array.
    cache
        .surviving_refs(&workloads, &variants)
        .into_iter()
        .map(|w: &'static WorkloadSpec| Fig08Row {
            name: w.name,
            psa: cache.speedup_ref(
                settings.config,
                w,
                Variant::Pref(kind, PageSizePolicy::Psa),
                base,
            ),
            psa_2mb: cache.speedup_ref(
                settings.config,
                w,
                Variant::Pref(kind, PageSizePolicy::Psa2m),
                base,
            ),
            psa_sd: cache.speedup_ref(
                settings.config,
                w,
                Variant::Pref(kind, PageSizePolicy::PsaSd),
                base,
            ),
        })
        .collect()
}

/// Geomeans of the three variant columns.
pub fn geomeans(rows: &[Fig08Row]) -> (f64, f64, f64) {
    (
        geomean(&rows.iter().map(|r| r.psa).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.psa_2mb).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.psa_sd).collect::<Vec<_>>()),
    )
}

/// Render the figure.
pub fn run(settings: &Settings) -> String {
    report(settings).0
}

/// Text rendering plus the `BENCH_fig08.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let rows = collect(settings, PrefetcherKind::Spp);
    let json_rows = Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("workload", Json::str(r.name)),
                    ("psa_speedup", Json::Num(r.psa)),
                    ("psa_2mb_speedup", Json::Num(r.psa_2mb)),
                    ("psa_sd_speedup", Json::Num(r.psa_sd)),
                ])
            })
            .collect(),
    );
    let mut doc = runner::doc(
        "fig08",
        "SPP variant speedups over SPP original",
        settings,
        json_rows,
    );
    let (ga, gb, gc) = geomeans(&rows);
    doc.push(
        "geomean",
        Json::obj([
            ("psa", Json::Num(ga)),
            ("psa_2mb", Json::Num(gb)),
            ("psa_sd", Json::Num(gc)),
        ]),
    );
    let mut t = Table::new(vec![
        "workload".into(),
        "SPP-PSA %".into(),
        "SPP-PSA-2MB %".into(),
        "SPP-PSA-SD %".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.name.into(),
            pct((r.psa - 1.0) * 100.0),
            pct((r.psa_2mb - 1.0) * 100.0),
            pct((r.psa_sd - 1.0) * 100.0),
        ]);
    }
    let (a, b, c) = geomeans(&rows);
    t.row(vec![
        "GeoMean".into(),
        pct((a - 1.0) * 100.0),
        pct((b - 1.0) * 100.0),
        pct((c - 1.0) * 100.0),
    ]);
    let text = format!(
        "Figure 8 — SPP variant speedups over SPP original\n{}",
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn sd_tracks_or_beats_the_better_competitor_in_geomean() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_workload_limit(8)
                .with_warmup(4_000)
                .with_instructions(20_000),
        );
        let rows = collect(&settings, PrefetcherKind::Spp);
        let (psa, psa_2mb, sd) = geomeans(&rows);
        // The composite must land near the better pure variant, never far
        // below both (the paper's central Pref-PSA-SD claim).
        assert!(
            sd >= psa.min(psa_2mb) * 0.97,
            "SD {sd:.3} vs PSA {psa:.3} / 2MB {psa_2mb:.3}"
        );
    }
}
