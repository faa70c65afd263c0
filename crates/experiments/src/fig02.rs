//! Figure 2: the probability that a prefetch is discarded because it
//! attempts to cross a 4KB boundary while the block resides in a large
//! page — for the *original* (page-size-oblivious) versions of SPP, VLDP,
//! PPF and BOP, across the workload set. The paper renders these as violin
//! plots; we print the distribution summary per prefetcher.

use psa_common::{DistSummary, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;

use crate::runner::{self, Settings, Variant};

/// Distribution of discard probabilities for one prefetcher.
#[derive(Debug, Clone)]
pub struct Fig02Row {
    /// The prefetcher.
    pub kind: PrefetcherKind,
    /// Per-workload discard probabilities.
    pub probabilities: Vec<f64>,
}

/// Run the experiment.
pub fn collect(settings: &Settings) -> Vec<Fig02Row> {
    let mut cache = settings.cache();
    let workloads = settings.workloads();
    let jobs: Vec<_> = PrefetcherKind::EVALUATED
        .into_iter()
        .flat_map(|kind| {
            workloads
                .iter()
                .map(move |&w| (w, Variant::Pref(kind, PageSizePolicy::Original)))
        })
        .collect();
    cache.run_batch_refs(settings.config, &jobs);
    PrefetcherKind::EVALUATED
        .into_iter()
        .map(|kind| {
            let probabilities = settings
                .workloads()
                .into_iter()
                .map(|w| {
                    cache
                        .run_ref(
                            settings.config,
                            w,
                            Variant::Pref(kind, PageSizePolicy::Original),
                        )
                        .boundary
                        .expect("prefetching run has boundary stats")
                        .discard_probability()
                })
                .collect();
            Fig02Row {
                kind,
                probabilities,
            }
        })
        .collect()
}

/// Render as the paper's figure (distribution summaries).
pub fn run(settings: &Settings) -> String {
    report(settings).0
}

/// Text rendering plus the `BENCH_fig02.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let rows = collect(settings);
    let workloads: Vec<Json> = settings
        .workloads()
        .iter()
        .map(|w| Json::str(w.name))
        .collect();
    let json_rows = Json::Arr(
        rows.iter()
            .map(|row| {
                let s = DistSummary::of(&row.probabilities);
                Json::obj([
                    ("prefetcher", Json::str(row.kind.name())),
                    (
                        "discard_probability",
                        Json::obj([
                            ("min", Json::Num(s.min)),
                            ("p25", Json::Num(s.p25)),
                            ("median", Json::Num(s.median)),
                            ("p75", Json::Num(s.p75)),
                            ("max", Json::Num(s.max)),
                            ("mean", Json::Num(s.mean)),
                        ]),
                    ),
                    (
                        "per_workload",
                        Json::Arr(row.probabilities.iter().map(|&p| Json::Num(p)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let mut doc = runner::doc(
        "fig02",
        "P(prefetch discarded for crossing 4KB inside a 2MB page), original prefetchers",
        settings,
        json_rows,
    );
    doc.push("workloads", Json::Arr(workloads));

    let mut t = Table::new(vec![
        "prefetcher".into(),
        "min".into(),
        "p25".into(),
        "median".into(),
        "p75".into(),
        "max".into(),
        "mean".into(),
    ]);
    for row in &rows {
        let s = DistSummary::of(&row.probabilities);
        t.row(vec![
            row.kind.name().into(),
            format!("{:.3}", s.min),
            format!("{:.3}", s.p25),
            format!("{:.3}", s.median),
            format!("{:.3}", s.p75),
            format!("{:.3}", s.max),
            format!("{:.3}", s.mean),
        ]);
    }
    let text = format!(
        "Figure 2 — P(prefetch discarded for crossing 4KB inside a 2MB page), original prefetchers\n{}",
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn probabilities_are_valid_and_nonzero_somewhere() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_workload_limit(6)
                .with_warmup(1_000)
                .with_instructions(6_000),
        );
        let rows = collect(&settings);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.probabilities.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // At least one (prefetcher, workload) pair must discard something —
        // the paper's headline motivation.
        assert!(rows.iter().flat_map(|r| &r.probabilities).any(|&p| p > 0.0));
    }
}
