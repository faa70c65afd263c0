//! Figure 10: sources of the performance enhancements. For SPP-PSA and
//! SPP-PSA-SD over SPP original, on 14 representative workloads plus the
//! mean: speedup, L2C/LLC access-latency reduction, L2C/LLC miss coverage
//! and L2C/LLC prefetch-accuracy delta.

use psa_common::{stats::mean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, RunReport};
use psa_traces::catalog;

use crate::runner::{self, Settings, Variant};

/// The per-workload metric deltas of one PSA variant vs SPP original.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload name.
    pub name: &'static str,
    /// Speedup ratio over SPP original.
    pub speedup: f64,
    /// L2C access-latency reduction (%) — positive is better.
    pub l2c_latency_reduction: f64,
    /// LLC access-latency reduction (%).
    pub llc_latency_reduction: f64,
    /// L2C miss coverage vs original's misses (%).
    pub l2c_coverage: f64,
    /// LLC miss coverage (%).
    pub llc_coverage: f64,
    /// L2C accuracy delta (percentage points).
    pub l2c_accuracy_delta: f64,
    /// LLC accuracy delta (percentage points).
    pub llc_accuracy_delta: f64,
}

fn accuracy(r: &RunReport, llc: bool) -> f64 {
    let stats = if llc { r.llc } else { r.l2c };
    r.accuracy(stats).unwrap_or(0.0) * 100.0
}

fn latency_reduction(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

/// Compute the rows for one variant.
pub fn collect(settings: &Settings, policy: PageSizePolicy) -> Vec<Fig10Row> {
    let mut cache = settings.cache();
    let kind = PrefetcherKind::Spp;
    let workloads: Vec<_> = catalog::FIG10_SET
        .iter()
        .map(|name| runner::workload(name).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let variants = [
        Variant::Pref(kind, PageSizePolicy::Original),
        Variant::Pref(kind, policy),
    ];
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|&w| variants.into_iter().map(move |v| (w, v)))
        .collect();
    cache.run_batch_refs(settings.config, &jobs);
    // A failed workload leaves an explicit gap (its row is dropped); the
    // fault itself is recorded in the document's `failures` array.
    cache
        .surviving_refs(&workloads, &variants)
        .into_iter()
        .map(|w| {
            let orig = cache
                .run_ref(
                    settings.config,
                    w,
                    Variant::Pref(kind, PageSizePolicy::Original),
                )
                .clone();
            let new = cache
                .run_ref(settings.config, w, Variant::Pref(kind, policy))
                .clone();
            Fig10Row {
                name: w.name,
                speedup: if orig.ipc() > 0.0 {
                    new.ipc() / orig.ipc()
                } else {
                    1.0
                },
                l2c_latency_reduction: latency_reduction(orig.l2c_avg_latency, new.l2c_avg_latency),
                llc_latency_reduction: latency_reduction(orig.llc_avg_latency, new.llc_avg_latency),
                l2c_coverage: new.coverage_vs(orig.l2c.demand_misses, new.l2c.demand_misses)
                    * 100.0,
                llc_coverage: new.coverage_vs(orig.llc.demand_misses, new.llc.demand_misses)
                    * 100.0,
                l2c_accuracy_delta: accuracy(&new, false) - accuracy(&orig, false),
                llc_accuracy_delta: accuracy(&new, true) - accuracy(&orig, true),
            }
        })
        .collect()
}

/// Render the figure for both variants.
pub fn run(settings: &Settings) -> String {
    report(settings).0
}

fn row_json(r: &Fig10Row) -> Json {
    Json::obj([
        ("workload", Json::str(r.name)),
        ("speedup", Json::Num(r.speedup)),
        (
            "l2c_latency_reduction_pct",
            Json::Num(r.l2c_latency_reduction),
        ),
        (
            "llc_latency_reduction_pct",
            Json::Num(r.llc_latency_reduction),
        ),
        ("l2c_coverage_pct", Json::Num(r.l2c_coverage)),
        ("llc_coverage_pct", Json::Num(r.llc_coverage)),
        ("l2c_accuracy_delta_pp", Json::Num(r.l2c_accuracy_delta)),
        ("llc_accuracy_delta_pp", Json::Num(r.llc_accuracy_delta)),
    ])
}

/// Text rendering plus the `BENCH_fig10.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let mut out = String::from("Figure 10 — sources of improvement (vs SPP original)\n");
    let mut variants = Vec::new();
    for policy in [PageSizePolicy::Psa, PageSizePolicy::PsaSd] {
        let rows = collect(settings, policy);
        variants.push(Json::obj([
            ("variant", Json::str(format!("SPP{}", policy.suffix()))),
            ("rows", Json::Arr(rows.iter().map(row_json).collect())),
        ]));
        let mut t = Table::new(vec![
            "workload".into(),
            "speedup %".into(),
            "L2C lat red %".into(),
            "LLC lat red %".into(),
            "L2C cov %".into(),
            "LLC cov %".into(),
            "L2C acc Δpp".into(),
            "LLC acc Δpp".into(),
        ]);
        for r in &rows {
            t.row(vec![
                r.name.into(),
                pct((r.speedup - 1.0) * 100.0),
                pct(r.l2c_latency_reduction),
                pct(r.llc_latency_reduction),
                pct(r.l2c_coverage),
                pct(r.llc_coverage),
                pct(r.l2c_accuracy_delta),
                pct(r.llc_accuracy_delta),
            ]);
        }
        let m = |f: fn(&Fig10Row) -> f64| pct(mean(&rows.iter().map(f).collect::<Vec<_>>()));
        t.row(vec![
            "Mean".into(),
            m(|r| (r.speedup - 1.0) * 100.0),
            m(|r| r.l2c_latency_reduction),
            m(|r| r.llc_latency_reduction),
            m(|r| r.l2c_coverage),
            m(|r| r.llc_coverage),
            m(|r| r.l2c_accuracy_delta),
            m(|r| r.llc_accuracy_delta),
        ]);
        out.push_str(&format!("\nSPP{}\n{}", policy.suffix(), t.render()));
    }
    let doc = runner::doc(
        "fig10",
        "sources of improvement (vs SPP original)",
        settings,
        Json::Arr(variants),
    );
    (out, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn metrics_are_finite_and_cover_the_set() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_warmup(2_000)
                .with_instructions(8_000),
        );
        let rows = collect(&settings, PageSizePolicy::Psa);
        assert_eq!(rows.len(), 14);
        for r in &rows {
            for v in [
                r.speedup,
                r.l2c_latency_reduction,
                r.llc_latency_reduction,
                r.l2c_coverage,
                r.llc_coverage,
                r.l2c_accuracy_delta,
                r.llc_accuracy_delta,
            ] {
                assert!(v.is_finite(), "{}: non-finite metric", r.name);
            }
        }
    }
}
