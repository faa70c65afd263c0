//! Figures 14 and 15: multi-core evaluation. Weighted speedups (§V-B) of
//! the PSA and PSA-SD versions over each prefetcher's original, across
//! random 4-core and 8-core mixes.

use psa_common::{geomean, stats::weighted_speedup, DistSummary, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, SimConfig};
use psa_traces::mixes::random_mixes;

use crate::runner::{self, Settings, Variant};

/// The distribution of per-mix weighted speedups for one configuration.
#[derive(Debug, Clone)]
pub struct MultiBar {
    /// Label, e.g. "SPP-PSA-SD".
    pub label: String,
    /// Weighted speedup per mix.
    pub per_mix: Vec<f64>,
}

/// The seven bar configurations of Figures 14/15.
pub fn bar_set() -> Vec<(PrefetcherKind, PageSizePolicy)> {
    vec![
        (PrefetcherKind::Spp, PageSizePolicy::Psa),
        (PrefetcherKind::Spp, PageSizePolicy::PsaSd),
        (PrefetcherKind::Vldp, PageSizePolicy::Psa),
        (PrefetcherKind::Vldp, PageSizePolicy::PsaSd),
        (PrefetcherKind::Ppf, PageSizePolicy::Psa),
        (PrefetcherKind::Ppf, PageSizePolicy::PsaSd),
        (PrefetcherKind::Bop, PageSizePolicy::Psa),
    ]
}

/// Run the evaluation for `cores`-wide mixes.
///
/// Two batches do the work: every mix member alone on the one-core
/// machine shape under every Original prefetcher (the isolation IPCs,
/// scoped `isolation`), then every mix under every Original and bar
/// variant. Each bar then reads its mixes and its Original baselines
/// back from the cache. Every simulation is seed-deterministic, so the
/// output matches the serial order exactly. A faulty job drops the
/// affected mixes from the bar's distribution (an explicit gap,
/// journalled in the document's `failures` array) instead of aborting
/// the figure.
pub fn collect(settings: &Settings, cores: usize) -> Vec<MultiBar> {
    let mut config = SimConfig::for_cores(cores);
    config.warmup = settings.config.warmup;
    config.instructions = settings.config.instructions;
    config.seed = settings.config.seed;
    let solo = SimConfig { cores: 1, ..config };
    let mixes = random_mixes(settings.mixes(), cores, config.seed);
    let bars: Vec<(Variant, Variant)> = bar_set()
        .into_iter()
        .map(|(kind, policy)| {
            let orig = Variant::Pref(kind, PageSizePolicy::Original);
            (Variant::Pref(kind, policy), orig)
        })
        .collect();
    let mut variants: Vec<Variant> = Vec::new();
    for &(_, orig) in &bars {
        if !variants.contains(&orig) {
            variants.push(orig);
        }
    }
    let mut iso = settings.cache().scoped("isolation");
    iso.rows(solo, &mixes.concat(), &variants);
    variants.extend(bars.iter().map(|&(bar, _)| bar));
    let mut multi = settings.cache();
    multi.mix_rows(config, &mixes, &variants);
    bars.into_iter()
        .map(|(bar, orig)| {
            // Gaps: a mix contributes only when its evaluation, its
            // Original baseline and every member's isolation run all
            // completed.
            let per_mix = multi
                .mix_rows(config, &mixes, &[bar, orig])
                .into_iter()
                .filter_map(|(mix, r)| {
                    let isolation: Vec<f64> = iso
                        .rows(solo, mix, &[orig])
                        .iter()
                        .map(|(_, r)| r[0].ipc())
                        .collect();
                    (isolation.len() == mix.len())
                        .then(|| weighted_speedup(&r[0].ipc, &r[1].ipc, &isolation))
                })
                .collect();
            MultiBar {
                label: bar.label(),
                per_mix,
            }
        })
        .collect()
}

/// Text rendering plus the `BENCH_fig14.json` / `BENCH_fig15.json`
/// document (4-core → Figure 14, 8-core → Figure 15).
pub fn report(settings: &Settings, cores: usize) -> (String, Json) {
    let bars = collect(settings, cores);
    let figure = if cores == 4 { "fig14" } else { "fig15" };
    let json_rows = Json::Arr(
        bars.iter()
            .map(|b| {
                Json::obj([
                    ("configuration", Json::str(&b.label)),
                    ("geomean_weighted_speedup", Json::Num(geomean(&b.per_mix))),
                    (
                        "per_mix_weighted_speedup",
                        Json::Arr(b.per_mix.iter().map(|&s| Json::Num(s)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let mut doc = runner::doc(
        figure,
        "multi-core weighted speedups over each original",
        settings,
        json_rows,
    );
    doc.push("cores", Json::uint(cores as u64));
    doc.push(
        "mixes",
        Json::uint(bars.first().map_or(0, |b| b.per_mix.len()) as u64),
    );
    let mut t = Table::new(vec![
        "configuration".into(),
        "geomean %".into(),
        "distribution (weighted speedup %)".into(),
    ]);
    for b in &bars {
        let pcts: Vec<f64> = b.per_mix.iter().map(|s| (s - 1.0) * 100.0).collect();
        let g = (geomean(&b.per_mix) - 1.0) * 100.0;
        t.row(vec![
            b.label.clone(),
            format!("{g:+.1}"),
            DistSummary::of(&pcts).to_string(),
        ]);
    }
    let text = format!(
        "Figure {} — {}-core weighted speedups over each original, {} mixes\n{}",
        if cores == 4 { 14 } else { 15 },
        cores,
        bars.first().map_or(0, |b| b.per_mix.len()),
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn two_core_smoke() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_mixes(2)
                .with_warmup(500)
                .with_instructions(2_500),
        );
        let bars = collect(&settings, 2);
        assert_eq!(bars.len(), 7);
        for b in &bars {
            assert_eq!(b.per_mix.len(), 2);
            assert!(
                b.per_mix.iter().all(|&s| s > 0.2 && s < 5.0),
                "{}: {:?}",
                b.label,
                b.per_mix
            );
        }
    }
}
