//! Figure 12: constrained evaluation. Geomean speedups of the PSA and
//! PSA-SD versions over each original prefetcher under (A) L2C MSHR sizes
//! 8–128, (B) LLC capacities 256KB–2MB, and (C) DRAM rates 400–6400 MT/s.

use psa_common::{geomean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, SimConfig};

use crate::runner::{self, Settings, Variant};

/// Which knob a sweep turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// (A) L2C MSHR entries.
    L2cMshr(usize),
    /// (B) LLC bytes.
    LlcBytes(u64),
    /// (C) DRAM MT/s.
    DramMts(u64),
}

impl Knob {
    fn apply(self, mut config: SimConfig) -> SimConfig {
        match self {
            Knob::L2cMshr(n) => config.l2c.mshr_entries = n,
            Knob::LlcBytes(b) => config.llc.bytes = b,
            Knob::DramMts(mts) => config.dram.mts = mts,
        }
        config
    }

    fn label(self) -> String {
        match self {
            Knob::L2cMshr(n) => format!("{n}-entry MSHR"),
            Knob::LlcBytes(b) => format!("{}KB LLC", b >> 10),
            Knob::DramMts(m) => format!("{m} MT/s"),
        }
    }
}

/// The paper's sweep points.
pub fn sweep_points() -> Vec<(&'static str, Vec<Knob>)> {
    vec![
        (
            "A: L2C MSHR",
            vec![8, 16, 32, 64, 128]
                .into_iter()
                .map(Knob::L2cMshr)
                .collect(),
        ),
        (
            "B: LLC size",
            vec![256 << 10, 512 << 10, 1 << 20, 2 << 20]
                .into_iter()
                .map(Knob::LlcBytes)
                .collect(),
        ),
        (
            "C: DRAM rate",
            vec![400, 800, 1600, 3200, 6400]
                .into_iter()
                .map(Knob::DramMts)
                .collect(),
        ),
    ]
}

/// One sweep point's geomeans for a prefetcher.
#[derive(Debug, Clone)]
pub struct Fig12Cell {
    /// Prefetcher.
    pub kind: PrefetcherKind,
    /// The knob setting.
    pub knob: Knob,
    /// Geomean of PSA over original.
    pub psa: f64,
    /// Geomean of PSA-SD over original.
    pub psa_sd: f64,
}

/// Run one panel's sweep for the given prefetchers.
pub fn collect(settings: &Settings, kinds: &[PrefetcherKind], knobs: &[Knob]) -> Vec<Fig12Cell> {
    let mut out = Vec::new();
    let workloads = settings.workloads();
    for &knob in knobs {
        let config = knob.apply(settings.config);
        for &kind in kinds {
            let mut cache = settings.cache();
            let base = Variant::Pref(kind, PageSizePolicy::Original);
            let jobs: Vec<_> = workloads
                .iter()
                .flat_map(|&w| {
                    [
                        PageSizePolicy::Original,
                        PageSizePolicy::Psa,
                        PageSizePolicy::PsaSd,
                    ]
                    .into_iter()
                    .map(move |policy| (w, Variant::Pref(kind, policy)))
                })
                .collect();
            cache.run_batch_refs(config, &jobs);
            let mut psa = Vec::new();
            let mut sd = Vec::new();
            for &w in &workloads {
                psa.push(cache.speedup_ref(
                    config,
                    w,
                    Variant::Pref(kind, PageSizePolicy::Psa),
                    base,
                ));
                sd.push(cache.speedup_ref(
                    config,
                    w,
                    Variant::Pref(kind, PageSizePolicy::PsaSd),
                    base,
                ));
            }
            out.push(Fig12Cell {
                kind,
                knob,
                psa: geomean(&psa),
                psa_sd: geomean(&sd),
            });
        }
    }
    out
}

/// Render all three panels. `kinds` defaults to all four in the bench;
/// tests pass a subset.
pub fn run_with(settings: &Settings, kinds: &[PrefetcherKind]) -> String {
    report_with(settings, kinds).0
}

/// Text rendering plus the `BENCH_fig12.json` document.
pub fn report_with(settings: &Settings, kinds: &[PrefetcherKind]) -> (String, Json) {
    let mut out = String::from("Figure 12 — constrained evaluation, geomean over original (%)\n");
    let mut panels = Vec::new();
    for (panel, knobs) in sweep_points() {
        let cells = collect(settings, kinds, &knobs);
        panels.push(Json::obj([
            ("panel", Json::str(panel)),
            (
                "cells",
                Json::Arr(
                    cells
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("setting", Json::str(c.knob.label())),
                                ("prefetcher", Json::str(c.kind.name())),
                                ("psa_geomean", Json::Num(c.psa)),
                                ("psa_sd_geomean", Json::Num(c.psa_sd)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        let mut t = Table::new(vec![
            "setting".into(),
            "prefetcher".into(),
            "PSA %".into(),
            "PSA-SD %".into(),
        ]);
        for c in &cells {
            t.row(vec![
                c.knob.label(),
                c.kind.name().into(),
                pct((c.psa - 1.0) * 100.0),
                pct((c.psa_sd - 1.0) * 100.0),
            ]);
        }
        out.push_str(&format!("\nPanel {panel}\n{}", t.render()));
    }
    let doc = runner::doc(
        "fig12",
        "constrained evaluation, geomean over original",
        settings,
        Json::Arr(panels),
    );
    (out, doc)
}

/// Render with all four evaluated prefetchers.
pub fn run(settings: &Settings) -> String {
    run_with(settings, &PrefetcherKind::EVALUATED)
}

/// JSON report with all four evaluated prefetchers.
pub fn report(settings: &Settings) -> (String, Json) {
    report_with(settings, &PrefetcherKind::EVALUATED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn knobs_apply_to_config() {
        let base = SimConfig::default();
        assert_eq!(Knob::L2cMshr(8).apply(base).l2c.mshr_entries, 8);
        assert_eq!(Knob::LlcBytes(256 << 10).apply(base).llc.bytes, 256 << 10);
        assert_eq!(Knob::DramMts(400).apply(base).dram.mts, 400);
    }

    #[test]
    fn sweep_matches_paper_points() {
        let points = sweep_points();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].1.len(), 5);
        assert_eq!(points[2].1.len(), 5);
    }

    #[test]
    fn tiny_sweep_runs() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_workload_limit(3)
                .with_warmup(1_000)
                .with_instructions(4_000),
        );
        let cells = collect(
            &settings,
            &[PrefetcherKind::Spp],
            &[Knob::DramMts(800), Knob::DramMts(3200)],
        );
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.psa > 0.2 && c.psa_sd > 0.2));
    }
}
