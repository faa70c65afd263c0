//! Figure 11: selection-logic implementations compared. For the PSA-SD
//! versions of SPP, VLDP and PPF (BOP degenerates):
//!
//! * **SD-Standard** — original Set Dueling: train each competitor only
//!   when selected;
//! * **SD-Page-Size** — no dueling: pick the competitor matching the
//!   accessed block's page size;
//! * **SD-Proposed** — the paper's scheme (train both on all accesses);
//! * **ISO Storage** — the original prefetcher with its storage budget
//!   doubled, to show the SD gains are not just "more SRAM".

use psa_common::{geomean, table::pct, Table};
use psa_core::{PageSizePolicy, SdConfig, SelectPolicy, TrainPolicy};
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, SimConfig};

use crate::runner::{self, Settings, Variant};

/// The selection-logic alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Logic {
    /// Original Set Dueling (train selected only).
    SdStandard,
    /// Blind page-size-based selection.
    SdPageSize,
    /// The paper's proposal.
    SdProposed,
    /// Original prefetcher with a doubled storage budget.
    IsoStorage,
}

impl Logic {
    /// All alternatives, in the paper's bar order.
    pub const ALL: [Logic; 4] = [
        Logic::SdStandard,
        Logic::SdPageSize,
        Logic::SdProposed,
        Logic::IsoStorage,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Logic::SdStandard => "SD-Standard",
            Logic::SdPageSize => "SD-Page-Size",
            Logic::SdProposed => "SD-Proposed",
            Logic::IsoStorage => "ISO Storage",
        }
    }

    /// The configuration this logic's runs use: its Set-Dueling policy,
    /// and for ISO Storage every prefetcher table doubled.
    fn config(self, mut config: SimConfig) -> SimConfig {
        config.sd = match self {
            Logic::SdStandard => SdConfig {
                train: TrainPolicy::SelectedOnly,
                ..SdConfig::default()
            },
            Logic::SdPageSize => SdConfig {
                select: SelectPolicy::PageSize,
                ..SdConfig::default()
            },
            Logic::SdProposed | Logic::IsoStorage => SdConfig::default(),
        };
        if self == Logic::IsoStorage {
            config.module_spec = config.module_spec.with_storage_scale(2);
        }
        config
    }

    /// What `kind` runs as under this logic: its PSA-SD version, or for
    /// ISO Storage the original prefetcher.
    fn variant(self, kind: PrefetcherKind) -> Variant {
        match self {
            Logic::IsoStorage => Variant::Pref(kind, PageSizePolicy::Original),
            _ => Variant::Pref(kind, PageSizePolicy::PsaSd),
        }
    }
}

/// Geomean speedups over the original prefetcher for each logic.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Prefetcher.
    pub kind: PrefetcherKind,
    /// Geomeans in [`Logic::ALL`] order.
    pub speedups: [f64; 4],
}

/// Run the ablation. A workload whose Original baseline failed is not
/// swept. Each logic runs in its own configuration and its own
/// `fig11/<logic>` scope, so a faulty cell is a gap (the workload drops
/// out of that logic's geomean) instead of aborting the figure.
pub fn collect(settings: &Settings) -> Vec<Fig11Row> {
    let kinds = [
        PrefetcherKind::Spp,
        PrefetcherKind::Vldp,
        PrefetcherKind::Ppf,
    ];
    let workloads = settings.workloads();
    kinds
        .into_iter()
        .map(|kind| {
            let orig = Variant::Pref(kind, PageSizePolicy::Original);
            let mut base_cache = settings.cache();
            let base = base_cache.rows(settings.config, &workloads, &[orig]);
            let survivors: Vec<_> = base.iter().map(|&(w, _)| w).collect();
            let speedups = Logic::ALL.map(|logic| {
                let mut cache = settings.cache().scoped(format!("fig11/{}", logic.label()));
                let config = logic.config(settings.config);
                let rows = cache.rows(config, &survivors, &[logic.variant(kind)]);
                geomean(&runner::speedups_over(&rows, &base))
            });
            Fig11Row { kind, speedups }
        })
        .collect()
}

/// Text rendering plus the `BENCH_fig11.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let rows = collect(settings);
    let json_rows = Json::Arr(
        rows.iter()
            .map(|r| {
                let mut obj = Json::obj([("prefetcher", Json::str(r.kind.name()))]);
                for (logic, &s) in Logic::ALL.iter().zip(&r.speedups) {
                    obj.push(
                        logic.label().to_lowercase().replace([' ', '-'], "_"),
                        Json::Num(s),
                    );
                }
                obj
            })
            .collect(),
    );
    let doc = runner::doc(
        "fig11",
        "selection-logic ablation, geomean speedup over original",
        settings,
        json_rows,
    );
    let mut t = Table::new(vec![
        "prefetcher".into(),
        "SD-Standard %".into(),
        "SD-Page-Size %".into(),
        "SD-Proposed %".into(),
        "ISO Storage %".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.kind.name().into(),
            pct((r.speedups[0] - 1.0) * 100.0),
            pct((r.speedups[1] - 1.0) * 100.0),
            pct((r.speedups[2] - 1.0) * 100.0),
            pct((r.speedups[3] - 1.0) * 100.0),
        ]);
    }
    let text = format!(
        "Figure 11 — selection-logic ablation, geomean speedup over original (%)\n{}",
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn iso_storage_spec_really_doubles_storage() {
        use psa_core::IndexGrain;
        for kind in PrefetcherKind::EVALUATED {
            let normal = kind.build(IndexGrain::Page4K).storage_bytes() as f64;
            let doubled = kind.build_scaled(IndexGrain::Page4K, 2).storage_bytes() as f64;
            assert!(
                doubled / normal > 1.5 && doubled / normal < 2.5,
                "{kind}: {normal} vs {doubled}"
            );
        }
    }

    #[test]
    fn ablation_runs_on_a_small_slice() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_workload_limit(4)
                .with_warmup(1_000)
                .with_instructions(5_000),
        );
        let rows = collect(&settings);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            for s in r.speedups {
                assert!(s > 0.2 && s < 5.0, "{}: implausible speedup {s}", r.kind);
            }
        }
    }
}
