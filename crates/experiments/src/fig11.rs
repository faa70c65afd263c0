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
use psa_prefetchers::{ModuleSpec, PrefetcherKind};
use psa_sim::{Json, SimError, System};

use crate::ckpt;
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
}

fn sd_config(logic: Logic) -> SdConfig {
    match logic {
        Logic::SdStandard => SdConfig {
            train: TrainPolicy::SelectedOnly,
            ..SdConfig::default()
        },
        Logic::SdPageSize => SdConfig {
            select: SelectPolicy::PageSize,
            ..SdConfig::default()
        },
        Logic::SdProposed | Logic::IsoStorage => SdConfig::default(),
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

/// The journal/injection label of one (kind, logic) cell's jobs.
fn job_label(kind: PrefetcherKind, logic: Logic) -> String {
    format!("fig11/{}/{}", kind.name(), logic.label())
}

/// Simulate one (kind, logic, workload) cell — a custom-configured run
/// outside the `(workload, variant)` memo key space. The warm-up shares
/// through the checkpoint store; every cell (ISO Storage included) is
/// now fully described by its `SimConfig`'s [`ModuleSpec`], so the
/// snapshot key captures the module shape directly.
fn logic_ipc(
    settings: &Settings,
    kind: PrefetcherKind,
    logic: Logic,
    w: &'static psa_traces::WorkloadSpec,
    env: &runner::JobEnv,
) -> Result<f64, SimError> {
    let mut config = env.config(settings.config);
    config.sd = sd_config(logic);
    let (build, ckpt_label): (Box<dyn Fn() -> Result<System, SimError>>, String) = match logic {
        Logic::IsoStorage => {
            let config = config.with_module_spec(
                ModuleSpec::pref(kind, PageSizePolicy::Original).with_storage_scale(2),
            );
            (
                Box::new(move || System::try_from_spec(config, &[w])),
                job_label(kind, logic),
            )
        }
        // The plain builds are fully described by (config, kind, policy),
        // so the variant label keys them — identical machines elsewhere
        // in the process share the same warm state.
        _ => (
            Box::new(move || System::try_single_core(config, w, kind, PageSizePolicy::PsaSd)),
            Variant::Pref(kind, PageSizePolicy::PsaSd).label(),
        ),
    };
    let sys = ckpt::warm_via_checkpoint(&settings.ctx, &*build, &ckpt_label)?;
    Ok(sys.try_run()?.ipc())
}

/// Run the ablation. The Original baselines run through the parallel
/// batch executor ([`runner::RunCache::rows`]; a workload whose baseline
/// failed is not swept). Each logic's custom-configured runs fan out
/// with [`runner::parallel_map_isolated`], so a faulty cell becomes a gap
/// (the workload drops out of that logic's geomean) instead of aborting
/// the figure.
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
            let base = Variant::Pref(kind, PageSizePolicy::Original);
            let (survivors, base_ipc): (Vec<&psa_traces::WorkloadSpec>, Vec<f64>) = settings
                .cache()
                .rows(settings.config, &workloads, &[base])
                .into_iter()
                .map(|(w, r)| (w, r[0].ipc()))
                .unzip();
            let speedups = Logic::ALL.map(|logic| {
                let ipcs = runner::parallel_map_isolated(
                    &settings.ctx,
                    &survivors,
                    |&w| runner::JobSpec {
                        workload: w.name,
                        label: job_label(kind, logic),
                    },
                    |&w, env| logic_ipc(settings, kind, logic, w, env),
                );
                // Gaps: a failed cell drops the workload from this
                // geomean; the failure is journalled in the document's
                // `failures` array.
                let per: Vec<f64> = ipcs
                    .into_iter()
                    .zip(&base_ipc)
                    .filter_map(|(ipc, &orig)| Some(runner::speedup(ipc?, orig)))
                    .collect();
                geomean(&per)
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
