//! Figure 13: comparison with state-of-the-art L1D prefetching. Speedups
//! over a no-prefetch baseline for: next-line (L1D), IPCP, IPCP++ (may
//! cross 4KB when the target page is TLB resident), and the PSA / PSA-SD
//! versions of the four L2C prefetchers.

use psa_common::{geomean, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, L1dPrefKind};

use crate::runner::{self, Settings, Variant};

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Fig13Bar {
    /// Label as in the paper.
    pub label: String,
    /// Geomean speedup ratio over the no-prefetch baseline.
    pub speedup: f64,
}

const L1D_KINDS: [L1dPrefKind; 3] = [
    L1dPrefKind::NextLine,
    L1dPrefKind::Ipcp,
    L1dPrefKind::IpcpPlusPlus,
];

/// The figure's (label, variant) bar list, in the paper's order.
fn bar_variants() -> Vec<(String, Variant)> {
    let mut out: Vec<(String, Variant)> = L1D_KINDS
        .into_iter()
        .map(|l1d| (l1d.to_string(), Variant::L1d(l1d)))
        .collect();
    for kind in PrefetcherKind::EVALUATED {
        for policy in [PageSizePolicy::Psa, PageSizePolicy::PsaSd] {
            if kind == PrefetcherKind::Bop && policy == PageSizePolicy::PsaSd {
                continue; // identical to BOP-PSA (§VI-B1)
            }
            out.push((
                format!("{}{}", kind.name(), policy.suffix()),
                Variant::Pref(kind, policy),
            ));
        }
    }
    out
}

/// Run the comparison.
pub fn collect(settings: &Settings) -> Vec<Fig13Bar> {
    let bars = bar_variants();
    let mut variants = vec![Variant::NoPrefetch];
    variants.extend(bars.iter().map(|&(_, v)| v));
    // A failed workload drops out of every bar's geomean; the fault is
    // recorded in the document's `failures` array.
    let mut cache = settings.cache();
    let rows = cache.rows(settings.config, &settings.workloads(), &variants);
    bars.into_iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let per: Vec<f64> = rows
                .iter()
                .map(|(_, r)| runner::speedup(r[i + 1].ipc(), r[0].ipc()))
                .collect();
            Fig13Bar {
                label,
                speedup: geomean(&per),
            }
        })
        .collect()
}

/// Text rendering plus the `BENCH_fig13.json` document.
pub fn report(settings: &Settings) -> (String, Json) {
    let bars = collect(settings);
    let mut t = Table::new(vec!["configuration".into(), "speedup ×".into()]);
    for b in &bars {
        t.row(vec![b.label.clone(), format!("{:.3}", b.speedup)]);
    }
    let text = format!(
        "Figure 13 — vs L1D prefetching, geomean speedup over no-prefetch baseline\n{}",
        t.render()
    );
    let json_rows = Json::Arr(
        bars.iter()
            .map(|b| {
                Json::obj([
                    ("configuration", Json::str(&b.label)),
                    ("geomean_speedup", Json::Num(b.speedup)),
                ])
            })
            .collect(),
    );
    let doc = runner::doc(
        "fig13",
        "vs L1D prefetching, geomean speedup over no-prefetch baseline",
        settings,
        json_rows,
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;

    #[test]
    fn bars_cover_l1d_and_l2c_configurations() {
        let settings = Settings::new(
            RunnerOptions::default()
                .with_workload_limit(4)
                .with_warmup(1_000)
                .with_instructions(5_000),
        );
        let bars = collect(&settings);
        // 3 L1D bars + (3 prefetchers × 2 variants) + BOP-PSA = 10.
        assert_eq!(bars.len(), 10);
        assert!(bars.iter().any(|b| b.label == "IPCP++"));
        assert!(bars.iter().any(|b| b.label == "SPP-PSA-SD"));
        assert!(bars.iter().all(|b| b.speedup > 0.2 && b.speedup < 10.0));
    }
}
