//! Golden regression fixture: a per-figure-style summary digest (IPC and
//! speedups, miss coverage and prefetch accuracy, THP usage and
//! Set-Dueling steering trajectories) for two small bundled traces, diffed
//! against `tests/golden/digest.txt`. Any change to simulated statistics —
//! intentional or not — shows up as a line-level diff here.
//!
//! Regenerate after an intentional model change with:
//!
//! ```text
//! PSA_UPDATE_GOLDEN=1 cargo test -p psa-experiments --test golden_stats
//! ```

use psa_core::PageSizePolicy;
use psa_experiments::runner;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{RunReport, SimConfig, System};

/// A fixed configuration, independent of the `PSA_*` scaling knobs.
fn config() -> SimConfig {
    SimConfig::default()
        .with_warmup(2_000)
        .with_instructions(8_000)
}

fn run(workload: &'static psa_traces::WorkloadSpec, policy: Option<PageSizePolicy>) -> RunReport {
    let sys = match policy {
        Some(policy) => System::single_core(config(), workload, PrefetcherKind::Spp, policy),
        None => System::baseline(config(), workload),
    };
    sys.try_run().expect("golden runs are fault-free")
}

fn acc(r: &RunReport, llc: bool) -> String {
    let stats = if llc { r.llc } else { r.l2c };
    match r.accuracy(stats) {
        Some(a) => format!("{a:.6}"),
        None => "n/a".into(),
    }
}

fn digest() -> String {
    let mut out = String::new();
    out.push_str("golden digest: SPP variants on bundled traces\n");
    out.push_str("config: warmup 2000, instructions 8000, default machine\n");
    let policies = [
        PageSizePolicy::Original,
        PageSizePolicy::Psa,
        PageSizePolicy::Psa2m,
        PageSizePolicy::PsaSd,
    ];
    for name in ["lbm", "soplex"] {
        let w = runner::workload(name).unwrap();
        out.push_str(&format!("\n## {name}\n"));
        let base = run(w, None);
        let orig = run(w, Some(PageSizePolicy::Original));
        let runs: Vec<(String, RunReport)> = std::iter::once(("no-prefetch".into(), base))
            .chain(
                policies
                    .iter()
                    .map(|&p| (format!("SPP{}", p.suffix()), run(w, Some(p)))),
            )
            .collect();
        // fig08-style: IPC and speedup over the original prefetcher.
        for (label, r) in &runs {
            out.push_str(&format!(
                "ipc {label}: {:.6} cycles {} speedup {:.6}\n",
                r.ipc(),
                r.cycles,
                r.ipc() / orig.ipc(),
            ));
        }
        // fig10-style: miss coverage vs the original's misses, prefetch
        // accuracy, at both levels.
        for (label, r) in runs.iter().skip(2) {
            out.push_str(&format!(
                "cov {label}: l2c {:.6} llc {:.6} acc l2c {} llc {}\n",
                r.coverage_vs(orig.l2c.demand_misses, r.l2c.demand_misses),
                r.coverage_vs(orig.llc.demand_misses, r.llc.demand_misses),
                acc(r, false),
                acc(r, true),
            ));
        }
        // fig03-style trajectory plus the Set-Dueling steering outcome
        // (the integral of the Csel trajectory): which competitor the
        // PSA-SD module selected and issued through over the run.
        let sd = &runs.last().unwrap().1;
        let series: Vec<String> = sd
            .thp_series
            .iter()
            .map(|&(i, f)| format!("{i}:{f:.4}"))
            .collect();
        out.push_str(&format!("thp SPP-PSA-SD: [{}]\n", series.join(" ")));
        let m = sd.module.as_ref().expect("PSA-SD run has a module");
        out.push_str(&format!(
            "sd SPP-PSA-SD: selected {}/{} issued {}/{} candidates {} deduped {}\n",
            m.selected_by[0],
            m.selected_by[1],
            m.issued_by[0],
            m.issued_by[1],
            m.candidates,
            m.deduped,
        ));
    }
    out
}

#[test]
fn summary_digests_match_golden_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digest.txt");
    psa_experiments::golden::check(path, &digest());
}
