//! Golden regression fixture for the new prefetcher families: a fig16-style
//! digest (IPC, speedup over each family's own Original run, miss coverage
//! and prefetch accuracy) for Pangloss and DSPatch across the full policy
//! matrix plus the Magic oracle, on two small bundled traces, diffed
//! against `tests/golden/fig16_digest.txt`. Any behavioural drift in the
//! new families — intentional or not — shows up as a line-level diff here,
//! exactly as `golden_stats` does for SPP.
//!
//! Regenerate after an intentional model change with:
//!
//! ```text
//! PSA_UPDATE_GOLDEN=1 cargo test -p psa-experiments --test golden_fig16
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

fn run(
    workload: &'static psa_traces::WorkloadSpec,
    kind: PrefetcherKind,
    policy: PageSizePolicy,
) -> RunReport {
    System::try_single_core(config(), workload, kind, policy)
        .expect("golden systems build")
        .try_run()
        .expect("golden runs are fault-free")
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
    out.push_str("golden digest: Pangloss and DSPatch variants on bundled traces\n");
    out.push_str("config: warmup 2000, instructions 8000, default machine\n");
    let variants: [(PageSizePolicy, bool); 5] = [
        (PageSizePolicy::Original, false),
        (PageSizePolicy::Psa, false),
        (PageSizePolicy::Psa2m, false),
        (PageSizePolicy::PsaSd, false),
        (PageSizePolicy::Psa, true),
    ];
    for kind in [PrefetcherKind::Pangloss, PrefetcherKind::Dspatch] {
        for name in ["lbm", "soplex"] {
            let w = runner::workload(name).unwrap();
            out.push_str(&format!("\n## {kind} / {name}\n"));
            let runs: Vec<(String, RunReport)> = variants
                .iter()
                .map(|&(policy, magic)| {
                    let label = if magic {
                        format!("{kind}-Magic{}", policy.suffix())
                    } else {
                        format!("{kind}{}", policy.suffix())
                    };
                    (label, run(w, kind, policy))
                })
                .collect();
            let orig = &runs[0].1;
            for (label, r) in &runs {
                out.push_str(&format!(
                    "ipc {label}: {:.6} cycles {} speedup {:.6}\n",
                    r.ipc(),
                    r.cycles,
                    r.ipc() / orig.ipc(),
                ));
            }
            for (label, r) in runs.iter().skip(1) {
                out.push_str(&format!(
                    "cov {label}: l2c {:.6} llc {:.6} acc l2c {} llc {}\n",
                    r.coverage_vs(orig.l2c.demand_misses, r.l2c.demand_misses),
                    r.coverage_vs(orig.llc.demand_misses, r.llc.demand_misses),
                    acc(r, false),
                    acc(r, true),
                ));
            }
        }
    }
    out
}

#[test]
fn new_family_digests_match_golden_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig16_digest.txt");
    psa_experiments::golden::check(path, &digest());
}
