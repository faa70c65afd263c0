//! Every report the simulator hands back, pinned run by run: 192
//! single-core runs (lbm, mcf, soplex and omnetpp under eight variants,
//! with observability off and on, at three warm-ups including none) and
//! 48 multi-core runs (two 4-core mixes and one 2-core mix under the
//! same variants, at two warm-ups including none) must match
//! `crates/sim/tests/golden/report_digests.txt` line for line.
//!
//! Each single-core line carries the FNV-1a of the report's store bytes,
//! which hold every field of the report — the `debug` diagnostics and
//! `load_latency_max` included, which no figure golden reads — and, for
//! an observed run, the FNV-1a of the observability report's counters,
//! histogram summaries and per-kind event counts. Each multi-core line
//! carries the FNV-1a of the report's store bytes: the per-core IPC bits
//! and the shared LLC and DRAM counters. The measured window is what
//! these lines pin: a change to where a counter starts or stops shows up
//! here by run.
//!
//! Regenerate only after an intentional change to simulated behaviour,
//! with
//!
//! ```text
//! PSA_UPDATE_GOLDEN=1 cargo test --test report_digests
//! ```

use page_size_aware_prefetching::common::rng::fnv1a;
use page_size_aware_prefetching::experiments::golden;
use page_size_aware_prefetching::prefetchers::ModuleSpec;
use page_size_aware_prefetching::prelude::*;

const WORKLOADS: [&str; 4] = ["lbm", "mcf", "soplex", "omnetpp"];
const MIXES: [&[&str]; 3] = [
    &["lbm", "mcf", "milc", "soplex"],
    &["omnetpp", "GemsFDTD", "libquantum", "bwaves"],
    &["mcf", "lbm"],
];
const SINGLE_WARMUPS: [u64; 3] = [0, 1_500, 5_000];
const SINGLE_INSTRUCTIONS: u64 = 5_000;
const MULTI_WARMUPS: [u64; 2] = [0, 2_000];
const MULTI_INSTRUCTIONS: u64 = 3_000;

/// One variant: its label, the L1D prefetcher and the L2C module.
type VariantDef = (&'static str, L1dPrefKind, ModuleSpec);

fn variants() -> [VariantDef; 8] {
    use PageSizePolicy::{Original, Psa, Psa2m, PsaSd};
    use PrefetcherKind::{Bop, Pangloss, Spp};
    let none = L1dPrefKind::None;
    [
        ("no-prefetch", none, ModuleSpec::none()),
        ("IPCP++@L1D", L1dPrefKind::IpcpPlusPlus, ModuleSpec::none()),
        ("SPP", none, ModuleSpec::pref(Spp, Original)),
        ("SPP-PSA", none, ModuleSpec::pref(Spp, Psa)),
        ("SPP-PSA-2MB", none, ModuleSpec::pref(Spp, Psa2m)),
        ("SPP-PSA-SD", none, ModuleSpec::pref(Spp, PsaSd)),
        ("BOP-PSA-2MB", none, ModuleSpec::pref(Bop, Psa2m)),
        ("Pangloss-PSA-SD", none, ModuleSpec::pref(Pangloss, PsaSd)),
    ]
}

/// `PSA_CHECK=1 cargo test` runs every one of these machines under the
/// invariant audits too.
fn check() -> bool {
    RunnerOptions::from_env()
        .expect("PSA_* variables parse")
        .check
        .unwrap_or(false)
}

/// Everything an observed run's observability report counts, as text.
/// The sampled event timeline is left out: its per-kind `seen` counts
/// are exact and cover it.
fn obs_text(obs: &ObsReport) -> String {
    let mut out = String::new();
    for (name, value) in &obs.counters {
        out.push_str(&format!("{name}={value};"));
    }
    for (name, h) in &obs.histograms {
        out.push_str(&format!(
            "{name}:{}/{}/{}/{:016x}/{:?};",
            h.total,
            h.sum,
            h.max,
            h.mean.to_bits(),
            h.buckets
        ));
    }
    for (name, seen) in &obs.seen {
        out.push_str(&format!("{name}#{seen};"));
    }
    out
}

fn digests() -> String {
    let check = check();
    let mut out = String::from(
        "# single: workload variant warmup obs report-digest [obs-digest]; \
         multi: mix variant warmup report-digest\n",
    );
    for name in WORKLOADS {
        let w = catalog::workload(name).expect("catalog entry");
        for (label, l1d, spec) in variants() {
            for warmup in SINGLE_WARMUPS {
                for observed in [false, true] {
                    let mut config = SimConfig::default()
                        .with_warmup(warmup)
                        .with_instructions(SINGLE_INSTRUCTIONS)
                        .with_module_spec(spec)
                        .with_check(check);
                    config.l1d_prefetcher = l1d;
                    if observed {
                        config = config.with_obs(ObsConfig::on());
                    }
                    let (report, obs) = System::try_from_spec(config, &[w])
                        .and_then(System::try_run_observed)
                        .unwrap_or_else(|e| panic!("{name}/{label}/{warmup}: {e}"));
                    let mut line = format!(
                        "single {name} {label} {warmup} {} {:016x}",
                        if observed { "obs" } else { "plain" },
                        fnv1a(&report.to_store_bytes())
                    );
                    assert_eq!(obs.is_some(), observed, "{name}/{label}/{warmup}");
                    if let Some(obs) = obs {
                        line.push_str(&format!(" {:016x}", fnv1a(obs_text(&obs).as_bytes())));
                    }
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
    }
    for mix in MIXES {
        let specs: Vec<&WorkloadSpec> = mix
            .iter()
            .map(|&n| catalog::workload(n).expect("catalog entry"))
            .collect();
        for (label, l1d, spec) in variants() {
            for warmup in MULTI_WARMUPS {
                let mut config = SimConfig::for_cores(mix.len())
                    .with_warmup(warmup)
                    .with_instructions(MULTI_INSTRUCTIONS)
                    .with_module_spec(spec)
                    .with_check(check);
                config.l1d_prefetcher = l1d;
                let report = System::try_from_spec(config, &specs)
                    .and_then(System::try_run_multi)
                    .unwrap_or_else(|e| panic!("{}/{label}/{warmup}: {e}", mix.join("+")));
                out.push_str(&format!(
                    "multi {} {label} {warmup} {:016x}\n",
                    mix.join("+"),
                    fnv1a(&report.to_store_bytes())
                ));
            }
        }
    }
    out
}

#[test]
fn every_report_matches_golden_digests() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/sim/tests/golden/report_digests.txt"
    );
    golden::check(path, &digests());
}
