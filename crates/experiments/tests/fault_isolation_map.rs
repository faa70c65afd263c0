//! Fault isolation for the `parallel_map_isolated` figure paths:
//! injected panics and watchdog stalls inside fig11-style and
//! fig14-style jobs must become explicit gaps plus `failures` entries,
//! while untouched cells stay bit-identical to a clean run.

use psa_experiments::{fig11, fig1415, RunnerOptions, Settings};
use psa_sim::SimConfig;
use psa_traces::mixes::random_mixes;

fn quick() -> SimConfig {
    SimConfig::default()
        .with_warmup(1_000)
        .with_instructions(4_000)
}

/// Settings over three workloads and two mixes, two threads, with the
/// given fault injections.
fn settings(inject_panic: Option<String>, inject_stall: Option<String>) -> Settings {
    Settings {
        config: quick(),
        ..Settings::new(RunnerOptions {
            workload_limit: Some(3),
            mixes: Some(2),
            threads: Some(2),
            inject_panic,
            inject_stall,
            ..RunnerOptions::default()
        })
    }
}

#[test]
fn injected_faults_in_fig11_jobs_become_gaps_and_failures() {
    let clean_settings = settings(None, None);
    let workloads = clean_settings.workloads();
    assert_eq!(workloads.len(), 3);
    let clean = fig11::collect(&clean_settings);

    // Panic one SPP/SD-Proposed cell and stall one VLDP/SD-Standard cell;
    // injection matches on `<workload>/<job label>`.
    let faulty_settings = settings(
        Some(format!("{}/fig11/SPP/SD-Proposed", workloads[0].name)),
        Some(format!("{}/fig11/VLDP/SD-Standard", workloads[1].name)),
    );
    let faulty = fig11::collect(&faulty_settings);

    // The figure still renders every row; untouched prefetchers are
    // bit-identical to the clean run.
    assert_eq!(faulty.len(), 3);
    assert_eq!(
        format!("{:?}", faulty[2]),
        format!("{:?}", clean[2]),
        "PPF row must not be affected by SPP/VLDP faults"
    );
    // The faulted cells shrink to a gap (their geomean drops the faulted
    // workload) but stay plausible — never a panic, never a zeroed row.
    for row in &faulty {
        for s in row.speedups {
            assert!(s > 0.2 && s < 5.0, "{}: implausible speedup {s}", row.kind);
        }
    }
    let stats = faulty_settings.ctx.stats();
    assert_eq!(stats.failed, 2, "both faults journalled");
    assert_eq!(
        stats.watchdog_aborted, 1,
        "the stall is aborted by the forward-progress watchdog"
    );
    let journal = faulty_settings.ctx.failures_json().pretty();
    assert!(journal.contains("fig11/SPP/SD-Proposed"), "{journal}");
    assert!(journal.contains("injected panic"), "{journal}");
    assert!(journal.contains("fig11/VLDP/SD-Standard"), "{journal}");
    assert!(journal.contains("\"watchdog\": true"), "{journal}");
    assert_eq!(clean_settings.ctx.stats().failed, 0);
}

#[test]
fn injected_stall_in_a_mix_job_becomes_a_gap_and_a_failure() {
    // The injected label must name the job exactly: the SPP-PSA-SD
    // evaluation of mix 0, keyed by the mix's first workload.
    let mix_w = random_mixes(2, 2, quick().seed)[0][0].name;
    let settings = settings(None, Some(format!("{mix_w}/spp-s/mix0")));
    let bars = fig1415::collect(&settings, 2);

    assert_eq!(bars.len(), 7, "every bar renders despite the fault");
    for b in &bars {
        let expect = if b.label == "SPP-PSA-SD" { 1 } else { 2 };
        assert_eq!(
            b.per_mix.len(),
            expect,
            "{}: the faulted mix must be an explicit gap",
            b.label
        );
    }
    let stats = settings.ctx.stats();
    assert_eq!((stats.failed, stats.watchdog_aborted), (1, 1));
    let journal = settings.ctx.failures_json().pretty();
    assert!(journal.contains("spp-s/mix0"), "{journal}");
}
