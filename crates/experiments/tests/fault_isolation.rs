//! Acceptance test for the fault-isolated executor: a batch containing one
//! deliberately panicking job and one watchdog-stalled job must complete,
//! keep every surviving run bit-identical to a clean serial run, and
//! record both faults in the `BENCH_*.json` document's `failures` array.
//!
//! Then one case per figure that reads the run cache: with one of its
//! jobs panicking, the figure must return, record exactly that one
//! failure, and render exactly the rows of a clean run over every
//! workload but the faulted one.

use psa_core::PageSizePolicy;
use psa_experiments::runner::{self, RunOutcome, Variant};
use psa_experiments::{
    ablations, fig02, fig03, fig0405, fig08, fig09, fig10, fig12, fig13, fig16, nonintensive,
    trace_replay, RunnerOptions, Settings,
};
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, L1dPrefKind, SimConfig};
use psa_traces::{catalog, TraceRef, WorkloadSpec};

fn quick() -> SimConfig {
    SimConfig::default()
        .with_warmup(1_000)
        .with_instructions(4_000)
}

#[test]
fn faulty_batch_completes_with_gaps_and_records_failures() {
    let lbm = runner::workload("lbm").unwrap();
    let milc = runner::workload("milc").unwrap();
    let soplex = runner::workload("soplex").unwrap();
    let psa = Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa);
    let jobs = vec![
        (lbm, Variant::NoPrefetch),  // will panic
        (milc, Variant::NoPrefetch), // will stall
        (soplex, Variant::NoPrefetch),
        (lbm, psa),
        (milc, psa),
    ];

    // Clean serial reference, in a context with no injection armed.
    let mut clean = Settings::new(RunnerOptions::default().with_threads(1)).cache();
    clean.run_batch_refs(quick(), &jobs);

    // Faulty parallel batch: one injected panic, one injected stall.
    let faulty_settings = Settings {
        config: quick(),
        ..Settings::new(RunnerOptions {
            threads: Some(2),
            inject_panic: Some("lbm/no-prefetch".into()),
            inject_stall: Some("milc/no-prefetch".into()),
            ..RunnerOptions::default()
        })
    };
    let mut faulty = faulty_settings.cache();
    let executed = faulty.run_batch_refs(quick(), &jobs);
    assert_eq!(executed, jobs.len(), "the batch must complete");

    // Both faults were contained as values, with the right diagnosis.
    match faulty.outcome_ref(quick(), lbm, Variant::NoPrefetch) {
        RunOutcome::Failed {
            reason, watchdog, ..
        } => {
            assert!(reason.contains("injected panic"), "{reason}");
            assert!(!watchdog);
        }
        RunOutcome::Ok(_) => panic!("injected panic not recorded"),
    }
    match faulty.outcome_ref(quick(), milc, Variant::NoPrefetch) {
        RunOutcome::Failed {
            reason, watchdog, ..
        } => {
            assert!(*watchdog, "stall must be diagnosed as a watchdog abort");
            assert!(reason.contains("no retire/drain progress"), "{reason}");
        }
        RunOutcome::Ok(_) => panic!("injected stall not recorded"),
    }

    // Every surviving job is bit-identical to the clean serial run.
    for &(w, v) in &[(soplex, Variant::NoPrefetch), (lbm, psa), (milc, psa)] {
        let survived = faulty.outcome_ref(quick(), w, v).clone();
        assert!(
            survived.report().is_some(),
            "{}/{} should survive",
            w.name,
            v.label()
        );
        assert_eq!(
            &survived,
            clean.outcome_ref(quick(), w, v),
            "{}/{} diverged from the clean serial run",
            w.name,
            v.label()
        );
    }
    let survivors: Vec<&str> = faulty
        .rows(quick(), &[lbm, milc, soplex], &[Variant::NoPrefetch])
        .iter()
        .map(|(w, _)| w.name)
        .collect();
    assert_eq!(survivors, ["soplex"]);
    assert_eq!(faulty.stats().failed, 2);
    assert_eq!(faulty.stats().watchdog_aborted, 1);
    assert_eq!(clean.stats().failed, 0, "contexts never share failures");

    // The emitted document carries both failure records, and would trip
    // the shell gate (which greps for the empty `"failures": []`).
    let doc = runner::doc(
        "fault_smoke",
        "fault isolation smoke",
        &faulty_settings,
        psa_sim::Json::Arr(vec![]),
    );
    let failures = doc.get("failures").unwrap().as_arr().unwrap();
    let recorded: Vec<(&str, &str)> = failures
        .iter()
        .map(|f| {
            (
                f.get("workload").unwrap().as_str().unwrap(),
                f.get("variant").unwrap().as_str().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        recorded,
        [("lbm", "no-prefetch"), ("milc", "no-prefetch")],
        "exactly the two injected faults"
    );
    assert!(!doc.pretty().contains("\"failures\": []"));
    let executor = doc.get("executor").unwrap();
    assert_eq!(
        executor.get("failed_runs").unwrap(),
        &psa_sim::Json::uint(2)
    );
    assert_eq!(
        executor.get("watchdog_aborted").unwrap(),
        &psa_sim::Json::uint(1)
    );
    assert_eq!(
        executor.get("simulated_runs").unwrap(),
        &psa_sim::Json::uint(jobs.len() as u64),
        "the executor block counts this context's runs only"
    );
}

/// The run shape of the per-figure cases, over `limit` stride-sampled
/// workloads.
fn tiny(limit: usize) -> RunnerOptions {
    RunnerOptions::default()
        .with_workload_limit(limit)
        .with_warmup(1_000)
        .with_instructions(4_000)
}

/// `options` with a panic injected into the job `<workload>/<label>`.
fn faulted(options: RunnerOptions, workload: &str, label: &str) -> Settings {
    Settings::new(RunnerOptions {
        inject_panic: Some(format!("{workload}/{label}")),
        ..options
    })
}

/// The context recorded exactly one failure: the injected job.
fn assert_only_failure(settings: &Settings, workload: &str, label: &str) {
    let failures = settings.ctx.failures_json();
    let recorded: Vec<(&str, &str)> = failures
        .as_arr()
        .unwrap()
        .iter()
        .map(|f| {
            (
                f.get("workload").unwrap().as_str().unwrap(),
                f.get("variant").unwrap().as_str().unwrap(),
            )
        })
        .collect();
    assert_eq!(recorded, [(workload, label)], "{}", failures.pretty());
}

/// Settings over two stride-sampled workloads with the second one's
/// `label` job panicking, and clean settings over the first alone: a
/// figure that drops exactly the faulted workload renders the same rows
/// from both.
fn second_workload_faulted(label: &str) -> (Settings, Settings, &'static str) {
    let two = Settings::new(tiny(2)).workloads();
    let faulty = faulted(tiny(2), two[1].name, label);
    let clean = Settings::new(tiny(1));
    assert_eq!(
        clean.workloads(),
        [two[0]],
        "limit 1 keeps the first workload"
    );
    (faulty, clean, two[1].name)
}

/// `rows` without the entries whose `field` names `workload`.
fn without(rows: &Json, field: &str, workload: &str) -> Json {
    let rows = rows.as_arr().unwrap();
    let kept: Vec<Json> = rows
        .iter()
        .filter(|r| r.get(field).unwrap().as_str() != Some(workload))
        .cloned()
        .collect();
    assert_eq!(kept.len() + 1, rows.len(), "{workload} had exactly one row");
    Json::Arr(kept)
}

/// Suite cells of `kind` from `dropped`, every other kind's from `full`:
/// a fault in one prefetcher's sweep drops the workload from that
/// prefetcher's cells only.
fn splice(
    full: Vec<fig09::SuiteCell>,
    dropped: Vec<fig09::SuiteCell>,
    kind: PrefetcherKind,
) -> Vec<fig09::SuiteCell> {
    full.into_iter()
        .zip(dropped)
        .map(|(f, d)| if f.kind == kind { d } else { f })
        .collect()
}

#[test]
fn fig02_drops_the_faulted_workload() {
    let (faulty, clean, w) = second_workload_faulted("SPP");
    let (_, doc) = fig02::report(&faulty);
    let (_, expect) = fig02::report(&clean);
    assert_only_failure(&faulty, w, "SPP");
    assert_eq!(doc.get("rows"), expect.get("rows"));
    assert_eq!(doc.get("workloads"), expect.get("workloads"));
}

#[test]
fn ablation_does_not_sweep_a_workload_whose_baseline_failed() {
    let (faulty, clean, w) = second_workload_faulted("SPP");
    let speedups = |settings: &Settings| {
        let points = ablations::collect(settings);
        points.iter().map(|p| p.speedup).collect::<Vec<_>>()
    };
    let got = speedups(&faulty);
    assert_only_failure(&faulty, w, "SPP");
    assert_eq!(got, speedups(&clean));
    assert_eq!(
        faulty.ctx.stats().simulated,
        clean.ctx.stats().simulated + 1,
        "of the faulted workload only its failed baseline ran"
    );
}

#[test]
fn fig03_drops_the_faulted_workload() {
    let faulty = faulted(tiny(2), "soplex", "no-prefetch");
    let (_, doc) = fig03::report(&faulty);
    let (_, expect) = fig03::report(&Settings::new(tiny(2)));
    assert_only_failure(&faulty, "soplex", "no-prefetch");
    let expect = without(expect.get("rows").unwrap(), "benchmark", "soplex");
    assert_eq!(doc.get("rows"), Some(&expect));
}

#[test]
fn fig0405_drops_the_faulted_workload() {
    let faulty = faulted(tiny(2), "milc", "SPP-Magic-PSA-2MB");
    let (_, doc) = fig0405::report(&faulty);
    let (_, expect) = fig0405::report(&Settings::new(tiny(2)));
    assert_only_failure(&faulty, "milc", "SPP-Magic-PSA-2MB");
    let expect = without(expect.get("rows").unwrap(), "benchmark", "milc");
    assert_eq!(doc.get("rows"), Some(&expect));
}

#[test]
fn fig08_drops_the_faulted_workload() {
    let (faulty, clean, w) = second_workload_faulted("SPP-PSA");
    let (_, doc) = fig08::report(&faulty);
    let (_, expect) = fig08::report(&clean);
    assert_only_failure(&faulty, w, "SPP-PSA");
    assert_eq!(doc.get("rows"), expect.get("rows"));
    assert_eq!(doc.get("geomean"), expect.get("geomean"));
}

#[test]
fn fig09_drops_the_faulted_workload_from_one_prefetcher() {
    let (faulty, clean, w) = second_workload_faulted("VLDP-PSA-2MB");
    let cells = fig09::collect(&faulty);
    assert_only_failure(&faulty, w, "VLDP-PSA-2MB");
    let clean_two = Settings::new(tiny(2));
    let expect = splice(
        fig09::collect(&clean_two),
        fig09::collect(&clean),
        PrefetcherKind::Vldp,
    );
    assert_eq!(cells, expect);
}

#[test]
fn fig10_drops_the_faulted_workload() {
    let w = catalog::FIG10_SET[2];
    let faulty = faulted(tiny(2), w, "SPP-PSA-SD");
    let (_, doc) = fig10::report(&faulty);
    let (_, expect) = fig10::report(&Settings::new(tiny(2)));
    assert_only_failure(&faulty, w, "SPP-PSA-SD");
    let (got, expect) = (
        doc.get("rows").unwrap().as_arr().unwrap(),
        expect.get("rows").unwrap().as_arr().unwrap(),
    );
    assert_eq!(got[0], expect[0], "the SPP-PSA sweep is untouched");
    assert_eq!(
        got[1].get("rows"),
        Some(&without(expect[1].get("rows").unwrap(), "workload", w))
    );
}

#[test]
fn fig12_drops_the_faulted_workload_on_one_knob() {
    let (faulty, clean, w) = second_workload_faulted("fig12/800 MT/s/SPP-PSA-SD");
    let sweep = |settings: &Settings| {
        let knobs = [fig12::Knob::DramMts(800)];
        let cells = fig12::collect(settings, &[PrefetcherKind::Spp], &knobs);
        cells.iter().map(|c| (c.psa, c.psa_sd)).collect::<Vec<_>>()
    };
    let cells = sweep(&faulty);
    assert_only_failure(&faulty, w, "fig12/800 MT/s/SPP-PSA-SD");
    assert_eq!(cells, sweep(&clean));
}

#[test]
fn fig12_journals_each_knobs_failures_apart() {
    let w = Settings::new(tiny(2)).workloads()[1].name;
    let faulty = Settings::new(RunnerOptions {
        inject_panic: Some(w.into()),
        ..tiny(2)
    });
    let knobs = [fig12::Knob::DramMts(800), fig12::Knob::DramMts(3200)];
    fig12::collect(&faulty, &[PrefetcherKind::Spp], &knobs);
    let failures = faulty.ctx.failures_json();
    let labels: Vec<&str> = failures
        .as_arr()
        .unwrap()
        .iter()
        .map(|f| f.get("variant").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(faulty.ctx.stats().failed, 6, "three variants on two knobs");
    assert_eq!(labels.len(), 6, "one entry per failed job: {labels:?}");
    assert!(labels.contains(&"fig12/800 MT/s/SPP"), "{labels:?}");
    assert!(labels.contains(&"fig12/3200 MT/s/SPP-PSA-SD"), "{labels:?}");
}

#[test]
fn fig13_drops_the_faulted_workload() {
    let label = Variant::L1d(L1dPrefKind::Ipcp).label();
    let (faulty, clean, w) = second_workload_faulted(&label);
    let (_, doc) = fig13::report(&faulty);
    let (_, expect) = fig13::report(&clean);
    assert_only_failure(&faulty, w, &label);
    assert_eq!(doc.get("rows"), expect.get("rows"));
}

#[test]
fn fig16_drops_the_faulted_workload_from_one_family() {
    let label = Variant::PrefMagic(PrefetcherKind::Pangloss, PageSizePolicy::Psa).label();
    let (faulty, clean, w) = second_workload_faulted(&label);
    let cells = fig16::collect(&faulty);
    assert_only_failure(&faulty, w, &label);
    let clean_two = Settings::new(tiny(2));
    let expect = splice(
        fig16::collect(&clean_two),
        fig16::collect(&clean),
        PrefetcherKind::Pangloss,
    );
    assert_eq!(cells, expect);
}

#[test]
fn nonintensive_sweep_drops_the_faulted_workload_from_one_prefetcher() {
    let quiet = catalog::NON_INTENSIVE[3].name;
    let faulty = faulted(tiny(1), quiet, "SPP-PSA");
    let cells = nonintensive::collect(&faulty);
    assert_only_failure(&faulty, quiet, "SPP-PSA");
    let clean = Settings::new(tiny(1));
    let mut workloads: Vec<&'static WorkloadSpec> = clean.workloads();
    workloads.extend(catalog::NON_INTENSIVE.iter());
    let full = fig09::collect_over(&clean, &workloads);
    workloads.retain(|w| w.name != quiet);
    let dropped = fig09::collect_over(&clean, &workloads);
    assert_eq!(cells, splice(full, dropped, PrefetcherKind::Spp));
}

#[test]
fn no_harm_check_drops_the_faulted_workload_from_one_prefetcher() {
    let quiet = catalog::NON_INTENSIVE[5].name;
    let faulty = faulted(tiny(1), quiet, "PPF-PSA-SD");
    let geomeans = nonintensive::non_intensive_only(&faulty);
    assert_only_failure(&faulty, quiet, "PPF-PSA-SD");
    let clean = Settings::new(tiny(1));
    let others: Vec<&'static WorkloadSpec> = catalog::NON_INTENSIVE
        .iter()
        .filter(|w| w.name != quiet)
        .collect();
    let sd = Variant::Pref(PrefetcherKind::Ppf, PageSizePolicy::PsaSd);
    let ppf = fig09::suite_cells(&clean, &others, PrefetcherKind::Ppf, &[(sd.label(), sd)]);
    let expect: Vec<(PrefetcherKind, f64)> = nonintensive::non_intensive_only(&clean)
        .into_iter()
        .map(|(kind, g)| {
            (
                kind,
                if kind == PrefetcherKind::Ppf {
                    ppf[0].all
                } else {
                    g
                },
            )
        })
        .collect();
    assert_eq!(geomeans, expect);
}

#[test]
fn trace_replay_drops_the_ladder_of_a_faulted_variant() {
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sample.psatrace");
    let trace = TraceRef::open(sample).unwrap().name;
    let faulty = faulted(tiny(1), trace, "SPP-PSA");
    let (text, doc) = trace_replay::report(&faulty);
    assert_only_failure(&faulty, trace, "SPP-PSA");
    assert_eq!(doc.get("rows"), Some(&Json::Arr(vec![])));
    assert!(text.contains(trace), "{text}");
}
