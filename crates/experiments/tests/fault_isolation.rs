//! Acceptance test for the fault-isolated executor: a batch containing one
//! deliberately panicking job and one watchdog-stalled job must complete,
//! keep every surviving run bit-identical to a clean serial run, and
//! record both faults in the `BENCH_*.json` document's `failures` array.

use psa_core::PageSizePolicy;
use psa_experiments::runner::{self, RunOutcome, Variant};
use psa_experiments::{RunnerOptions, Settings};
use psa_prefetchers::PrefetcherKind;
use psa_sim::SimConfig;

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
        assert!(
            faulty.completed_ref(w, v),
            "{}/{} should survive",
            w.name,
            v.label()
        );
        assert_eq!(
            faulty.run_ref(quick(), w, v),
            clean.run_ref(quick(), w, v),
            "{}/{} diverged from the clean serial run",
            w.name,
            v.label()
        );
    }
    assert_eq!(
        faulty.surviving_refs(&[lbm, milc, soplex], &[Variant::NoPrefetch]),
        vec![soplex]
    );
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
