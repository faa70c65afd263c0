//! Job-scoped documents under real concurrency: two workers run two
//! overlapping specs that share `lbm`, one of them with an injected
//! panic. Each document shows only its own job's failures and executor
//! counters, and the clean one is memoised across a restart.

mod common;

use common::executor;
use psa_experiments::RunnerOptions;
use psa_serve::ServerConfig;
use psa_sim::report::Json;
use std::path::Path;
use std::time::Duration;

const CLEAN: &str = r#"{"figure": "fig08", "workloads": ["lbm"],
    "variants": ["no-prefetch"], "seed": 3, "warmup": 2000, "instructions": 8000}"#;
const FAILING: &str = r#"{"figure": "fig08", "workloads": ["lbm"],
    "variants": ["SPP"], "seed": 3, "warmup": 2000, "instructions": 8000}"#;

/// Two workers over a shared store, with `lbm/SPP` armed to panic. The
/// job delay holds both jobs until both are queued, so they run side by
/// side.
fn server(dir: &Path) -> ServerConfig {
    let mut config = common::on_store(dir);
    config.workers = 2;
    config.job_delay = Duration::from_millis(200);
    config.options = RunnerOptions {
        inject_panic: Some("lbm/SPP".into()),
        ..config.options
    };
    config
}

/// Submit `spec`, wait for it, and return its status and document.
fn run(addr: &str, spec: &str) -> (Json, Json) {
    let id = common::submitted_id(&common::post(addr, "/jobs", spec));
    let status = common::wait_done(addr, &id, Duration::from_secs(300));
    let doc = common::json(&common::get(addr, &format!("/results/{id}")));
    (status, doc)
}

#[test]
fn concurrent_jobs_sharing_a_workload_see_only_their_own_failures_and_counters() {
    let dir = std::env::temp_dir().join(format!("psa-serve-scope-{}", std::process::id()));
    let (srv, addr) = common::spawn(server(&dir));
    let clean_id = common::submitted_id(&common::post(&addr, "/jobs", CLEAN));
    let failing_id = common::submitted_id(&common::post(&addr, "/jobs", FAILING));
    let clean_status = common::wait_done(&addr, &clean_id, Duration::from_secs(300));
    let failing_status = common::wait_done(&addr, &failing_id, Duration::from_secs(300));
    let clean = common::json(&common::get(&addr, &format!("/results/{clean_id}")));
    let failing = common::json(&common::get(&addr, &format!("/results/{failing_id}")));
    srv.shutdown();

    // The clean job: no failures, and counters for its one run only.
    assert_eq!(clean.get("failures"), Some(&Json::Arr(vec![])));
    assert!(matches!(clean_status.get("clean"), Some(Json::Bool(true))));
    assert_eq!(executor(&clean, "simulated_runs"), 1.0);
    assert_eq!(executor(&clean, "failed_runs"), 0.0);

    // The failing job: exactly its own failure.
    assert!(matches!(
        failing_status.get("clean"),
        Some(Json::Bool(false))
    ));
    let failures = failing.get("failures").and_then(Json::as_arr).unwrap();
    assert_eq!(failures.len(), 1, "{}", failing.pretty());
    assert_eq!(
        failures[0].get("workload").and_then(Json::as_str),
        Some("lbm")
    );
    assert_eq!(
        failures[0].get("variant").and_then(Json::as_str),
        Some("SPP")
    );
    let reason = failures[0].get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("injected panic"), "{reason}");
    assert_eq!(executor(&failing, "simulated_runs"), 1.0);
    assert_eq!(executor(&failing, "failed_runs"), 1.0);

    // After a restart on the same store the clean document is served
    // from the memo; the failing one is not memoised and runs again.
    let (srv, addr) = common::spawn(server(&dir));
    let (status, replay) = run(&addr, CLEAN);
    assert!(matches!(status.get("from_cache"), Some(Json::Bool(true))));
    assert_eq!(replay, clean, "the memoised document is the clean one");
    let (status, rerun) = run(&addr, FAILING);
    assert!(matches!(status.get("from_cache"), Some(Json::Bool(false))));
    assert_eq!(rerun.get("failures"), failing.get("failures"));
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
