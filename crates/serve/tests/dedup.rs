//! Concurrent dedup and the memoised tiers: N racing identical
//! submissions run exactly one simulation and read back bit-identical
//! bytes; after a restart (a new server on the same store directory) the
//! same spec is answered from disk without simulating; and a server
//! without a store directory memoises each run's report in memory, so a
//! later spec that overlaps an earlier one simulates only what is new.

mod common;

use psa_serve::{http, ServerConfig};
use psa_sim::report::Json;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::Duration;

const SPEC: &str = r#"{"figure": "fig08", "workloads": ["lbm"],
    "variants": ["SPP-PSA"], "seed": 5, "warmup": 300, "instructions": 900}"#;

#[test]
fn racing_identical_submissions_share_one_simulation_and_survive_restart() {
    let dir = std::env::temp_dir().join(format!("psa-serve-dedup-{}", std::process::id()));
    let (server, addr) = common::spawn(common::on_store(&dir));

    const N: usize = 6;
    let barrier = Barrier::new(N);
    let responses: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.as_str();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let resp = http::request(addr, "POST", "/jobs", Some(SPEC.as_bytes()))
                        .expect("submission succeeds");
                    (resp.status, resp.text())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter joins"))
            .collect()
    });

    let accepted = responses.iter().filter(|(s, _)| *s == 202).count();
    let deduped = responses.iter().filter(|(s, _)| *s == 200).count();
    assert_eq!(accepted, 1, "exactly one leader: {responses:?}");
    assert_eq!(
        deduped,
        N - 1,
        "every other submission joins: {responses:?}"
    );
    let ids: Vec<String> = responses
        .iter()
        .map(|(_, body)| {
            Json::parse(body)
                .expect("submit body is JSON")
                .get("id")
                .and_then(Json::as_str)
                .expect("submit body carries a job id")
                .to_string()
        })
        .collect();
    assert!(
        ids.iter().all(|id| id == &ids[0]),
        "all submissions share one job: {ids:?}"
    );

    let status = common::wait_done(&addr, &ids[0], Duration::from_secs(300));
    assert!(matches!(status.get("from_cache"), Some(Json::Bool(false))));
    assert_eq!(
        status.get("joined").and_then(Json::as_f64),
        Some((N - 1) as f64),
        "the job counted its joiners: {}",
        status.pretty()
    );

    let first = common::get(&addr, &format!("/results/{}", ids[0]));
    assert_eq!(first.status, 200);
    for _ in 1..N {
        let again = common::get(&addr, &format!("/results/{}", ids[0]));
        assert_eq!(again.body, first.body, "every response is bit-identical");
    }

    assert_eq!(
        common::executor(&common::json(&first), "simulated_runs"),
        1.0,
        "N submissions, exactly one simulation"
    );
    let m = &server.queue().metrics;
    assert_eq!(m.jobs_accepted.load(Ordering::Relaxed), 1);
    assert_eq!(m.jobs_deduped.load(Ordering::Relaxed), (N - 1) as u64);
    assert_eq!(m.jobs_completed.load(Ordering::Relaxed), 1);
    assert_eq!(m.jobs_from_cache.load(Ordering::Relaxed), 0);
    server.shutdown();

    // Restart: a new server opens the store from scratch, exactly as a
    // fresh process would.
    let (server2, addr2) = common::spawn(common::on_store(&dir));
    let resubmit = common::post(&addr2, "/jobs", SPEC);
    assert_eq!(resubmit.status, 202, "fresh server, fresh dedup registry");
    let id2 = common::submitted_id(&resubmit);
    let status2 = common::wait_done(&addr2, &id2, Duration::from_secs(60));
    assert!(
        matches!(status2.get("from_cache"), Some(Json::Bool(true))),
        "served from the memoised disk tier: {}",
        status2.pretty()
    );
    let replay = common::get(&addr2, &format!("/results/{id2}"));
    assert_eq!(
        replay.body, first.body,
        "the disk-served document is bit-identical, executor block included"
    );
    assert_eq!(
        server2
            .queue()
            .metrics
            .jobs_from_cache
            .load(Ordering::Relaxed),
        1
    );
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

const ONE: &str = r#"{"figure": "fig08", "workloads": ["lbm"],
    "variants": ["SPP"], "seed": 4, "warmup": 300, "instructions": 900}"#;
const TWO: &str = r#"{"figure": "fig08", "workloads": ["lbm"],
    "variants": ["SPP", "no-prefetch"], "seed": 4, "warmup": 300, "instructions": 900}"#;

/// The `rows` entry of `doc` for `variant`.
fn row<'a>(doc: &'a Json, variant: &str) -> &'a Json {
    doc.get("rows")
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("variant").and_then(Json::as_str) == Some(variant))
        })
        .unwrap_or_else(|| panic!("no {variant} row: {}", doc.pretty()))
}

#[test]
fn memory_only_server_memoises_runs_across_specs() {
    let (server, addr) = common::spawn(ServerConfig::default());
    let run = |spec: &str| {
        let id = common::submitted_id(&common::post(&addr, "/jobs", spec));
        common::wait_done(&addr, &id, Duration::from_secs(300));
        common::json(&common::get(&addr, &format!("/results/{id}")))
    };
    let one = run(ONE);
    let two = run(TWO);
    server.shutdown();

    assert_eq!(common::executor(&one, "simulated_runs"), 1.0);
    assert_eq!(
        common::executor(&two, "simulated_runs"),
        1.0,
        "lbm/SPP is answered by the first job's memoised report"
    );
    assert_eq!(common::executor(&two, "memo_hits"), 1.0);
    assert_eq!(common::executor(&two, "warmups_shared"), 0.0);
    assert_eq!(row(&two, "SPP"), row(&one, "SPP"));
}
