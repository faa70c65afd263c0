//! The `prefetchers` family field, end to end: a sweep naming a whole
//! new family ("DSPatch") expands server-side to the full policy
//! matrix, runs through the queue, and — because expansion happens at
//! parse time — shares its dedup/memo key with the equivalent
//! explicit-variants spec: the two race to one simulation, and after a
//! restart (a new server on the same store directory) the family spec
//! is answered from the memoised document tier without simulating.

mod common;

use psa_serve::http;
use psa_sim::report::Json;
use std::sync::Barrier;
use std::time::Duration;

const FAMILY_SPEC: &str = r#"{"figure": "fig16", "workloads": ["lbm"],
    "prefetchers": ["DSPatch"], "seed": 7, "warmup": 300, "instructions": 900}"#;

/// The same sweep written out by hand: expansion happens at parse
/// time, so this spec canonicalises to the same dedup/memo key.
const EXPLICIT_SPEC: &str = r#"{"figure": "fig16", "workloads": ["lbm"],
    "variants": ["DSPatch", "DSPatch-PSA", "DSPatch-PSA-2MB", "DSPatch-PSA-SD"],
    "seed": 7, "warmup": 300, "instructions": 900}"#;

#[test]
fn family_spec_runs_dedups_against_explicit_labels_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("psa-serve-family-{}", std::process::id()));
    let (server, addr) = common::spawn(common::on_store(&dir));

    // Race the family spec against its explicit-labels equivalent:
    // identical keys, so exactly one leads and the other joins.
    let specs = [FAMILY_SPEC, EXPLICIT_SPEC];
    let barrier = Barrier::new(specs.len());
    let responses: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let addr = addr.as_str();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let resp = http::request(addr, "POST", "/jobs", Some(spec.as_bytes()))
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
    assert_eq!(deduped, 1, "the equivalent spec joins: {responses:?}");
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
    assert_eq!(ids[0], ids[1], "both spellings share one job: {ids:?}");

    let status = common::wait_done(&addr, &ids[0], Duration::from_secs(300));
    assert_eq!(
        status.get("total").and_then(Json::as_f64),
        Some(4.0),
        "one workload x the expanded policy matrix: {}",
        status.pretty()
    );
    assert!(matches!(status.get("from_cache"), Some(Json::Bool(false))));
    assert!(matches!(status.get("clean"), Some(Json::Bool(true))));

    let first = common::get(&addr, &format!("/results/{}", ids[0]));
    assert_eq!(first.status, 200);
    let doc = first.text();
    for label in [
        "DSPatch",
        "DSPatch-PSA",
        "DSPatch-PSA-2MB",
        "DSPatch-PSA-SD",
    ] {
        assert!(
            doc.contains(&format!("\"{label}\"")),
            "document carries the {label} rows"
        );
    }
    assert_eq!(
        common::executor(&common::json(&first), "simulated_runs"),
        4.0,
        "two spellings, one simulation per cell"
    );
    server.shutdown();

    // Restart: a new server opens the store from scratch, exactly as a
    // fresh process would.
    let (server2, addr2) = common::spawn(common::on_store(&dir));
    let resubmit = common::post(&addr2, "/jobs", FAMILY_SPEC);
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
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
