//! The `/metrics` exposition, pinned: every line must be syntactically
//! valid Prometheus text format 0.0.4, and the value-normalised
//! document must match the checked-in golden byte-for-byte. Regenerate
//! only with `PSA_UPDATE_GOLDEN=1 cargo test -p psa-serve --test
//! metrics_golden`.
//!
//! Plus the malformed-request matrix: every broken input earns a typed
//! 4xx and the server stays healthy — never a panic.

mod common;

use psa_common::obs::prom;
use psa_serve::{http, ServerConfig};
use psa_sim::report::Json;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.prom")
}

/// Validate one sample's series part (`name` or `name{k="v",...}`)
/// against the open family; panics with the line number on violations.
fn check_series(series: &str, family: &str, n: usize) {
    let (name, labels) = match series.split_once('{') {
        None => (series, None),
        Some((name, rest)) => {
            let inner = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("line {n}: unterminated label set"));
            (name, Some(inner))
        }
    };
    assert_eq!(name, family, "line {n}: sample outside its TYPE family");
    let Some(mut rest) = labels else { return };
    while !rest.is_empty() {
        let eq = rest
            .find("=\"")
            .unwrap_or_else(|| panic!("line {n}: label without =\" in {rest:?}"));
        let label = &rest[..eq];
        assert!(
            prom::valid_label_name(label),
            "line {n}: invalid label name {label:?}"
        );
        let mut value_end = None;
        let bytes = rest.as_bytes();
        let mut i = eq + 2;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    value_end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let end = value_end.unwrap_or_else(|| panic!("line {n}: unterminated label value"));
        rest = match rest[end + 1..].strip_prefix(',') {
            Some(more) => more,
            None => {
                assert!(
                    rest[end + 1..].is_empty(),
                    "line {n}: junk after label value"
                );
                ""
            }
        };
    }
}

/// Check every line of the exposition and return the value-normalised
/// form (each sample value replaced by `<V>`), which is what the
/// golden file pins: names, types, help text, label syntax and family
/// ordering — everything except the run-dependent numbers.
fn check_and_normalise(text: &str) -> String {
    assert!(text.ends_with('\n'), "exposition ends with a newline");
    let mut out = String::new();
    let mut families: Vec<String> = Vec::new();
    let mut pending_help: Option<String> = None;
    let mut family: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        assert!(!line.is_empty(), "line {n}: empty line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("line {n}: HELP without text"));
            assert!(
                prom::valid_metric_name(name),
                "line {n}: invalid family name {name:?}"
            );
            assert!(!help.is_empty(), "line {n}: empty HELP text");
            assert!(
                !families.iter().any(|f| f == name),
                "line {n}: family {name} declared twice"
            );
            families.push(name.to_string());
            pending_help = Some(name.to_string());
            family = None;
            out.push_str(line);
            out.push('\n');
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("line {n}: TYPE without kind"));
            assert_eq!(
                pending_help.take().as_deref(),
                Some(name),
                "line {n}: TYPE must follow its own HELP"
            );
            assert!(
                kind == "counter" || kind == "gauge",
                "line {n}: unknown kind {kind:?}"
            );
            if kind == "counter" {
                assert!(
                    name.ends_with("_total"),
                    "line {n}: counter {name} must end in _total"
                );
            }
            family = Some(name.to_string());
            out.push_str(line);
            out.push('\n');
        } else {
            assert!(!line.starts_with('#'), "line {n}: unknown comment form");
            let current = family
                .as_deref()
                .unwrap_or_else(|| panic!("line {n}: sample before any TYPE"));
            let space = line
                .rfind(' ')
                .unwrap_or_else(|| panic!("line {n}: sample without value"));
            let (series, value) = (&line[..space], &line[space + 1..]);
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("line {n}: unparsable value {value:?}"));
            check_series(series, current, n);
            out.push_str(series);
            out.push_str(" <V>\n");
        }
    }
    assert!(pending_help.is_none(), "trailing HELP without TYPE");
    out
}

#[test]
fn metrics_exposition_is_valid_and_matches_golden() {
    let (server, addr) = common::spawn(ServerConfig::default());
    // Touch a couple of routes so the counters are live, not just zero.
    assert_eq!(common::get(&addr, "/healthz").status, 200);
    assert_eq!(common::get(&addr, "/nope").status, 404);

    let resp = common::get(&addr, "/metrics");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let normalised = check_and_normalise(&resp.text());
    server.shutdown();

    psa_experiments::golden::check(golden_path(), &normalised);
}

#[test]
fn malformed_requests_get_typed_4xx_never_a_panic() {
    let config = ServerConfig {
        max_body_bytes: 2048,
        ..ServerConfig::default()
    };
    let (server, addr) = common::spawn(config);

    let oversized = format!(
        r#"{{"figure": "fig08", "workloads": ["{}"], "variants": ["SPP"]}}"#,
        "x".repeat(4096)
    );
    let cases: &[(&str, &str, Option<&str>, u16, &str)] = &[
        ("POST", "/jobs", Some("{not json"), 400, "bad_json"),
        ("POST", "/jobs", Some("[1, 2]"), 400, "bad_type"),
        (
            "POST",
            "/jobs",
            Some(r#"{"workloads": ["lbm"], "variants": ["SPP"]}"#),
            400,
            "missing_field",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig99", "workloads": ["lbm"], "variants": ["SPP"]}"#),
            400,
            "unknown_figure",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig08", "workloads": ["nope"], "variants": ["SPP"]}"#),
            400,
            "unknown_workload",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig08", "workloads": ["lbm"], "variants": ["SPP-PSA-9GB"]}"#),
            400,
            "unknown_variant",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig08", "workloads": [], "variants": ["SPP"]}"#),
            400,
            "empty_list",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig08", "workloads": ["lbm"], "variants": ["SPP"], "seed": -3}"#),
            400,
            "bad_type",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig08", "workloads": ["lbm"], "prefetchers": ["SPP", "Panglos"]}"#),
            400,
            "unknown_prefetcher",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig08", "workloads": ["lbm"], "prefetchers": "Pangloss"}"#),
            400,
            "bad_type",
        ),
        (
            "POST",
            "/jobs",
            Some(r#"{"figure": "fig08", "workloads": ["lbm"], "prefetchers": []}"#),
            400,
            "empty_list",
        ),
        (
            "POST",
            "/jobs",
            Some(oversized.as_str()),
            413,
            "body_too_large",
        ),
        ("DELETE", "/jobs", None, 405, "method_not_allowed"),
        ("PUT", "/metrics", None, 405, "method_not_allowed"),
        ("GET", "/jobs/xyz", None, 404, "unknown_job"),
        ("GET", "/jobs/j999", None, 404, "unknown_job"),
        ("GET", "/results/j999", None, 404, "unknown_job"),
        ("GET", "/nope", None, 404, "not_found"),
    ];
    for &(method, path, body, status, kind) in cases {
        let resp =
            http::request(&addr, method, path, body.map(str::as_bytes)).expect("request completes");
        assert_eq!(resp.status, status, "{method} {path}: {}", resp.text());
        let error = common::json(&resp);
        assert_eq!(
            error
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(kind),
            "{method} {path}: {}",
            resp.text()
        );
        // Still alive after every insult.
        assert_eq!(common::get(&addr, "/healthz").status, 200);
    }
    let m = &server.queue().metrics;
    use std::sync::atomic::Ordering;
    let classed_4xx = cases.len() as u64;
    assert_eq!(m.http_4xx.load(Ordering::Relaxed), classed_4xx);
    assert_eq!(
        m.jobs_accepted.load(Ordering::Relaxed),
        0,
        "nothing was admitted"
    );
    server.shutdown();
}
