//! Shared helpers for the psa-serve integration suite: spawn an
//! in-process server on an ephemeral port, talk to it over real
//! sockets, poll jobs to completion, and read Prometheus samples.
#![allow(dead_code)]

use psa_experiments::RunnerOptions;
use psa_serve::http::{self, ClientResponse};
use psa_serve::{RunningServer, ServerConfig};
use psa_sim::report::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spawn a server and return it with its `host:port` address string.
pub fn spawn(config: ServerConfig) -> (RunningServer, String) {
    let server = RunningServer::spawn(config).expect("server binds an ephemeral port");
    let addr = server.addr.to_string();
    (server, addr)
}

/// A default server whose jobs share a tiered checkpoint store in `dir`.
pub fn on_store(dir: &Path) -> ServerConfig {
    ServerConfig {
        options: RunnerOptions {
            ckpt_dir: Some(dir.to_path_buf()),
            ..RunnerOptions::default()
        },
        ..ServerConfig::default()
    }
}

/// A numeric field of a served document's `executor` block.
pub fn executor(doc: &Json, field: &str) -> f64 {
    doc.get("executor")
        .and_then(|e| e.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("document has no executor.{field}"))
}

/// One GET over a fresh connection.
pub fn get(addr: &str, path: &str) -> ClientResponse {
    http::request(addr, "GET", path, None).expect("GET succeeds")
}

/// One POST over a fresh connection.
pub fn post(addr: &str, path: &str, body: &str) -> ClientResponse {
    http::request(addr, "POST", path, Some(body.as_bytes())).expect("POST succeeds")
}

/// Parse a response body as JSON.
pub fn json(resp: &ClientResponse) -> Json {
    Json::parse(&resp.text()).expect("response body is JSON")
}

/// The job id (`"j<N>"`) in a submit response body.
pub fn submitted_id(resp: &ClientResponse) -> String {
    json(resp)
        .get("id")
        .and_then(Json::as_str)
        .expect("submit body carries a job id")
        .to_string()
}

/// Poll `GET /jobs/<id>` until the job reaches `done`; panics on
/// `failed` or timeout. Returns the final status body.
pub fn wait_done(addr: &str, id: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let resp = get(addr, &format!("/jobs/{id}"));
        assert_eq!(resp.status, 200, "status route stays up: {}", resp.text());
        let status = json(&resp);
        match status.get("state").and_then(Json::as_str) {
            Some("done") => return status,
            Some("failed") => panic!("job {id} failed: {}", resp.text()),
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "job {id} did not finish within {timeout:?}; last status: {}",
            resp.text()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The value of an unlabelled sample line in a Prometheus exposition.
pub fn metric_value(text: &str, name: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("metric {name} is not in the exposition"));
    line[name.len() + 1..]
        .parse()
        .expect("metric value parses as f64")
}
