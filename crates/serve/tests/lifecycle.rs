//! Server start and stop: `RunningServer::spawn` returns only once its
//! workers run under their thread names, and `RunningServer::shutdown`
//! wakes the blocking accept loop with one loopback connection, so a
//! server bound to the unspecified address stops promptly after serving
//! traffic.

mod common;

use psa_serve::{RunningServer, ServerConfig};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn server_bound_to_unspecified_address_shuts_down_within_deadline() {
    let server = RunningServer::spawn(ServerConfig {
        addr: "0.0.0.0:0".into(),
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    assert!(server.addr.ip().is_unspecified());
    let addr = format!("127.0.0.1:{}", server.addr.port());
    assert_eq!(common::get(&addr, "/healthz").status, 200);

    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown returns within 5 s");
}

/// Linux cuts thread names to 15 bytes: `psa-serve-worker-<i>` reads as
/// `psa-serve-worke`. Other tests in this binary may run servers too,
/// hence at least, not exactly, this server's worker count.
#[cfg(target_os = "linux")]
#[test]
fn workers_run_under_their_names_once_spawn_returns() {
    let server = RunningServer::spawn(ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    server.shutdown();
    let workers = names
        .iter()
        .filter(|n| n.starts_with("psa-serve-worke"))
        .count();
    assert!(workers >= 3, "worker threads not all named: {names:?}");
}
