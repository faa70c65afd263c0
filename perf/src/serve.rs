//! The served sweep: `psa_serve` in a child process, driven by one
//! client that submits each spec after the previous one's result
//! arrived (polling for it at most once per [`POLL_INTERVAL`]), then
//! restarted on the same store and driven through the same specs again.

use crate::host;
use crate::inputs::ServedSpec;
use crate::spans::Tracer;
use psa_serve::http;
use psa_sim::Json;
use psa_traces::format::Fnv1a;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `/healthz` round trips timed after each cold boot.
const RTT_PROBES: usize = 10;
/// The least time between the starts of two polls of one spec's result.
/// It keeps the load the client offers independent of how fast the
/// server answers: a faster server sees no more polls per second, only
/// polls that return sooner. It also bounds the latency's resolution.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Boots per sweep beyond the cold and restart ones, so set-up time is a
/// median over several.
const EXTRA_BOOTS: usize = 3;
/// The name `psa_serve`'s job workers (`psa-serve-worker-<i>`) carry,
/// cut to the 15 bytes Linux keeps.
const WORKER_THREAD: &str = "psa-serve-worke";

/// A running `psa_serve` child.
struct Server {
    child: Child,
    /// Kept open until the child exits: the server prints on shutdown.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

/// Environment for every process the benchmark starts: no inherited
/// `PSA_*` knob, one simulation thread.
pub fn hermetic(cmd: &mut Command) -> &mut Command {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PSA_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("PSA_THREADS", "1")
}

/// Start the server on `store`; returns it and its set-up time (spawn
/// to the first `200` from `/healthz`).
fn boot(exe: &Path, store: &Path) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let mut cmd = Command::new(exe);
    hermetic(&mut cmd)
        .args(["psa_serve", "serve", "--workers", "1"])
        .env("PSA_CKPT_DIR", store)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawning psa_serve: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let listening = stdout.read_line(&mut line);
    let server = Server {
        child,
        _stdout: stdout,
        addr: line
            .trim()
            .rsplit(' ')
            .next()
            .unwrap_or_default()
            .to_string(),
    };
    if !matches!(listening, Ok(n) if n > 0) {
        return Err("psa_serve exited before listening".into());
    }
    for _ in 0..1000 {
        match http::request(&server.addr, "GET", "/healthz", None) {
            Ok(r) if r.status == 200 => return Ok((server, started.elapsed().as_secs_f64())),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Err("psa_serve never answered /healthz".into())
}

/// SIGTERM, then wait for the drain; a server that has not exited after
/// a minute is killed (on drop) and reported.
fn stop(mut server: Server) -> Result<(), String> {
    host::terminate(server.child.id()).map_err(|e| format!("SIGTERM psa_serve: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match server.child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("psa_serve exited with {status}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => return Err("psa_serve did not drain within a minute".into()),
        }
    }
}

impl Drop for Server {
    /// A server abandoned on an error path is killed, never left running.
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One spec's trip through the service.
#[derive(Debug, Clone)]
struct Trip {
    latency_ms: f64,
    /// The server worker's CPU time from the submission to the result.
    /// One client and one worker make it this spec's alone.
    cpu_ms: f64,
    submit_ms: f64,
    polls: u32,
    deduped: bool,
    /// The served document up to its `"executor"` section: everything
    /// that must not depend on when or how often it was computed.
    stable: Vec<u8>,
}

fn stable_section(doc: &[u8]) -> Vec<u8> {
    let cut = doc
        .windows(10)
        .position(|w| w == b"\"executor\"")
        .unwrap_or(doc.len());
    doc[..cut].to_vec()
}

/// The client's thread id in the traced run's spans.
const CLIENT_TID: u32 = 1;

/// On-CPU seconds of the server's job worker so far.
fn worker_cpu_s(server: &Server) -> Result<f64, String> {
    host::threads_cpu_s(server.child.id(), WORKER_THREAD)
        .ok_or_else(|| "cannot read the CPU time of psa_serve's worker".into())
}

/// Submit one spec and poll its result until it is ready.
fn trip(server: &Server, spec: &ServedSpec, tracer: Option<&Tracer>) -> Result<Trip, String> {
    let root = tracer.map(|t| t.begin("spec", None, CLIENT_TID));
    let out = submit_and_poll(server, spec, tracer, root);
    if let (Some(t), Some(r)) = (tracer, root) {
        t.end(r);
    }
    out
}

fn submit_and_poll(
    server: &Server,
    spec: &ServedSpec,
    tracer: Option<&Tracer>,
    root: Option<usize>,
) -> Result<Trip, String> {
    let call = |method: &str, path: &str, body: Option<&[u8]>| {
        let span = tracer.map(|t| {
            let name = format!("{method} {}", route(path));
            t.begin_detail(&name, path.into(), root, CLIENT_TID)
        });
        let resp = http::request(&server.addr, method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"));
        if let (Some(t), Some(s)) = (tracer, span) {
            t.end(s);
        }
        resp
    };
    let (started, cpu0) = (Instant::now(), worker_cpu_s(server)?);
    let resp = call("POST", "/jobs", Some(spec.body.as_bytes()))?;
    let submit_ms = started.elapsed().as_secs_f64() * 1e3;
    if resp.status != 200 && resp.status != 202 {
        return Err(format!(
            "POST /jobs answered {}: {}",
            resp.status,
            resp.text()
        ));
    }
    let body = Json::parse(&resp.text()).map_err(|e| format!("POST /jobs body: {e:?}"))?;
    let id = body
        .get("id")
        .and_then(Json::as_str)
        .ok_or("POST /jobs body has no id")?
        .to_string();
    let deduped = body.get("deduped") == Some(&Json::Bool(true));
    let mut polls = 0;
    let mut next_poll = Instant::now();
    loop {
        if let Some(wait) = next_poll.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        next_poll = Instant::now() + POLL_INTERVAL;
        polls += 1;
        let r = call("GET", &format!("/results/{id}"), None)?;
        match r.status {
            200 => {
                return Ok(Trip {
                    latency_ms: started.elapsed().as_secs_f64() * 1e3,
                    cpu_ms: (worker_cpu_s(server)? - cpu0) * 1e3,
                    submit_ms,
                    polls,
                    deduped,
                    stable: stable_section(&r.body),
                })
            }
            202 => continue,
            s => return Err(format!("GET /results/{id} answered {s}: {}", r.text())),
        }
    }
}

fn route(path: &str) -> &str {
    match path.rfind('/') {
        Some(i) if i > 0 => &path[..i],
        _ => path,
    }
}

/// Drive `specs` through `server` from one client, each spec submitted
/// after the previous one's result arrived, as the `ci.sh` server smoke
/// drives it; one result per spec, in spec order.
fn phase(
    server: &Server,
    specs: &[ServedSpec],
    tracer: Option<&Tracer>,
) -> Vec<Result<Trip, String>> {
    specs
        .iter()
        .map(|spec| trip(server, spec, tracer))
        .collect()
}

/// Counter values from a Prometheus text body.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// What one cold-plus-restart sweep measured.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Fresh specs' wall time from the submission to the result.
    pub fresh_ms: Vec<f64>,
    /// `(position in the specs, worker CPU time over the same span)` of
    /// each fresh spec.
    pub fresh_cpu_ms: Vec<(usize, f64)>,
    pub memo_ms: Vec<f64>,
    pub submit_ms: Vec<f64>,
    pub rtt_ms: Vec<f64>,
    pub polls: Vec<f64>,
    pub boots_s: Vec<f64>,
    pub rss_mb: f64,
    pub cold_wall_s: f64,
    pub submitted: usize,
    pub deduped: usize,
    pub from_cache_ratio: f64,
    pub store_hits: f64,
    pub store_misses: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(label, stable-section digest)` per distinct spec, labelled by
    /// its first position in the submission order.
    pub digests: Vec<(String, String)>,
}

/// Run the cold phase on a fresh store under `scratch`, restart the
/// server on the same store and run the restart phase.
pub fn sweep(exe: &Path, specs: &[ServedSpec], scratch: &Path, tracer: Option<&Tracer>) -> Sweep {
    let mut out = Sweep::default();
    let store = scratch.join("serve-store");
    let _ = std::fs::remove_dir_all(&store);
    if let Err(e) = run(exe, specs, &store, tracer, &mut out) {
        out.failed += 1;
        out.attempted += 1;
        out.problems.push(e);
    }
    let _ = std::fs::remove_dir_all(&store);
    out
}

fn run(
    exe: &Path,
    specs: &[ServedSpec],
    store: &Path,
    tracer: Option<&Tracer>,
    out: &mut Sweep,
) -> Result<(), String> {
    for _ in 0..EXTRA_BOOTS {
        let (server, setup) = boot(exe, store)?;
        out.boots_s.push(setup);
        stop(server)?;
    }

    let (server, setup) = boot(exe, store)?;
    out.boots_s.push(setup);
    for _ in 0..RTT_PROBES {
        let t = Instant::now();
        let r = http::request(&server.addr, "GET", "/healthz", None).map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("/healthz answered {}", r.status));
        }
        out.rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let metrics = |server: &Server| {
        http::request(&server.addr, "GET", "/metrics", None)
            .map(|r| r.text())
            .map_err(|e| e.to_string())
    };
    let started = Instant::now();
    let cold = phase(&server, specs, tracer);
    out.cold_wall_s = started.elapsed().as_secs_f64();
    out.rss_mb = host::peak_rss_mb(&server.child.id().to_string()).unwrap_or(0.0);
    let cold_metrics = metrics(&server)?;
    stop(server)?;

    let (server, setup) = boot(exe, store)?;
    out.boots_s.push(setup);
    let restart = phase(&server, specs, tracer);
    let restart_metrics = metrics(&server)?;
    stop(server)?;

    let completed = counter(&restart_metrics, "psa_serve_jobs_completed_total");
    out.from_cache_ratio = if completed > 0.0 {
        counter(&restart_metrics, "psa_serve_jobs_from_cache_total") / completed
    } else {
        0.0
    };
    for text in [&cold_metrics, &restart_metrics] {
        out.store_hits += counter(text, "psa_store_hits_total");
        out.store_misses += counter(text, "psa_store_misses_total");
    }

    let mut first_seen: Vec<(&str, usize)> = Vec::new();
    for (i, (spec, (c, r))) in specs.iter().zip(cold.iter().zip(&restart)).enumerate() {
        out.attempted += 2;
        let (c, r) = match (c, r) {
            (Ok(c), Ok(r)) => (c, r),
            (c, r) => {
                for e in [c.as_ref().err(), r.as_ref().err()].into_iter().flatten() {
                    out.failed += 1;
                    out.problems.push(e.clone());
                }
                continue;
            }
        };
        out.submitted += 1;
        out.submit_ms.push(c.submit_ms);
        out.polls.push(f64::from(c.polls));
        if !r.deduped {
            out.memo_ms.push(r.latency_ms);
        }
        if c.deduped {
            out.deduped += 1;
        } else {
            out.fresh_ms.push(c.latency_ms);
            out.fresh_cpu_ms.push((i, c.cpu_ms));
        }
        if c.stable != r.stable {
            out.problems.push(format!(
                "spec {i}: the restarted server's document differs from the cold one before \"executor\""
            ));
        }
        match first_seen.iter().find(|(body, _)| *body == spec.body) {
            Some(&(_, j)) => {
                if cold[j].as_ref().is_ok_and(|first| first.stable != c.stable) {
                    out.problems.push(format!(
                        "spec {i} repeats spec {j} but its document differs"
                    ));
                }
            }
            None => {
                first_seen.push((&spec.body, i));
                let mut h = Fnv1a::new();
                h.update(&c.stable);
                out.digests
                    .push((format!("doc{i}"), format!("{:016x}", h.finish())));
            }
        }
    }
    Ok(())
}
