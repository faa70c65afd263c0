//! The load driver: spawns a fresh child per repetition (or the server
//! and its clients), reduces what they report to the metrics of
//! `crate::metrics`, and checks that every output is correct.

use crate::child::COMPARABLE_KEY;
use crate::inputs::{served_specs, Plan, Workload};
use crate::metrics::{self, Def};
use crate::serve::{self, hermetic, Sweep};
use crate::spans::{self, Span, Tracer};
use crate::stats::{self, Summary};
use psa_sim::Json;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that has not finished by then is killed and counted failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

/// How long a timed run goes on.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Reps(usize),
    /// Repeat while another repetition fits, after a minimum of two
    /// (one for the served sweep, whose repetition is long).
    Seconds(f64),
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub quick: bool,
    pub scratch: PathBuf,
}

/// One metric's value and the samples it was reduced from.
#[derive(Debug, Clone)]
pub struct Value {
    pub def: Def,
    pub value: f64,
    pub samples: Vec<f64>,
    /// Extra context for the printed table (e.g. which percentile).
    pub note: String,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(item, digest)` pairs for the expected-digest gate.
    pub digests: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn set(&mut self, defs: &[Def], name: &str, value: f64, samples: Vec<f64>, note: String) {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"))
            .clone();
        self.values.push(Value {
            def,
            value,
            samples,
            note,
        });
    }

    /// Fail when two sources report different digests for one item.
    fn add_digest(&mut self, item: String, digest: String) {
        match self.digests.iter().find(|(i, _)| *i == item) {
            Some((_, d)) if *d != digest => self.problems.push(format!(
                "{item}: digest {digest} differs from {d} of an earlier run"
            )),
            Some(_) => {}
            None => self.digests.push((item, digest)),
        }
    }
}

/// Run one child repetition; returns its result line.
fn run_child(exe: &Path, plan: &Plan, dir: &Path, traced: bool) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    hermetic(&mut cmd)
        .arg("child")
        .arg(plan.workload.name())
        .args(["--seed", &plan.seed.to_string()])
        .arg("--scratch")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if plan.quick {
        cmd.arg("--quick");
    }
    if traced {
        cmd.arg("--traced");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("child did not finish within {CHILD_DEADLINE:?}"));
            }
            Err(e) => break Err(format!("waiting for child: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "child reader panicked".to_string())?
        .map_err(|e| format!("reading child output: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let last = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child result line: {e:?}"))
}

/// The fields of a child's per-job record this module uses.
struct JobRec {
    label: String,
    digest: Option<String>,
    reason: Option<String>,
    cpu_ms: f64,
    wall_ms: f64,
    instr: f64,
}

fn jobs_of(doc: &Json) -> Vec<JobRec> {
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(String::from);
    doc.get("jobs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|j| JobRec {
            label: text(j, "label").unwrap_or_default(),
            digest: text(j, "digest"),
            reason: text(j, "reason"),
            cpu_ms: field(j, "cpu_ms"),
            wall_ms: field(j, "wall_ms"),
            instr: field(j, "instr"),
        })
        .collect()
}

/// Fold one child's jobs into the outcome's counts and digests.
fn absorb_jobs(out: &mut Outcome, doc: &Json, prefix: &str) -> Vec<JobRec> {
    let jobs = jobs_of(doc);
    for j in &jobs {
        out.attempted += 1;
        match (&j.digest, &j.reason) {
            (Some(d), _) => out.add_digest(format!("{prefix}{}", j.label), d.clone()),
            (None, reason) => {
                out.failed += 1;
                out.problems.push(format!(
                    "{}: {}",
                    j.label,
                    reason.as_deref().unwrap_or("no digest")
                ));
            }
        }
    }
    if let Some(input) = doc.get("input").and_then(Json::as_str) {
        out.add_digest("input".into(), input.to_string());
    }
    jobs
}

fn child_failed(out: &mut Outcome, e: String) {
    out.attempted += 1;
    out.failed += 1;
    out.problems.push(e);
}

fn more(budget: Budget, reps: usize, min: usize, started: Instant) -> bool {
    match budget {
        Budget::Reps(n) => reps < n,
        Budget::Seconds(s) => {
            let elapsed = started.elapsed().as_secs_f64();
            reps < min || (reps > 0 && elapsed + elapsed / reps as f64 <= s)
        }
    }
}

/// The end-to-end metrics of a workload, from timed repetitions.
pub fn timed(exe: &Path, plan: &Plan, opts: &Opts, budget: Budget) -> Outcome {
    if plan.workload == Workload::ServeSweep {
        return timed_serve(exe, plan, opts, budget);
    }
    let defs = metrics::end_to_end();
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut reps: Vec<(Vec<JobRec>, f64, f64)> = Vec::new();
    let mut attempts = 0;
    while more(budget, attempts, 2, started) {
        attempts += 1;
        match run_child(
            exe,
            plan,
            &opts.scratch.join(format!("rep{attempts}")),
            false,
        ) {
            Ok(doc) => {
                let jobs = absorb_jobs(&mut out, &doc, "");
                let setup = doc.get("setup_cpu_s").and_then(Json::as_f64).unwrap_or(0.0);
                let rss = doc.get("rss_mb").and_then(Json::as_f64).unwrap_or(0.0);
                reps.push((jobs, setup, rss));
            }
            Err(e) => child_failed(&mut out, e),
        }
    }
    // Each job's median CPU time over the repetitions, so a burst of
    // contention during one repetition moves only that sample. (The
    // minimum was tried too: its run-to-run spread was about twice the
    // median's on this kind of shared host.)
    let mut by_label: BTreeMap<&str, (f64, Vec<f64>)> = BTreeMap::new();
    for (jobs, _, _) in &reps {
        for j in jobs.iter().filter(|j| j.digest.is_some()) {
            let e = by_label.entry(&j.label).or_insert((j.instr, Vec::new()));
            e.1.push(j.cpu_ms);
        }
    }
    let job_ms: Vec<f64> = by_label.values().map(|(_, v)| med(v)).collect();
    let instr: f64 = by_label.values().map(|(n, _)| n).sum();
    let cpu_ms: f64 = job_ms.iter().sum();
    let per_rep = |f: &dyn Fn(&JobRec) -> f64| -> Vec<f64> {
        reps.iter()
            .map(|(jobs, _, _)| jobs.iter().map(f).sum())
            .collect()
    };
    let rep_rates: Vec<f64> = per_rep(&|j| j.instr)
        .iter()
        .zip(per_rep(&|j| j.cpu_ms))
        .map(|(i, c)| minstr_per_s(*i, c / 1e3))
        .collect();
    out.set(
        &defs,
        "sim_minstr_per_s",
        minstr_per_s(instr, cpu_ms / 1e3),
        rep_rates,
        "per host CPU second; sum of per-job median CPU times".into(),
    );
    out.set(
        &defs,
        "job_p50_ms",
        med(&job_ms),
        job_ms,
        "median over jobs of each job's median CPU time".into(),
    );
    let setups: Vec<f64> = reps.iter().map(|r| r.1).collect();
    out.set(
        &defs,
        "setup_s",
        med(&setups),
        setups,
        "child CPU time to its first timed job".into(),
    );
    let rss: Vec<f64> = reps.iter().map(|r| r.2).collect();
    out.set(&defs, "peak_rss_mb", med(&rss), rss, "child VmHWM".into());
    out
}

fn minstr_per_s(instructions: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        instructions / 1e6 / seconds
    } else {
        0.0
    }
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn absorb_sweep(out: &mut Outcome, sweep: &Sweep, prefix: &str) {
    out.attempted += sweep.attempted;
    out.failed += sweep.failed;
    out.problems.extend(sweep.problems.iter().cloned());
    for (item, d) in &sweep.digests {
        out.add_digest(format!("{prefix}{item}"), d.clone());
    }
}

fn timed_serve(exe: &Path, plan: &Plan, opts: &Opts, budget: Budget) -> Outcome {
    let defs = metrics::end_to_end();
    let mut out = Outcome::default();
    let specs = served_specs(plan.seed, plan.quick);
    let started = Instant::now();
    let mut sweeps = Vec::new();
    while more(budget, sweeps.len(), 1, started) {
        let dir = opts.scratch.join(format!("sweep{}", sweeps.len()));
        let sweep = serve::sweep(exe, &specs, &dir, None);
        let _ = std::fs::remove_dir_all(&dir);
        absorb_sweep(&mut out, &sweep, "");
        sweeps.push(sweep);
    }
    // Each fresh spec's median over the sweeps of the worker's CPU time
    // from POST to result, reduced like the other workloads' job times.
    // Wall time on a shared host swings with the time the hypervisor
    // steals and with the latency of the store's fsyncs (it is the
    // per-layer `serve.job_wall_p50_ms`). The connection threads the
    // polls open are left out, so a server that answers polls faster
    // does not look slower here.
    let mut by_spec: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in &sweeps {
        for &(i, cpu_ms) in &s.fresh_cpu_ms {
            by_spec.entry(i).or_default().push(cpu_ms);
        }
    }
    let job_ms: Vec<f64> = by_spec.values().map(|v| med(v)).collect();
    let instr: f64 = by_spec.keys().map(|&i| specs[i].instructions as f64).sum();
    let rates = sweeps
        .iter()
        .map(|s| {
            let (i, c) = s.fresh_cpu_ms.iter().fold((0.0, 0.0), |(i, c), &(k, ms)| {
                (i + specs[k].instructions as f64, c + ms)
            });
            minstr_per_s(i, c / 1e3)
        })
        .collect();
    out.set(
        &defs,
        "sim_minstr_per_s",
        minstr_per_s(instr, job_ms.iter().sum::<f64>() / 1e3),
        rates,
        "fresh specs' instructions per CPU second of the server's worker; sum of per-spec medians"
            .into(),
    );
    out.set(
        &defs,
        "job_p50_ms",
        med(&job_ms),
        job_ms,
        "median over fresh specs of each one's median worker CPU time, POST to 200 on /results"
            .into(),
    );
    let boots: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.boots_s.iter().copied())
        .collect();
    out.set(
        &defs,
        "setup_s",
        med(&boots),
        boots,
        "server spawn to first 200 from /healthz".into(),
    );
    let rss: Vec<f64> = sweeps.iter().map(|s| s.rss_mb).collect();
    out.set(
        &defs,
        "peak_rss_mb",
        med(&rss),
        rss,
        "server VmHWM after the cold phase".into(),
    );
    out
}

/// The per-layer metrics of a workload, from one traced run: an
/// untimed child and a traced child over the same jobs (their digests
/// must agree), then a served sweep with a span around every HTTP call.
pub fn traced(exe: &Path, plan: &Plan, opts: &Opts) -> Outcome {
    let defs = metrics::per_layer();
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let untimed = run_child(exe, plan, &opts.scratch.join("untraced"), false);
    let spawned_us = tracer.elapsed_us();
    let traced = run_child(exe, plan, &opts.scratch.join("traced"), true);
    let (untimed, traced) = match (untimed, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (u, t) => {
            for e in [u.err(), t.err()].into_iter().flatten() {
                child_failed(&mut out, e);
            }
            return out;
        }
    };
    let base = absorb_jobs(&mut out, &untimed, "");
    absorb_jobs(&mut out, &traced, "");
    if let Some(s) = traced.get("spans").and_then(spans::from_json) {
        tracer.absorb(&s, 2, spawned_us);
    }

    let numbers = |section: Option<&Json>| -> Vec<(String, f64)> {
        match section {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut layers: BTreeMap<String, f64> = numbers(traced.get("layers"))
        .into_iter()
        .chain(numbers(untimed.get("runner")))
        .collect();
    let comparable = layers.remove(COMPARABLE_KEY).unwrap_or(0.0);
    let untimed_s: f64 = base.iter().map(|j| j.wall_ms).sum::<f64>() / 1e3;
    layers.insert(
        "trace.overhead_pct".into(),
        if untimed_s > 0.0 {
            (comparable / untimed_s - 1.0) * 100.0
        } else {
            0.0
        },
    );

    // The result line of a traced run carries every per-layer metric, so
    // the other workloads report `serve.*` and `store.*` too: from the
    // served sweep at its quick size, a probe of a few seconds. Only
    // `serve_sweep`'s own values describe the service under its load.
    let probe = plan.quick || plan.workload != Workload::ServeSweep;
    let sweep_dir = opts.scratch.join("sweep");
    let sweep = serve::sweep(
        exe,
        &served_specs(plan.seed, probe),
        &sweep_dir,
        Some(&tracer),
    );
    let _ = std::fs::remove_dir_all(&sweep_dir);
    absorb_sweep(&mut out, &sweep, "served:");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    layers.insert("serve.rtt_ms".into(), med(&sweep.rtt_ms));
    layers.insert("serve.submit_ms".into(), med(&sweep.submit_ms));
    layers.insert(
        "serve.polls_per_job".into(),
        ratio(sweep.polls.iter().sum(), sweep.polls.len() as f64),
    );
    layers.insert(
        "serve.dedup_ratio".into(),
        ratio(sweep.deduped as f64, sweep.submitted as f64),
    );
    layers.insert("serve.from_cache_ratio".into(), sweep.from_cache_ratio);
    layers.insert(
        "serve.jobs_per_s".into(),
        ratio(sweep.submitted as f64, sweep.cold_wall_s),
    );
    layers.insert("serve.memo_p50_ms".into(), med(&sweep.memo_ms));
    layers.insert("serve.job_wall_p50_ms".into(), med(&sweep.fresh_ms));
    layers.insert("store.hits".into(), sweep.store_hits);
    layers.insert("store.misses".into(), sweep.store_misses);
    // The tail: the highest percentile with ten samples beyond it, or
    // the slowest job when there are too few for any.
    let (tail_pct, tail) = stats::tail(&sweep.fresh_ms)
        .unwrap_or((100.0, sweep.fresh_ms.iter().copied().fold(0.0, f64::max)));
    layers.insert("serve.job_tail_ms".into(), tail);

    for def in &defs {
        match layers.get(&def.name) {
            Some(&v) => {
                let note = match def.name.as_str() {
                    "serve.job_tail_ms" => {
                        format!("p{tail_pct} of {} fresh jobs", sweep.fresh_ms.len())
                    }
                    _ => String::new(),
                };
                out.set(&defs, &def.name, v, vec![v], note);
            }
            None => out
                .problems
                .push(format!("the traced run produced no {}", def.name)),
        }
    }
    out.spans = tracer.spans();
    out
}

/// The committed digests of seed 1 at full size.
pub fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/seed1.digests")
}

/// Lines `workload item digest`.
fn digest_lines(workload: Workload, digests: &[(String, String)]) -> Vec<String> {
    digests
        .iter()
        .map(|(item, d)| format!("{} {item} {d}", workload.name()))
        .collect()
}

/// Compare an outcome's digests with the committed ones. Only seed 1 at
/// full size has committed digests; any other run is held to
/// determinism alone.
pub fn check_expected(out: &mut Outcome, workload: Workload, opts: &Opts) {
    if opts.seed != 1 || opts.quick {
        return;
    }
    let text = match std::fs::read_to_string(expected_path()) {
        Ok(t) => t,
        Err(e) => {
            out.problems
                .push(format!("{}: {e}", expected_path().display()));
            return;
        }
    };
    let expected: BTreeMap<(&str, &str), &str> = text
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some(((f.next()?, f.next()?), f.next()?))
        })
        .collect();
    for (item, d) in &out.digests.clone() {
        match expected.get(&(workload.name(), item.as_str())) {
            Some(e) if e == d => {}
            Some(e) => out.problems.push(format!(
                "{} {item}: digest {d}, expected {e}",
                workload.name()
            )),
            None => out.problems.push(format!(
                "{} {item}: no expected digest in {}",
                workload.name(),
                expected_path().display()
            )),
        }
    }
}

/// Write the digests of a full seed-1 run as the expected ones.
pub fn bless(outcomes: &[(Workload, &Outcome)]) -> std::io::Result<()> {
    let mut lines: Vec<String> = outcomes
        .iter()
        .flat_map(|(w, o)| digest_lines(*w, &o.digests))
        .collect();
    lines.sort();
    lines.dedup();
    std::fs::write(expected_path(), lines.join("\n") + "\n")
}

/// `name workload value unit (median, q1–q3, n)` lines.
pub fn table(workload: Workload, out: &Outcome) -> Vec<String> {
    out.values
        .iter()
        .map(|v| {
            let s = Summary::of(&v.samples).unwrap_or(Summary {
                median: v.value,
                q1: v.value,
                q3: v.value,
                n: 0,
            });
            let note = if v.note.is_empty() {
                String::new()
            } else {
                format!("; {}", v.note)
            };
            format!(
                "{} {} {} {} (median {}, q1–q3 {}–{}, n={}{note})",
                v.def.name,
                workload.name(),
                fmt(v.value),
                v.def.unit,
                fmt(s.median),
                fmt(s.q1),
                fmt(s.q3),
                s.n
            )
        })
        .collect()
}

fn fmt(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// The benchmark's result line: every metric's value and unit.
pub fn result_line(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::uint(out.attempted.max(1))),
        ("failed", Json::uint(out.failed)),
        (
            "metrics",
            Json::obj(out.values.iter().map(|v| {
                (
                    v.def.name.clone(),
                    Json::obj([
                        ("value", Json::Num(v.value)),
                        ("unit", Json::str(v.def.unit)),
                    ]),
                )
            })),
        ),
    ])
}

/// One workload's section of `perf.json`.
pub fn report_json(outs: &[&Outcome]) -> Json {
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    for out in outs {
        attempted += out.attempted;
        failed += out.failed;
        problems.extend(out.problems.iter().map(Json::str));
        for v in &out.values {
            let s = Summary::of(&v.samples);
            metrics.push((
                v.def.name.clone(),
                Json::obj([
                    ("value", Json::Num(v.value)),
                    ("unit", Json::str(v.def.unit)),
                    ("median", Json::Num(s.map_or(v.value, |s| s.median))),
                    ("q1", Json::Num(s.map_or(v.value, |s| s.q1))),
                    ("q3", Json::Num(s.map_or(v.value, |s| s.q3))),
                    ("n", Json::uint(s.map_or(0, |s| s.n as u64))),
                ]),
            ));
        }
    }
    Json::obj([
        ("correct", Json::Bool(failed == 0 && problems.is_empty())),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        ("problems", Json::Arr(problems)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The traced run's span table: per span name, calls, total and self time.
pub fn span_table(workload: Workload, spans: &[Span]) -> String {
    let mut s = format!(
        "### {}\n\n| span | calls | total ms | self ms |\n|---|---:|---:|---:|\n",
        workload.name()
    );
    for (name, count, total, self_ms) in spans::table(spans) {
        s.push_str(&format!(
            "| `{name}` | {count} | {total:.1} | {self_ms:.1} |\n"
        ));
    }
    s
}
