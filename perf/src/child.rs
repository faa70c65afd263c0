//! One repetition of a workload's simulations, run in a fresh process so
//! no warm-up checkpoint or memoised run carries over between reps.
//!
//! The timed repetition runs each job through `RunCache::run_batch_refs`
//! (single-core) or `System::try_from_refs(..).try_run_multi()` (mixes).
//! The traced repetition runs the same jobs through the public `System`
//! API with a span around each call — build, warm-up, snapshot encode,
//! a `psa_store::Store` round trip, restore into a fresh machine, and
//! the measured run — then replays the layers (`crate::layers`).
//!
//! Either way the child prints one JSON line: per-job digests and times,
//! its set-up CPU time, its peak RSS, and (traced) the layer numbers.

use crate::host;
use crate::inputs::{stream_digest, Job, Plan, Source, TraceInput};
use crate::layers::{self, Replay};
use crate::metrics;
use crate::spans::{self, Tracer};
use psa_common::codec::{Enc, Persist};
use psa_common::fxhash::FxHasher;
use psa_common::rng::fnv1a;
use psa_experiments::runner::{self, RunCache, RunOutcome, Variant};
use psa_sim::{Json, MultiReport, RunReport, Snapshot, System, TraceError, TraceRef, WorkloadRef};
use psa_store::{EntryKind, Store, StoreConfig, Tier};
use psa_traces::format::{Fnv1a, TraceWriter};
use psa_traces::TraceGenerator;
use std::hash::Hasher;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Streams and instructions per stream the traced repetition replays.
fn replay_budget(quick: bool) -> (usize, u64) {
    if quick {
        (2, 20_000)
    } else {
        (8, 1_000_000)
    }
}

/// Jobs whose warm snapshots also go through the store round trip.
const STORE_PROBE_JOBS: usize = 8;

/// Record a trace input to `path`.
pub fn write_trace(t: &TraceInput, path: &Path) -> Result<(), TraceError> {
    let mut gen = TraceGenerator::new(t.spec, t.seed);
    let mut w = TraceWriter::create(path, t.spec.name, t.spec.huge_fraction)?;
    for _ in 0..t.instructions {
        w.push_instr(&gen.next().expect("the generator is infinite"))?;
    }
    w.finish().map(drop)
}

/// The inputs a repetition sets up before its first timed operation.
struct Prepared {
    traces: Vec<WorkloadRef>,
    /// Fingerprint of every instruction stream the jobs consume.
    input: u64,
    open_verify_ms: Vec<f64>,
}

/// Materialise the seeded inputs: record and verify the trace files, and
/// fingerprint every synthetic stream over the length the jobs consume,
/// so an input change is told apart from a simulator change.
fn prepare(plan: &Plan, scratch: &Path) -> Result<Prepared, String> {
    let mut h = FxHasher::default();
    let mut traces = Vec::new();
    let mut open_verify_ms = Vec::new();
    for t in &plan.traces {
        let path = scratch.join(t.file_name());
        write_trace(t, &path).map_err(|e| e.to_string())?;
        let p = path.to_str().ok_or("scratch path is not UTF-8")?;
        let started = Instant::now();
        let tref = TraceRef::open(p).map_err(|e| e.to_string())?;
        open_verify_ms.push(started.elapsed().as_secs_f64() * 1e3);
        h.write_u64(tref.content_hash);
        traces.push(WorkloadRef::TraceFile(tref));
    }
    for (source, seed, len) in plan.streams() {
        if let Source::Synthetic(spec) = source {
            let d =
                stream_digest(&WorkloadRef::from(spec), seed, len).map_err(|e| e.to_string())?;
            h.write_u64(d);
        }
    }
    Ok(Prepared {
        traces,
        input: h.finish(),
        open_verify_ms,
    })
}

/// What one job produced.
enum Report {
    Single(Box<RunReport>),
    Multi(MultiReport),
}

impl Report {
    fn digest(&self) -> u64 {
        match self {
            Report::Single(r) => {
                let mut h = Fnv1a::new();
                h.update(&r.to_store_bytes());
                h.finish()
            }
            Report::Multi(r) => {
                let mut e = Enc::new();
                for w in &r.workloads {
                    e.put_usize(w.len());
                    e.put_bytes(w.as_bytes());
                }
                for ipc in &r.ipc {
                    e.put_u64(ipc.to_bits());
                }
                r.llc.save(&mut e);
                r.dram.save(&mut e);
                let mut h = Fnv1a::new();
                h.update(&e.into_bytes());
                h.finish()
            }
        }
    }
}

struct JobResult {
    label: String,
    outcome: Result<u64, String>,
    wall_ms: f64,
    cpu_ms: f64,
    instructions: u64,
}

impl JobResult {
    fn to_json(&self) -> Json {
        let mut j = Json::obj([
            ("label", Json::str(&self.label)),
            ("ok", Json::Bool(self.outcome.is_ok())),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("cpu_ms", Json::Num(self.cpu_ms)),
            ("instr", Json::uint(self.instructions)),
        ]);
        match &self.outcome {
            Ok(d) => j.push("digest", Json::str(format!("{d:016x}"))),
            Err(e) => j.push("reason", Json::str(e)),
        }
        j
    }
}

/// Run `f` and charge it to a job: wall and this thread's CPU time.
fn measure<T>(
    job: &Job,
    f: impl FnOnce() -> Result<(Report, T), String>,
) -> (JobResult, Option<(Report, T)>) {
    let (t0, c0) = (Instant::now(), host::thread_cpu_ns());
    let out = f();
    let result = JobResult {
        label: job.label.clone(),
        outcome: out.as_ref().map(|(r, _)| r.digest()).map_err(Clone::clone),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        cpu_ms: (host::thread_cpu_ns() - c0) as f64 / 1e6,
        instructions: job.instructions(),
    };
    (result, out.ok())
}

/// Entry point of `psa_perf child`. Prints the result line; returns the
/// exit code (non-zero only when the inputs could not be set up).
pub fn main(plan: &Plan, scratch: &Path, traced: bool) -> i32 {
    if let Err(e) = std::fs::create_dir_all(scratch) {
        eprintln!("psa_perf child: cannot create {}: {e}", scratch.display());
        return 1;
    }
    let tracer = Tracer::new();
    let prepared = tracer.time("set-up", None, 0, || prepare(plan, scratch));
    let setup_cpu_s = host::thread_cpu_ns() as f64 / 1e9;
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            eprintln!("psa_perf child: set-up failed: {e}");
            return 1;
        }
    };
    let mut doc = Json::obj([
        ("setup_cpu_s", Json::Num(setup_cpu_s)),
        ("input", Json::str(format!("{:016x}", prepared.input))),
    ]);
    let jobs = if traced {
        match traced_rep(plan, &prepared, scratch, &tracer) {
            Ok((jobs, layers)) => {
                doc.push("layers", layers);
                jobs
            }
            Err(e) => {
                eprintln!("psa_perf child: traced repetition failed: {e}");
                return 1;
            }
        }
    } else {
        let jobs = timed_rep(plan, &prepared);
        doc.push("runner", runner_stats());
        jobs
    };
    doc.push(
        "rss_mb",
        Json::Num(host::peak_rss_mb("self").unwrap_or(0.0)),
    );
    doc.push(
        "jobs",
        Json::Arr(jobs.iter().map(JobResult::to_json).collect()),
    );
    if traced {
        doc.push("spans", spans::to_json(&tracer.spans()));
    }
    println!("{doc}");
    0
}

fn timed_rep(plan: &Plan, prepared: &Prepared) -> Vec<JobResult> {
    plan.jobs
        .iter()
        .map(|job| {
            let refs = plan.refs(job, &prepared.traces);
            measure(job, || {
                if let [wref] = refs[..] {
                    // A cache per job: `RunCache` memoises by (name,
                    // variant), and served jobs reuse names across seeds.
                    let mut cache = RunCache::new();
                    cache.run_batch_refs(job.config, &[(wref, job.variant)]);
                    match cache.outcome_ref(job.config, wref, job.variant) {
                        RunOutcome::Ok(r) => Ok((Report::Single(r.clone()), ())),
                        RunOutcome::Failed { reason, .. } => Err(reason.clone()),
                    }
                } else {
                    System::try_from_refs(job.variant.build_config(job.config), &refs)
                        .and_then(System::try_run_multi)
                        .map(|r| (Report::Multi(r), ()))
                        .map_err(|e| e.to_string())
                }
            })
            .0
        })
        .collect()
}

/// The runner's process-wide phase totals after the timed repetition.
/// Only `RunCache` jobs feed them: the mixes bypass the runner.
fn runner_stats() -> Json {
    let s = runner::global_stats();
    Json::obj([
        ("runner.warmup_s", Json::Num(s.phase_warm.as_secs_f64())),
        ("runner.measure_s", Json::Num(s.phase_measure.as_secs_f64())),
        (
            "runner.snapshot_io_s",
            Json::Num(s.phase_snapshot.as_secs_f64()),
        ),
        ("runner.warmups_shared", Json::uint(s.warmups_shared)),
    ])
}

/// Phase totals of the traced repetition.
#[derive(Default)]
struct Phases {
    build_ms: f64,
    warm_s: f64,
    encode_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    bytes: Vec<f64>,
    measure_s: f64,
    /// Build, warm-up, encode (single-core) and measured run: the phases
    /// the timed repetition also pays, for the tracing overhead.
    comparable_s: f64,
    put_ms: Vec<f64>,
    get_mem_us: Vec<f64>,
    get_disk_ms: Vec<f64>,
}

fn traced_rep(
    plan: &Plan,
    prepared: &Prepared,
    scratch: &Path,
    tracer: &Tracer,
) -> Result<(Vec<JobResult>, Json), String> {
    let mut store = Store::open(StoreConfig::new(scratch.join("store")));
    let mut phases = Phases::default();
    let mut probed: Vec<(u64, Arc<Vec<u8>>)> = Vec::new();
    let mut reports: Vec<(&Job, Report)> = Vec::new();
    let mut results = Vec::new();
    for job in &plan.jobs {
        let refs = plan.refs(job, &prepared.traces);
        let config = job.variant.build_config(job.config);
        let key = fnv1a(job.label.as_bytes());
        let root = tracer.begin_detail("job", job.label.clone(), None, 0);
        let span = |name: &str| tracer.begin(name, Some(root), 0);
        let (result, out) = measure(job, || {
            let s = span("System::try_from_refs");
            let mut sys = System::try_from_refs(config, &refs).map_err(|e| e.to_string())?;
            let build_us = tracer.end(s);
            let s = span("System::run_to_warm");
            sys.run_to_warm().map_err(|e| e.to_string())?;
            let warm_us = tracer.end(s);
            let s = span("System::snapshot+Snapshot::to_bytes");
            let bytes = Arc::new(sys.snapshot(key).to_bytes());
            let encode_us = tracer.end(s);
            drop(sys);
            if probed.len() < STORE_PROBE_JOBS {
                let s = span("Store::put");
                store
                    .put(EntryKind::Warmup, key, Arc::clone(&bytes))
                    .map_err(|e| format!("store put: {e}"))?;
                phases.put_ms.push(tracer.end(s) / 1e3);
                let s = span("Store::get(memory)");
                let got = store.get(EntryKind::Warmup, key);
                phases.get_mem_us.push(tracer.end(s));
                if !matches!(&got, Some((b, Tier::Memory)) if *b == bytes) {
                    return Err("store get from memory did not return the bytes put".into());
                }
                probed.push((key, Arc::clone(&bytes)));
            }
            let mut sys = tracer.time("System::try_from_refs", Some(root), 0, || {
                System::try_from_refs(config, &refs).map_err(|e| e.to_string())
            })?;
            let s = span("Snapshot::from_bytes+System::restore");
            let snap = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
            sys.restore(&snap, key).map_err(|e| e.to_string())?;
            let restore_us = tracer.end(s);
            let s = span(if refs.len() == 1 {
                "System::try_run"
            } else {
                "System::try_run_multi"
            });
            let report = if refs.len() == 1 {
                sys.try_run().map(|r| Report::Single(Box::new(r)))
            } else {
                sys.try_run_multi().map(Report::Multi)
            }
            .map_err(|e| e.to_string())?;
            let measure_us = tracer.end(s);
            phases.build_ms += build_us / 1e3;
            phases.warm_s += warm_us / 1e6;
            phases.encode_ms.push(encode_us / 1e3);
            phases.restore_ms.push(restore_us / 1e3);
            phases.bytes.push(bytes.len() as f64);
            phases.measure_s += measure_us / 1e6;
            // The work the untimed path also does: the runner encodes
            // each single-core warm snapshot into its in-memory store.
            let shared_us = if refs.len() == 1 { encode_us } else { 0.0 };
            phases.comparable_s += (build_us + warm_us + shared_us + measure_us) / 1e6;
            Ok((report, ()))
        });
        tracer.end(root);
        if let Some((report, ())) = out {
            reports.push((job, report));
        }
        results.push(result);
    }
    store.clear_memory();
    for (key, bytes) in &probed {
        let s = tracer.begin("Store::get(disk)", None, 0);
        let got = store.get(EntryKind::Warmup, *key);
        phases.get_disk_ms.push(tracer.end(s) / 1e3);
        if !matches!(&got, Some((b, Tier::Disk)) if b == bytes) {
            return Err("store get from disk did not return the bytes put".into());
        }
    }
    let (sources, length) = replay_budget(plan.quick);
    let replay = layers::replay(plan, &prepared.traces, length, sources, scratch, tracer)?;
    let mut open_ms = prepared.open_verify_ms.clone();
    open_ms.extend(&replay.open_verify_ms);
    Ok((results, layer_metrics(&reports, &phases, &replay, &open_ms)))
}

/// The per-layer numbers the traced child can produce: phase times from
/// its spans, model counters summed over the real runs' reports, and the
/// replay's per-layer costs, joined into each layer's estimated share of
/// the measured runs' host time.
fn layer_metrics(reports: &[(&Job, Report)], p: &Phases, r: &Replay, open_ms: &[f64]) -> Json {
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    for (kind, grain, stage) in &r.prefetchers {
        put(
            &metrics::prefetcher_metric(*kind, *grain),
            stage.ns_per_op(),
        );
    }
    for (policy, stage) in &r.modules {
        put(&metrics::module_metric(*policy), stage.ns_per_op());
    }
    put(
        "core.candidates_per_access",
        ratio(r.candidates as f64, r.module_accesses as f64),
    );
    put(
        "core.issue_ratio",
        ratio(r.issued as f64, r.candidates as f64),
    );
    put(
        "core.boundary.discard_ratio",
        ratio(r.boundary_discarded as f64, r.boundary_checked as f64),
    );
    put("cache.l2c.probe_ns", r.l2c_probe.ns_per_op());
    put("cache.l2c.fill_ns", r.l2c_fill.ns_per_op());
    put("cache.llc.probe_ns", r.llc_probe.ns_per_op());
    put("cache.llc.fill_ns", r.llc_fill.ns_per_op());
    put("cache.mshr.op_ns", r.mshr.ns_per_op());
    put("dram.access_ns", r.dram.ns_per_op());
    put("vmem.translate_ns", r.translate.ns_per_op());
    put(
        "vmem.dtlb_hit_ratio",
        ratio(r.dtlb.0 as f64, r.dtlb.1 as f64),
    );
    put(
        "vmem.stlb_hit_ratio",
        ratio(r.stlb.0 as f64, r.stlb.1 as f64),
    );
    put("traces.next_instr_ns.synthetic", r.synthetic.ns_per_op());
    put("traces.next_instr_ns.file", r.file.ns_per_op());
    put("traces.open_verify_ms", med(open_ms));

    // Model counters over the measured windows. Multi-core reports carry
    // no L2C counters, so mixes take the L2C rates from the replay.
    // Translation and decode are both timed per memory instruction (a
    // decoded record), so both multiply the measured records.
    let mem_rate = ratio(r.mem_ops as f64, r.instructions as f64);
    let l2c_rate = ratio(r.l2c_accesses as f64, r.instructions as f64);
    let replay_l2c_miss = ratio(r.l2c_misses as f64, r.l2c_accesses as f64);
    let (mut l2c_acc, mut l2c_miss, mut useful, mut pf_fills) = (0.0, 0.0, 0.0, 0.0);
    let (mut llc_acc, mut llc_miss) = (0.0, 0.0);
    let mut dram = psa_dram::DramStats::default();
    let (mut cycles, mut machine_cycles, mut instructions) = (0.0, 0.0, 0.0);
    let mut share = [0.0f64; 5]; // core, cache, dram, vmem, traces (ns)
    let l2c_fill_ns = r.l2c_fill.ns_per_op() + 2.0 * r.mshr.ns_per_op();
    let llc_fill_ns = r.llc_fill.ns_per_op() + 2.0 * r.mshr.ns_per_op();
    for (job, report) in reports {
        let measured = (job.cores.len() as u64 * job.config.instructions) as f64;
        instructions += measured;
        let (job_l2c_acc, job_l2c_miss, llc, d) = match report {
            Report::Single(rep) => {
                cycles += rep.cycles as f64;
                machine_cycles += rep.cycles as f64;
                useful += rep.l2c.useful_prefetches as f64;
                pf_fills += rep.l2c.prefetch_fills as f64;
                if let (Some(ms), Variant::Pref(_, policy)) = (rep.module, job.variant) {
                    share[0] += ms.accesses as f64 * r.module_ns(policy);
                }
                (
                    rep.l2c.demand_accesses() as f64,
                    rep.l2c.demand_misses as f64,
                    rep.llc,
                    rep.dram,
                )
            }
            Report::Multi(rep) => {
                let per_core: Vec<f64> = rep
                    .ipc
                    .iter()
                    .map(|ipc| job.config.instructions as f64 / ipc.max(1e-12))
                    .collect();
                cycles += per_core.iter().sum::<f64>();
                machine_cycles += per_core.iter().copied().fold(0.0, f64::max);
                let acc = l2c_rate * measured;
                (acc, acc * replay_l2c_miss, rep.llc, rep.dram)
            }
        };
        l2c_acc += job_l2c_acc;
        l2c_miss += job_l2c_miss;
        llc_acc += llc.demand_accesses() as f64;
        llc_miss += llc.demand_misses as f64;
        dram.reads += d.reads;
        dram.writes += d.writes;
        dram.row_hits += d.row_hits;
        dram.row_opens += d.row_opens;
        dram.row_conflicts += d.row_conflicts;
        dram.prefetch_drops += d.prefetch_drops;
        share[1] += job_l2c_acc * r.l2c_probe.ns_per_op()
            + job_l2c_miss * l2c_fill_ns
            + llc.demand_accesses() as f64 * r.llc_probe.ns_per_op()
            + llc.demand_misses as f64 * llc_fill_ns;
        share[2] += (d.reads + d.writes) as f64 * r.dram.ns_per_op();
        let records = measured * mem_rate;
        share[3] += records * r.translate.ns_per_op();
        let decode = match job.cores[0] {
            Source::Synthetic(_) => &r.synthetic,
            Source::Trace(_) => &r.file,
        };
        share[4] += records * decode.ns_per_op();
    }
    put("cache.l2c.demand_accesses", l2c_acc.round());
    put("cache.l2c.miss_ratio", ratio(l2c_miss, l2c_acc));
    put("cache.llc.miss_ratio", ratio(llc_miss, llc_acc));
    put("cache.l2c.useful_prefetch_ratio", ratio(useful, pf_fills));
    put("dram.reads", dram.reads as f64);
    put("dram.writes", dram.writes as f64);
    put("dram.row_hit_ratio", dram.row_hit_rate());
    put("dram.prefetch_drops", dram.prefetch_drops as f64);
    put("sim.cycles_per_instr", ratio(cycles, instructions));
    put("sim.ns_per_cycle", ratio(p.measure_s * 1e9, machine_cycles));
    put("sim.build_ms", p.build_ms);
    put("sim.warmup_s", p.warm_s);
    put("sim.measure_s", p.measure_s);
    put("snapshot.encode_ms", med(&p.encode_ms));
    put("snapshot.restore_ms", med(&p.restore_ms));
    put("snapshot.bytes", med(&p.bytes));
    put("store.put_ms", med(&p.put_ms));
    put("store.get_mem_us", med(&p.get_mem_us));
    put("store.get_disk_ms", med(&p.get_disk_ms));
    let measured_ns = p.measure_s * 1e9;
    let names = ["core", "cache", "dram", "vmem", "traces"];
    for (name, ns) in names.iter().zip(share) {
        put(&format!("{name}.est_share"), ratio(ns, measured_ns));
    }
    put(
        "hier.residual_share",
        1.0 - share.iter().map(|ns| ratio(*ns, measured_ns)).sum::<f64>(),
    );
    // Not a metric itself: `driver::traced` turns it into the tracing
    // overhead.
    put(COMPARABLE_KEY, p.comparable_s);
    Json::obj(m.into_iter().map(|(k, v)| (k, Json::Num(v))))
}

/// Layer-JSON key of the traced run's time in the phases the timed run
/// also pays.
pub const COMPARABLE_KEY: &str = "_comparable_s";
