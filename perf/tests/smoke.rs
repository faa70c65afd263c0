//! The benchmark binary end to end, and its agreement with the root
//! `BENCHMARK.json`.

use psa_perf::child::write_trace;
use psa_perf::inputs::{Plan, TraceInput, Workload};
use psa_perf::metrics::{self, Def};
use psa_sim::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<Def> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{k}"))
            };
            let better = match text("better") {
                "higher" => metrics::Better::Higher,
                "lower" => metrics::Better::Lower,
                other => panic!("better: {other}"),
            };
            let unit = metrics::end_to_end()
                .into_iter()
                .chain(metrics::per_layer())
                .map(|d| d.unit)
                .find(|u| *u == text("unit"))
                .unwrap_or_else(|| panic!("{}: unknown unit {}", text("name"), text("unit")));
            Def {
                name: text("name").into(),
                unit,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

fn names(defs: &[Def]) -> BTreeSet<String> {
    defs.iter().map(|d| d.name.clone()).collect()
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_program_emits() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), metrics::end_to_end());
    assert_eq!(declared(&doc, "per_layer"), metrics::per_layer());
    let all: Vec<Def> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    assert_eq!(names(&all).len(), all.len(), "metric names are unique");
    for d in &all {
        assert!(metrics::valid_name(&d.name), "{}", d.name);
    }
    assert!(metrics::valid_name("a.b_c-1"));
    assert!(
        !metrics::valid_name("has space")
            && !metrics::valid_name(".dot")
            && !metrics::valid_name("")
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn trace_files_are_deterministic_per_seed() {
    let dir = scratch("trace-inputs");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = Plan::new(Workload::TraceReplay, 3, true);
    let write = |seed: u64, name: &str| {
        let t = TraceInput {
            seed,
            ..plan.traces[0]
        };
        let path = dir.join(name);
        write_trace(&t, &path).unwrap();
        std::fs::read(&path).unwrap()
    };
    let (a, b, c) = (write(3, "a"), write(3, "b"), write(4, "c"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(a, b, "same seed, same bytes");
    assert_ne!(a, c, "another seed, another trace");
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn quick_run_covers_every_workload_and_the_traced_run_within_a_minute() {
    let dir = scratch("smoke-all");
    let out_dir = dir.join("out");
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_psa_perf"))
        .args(["all", "--quick", "--seed", "1", "--scratch"])
        .arg(dir.join("scratch"))
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("psa_perf runs");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");

    let doc = Json::parse(&std::fs::read_to_string(out_dir.join("perf.json")).unwrap()).unwrap();
    let all: Vec<Def> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    for w in Workload::ALL {
        let section = doc
            .get("workloads")
            .and_then(|s| s.get(w.name()))
            .unwrap_or_else(|| panic!("perf.json has no {} section", w.name()));
        assert_eq!(
            section.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            w.name()
        );
        let emitted: BTreeSet<String> = match section.get("metrics") {
            Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("{}: no metrics", w.name()),
        };
        assert_eq!(emitted, names(&all), "{}", w.name());
        for d in &all {
            let prefix = format!("{} {} ", d.name, w.name());
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no printed line for {prefix}"));
            assert!(line.contains(&format!(" {} (", d.unit)), "{line}");
        }
        let trace =
            std::fs::read_to_string(out_dir.join(format!("trace-{}.json", w.name()))).unwrap();
        let trace = Json::parse(&trace).unwrap();
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty());
        for ev in events {
            for field in ["name", "ph", "ts"] {
                assert!(ev.get(field).is_some(), "{field}");
            }
        }
    }
    assert!(std::fs::read_to_string(out_dir.join("traced.md"))
        .unwrap()
        .contains("System::try_run"));
    let leftovers = std::fs::read_dir(dir.join("scratch")).map_or(0, |d| d.count());
    assert_eq!(leftovers, 0, "the run removes its temporary files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_workload_run_ends_with_the_result_line() {
    let dir = scratch("smoke-run");
    for trace in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_psa_perf"))
            .args([
                "run",
                "--workload",
                "trace_replay",
                "--quick",
                "--seed",
                "3",
            ])
            .args(["--seconds", "1", "--trace", trace, "--scratch"])
            .arg(&dir)
            .output()
            .expect("psa_perf runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result =
            Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let Json::Obj(fields) = &result else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Obj(values)) = result.get("metrics") else {
            panic!("no metrics")
        };
        let expected = if trace == "0" {
            metrics::end_to_end()
        } else {
            metrics::per_layer()
        };
        let got: BTreeSet<String> = values.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, names(&expected));
        for (name, v) in values {
            assert!(v.get("value").and_then(Json::as_f64).is_some(), "{name}");
            let unit = expected.iter().find(|d| d.name == *name).unwrap().unit;
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(unit));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
