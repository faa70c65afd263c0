//! `psa_perf`: the end-to-end and per-layer benchmark of the simulator,
//! its trace reader and its experiment service. See `perf/README.md`.
//!
//! ```text
//! psa_perf all [--seed N] [--out DIR] [--quick] [--bless]
//!     every workload, timed then traced; prints every metric, writes
//!     DIR/perf.json, the traced runs' Chrome traces and span table
//! psa_perf run --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//!     one workload; the last stdout line is the JSON result
//! psa_perf compare --base FILE... --head FILE...
//!     A/B verdicts over perf.json files of repeated runs
//! psa_perf child W --seed N [--quick] [--traced] --scratch DIR   (internal)
//! psa_perf psa_serve ARGS...                                     (internal)
//! ```
//!
//! Every command takes `--scratch DIR` (default
//! `.bench_build/psa-perf-scratch`) for its temporary files and removes
//! what it wrote there before exiting.

use psa_perf::driver::{self, Budget, Opts, Outcome};
use psa_perf::inputs::{Plan, Workload};
use psa_perf::{child, compare, spans};
use psa_sim::Json;
use std::path::{Path, PathBuf};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

/// All values following `name` up to the next `--flag`.
fn flag_list(args: &[String], name: &str) -> Vec<PathBuf> {
    args.iter()
        .skip_while(|a| *a != name)
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("psa_serve") => psa_serve::cli::run(&args[1..]),
        Some("compare") => compare::main(&flag_list(&args, "--base"), &flag_list(&args, "--head")),
        Some(cmd @ ("all" | "run" | "child")) => match command(cmd, &args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("psa_perf {cmd}: {e}");
                2
            }
        },
        _ => {
            eprintln!("usage: psa_perf all|run|compare|child|psa_serve ... (see perf/README.md)");
            2
        }
    };
    std::process::exit(code);
}

fn command(cmd: &str, args: &[String]) -> Result<i32, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let scratch_root =
        PathBuf::from(flag(args, "--scratch").unwrap_or(".bench_build/psa-perf-scratch"));
    if cmd == "child" {
        let workload = args
            .first()
            .and_then(|w| Workload::parse(w))
            .ok_or("child needs a workload")?;
        let plan = Plan::new(workload, parsed(args, "--seed", 1)?, quick);
        let traced = args.iter().any(|a| a == "--traced");
        return Ok(child::main(&plan, &scratch_root, traced));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let opts = Opts {
        seed: parsed(args, "--seed", 1)?,
        quick,
        scratch: scratch_root.join(std::process::id().to_string()),
    };
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let out = flag(args, "--out").map(PathBuf::from);
    let result = if cmd == "run" {
        run(&exe, args, &opts, out.as_deref())
    } else {
        all(
            &exe,
            &opts,
            out.as_deref(),
            args.iter().any(|a| a == "--bless"),
        )
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    result
}

/// One workload, the way `BENCHMARK.json` runs it.
fn run(exe: &Path, args: &[String], opts: &Opts, out: Option<&Path>) -> Result<i32, String> {
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must name one of spp_ladder, nopf_mix4, trace_replay, serve_sweep")?;
    let seconds: f64 = parsed(args, "--seconds", 20.0)?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let plan = Plan::new(workload, opts.seed, opts.quick);
    let mut outcome = if trace {
        driver::traced(exe, &plan, opts)
    } else {
        driver::timed(exe, &plan, opts, Budget::Seconds(seconds))
    };
    driver::check_expected(&mut outcome, workload, opts);
    report(workload, &outcome);
    if let Some(dir) = out {
        write_outputs(dir, opts, &[(workload, vec![&outcome])])?;
    }
    println!("{}", driver::result_line(&outcome));
    Ok(0)
}

/// Every workload, timed then traced.
fn all(exe: &Path, opts: &Opts, out: Option<&Path>, bless: bool) -> Result<i32, String> {
    let mut results: Vec<(Workload, Outcome, Outcome)> = Vec::new();
    for workload in Workload::ALL {
        let plan = Plan::new(workload, opts.seed, opts.quick);
        let reps = match (opts.quick, workload) {
            (true, _) => 1,
            (false, Workload::ServeSweep) => 3,
            (false, _) => 7,
        };
        let mut timed = driver::timed(exe, &plan, opts, Budget::Reps(reps));
        let mut traced = driver::traced(exe, &plan, opts);
        if !bless {
            driver::check_expected(&mut timed, workload, opts);
            driver::check_expected(&mut traced, workload, opts);
        }
        report(workload, &timed);
        report(workload, &traced);
        results.push((workload, timed, traced));
    }
    let ok = results.iter().all(|(_, t, r)| t.correct() && r.correct());
    if bless {
        if !ok || opts.seed != 1 || opts.quick {
            return Err("--bless needs a clean full-size run at seed 1".into());
        }
        let outcomes: Vec<(Workload, &Outcome)> = results
            .iter()
            .flat_map(|(w, t, r)| [(*w, t), (*w, r)])
            .collect();
        driver::bless(&outcomes).map_err(|e| e.to_string())?;
        println!("wrote {}", driver::expected_path().display());
    }
    if let Some(dir) = out {
        let sections: Vec<(Workload, Vec<&Outcome>)> =
            results.iter().map(|(w, t, r)| (*w, vec![t, r])).collect();
        write_outputs(dir, opts, &sections)?;
    }
    println!("correct: {ok}");
    Ok(i32::from(!ok))
}

fn report(workload: Workload, outcome: &Outcome) {
    for line in driver::table(workload, outcome) {
        println!("{line}");
    }
    for p in &outcome.problems {
        eprintln!("psa_perf: {} FAILED: {p}", workload.name());
    }
}

/// `perf.json`, and for traced runs their Chrome traces and span tables.
fn write_outputs(
    dir: &Path,
    opts: &Opts,
    sections: &[(Workload, Vec<&Outcome>)],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text)
            .map_err(|e| format!("{}: {e}", dir.join(name).display()))
    };
    let doc = Json::obj([
        ("seed", Json::uint(opts.seed)),
        ("quick", Json::Bool(opts.quick)),
        (
            "workloads",
            Json::obj(
                sections
                    .iter()
                    .map(|(w, outs)| (w.name(), driver::report_json(outs))),
            ),
        ),
    ]);
    write("perf.json", doc.pretty())?;
    let mut tables = String::new();
    for (w, outs) in sections {
        for o in outs.iter().filter(|o| !o.spans.is_empty()) {
            write(
                &format!("trace-{}.json", w.name()),
                spans::chrome_trace(&o.spans).to_string(),
            )?;
            tables.push_str(&driver::span_table(*w, &o.spans));
            tables.push('\n');
        }
    }
    if !tables.is_empty() {
        write(
            "traced.md",
            format!("# Traced runs: spans per name\n\n{tables}"),
        )?;
    }
    Ok(())
}
