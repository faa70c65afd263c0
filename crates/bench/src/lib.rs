//! Support crate for the `cargo bench` experiment harnesses.
//!
//! Every figure/table of the paper has a bench target (see `benches/`);
//! each prints the regenerated rows as text and writes the same data as
//! a `BENCH_<figure>.json` document (schema in `docs/METRICS.md`) into
//! `PSA_BENCH_JSON_DIR` (default: the working directory). Scale with
//! `PSA_INSTRUCTIONS`, `PSA_WARMUP`, `PSA_WORKLOAD_LIMIT` and
//! `PSA_MIXES`; cap the parallel executor with `PSA_THREADS` — the
//! defaults run laptop-scale, the paper-faithful scale is 250M+250M
//! instructions over all 80 workloads and 100 mixes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use psa_experiments::runner;
use psa_experiments::{RunnerOptions, Settings};
use psa_sim::Json;
use std::path::Path;

/// The bench binary's execution context, built once at its entry point:
/// every `PSA_*` variable read strictly. A malformed variable prints the
/// typed error naming it and exits 2.
pub fn settings() -> Settings {
    match RunnerOptions::from_env() {
        Ok(options) => Settings::new(options),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Print the standard experiment banner: the Table I configuration and the
/// scaling knobs in force.
pub fn banner(title: &str, settings: &Settings) {
    println!("=== {title} ===");
    println!(
        "budget: {} warmup + {} measured instructions/core (PSA_WARMUP / PSA_INSTRUCTIONS to scale)",
        settings.config.warmup, settings.config.instructions
    );
    println!(
        "workloads: {} (PSA_WORKLOAD_LIMIT to subsample), threads: {} (PSA_THREADS to cap)\n",
        settings.workloads().len(),
        settings.ctx.options().effective_threads()
    );
}

/// Write `doc` as `BENCH_<figure>.json` into the options'
/// `bench_json_dir` (`PSA_BENCH_JSON_DIR`, default the working
/// directory) and print the path and the process-wide executor summary.
///
/// # Panics
///
/// Panics if the file cannot be written — a bench run whose results are
/// silently lost is worse than a loud failure.
pub fn emit_json(settings: &Settings, figure: &str, doc: &Json) {
    let dir = settings.ctx.options().bench_json_dir.as_deref();
    let path = dir
        .unwrap_or(Path::new("."))
        .join(format!("BENCH_{figure}.json"));
    psa_sim::report::write_json_file(&path, doc)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
    if let Some(failures) = doc.get("failures").and_then(Json::as_arr) {
        if !failures.is_empty() {
            println!(
                "WARNING: {} failed job(s) recorded in {} — rows render with gaps; \
                 see its `failures` array",
                failures.len(),
                path.display()
            );
        }
    }
    println!("executor: {}", runner::global_stats().summary());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_prints() {
        banner("smoke", &Settings::default());
    }
}
