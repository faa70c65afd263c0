//! Wall-clock acceptance check for the parallel experiment executor:
//! Figure 9 over an 8-workload slice must run at least 2× faster with 4
//! worker threads than with 1. Requires 4 available cores — on smaller
//! machines the test reports the measured times and passes vacuously
//! (determinism is covered separately by `runner::parallel_matches_serial`,
//! which runs everywhere).

use psa_experiments::{fig09, RunnerOptions, Settings};
use std::time::Instant;

fn timed_collect(threads: usize) -> f64 {
    let settings = Settings::new(
        RunnerOptions::default()
            .with_workload_limit(8)
            .with_threads(threads)
            .with_warmup(2_000)
            .with_instructions(10_000),
    );
    let t0 = Instant::now();
    let cells = fig09::collect(&settings);
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(cells.len(), 12, "fig09 produces 4 prefetchers x 3 variants");
    elapsed
}

#[test]
fn four_threads_at_least_double_fig09_throughput() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("only {cores} core(s) available; speedup assertion needs 4 - skipping");
        return;
    }
    // Warm once so neither timed run pays one-time setup costs.
    timed_collect(1);
    let serial = timed_collect(1);
    let parallel = timed_collect(4);
    eprintln!("fig09 x8 workloads: 1 thread {serial:.2}s, 4 threads {parallel:.2}s");
    assert!(
        serial >= 2.0 * parallel,
        "expected >=2x speedup at 4 threads: serial {serial:.2}s vs parallel {parallel:.2}s"
    );
}
