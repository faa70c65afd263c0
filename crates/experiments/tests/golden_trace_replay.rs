//! Golden regression fixture for streamed trace replay: the committed
//! sample trace (`tests/golden/sample.psatrace`, generated with
//! `psa_trace_tool gen mcf ... --seed 7 --instructions 12000`) is
//! replayed under the trace-replay ladder at a fixed configuration, and
//! the resulting stats digest — file identity first, then per-variant
//! IPC/cycles/speedup/MPKI — is diffed against
//! `tests/golden/trace_replay_digest.txt`.
//!
//! This pins two things at once: the `.psatrace` codec (the committed
//! bytes must still open, verify, and hash identically) and the replay
//! semantics (the machine must extract the same instruction stream from
//! those bytes). Any drift in either — intentional or not — is a
//! line-level diff here.
//!
//! Regenerate after an intentional model change with:
//!
//! ```text
//! PSA_UPDATE_GOLDEN=1 cargo test -p psa-experiments --test golden_trace_replay
//! ```
//!
//! (The fixture file itself is never rewritten by this test; regenerate
//! it with `psa_trace_tool` only when the trace format version changes.)

use psa_experiments::runner::Variant;
use psa_experiments::trace_replay;
use psa_sim::{RunReport, SimConfig, System, TraceRef, WorkloadRef};

fn fixture_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sample.psatrace")
}

/// A fixed configuration, independent of the `PSA_*` scaling knobs.
fn config() -> SimConfig {
    SimConfig::default()
        .with_warmup(3_000)
        .with_instructions(10_000)
}

fn run(tref: TraceRef, variant: Variant) -> RunReport {
    let config = variant.build_config(config());
    System::try_from_refs(config, &[WorkloadRef::TraceFile(tref)])
        .expect("golden systems build")
        .try_run()
        .expect("golden replays are fault-free")
}

fn digest() -> String {
    let tref = TraceRef::open(fixture_path()).expect("committed fixture verifies");
    let mut out = String::new();
    out.push_str("golden digest: committed sample.psatrace replay\n");
    out.push_str("config: warmup 3000, instructions 10000, default machine\n");
    out.push_str(&format!(
        "trace: {} content_hash {:016x} instructions {} records {}\n",
        tref.name, tref.content_hash, tref.instructions, tref.records
    ));
    let runs: Vec<(&'static str, RunReport)> = trace_replay::variants()
        .iter()
        .map(|&(label, v)| (label, run(tref, v)))
        .collect();
    let base = &runs[0].1;
    for (label, r) in &runs {
        out.push_str(&format!(
            "ipc {label}: {:.6} cycles {} speedup {:.6} l2c_mpki {:.6} llc_mpki {:.6}\n",
            r.ipc(),
            r.cycles,
            r.ipc() / base.ipc(),
            r.l2c_mpki(),
            r.llc_mpki(),
        ));
    }
    out
}

#[test]
fn committed_trace_replay_matches_golden_digest() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_replay_digest.txt"
    );
    psa_experiments::golden::check(path, &digest());
}
