//! The whole catalog's synthetic streams, pinned: the FNV-1a of the first
//! 20,000 instructions of every catalog workload (the 80 intensive ones
//! and the non-intensive set) at seeds 1, 7 and 42 must match
//! `crates/traces/tests/golden/stream_digests.txt` line for line.
//!
//! Every result in the repository starts from these streams, so a
//! generator change that moves any one bit of any one of them shows up
//! here by name, before it shows up as a drifted figure golden. The
//! committed `sample.psatrace` fixture (checked by `ci.sh`) pins the
//! recorded bytes of one workload, mcf; this file covers the rest.
//!
//! Regenerate only after an intentional change to the generator, with
//!
//! ```text
//! PSA_UPDATE_GOLDEN=1 cargo test --test stream_digests
//! ```

use page_size_aware_prefetching::common::rng::fnv1a;
use page_size_aware_prefetching::cpu::{Instr, InstrKind};
use page_size_aware_prefetching::experiments::golden;
use page_size_aware_prefetching::traces::{catalog, TraceGenerator};

const INSTRUCTIONS: usize = 20_000;
const SEEDS: [u64; 3] = [1, 7, 42];

/// One instruction as 17 bytes: pc, a kind byte (0 op, 1 load,
/// 2 dependent load, 3 store) and the address (0 for an op).
fn encode(instr: &Instr, out: &mut Vec<u8>) {
    let (kind, vaddr) = match instr.kind {
        InstrKind::Op => (0u8, 0),
        InstrKind::Load { vaddr, dependent } => (1 + u8::from(dependent), vaddr.raw()),
        InstrKind::Store { vaddr } => (3, vaddr.raw()),
    };
    out.extend_from_slice(&instr.pc.raw().to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&vaddr.to_le_bytes());
}

fn digests() -> String {
    let mut out =
        format!("# fnv1a of the first {INSTRUCTIONS} instructions: workload seed digest\n");
    let mut bytes = Vec::with_capacity(INSTRUCTIONS * 17);
    for spec in catalog::WORKLOADS.iter().chain(&catalog::NON_INTENSIVE) {
        for seed in SEEDS {
            bytes.clear();
            for instr in TraceGenerator::new(spec, seed).take(INSTRUCTIONS) {
                encode(&instr, &mut bytes);
            }
            out.push_str(&format!("{} {seed} {:016x}\n", spec.name, fnv1a(&bytes)));
        }
    }
    out
}

#[test]
fn catalog_streams_match_golden_digests() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/traces/tests/golden/stream_digests.txt"
    );
    golden::check(path, &digests());
}
