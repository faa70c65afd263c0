//! The catalog's synthetic streams, pinned.
//!
//! * The FNV-1a of the first 20,000 instructions of every catalog
//!   workload (the 80 intensive ones and the non-intensive set) at seeds
//!   1, 7 and 42 must match `crates/traces/tests/golden/stream_digests.txt`
//!   line for line.
//! * The eight workloads the benchmark's `spp_ladder` simulates are
//!   pinned much further, 500,000 instructions at seed 1, and through
//!   the path every run takes: a `Box<dyn WorkloadSource>` from
//!   `WorkloadRef::build_source`. The stream read one `next_instr` at a
//!   time and the stream drawn as the simulator draws it (capped
//!   `take_filler` batches, then `next_instr` on each access) must agree,
//!   and both digests must match
//!   `crates/traces/tests/golden/ladder_stream_digests.txt`.
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
use page_size_aware_prefetching::traces::{catalog, TraceGenerator, WorkloadRef};

const INSTRUCTIONS: usize = 20_000;
const SEEDS: [u64; 3] = [1, 7, 42];

/// The eight workloads of the committed fig08 trajectory, which the
/// benchmark's `spp_ladder` simulates, and how far it reads each.
const LADDER: [&str; 8] = [
    "gcc",
    "libquantum",
    "lbm_s",
    "xz_s",
    "sat_solver",
    "qmm_fp_1",
    "qmm_fp_5",
    "qmm_fp_111",
];
const LADDER_INSTRUCTIONS: u64 = 500_000;
const LADDER_SEED: u64 = 1;
/// The simulator caps each filler batch at the next boundary it checks;
/// a small cap splits most filler runs into several batches.
const MAX_BATCH: u64 = 7;

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

/// A memory instruction at stream position `pos`: the position's 8
/// bytes, then the instruction's 17.
fn encode_access(pos: u64, instr: &Instr, out: &mut Vec<u8>) {
    out.extend_from_slice(&pos.to_le_bytes());
    encode(instr, out);
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

/// Per ladder workload, the digest of every instruction read through
/// `next_instr`, and the digest of its memory instructions with their
/// positions, which the simulator's draw must reproduce.
fn ladder_digests() -> String {
    let mut out = format!(
        "# fnv1a of the first {LADDER_INSTRUCTIONS} instructions through WorkloadSource: \
         workload seed stream-digest access-digest\n"
    );
    let mut stream = Vec::with_capacity(LADDER_INSTRUCTIONS as usize * 17);
    let (mut stepped, mut batched) = (Vec::new(), Vec::new());
    for name in LADDER {
        let workload = WorkloadRef::from(catalog::workload(name).expect("a catalog workload"));
        let source = || {
            workload
                .build_source(LADDER_SEED)
                .expect("a synthetic source")
        };
        stream.clear();
        stepped.clear();
        let mut src = source();
        for pos in 0..LADDER_INSTRUCTIONS {
            let instr = src.next_instr().expect("the generator is infinite");
            encode(&instr, &mut stream);
            if !matches!(instr.kind, InstrKind::Op) {
                encode_access(pos, &instr, &mut stepped);
            }
        }
        batched.clear();
        let mut src = source();
        let mut pos = 0;
        while pos < LADDER_INSTRUCTIONS {
            let fillers = src.take_filler(MAX_BATCH.min(LADDER_INSTRUCTIONS - pos));
            pos += fillers;
            if fillers == 0 {
                let instr = src.next_instr().expect("the generator is infinite");
                assert!(
                    !matches!(instr.kind, InstrKind::Op),
                    "{name}: no filler owed, yet position {pos} is an op"
                );
                encode_access(pos, &instr, &mut batched);
                pos += 1;
            }
        }
        let access_digest = fnv1a(&stepped);
        assert_eq!(
            access_digest,
            fnv1a(&batched),
            "{name}: the simulator's draw differs from the stepped stream"
        );
        out.push_str(&format!(
            "{name} {LADDER_SEED} {:016x} {access_digest:016x}\n",
            fnv1a(&stream)
        ));
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

#[test]
fn ladder_streams_through_the_trait_match_golden_digests() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/traces/tests/golden/ladder_stream_digests.txt"
    );
    golden::check(path, &ladder_digests());
}
