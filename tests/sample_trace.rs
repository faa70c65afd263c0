//! The committed `sample.psatrace` fixture, pinned byte for byte: mcf at
//! seed 7 for 12,000 instructions, recorded through `TraceWriter` as
//! `psa_trace_tool gen mcf <out> --seed 7 --instructions 12000` records
//! it, must equal `crates/experiments/tests/golden/sample.psatrace`.
//!
//! The fixture spans five blocks, so the writer's four-block checksum
//! batch runs once full and once with a remainder. `tests/stream_digests.rs`
//! pins the generator's streams; this pins what the writer makes of one.
//! A change here is a format or generator change: regenerate the fixture
//! and its trace-replay goldens deliberately, never this test's input.

use page_size_aware_prefetching::traces::format::TraceWriter;
use page_size_aware_prefetching::traces::{catalog, TraceGenerator};
use std::io::Cursor;

#[test]
fn writer_reproduces_the_committed_sample_trace() {
    let spec = catalog::workload("mcf").expect("mcf is in the catalog");
    let mut gen = TraceGenerator::new(spec, 7);
    let mut writer = TraceWriter::new(Cursor::new(Vec::new()), spec.name, spec.huge_fraction)
        .expect("in-memory trace");
    for _ in 0..12_000 {
        let instr = gen.next().expect("the generator is infinite");
        writer.push_instr(&instr).expect("write record");
    }
    let (header, cursor) = writer.finish_into().expect("finish trace");
    assert_eq!(header.instructions, 12_000);
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/experiments/tests/golden/sample.psatrace"
    ))
    .expect("the committed fixture");
    let recorded = cursor.into_inner();
    assert_eq!(recorded.len(), fixture.len(), "recorded length");
    assert!(
        recorded == fixture,
        "recorded bytes differ from the fixture"
    );
}
