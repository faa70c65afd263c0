//! Integration tests for the `.psatrace` codec and the workload-source
//! contract: synthetic-vs-replay stream equality, the filler batching
//! contract on both sources, cursor save/restore, and the corruption
//! taxonomy (every damaged file is a typed error, never a panic).

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use psa_cpu::{Instr, InstrKind};
use psa_traces::format::{TraceWriter, TRACE_VERSION};
use psa_traces::{
    catalog, format, TraceError, TraceGenerator, TraceReader, TraceRef, WorkloadRef, WorkloadSource,
};

/// A unique temp path per test; cleaned up by [`TempTrace`]'s Drop.
struct TempTrace(PathBuf);

impl TempTrace {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "psa_trace_codec_{}_{}.psatrace",
            std::process::id(),
            tag
        ));
        TempTrace(p)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Record `n` instructions of a catalog workload into a trace file.
fn record_workload(path: &str, workload: &str, seed: u64, n: u64) -> u64 {
    let spec = catalog::workload(workload).expect("in catalog");
    let mut gen = TraceGenerator::new(spec, seed);
    let mut w = TraceWriter::create(std::path::Path::new(path), spec.name, spec.huge_fraction)
        .expect("create temp trace");
    for _ in 0..n {
        let instr = gen.next().expect("infinite");
        w.push_instr(&instr).expect("write record");
    }
    let header = w.finish().expect("finish trace");
    header.instructions
}

fn open_reader(path: &str) -> TraceReader {
    let tref = TraceRef::open(path).expect("verified ref");
    TraceReader::open(&tref).expect("reader opens")
}

#[test]
fn replay_matches_generator_bit_for_bit() {
    let tmp = TempTrace::new("replay_eq");
    let n = 5000;
    let wrote = record_workload(tmp.path(), "mcf", 99, n);
    assert_eq!(wrote, n);
    let spec = catalog::workload("mcf").unwrap();
    let mut gen = TraceGenerator::new(spec, 99);
    let mut rdr = open_reader(tmp.path());
    for i in 0..n {
        let want = gen.next().unwrap();
        let got = rdr.next_instr().expect("replay within first pass");
        assert_eq!(got, want, "instruction {i} diverged");
    }
    // The stream wraps and keeps going — no end-of-input, ever.
    for _ in 0..100 {
        rdr.next_instr()
            .expect("stream is infinite across the wrap");
    }
    assert_eq!(rdr.wraps(), 1);
}

#[test]
fn wrapped_pass_repeats_the_record_stream() {
    let tmp = TempTrace::new("wrap_repeat");
    let n = 700;
    record_workload(tmp.path(), "lbm", 5, n);
    let mut a = open_reader(tmp.path());
    let first: Vec<Instr> = (0..n).map(|_| a.next_instr().unwrap()).collect();
    let second: Vec<Instr> = (0..n).map(|_| a.next_instr().unwrap()).collect();
    // Memory accesses repeat exactly; filler ops differ only in pc
    // (the pc pattern follows the global instruction counter).
    for (x, y) in first.iter().zip(&second) {
        match (&x.kind, &y.kind) {
            (InstrKind::Op, InstrKind::Op) => {}
            _ => assert_eq!(x, y),
        }
    }
}

/// The trait's batching contract, pinned for BOTH source kinds: a batch
/// of `n` fillers is bit-identical to `n` single steps, `take_filler`
/// never overshoots `max`, and a return of 0 means the next
/// instruction is a memory access.
fn pin_filler_contract(mut batched: Box<dyn WorkloadSource>, mut stepped: Box<dyn WorkloadSource>) {
    let mut driven = 0u64;
    while driven < 4000 {
        // Batched source: drain fillers in capped batches, then one
        // memory access.
        let mut batch_total = 0;
        loop {
            let got = batched.take_filler(3);
            assert!(got <= 3, "take_filler overshot max");
            if got == 0 {
                break;
            }
            batch_total += got;
        }
        let batched_mem = batched.next_instr().expect("stream");
        assert!(
            !matches!(batched_mem.kind, InstrKind::Op),
            "take_filler returned 0 but next_instr produced a filler op"
        );
        // Stepped source: single-step the same number of fillers.
        for _ in 0..batch_total {
            let instr = stepped.next_instr().expect("stream");
            assert!(matches!(instr.kind, InstrKind::Op), "expected a filler op");
        }
        assert_eq!(stepped.take_filler(u64::MAX), 0);
        let stepped_mem = stepped.next_instr().expect("stream");
        assert_eq!(
            batched_mem, stepped_mem,
            "batched and stepped streams diverged"
        );
        driven += batch_total + 1;
    }
}

#[test]
fn filler_contract_holds_for_synthetic_source() {
    let spec = catalog::workload("omnetpp").unwrap();
    pin_filler_contract(
        Box::new(TraceGenerator::new(spec, 17)),
        Box::new(TraceGenerator::new(spec, 17)),
    );
}

#[test]
fn filler_contract_holds_for_trace_source() {
    let tmp = TempTrace::new("filler_contract");
    record_workload(tmp.path(), "omnetpp", 17, 6000);
    pin_filler_contract(
        Box::new(open_reader(tmp.path())),
        Box::new(open_reader(tmp.path())),
    );
}

/// Cursor round trip for both source kinds: run K instructions, save
/// the cursor, load it into a freshly-built source, and require the
/// next M instructions to be bit-identical — including when the save
/// lands mid-filler-run and when the stream has already wrapped.
fn pin_cursor_roundtrip(
    mut live: Box<dyn WorkloadSource>,
    mut fresh: Box<dyn WorkloadSource>,
    k: u64,
) {
    for _ in 0..k {
        live.next_instr().expect("stream");
    }
    let mut e = psa_common::Enc::new();
    live.save_cursor(&mut e);
    let bytes = e.into_bytes();
    let mut d = psa_common::Dec::new(&bytes);
    fresh.load_cursor(&mut d).expect("cursor loads");
    assert_eq!(d.remaining(), 0, "cursor encoding fully consumed");
    for i in 0..2000 {
        assert_eq!(
            live.next_instr().unwrap(),
            fresh.next_instr().unwrap(),
            "instruction {i} after cursor restore diverged"
        );
    }
}

#[test]
fn cursor_roundtrip_synthetic() {
    let spec = catalog::workload("sphinx3").unwrap();
    pin_cursor_roundtrip(
        Box::new(TraceGenerator::new(spec, 23)),
        Box::new(TraceGenerator::new(spec, 23)),
        1237,
    );
}

#[test]
fn cursor_roundtrip_trace_mid_pass_and_after_wrap() {
    let tmp = TempTrace::new("cursor");
    let n = 3000;
    record_workload(tmp.path(), "sphinx3", 23, n);
    // Mid-first-pass.
    pin_cursor_roundtrip(
        Box::new(open_reader(tmp.path())),
        Box::new(open_reader(tmp.path())),
        1237,
    );
    // After a wrap.
    pin_cursor_roundtrip(
        Box::new(open_reader(tmp.path())),
        Box::new(open_reader(tmp.path())),
        n + 421,
    );
}

#[test]
fn cursor_kinds_do_not_cross_load() {
    let tmp = TempTrace::new("cursor_kind");
    record_workload(tmp.path(), "lbm", 1, 500);
    let spec = catalog::workload("lbm").unwrap();
    let gen: Box<dyn WorkloadSource> = Box::new(TraceGenerator::new(spec, 1));
    let mut rdr: Box<dyn WorkloadSource> = Box::new(open_reader(tmp.path()));
    let mut e = psa_common::Enc::new();
    gen.save_cursor(&mut e);
    let bytes = e.into_bytes();
    let mut d = psa_common::Dec::new(&bytes);
    assert!(
        rdr.load_cursor(&mut d).is_err(),
        "trace source must reject a synthetic cursor"
    );
    let mut e = psa_common::Enc::new();
    rdr.save_cursor(&mut e);
    let bytes = e.into_bytes();
    let mut gen2: Box<dyn WorkloadSource> = Box::new(TraceGenerator::new(spec, 1));
    let mut d = psa_common::Dec::new(&bytes);
    assert!(
        gen2.load_cursor(&mut d).is_err(),
        "synthetic source must reject a trace cursor"
    );
}

// ---------------------------------------------------------------------
// Corruption taxonomy: every damaged file is a typed TraceError.
// ---------------------------------------------------------------------

#[test]
fn empty_file_is_truncated() {
    let tmp = TempTrace::new("empty");
    std::fs::write(&tmp.0, b"").unwrap();
    assert!(matches!(
        format::verify_file(tmp.path()).unwrap_err(),
        TraceError::Truncated(_)
    ));
}

#[test]
fn truncated_file_is_typed_at_every_cut() {
    let tmp = TempTrace::new("truncate_src");
    record_workload(tmp.path(), "milc", 3, 800);
    let bytes = std::fs::read(&tmp.0).unwrap();
    // Cut points: inside the header, at the header/data boundary area,
    // inside a block header, inside a block payload, end minus one.
    for cut in [3usize, 20, 60, 200, bytes.len() - 1] {
        let cut_tmp = TempTrace::new(&format!("truncate_{cut}"));
        std::fs::write(&cut_tmp.0, &bytes[..cut]).unwrap();
        let err = format::verify_file(cut_tmp.path()).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated(_) | TraceError::Corrupt(_)),
            "cut {cut}: {err}"
        );
    }
}

#[test]
fn bit_flips_are_typed_everywhere() {
    let tmp = TempTrace::new("flip_src");
    record_workload(tmp.path(), "milc", 3, 800);
    let bytes = std::fs::read(&tmp.0).unwrap();
    let step = (bytes.len() / 23).max(1);
    for at in (0..bytes.len()).step_by(step) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        let flip_tmp = TempTrace::new(&format!("flip_{at}"));
        std::fs::write(&flip_tmp.0, &bad).unwrap();
        match format::verify_file(flip_tmp.path()) {
            // Header damage, checksum misses, length damage…
            Err(
                TraceError::Corrupt(_)
                | TraceError::Truncated(_)
                | TraceError::VersionMismatch { .. },
            ) => {}
            Err(other) => panic!("flip at {at}: unexpected error kind {other}"),
            Ok(_) => panic!("flip at {at} went undetected (FNV + structure should catch it)"),
        }
    }
}

#[test]
fn content_hash_is_the_one_shot_hash_of_the_file_bytes() {
    let tmp = TempTrace::new("content_hash");
    record_workload(tmp.path(), "mcf", 7, 20_000);
    let bytes = std::fs::read(&tmp.0).unwrap();
    let summary = format::verify_file(tmp.path()).unwrap();
    assert!(summary.blocks > 2, "the walk must cross block boundaries");
    assert_eq!(summary.file_bytes, bytes.len() as u64);
    assert_eq!(summary.content_hash, psa_common::rng::fnv1a(&bytes));

    // Hashing the file alongside each block checksum must not weaken the
    // checksum: a flipped payload byte (past the first block's header)
    // still fails it.
    let name_len = u16::from_le_bytes([bytes[12], bytes[13]]) as usize;
    let payload_at = 14 + name_len + 32 + 16;
    for at in [payload_at, payload_at + 100, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        let flip_tmp = TempTrace::new(&format!("content_flip_{at}"));
        std::fs::write(&flip_tmp.0, &bad).unwrap();
        assert!(
            matches!(
                format::verify_file(flip_tmp.path()),
                Err(TraceError::Corrupt("block checksum"))
            ),
            "flip at {at}"
        );
    }
}

#[test]
fn both_chains_end_where_one_pass_each_would() {
    let bytes: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
    let (mut a, mut b) = (format::Fnv1a::new(), format::Fnv1a::new());
    a.update(b"a prefix that only one chain absorbed");
    let (mut a_alone, mut b_alone) = (a, b);
    format::Fnv1a::update_lanes([&mut a, &mut b], [&bytes, &bytes]);
    a_alone.update(&bytes);
    b_alone.update(&bytes);
    assert_eq!(a.finish(), a_alone.finish());
    assert_eq!(b.finish(), b_alone.finish());
    assert_eq!(b.finish(), psa_common::rng::fnv1a(&bytes));
}

#[test]
fn lanes_end_where_separate_chains_would_for_unequal_parts() {
    let bytes: Vec<u8> = (0..=255u8).cycle().skip(3).take(4_099).collect();
    // Equal and unequal lengths, lengths short of one eight-byte
    // lockstep step, and empty lanes in every position.
    let shapes: [[usize; 4]; 6] = [
        [4_099, 4_099, 4_099, 4_099],
        [4_099, 4_000, 17, 4_098],
        [0, 4_099, 4_099, 4_099],
        [4_099, 8, 0, 7],
        [1, 0, 0, 9],
        [0, 0, 0, 0],
    ];
    for lens in shapes {
        let parts: [&[u8]; 4] = std::array::from_fn(|i| &bytes[i..i + lens[i].min(4_099 - i)]);
        let mut lanes = [0u8, 1, 2, 3].map(|seed| {
            let mut h = format::Fnv1a::new();
            h.update(&[seed]);
            h
        });
        let alone: Vec<u64> = lanes
            .iter()
            .zip(parts)
            .map(|(&h, part)| {
                let mut h = h;
                h.update(part);
                h.finish()
            })
            .collect();
        format::Fnv1a::update_lanes(lanes.each_mut(), parts);
        assert_eq!(
            lanes.map(|h| h.finish()).to_vec(),
            alone,
            "lengths {lens:?}"
        );
    }
}

/// Records per block: the writer closes a block at 1,024 records.
const BLOCK_RECORDS: usize = 1024;

/// `n` records, a load first, that mix op runs with every memory kind,
/// so consecutive blocks differ in payload length.
fn mixed_records(n: usize) -> Vec<format::TraceRecord> {
    use format::TraceRecord;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (pc, vaddr) = (0x40_0000 + (x >> 52), x >> 16);
            match x >> 61 {
                0..=2 if i > 0 => TraceRecord::Ops(1 + (x >> 40) as u32 % 9),
                3 | 4 => TraceRecord::Load { pc, vaddr },
                5 => TraceRecord::DependentLoad { pc, vaddr },
                _ => TraceRecord::Store { pc, vaddr },
            }
        })
        .collect()
}

/// The file a trace of `records` must be, built without the writer:
/// the header, then each run of [`BLOCK_RECORDS`] records as one block
/// whose checksum is one `Fnv1a` over its payload.
fn reference_trace(name: &str, huge: f64, records: &[format::TraceRecord]) -> Vec<u8> {
    let header = format::TraceHeader {
        name: name.into(),
        huge_fraction: huge,
        records: records.len() as u64,
        instructions: records.iter().map(format::TraceRecord::instructions).sum(),
    };
    let mut out = header.encode();
    for block in records.chunks(BLOCK_RECORDS) {
        let mut payload = Vec::new();
        for rec in block {
            rec.encode(&mut payload);
        }
        let mut sum = format::Fnv1a::new();
        sum.update(&payload);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&sum.finish().to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

#[test]
fn traces_of_one_to_nine_blocks_match_the_reference_bytes() {
    // The last block's fill: a single record, a full block, and sizes
    // between, across every remainder of a multi-block write batch.
    let last = [
        1,
        BLOCK_RECORDS,
        500,
        BLOCK_RECORDS - 1,
        7,
        300,
        BLOCK_RECORDS,
        999,
        2,
    ];
    for (blocks, &fill) in (1..=9).zip(&last) {
        let records = mixed_records((blocks - 1) * BLOCK_RECORDS + fill);
        let expect = reference_trace("mixed", 0.25, &records);

        let mut w = TraceWriter::new(std::io::Cursor::new(Vec::new()), "mixed", 0.25)
            .expect("in-memory trace");
        for &rec in &records {
            w.push(rec).expect("write record");
        }
        let (_, cursor) = w.finish_into().expect("finish trace");
        assert!(
            cursor.into_inner() == expect,
            "{blocks} blocks: in-memory bytes differ"
        );

        let tmp = TempTrace::new(&format!("reference_{blocks}"));
        let mut w = TraceWriter::create(&tmp.0, "mixed", 0.25).expect("create trace");
        for &rec in &records {
            w.push(rec).expect("write record");
        }
        w.finish().expect("finish trace");
        assert!(
            std::fs::read(&tmp.0).unwrap() == expect,
            "{blocks} blocks: file bytes differ"
        );
        let summary = format::verify_file(tmp.path()).expect("reference trace verifies");
        assert_eq!(summary.blocks, blocks as u64);
    }
}

/// Write `records` both ways the writer can finish, in memory through
/// `finish_into` and to a file through `create` plus `finish`, and
/// return the two results (the file's path rides along for opening).
fn finish_both(
    tag: &str,
    records: &[format::TraceRecord],
) -> (
    Result<format::TraceHeader, TraceError>,
    Result<format::TraceHeader, TraceError>,
    TempTrace,
) {
    let mut w =
        TraceWriter::new(std::io::Cursor::new(Vec::new()), "ops", 0.5).expect("in-memory trace");
    for &rec in records {
        w.push(rec).expect("write record");
    }
    let in_memory = w.finish_into().map(|(header, _)| header);
    let tmp = TempTrace::new(tag);
    let mut w = TraceWriter::create(&tmp.0, "ops", 0.5).expect("create trace");
    for &rec in records {
        w.push(rec).expect("write record");
    }
    (in_memory, w.finish(), tmp)
}

#[test]
fn op_only_traces_are_refused_at_finish() {
    use format::TraceRecord;
    // One op run, and enough op runs to fill several blocks (and a
    // write batch) before the last one.
    let one = [TraceRecord::Ops(5)];
    let many = vec![TraceRecord::Ops(3); 5 * BLOCK_RECORDS + 17];
    for (tag, records) in [("ops_one", &one[..]), ("ops_many", &many[..])] {
        let (in_memory, file, _tmp) = finish_both(tag, records);
        for (how, result) in [("finish_into", in_memory), ("create + finish", file)] {
            assert!(
                matches!(
                    result,
                    Err(TraceError::Corrupt("trace contains no memory accesses"))
                ),
                "{tag} through {how}: {result:?}"
            );
        }
    }
}

#[test]
fn ops_then_one_load_finish_and_open() {
    use format::TraceRecord;
    let records = [
        TraceRecord::Ops(7),
        TraceRecord::Load {
            pc: 0x40_0000,
            vaddr: 0x1_0000,
        },
    ];
    let (in_memory, file, tmp) = finish_both("ops_load", &records);
    assert_eq!(in_memory.expect("finish_into").instructions, 8);
    assert_eq!(file.expect("finish").records, 2);
    let tref = TraceRef::open(tmp.path()).expect("the trace opens");
    let mut src = TraceReader::open(&tref).expect("reader opens");
    assert_eq!(src.take_filler(u64::MAX), 7);
    assert!(matches!(
        src.next_instr().expect("the load").kind,
        InstrKind::Load { .. }
    ));
}

#[test]
fn wrong_version_is_typed() {
    let tmp = TempTrace::new("version");
    record_workload(tmp.path(), "milc", 3, 100);
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&tmp.0)
        .unwrap();
    // Patch the version field AND the header CRC so only the version is
    // "wrong" — version must be checked before the checksum.
    let mut all = Vec::new();
    f.read_to_end(&mut all).unwrap();
    all[8..12].copy_from_slice(&(TRACE_VERSION + 7).to_le_bytes());
    f.seek(SeekFrom::Start(0)).unwrap();
    f.write_all(&all).unwrap();
    drop(f);
    assert!(matches!(
        format::verify_file(tmp.path()).unwrap_err(),
        TraceError::VersionMismatch { found, expected: TRACE_VERSION } if found == TRACE_VERSION + 7
    ));
}

#[test]
fn header_count_disagreement_is_corrupt() {
    let tmp = TempTrace::new("counts");
    record_workload(tmp.path(), "milc", 3, 4000);
    let bytes = std::fs::read(&tmp.0).unwrap();
    // Drop the last block entirely: blocks checksum fine but the totals
    // no longer match the header.
    let hdr_end = {
        // Find the first block: header length = 14 fixed + name + 32.
        let name_len = u16::from_le_bytes([bytes[12], bytes[13]]) as usize;
        14 + name_len + 32
    };
    let first_block_payload =
        u32::from_le_bytes(bytes[hdr_end..hdr_end + 4].try_into().unwrap()) as usize;
    let first_block_end = hdr_end + 16 + first_block_payload;
    assert!(first_block_end < bytes.len(), "need at least two blocks");
    let cut_tmp = TempTrace::new("counts_cut");
    std::fs::write(&cut_tmp.0, &bytes[..first_block_end]).unwrap();
    assert!(matches!(
        format::verify_file(cut_tmp.path()).unwrap_err(),
        TraceError::Corrupt("header counts disagree with records")
    ));
}

#[test]
fn oversized_record_count_is_corrupt_not_an_allocation() {
    let tmp = TempTrace::new("nrecords");
    record_workload(tmp.path(), "milc", 3, 100);
    let bytes = std::fs::read(&tmp.0).unwrap();
    let name_len = u16::from_le_bytes([bytes[12], bytes[13]]) as usize;
    let mut crafted = bytes[..14 + name_len + 32].to_vec();
    // A block whose checksum is valid but whose 1-byte payload claims
    // u32::MAX records: sizing the record vector from the count alone
    // would ask for ~100GB and abort the process.
    let payload = [0u8];
    let mut crc = format::Fnv1a::new();
    crc.update(&payload);
    crafted.extend_from_slice(&1u32.to_le_bytes());
    crafted.extend_from_slice(&u32::MAX.to_le_bytes());
    crafted.extend_from_slice(&crc.finish().to_le_bytes());
    crafted.extend_from_slice(&payload);
    let bad = TempTrace::new("nrecords_crafted");
    std::fs::write(&bad.0, &crafted).unwrap();
    assert!(matches!(
        TraceRef::open(bad.path()).unwrap_err(),
        TraceError::Corrupt("block record count")
    ));
}

#[test]
fn pinned_open_rejects_foreign_hash() {
    let tmp = TempTrace::new("pin");
    record_workload(tmp.path(), "lbm", 9, 200);
    let good = TraceRef::open(tmp.path()).unwrap();
    assert!(TraceRef::open_pinned(tmp.path(), good.content_hash).is_ok());
    assert!(matches!(
        TraceRef::open_pinned(tmp.path(), good.content_hash ^ 1).unwrap_err(),
        TraceError::HashMismatch { .. }
    ));
}

#[test]
fn workload_ref_builds_both_kinds() {
    let tmp = TempTrace::new("ref_build");
    record_workload(tmp.path(), "lbm", 9, 300);
    let tref = TraceRef::open(tmp.path()).unwrap();
    assert!(tref.name.starts_with("trace:lbm@"));
    let wref = WorkloadRef::TraceFile(tref);
    let mut src = wref.build_source(0).expect("trace source builds");
    assert_eq!(src.name(), tref.name);
    src.next_instr().unwrap();
    let spec = catalog::workload("lbm").unwrap();
    assert_eq!(
        wref.huge_fraction(),
        spec.huge_fraction,
        "trace header carries the workload's huge fraction"
    );
}
