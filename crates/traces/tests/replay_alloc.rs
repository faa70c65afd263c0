//! Once a `.psatrace` replay is open, streaming through it never touches
//! the heap: not at a block boundary, and not at the wrap back to the
//! first block.
//!
//! A counting global allocator (this test binary's own, as in
//! `crates/sim/tests/step_alloc.rs`) tallies every allocation made on the
//! test's thread. The reader decodes each block into the same payload
//! and record buffers, sized at open for any block the writer emits, so
//! replaying a written trace past its first block and across a wrap
//! must allocate nothing — even when later blocks are longer than the
//! first, as they are in the trace below.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;
use std::path::PathBuf;

use psa_traces::format::{TraceRecord, TraceWriter};
use psa_traces::{TraceReader, TraceRef, WorkloadSource};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// Counting touches only a const-initialised thread-local, which never
// allocates, so the allocator does not re-enter itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down must still be able to allocate.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass through unchanged.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass through unchanged.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from this allocator, which is `Heap`
        // underneath, and the caller's guarantees pass through unchanged.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `Heap`
        // underneath, and the caller's guarantees pass through unchanged.
        unsafe { Heap.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A temp trace path, removed on drop.
struct TempTrace(PathBuf);

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn replay_across_blocks_and_a_wrap_does_not_allocate() {
    let tmp = TempTrace(
        std::env::temp_dir().join(format!("psa_replay_alloc_{}.psatrace", std::process::id())),
    );
    let path = tmp.0.to_str().expect("utf-8 temp path");
    let mut w = TraceWriter::create(&tmp.0, "alloc-probe", 0.5).expect("create trace");
    // The first block's 1,024 records alternate one-op runs (6 bytes)
    // with loads (18 bytes); every later block holds 1,024 loads, half as
    // long again in bytes.
    for i in 0..12_000u64 {
        if i < 512 {
            w.push(TraceRecord::Ops(1)).expect("write record");
        }
        let load = TraceRecord::Load {
            pc: 0x40_0000 + (i % 16) * 4,
            vaddr: 0x1000_0000 + i * 64,
        };
        w.push(load).expect("write record");
    }
    let header = w.finish().expect("finish trace");
    assert_eq!(header.records, 12_512);

    let tref = TraceRef::open(path).expect("verified trace");
    let mut reader = TraceReader::open(&tref).expect("reader opens");
    let before = allocations();
    for _ in 0..header.instructions + 5_000 {
        reader.next_instr().expect("replay is infinite");
    }
    let during = allocations() - before;
    assert_eq!(reader.wraps(), 1, "the window crosses the wrap");
    assert_eq!(during, 0, "allocations while replaying past a wrap");
}
