//! Once its footprint is mapped, a warmed machine steps without touching
//! the heap.
//!
//! A counting global allocator (this test binary's own, as in
//! `crates/vmem/tests/walk_alloc.rs`) tallies every allocation made on
//! the test's thread. The workload backs each pattern component's region
//! with a single 2MB page, so every page the run will ever touch is
//! mapped during warm-up; first-touch demand paging, the one documented
//! source of allocation in the measured loop, cannot happen in the
//! measured window. Everything else the step touches (the hierarchy
//! walk's scratch buffers, the prefetcher and `PsaModule` tables, the
//! LLC feedback queue) must reuse its storage.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{SimConfig, System};
use psa_traces::{PatternMix, Suite, WorkloadSpec};

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

/// Every pattern component, each over a region under 2MB that one huge
/// page backs.
const PROBE: WorkloadSpec = WorkloadSpec {
    name: "alloc-probe",
    suite: Suite::Spec06,
    huge_fraction: 1.0,
    footprint: 8 << 20,
    mem_ratio: 0.4,
    store_ratio: 0.2,
    dependent_fraction: 0.9,
    mix: PatternMix {
        stream: 1.0,
        stride_small: 0.4,
        stride_large: 0.4,
        subpage_grain: 0.6,
        pointer_chase: 0.2,
        random: 0.4,
        hot: 0.2,
    },
    intensive: true,
};

#[test]
fn warmed_machine_steps_without_allocating() {
    let config = SimConfig::default()
        .with_warmup(50_000)
        .with_instructions(250_000);
    let mut sys = System::single_core(config, &PROBE, PrefetcherKind::Spp, PageSizePolicy::PsaSd);
    sys.run_to(100_000).unwrap();
    let before = allocations();
    let finished = sys.run_to(250_000).unwrap();
    let during = allocations() - before;
    assert!(!finished, "the window ends before the run does");
    assert_eq!(
        during, 0,
        "allocations while stepping 150k warm instructions"
    );
}
