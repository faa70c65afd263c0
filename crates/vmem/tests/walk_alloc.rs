//! Page walks allocate nothing, and mapped pages cost little heap.
//!
//! A counting global allocator (this test binary's own) tallies every
//! allocation made on the test's thread, and the bytes live on it. Once
//! 4,096 4KB pages are mapped, re-translating them in order misses the
//! 1,536-entry STLB on every access, so each translation walks the page
//! table; none of those walks may touch the heap. First-touch demand
//! paging still allocates (page-table nodes, region-map growth) and is
//! outside that window; the footprint test measures it instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use psa_common::VAddr;
use psa_vmem::{AddressSpace, AspaceConfig, Mmu, MmuConfig, PhysMem, PhysMemConfig, TlbHitLevel};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Record one allocation call that grew the live heap by `grown` bytes.
fn count(grown: i64) {
    // `try_with`: a thread being torn down must still be able to allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

fn release(bytes: usize) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - bytes as i64));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

// Counting touches only a const-initialised thread-local, which never
// allocates, so the allocator does not re-enter itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, and the caller's guarantees pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, and the caller's guarantees pass through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn page_walks_allocate_nothing() {
    const PAGES: u64 = 4_096;
    let mut phys = PhysMem::new(
        PhysMemConfig {
            bytes: 512 * 1024 * 1024,
        },
        3,
    )
    .expect("shape");
    let mut aspace = AddressSpace::new(AspaceConfig {
        huge_fraction: 0.0,
        seed: 5,
    });
    let mut mmu = Mmu::new(MmuConfig::default()).expect("shape");
    let page = |n: u64| VAddr::new(0x4000_0000 + (n << 12));
    for n in 0..PAGES {
        mmu.translate(&mut aspace, &mut phys, page(n))
            .expect("memory fits");
    }

    let (walks, before) = (mmu.stats().walks, allocations());
    for n in 0..PAGES {
        let out = mmu
            .translate(&mut aspace, &mut phys, page(n))
            .expect("mapped");
        assert_eq!(out.level, TlbHitLevel::Walk);
    }
    let allocated = allocations() - before;
    assert_eq!(mmu.stats().walks - walks, PAGES, "every access walks");
    assert_eq!(
        allocated, 0,
        "{PAGES} page walks allocated {allocated} times"
    );
}

/// Demand paging costs a few bytes of heap per mapped 4KB page: the PTE
/// word in the page's PT node, whose 512 words serve a whole 2MB region.
/// Mapping every page of 64 small-page regions may grow the live heap by
/// less than 16 B per page; a hash-map entry per page costs several times
/// that.
#[test]
fn mapped_pages_cost_a_few_bytes_of_heap_each() {
    const PAGES: u64 = 64 * 512;
    let mut phys = PhysMem::new(
        PhysMemConfig {
            bytes: 512 * 1024 * 1024,
        },
        3,
    )
    .expect("shape");
    let before = live_bytes();
    let mut aspace = AddressSpace::new(AspaceConfig {
        huge_fraction: 0.0,
        seed: 5,
    });
    for n in 0..PAGES {
        aspace
            .translate_or_map(&mut phys, VAddr::new(0x4000_0000 + (n << 12)))
            .expect("memory fits");
    }
    assert_eq!(aspace.bytes_4k(), PAGES * 4096);
    let per_page = (live_bytes() - before) as f64 / PAGES as f64;
    assert!(
        per_page < 16.0,
        "{per_page:.1} B of live heap per mapped 4KB page"
    );
}
