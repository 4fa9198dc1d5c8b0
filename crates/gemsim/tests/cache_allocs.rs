//! Proof that the gemsim hot path never allocates: a [`Cache`] is exactly
//! the allocations made in `Cache::new`, `AccessStream::new` makes a
//! fixed handful, and the access/flush and stream-synthesis paths are
//! allocation-free after construction. This pins
//! the fix for the old `Cache::new` bug where a capacity-carrying `Vec` was
//! cloned per set (losing the reservation and re-growing in the hot loop).
//!
//! Own integration-test binary: the counting `#[global_allocator]` is
//! process-global, so this file must stay at ONE `#[test]`. The count
//! itself is per-thread (const-initialized thread-local, so reading it
//! inside the allocator never allocates or recurses): the libtest harness
//! thread allocates concurrently with the measured storms, and a
//! process-global counter would pick that noise up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread; silently skipped during
/// thread teardown when the TLS slot is already destroyed.
fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[test]
fn hot_paths_never_allocate() {
    use mss_gemsim::cache::{Cache, CacheConfig};
    use mss_gemsim::workload::{AccessStream, Kernel, MemoryAccess};
    use mss_units::rng::{Rng, Xoshiro256PlusPlus};

    let cfg = CacheConfig {
        name: "allocs.L2".into(),
        capacity: 1 << 20,
        associativity: 16,
        line_bytes: 64,
        read_latency: 1e-9,
        write_latency: 1e-9,
        read_energy: 1e-12,
        write_energy: 1e-12,
        leakage_power: 1e-3,
    };
    // Construction: the one flat slab of ways (one allocation today) — a
    // small constant, NOT per-set. The old representation cloned a
    // capacity-carrying Vec per set, which dropped the reservation and
    // re-grew inside the hot loop.
    let before_new = allocs();
    let mut cache = Cache::new(cfg).unwrap();
    let ctor_allocs = before_new.abs_diff(allocs());
    assert!(
        ctor_allocs <= 8,
        "Cache::new made {ctor_allocs} allocations; want a small constant \
         (one slab of ways), not one per set"
    );

    // Demand/flush storm: zero allocations allowed.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let before_storm = allocs();
    for _ in 0..200_000 {
        let addr = rng.gen_range_u64(0, 8 << 20);
        cache.access(addr, rng.gen_bool(0.3));
    }
    cache.flush();
    assert_eq!(
        allocs() - before_storm,
        0,
        "the access/flush path must never allocate"
    );

    // Stream construction: the history ring and the reuse sampler (its
    // shared handle, threshold table and index), whatever the kernel's
    // mean reuse distance — a small constant, NOT per access.
    for kernel in Kernel::parsec_extended() {
        let before_stream = allocs();
        let stream = AccessStream::new(&kernel, 0, 7);
        let stream_allocs = allocs() - before_stream;
        assert!(
            stream_allocs <= 4,
            "AccessStream::new({}) made {stream_allocs} allocations; want at most \
             the ring and the sampler's three",
            kernel.name
        );
        drop(stream);
    }

    // Stream synthesis storm: after AccessStream::new, batch fills reuse
    // the caller's buffer and the internal ring — zero allocations.
    let kernel = Kernel::streamcluster();
    let mut stream = AccessStream::new(&kernel, 0, 7);
    let mut buf = vec![
        MemoryAccess {
            address: 0,
            write: false
        };
        1024
    ];
    let before_fill = allocs();
    for _ in 0..100 {
        stream.fill(&mut buf);
    }
    assert_eq!(
        allocs() - before_fill,
        0,
        "AccessStream::fill must never allocate"
    );
    // Keep the cache's work observable so the storm is not optimized out.
    assert!(cache.stats().accesses() >= 200_000);
}
