//! Counting global allocator: the exact allocation ledger behind
//! `bench.alloc_per_query` / `bench.alloc_bytes_per_query`.
//!
//! Every call forwards unchanged to [`System`]; while armed (traced
//! passes only, around the facade call of an operation) it also counts
//! calls and requested bytes. Disarmed, the cost is one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by the bench binary.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    // Statistics only: the counters publish no other data.
    if ARMED.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// atomics and never allocates.
// lint:allow(unsafe-boundary): `GlobalAlloc` is an unsafe trait; the impl only forwards to `System`
unsafe impl GlobalAlloc for Counting {
    // lint:allow(unsafe-boundary): signature fixed by `GlobalAlloc`; forwards to `System.alloc`
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // lint:allow(unsafe-boundary): signature fixed by `GlobalAlloc`; forwards to `System.alloc_zeroed`
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // lint:allow(unsafe-boundary): signature fixed by `GlobalAlloc`; forwards to `System.realloc`
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // lint:allow(unsafe-boundary): signature fixed by `GlobalAlloc`; forwards to `System.dealloc`
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Starts counting.
pub fn arm() {
    ARMED.store(true, Relaxed);
}

/// Stops counting.
pub fn disarm() {
    ARMED.store(false, Relaxed);
}

/// `(calls, bytes)` counted so far.
pub fn totals() -> (u64, u64) {
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}
