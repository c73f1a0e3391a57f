//! Counting allocator: every allocation the benchmark's thread makes is
//! counted, so a change that removes or adds allocations on the transfer
//! path shows as an exact count, not as a timing that needs statistics.
//!
//! The counters are thread-local on purpose: a process-global counter is
//! polluted by any other thread (the test harness runs tests in parallel),
//! which is how the repo's `alloc_reuse` pin came to hold nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus two thread-local counters. Install it with
/// `#[global_allocator]` in the binary that wants counts; without it
/// [`allocated`] reads zero forever.
pub struct CountingAlloc;

fn note(size: usize) {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// `Cell`s with no destructor and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` by the calling thread so far.
pub fn allocated() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}
