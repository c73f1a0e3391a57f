//! Pins what one Pastry node costs in heap: a counting global allocator
//! measures the bytes 10 000 joins leave allocated (`paper_defaults`,
//! seed 7), so the node handle, its routing-table grid, the member arena,
//! the slot map, the ring and the sampling index are all in the mean,
//! with their `Vec` and hash-map slack (DESIGN.md §6d).
//!
//! Lives in its own integration binary because `#[global_allocator]` is
//! process-wide. The counter is thread-local, so the harness's other
//! threads are not charged to the build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tap_pastry::{Overlay, PastryConfig};

struct CountingAlloc;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with no destructor and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NODES: usize = 10_000;

/// Mean heap a node holds at N = 10⁴: 827 bytes while leaf-set sides held
/// 20-byte ids, ≈ 575 with 4-byte slots.
#[test]
fn a_pastry_node_holds_at_most_600_bytes_of_heap() {
    let before = LIVE_BYTES.with(Cell::get);
    let mut rng = StdRng::seed_from_u64(7);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..NODES {
        overlay.add_random_node(&mut rng);
    }
    let per_node = (LIVE_BYTES.with(Cell::get) - before) as f64 / NODES as f64;
    assert_eq!(overlay.len(), NODES);
    assert!(per_node <= 600.0, "{per_node:.1} bytes a node");
}
