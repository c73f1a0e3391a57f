//! Pins the allocation behaviour of the reusable crypto hot paths with a
//! counting global allocator: once an [`OnionBuilder`] or [`LayerBuf`] has
//! warmed up on a transfer shape, repeating that shape must allocate
//! nothing — the per-transfer cost is cipher work, not the allocator. The
//! keystream windows live in the builder's per-layer scratch and on the
//! stack of an in-place open, never on the heap.
//!
//! Lives in its own integration binary because `#[global_allocator]` is
//! process-wide. The counter is thread-local: the harness runs the tests of
//! one binary on parallel threads, and a process-wide count would charge
//! each test with its siblings' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tap_crypto::cipher::{SymmetricKey, SEAL_OVERHEAD};
use tap_crypto::onion::{wrap, LayerBuf, OnionBuilder};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with no destructor and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves or grows is an allocator round-trip too.
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return how many allocator calls this thread made in it.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn fixture(layers: usize) -> (Vec<(SymmetricKey, Vec<u8>)>, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let ls = (0..layers)
        .map(|i| {
            (
                SymmetricKey::generate(&mut rng),
                format!("hop-header-{i}").into_bytes(),
            )
        })
        .collect();
    (ls, rng)
}

#[test]
fn reused_onion_builder_seals_without_allocating() {
    let (layers, mut rng) = fixture(6);
    let core = vec![0xA5u8; 3072];
    let mut b = OnionBuilder::new();
    // Warm-up transfer grows every buffer to its steady-state capacity.
    b.seal(&mut rng, &layers, &core);

    let count = allocations_in(|| {
        for _ in 0..8 {
            b.seal(&mut rng, &layers, &core);
        }
    });
    assert_eq!(
        count, 0,
        "a warmed OnionBuilder must reuse its margin and scratch, not realloc"
    );
}

#[test]
fn warmed_builder_absorbs_smaller_transfers_too() {
    let (layers, mut rng) = fixture(6);
    let mut b = OnionBuilder::new();
    b.seal(&mut rng, &layers, &vec![1u8; 4096]);

    // Anything that fits in the warmed capacity — fewer layers, shorter
    // cores — must also be allocation-free.
    let (short_layers, _) = fixture(3);
    let count = allocations_in(|| {
        b.seal(&mut rng, &short_layers, &[2u8; 512]);
        b.seal(&mut rng, &layers, &[3u8; 64]);
    });
    assert_eq!(count, 0, "smaller transfers fit the warmed capacity");
}

#[test]
fn reused_layer_buf_peels_without_allocating() {
    let (layers, mut rng) = fixture(5);
    let keys: Vec<_> = layers.iter().map(|(k, _)| *k).collect();
    let mut b = OnionBuilder::new();
    b.seal(&mut rng, &layers, &[0x42u8; 2048]);
    let onion = b.as_bytes().to_vec();

    let mut buf = LayerBuf::new();
    buf.load(&onion);
    for k in &keys {
        buf.peel(k).expect("transit peel");
    }

    let count = allocations_in(|| {
        buf.load(&onion);
        for k in &keys {
            buf.peel(k).expect("transit peel");
        }
    });
    assert_eq!(count, 0, "a warmed LayerBuf must peel in place");
}

#[test]
fn open_in_place_on_a_4_kib_body_allocates_nothing() {
    let (layers, mut rng) = fixture(1);
    let key = layers[0].0;
    let sealed = key.seal(&mut rng, &[0x3Cu8; 4096]);
    assert_eq!(sealed.len(), 4096 + SEAL_OVERHEAD);
    let mut buf = sealed.clone();

    let count = allocations_in(|| {
        for _ in 0..8 {
            buf.copy_from_slice(&sealed);
            key.open_in_place(&mut buf).expect("authentic body");
        }
        key.seal_in_place(&mut rng, &mut buf);
    });
    assert_eq!(
        count, 0,
        "open_in_place and seal_in_place work where the bytes lie"
    );
}

#[test]
fn wrap_allocates_only_the_onion_it_returns() {
    let (layers, mut rng) = fixture(5);
    // The first call on a thread warms its builder.
    wrap(&mut rng, &layers, &[7u8; 64]);
    let mut onions = Vec::with_capacity(8);
    let count = allocations_in(|| {
        for _ in 0..8 {
            onions.push(wrap(&mut rng, &layers, &[7u8; 64]));
        }
    });
    assert_eq!(count, 8, "one allocation an onion: the Vec handed back");
}
