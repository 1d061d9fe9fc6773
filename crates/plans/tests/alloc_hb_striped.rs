//! Counting-allocator gate on the executor's HB-Striped path (Plan #15,
//! paper Algorithm 5 run as Algorithm 6): the shared-strategy batch is
//! lowered to one `I ⊗ HB ⊗ I` measurement and solved exactly, mode by
//! mode. On the `[64, 4, 3]` domain striped along attribute 0, a warm run
//! performs exactly two data-sized allocations (at least one domain
//! vector's bytes), in this order:
//!
//! 1. the exact answers, one shared buffer per measurement (`Arc<[f64]>`,
//!    one row per strategy row) that the noise is added to in place and
//!    that the history record and `measurements_since` share;
//! 2. the output of the HB mode's tree pass, which is the estimate.
//!
//! Nothing else on the path is sized by the data: the sensitivity of the
//! Kronecker strategy is a product of its factors' column-sum maxima, and
//! the tree pass reads the answers in place, forming each weighted value
//! `y / noise_scale` where it reads it. Copying the answers into the
//! history or out of it, stacking a weighted right-hand side, building
//! the strategy's column-sum vector, or forming a residual product `A·x̂`
//! each adds an allocation and fails the gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ektelo_core::ops::selection::hb;
use ektelo_plans::striped::plan_hb_striped;
use ektelo_plans::util::kernel_for_histogram;

const SIZES: [usize; 3] = [64, 4, 3];
const CELLS: usize = 64 * 4 * 3;
/// Bytes of one domain vector: an allocation at least this large is
/// data-sized.
const DATA_BYTES: usize = CELLS * std::mem::size_of::<f64>();
/// How many data-sized allocation sizes are kept for the failure message.
const LOGGED: usize = 16;

struct CountingAllocator;

static DATA_SIZED: AtomicUsize = AtomicUsize::new(0);
static LOG: [AtomicUsize; LOGGED] = [const { AtomicUsize::new(0) }; LOGGED];

fn record(size: usize) {
    if size >= DATA_BYTES {
        let i = DATA_SIZED.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = LOG.get(i) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: pure pass-through to `System` plus relaxed atomic counters —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counters have no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (alloc/realloc above
        // forward to it) with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The sizes of the data-sized allocations `f` performs, in order.
fn data_sized_allocations<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
    let before = DATA_SIZED.load(Ordering::Relaxed);
    let out = f();
    let after = DATA_SIZED.load(Ordering::Relaxed);
    let sizes = (before..after.min(LOGGED))
        .map(|i| LOG[i].load(Ordering::Relaxed))
        .collect();
    assert!(after <= LOGGED, "more than {LOGGED} data-sized allocations");
    (out, sizes)
}

#[test]
fn warm_hb_striped_run_allocates_only_answers_and_estimate() {
    let x: Vec<f64> = (0..CELLS).map(|i| ((i * 13) % 17) as f64).collect();
    let (k, root) = kernel_for_histogram(&x, 10.0, 5);
    // Warm-up: evaluation plans and the kernel's workspace arena.
    let cold = plan_hb_striped(&k, root, &SIZES, 0, 1.0).unwrap();

    let (warm, sizes) = data_sized_allocations(|| plan_hb_striped(&k, root, &SIZES, 0, 1.0));
    let warm = warm.unwrap();

    let rows = hb(SIZES[0]).rows() * CELLS / SIZES[0];
    let f64s = |n: usize| n * std::mem::size_of::<f64>();
    // An `Arc<[f64]>` puts its two reference counts before the data.
    let arc_header = 2 * std::mem::size_of::<usize>();
    let expected = vec![
        arc_header + f64s(rows), // exact answers, noise added in place
        f64s(CELLS),             // the tree pass's output: the estimate
    ];
    assert_eq!(
        sizes, expected,
        "data-sized allocations of a warm HB-Striped run (bytes, in order)"
    );
    assert_eq!(warm.x_hat.len(), CELLS);
    assert_ne!(warm.x_hat, cold.x_hat, "each run draws fresh noise");
    assert_eq!(k.measurement_count(), 2);
}
