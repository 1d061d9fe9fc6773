//! Counting-allocator proof that `vector_laplace_batch` snapshots data
//! vectors by refcount bump, not deep clone (zero-copy `Arc` data nodes).
//!
//! An earlier batch path called `to_vec()` on every source vector to move
//! the exact-answer matvecs outside the kernel lock — one full data-sized
//! allocation **per request per call**. With `NodeData::Vector` holding an
//! `Arc<Vec<f64>>`, the snapshot is free. The counter tracks allocations
//! of at least one stripe's byte size. The shared strategy is a total
//! query, whose L1 sensitivity is closed-form (`Ones`: its row count), so
//! the batch needs no column-sum pass either, and its answers are one
//! value per stripe. A warm batch call therefore performs **no**
//! stripe-sized allocation: a deep-clone regression adds one per
//! *stripe*, and a sensitivity that materializes the column sums again
//! adds one per call (one per stripe if the per-batch memo regresses
//! too); any of them trips the assertion.
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_matrix::{partition_from_labels, Matrix};

/// Cells per stripe; 8 KiB of f64 per stripe, 4 stripes.
const STRIPE: usize = 1 << 13;
const STRIPES: usize = 4;
const STRIPE_BYTES: usize = STRIPE * std::mem::size_of::<f64>();

struct CountingAllocator;

static DATA_SIZED_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed atomic counter —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counter has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= STRIPE_BYTES {
            DATA_SIZED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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
        if new_size >= STRIPE_BYTES {
            DATA_SIZED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn batched_measurement_performs_no_data_sized_allocations() {
    let n = STRIPE * STRIPES;
    let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let k = ProtectedKernel::init_from_vector(x, 10.0, 17);
    let labels: Vec<usize> = (0..n).map(|i| i / STRIPE).collect();
    let p = partition_from_labels(STRIPES, &labels);
    let stripes = k.split_by_partition(k.root(), &p).unwrap();
    // One shared wide strategy with a single row (scratch-free, with a
    // closed-form sensitivity): the answers stay tiny while the matvec
    // still reads every cell.
    let strategy = Matrix::total(STRIPE);
    let reqs: Vec<(SourceVar, &Matrix, f64)> =
        stripes.iter().map(|&s| (s, &strategy, 0.1)).collect();

    // Warm-up: plans built, any lazily initialized runtime structures out
    // of the counting window.
    k.vector_laplace_batch(&reqs).unwrap();

    const CALLS: u64 = 3;
    let before = DATA_SIZED_ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        k.vector_laplace_batch(&reqs).unwrap();
    }
    let data_sized = DATA_SIZED_ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        data_sized, 0,
        "vector_laplace_batch must snapshot stripes by Arc (zero copies) and \
         take the shared strategy's sensitivity in closed form"
    );

    // The zero-copy path still produces real measurements.
    assert_eq!(k.measurements().len(), (1 + CALLS as usize) * STRIPES);
    assert!((k.budget_spent() - 0.4).abs() < 1e-9);
}
