//! Counting-allocator gate on `Matrix::clone`: composite nodes share
//! their children behind `Arc`, so cloning any tree bumps reference counts
//! and allocates nothing, however deep the tree. The kernel's history
//! records, lineage products and the inference stack all clone strategy
//! trees; a clone that deep-copied would cost one allocation per node on
//! each of those paths.
//!
//! The counter is thread-local: it counts the test thread's allocations
//! only, so the test harness or any other thread of the process cannot
//! add to a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ektelo_matrix::Matrix;

struct CountingAllocator;

thread_local! {
    // A const-initialised `Cell` needs no lazy set-up and no destructor,
    // so touching it never allocates from inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counter has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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
        count();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The number of allocations this thread makes while cloning `m`, and
/// the clone.
fn clone_allocations(m: &Matrix) -> (Matrix, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let copy = m.clone();
    (copy, ALLOCATIONS.with(Cell::get) - before)
}

/// A product chain `D₀ · D₁ ⋯ D₇ · U`, where `U` stacks scaled range
/// levels and a suffix block: the shape of a strategy measured
/// through a deep lineage.
fn product_chain_over_union(n: usize) -> Matrix {
    let levels: Vec<Matrix> = (0..6)
        .map(|l| {
            let width = (n >> l).max(1);
            let ranges = (0..n / width)
                .map(|k| (k * width, (k + 1) * width))
                .collect();
            Matrix::scaled(1.0 + l as f64, Matrix::range_queries(n, ranges))
        })
        .chain([Matrix::suffix(n)])
        .collect();
    let union = Matrix::vstack(levels);
    let rows = union.rows();
    (0..8).fold(union, |acc, k| {
        Matrix::product(Matrix::diagonal(vec![1.0 + k as f64; rows]), acc)
    })
}

/// `(I₄ ; 1ᵀ) ⊗ (Prefix₈ ; 2·I₈) ⊗ (Range ; Wavelet)`: a Kronecker product
/// of unions.
fn kronecker_of_unions() -> Matrix {
    Matrix::kron_list(vec![
        Matrix::vstack(vec![Matrix::identity(4), Matrix::total(4)]),
        Matrix::vstack(vec![
            Matrix::prefix(8),
            Matrix::scaled(2.0, Matrix::identity(8)),
        ]),
        Matrix::vstack(vec![
            Matrix::range_queries(16, vec![(0, 8), (8, 16), (3, 11)]),
            Matrix::wavelet(16),
        ]),
    ])
}

#[test]
fn cloning_a_deep_tree_allocates_nothing() {
    for m in [product_chain_over_union(64), kronecker_of_unions()] {
        let (copy, allocations) = clone_allocations(&m);
        assert_eq!(allocations, 0, "cloning a {:?} tree allocated", m.shape());
        let x: Vec<f64> = (0..m.cols()).map(|i| (i % 5) as f64 - 2.0).collect();
        assert_eq!(
            copy.matvec(&x),
            m.matvec(&x),
            "the clone is the same matrix"
        );
    }
}
