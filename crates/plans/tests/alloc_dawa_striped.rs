//! Counting-allocator gate on the executor's DAWA-Striped path (Plan #14,
//! `PS TP[ PD TR SG LM ] LS`, paper §9.2). DAWA-Striped keeps the stripe
//! split: every stripe gets its own DAWA partition, Greedy-H strategy,
//! measurement and least-squares component, so a request's heap traffic
//! is per-stripe bookkeeping, not arithmetic.
//!
//! A warm request (evaluation plans built, kernel workspace pooled) is
//! counted on two shapes, each against half of the count of the commit
//! before matrix trees shared their children:
//!
//! | shape | stripes | cells | before | bound |
//! |---|---|---|---|---|
//! | `[32, 3, 2]` (the sessions' DAWA plan) | 6 | 192 | 985 | 492 |
//! | `[64, 5, 7, 4, 2]` (`striped_dawa`) | 280 | 17,920 | 28,111 | 14,055 |
//!
//! The count fell because composite matrix nodes hold their children
//! behind `Arc`, so cloning a strategy into the history record, a lineage
//! product or the inference stack bumps reference counts instead of
//! copying trees, and because the per-stripe selection, segmentation and
//! component passes stopped building throwaway vectors. A regression to
//! deep-copying clones, or a per-stripe copy put back, fails the gate.
//!
//! The counter is thread-local: it counts the test thread's allocations
//! only, so the test harness or any other thread of the process cannot
//! add to a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ektelo_plans::striped::plan_dawa_striped;
use ektelo_plans::util::kernel_for_histogram;

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

/// Runs `f` on this thread and returns its result with the number of
/// allocations this thread made meanwhile.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The allocations of the second of two DAWA-Striped requests on one
/// kernel, striped along attribute 0.
fn warm_request_allocations(sizes: &[usize], ranges: &[(usize, usize)], eps: f64) -> u64 {
    let n: usize = sizes.iter().product();
    let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 + 1.0).collect();
    let (k, root) = kernel_for_histogram(&x, 4.0 * eps, 9);
    let cold = plan_dawa_striped(&k, root, sizes, 0, ranges, eps, 0.25).unwrap();
    let (warm, allocations) =
        allocations_during(|| plan_dawa_striped(&k, root, sizes, 0, ranges, eps, 0.25));
    let warm = warm.unwrap();
    assert_eq!(warm.x_hat.len(), n);
    assert_ne!(warm.x_hat, cold.x_hat, "each run draws fresh noise");
    allocations
}

/// Half of the parent commit's 985 allocations on `[32, 3, 2]`.
const BOUND_SMALL: u64 = 985 / 2;
/// Half of the parent commit's 28,111 allocations on `[64, 5, 7, 4, 2]`.
const BOUND_LARGE: u64 = 28_111 / 2;

#[test]
fn warm_sessions_shape_request_allocates_at_most_half_of_before() {
    let allocations = warm_request_allocations(&[32, 3, 2], &[(0, 16)], 0.8);
    assert!(
        allocations <= BOUND_SMALL,
        "{allocations} allocations in a warm [32, 3, 2] DAWA-Striped request (bound {BOUND_SMALL})"
    );
}

#[test]
fn warm_census_shape_request_allocates_at_most_half_of_before() {
    let allocations = warm_request_allocations(&[64, 5, 7, 4, 2], &[(0, 32)], 0.1);
    assert!(
        allocations <= BOUND_LARGE,
        "{allocations} allocations in a warm [64, 5, 7, 4, 2] DAWA-Striped request (bound {BOUND_LARGE})"
    );
}
