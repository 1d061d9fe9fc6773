//! Counting-allocator gate on the executor's MWEM path (Plan #7,
//! `I:( SW LM MW )`, paper §9.1) at the end-to-end benchmark's `mwem`
//! shape: 4,096 cells, 500 `random_range` queries, 20 rounds of 30 MW
//! passes.
//!
//! Every round selects, measures and re-infers, but most of a round's
//! work does not change between rounds: the uniform MW start, and the
//! workload's answers on the (unchanging) private vector. The loop
//! computes the start once per plan and the passes begin from one value
//! per column class, writing their expansion into the loop's own
//! estimate; the selection state keeps the truth answers while the
//! snapshot is the same. The column classes are one value refreshed in
//! place each round, so the refinement's `n` labels (16 KiB at 4,096
//! cells) are not copied into a new value every round. Each round's
//! bookkeeping costs its interval and its classes: the classes are
//! refined by the round's interval bounds, the history is not re-stacked
//! and its answers are not gathered again while it has classes, and the
//! MW passes run the reduced matrix's CSR kernels without a workspace. A
//! warm request (evaluation plans built, kernel workspace pooled) is
//! counted:
//!
//! | | bytes | allocations |
//! |---|---|---|
//! | per-round start and truth answers | 2,347,197 | 935 |
//! | once-per-plan start and truth answers | 917,245 | 858 |
//! | classes refreshed in place | 603,965 | 824 |
//! | the same, re-measured before the row below | 602,693 | 805 |
//! | per-round bookkeeping in the interval and the classes | 584,629 | 683 |
//! | bound | 588,245 | 709 |
//!
//! The bound was the second row less 16 of the 20 per-round label copies
//! (16,384 bytes each), 655,101 bytes. It is now the fourth row less 16
//! of the 20 rounds' shares of the last row's saving: 18,064 bytes, 903
//! a round, and 122 allocations, 6 a round. A per-round `n`-cell start, a
//! per-round truth evaluation, a per-round copy of the labels, or more
//! than 181 bytes a round of the bookkeeping put back fails the gate.
//!
//! The counter is thread-local: it counts the test thread's allocations
//! only, so the test harness or any other thread of the process cannot
//! add to a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ektelo_data::generators::{shape_1d, Shape1D};
use ektelo_data::workloads::random_range;
use ektelo_plans::mwem::{plan_mwem, MwemOptions};
use ektelo_plans::util::kernel_for_histogram;

struct CountingAllocator;

thread_local! {
    // Const-initialised `Cell`s need no lazy set-up and no destructor,
    // so touching them never allocates from inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: pure pass-through to `System` plus thread-local counters —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counters have no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
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
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` on this thread and returns its result with the bytes and the
/// number of allocations this thread requested meanwhile (a reallocation
/// counts as one allocation of its new size).
fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (BYTES.with(Cell::get), ALLOCATIONS.with(Cell::get));
    let out = f();
    let bytes = BYTES.with(Cell::get) - before.0;
    (out, bytes, ALLOCATIONS.with(Cell::get) - before.1)
}

/// The 602,693 bytes of a request that re-stacked its history every
/// round, less 16 of the 20 rounds' 903-byte shares of the saving.
const BOUND_BYTES: u64 = 602_693 - 16 * 903;

/// Its 805 allocations, less 16 of the 20 rounds' 6.
const BOUND_ALLOCATIONS: u64 = 805 - 16 * 6;

#[test]
fn warm_mwem_request_allocates_at_most_half_the_bytes_of_before() {
    let n = 4096;
    let x = shape_1d(Shape1D::IncomeLike, n, 100_000.0, 1);
    let workload = random_range(n, 500, 1);
    let eps = 0.1;
    let opts = MwemOptions {
        rounds: 20,
        total: x.iter().sum(),
        mw_iterations: 30,
    };
    let (k, root) = kernel_for_histogram(&x, 4.0 * eps, 9);
    let cold = plan_mwem(&k, root, &workload, eps, &opts).unwrap();
    let (warm, bytes, allocations) =
        allocated_during(|| plan_mwem(&k, root, &workload, eps, &opts));
    let warm = warm.unwrap();
    assert_eq!(warm.x_hat.len(), n);
    assert_ne!(warm.x_hat, cold.x_hat, "each run draws fresh noise");
    assert!(
        bytes <= BOUND_BYTES && allocations <= BOUND_ALLOCATIONS,
        "{bytes} bytes in {allocations} allocations in a warm MWEM request (bounds \
         {BOUND_BYTES} bytes, {BOUND_ALLOCATIONS} allocations)"
    );
}
