//! Counting-allocator gate on the Table 5 error check
//! (`scaled_per_query_l2_error`) over the census `Prefix(Income)`
//! workload on the 357×5×7×4×2 domain (257,040 queries over 99,960
//! cells): the check is streamed, so it never allocates a buffer as
//! large as the workload's answers, `rows(W) · 8` bytes, nor one as
//! large as a domain vector, `cols(W) · 8` bytes. With a `Prefix` first
//! factor it builds each block of `(Prefix ⊗ I) (x − x̂)` from `x` and
//! `x̂` in one running-sum buffer of `cols(R)` values, so its largest
//! allocations are sized by the rest `R = [Total; I] ⊗ …` (280 columns,
//! 720 rows). Forming `x − x̂`, the mode-0 panel or `W (x − x̂)` whole
//! fails the gate.
//!
//! The allocator records the largest allocation of the test thread
//! only, so other threads of the process cannot disturb the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ektelo_core::ops::inference::scaled_per_query_l2_error;
use ektelo_data::workloads::census_prefix_income;

const SIZES: [usize; 5] = [357, 5, 7, 4, 2];

struct CountingAllocator;

thread_local! {
    // A const-initialised `Cell` needs no lazy set-up and no destructor,
    // so touching it never allocates from inside the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: pure pass-through to `System` plus a thread-local maximum —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the record has no effect on
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

/// Runs `f` on this thread and returns its result with the largest
/// allocation this thread made meanwhile.
fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

#[test]
fn census_prefix_income_check_allocates_no_answer_sized_buffer() {
    let w = census_prefix_income(&SIZES);
    let n = w.cols();
    let answer_bytes = w.rows() * std::mem::size_of::<f64>();
    let domain_bytes = n * std::mem::size_of::<f64>();
    let x: Vec<f64> = (0..n).map(|i| (i % 11) as f64).collect();
    let x_hat: Vec<f64> = x
        .iter()
        .enumerate()
        .map(|(i, v)| v + (i % 5) as f64 - 2.0)
        .collect();

    // Cold (the first call plans the shapes) and warm.
    for pass in ["cold", "warm"] {
        let (err, largest) = largest_during(|| scaled_per_query_l2_error(&w, &x, &x_hat, 1e4));
        assert!(err.is_finite() && err > 0.0);
        assert!(
            largest < domain_bytes,
            "{pass} check allocated {largest} bytes at once; a domain vector takes \
             {domain_bytes} and the answers {answer_bytes}"
        );
    }

    // The gate sees a domain-sized buffer, and an answer-sized one, when
    // one is made.
    let (_, largest) =
        largest_during(|| x.iter().zip(&x_hat).map(|(t, e)| t - e).collect::<Vec<_>>());
    assert!(largest >= domain_bytes);
    let (_, largest) = largest_during(|| w.matvec(&x));
    assert!(largest >= answer_bytes);
}
