//! Regression test for the up-front arena reservation (ISSUE 2 satellite):
//! a single [`Workspace`] reused across *differently-shaped* matrices and
//! all three product directions must stop allocating — and stop walking
//! the tree for planning — once each (matrix, direction) pair has been
//! seen once. The old engine grew the arena lazily inside `Workspace::
//! slice`, so alternating between a small and a large matrix reallocated
//! mid-solve and silently broke the allocation-free guarantee.
//!
//! Verified with a counting global allocator plus the engine's
//! planning-pass counter: over the steady-state loop both deltas must be
//! exactly zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ektelo_matrix::{plan_builds, Matrix, Workspace};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed atomic counter —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counter has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The counters are process-global but the harness runs tests on
/// concurrent threads; hold this gate so counting windows never overlap.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Minimum allocation count of `f` over a few repetitions: harness
/// bookkeeping on other threads can add counts mid-window (the gate only
/// serializes test bodies), but that noise is strictly additive, so the
/// minimum is the true count — and a genuine steady-state allocation
/// shows up in every repetition.
fn count<F: FnMut()>(mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        best = best.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    best
}

/// Sizes stay far below the parallel work threshold on purpose: this test
/// gates the serial paths' allocation-free guarantee at every pool size
/// (`alloc_parallel.rs` gates the threaded ones).
fn big() -> Matrix {
    let n = 96;
    Matrix::vstack(vec![
        Matrix::product(Matrix::prefix(n), Matrix::wavelet(n)),
        Matrix::scaled(0.5, Matrix::suffix(n)),
        Matrix::kron(Matrix::total(8), Matrix::prefix(n / 8)),
    ])
}

fn small() -> Matrix {
    let n = 48;
    Matrix::product(
        Matrix::suffix(n),
        Matrix::product(Matrix::wavelet(n), Matrix::prefix(n)),
    )
}

#[test]
fn workspace_reuse_across_two_matrices_is_allocation_and_planning_free() {
    let _serial = serialized();
    let a = big();
    let b = small();
    let mut ws = Workspace::new();

    let xa: Vec<f64> = (0..a.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
    let xb: Vec<f64> = (0..b.cols()).map(|i| (i % 5) as f64 - 2.0).collect();
    let mut out_a = vec![0.0; a.rows()];
    let mut out_b = vec![0.0; b.rows()];
    let mut back_a = vec![0.0; a.cols()];
    let mut back_b = vec![0.0; b.cols()];

    // Warm every (matrix, direction) pair once: plans are built, the arena
    // reaches the maximum requirement across both matrices.
    a.matvec_into(&xa, &mut out_a, &mut ws);
    a.rmatvec_into(&out_a, &mut back_a, &mut ws);
    a.rmatvec_add(&out_a, &mut back_a, &mut ws);
    b.matvec_into(&xb, &mut out_b, &mut ws);
    b.rmatvec_into(&out_b, &mut back_b, &mut ws);
    b.rmatvec_add(&out_b, &mut back_b, &mut ws);
    let builds_after_warm = plan_builds();
    let cap_after_warm = ws.capacity();

    // Steady state: interleave matrices and directions.
    let allocs = count(|| {
        for _ in 0..50 {
            a.matvec_into(&xa, &mut out_a, &mut ws);
            b.matvec_into(&xb, &mut out_b, &mut ws);
            a.rmatvec_into(&out_a, &mut back_a, &mut ws);
            b.rmatvec_into(&out_b, &mut back_b, &mut ws);
            a.rmatvec_add(&out_a, &mut back_a, &mut ws);
            b.rmatvec_add(&out_b, &mut back_b, &mut ws);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state reuse across two matrices must not allocate"
    );
    assert_eq!(
        plan_builds(),
        builds_after_warm,
        "steady-state reuse must not re-run the planning pass"
    );
    assert_eq!(
        ws.capacity(),
        cap_after_warm,
        "arena must be fully reserved up front, not grown mid-solve"
    );
    assert!(ws.plan_cache_builds() <= 2, "one plan per matrix");

    // The results stay correct (not just fast): cross-check via wrappers.
    assert_eq!(out_a, a.matvec(&xa));
    assert_eq!(out_b, b.matvec(&xb));
}

#[test]
fn warm_workspace_survives_matrix_clone_without_replanning() {
    let _serial = serialized();
    let a = big();
    let mut ws = Workspace::for_matrix(&a);
    let x: Vec<f64> = (0..a.cols()).map(|i| i as f64 * 0.1).collect();
    let mut out = vec![0.0; a.rows()];
    a.matvec_into(&x, &mut out, &mut ws);
    let builds = plan_builds();
    // A clone is structurally identical, so it shares the cached plan
    // through the shape fingerprint instead of rebuilding.
    let a2 = a.clone();
    let mut out2 = vec![0.0; a2.rows()];
    a2.matvec_into(&x, &mut out2, &mut ws);
    assert_eq!(plan_builds(), builds, "clone must not trigger a replan");
    assert_eq!(out, out2);
}
