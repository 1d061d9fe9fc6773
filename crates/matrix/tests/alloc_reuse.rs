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
//! exactly zero. The same gate covers the large shapes: a striped union in
//! both directions, a Kronecker with a large-union factor, a 128×128
//! Kronecker and the 5-factor census Kronecker.

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

/// A striped union of four large blocks.
fn striped_union() -> Matrix {
    let n = 1usize << 12;
    Matrix::vstack(vec![
        Matrix::wavelet(n),
        Matrix::prefix(n),
        Matrix::scaled(0.5, Matrix::suffix(n)),
        Matrix::product(Matrix::prefix(n), Matrix::wavelet(n)),
    ])
}

#[test]
fn large_union_both_directions_zero_allocations_when_warm() {
    let _serial = serialized();
    let u = striped_union();
    let mut ws = Workspace::for_matrix(&u);
    let x: Vec<f64> = (0..u.cols()).map(|i| (i % 13) as f64 - 6.0).collect();
    let y: Vec<f64> = (0..u.rows()).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut out = vec![0.0; u.rows()];
    let mut back = vec![0.0; u.cols()];
    // Warm both directions: plans resolved, arena at full size.
    u.matvec_into(&x, &mut out, &mut ws);
    u.rmatvec_into(&y, &mut back, &mut ws);
    let builds = plan_builds();
    let allocations = count(|| {
        for _ in 0..10 {
            u.matvec_into(&x, &mut out, &mut ws);
            u.rmatvec_into(&y, &mut back, &mut ws);
        }
    });
    assert_eq!(
        allocations, 0,
        "warm large-union evaluation must perform zero allocations"
    );
    assert_eq!(plan_builds(), builds, "steady state must not re-plan");
    assert_eq!(out, u.matvec(&x));
    assert_eq!(back, u.rmatvec(&y));
}

/// A Kronecker whose factor is itself a large union (the
/// `hdmm_kron`/`stripe_select` shape): every row application of the
/// factor runs inside the mode walk and must reuse the arena.
#[test]
fn kron_of_large_union_stays_allocation_free() {
    let _serial = serialized();
    let w = 1usize << 12;
    let inner = Matrix::vstack((0..4).map(|_| Matrix::wavelet(w)).collect());
    let k = Matrix::kron(Matrix::prefix(4), inner.clone());
    let mut ws = Workspace::for_matrix(&k);
    let x: Vec<f64> = (0..k.cols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
    let mut out = vec![0.0; k.rows()];
    k.matvec_into(&x, &mut out, &mut ws);
    let allocations = count(|| {
        for _ in 0..5 {
            k.matvec_into(&x, &mut out, &mut ws);
        }
    });
    assert_eq!(
        allocations, 0,
        "a Kronecker of a large union must not allocate per call"
    );
    // Independent reference: t_i = inner · x_i per reshaped input row,
    // then prefix over the rows (A = prefix(4)).
    let (mb, nb) = inner.shape();
    let mut t = vec![vec![0.0; mb]; 4];
    for (i, ti) in t.iter_mut().enumerate() {
        *ti = inner.matvec(&x[i * nb..(i + 1) * nb]);
    }
    for p in 0..4 {
        for q in 0..mb {
            let expect: f64 = (0..=p).map(|i| t[i][q]).sum();
            assert!(
                (out[p * mb + q] - expect).abs() < 1e-9,
                "kron of a large union diverged at ({p},{q})"
            );
        }
    }
}

#[test]
fn kron_zero_allocations_when_warm() {
    let _serial = serialized();
    // The prefix mode runs its panel kernel, the wavelet mode the fiber walk.
    let k = Matrix::kron(Matrix::prefix(128), Matrix::wavelet(128));
    let mut ws = Workspace::for_matrix(&k);
    let x: Vec<f64> = (0..k.cols()).map(|i| ((i * 31) % 17) as f64).collect();
    let y: Vec<f64> = (0..k.rows()).map(|i| ((i * 7) % 23) as f64).collect();
    let mut out = vec![0.0; k.rows()];
    let mut back = vec![0.0; k.cols()];
    k.matvec_into(&x, &mut out, &mut ws);
    k.rmatvec_into(&y, &mut back, &mut ws);
    let allocations = count(|| {
        for _ in 0..5 {
            k.matvec_into(&x, &mut out, &mut ws);
            k.rmatvec_into(&y, &mut back, &mut ws);
        }
    });
    assert_eq!(
        allocations, 0,
        "warm Kronecker evaluation must perform zero allocations"
    );
    assert_eq!(out, k.matvec(&x));
    assert_eq!(back, k.rmatvec(&y));
}

/// The 5-factor census `Prefix(Income)` workload (`Prefix(357) ⊗ [T;I](5)
/// ⊗ [T;I](7) ⊗ [T;I](4) ⊗ [T;I](2)`): its flattened mode-by-mode
/// evaluation makes zero allocations when warm in both directions, and a
/// warm re-run changes no bit.
#[test]
fn census_kron_zero_allocations_when_warm() {
    let _serial = serialized();
    let tot_id = |n| Matrix::vstack(vec![Matrix::total(n), Matrix::identity(n)]);
    let k = Matrix::kron_list(vec![
        Matrix::prefix(357),
        tot_id(5),
        tot_id(7),
        tot_id(4),
        tot_id(2),
    ]);
    let mut ws = Workspace::for_matrix(&k);
    let x: Vec<f64> = (0..k.cols())
        .map(|i| ((i * 29) % 31) as f64 - 15.0)
        .collect();
    let y: Vec<f64> = (0..k.rows())
        .map(|i| ((i * 17) % 19) as f64 - 9.0)
        .collect();
    let mut out = vec![0.0; k.rows()];
    let mut back = vec![0.0; k.cols()];
    k.matvec_into(&x, &mut out, &mut ws);
    k.rmatvec_into(&y, &mut back, &mut ws);
    let (ref_out, ref_back) = (out.clone(), back.clone());
    let builds = plan_builds();
    let allocations = count(|| {
        k.matvec_into(&x, &mut out, &mut ws);
        k.rmatvec_into(&y, &mut back, &mut ws);
    });
    assert_eq!(allocations, 0, "warm census evaluation allocated");
    assert_eq!(out, ref_out, "a warm re-run changed the census matvec");
    assert_eq!(back, ref_back, "a warm re-run changed the census rmatvec");
    assert_eq!(plan_builds(), builds, "steady state must not re-plan");
}
