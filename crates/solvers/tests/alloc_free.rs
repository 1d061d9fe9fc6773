//! Empirical proof of the allocation-free solver contract (ISSUE 1
//! acceptance, extended by ISSUE 2): running a solver for more iterations
//! must not perform a single additional heap allocation — every
//! per-iteration buffer comes from the one-time setup (solution/direction
//! vectors plus one [`ektelo_matrix::Workspace`] arena) — **and** must not
//! re-run the planning pass over the combinator tree: plans live in the
//! process-wide cache (ISSUE 3), so after the warm-up solve every later
//! solve — fresh workspace and all — runs zero planning passes.
//!
//! Verified with a counting global allocator plus the engine's
//! planning-pass counter: both are sampled around a short solve and a long
//! solve on the same system; the differences must be exactly zero.
//!
//! Allocations are counted **per thread**, on the test thread only, so the
//! harness's own threads (spawning the next test, printing results) can
//! never land inside a counting window. That count is complete because
//! evaluation is single-threaded: a solve never leaves the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ektelo_matrix::{partition_from_labels, plan_builds, CsrMatrix, Matrix};
use ektelo_solvers::{lsqr, mult_weights, nnls, LsqrOptions, MwOptions, NnlsOptions};

struct CountingAllocator;

std::thread_local! {
    /// Allocations and reallocations made by the current thread. A const
    /// initializer and no destructor: touching it from inside the
    /// allocator never allocates or registers anything.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread past its TLS teardown may still allocate.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

// SAFETY: pure pass-through to `System` plus a thread-local counter —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counter has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
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
        note_allocation();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A combinator-tree strategy exercising Product, Union, Scaled and the
/// implicit leaves — every scratch-hungry evaluation path.
fn strategy(n: usize) -> Matrix {
    Matrix::vstack(vec![
        Matrix::identity(n),
        Matrix::product(Matrix::prefix(n), Matrix::wavelet(n)),
        Matrix::scaled(0.5, Matrix::suffix(n)),
        Matrix::range_queries(n, (0..n / 2).map(|i| (2 * i, 2 * i + 2)).collect()),
    ])
}

/// Noisy, inconsistent right-hand side so iterative solvers never converge
/// exactly (which would truncate the iteration count).
fn rhs(rows: usize) -> Vec<f64> {
    (0..rows)
        .map(|i| ((i * 7919) % 101) as f64 - 50.0)
        .collect()
}

/// The planning counter is process-global, and the harness runs `#[test]` fns on concurrent threads. Every
/// counting test holds this gate for its whole body so those windows
/// never overlap.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` once and returns the `(allocations, planning passes)` it
/// made. The allocation count is the test thread's own, so it is exact.
fn count_both<F: FnOnce()>(f: F) -> (u64, u64) {
    let allocs_before = thread_allocations();
    let plans_before = plan_builds();
    f();
    (
        thread_allocations() - allocs_before,
        plan_builds() - plans_before,
    )
}

#[test]
fn lsqr_inner_loop_is_allocation_free() {
    let _serial = serialized();
    let a = strategy(128);
    let b = rhs(a.rows());
    // Warm up once so lazily initialized runtime structures don't count.
    let _ = lsqr(
        &a,
        &b,
        &LsqrOptions {
            max_iters: 2,
            atol: 0.0,
        },
    );
    let (short, short_plans) = count_both(|| {
        lsqr(
            &a,
            &b,
            &LsqrOptions {
                max_iters: 5,
                atol: 0.0,
            },
        );
    });
    let (long, long_plans) = count_both(|| {
        lsqr(
            &a,
            &b,
            &LsqrOptions {
                max_iters: 50,
                atol: 0.0,
            },
        );
    });
    assert_eq!(short, long, "lsqr allocates per iteration");
    assert!(long > 0, "setup should allocate the workspace once");
    // 45 extra iterations, zero extra planning passes — and since ISSUE 3
    // plans live in a process-wide cache, the warm-up solve already built
    // the system's plans, so later solves run *zero* planning passes (the
    // PR 2 engine rebuilt them once per solve in each fresh workspace).
    assert_eq!(
        short_plans, long_plans,
        "lsqr re-plans per iteration (expected zero planning passes per warm solve)"
    );
    assert_eq!(
        long_plans, 0,
        "warm solves must share the process-wide plans, not rebuild them"
    );
}

/// A block-separable system in the striped plans' lineage shape: 16
/// stripes of 16 interleaved cells, each measured as
/// `Scaled(w, Product(Union(Scaled Range…), Product(P, Sel)))` with its
/// own pair-merging partition `P`. With `hierarchical` the nested ranges
/// make every stripe an interval hierarchy, which `lsqr` solves exactly;
/// without it they cross, and every stripe runs the LSQR loop.
fn striped_system(hierarchical: bool) -> Matrix {
    let (stripes, k) = (16, 16);
    let n = stripes * k;
    Matrix::vstack(
        (0..stripes)
            .map(|s| {
                let cells: Vec<usize> = (0..k).map(|i| s + i * stripes).collect();
                let labels: Vec<usize> = (0..k).map(|i| i / 2).collect();
                let lineage = Matrix::product(
                    partition_from_labels(k / 2, &labels),
                    Matrix::select_rows(n, &cells),
                );
                let first = if hierarchical {
                    (0, k / 2)
                } else {
                    (0, k / 2 - 1)
                };
                let strategy = Matrix::vstack(vec![
                    Matrix::range_queries(k / 2, (0..k / 2).map(|i| (i, i + 1)).collect()),
                    Matrix::scaled(
                        0.5,
                        Matrix::range_queries(k / 2, vec![first, (1 + s % 4, k / 2)]),
                    ),
                ]);
                Matrix::scaled(1.0 + s as f64, Matrix::product(strategy, lineage))
            })
            .collect(),
    )
}

/// True when a component of `a` takes the exact tree pass.
fn exact(c: &Matrix) -> bool {
    c.tree_shape().and_then(|s| s.tree()).is_some()
}

/// The split solve's setup — component extraction, per-component
/// right-hand sides, buffers and the shared workspace — is fixed per
/// solve; the per-component LSQR loops allocate nothing more.
#[test]
fn lsqr_separable_inner_loop_is_allocation_free() {
    let _serial = serialized();
    let a = striped_system(false);
    let parts = a.column_components().unwrap();
    assert_eq!(parts.len(), 16);
    assert!(
        parts.iter().all(|c| !exact(&c.matrix)),
        "every stripe must run LSQR"
    );
    let b = rhs(a.rows());
    let opts = |max_iters| LsqrOptions {
        max_iters,
        atol: 0.0,
    };
    // Warm up once so the component shapes are planned.
    let _ = lsqr(&a, &b, &opts(2));
    let (short, short_plans) = count_both(|| {
        lsqr(&a, &b, &opts(5));
    });
    let (long, long_plans) = count_both(|| {
        lsqr(&a, &b, &opts(50));
    });
    assert_eq!(short, long, "separable lsqr allocates per iteration");
    assert!(long > 0, "setup should allocate the components once");
    assert_eq!(short_plans, 0, "warm separable solves must not re-plan");
    assert_eq!(long_plans, 0, "warm separable solves must not re-plan");
}

/// Hierarchy stripes skip the loop: their solve allocates the same
/// whatever `max_iters` is, and plans nothing.
#[test]
fn lsqr_exact_components_allocate_independently_of_max_iters() {
    let _serial = serialized();
    let a = striped_system(true);
    let parts = a.column_components().unwrap();
    assert!(
        parts.iter().all(|c| exact(&c.matrix)),
        "every stripe is exact"
    );
    let b = rhs(a.rows());
    let opts = |max_iters| LsqrOptions {
        max_iters,
        atol: 0.0,
    };
    assert_eq!(lsqr(&a, &b, &opts(2)).iterations, 0);
    let (short, short_plans) = count_both(|| {
        lsqr(&a, &b, &opts(5));
    });
    let (long, long_plans) = count_both(|| {
        lsqr(&a, &b, &opts(5000));
    });
    assert_eq!(short, long, "exact components allocate per iteration cap");
    assert_eq!((short_plans, long_plans), (0, 0), "exact components plan");
}

#[test]
fn nnls_inner_loop_is_allocation_free() {
    let _serial = serialized();
    let a = strategy(64);
    let b = rhs(a.rows());
    let _ = nnls(
        &a,
        &b,
        &NnlsOptions {
            max_iters: 2,
            tol: 0.0,
        },
    );
    let (short, short_plans) = count_both(|| {
        nnls(
            &a,
            &b,
            &NnlsOptions {
                max_iters: 5,
                tol: 0.0,
            },
        );
    });
    let (long, long_plans) = count_both(|| {
        nnls(
            &a,
            &b,
            &NnlsOptions {
                max_iters: 50,
                tol: 0.0,
            },
        );
    });
    assert_eq!(short, long, "nnls allocates per iteration");
    assert_eq!(short_plans, long_plans, "nnls re-plans per iteration");
}

#[test]
fn mult_weights_inner_loop_is_allocation_free() {
    let _serial = serialized();
    let m = strategy(64);
    let y = rhs(m.rows());
    let x0 = vec![1.0; 64];
    let _ = mult_weights(
        &m,
        &y,
        &x0,
        &MwOptions {
            iterations: 2,
            total: 64.0,
        },
    );
    let (short, short_plans) = count_both(|| {
        mult_weights(
            &m,
            &y,
            &x0,
            &MwOptions {
                iterations: 5,
                total: 64.0,
            },
        );
    });
    let (long, long_plans) = count_both(|| {
        mult_weights(
            &m,
            &y,
            &x0,
            &MwOptions {
                iterations: 50,
                total: 64.0,
            },
        );
    });
    assert_eq!(short, long, "mult_weights allocates per iteration");
    assert_eq!(
        short_plans, long_plans,
        "mult_weights re-plans per iteration"
    );
}

/// MWEM's measurement history: one one-row sparse block per round, each
/// an interval of ones, so the columns fall into a few classes.
fn mwem_union(n: usize, rounds: usize) -> Matrix {
    Matrix::vstack(
        (0..rounds)
            .map(|r| {
                let lo = (r * 37) % (n / 2);
                let hi = lo + n / 4 + (r * 11) % (n / 4);
                let row: Vec<(usize, usize, f64)> = (lo..hi).map(|c| (0, c, 1.0)).collect();
                Matrix::sparse(CsrMatrix::from_triplets(1, n, &row))
            })
            .collect(),
    )
}

#[test]
fn mult_weights_reduced_inner_loop_is_allocation_free() {
    let _serial = serialized();
    let m = mwem_union(256, 8);
    assert!(
        m.column_classes().is_some(),
        "the union must take the column-class path"
    );
    let y = rhs(m.rows());
    let x0 = vec![1.0; 256];
    let run = |iterations| {
        mult_weights(
            &m,
            &y,
            &x0,
            &MwOptions {
                iterations,
                total: 256.0,
            },
        );
    };
    run(2);
    let (short, short_plans) = count_both(|| run(5));
    let (long, long_plans) = count_both(|| run(50));
    assert_eq!(short, long, "reduced mult_weights allocates per iteration");
    assert_eq!(
        short_plans, long_plans,
        "reduced mult_weights re-plans per iteration"
    );
}

#[test]
fn matvec_into_with_warm_workspace_is_allocation_free() {
    let _serial = serialized();
    let m = strategy(256);
    let x: Vec<f64> = (0..256).map(|i| i as f64).collect();
    let mut out = vec![0.0; m.rows()];
    let mut back = vec![0.0; m.cols()];
    let mut ws = ektelo_matrix::Workspace::for_matrix(&m);
    m.matvec_into(&x, &mut out, &mut ws); // warm
    let (allocs, plans) = count_both(|| {
        for _ in 0..100 {
            m.matvec_into(&x, &mut out, &mut ws);
            m.rmatvec_into(&out, &mut back, &mut ws);
        }
    });
    assert_eq!(allocs, 0, "warm matvec_into/rmatvec_into must not allocate");
    assert_eq!(plans, 0, "warm matvec_into/rmatvec_into must not re-plan");
}
