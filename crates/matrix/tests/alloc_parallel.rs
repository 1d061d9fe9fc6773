//! Counting-allocator proof that the **threaded** evaluation paths are
//! allocation-free in steady state — now literally so (ISSUE 5 tentpole:
//! the persistent pool executor).
//!
//! Before the per-worker arena pool (ISSUE 3), every parallel region
//! allocated `O(n)` buffers per call: per-worker scratch vectors,
//! full-width scatter accumulators, Kronecker stage-2 output panels. The
//! arena pool moved all of those into the `Workspace`, but the
//! `std::thread::scope` spawn harness still allocated its per-thread
//! bookkeeping (closure box, join packet) on every region — which is why
//! this suite used to count only page-sized (≥ 4096 B) allocations.
//!
//! The pool executor (`ektelo_matrix::pool`) removes that remainder:
//! parked workers, preallocated job slots, closures copied by value into
//! the slot, merges on the caller. So the bar is now **zero allocations
//! of any size** in a warm threaded region: the counter below tracks
//! every `alloc`/`realloc` from every thread, and the warm windows must
//! not move it at all.
//!
//! Threading is always compiled, and the sizes below engage every
//! threaded region whenever `configured_parallelism() >= 2`. The suite
//! cannot pass vacuously there: each warm window must also move
//! `pool::stats().completed`, so a threaded path that silently stopped
//! dispatching fails it. At `EKTELO_POOL_WORKERS=1` (serial geometry) the
//! same windows gate the serial engine instead; CI runs the suite at the
//! default pool size and under `EKTELO_POOL_WORKERS=1` and `=4`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ektelo_matrix::{kernels, plan_builds, pool, Matrix, Workspace};

struct CountingAllocator;

/// Every allocation and growing reallocation, from any thread.
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

/// The counter is process-global but the harness runs tests on concurrent
/// threads; hold this gate so counting windows never overlap.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Minimum count of `f` over a few repetitions (sibling-thread noise is
/// additive; a genuine steady-state allocation shows up in every rep).
/// When the configured geometry is threaded, the windows must also have
/// run pool jobs: otherwise this gate would be measuring a serial path.
fn count_allocations<F: FnMut()>(mut f: F) -> u64 {
    let jobs_before = pool::stats().completed;
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        best = best.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    if pool::configured_parallelism() >= 2 {
        assert!(
            pool::stats().completed > jobs_before,
            "threaded geometry configured, but the warm windows ran no pool jobs"
        );
    }
    best
}

/// Striped union sized past the parallel thresholds in both directions:
/// forward needs `2·rows + cols ≥ 2^14`, scatter needs `rows ≥ 2^14` and
/// `rows ≥ cols`.
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
fn threaded_union_both_directions_zero_allocations_when_warm() {
    let _serial = serialized();
    let u = striped_union();
    let mut ws = Workspace::for_matrix(&u);
    let x: Vec<f64> = (0..u.cols()).map(|i| (i % 13) as f64 - 6.0).collect();
    let y: Vec<f64> = (0..u.rows()).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut out = vec![0.0; u.rows()];
    let mut back = vec![0.0; u.cols()];
    // Warm both directions: plans resolved, arena and arena pool at full
    // size, pool executor threads spawned and parked.
    u.matvec_into(&x, &mut out, &mut ws);
    u.rmatvec_into(&y, &mut back, &mut ws);
    let builds = plan_builds();
    let allocations = count_allocations(|| {
        for _ in 0..10 {
            u.matvec_into(&x, &mut out, &mut ws);
            u.rmatvec_into(&y, &mut back, &mut ws);
        }
    });
    assert_eq!(
        allocations, 0,
        "warm threaded union evaluation must perform zero allocations \
         (worker buffers and spawn-harness bookkeeping alike)"
    );
    assert_eq!(plan_builds(), builds, "steady state must not re-plan");
    // Correctness untouched by the pooled buffers and pooled dispatch.
    assert_eq!(out, u.matvec(&x));
    assert_eq!(back, u.rmatvec(&y));
}

/// Code-review regression: a Kronecker whose factor is itself a
/// parallel-eligible union (the `hdmm_kron`/`stripe_select` shape). The
/// outer region's chunk workers must evaluate the inner union *serially*
/// (nested parallelism is suppressed at the worker boundary) — without
/// that, every row application inside every worker would allocate fresh
/// worker arenas and re-enter the executor per row.
#[test]
fn kron_of_parallel_union_stays_allocation_free() {
    let _serial = serialized();
    let w = 1usize << 12;
    let inner = Matrix::vstack((0..4).map(|_| Matrix::wavelet(w)).collect());
    let k = Matrix::kron(Matrix::prefix(4), inner.clone());
    let mut ws = Workspace::for_matrix(&k);
    let x: Vec<f64> = (0..k.cols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
    let mut out = vec![0.0; k.rows()];
    k.matvec_into(&x, &mut out, &mut ws);
    let allocations = count_allocations(|| {
        for _ in 0..5 {
            k.matvec_into(&x, &mut out, &mut ws);
        }
    });
    assert_eq!(
        allocations, 0,
        "nested parallel regions must not allocate per call"
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
                "nested-suppressed kron diverged at ({p},{q})"
            );
        }
    }
}

#[test]
fn threaded_kron_zero_allocations_when_warm() {
    let _serial = serialized();
    // 128×128 factors clear the row-chunk and column-chunk thresholds.
    let k = Matrix::kron(Matrix::prefix(128), Matrix::wavelet(128));
    let mut ws = Workspace::for_matrix(&k);
    let x: Vec<f64> = (0..k.cols()).map(|i| ((i * 31) % 17) as f64).collect();
    let y: Vec<f64> = (0..k.rows()).map(|i| ((i * 7) % 23) as f64).collect();
    let mut out = vec![0.0; k.rows()];
    let mut back = vec![0.0; k.cols()];
    k.matvec_into(&x, &mut out, &mut ws);
    k.rmatvec_into(&y, &mut back, &mut ws);
    let allocations = count_allocations(|| {
        for _ in 0..5 {
            k.matvec_into(&x, &mut out, &mut ws);
            k.rmatvec_into(&y, &mut back, &mut ws);
        }
    });
    assert_eq!(
        allocations, 0,
        "warm threaded Kronecker evaluation must perform zero allocations"
    );
    assert_eq!(out, k.matvec(&x));
    assert_eq!(back, k.rmatvec(&y));
}

/// Pool-size sweep at the matrix level: the same warm threaded system
/// evaluated with 1, 2 and all pool workers must produce bit-identical
/// vectors in both directions (chunk geometry is plan-time; the pool only
/// places the fixed chunks), and stay allocation-free at every size.
#[test]
fn pooled_evaluation_bit_identical_across_pool_sizes() {
    let _serial = serialized();
    let u = striped_union();
    let mut ws = Workspace::for_matrix(&u);
    let x: Vec<f64> = (0..u.cols())
        .map(|i| ((i * 11) % 19) as f64 - 9.0)
        .collect();
    let y: Vec<f64> = (0..u.rows()).map(|i| ((i * 5) % 13) as f64 - 6.0).collect();
    let mut out = vec![0.0; u.rows()];
    let mut back = vec![0.0; u.cols()];
    u.matvec_into(&x, &mut out, &mut ws);
    u.rmatvec_into(&y, &mut back, &mut ws);
    let (ref_out, ref_back) = (out.clone(), back.clone());
    let full = pool::stats().spawned;
    let prev = pool::workers();
    for size in [1usize, 2, full] {
        pool::set_workers(size);
        let allocations = count_allocations(|| {
            u.matvec_into(&x, &mut out, &mut ws);
            u.rmatvec_into(&y, &mut back, &mut ws);
        });
        assert_eq!(out, ref_out, "pool size {size} changed the matvec");
        assert_eq!(back, ref_back, "pool size {size} changed the scatter");
        assert_eq!(allocations, 0, "pool size {size} allocated when warm");
    }
    pool::set_workers(prev);
}

/// The 5-factor census `Prefix(Income)` workload (`Prefix(357) ⊗ [T;I](5)
/// ⊗ [T;I](7) ⊗ [T;I](4) ⊗ [T;I](2)`): its flattened mode-by-mode
/// evaluation, with every mode above the threading threshold, makes zero
/// allocations when warm in both directions at pool sizes 1 and 4, and
/// the pool size changes no bit.
#[test]
fn census_kron_zero_allocations_at_pool_sizes_1_and_4() {
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
    let prev = pool::workers();
    for size in [1usize, 4] {
        pool::set_workers(size);
        let allocations = count_allocations(|| {
            k.matvec_into(&x, &mut out, &mut ws);
            k.rmatvec_into(&y, &mut back, &mut ws);
        });
        assert_eq!(
            allocations, 0,
            "pool size {size}: warm census evaluation allocated"
        );
        assert_eq!(out, ref_out, "pool size {size} changed the census matvec");
        assert_eq!(
            back, ref_back,
            "pool size {size} changed the census rmatvec"
        );
    }
    pool::set_workers(prev);
    assert_eq!(plan_builds(), builds, "steady state must not re-plan");
}

/// `par_dot` (a `WARM:` root, called by CGLS every iteration) on a vector
/// long enough to take its pooled branch makes zero allocations when warm
/// at pool sizes 1 and 4, and the pool size changes no bit.
#[test]
fn par_dot_pooled_zero_allocations_at_pool_sizes_1_and_4() {
    let _serial = serialized();
    let n = (1usize << 16) + 7;
    let a: Vec<f64> = (0..n)
        .map(|i| ((i * 37) % 19) as f64 * 0.31 - 2.7)
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 53) % 23) as f64 * 0.17 - 1.9)
        .collect();
    let reference = kernels::par_dot(&a, &b);
    let prev = pool::workers();
    for size in [1usize, 4] {
        pool::set_workers(size);
        let mut got = 0.0;
        let allocations = count_allocations(|| {
            for _ in 0..10 {
                got = kernels::par_dot(&a, &b);
            }
        });
        assert_eq!(allocations, 0, "pool size {size}: warm par_dot allocated");
        assert_eq!(
            got.to_bits(),
            reference.to_bits(),
            "pool size {size} changed par_dot"
        );
    }
    pool::set_workers(prev);
}
