//! Bit-identity of full plans across pool-executor sizes (ISSUE 5
//! acceptance): the striped and MWEM plans, run end to end on equally
//! seeded kernels, must produce **bit-identical** estimates whether the
//! persistent pool executes their threaded regions with 1 worker, 2
//! workers, or every worker it has — including fully inline (0).
//!
//! Why this must hold: chunk geometry is fixed by the process-constant
//! configured parallelism (never by the live worker count), privacy
//! randomness is always drawn sequentially in request order under the
//! kernel lock, DAWA's stage-1 stripes use counter-based substreams, and
//! every threaded merge is fixed-order — so the pool only decides *where*
//! each fixed chunk executes, never what it computes. A regression in any
//! of those invariants shows up here as a diverging bit.
//!
//! Threading is always compiled; CI runs this suite with the default
//! worker count and under `EKTELO_POOL_WORKERS=1` / `=4`, so the sweep
//! below exercises real multi-worker dispatch wherever the machine (or
//! the env override) provides it. The forced-steal sweep (ISSUE 10)
//! additionally pins the work-stealing thief path: with the hook on,
//! every dispatch queues and every execution is a steal, and the same
//! bit-identity bar applies.

use ektelo_matrix::pool;
use ektelo_plans::mwem::{plan_mwem, plan_mwem_variant_b, MwemOptions};
use ektelo_plans::striped::{plan_dawa_striped, plan_hb_striped};
use ektelo_plans::util::kernel_for_histogram;

/// Runs the full plan family on freshly seeded kernels and returns every
/// estimate, concatenated. Bit-equality of this vector across pool sizes
/// is the acceptance bar — no tolerance.
fn run_plan_family() -> Vec<f64> {
    let sizes = [64usize, 3, 2];
    let n: usize = sizes.iter().product();
    let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 + 1.0).collect();
    let eps = 0.8;
    let mut all = Vec::new();

    let (k, root) = kernel_for_histogram(&x, eps, 41);
    all.extend(plan_hb_striped(&k, root, &sizes, 0, eps).unwrap().x_hat);

    let (k, root) = kernel_for_histogram(&x, eps, 42);
    all.extend(
        plan_dawa_striped(&k, root, &sizes, 0, &[(0, 32)], eps, 0.25)
            .unwrap()
            .x_hat,
    );

    let w = ektelo_matrix::Matrix::prefix(n);
    let opts = MwemOptions {
        rounds: 4,
        total: x.iter().sum(),
        mw_iterations: 15,
    };
    let (k, root) = kernel_for_histogram(&x, eps, 43);
    all.extend(plan_mwem(&k, root, &w, eps, &opts).unwrap().x_hat);

    let (k, root) = kernel_for_histogram(&x, eps, 44);
    all.extend(plan_mwem_variant_b(&k, root, &w, eps, &opts).unwrap().x_hat);

    all
}

#[test]
fn striped_and_mwem_plans_bit_identical_across_pool_sizes() {
    let full = pool::stats().spawned;
    let prev = pool::workers();
    let reference = run_plan_family();
    assert!(
        reference.iter().all(|v| v.is_finite()),
        "plans must produce finite estimates"
    );
    for size in [0usize, 1, 2, full] {
        pool::set_workers(size);
        let got = run_plan_family();
        assert!(
            got == reference,
            "pool size {size} changed a plan output bit"
        );
    }
    pool::set_workers(prev);
}

/// ISSUE 10: the forced-steal hook routes **every** dispatch through the
/// per-worker deques (no inline fast path, no slot handoff) and makes each
/// worker — worker 0 included — steal from siblings before taking its own
/// queue, so every packet executes via the thief path. Because the
/// scheduler only decides *where* fixed chunks run, the full plan family
/// must stay bit-identical to the normal-dispatch reference at pool sizes
/// 1, 2 and 4.
#[test]
fn plans_bit_identical_under_forced_stealing() {
    let full = pool::stats().spawned;
    let prev = pool::workers();
    let reference = run_plan_family();
    pool::set_force_steal(true);
    for size in [1usize, 2, 4] {
        let applied = pool::set_workers(size.min(full.max(1)));
        let got = run_plan_family();
        assert!(
            got == reference,
            "forced stealing at pool size {applied} changed a plan output bit"
        );
    }
    pool::set_force_steal(false);
    pool::set_workers(prev);
}

/// A deliberately non-seeded sanity companion: two identical runs at the
/// same pool size are bit-identical too (run-to-run determinism, the
/// guarantee the pool inherits from fixed chunk geometry and sequential
/// noise).
#[test]
fn repeated_runs_are_bit_identical() {
    let a = run_plan_family();
    let b = run_plan_family();
    assert!(a == b, "seeded plans must be deterministic run-to-run");
}

/// ISSUE 6: the typed `spawn -> handle` reduction API obeys the same
/// invariant as full plans — chunk geometry from the process-constant
/// configured parallelism, partials merged in fixed spawn order — so both
/// a hand-built typed-scope reduction and the `par_dot` kernel built on
/// it must be bit-identical at pool sizes 0, 1, 2 and full.
#[test]
fn typed_reductions_bit_identical_across_pool_sizes() {
    use ektelo_matrix::kernels;
    use ektelo_matrix::pool::{typed_scope, TypedHandle};

    // Long enough that par_dot engages its pool path (threshold 1<<15).
    let n = (1usize << 15) + 33;
    let a: Vec<f64> = (0..n)
        .map(|i| ((i * 37) % 19) as f64 * 0.31 - 2.7)
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 53) % 23) as f64 * 0.17 - 1.9)
        .collect();

    let run = || {
        let k = pool::configured_parallelism().max(1);
        let chunk = n.div_ceil(k);
        let manual = typed_scope(|ts| {
            let handles: Vec<_> = (0..n.div_ceil(chunk))
                .map(|c| {
                    let lo = c * chunk;
                    let hi = ((c + 1) * chunk).min(n);
                    let (ac, bc) = (&a[lo..hi], &b[lo..hi]);
                    ts.spawn(move || kernels::dot(ac, bc))
                })
                .collect();
            ts.join();
            let mut s = 0.0;
            for h in handles {
                s += TypedHandle::take(h);
            }
            s
        });
        (manual, kernels::par_dot(&a, &b))
    };

    let full = pool::stats().spawned;
    let prev = pool::workers();
    let (manual_ref, par_ref) = run();
    assert!(manual_ref.is_finite() && par_ref.is_finite());
    for size in [0usize, 1, 2, full] {
        pool::set_workers(size);
        let (manual, par) = run();
        assert_eq!(
            manual.to_bits(),
            manual_ref.to_bits(),
            "pool size {size} changed the typed-scope reduction"
        );
        assert_eq!(
            par.to_bits(),
            par_ref.to_bits(),
            "pool size {size} changed par_dot"
        );
    }
    pool::set_workers(prev);
}
