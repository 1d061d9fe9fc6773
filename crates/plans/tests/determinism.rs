//! Run-to-run bit-identity of full plans: the striped, MWEM and
//! Kronecker-strategy plans (plan #16 HB-Striped_kron and HDMM's
//! `OPT_⊗`), run end to end twice on equally seeded kernels, must produce
//! **bit-identical** estimates.
//!
//! Why this must hold: evaluation is single-threaded and every reduction
//! runs in one fixed order, privacy randomness is drawn sequentially in
//! request order under the kernel lock, and DAWA's stage-1 stripes use
//! counter-based substreams. A regression in any of those invariants
//! shows up here as a diverging bit.

use ektelo_plans::baseline::plan_hdmm_kron;
use ektelo_plans::mwem::{plan_mwem, plan_mwem_variant_b, MwemOptions};
use ektelo_plans::striped::{plan_dawa_striped, plan_hb_striped, plan_hb_striped_kron};
use ektelo_plans::util::kernel_for_histogram;

/// Runs the full plan family on freshly seeded kernels and returns every
/// estimate, concatenated. Bit-equality of this vector across runs is the
/// acceptance bar — no tolerance.
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

    // Multi-factor Kronecker strategies: the HB mode runs the panel
    // kernels, the HDMM factors the fiber walk.
    let sizes = [64usize, 16, 8];
    let n: usize = sizes.iter().product();
    let x: Vec<f64> = (0..n).map(|i| ((i * 17) % 29) as f64 + 1.0).collect();
    let (k, root) = kernel_for_histogram(&x, eps, 45);
    all.extend(
        plan_hb_striped_kron(&k, root, &sizes, 0, eps)
            .unwrap()
            .x_hat,
    );

    // HDMM's per-factor optimization dominates its cost, so it gets a
    // smaller domain.
    let sizes = [24usize, 16, 4];
    let n: usize = sizes.iter().product();
    let factors = [
        ektelo_matrix::Matrix::prefix(sizes[0]),
        ektelo_matrix::Matrix::vstack(vec![
            ektelo_matrix::Matrix::total(sizes[1]),
            ektelo_matrix::Matrix::identity(sizes[1]),
        ]),
        ektelo_matrix::Matrix::prefix(sizes[2]),
    ];
    let (k, root) = kernel_for_histogram(&x[..n], eps, 46);
    all.extend(plan_hdmm_kron(&k, root, &factors, eps).unwrap().x_hat);

    all
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = run_plan_family();
    assert!(
        a.iter().all(|v| v.is_finite()),
        "plans must produce finite estimates"
    );
    let b = run_plan_family();
    assert!(a == b, "seeded plans must be deterministic run-to-run");
}
