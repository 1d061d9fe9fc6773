//! End-to-end smoke-and-shape tests over the complete plan catalogue of
//! Fig. 2: every plan runs on a realistic histogram, spends exactly its
//! budget, and produces a finite estimate of the right dimension.

use ektelo::core::kernel::ProtectedKernel;
use ektelo::core::{EktError, SourceVar};
use ektelo::data::generators::{gauss_blobs_2d, shape_1d, Shape1D};
use ektelo::data::workloads::random_range;
use ektelo::matrix::Matrix;
use ektelo::plans::baseline::*;
use ektelo::plans::data_aware::*;
use ektelo::plans::grids::*;
use ektelo::plans::mwem::*;
use ektelo::plans::select_ls::plan_select_ls;
use ektelo::plans::striped::*;
use ektelo::plans::util::{kernel_for_histogram, PlanResult};

fn check(out: PlanResult, k: &ProtectedKernel, n: usize, eps: f64, name: &str) {
    let out = out.unwrap_or_else(|e| panic!("{name} failed: {e}"));
    assert_eq!(out.x_hat.len(), n, "{name}: wrong estimate length");
    assert!(
        out.x_hat.iter().all(|v| v.is_finite()),
        "{name}: non-finite estimate"
    );
    assert!(
        (k.budget_spent() - eps).abs() < 1e-9,
        "{name}: spent {} of {eps}",
        k.budget_spent()
    );
}

#[test]
fn all_1d_plans_run_and_spend_exactly() {
    let n = 256;
    let x = shape_1d(Shape1D::Bimodal, n, 50_000.0, 3);
    let w = random_range(n, 64, 4);
    let eps = 1.0;
    let total: f64 = x.iter().sum();
    let mwem_opts = MwemOptions {
        rounds: 4,
        total,
        mw_iterations: 20,
    };

    type Named = (
        &'static str,
        Box<dyn Fn(&ProtectedKernel, SourceVar) -> PlanResult>,
    );
    let w2 = w.clone();
    let plans: Vec<Named> = vec![
        ("1 identity", Box::new(move |k, x| plan_identity(k, x, eps))),
        ("2 privelet", Box::new(move |k, x| plan_privelet(k, x, eps))),
        ("3 h2", Box::new(move |k, x| plan_h2(k, x, eps))),
        ("4 hb", Box::new(move |k, x| plan_hb(k, x, eps))),
        ("5 greedy-h", {
            let w = w.clone();
            Box::new(move |k, x| plan_greedy_h(k, x, &w, eps))
        }),
        ("6 uniform", Box::new(move |k, x| plan_uniform(k, x, eps))),
        ("7 mwem", {
            let w = w.clone();
            let o = mwem_opts.clone();
            Box::new(move |k, x| plan_mwem(k, x, &w, eps, &o))
        }),
        ("8 ahp", Box::new(move |k, x| plan_ahp(k, x, eps))),
        ("9 dawa", {
            let w = w.clone();
            Box::new(move |k, x| plan_dawa(k, x, &w, eps))
        }),
        ("13 hdmm", {
            let w = w.clone();
            Box::new(move |k, x| plan_hdmm(k, x, &w, eps))
        }),
        ("18 mwem-b", {
            let w = w.clone();
            let o = mwem_opts.clone();
            Box::new(move |k, x| plan_mwem_variant_b(k, x, &w, eps, &o))
        }),
        ("19 mwem-c", {
            let w = w.clone();
            let o = mwem_opts.clone();
            Box::new(move |k, x| plan_mwem_variant_c(k, x, &w, eps, &o))
        }),
        ("20 mwem-d", {
            let o = mwem_opts.clone();
            Box::new(move |k, x| plan_mwem_variant_d(k, x, &w2, eps, &o))
        }),
    ];
    for (name, plan) in plans {
        let (k, root) = kernel_for_histogram(&x, eps, 42);
        check(plan(&k, root), &k, n, eps, name);
    }
}

#[test]
fn all_2d_plans_run_and_spend_exactly() {
    let (r, c) = (32, 32);
    let x = gauss_blobs_2d(r, c, 3, 100_000.0, 5);
    let eps = 0.5;
    let (k, root) = kernel_for_histogram(&x, eps, 1);
    check(
        plan_quad_tree(&k, root, (r, c), eps),
        &k,
        r * c,
        eps,
        "10 quadtree",
    );
    let (k, root) = kernel_for_histogram(&x, eps, 2);
    check(
        plan_uniform_grid(&k, root, (r, c), 1e5, eps),
        &k,
        r * c,
        eps,
        "11 uniform-grid",
    );
    let (k, root) = kernel_for_histogram(&x, eps, 3);
    check(
        plan_adaptive_grid(&k, root, (r, c), 1e5, eps),
        &k,
        r * c,
        eps,
        "12 adaptive-grid",
    );
}

#[test]
fn all_striped_plans_run_and_spend_exactly() {
    let sizes = [64usize, 3, 2];
    let n: usize = sizes.iter().product();
    let x = shape_1d(Shape1D::IncomeLike, n, 30_000.0, 6);
    let eps = 0.8;
    let (k, root) = kernel_for_histogram(&x, eps, 1);
    check(
        plan_hb_striped(&k, root, &sizes, 0, eps),
        &k,
        n,
        eps,
        "15 hb-striped",
    );
    let (k, root) = kernel_for_histogram(&x, eps, 2);
    check(
        plan_dawa_striped(&k, root, &sizes, 0, &[(0, 32)], eps, 0.25),
        &k,
        n,
        eps,
        "14 dawa-striped",
    );
    let (k, root) = kernel_for_histogram(&x, eps, 3);
    check(
        plan_hb_striped_kron(&k, root, &sizes, 0, eps),
        &k,
        n,
        eps,
        "16 hb-striped-kron",
    );
}

/// Two plans sharing one kernel compose sequentially and the second fails
/// cleanly once the budget runs dry.
#[test]
fn plans_compose_on_a_shared_kernel() {
    let x = shape_1d(Shape1D::Gaussian, 64, 5_000.0, 7);
    let (k, root) = kernel_for_histogram(&x, 1.0, 9);
    plan_identity(&k, root, 0.6).unwrap();
    plan_h2(&k, root, 0.4).unwrap();
    assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    assert!(plan_uniform(&k, root, 0.05).is_err());
    // Inference can still combine BOTH plans' measurements (Theorem 5.3:
    // more information never hurts).
    let all = k.measurements();
    assert!(all.len() >= 2);
}

/// Workload error is finite and beats the trivial zero-estimate for every
/// data-independent plan at a generous budget.
#[test]
fn estimates_beat_the_zero_baseline() {
    let n = 128;
    let x = shape_1d(Shape1D::Zipf, n, 100_000.0, 8);
    let w = Matrix::prefix(n);
    let truth = w.matvec(&x);
    let zero_err: f64 = truth.iter().map(|t| t * t).sum::<f64>().sqrt();
    for seed in 0..3 {
        let (k, root) = kernel_for_histogram(&x, 1.0, seed);
        let out = plan_hb(&k, root, 1.0).unwrap();
        let est = w.matvec(&out.x_hat);
        let err: f64 = truth
            .iter()
            .zip(&est)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            err < zero_err / 10.0,
            "plan barely beats zero estimate: {err} vs {zero_err}"
        );
    }
}

/// Every vector plan of Fig. 2, and SelectLS, is admitted before it
/// touches the kernel: asked for more ε than the kernel has left, each
/// fails with `BudgetExceeded` having spent nothing and recorded no
/// measurement (a plan that ran its first stage before failing would
/// leave both behind).
#[test]
fn over_budget_plans_are_rejected_before_any_charge() {
    let (eps, left) = (1.0, 0.5);
    let n = 256;
    let x = shape_1d(Shape1D::Bimodal, n, 50_000.0, 3);
    let w = random_range(n, 64, 4);
    let o = MwemOptions {
        rounds: 4,
        total: x.iter().sum(),
        mw_iterations: 20,
    };
    type Plan<'a> = Box<dyn Fn(&ProtectedKernel, SourceVar) -> PlanResult + 'a>;
    let sizes = [16usize, 4, 4];
    let marginals = vec![vec![true, true, false], vec![true, false, true]];
    let plans: Vec<(&str, Plan)> = vec![
        ("1 identity", Box::new(|k, x| plan_identity(k, x, eps))),
        ("2 privelet", Box::new(|k, x| plan_privelet(k, x, eps))),
        ("3 h2", Box::new(|k, x| plan_h2(k, x, eps))),
        ("4 hb", Box::new(|k, x| plan_hb(k, x, eps))),
        ("5 greedy-h", Box::new(|k, x| plan_greedy_h(k, x, &w, eps))),
        ("6 uniform", Box::new(|k, x| plan_uniform(k, x, eps))),
        ("7 mwem", Box::new(|k, x| plan_mwem(k, x, &w, eps, &o))),
        ("8 ahp", Box::new(|k, x| plan_ahp(k, x, eps))),
        ("9 dawa", Box::new(|k, x| plan_dawa(k, x, &w, eps))),
        (
            "10 quadtree",
            Box::new(|k, x| plan_quad_tree(k, x, (16, 16), eps)),
        ),
        (
            "11 uniform-grid",
            Box::new(|k, x| plan_uniform_grid(k, x, (16, 16), 5e4, eps)),
        ),
        (
            "12 adaptive-grid",
            Box::new(|k, x| plan_adaptive_grid(k, x, (16, 16), 5e4, eps)),
        ),
        ("13 hdmm", Box::new(|k, x| plan_hdmm(k, x, &w, eps))),
        (
            "14 dawa-striped",
            Box::new(|k, x| plan_dawa_striped(k, x, &sizes, 0, &[(0, 8)], eps, 0.25)),
        ),
        (
            "15 hb-striped",
            Box::new(|k, x| plan_hb_striped(k, x, &sizes, 0, eps)),
        ),
        (
            "16 hb-striped-kron",
            Box::new(|k, x| plan_hb_striped_kron(k, x, &sizes, 0, eps)),
        ),
        (
            "18 mwem-b",
            Box::new(|k, x| plan_mwem_variant_b(k, x, &w, eps, &o)),
        ),
        (
            "19 mwem-c",
            Box::new(|k, x| plan_mwem_variant_c(k, x, &w, eps, &o)),
        ),
        (
            "20 mwem-d",
            Box::new(|k, x| plan_mwem_variant_d(k, x, &w, eps, &o)),
        ),
        (
            "select-ls",
            Box::new(|k, x| plan_select_ls(k, x, &sizes, &marginals, eps)),
        ),
    ];
    for (name, plan) in plans {
        let (k, root) = kernel_for_histogram(&x, left, 7);
        let err = plan(&k, root)
            .err()
            .unwrap_or_else(|| panic!("{name} ran over budget"));
        assert!(
            matches!(err, EktError::BudgetExceeded { .. }),
            "{name}: {err}"
        );
        assert_eq!(k.budget_spent(), 0.0, "{name} spent before failing");
        assert_eq!(k.measurement_count(), 0, "{name} recorded a measurement");
        assert_eq!(k.budget_reserved(), 0.0, "{name} left budget held");
    }
}
