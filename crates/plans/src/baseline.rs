//! Data-independent plans (Fig. 2, Plans #1–#6 and #13).
//!
//! All share the idiom the paper highlights: *Query selection → Query (LM)
//! → Inference (LS)*, differing only in the selection operator. Since the
//! operator-graph migration each plan is expressed as a [`PlanSpec`]
//! (signature `S· LM LS`) and executed through [`PlanExecutor`], which
//! pre-accounts the exact ε before the kernel is touched; the functions
//! here remain the stable entry points.

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_core::ops::graph::{PlanBuilder, PlanExecutor, PlanSpec, SourceRef, StrategyRef};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::selection;
use ektelo_matrix::Matrix;

use crate::util::{workload_ranges, PlanOutcome, PlanResult};

/// Builds the shared `select → measure → infer-LS` spec with the
/// selection node supplied by `select`.
fn select_measure_infer_spec(
    select: impl FnOnce(&mut PlanBuilder, SourceRef) -> StrategyRef,
    eps: f64,
) -> PlanSpec {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let s = select(&mut b, x);
    b.measure_laplace(x, s, eps);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

fn run(
    kernel: &ProtectedKernel,
    x: SourceVar,
    select: impl FnOnce(&mut PlanBuilder, SourceRef) -> StrategyRef,
    eps: f64,
) -> PlanResult {
    let spec = select_measure_infer_spec(select, eps);
    let report = PlanExecutor::new(kernel).run(&spec, x)?;
    Ok(PlanOutcome {
        x_hat: report.x_hat,
    })
}

/// Plan #1 — Identity (Dwork et al. 2006): `SI LM LS`.
///
/// ```
/// use ektelo_core::kernel::ProtectedKernel;
/// use ektelo_plans::baseline::plan_identity;
///
/// let k = ProtectedKernel::init_from_vector(vec![10.0; 8], 1.0, 7);
/// let out = plan_identity(&k, k.root(), 1.0).unwrap();
/// assert_eq!(out.x_hat.len(), 8);
/// assert!((k.budget_spent() - 1.0).abs() < 1e-12);
/// ```
pub fn plan_identity(kernel: &ProtectedKernel, x: SourceVar, eps: f64) -> PlanResult {
    run(kernel, x, |b, x| b.select_identity(x), eps)
}

/// Plan #6 — Uniform: `ST LM LS` (estimate the total, assume uniformity).
pub fn plan_uniform(kernel: &ProtectedKernel, x: SourceVar, eps: f64) -> PlanResult {
    run(kernel, x, |b, x| b.select_total(x), eps)
}

/// Plan #2 — Privelet (Xiao et al. 2010): `SP LM LS`.
pub fn plan_privelet(kernel: &ProtectedKernel, x: SourceVar, eps: f64) -> PlanResult {
    run(kernel, x, |b, x| b.select_privelet(x), eps)
}

/// Plan #3 — Hierarchical H2 (Hay et al. 2010): `SH2 LM LS`.
pub fn plan_h2(kernel: &ProtectedKernel, x: SourceVar, eps: f64) -> PlanResult {
    run(kernel, x, |b, x| b.select_h2(x), eps)
}

/// Plan #4 — Hierarchical-opt HB (Qardaji et al. 2013): `SHB LM LS`.
pub fn plan_hb(kernel: &ProtectedKernel, x: SourceVar, eps: f64) -> PlanResult {
    run(kernel, x, |b, x| b.select_hb(x), eps)
}

/// Plan #5 — Greedy-H (Li et al. 2014): `SG LM LS`. Adapts the hierarchy
/// weights to `workload` (which should be a range-query workload; other
/// workloads fall back to uniform weights).
pub fn plan_greedy_h(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
) -> PlanResult {
    let ranges = workload_ranges(workload).unwrap_or_default();
    run(kernel, x, |b, x| b.select_greedy_h(x, &ranges), eps)
}

/// Plan #13 — HDMM (McKenna et al. 2018): `SHD LM LS`. Optimizes the
/// strategy for `workload`.
pub fn plan_hdmm(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
) -> PlanResult {
    let strategy = selection::hdmm_1d(workload, &selection::HdmmOptions::default());
    run(kernel, x, |b, _| b.select_fixed(strategy, "SHD"), eps)
}

/// HDMM over a multi-dimensional domain with per-factor workloads
/// (`OPT_⊗`): optimizes each dimension and measures the Kronecker product.
// xlint: allow(dead-pub, reason = "HDMM's Kronecker plan, run by the determinism suite")
pub fn plan_hdmm_kron(
    kernel: &ProtectedKernel,
    x: SourceVar,
    factors: &[Matrix],
    eps: f64,
) -> PlanResult {
    let strategy = selection::hdmm_kron(factors, &selection::HdmmOptions::default());
    run(kernel, x, |b, _| b.select_fixed(strategy, "SHD"), eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::kernel_for_histogram;
    use ektelo_data::generators::{shape_1d, Shape1D};

    fn run(plan: impl Fn(&ProtectedKernel, SourceVar, f64) -> PlanResult) -> (Vec<f64>, Vec<f64>) {
        let x = shape_1d(Shape1D::Gaussian, 64, 10_000.0, 3);
        let (k, root) = kernel_for_histogram(&x, 1.0, 7);
        let out = plan(&k, root, 1.0).unwrap();
        (x, out.x_hat)
    }

    fn rmse(a: &[f64], b: &[f64]) -> f64 {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    }

    #[test]
    fn identity_recovers_large_counts() {
        let (x, xh) = run(plan_identity);
        assert!(rmse(&x, &xh) < 5.0, "rmse {}", rmse(&x, &xh));
    }

    #[test]
    fn uniform_gets_total_but_not_shape() {
        let (x, xh) = run(plan_uniform);
        let tx: f64 = x.iter().sum();
        let th: f64 = xh.iter().sum();
        assert!((tx - th).abs() / tx < 0.05, "totals {tx} vs {th}");
        // Uniform spread: all entries equal.
        assert!(xh.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6));
    }

    #[test]
    fn hierarchical_plans_answer_range_queries_better_than_identity() {
        // Average error of all prefix queries: hierarchical strategies beat
        // identity on a domain of 256 at moderate eps.
        let x = shape_1d(Shape1D::Bimodal, 256, 50_000.0, 5);
        let w = Matrix::prefix(256);
        let truth = w.matvec(&x);
        let mut errs = std::collections::HashMap::new();
        for (name, plan) in [
            (
                "identity",
                plan_identity as fn(&ProtectedKernel, SourceVar, f64) -> PlanResult,
            ),
            ("h2", plan_h2),
            ("privelet", plan_privelet),
            ("hb", plan_hb),
        ] {
            let mut total = 0.0;
            for seed in 0..5 {
                let (k, root) = kernel_for_histogram(&x, 0.1, seed);
                let xh = plan(&k, root, 0.1).unwrap().x_hat;
                let est = w.matvec(&xh);
                total += rmse(&truth, &est);
            }
            errs.insert(name, total / 5.0);
        }
        assert!(
            errs["h2"] < errs["identity"],
            "H2 ({}) should beat identity ({}) on prefix workload",
            errs["h2"],
            errs["identity"]
        );
        assert!(errs["privelet"] < errs["identity"]);
    }

    #[test]
    fn greedy_h_runs_with_range_workload() {
        let x = shape_1d(Shape1D::Step, 64, 5_000.0, 2);
        let w = ektelo_data::workloads::random_range(64, 50, 3);
        let (k, root) = kernel_for_histogram(&x, 1.0, 1);
        let out = plan_greedy_h(&k, root, &w, 1.0).unwrap();
        assert_eq!(out.x_hat.len(), 64);
    }

    #[test]
    fn hdmm_runs_and_spends_exactly_eps() {
        let x = shape_1d(Shape1D::Zipf, 32, 5_000.0, 2);
        let w = Matrix::prefix(32);
        let (k, root) = kernel_for_histogram(&x, 1.0, 1);
        plan_hdmm(&k, root, &w, 0.7).unwrap();
        assert!((k.budget_spent() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn plans_fail_cleanly_when_budget_runs_out() {
        let x = shape_1d(Shape1D::Uniform, 16, 100.0, 0);
        let (k, root) = kernel_for_histogram(&x, 0.5, 0);
        plan_identity(&k, root, 0.5).unwrap();
        assert!(plan_h2(&k, root, 0.1).is_err());
    }

    #[test]
    fn baseline_signatures_render_from_the_graph() {
        let sigs: Vec<String> = [
            select_measure_infer_spec(|b, x| b.select_identity(x), 1.0),
            select_measure_infer_spec(|b, x| b.select_total(x), 1.0),
            select_measure_infer_spec(|b, x| b.select_privelet(x), 1.0),
            select_measure_infer_spec(|b, x| b.select_h2(x), 1.0),
            select_measure_infer_spec(|b, x| b.select_hb(x), 1.0),
            select_measure_infer_spec(|b, x| b.select_greedy_h(x, &[]), 1.0),
        ]
        .iter()
        .map(|s| s.signature())
        .collect();
        assert_eq!(
            sigs,
            [
                "SI LM LS",
                "ST LM LS",
                "SP LM LS",
                "SH2 LM LS",
                "SHB LM LS",
                "SG LM LS"
            ]
        );
    }
}
