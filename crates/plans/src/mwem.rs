//! MWEM and the paper's three improved variants (Fig. 2, Plans #7 and
//! #18–#20; §9.1).
//!
//! MWEM (Hardt, Ligett & McSherry 2012) iterates: privately select the
//! workload query worst approximated by the current estimate (exponential
//! mechanism), measure it (Laplace), update the estimate (multiplicative
//! weights). The paper's recombinations:
//!
//! * **variant b** (#18): augment each round's selected query with the
//!   binary-hierarchy queries of that round's level that do not intersect
//!   it — disjoint supports mean the extra queries are free under parallel
//!   composition;
//! * **variant c** (#19): replace MW inference with NNLS plus a
//!   high-confidence total;
//! * **variant d** (#20): both.
//!
//! All four run through the operator-graph API: the whole family is one
//! [`MwemLoopOp`] adaptive-loop node (`I:( SW [SH2] LM MW|NLS )`) whose
//! per-round budgets are declared in the spec, so the executor
//! pre-accounts the loop at exactly `eps` before any kernel call.

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_core::ops::graph::{
    MwemLoopOp, MwemRoundInference as MwemInference, PlanBuilder, PlanSpec,
};
use ektelo_matrix::Matrix;

use crate::util::{run_spec, PlanResult};

/// Options shared by the MWEM family.
#[derive(Clone, Debug)]
pub struct MwemOptions {
    /// Number of rounds `T`.
    pub rounds: usize,
    /// Assumed (public) total number of records — MWEM's standard
    /// assumption; the paper's variant c/d add it to inference explicitly.
    pub total: f64,
    /// Multiplicative-weights passes per round.
    pub mw_iterations: usize,
}

impl Default for MwemOptions {
    fn default() -> Self {
        MwemOptions {
            rounds: 10,
            total: 1.0,
            mw_iterations: 30,
        }
    }
}

/// Plan #7 — original MWEM: `I:( SW LM MW )`.
pub fn plan_mwem(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
    opts: &MwemOptions,
) -> PlanResult {
    mwem_impl(
        kernel,
        x,
        workload,
        eps,
        opts,
        false,
        MwemInference::MultWeights,
    )
}

/// Plan #18 — variant b: `I:( SW SH2 LM MW )` (augmented selection).
pub fn plan_mwem_variant_b(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
    opts: &MwemOptions,
) -> PlanResult {
    mwem_impl(
        kernel,
        x,
        workload,
        eps,
        opts,
        true,
        MwemInference::MultWeights,
    )
}

/// Plan #19 — variant c: `I:( SW LM NLS )` (NNLS + known total).
pub fn plan_mwem_variant_c(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
    opts: &MwemOptions,
) -> PlanResult {
    mwem_impl(
        kernel,
        x,
        workload,
        eps,
        opts,
        false,
        MwemInference::NnlsKnownTotal,
    )
}

/// Plan #20 — variant d: `I:( SW SH2 LM NLS )` (both improvements).
pub fn plan_mwem_variant_d(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
    opts: &MwemOptions,
) -> PlanResult {
    mwem_impl(
        kernel,
        x,
        workload,
        eps,
        opts,
        true,
        MwemInference::NnlsKnownTotal,
    )
}

/// Builds the MWEM adaptive-loop spec (`I:( SW [SH2] LM MW|NLS )`): one
/// graph node with declared per-round budgets `eps/(2T)` for selection
/// and measurement, so [`PlanSpec::pre_account`] bounds the loop at
/// exactly `eps`.
fn mwem_spec(
    workload: &Matrix,
    eps: f64,
    opts: &MwemOptions,
    augment: bool,
    infer: MwemInference,
) -> PlanSpec {
    let t = opts.rounds.max(1) as f64;
    let mut b = PlanBuilder::new();
    let x = b.input();
    let e = b.mwem_loop(MwemLoopOp {
        input: x,
        workload: workload.clone(),
        rounds: opts.rounds,
        eps_select: eps / (2.0 * t),
        eps_measure: eps / (2.0 * t),
        augment,
        inference: infer,
        total: opts.total,
        mw_iterations: opts.mw_iterations,
    });
    b.finish(e)
}

fn mwem_impl(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
    opts: &MwemOptions,
    augment: bool,
    infer: MwemInference,
) -> PlanResult {
    run_spec(kernel, x, &mwem_spec(workload, eps, opts, augment, infer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::kernel_for_histogram;
    use ektelo_core::ops::graph::PlanExecutor;
    use ektelo_data::generators::{shape_1d, Shape1D};
    use ektelo_data::workloads::random_range;

    fn opts(total: f64) -> MwemOptions {
        MwemOptions {
            rounds: 6,
            total,
            mw_iterations: 30,
        }
    }

    #[test]
    fn mwem_specs_render_fig2_signatures() {
        let w = Matrix::prefix(8);
        let o = opts(100.0);
        assert_eq!(
            mwem_spec(&w, 1.0, &o, false, MwemInference::MultWeights).signature(),
            "I:( SW LM MW )"
        );
        assert_eq!(
            mwem_spec(&w, 1.0, &o, true, MwemInference::MultWeights).signature(),
            "I:( SW SH2 LM MW )"
        );
        assert_eq!(
            mwem_spec(&w, 1.0, &o, false, MwemInference::NnlsKnownTotal).signature(),
            "I:( SW LM NLS )"
        );
        assert_eq!(
            mwem_spec(&w, 1.0, &o, true, MwemInference::NnlsKnownTotal).signature(),
            "I:( SW SH2 LM NLS )"
        );
    }

    #[test]
    fn mwem_preaccounting_matches_charged_budget_exactly() {
        let x = shape_1d(Shape1D::Gaussian, 64, 1_000.0, 0);
        let w = random_range(64, 32, 0);
        let (k, root) = kernel_for_histogram(&x, 1.0, 0);
        let spec = mwem_spec(&w, 1.0, &opts(1000.0), false, MwemInference::MultWeights);
        let pre = spec.pre_account().unwrap().total;
        let report = PlanExecutor::new(&k).run(&spec, root).unwrap();
        assert_eq!(
            pre, report.eps_charged,
            "static pre-accounting must equal the charged ε bit-for-bit"
        );
    }

    #[test]
    fn mwem_budget_is_exact() {
        let x = shape_1d(Shape1D::Gaussian, 64, 1_000.0, 0);
        let w = random_range(64, 32, 0);
        let (k, root) = kernel_for_histogram(&x, 1.0, 0);
        plan_mwem(&k, root, &w, 1.0, &opts(1000.0)).unwrap();
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn augmented_variant_costs_the_same_budget() {
        let x = shape_1d(Shape1D::Gaussian, 64, 1_000.0, 0);
        let w = random_range(64, 32, 0);
        let (k, root) = kernel_for_histogram(&x, 1.0, 0);
        plan_mwem_variant_b(&k, root, &w, 1.0, &opts(1000.0)).unwrap();
        assert!(
            (k.budget_spent() - 1.0).abs() < 1e-9,
            "augmentation must be free"
        );
    }

    /// Variant b's augmented strategy has L1 sensitivity one in every
    /// round, so augmenting is free: every query it records, over the base
    /// domain, has sensitivity one and all are answered at one noise
    /// scale, and augmentation added rows in some round.
    #[test]
    fn augmentation_has_sensitivity_one() {
        let x = shape_1d(Shape1D::Gaussian, 64, 1_000.0, 0);
        let w = random_range(64, 32, 0);
        let (k, root) = kernel_for_histogram(&x, 1.0, 0);
        plan_mwem_variant_b(&k, root, &w, 1.0, &opts(1000.0)).unwrap();
        let ms = k.measurements();
        assert_eq!(ms.len(), 6, "one measurement per round");
        for (round, m) in ms.iter().enumerate() {
            let s = m.query.l1_sensitivity();
            assert!((s - 1.0).abs() < 1e-12, "round {round} sensitivity {s}");
            assert_eq!(
                m.noise_scale, ms[0].noise_scale,
                "round {round} noise scale"
            );
        }
        assert!(
            ms.iter().any(|m| m.query.rows() > 1),
            "nothing was augmented"
        );
    }

    #[test]
    fn variants_improve_error_on_average() {
        // The Table 4 claim in miniature: variant d should beat plain MWEM
        // on a clustered dataset, averaged over seeds.
        let n = 128;
        let x = shape_1d(Shape1D::Clustered, n, 10_000.0, 3);
        let total: f64 = x.iter().sum();
        let w = random_range(n, 64, 5);
        let truth = w.matvec(&x);
        let trials = 4;
        let mut err_a = 0.0;
        let mut err_d = 0.0;
        for seed in 0..trials {
            let (k, root) = kernel_for_histogram(&x, 0.5, seed);
            let xa = plan_mwem(&k, root, &w, 0.5, &opts(total)).unwrap().x_hat;
            let (k, root) = kernel_for_histogram(&x, 0.5, seed + 50);
            let xd = plan_mwem_variant_d(&k, root, &w, 0.5, &opts(total))
                .unwrap()
                .x_hat;
            let e = |xh: &[f64]| {
                let est = w.matvec(xh);
                truth
                    .iter()
                    .zip(&est)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            };
            err_a += e(&xa);
            err_d += e(&xd);
        }
        assert!(
            err_d < err_a,
            "variant d ({err_d}) should beat plain MWEM ({err_a})"
        );
    }

    #[test]
    fn estimates_have_the_right_total() {
        let x = shape_1d(Shape1D::Uniform, 32, 800.0, 1);
        let w = random_range(32, 16, 2);
        let (k, root) = kernel_for_histogram(&x, 1.0, 3);
        let out = plan_mwem(&k, root, &w, 1.0, &opts(800.0)).unwrap();
        let total: f64 = out.x_hat.iter().sum();
        assert!(
            (total - 800.0).abs() < 1.0,
            "MW preserves the assumed total, got {total}"
        );
    }
}
