//! 2-D plans: QuadTree (Plan #10), UniformGrid (#11), AdaptiveGrid (#12).
//!
//! All operate on a flattened `rows×cols` data vector.

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::selection::{
    adaptive_grid_round2, quad_tree, uniform_grid, uniform_grid_size,
};
use ektelo_matrix::Matrix;

use crate::util::{infer_ls, split_budget, PlanOutcome, PlanResult};

/// Plan #10 — QuadTree (Cormode et al. 2012): `SQ LM LS`.
pub fn plan_quad_tree(
    kernel: &ProtectedKernel,
    x: SourceVar,
    shape: (usize, usize),
    eps: f64,
) -> PlanResult {
    let start = kernel.measurement_count();
    kernel.vector_laplace(x, &quad_tree(shape.0, shape.1), eps)?;
    Ok(PlanOutcome {
        x_hat: infer_ls(kernel, start, LsSolver::Iterative),
    })
}

/// Plan #11 — UniformGrid (Qardaji et al. 2013): `SU LM LS`.
/// `expected_total` feeds Qardaji's grid-sizing rule.
pub fn plan_uniform_grid(
    kernel: &ProtectedKernel,
    x: SourceVar,
    shape: (usize, usize),
    expected_total: f64,
    eps: f64,
) -> PlanResult {
    let g = uniform_grid_size(shape.0, shape.1, expected_total, eps);
    let start = kernel.measurement_count();
    kernel.vector_laplace(x, &uniform_grid(shape.0, shape.1, g), eps)?;
    Ok(PlanOutcome {
        x_hat: infer_ls(kernel, start, LsSolver::Iterative),
    })
}

/// Plan #12 — AdaptiveGrid (Qardaji et al. 2013):
/// `SU LM LS PU TP[ SA LM ]`.
///
/// Round 1 measures a coarse grid with `eps₁`; round 2 subdivides each
/// block adaptively based on its noisy count and measures the finer
/// rectangles with `eps₂`. All round-2 rectangles are mutually disjoint,
/// so issuing them as one `Rect2D` measurement is *exactly* the parallel
/// composition the plan signature's `TP[…]` expresses (the kernel-split
/// path is exercised by the striped plans instead).
pub fn plan_adaptive_grid(
    kernel: &ProtectedKernel,
    x: SourceVar,
    shape: (usize, usize),
    expected_total: f64,
    eps: f64,
) -> PlanResult {
    let (rows, cols) = shape;
    let shares = split_budget(eps, &[1.0, 1.0]);
    let start = kernel.measurement_count();

    // Round 1: coarse uniform grid (half Qardaji's size constant, as in
    // the AG paper's first stage).
    let g1 = uniform_grid_size(rows, cols, expected_total, shares[0])
        .div_ceil(2)
        .max(1);
    let coarse = uniform_grid(rows, cols, g1);
    let y1 = kernel.vector_laplace(x, &coarse, shares[0])?;

    // Round 2: per-block adaptive refinement.
    let blocks: Vec<(usize, usize, usize, usize)> = match &coarse {
        Matrix::Rect2D(r) => r.rects().collect(),
        _ => unreachable!("uniform_grid returns Rect2D"),
    };
    let mut rects = Vec::new();
    for (block, &count) in blocks.iter().zip(&y1) {
        rects.extend(adaptive_grid_round2(*block, count, shares[1]));
    }
    let fine = Matrix::rect_queries(rows, cols, rects);
    debug_assert!((fine.l1_sensitivity() - 1.0).abs() < 1e-9);
    kernel.vector_laplace(x, &fine, shares[1])?;

    Ok(PlanOutcome {
        x_hat: infer_ls(kernel, start, LsSolver::Iterative),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::kernel_for_histogram;
    use ektelo_data::generators::gauss_blobs_2d;

    fn rmse(a: &[f64], b: &[f64]) -> f64 {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    }

    #[test]
    fn quad_tree_reconstructs() {
        let x = gauss_blobs_2d(16, 16, 3, 50_000.0, 1);
        let (k, root) = kernel_for_histogram(&x, 1.0, 2);
        let out = plan_quad_tree(&k, root, (16, 16), 1.0).unwrap();
        assert_eq!(out.x_hat.len(), 256);
        assert!(rmse(&x, &out.x_hat) < 50.0);
    }

    #[test]
    fn uniform_grid_total_is_right() {
        let x = gauss_blobs_2d(32, 32, 4, 100_000.0, 2);
        let (k, root) = kernel_for_histogram(&x, 0.1, 3);
        let out = plan_uniform_grid(&k, root, (32, 32), 100_000.0, 0.1).unwrap();
        let t: f64 = out.x_hat.iter().sum();
        assert!((t - 100_000.0).abs() / 100_000.0 < 0.05, "total {t}");
    }

    #[test]
    fn adaptive_grid_spends_exactly_eps() {
        let x = gauss_blobs_2d(32, 32, 4, 100_000.0, 3);
        let (k, root) = kernel_for_histogram(&x, 0.5, 4);
        plan_adaptive_grid(&k, root, (32, 32), 100_000.0, 0.5).unwrap();
        assert!((k.budget_spent() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adaptive_beats_uniform_on_sparse_skewed_data() {
        // One dense blob on a large mostly-empty domain at small eps: the
        // uniform grid wastes resolution on emptiness while AG refines only
        // where the round-1 counts are large (the regime where Qardaji's AG
        // wins, and the shape DPBench/Fig. 4 report).
        let x = gauss_blobs_2d(128, 128, 1, 100_000.0, 5);
        let truth_w = ektelo_data::workloads::random_range_2d(128, 128, 100, 7);
        let tw = truth_w.matvec(&x);
        let eps = 0.02;
        let mut err_ug = 0.0;
        let mut err_ag = 0.0;
        for seed in 0..4 {
            let (k, root) = kernel_for_histogram(&x, eps, seed);
            let ug = plan_uniform_grid(&k, root, (128, 128), 1e5, eps)
                .unwrap()
                .x_hat;
            let (k, root) = kernel_for_histogram(&x, eps, seed + 10);
            let ag = plan_adaptive_grid(&k, root, (128, 128), 1e5, eps)
                .unwrap()
                .x_hat;
            let e = |xh: &[f64]| {
                let est = truth_w.matvec(xh);
                rmse(&tw, &est)
            };
            err_ug += e(&ug);
            err_ag += e(&ag);
        }
        assert!(
            err_ag < 0.8 * err_ug,
            "AG ({err_ag}) should clearly beat UG ({err_ug}) on sparse skewed data"
        );
    }
}
