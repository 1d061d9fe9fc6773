//! Inference operators (Public; paper §5.5 and §7.6).
//!
//! All operators here consume the kernel's recorded measurement history —
//! queries already mapped onto a common base domain — and produce an
//! estimate `x̂` of the base data vector. None of them touch private data:
//! inference is free (Theorem 5.3 even shows extra measurements never hurt
//! least-squares accuracy).
//!
//! Measurements with unequal noise are handled by weighting each query row
//! by the inverse of its noise scale (objective (i) of §5.5); incomplete
//! measurement sets are handled by the iterative solvers' implicit
//! minimum-norm behaviour or by multiplicative weights (objective (ii)).

use ektelo_matrix::{Matrix, Workspace};
use ektelo_solvers::{
    direct_least_squares, lsqr, mult_weights, nnls, LsqrOptions, MwOptions, NnlsOptions,
};

use crate::kernel::MeasuredQuery;

/// Which least-squares engine to use (the Fig. 5 ablation axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsSolver {
    /// Iterative LSQR (default; `O(k · Time(M))`).
    Iterative,
    /// Direct normal equations + Cholesky (`O(n³)`; Fig. 5 baseline).
    Direct,
}

/// Stacks the measurement history into a single weighted system
/// `(W·M) x ≈ W·y` with `W = diag(1/noise_scale)`, so that unequally-noisy
/// measurements contribute proportionally to their precision.
pub fn stack_measurements(measurements: &[MeasuredQuery]) -> (Matrix, Vec<f64>) {
    assert!(!measurements.is_empty(), "inference with no measurements");
    let base_cols = measurements[0].query.cols();
    let mut blocks = Vec::with_capacity(measurements.len());
    let mut rhs = Vec::new();
    for m in measurements {
        assert_eq!(
            m.query.cols(),
            base_cols,
            "measurements span different base domains; run inference per base"
        );
        let w = 1.0 / m.noise_scale.max(f64::MIN_POSITIVE);
        blocks.push(Matrix::scaled(w, m.query.clone()));
        rhs.extend(m.answers.iter().map(|&a| a * w));
    }
    (Matrix::vstack(blocks), rhs)
}

/// Ordinary least squares over the measurement history (paper Def. 5.1).
pub fn least_squares(measurements: &[MeasuredQuery], solver: LsSolver) -> Vec<f64> {
    let (m, y) = stack_measurements(measurements);
    match solver {
        LsSolver::Iterative => lsqr(&m, &y, &LsqrOptions::default()).x,
        LsSolver::Direct => direct_least_squares(&m, &y),
    }
}

/// Tree-based least squares (Hay et al. 2010) over the measurement
/// history: the specialised `O(nodes)` inference the paper compares its
/// generic engine against in Fig. 5. Returns the exact least-squares
/// solution when the stacked, weighted measurements form one interval
/// hierarchy, such as a single H2 or HB measurement (see
/// [`ektelo_solvers::tree_least_squares`]), and `None` for any other
/// history.
pub fn tree_least_squares(measurements: &[MeasuredQuery]) -> Option<Vec<f64>> {
    let (m, y) = stack_measurements(measurements);
    ektelo_solvers::tree_least_squares(&m, &y).map(|r| r.x)
}

/// Non-negative least squares over the measurement history
/// (paper Def. 5.2).
pub fn non_negative_least_squares(measurements: &[MeasuredQuery]) -> Vec<f64> {
    non_negative_least_squares_opts(measurements, &NnlsOptions::default())
}

/// [`non_negative_least_squares`] with explicit solver options (iteration
/// budget matters inside iterative plans like MWEM that re-infer every
/// round).
pub fn non_negative_least_squares_opts(
    measurements: &[MeasuredQuery],
    opts: &NnlsOptions,
) -> Vec<f64> {
    let (m, y) = stack_measurements(measurements);
    nnls(&m, &y, opts)
}

/// Multiplicative-weights inference (MWEM's update; paper Table 1).
/// `total` is the assumed dataset size; `x0` defaults to uniform when
/// `None`.
pub fn mult_weights_inference(
    measurements: &[MeasuredQuery],
    total: f64,
    x0: Option<&[f64]>,
    iterations: usize,
) -> Vec<f64> {
    // MW works on raw (unweighted) queries; it is scale-sensitive.
    assert!(!measurements.is_empty(), "inference with no measurements");
    let n = measurements[0].query.cols();
    let m = Matrix::vstack(measurements.iter().map(|m| m.query.clone()).collect());
    let y: Vec<f64> = measurements
        .iter()
        .flat_map(|m| m.answers.iter().copied())
        .collect();
    let x0 = x0
        .map(<[f64]>::to_vec)
        .unwrap_or_else(|| vec![total / n as f64; n]);
    mult_weights(&m, &y, &x0, &MwOptions { iterations, total })
}

/// Appends a high-confidence "known total" pseudo-measurement (paper
/// §5.5: public facts enter inference as near-noiseless answers).
///
/// `noise_scale` should be small *relative to the real measurements* (one
/// to two orders of magnitude below their noise scales), not absolutely
/// tiny: inference weights rows by inverse noise scale, and an extreme
/// ratio destroys the conditioning of the iterative solvers. Use
/// [`relative_total_scale`] to derive a safe value.
pub fn known_total_measurement(
    n: usize,
    total: f64,
    base: crate::kernel::SourceVar,
    noise_scale: f64,
) -> MeasuredQuery {
    MeasuredQuery {
        base,
        query: Matrix::total(n),
        answers: vec![total],
        noise_scale: noise_scale.max(f64::MIN_POSITIVE),
    }
}

/// A known-total noise scale 10× more precise than the most precise real
/// measurement — enough to pin the total without wrecking conditioning.
pub fn relative_total_scale(measurements: &[MeasuredQuery]) -> f64 {
    measurements
        .iter()
        .map(|m| m.noise_scale)
        .fold(f64::INFINITY, f64::min)
        .min(1e6)
        / 10.0
}

/// Thresholding inference ("HR" in Fig. 1): for identity-style
/// measurements, clamp negatives to zero and zero-out any estimate below
/// `threshold` (a denoising heuristic for sparse data vectors).
// xlint: allow(dead-pub, reason = "paper operator: thresholding inference (HR, Fig. 1)")
pub fn thresholding(measurements: &[MeasuredQuery], threshold: f64) -> Vec<f64> {
    let mut x = least_squares(measurements, LsSolver::Iterative);
    for v in x.iter_mut() {
        if *v < threshold {
            *v = 0.0;
        }
    }
    x
}

/// Scaled, per-query L2 error between true and estimated workload answers:
/// `‖W x − W x̂‖₂ / (√m · scale)`, the root-mean-square query error over
/// `scale` — the metric of the paper's Table 5.
pub fn scaled_per_query_l2_error(
    workload: &Matrix,
    x_true: &[f64],
    x_hat: &[f64],
    scale: f64,
) -> f64 {
    let mut ws = Workspace::for_matrix(workload);
    let m = workload.rows();
    let mut t = vec![0.0; m];
    let mut e = vec![0.0; m];
    workload.matvec_into(x_true, &mut t, &mut ws);
    workload.matvec_into(x_hat, &mut e, &mut ws);
    let sq: f64 = t.iter().zip(&e).map(|(a, b)| (a - b) * (a - b)).sum();
    (sq / t.len() as f64).sqrt() / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ProtectedKernel, SourceVar};

    fn measured(query: Matrix, answers: Vec<f64>, noise_scale: f64) -> MeasuredQuery {
        MeasuredQuery {
            base: SourceVar(0),
            query,
            answers,
            noise_scale,
        }
    }

    #[test]
    fn ls_recovers_consistent_system() {
        let ms = vec![
            measured(Matrix::identity(3), vec![1.0, 2.0, 3.0], 1.0),
            measured(Matrix::total(3), vec![6.0], 1.0),
        ];
        for solver in [LsSolver::Iterative, LsSolver::Direct] {
            let x = least_squares(&ms, solver);
            for (a, b) in x.iter().zip(&[1.0, 2.0, 3.0]) {
                assert!((a - b).abs() < 1e-6, "{solver:?}: {x:?}");
            }
        }
    }

    #[test]
    fn weighting_prefers_precise_measurements() {
        // Two total measurements: noisy says 0, precise says 10.
        let ms = vec![
            measured(Matrix::total(2), vec![0.0], 100.0),
            measured(Matrix::total(2), vec![10.0], 0.1),
        ];
        let x = least_squares(&ms, LsSolver::Iterative);
        let total: f64 = x.iter().sum();
        assert!((total - 10.0).abs() < 0.1, "total {total}");
    }

    #[test]
    fn nnls_clamps_negative_regions() {
        let ms = vec![measured(Matrix::identity(2), vec![-4.0, 4.0], 1.0)];
        let x = non_negative_least_squares(&ms);
        assert!(x[0].abs() < 1e-6);
        assert!((x[1] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn mw_respects_total() {
        let ms = vec![measured(Matrix::identity(4), vec![4.0, 0.0, 0.0, 0.0], 1.0)];
        let x = mult_weights_inference(&ms, 4.0, None, 100);
        assert!((x.iter().sum::<f64>() - 4.0).abs() < 1e-9);
        assert!(x[0] > 2.0, "{x:?}");
    }

    #[test]
    fn thresholding_zeroes_small_values() {
        let ms = vec![measured(Matrix::identity(3), vec![0.4, 5.0, -2.0], 1.0)];
        let x = thresholding(&ms, 1.0);
        assert_eq!(x[0], 0.0);
        assert_eq!(x[2], 0.0);
        assert!((x[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn theorem_5_3_extra_measurements_never_hurt() {
        // Empirically verify Theorem 5.3 on a small domain: adding a
        // measurement reduces (or preserves) expected squared error of a
        // fixed query under least squares. We average over noise draws.
        let n = 8;
        let x_true: Vec<f64> = (0..n).map(|i| (i * i % 7) as f64).collect();
        let q = Matrix::prefix(n);
        let trials = 200;
        let mut err_small = 0.0;
        let mut err_big = 0.0;
        let mut seed = 0u64;
        for _ in 0..trials {
            seed += 1;
            let k = ProtectedKernel::init_from_vector(x_true.clone(), 10.0, seed);
            let root = k.root();
            k.vector_laplace(root, &Matrix::identity(n), 1.0).unwrap();
            let ms1 = k.measurements();
            let x1 = least_squares(&ms1, LsSolver::Direct);
            k.vector_laplace(root, &Matrix::total(n), 1.0).unwrap();
            let ms2 = k.measurements();
            let x2 = least_squares(&ms2, LsSolver::Direct);
            let e = |xh: &[f64]| -> f64 {
                let a = q.matvec(&x_true);
                let b = q.matvec(xh);
                a.iter()
                    .zip(&b)
                    .map(|(p, r)| (p - r) * (p - r))
                    .sum::<f64>()
            };
            err_small += e(&x1);
            err_big += e(&x2);
        }
        assert!(
            err_big <= err_small * 1.02,
            "extra measurement increased error: {err_big} vs {err_small}"
        );
    }

    #[test]
    fn tree_pass_matches_direct_ls_on_h2_and_hb() {
        // The exact tree pass (Hay et al.) on one hierarchical
        // measurement is the least-squares solution, for complete and
        // uneven trees alike.
        use crate::ops::selection::{h2, hb};
        for n in [16, 17, 100] {
            for (name, strategy) in [("H2", h2(n)), ("HB", hb(n))] {
                let x_true: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 + 20.0).collect();
                let k = ProtectedKernel::init_from_vector(x_true, 10.0, 4);
                k.vector_laplace(k.root(), &strategy, 1.0).unwrap();
                let ms = k.measurements();
                let direct = least_squares(&ms, LsSolver::Direct);
                let tree = tree_least_squares(&ms)
                    .unwrap_or_else(|| panic!("{name} n={n}: not a hierarchy"));
                for (g, t) in direct.iter().zip(&tree) {
                    assert!(
                        (g - t).abs() < 1e-9 * (1.0 + g.abs()),
                        "{name} n={n}: {direct:?} vs {tree:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different base domains")]
    fn mixed_bases_rejected() {
        let ms = vec![
            measured(Matrix::identity(3), vec![0.0; 3], 1.0),
            measured(Matrix::identity(4), vec![0.0; 4], 1.0),
        ];
        let _ = least_squares(&ms, LsSolver::Iterative);
    }
}
