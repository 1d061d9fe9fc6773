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

use ektelo_matrix::{ColumnClasses, Matrix, Workspace};
use ektelo_solvers::{
    direct_least_squares, lsqr, mult_weights_with_classes, nnls, LsqrOptions, MwOptions,
    NnlsOptions,
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

/// Multiplicative-weights inference (MWEM's update; paper Table 1) from
/// the uniform start of mass `total`, the assumed dataset size.
///
/// `classes` are the column classes of the stacked queries, as a
/// [`ColumnRefinement`] refined by every measurement's query gives them:
/// the passes then run on one value per class, and the result is
/// [`mult_weights`]'s on the stack bit for bit. MWEM's loop keeps that
/// refinement across rounds instead of refining the whole history every
/// round. `None` runs the passes over every cell.
///
/// [`ColumnRefinement`]: ektelo_matrix::ColumnRefinement
/// [`mult_weights`]: ektelo_solvers::mult_weights
pub fn mult_weights_inference(
    measurements: &[MeasuredQuery],
    total: f64,
    classes: Option<&ColumnClasses>,
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
    let x0 = vec![total / n as f64; n];
    mult_weights_with_classes(&m, classes, &y, &x0, &MwOptions { iterations, total })
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
        answers: [total].into(),
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
///
/// `W` is linear, so this evaluates `W (x − x̂)` with `d = x − x̂`
/// formed once. A (scaled) Kronecker workload `c · (F₀ ⊗ R)` whose rest
/// `R` has at least as many rows as columns (such as the census
/// `Prefix(Income)`, `Prefix ⊗ [Total; I] ⊗ …`) is streamed, never
/// forming `W d`: `F₀` is applied once along mode 0, `C = (F₀ ⊗ I) d`
/// with `rows(F₀) · cols(R)` values, and then each row `Cᵢ` adds
/// `‖c · R Cᵢ‖²` to the total through one workspace sized for `R`. Every
/// other workload takes one product `W d` through a workspace that
/// reserves scratch for `W·v` alone.
///
/// The value equals the two-product form up to rounding: the difference
/// of the cell values is rounded instead of the difference of the
/// answers, and the streamed form applies the modes in another order
/// (its squares are still summed in row order). Both agree with
/// `‖W x − W x̂‖` to a relative 1e-12, and a workload that is not
/// streamed gets exactly the bits of `‖W d‖`.
pub fn scaled_per_query_l2_error(
    workload: &Matrix,
    x_true: &[f64],
    x_hat: &[f64],
    scale: f64,
) -> f64 {
    let diff: Vec<f64> = x_true.iter().zip(x_hat).map(|(t, e)| t - e).collect();
    let sq = match streamed_split(workload) {
        Some((c, f0, rest)) => {
            let cols = rest.cols();
            let mut panel = vec![0.0; f0.rows() * cols];
            Matrix::kron(f0.clone(), Matrix::identity(cols)).matvec_into(
                &diff,
                &mut panel,
                &mut Workspace::new(),
            );
            let mut answers = vec![0.0; rest.rows()];
            let mut ws = Workspace::new();
            let mut sq = 0.0;
            for row in panel.chunks_exact(cols) {
                rest.matvec_into(row, &mut answers, &mut ws);
                for &a in &answers {
                    let e = a * c;
                    sq += e * e;
                }
            }
            sq
        }
        None => {
            let mut err = vec![0.0; workload.rows()];
            workload.matvec_into(&diff, &mut err, &mut Workspace::new());
            err.iter().map(|d| d * d).sum()
        }
    };
    (sq / workload.rows() as f64).sqrt() / scale
}

/// `(c, F₀, R)` for a (scaled) Kronecker workload `c · (F₀ ⊗ R)` whose
/// `R` has columns and no more columns than rows, so that `(F₀ ⊗ I) d`
/// is no larger than `W d`; `None` for any other workload.
fn streamed_split(workload: &Matrix) -> Option<(f64, &Matrix, Matrix)> {
    let (c, factors) = workload.kron_factors()?;
    let (&f0, rest) = factors.split_first()?;
    let rest = Matrix::kron_list(rest.iter().map(|&f| f.clone()).collect());
    (rest.cols() > 0 && rest.rows() >= rest.cols()).then_some((c, f0, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ProtectedKernel, SourceVar};
    use ektelo_matrix::ColumnRefinement;

    fn measured(query: Matrix, answers: Vec<f64>, noise_scale: f64) -> MeasuredQuery {
        MeasuredQuery {
            base: SourceVar(0),
            query,
            answers: answers.into(),
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
    fn mw_over_kept_classes_is_mult_weights_on_the_stack() {
        let ms = vec![
            measured(Matrix::range_queries(8, vec![(0, 5)]), vec![6.0], 1.0),
            measured(Matrix::range_queries(8, vec![(3, 8)]), vec![2.0], 1.0),
        ];
        let mut refinement = ColumnRefinement::new(8, None);
        for m in &ms {
            refinement.refine(&m.query).unwrap();
        }
        let classes = refinement.classes().unwrap();
        let got = mult_weights_inference(&ms, 8.0, Some(&classes), 50);
        let stack = Matrix::vstack(ms.iter().map(|m| m.query.clone()).collect());
        let opts = MwOptions {
            iterations: 50,
            total: 8.0,
        };
        let want = ektelo_solvers::mult_weights(&stack, &[6.0, 2.0], &[1.0; 8], &opts);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // Without classes the passes run per cell, to the same estimate.
        let per_cell = mult_weights_inference(&ms, 8.0, None, 50);
        for (a, b) in per_cell.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{per_cell:?} vs {want:?}");
        }
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
