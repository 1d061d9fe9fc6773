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
//!
//! Iterative least squares reads each measurement's answers in place, the
//! buffer the kernel's history shares ([`MeasuredQuery::answers`]): the
//! solver applies the weight `w` where it reads an answer `a`, as the
//! f64 product `a * w` that [`stack_measurements`] would store, so the
//! estimate is bit-identical and no weighted copy of the answers is made.
//! The direct, tree and non-negative solvers take the stacked copy.
//!
//! The Table 5 error check ([`scaled_per_query_l2_error`]) streams the
//! census-style workloads `c · (F₀ ⊗ R)`: with `F₀` a `Prefix`, `Suffix`
//! or `Identity`, it forms neither `x − x̂` nor `W (x − x̂)`, only
//! vectors of `R`'s size.

use ektelo_matrix::{ColumnClasses, ColumnRefinement, Matrix, Workspace};
use ektelo_solvers::{
    direct_least_squares, lsqr_weighted, mult_weights_classes_into, mult_weights_uniform_into,
    nnls, LsqrOptions, MwOptions, NnlsOptions, WeightedRhs,
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
    let m = stack_queries(measurements);
    let mut rhs = Vec::with_capacity(measurements.iter().map(|m| m.answers.len()).sum());
    for m in measurements {
        let w = weight(m);
        rhs.extend(m.answers.iter().map(|&a| a * w));
    }
    (m, rhs)
}

/// The left side of [`stack_measurements`]: each query scaled by its
/// measurement's weight, stacked.
fn stack_queries(measurements: &[MeasuredQuery]) -> Matrix {
    assert!(!measurements.is_empty(), "inference with no measurements");
    let base_cols = measurements[0].query.cols();
    let mut blocks = Vec::with_capacity(measurements.len());
    for m in measurements {
        assert_eq!(
            m.query.cols(),
            base_cols,
            "measurements span different base domains; run inference per base"
        );
        blocks.push(Matrix::scaled(weight(m), m.query.clone()));
    }
    Matrix::vstack(blocks)
}

/// A measurement's row weight: the inverse of its noise scale.
fn weight(m: &MeasuredQuery) -> f64 {
    1.0 / m.noise_scale.max(f64::MIN_POSITIVE)
}

/// Ordinary least squares over the measurement history (paper Def. 5.1).
///
/// The iterative solver reads every measurement's answers in place with
/// its weight (see the module docs); the direct solver stacks them.
pub fn least_squares(measurements: &[MeasuredQuery], solver: LsSolver) -> Vec<f64> {
    match solver {
        LsSolver::Iterative => {
            let m = stack_queries(measurements);
            let rhs = WeightedRhs::new(
                measurements
                    .iter()
                    .map(|m| (&m.answers[..], weight(m)))
                    .collect(),
            );
            lsqr_weighted(&m, &rhs, &LsqrOptions::default()).x
        }
        LsSolver::Direct => {
            let (m, y) = stack_measurements(measurements);
            direct_least_squares(&m, &y)
        }
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

/// Multiplicative-weights inference (MWEM's update; paper Table 1) over a
/// measurement history that grows round by round, from the uniform start
/// of mass `total`, the assumed dataset size.
///
/// MWEM re-infers after every round's measurement. This state keeps,
/// across the rounds, the column classes of the queries taken in so far
/// — a [`ColumnRefinement`] refined by each new query only — and their
/// answers stacked in order. While there are classes, a round neither
/// stacks the history into a union nor gathers its answers again: the
/// passes run on one value per class over the classes' reduced matrix,
/// and `x̂` ends as [`mult_weights`] on the stacked history from the
/// uniform start returns it, bit for bit. A query of a shape the
/// refinement does not take turns the classes off for the rest of the
/// history; without classes (that, or every column its own class) the
/// passes run over every cell of the stacked queries, to the same bits
/// as [`mult_weights`] too.
///
/// [`ColumnRefinement`]: ektelo_matrix::ColumnRefinement
/// [`mult_weights`]: ektelo_solvers::mult_weights
#[derive(Debug, Default)]
pub struct MwHistory {
    /// The classes' state, from the first query on; `None` before it.
    refinement: Option<ColumnRefinement>,
    /// Whether some query had a shape the refinement does not take: the
    /// classes are off for good.
    irreducible: bool,
    /// The classes of the queries so far, one value refreshed in place
    /// each round, so the `n` labels are not copied anew.
    classes: Option<ColumnClasses>,
    /// The queries and their answers so far, in order.
    queries: Vec<Matrix>,
    answers: Vec<f64>,
}

impl MwHistory {
    /// Takes in the new measurements of `history`, the whole history a
    /// loop reads each round (`ProtectedKernel::measurements_since` of
    /// one start): those past the ones earlier calls took in.
    ///
    /// `interval` is `Some((lo, hi))` when the last new measurement's
    /// query is the one-row interval of ones on `lo..hi`
    /// ([`CsrMatrix::interval_row`], MWEM's strategy on a range
    /// workload). The refinement then reads those public bounds instead
    /// of the row's stored entries; the classes are the same.
    ///
    /// [`CsrMatrix::interval_row`]: ektelo_matrix::CsrMatrix::interval_row
    pub fn extend(&mut self, history: &[MeasuredQuery], interval: Option<(usize, usize)>) {
        let new = &history[self.queries.len()..];
        for (k, m) in new.iter().enumerate() {
            self.queries.push(m.query.clone());
            self.answers.extend(m.answers.iter().copied());
            if self.irreducible {
                continue;
            }
            let r = self
                .refinement
                .get_or_insert_with(|| ColumnRefinement::new(m.query.cols(), None));
            match interval.filter(|_| k + 1 == new.len()) {
                Some((lo, hi)) => r.refine_interval(lo, hi),
                None => self.irreducible = r.refine(&m.query).is_none(),
            }
        }
        match self.refinement.as_ref().filter(|_| !self.irreducible) {
            Some(r) => r.refresh_classes(&mut self.classes),
            None => self.classes = None,
        }
    }

    /// The passes over the history taken in so far, from the uniform
    /// start, written into `x_hat`. `start` is
    /// [`mw_uniform_start`]`(n, total)`, the value every cell of the
    /// normalized uniform start takes; MWEM's loop computes it once per
    /// plan.
    ///
    /// # Panics
    ///
    /// If no measurement has been taken in.
    ///
    /// [`mw_uniform_start`]: ektelo_solvers::mw_uniform_start
    pub fn infer(&self, total: f64, start: f64, iterations: usize, x_hat: &mut [f64]) {
        // MW works on raw (unweighted) queries; it is scale-sensitive.
        assert!(!self.queries.is_empty(), "inference with no measurements");
        let opts = MwOptions { iterations, total };
        match &self.classes {
            Some(classes) => mult_weights_classes_into(classes, &self.answers, start, x_hat, &opts),
            None => {
                let m = Matrix::vstack(self.queries.clone());
                mult_weights_uniform_into(&m, &self.answers, start, x_hat, &opts);
            }
        }
    }
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
/// `W` is linear, so this evaluates `W d` with `d = x − x̂`. A (scaled)
/// Kronecker workload `c · (F₀ ⊗ R)` whose rest `R` has at least as many
/// rows as columns (such as the census `Prefix(Income)`,
/// `Prefix ⊗ [Total; I] ⊗ …`) is streamed, never forming `W d`: each
/// block `Cᵢ` of `C = (F₀ ⊗ I) d`, `cols(R)` values, adds `‖c · R Cᵢ‖²`
/// to the total through one workspace sized for `R`.
///
/// * With `F₀` a `Prefix`, `Suffix` or `Identity`, optionally scaled,
///   `Cᵢ` is built from `x` and `x̂` directly, in one running-sum buffer
///   (`acc += t − e`, the operation sequence the Kronecker engine's
///   running-sum kernel applies to `d`; an identity takes `t − e`), and
///   neither `d` nor `C` is formed. A `Suffix` runs from the last block
///   to the first, so its squares are summed in that order.
/// * With any other `F₀`, `d` and `C` are formed once each, with
///   `rows(F₀) · cols(R)` values for `C`, and the blocks are taken in
///   order.
///
/// Every other workload takes one product `W d` through a workspace that
/// reserves scratch for `W·v` alone. The value equals the two-product
/// form up to rounding: the difference of the cell values is rounded
/// instead of the difference of the answers, and the streamed form
/// applies the modes in another order. Both agree with `‖W x − W x̂‖` to a
/// relative 1e-12, and a workload that is not streamed gets exactly the
/// bits of `‖W d‖`.
///
/// # Panics
///
/// If `x_true` and `x_hat` differ in length, or their length is not the
/// workload's column count.
pub fn scaled_per_query_l2_error(
    workload: &Matrix,
    x_true: &[f64],
    x_hat: &[f64],
    scale: f64,
) -> f64 {
    assert_eq!(
        x_true.len(),
        x_hat.len(),
        "error check: x and x̂ differ in length"
    );
    assert_eq!(
        x_true.len(),
        workload.cols(),
        "error check: x does not match the workload's columns"
    );
    let diff = || -> Vec<f64> { x_true.iter().zip(x_hat).map(|(t, e)| t - e).collect() };
    let sq = match streamed_split(workload) {
        Some((c, f0, rest)) => {
            let mut blocks = RestSquares::new(c, rest);
            let mut scales = Vec::new();
            match running_first(f0, &mut scales) {
                Some(first) => blocks.add_running(first, &scales, x_true, x_hat),
                None => {
                    let cols = blocks.rest.cols();
                    let mut panel = vec![0.0; f0.rows() * cols];
                    Matrix::kron(f0.clone(), Matrix::identity(cols)).matvec_into(
                        &diff(),
                        &mut panel,
                        &mut Workspace::new(),
                    );
                    for block in panel.chunks_exact(cols) {
                        blocks.add(block);
                    }
                }
            }
            blocks.sq
        }
        None => {
            let mut err = vec![0.0; workload.rows()];
            workload.matvec_into(&diff(), &mut err, &mut Workspace::new());
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

/// A first factor whose blocks `Cᵢ` the error check builds from `x` and
/// `x̂` in one running buffer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunningFirst {
    /// `Cᵢ = Σ_{j ≤ i} dⱼ`.
    Prefix,
    /// `Cᵢ = Σ_{j ≥ i} dⱼ`, built from the last block.
    Suffix,
    /// `Cᵢ = dᵢ`.
    Identity,
}

/// The kind of `f0` if it is a `Prefix`, `Suffix` or `Identity` under
/// any number of scalings, whose scales are appended to `scales`
/// innermost first (the order the engine applies them in); `None` for
/// any other factor.
fn running_first(f0: &Matrix, scales: &mut Vec<f64>) -> Option<RunningFirst> {
    match f0 {
        Matrix::Prefix { .. } => Some(RunningFirst::Prefix),
        Matrix::Suffix { .. } => Some(RunningFirst::Suffix),
        Matrix::Identity { .. } => Some(RunningFirst::Identity),
        Matrix::Scaled(c, a) => {
            let kind = running_first(a, scales)?;
            scales.push(*c);
            Some(kind)
        }
        _ => None,
    }
}

/// The streamed check's sum `Σᵢ ‖c · R Cᵢ‖²`, one block `Cᵢ` at a time.
struct RestSquares {
    c: f64,
    rest: Matrix,
    /// `R Cᵢ`.
    answers: Vec<f64>,
    ws: Workspace,
    sq: f64,
}

impl RestSquares {
    fn new(c: f64, rest: Matrix) -> Self {
        RestSquares {
            c,
            answers: vec![0.0; rest.rows()],
            rest,
            ws: Workspace::new(),
            sq: 0.0,
        }
    }

    /// Adds `‖c · R block‖²`, squares summed in row order.
    fn add(&mut self, block: &[f64]) {
        self.rest
            .matvec_into(block, &mut self.answers, &mut self.ws);
        for &a in &self.answers {
            let e = a * self.c;
            self.sq += e * e;
        }
    }

    /// Adds every block of `(F₀ ⊗ I) (x − x̂)` for a first factor of kind
    /// `first` under `scales`, building each block from `x` and `x̂` in
    /// one running buffer with the engine's operation sequence: the
    /// running sum starts from `0.0` and adds `t − e` (an identity takes
    /// `t − e` alone), and each scale then multiplies a copy of it.
    fn add_running(&mut self, first: RunningFirst, scales: &[f64], x_true: &[f64], x_hat: &[f64]) {
        let cols = self.rest.cols();
        let blocks = x_true.len() / cols;
        let mut acc = vec![0.0; cols];
        let mut scaled = vec![0.0; if scales.is_empty() { 0 } else { cols }];
        for step in 0..blocks {
            let i = match first {
                RunningFirst::Suffix => blocks - 1 - step,
                _ => step,
            };
            let (t, e) = (&x_true[i * cols..][..cols], &x_hat[i * cols..][..cols]);
            if first == RunningFirst::Identity {
                for ((a, &t), &e) in acc.iter_mut().zip(t).zip(e) {
                    *a = t - e;
                }
            } else {
                for ((a, &t), &e) in acc.iter_mut().zip(t).zip(e) {
                    *a += t - e;
                }
            }
            if scales.is_empty() {
                self.add(&acc);
            } else {
                scaled.copy_from_slice(&acc);
                for &c in scales {
                    ektelo_matrix::kernels::scale(&mut scaled, c);
                }
                self.add(&scaled);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ProtectedKernel;
    use ektelo_matrix::CsrMatrix;
    use ektelo_solvers::mw_uniform_start;

    fn measured(query: Matrix, answers: Vec<f64>, noise_scale: f64) -> MeasuredQuery {
        MeasuredQuery {
            base: ProtectedKernel::init_from_vector(vec![0.0], 1.0, 0).root(),
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
        let mut x = vec![0.0; 4];
        let mut history = MwHistory::default();
        history.extend(&ms, None);
        history.infer(4.0, mw_uniform_start(4, 4.0), 100, &mut x);
        assert!((x.iter().sum::<f64>() - 4.0).abs() < 1e-9);
        assert!(x[0] > 2.0, "{x:?}");
    }

    /// A history taken in round by round — by its queries, or by the
    /// public bounds of a last interval row — infers what `mult_weights`
    /// on the stack infers, bit for bit. So does a history that a query
    /// without classes turns to the per-cell loop.
    #[test]
    fn mw_over_kept_classes_is_mult_weights_on_the_stack() {
        let ms = [
            measured(Matrix::range_queries(8, vec![(0, 5)]), vec![6.0], 1.0),
            measured(Matrix::range_queries(8, vec![(3, 8)]), vec![2.0], 1.0),
            measured(
                Matrix::sparse(CsrMatrix::interval_row(8, 1, 4)),
                vec![3.5],
                1.0,
            ),
        ];
        let start = mw_uniform_start(8, 8.0);
        let opts = MwOptions {
            iterations: 50,
            total: 8.0,
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rounds in 1..=ms.len() {
            let stack = Matrix::vstack(ms[..rounds].iter().map(|m| m.query.clone()).collect());
            let y: Vec<f64> = ms[..rounds].iter().map(|m| m.answers[0]).collect();
            let want = ektelo_solvers::mult_weights(&stack, &y, &[1.0; 8], &opts);
            for interval in [None, Some((1, 4))] {
                let mut history = MwHistory::default();
                for r in 1..=rounds {
                    history.extend(&ms[..r], interval.filter(|_| r == 3));
                }
                let mut got = vec![f64::NAN; 8];
                history.infer(8.0, start, 50, &mut got);
                assert_eq!(bits(&got), bits(&want), "{rounds} rounds, {interval:?}");
            }
        }
        // A `Prefix` query has no classes: the passes run per cell, as
        // `mult_weights` runs them on the stack.
        let prefix = measured(Matrix::prefix(8), (1..=8).map(f64::from).collect(), 1.0);
        let ms = [ms[0].clone(), prefix];
        let mut history = MwHistory::default();
        history.extend(&ms[..1], None);
        history.extend(&ms, None);
        let mut got = vec![f64::NAN; 8];
        history.infer(8.0, start, 50, &mut got);
        let stack = Matrix::vstack(ms.iter().map(|m| m.query.clone()).collect());
        let y: Vec<f64> = ms.iter().flat_map(|m| m.answers.iter().copied()).collect();
        let want = ektelo_solvers::mult_weights(&stack, &y, &[1.0; 8], &opts);
        assert_eq!(bits(&got), bits(&want));
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
