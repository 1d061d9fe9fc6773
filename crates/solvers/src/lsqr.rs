//! LSQR (Paige & Saunders 1982): iterative least squares via Golub–Kahan
//! bidiagonalization.
//!
//! Solves `min_x ‖A x − b‖₂` touching `A` only through `matvec` and
//! `rmatvec`, so it runs unchanged on implicit matrices. The paper's
//! reference implementation uses LSMR (Fong & Saunders 2011). Both methods
//! build the same Krylov space and share the `O(k · Time(A))` complexity
//! that Fig. 5 measures. Started from `x₀ = 0` both converge to the same
//! minimum-norm least-squares solution, so the substitution changes when
//! the iteration stops, not what it converges to.

use std::ops::Range;

use ektelo_matrix::{kernels, Matrix, Workspace};

use crate::tree::{kron_least_squares, TreeSolver};

/// Stopping parameters for [`lsqr`].
#[derive(Clone, Debug)]
pub struct LsqrOptions {
    /// Hard iteration cap, applied to each column component separately
    /// when [`lsqr`] splits a separable system. The paper observes
    /// convergence in far fewer than n iterations for well-conditioned
    /// strategies.
    pub max_iters: usize,
    /// Relative tolerance on the normal-equation residual `‖Aᵀr‖` (per
    /// component, relative to that component's norms, when split).
    pub atol: f64,
}

impl Default for LsqrOptions {
    fn default() -> Self {
        LsqrOptions {
            max_iters: 2000,
            atol: 1e-8,
        }
    }
}

/// Convergence report returned by [`lsqr`].
#[derive(Clone, Debug)]
pub struct LsqrResult {
    /// The least-squares solution estimate.
    pub x: Vec<f64>,
    /// Number of bidiagonalization steps performed. For a system solved
    /// one column component at a time (see [`lsqr`]) this is the sum of
    /// the components' steps, each of which touches only that component;
    /// a component solved exactly by the tree pass adds 0, and an exact
    /// Kronecker solve reports 0.
    pub iterations: usize,
}

/// A right-hand side held in place as blocks of answers, each read with
/// its weight: `b = [w₀·a₀; w₁·a₁; …]`, the stacked form of measurements
/// weighted by their inverse noise scales (paper §5.5).
///
/// A solve forms each value as `a * w` where it reads it, the same f64
/// product a stacked, weighted copy holds, so [`lsqr_weighted`] returns
/// the bits [`lsqr`] returns on that copy without the copy being made.
#[derive(Clone, Debug)]
pub struct WeightedRhs<'a> {
    /// Each block's answers and weight, in row order.
    blocks: Vec<(&'a [f64], f64)>,
    /// Each block's first row, then the total row count.
    starts: Vec<usize>,
}

impl<'a> WeightedRhs<'a> {
    /// The right-hand side stacking `blocks` of `(answers, weight)` in
    /// order.
    pub fn new(blocks: Vec<(&'a [f64], f64)>) -> Self {
        let mut starts = Vec::with_capacity(blocks.len() + 1);
        let mut rows = 0;
        starts.push(rows);
        for (answers, _) in &blocks {
            rows += answers.len();
            starts.push(rows);
        }
        WeightedRhs { blocks, starts }
    }

    /// The number of rows.
    fn rows(&self) -> usize {
        self.starts[self.blocks.len()]
    }

    /// The answers and weight of a right-hand side of one block.
    pub(crate) fn single(&self) -> Option<(&'a [f64], f64)> {
        match self.blocks[..] {
            [block] => Some(block),
            _ => None,
        }
    }

    /// Every row, weighted, as one vector.
    pub(crate) fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows());
        self.extend_rows(0..self.rows(), &mut out);
        out
    }

    /// Appends rows `rows`, each formed as `a * w`, to `out`.
    fn extend_rows(&self, rows: Range<usize>, out: &mut Vec<f64>) {
        // The last block starting at or before `rows.start` holds it
        // (empty blocks before it share its start).
        let mut k = self.starts.partition_point(|&s| s <= rows.start) - 1;
        let mut r = rows.start;
        while r < rows.end {
            let (answers, w) = self.blocks[k];
            let start = self.starts[k];
            let end = rows.end.min(self.starts[k + 1]);
            out.extend(answers[r - start..end - start].iter().map(|&a| a * w));
            r = end;
            k += 1;
        }
    }
}

/// Solves `min_x ‖Ax − b‖₂` with LSQR: [`lsqr_weighted`] on `b` as one
/// block of weight 1 (`b * 1.0` is `b` bit for bit).
///
/// A single (scaled) Kronecker measurement whose factors are each an
/// identity or a weighted interval hierarchy — HB-Striped's
/// `I ⊗ HB ⊗ I`, EKTELO Algorithm 6 — is solved exactly first, mode by
/// mode, because `(A₁ ⊗ … ⊗ A_d)⁺ = A₁⁺ ⊗ … ⊗ A_d⁺`: each hierarchy mode
/// builds one tree pass and applies it to every fiber along that mode,
/// and the result, reported with 0 iterations, is the minimum-norm
/// solution the loop converges to. Any other Kronecker shape (a dense
/// factor, a union of several Kronecker blocks) runs the loop below
/// unchanged.
///
/// A block-separable system — a union whose blocks fall into several
/// column-disjoint groups ([`Matrix::column_components`]), the shape of
/// the striped plans' stacked lineage — is solved one component at a
/// time, in ascending first-column order, and each component's solution
/// is scattered into `x`. From `x₀ = 0` LSQR converges to the
/// minimum-norm least-squares solution, and for a separable system that
/// is exactly the concatenation of the per-component ones; columns no
/// block touches stay 0. A component that is a weighted interval
/// hierarchy, optionally behind a partition (each stripe of HB- and
/// DAWA-Striped), gets that solution exactly from the `O(nodes)` tree
/// pass of [`crate::tree_least_squares`] instead of the loop, one pass
/// built and dropped per component. Every other
/// component runs the LSQR loop, and every other system, including a
/// separable one with a single component, runs one LSQR over the whole
/// matrix.
///
/// ```
/// use ektelo_matrix::Matrix;
/// use ektelo_solvers::{lsqr, LsqrOptions};
///
/// // Overdetermined, consistent: x = [1, 2] from three measurements.
/// let a = Matrix::vstack(vec![Matrix::identity(2), Matrix::total(2)]);
/// let r = lsqr(&a, &[1.0, 2.0, 3.0], &LsqrOptions::default());
/// assert!((r.x[0] - 1.0).abs() < 1e-8 && (r.x[1] - 2.0).abs() < 1e-8);
/// ```
pub fn lsqr(a: &Matrix, b: &[f64], opts: &LsqrOptions) -> LsqrResult {
    lsqr_weighted(a, &WeightedRhs::new(vec![(b, 1.0)]), opts)
}

/// [`lsqr`] with the right-hand side read in place from weighted blocks
/// of answers ([`WeightedRhs`]): the result is [`lsqr`]'s on the stacked,
/// weighted copy, bit for bit.
///
/// The exact Kronecker pass reads a one-block right-hand side where it
/// lies. Every other path forms only the vector it works on: the loop's
/// starting vector `u₁ ∝ b` over the whole system, or one component's
/// rows at a time in a buffer all components share.
pub fn lsqr_weighted(a: &Matrix, b: &WeightedRhs<'_>, opts: &LsqrOptions) -> LsqrResult {
    let (m, n) = a.shape();
    assert_eq!(b.rows(), m, "lsqr: rhs length mismatch");

    if let Some(x) = kron_least_squares(a, b) {
        // The exact pass passes the solver fault site once.
        ektelo_matrix::failpoints::panic_if("solver::iteration");
        return LsqrResult { x, iterations: 0 };
    }
    let mut x = vec![0.0; n];
    let Some(components) = a.column_components() else {
        let mut u = b.to_vec();
        let iterations = lsqr_into(a, &mut u, &mut x, &mut Workspace::for_matrix(a), opts);
        return LsqrResult { x, iterations };
    };

    // One workspace for every component: its arena grows to the largest
    // component's requirement on first use.
    let mut ws = Workspace::new();
    let mut tree = TreeSolver::default();
    let mut iterations = 0;
    // A component's right-hand side, gathered from its row spans, and its
    // solution; both buffers serve every component.
    let (mut bc, mut xc) = (Vec::new(), Vec::new());
    for c in &components {
        bc.clear();
        for rows in &c.row_spans {
            b.extend_rows(rows.clone(), &mut bc);
        }
        xc.clear();
        xc.resize(c.cols.len(), 0.0);
        if tree.solve(&c.matrix, &bc, &mut xc).is_some() {
            // An exact component passes the solver fault site once.
            ektelo_matrix::failpoints::panic_if("solver::iteration");
        } else {
            iterations += lsqr_into(&c.matrix, &mut bc, &mut xc, &mut ws, opts);
        }
        for (&j, &v) in c.cols.iter().zip(&xc) {
            x[j] = v;
        }
    }
    LsqrResult { x, iterations }
}

/// The LSQR loop on one system: solves `min ‖Ax − b‖` into `x` (which
/// must be zero on entry) and returns the number of iterations. `u`
/// holds `b` on entry and serves as the loop's `u` vector.
fn lsqr_into(
    a: &Matrix,
    u: &mut [f64],
    x: &mut [f64],
    ws: &mut Workspace,
    opts: &LsqrOptions,
) -> usize {
    let (m, n) = a.shape();

    // Fixed iteration buffers plus the caller's workspace: the inner loop
    // below performs zero heap allocations (the paper's `O(k · Time(M))`
    // inference depends on the matvec being the only per-iteration cost).
    let mut av = vec![0.0; m];
    let mut atu = vec![0.0; n];

    // β₁ u₁ = b
    let mut beta = kernels::norm2(u);
    if beta == 0.0 {
        return 0;
    }
    kernels::scale(u, 1.0 / beta);

    // α₁ v₁ = Aᵀ u₁
    let mut v = vec![0.0; n];
    a.rmatvec_into(u, &mut v, ws);
    let mut alpha = kernels::norm2(&v);
    if alpha == 0.0 {
        return 0;
    }
    kernels::scale(&mut v, 1.0 / alpha);

    let mut w = v.clone();
    let mut phibar = beta;
    let mut rhobar = alpha;
    let norm_a0 = alpha; // grows with the bidiagonalization
    let mut norm_a = norm_a0;

    let mut iterations = 0;
    for it in 1..=opts.max_iters {
        iterations = it;
        // Injected solver blow-up (the `solver::iteration` failpoint).
        ektelo_matrix::failpoints::panic_if("solver::iteration");

        // Continue the bidiagonalization:
        //   β u = A v − α u ;  α v = Aᵀ u − β v
        a.matvec_into(&v, &mut av, ws);
        kernels::xpay(u, -alpha, &av);
        beta = kernels::norm2(u);
        if beta > 0.0 {
            kernels::scale(u, 1.0 / beta);
        }
        a.rmatvec_into(u, &mut atu, ws);
        kernels::xpay(&mut v, -beta, &atu);
        alpha = kernels::norm2(&v);
        if alpha > 0.0 {
            kernels::scale(&mut v, 1.0 / alpha);
        }
        norm_a = (norm_a * norm_a + beta * beta + alpha * alpha).sqrt();

        // Apply the next orthogonal rotation to the bidiagonal system.
        let rho = (rhobar * rhobar + beta * beta).sqrt();
        let c = rhobar / rho;
        let s = beta / rho;
        let theta = s * alpha;
        rhobar = -c * alpha;
        let phi = c * phibar;
        phibar *= s;

        // Update x and the search direction w.
        let t1 = phi / rho;
        let t2 = -theta / rho;
        // x must read w before xpay rewrites it in place.
        kernels::axpy(x, t1, &w);
        kernels::xpay(&mut w, t2, &v);

        // ‖Aᵀ r‖ estimate = φ̄ · α · |c|; stop when it is small relative to
        // ‖A‖·‖r‖ (standard LSQR criterion).
        let norm_ar = phibar * alpha * c.abs();
        if norm_ar <= opts.atol * norm_a * phibar.max(f64::MIN_POSITIVE) {
            break;
        }
    }

    iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_matrix::Matrix;

    #[test]
    fn exact_solve_identity() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let r = lsqr(&a, &b, &LsqrOptions::default());
        for (x, e) in r.x.iter().zip(&b) {
            assert!((x - e).abs() < 1e-8);
        }
    }

    #[test]
    fn solves_overdetermined_system() {
        // A = [I; Total], b consistent with x* = [1, 2, 3]
        let a = Matrix::vstack(vec![Matrix::identity(3), Matrix::total(3)]);
        let b = vec![1.0, 2.0, 3.0, 6.0];
        let r = lsqr(&a, &b, &LsqrOptions::default());
        for (x, e) in r.x.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((x - e).abs() < 1e-8, "{:?}", r.x);
        }
    }

    #[test]
    fn least_squares_of_inconsistent_system() {
        // Two measurements of the same scalar: x=1 and x=3 → LS solution 2,
        // whose residual is √((2 − 1)² + (2 − 3)²) = √2.
        let a = Matrix::from_rows(vec![vec![1.0], vec![1.0]]);
        let b = [1.0, 3.0];
        let r = lsqr(&a, &b, &LsqrOptions::default());
        assert!((r.x[0] - 2.0).abs() < 1e-10);
        let residual: Vec<f64> = a.matvec(&r.x).iter().zip(&b).map(|(p, q)| p - q).collect();
        assert!((kernels::norm2(&residual) - 2.0_f64.sqrt()).abs() < 1e-8);
    }

    #[test]
    fn matches_normal_equation_solution_on_random_system() {
        // Hierarchical strategy over n=16; solution must satisfy AᵀA x = Aᵀ b.
        let n = 16;
        let a = Matrix::vstack(vec![
            Matrix::identity(n),
            Matrix::wavelet(n),
            Matrix::total(n),
        ]);
        let b: Vec<f64> = (0..a.rows())
            .map(|i| ((i * 7919) % 13) as f64 - 6.0)
            .collect();
        let r = lsqr(&a, &b, &LsqrOptions::default());
        let residual: Vec<f64> = a.matvec(&r.x).iter().zip(&b).map(|(p, q)| p - q).collect();
        let grad = a.rmatvec(&residual);
        let gnorm = kernels::norm2(&grad);
        assert!(gnorm < 1e-6, "normal equations violated: ‖Aᵀr‖ = {gnorm}");
    }

    /// Kronecker shapes outside the exact pass run the LSQR loop exactly
    /// as it runs on its own.
    #[test]
    fn kron_shapes_outside_the_exact_pass_run_the_loop_unchanged() {
        let hier = || Matrix::range_queries(3, vec![(0, 3), (0, 1), (1, 2), (2, 3)]);
        let grouping = Matrix::sparse(ektelo_matrix::CsrMatrix::from_triplets(
            3,
            4,
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (2, 3, 1.0)],
        ));
        let cases = [
            // A dense factor.
            Matrix::kron(
                Matrix::from_rows(vec![vec![1.0, 2.0], vec![0.5, -1.0]]),
                hier(),
            ),
            // Two Kronecker blocks stacked.
            Matrix::vstack(vec![
                Matrix::kron(hier(), Matrix::identity(2)),
                Matrix::kron(Matrix::identity(3), Matrix::total(2)),
            ]),
            // Identities only.
            Matrix::scaled(2.0, Matrix::kron(Matrix::identity(2), Matrix::identity(3))),
            // A hierarchy behind a partition.
            Matrix::kron(Matrix::identity(2), Matrix::product(hier(), grouping)),
            // Crossing intervals.
            Matrix::kron(
                Matrix::range_queries(3, vec![(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]),
                Matrix::identity(2),
            ),
            // A Kronecker measurement behind a lineage.
            Matrix::product(
                Matrix::kron(hier(), Matrix::identity(2)),
                Matrix::from_rows(
                    (0..6)
                        .map(|i| (0..6).map(|j| f64::from(u8::from(i == j))).collect())
                        .collect(),
                ),
            ),
        ];
        for a in &cases {
            let b: Vec<f64> = (0..a.rows())
                .map(|i| ((i * 37) % 11) as f64 - 4.0)
                .collect();
            assert!(kron_least_squares(a, &WeightedRhs::new(vec![(&b, 1.0)])).is_none());
            let opts = LsqrOptions::default();
            let r = lsqr(a, &b, &opts);
            let mut x = vec![0.0; a.cols()];
            let iterations = lsqr_into(
                a,
                &mut b.clone(),
                &mut x,
                &mut Workspace::for_matrix(a),
                &opts,
            );
            assert!(iterations > 0);
            assert_eq!(r.iterations, iterations);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&r.x), bits(&x), "{a:?}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = Matrix::prefix(5);
        let r = lsqr(&a, &[0.0; 5], &LsqrOptions::default());
        assert_eq!(r.x, vec![0.0; 5]);
        assert_eq!(r.iterations, 0);
    }
}
