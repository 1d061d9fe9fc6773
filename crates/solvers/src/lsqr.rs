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

use ektelo_matrix::{Matrix, Workspace};

use crate::tree::TreeSolver;
use crate::util::{axpy, norm2, scale, xpay};

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
    /// a component solved exactly by the tree pass adds 0.
    pub iterations: usize,
    /// Final residual norm estimate `‖Ax − b‖₂`. For a system solved one
    /// column component at a time this is `√(Σ rₖ²)` over the components'
    /// residuals rₖ (their row sets partition the rows of `A`): LSQR's
    /// estimate φ̄ₖ, or the exact `‖Aₖxₖ − bₖ‖` of a component the tree
    /// pass solved.
    pub residual_norm: f64,
}

/// Solves `min_x ‖Ax − b‖₂` with LSQR.
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
/// pass of [`crate::tree_least_squares`] instead of the loop; a hierarchy
/// shared by several components is built once per call, one used by a
/// single component is dropped after its solve. Every other
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
    let (m, n) = a.shape();
    assert_eq!(b.len(), m, "lsqr: rhs length mismatch");

    let mut x = vec![0.0; n];
    let Some(components) = a.column_components() else {
        let (iterations, residual_norm) =
            lsqr_into(a, b, &mut x, &mut Workspace::for_matrix(a), opts);
        return LsqrResult {
            x,
            iterations,
            residual_norm,
        };
    };

    // One workspace for every component: its arena grows to the largest
    // component's requirement on first use.
    let mut ws = Workspace::new();
    let mut tree = TreeSolver::new(components.iter().map(|c| &c.matrix));
    let mut iterations = 0;
    let mut residual_sq = 0.0;
    for c in &components {
        let bc: Vec<f64> = c
            .row_spans
            .iter()
            .flat_map(|r| b[r.clone()].iter().copied())
            .collect();
        let mut xc = vec![0.0; c.cols.len()];
        if let Some(r_sq) = tree.solve(&c.matrix, &bc, &mut xc) {
            // An exact component passes the solver fault site once.
            ektelo_matrix::failpoints::panic_if("solver::iteration");
            residual_sq += r_sq;
        } else {
            let (it, phibar) = lsqr_into(&c.matrix, &bc, &mut xc, &mut ws, opts);
            iterations += it;
            residual_sq += phibar * phibar;
        }
        for (&j, &v) in c.cols.iter().zip(&xc) {
            x[j] = v;
        }
    }
    LsqrResult {
        x,
        iterations,
        residual_norm: residual_sq.sqrt(),
    }
}

/// The LSQR loop on one system: solves `min ‖Ax − b‖` into `x` (which
/// must be zero on entry) and returns `(iterations, φ̄)`, φ̄ being the
/// final residual-norm estimate.
fn lsqr_into(
    a: &Matrix,
    b: &[f64],
    x: &mut [f64],
    ws: &mut Workspace,
    opts: &LsqrOptions,
) -> (usize, f64) {
    let (m, n) = a.shape();

    // Fixed iteration buffers plus the caller's workspace: the inner loop
    // below performs zero heap allocations (the paper's `O(k · Time(M))`
    // inference depends on the matvec being the only per-iteration cost).
    let mut av = vec![0.0; m];
    let mut atu = vec![0.0; n];

    // β₁ u₁ = b
    let mut u = b.to_vec();
    let mut beta = norm2(&u);
    if beta == 0.0 {
        return (0, 0.0);
    }
    scale(&mut u, 1.0 / beta);

    // α₁ v₁ = Aᵀ u₁
    let mut v = vec![0.0; n];
    a.rmatvec_into(&u, &mut v, ws);
    let mut alpha = norm2(&v);
    if alpha == 0.0 {
        return (0, beta);
    }
    scale(&mut v, 1.0 / alpha);

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
        xpay(&mut u, -alpha, &av);
        beta = norm2(&u);
        if beta > 0.0 {
            scale(&mut u, 1.0 / beta);
        }
        a.rmatvec_into(&u, &mut atu, ws);
        xpay(&mut v, -beta, &atu);
        alpha = norm2(&v);
        if alpha > 0.0 {
            scale(&mut v, 1.0 / alpha);
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
        axpy(x, t1, &w);
        xpay(&mut w, t2, &v);

        // ‖Aᵀ r‖ estimate = φ̄ · α · |c|; stop when it is small relative to
        // ‖A‖·‖r‖ (standard LSQR criterion).
        let norm_ar = phibar * alpha * c.abs();
        if norm_ar <= opts.atol * norm_a * phibar.max(f64::MIN_POSITIVE) {
            break;
        }
    }

    (iterations, phibar)
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
        // Two measurements of the same scalar: x=1 and x=3 → LS solution 2.
        let a = Matrix::from_rows(vec![vec![1.0], vec![1.0]]);
        let r = lsqr(&a, &[1.0, 3.0], &LsqrOptions::default());
        assert!((r.x[0] - 2.0).abs() < 1e-10);
        assert!((r.residual_norm - 2.0_f64.sqrt()).abs() < 1e-8);
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
        let gnorm = norm2(&grad);
        assert!(gnorm < 1e-6, "normal equations violated: ‖Aᵀr‖ = {gnorm}");
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = Matrix::prefix(5);
        let r = lsqr(&a, &[0.0; 5], &LsqrOptions::default());
        assert_eq!(r.x, vec![0.0; 5]);
        assert_eq!(r.iterations, 0);
    }
}
