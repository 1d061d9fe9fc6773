//! CGLS: conjugate gradient on the normal equations `AᵀA x = Aᵀ b`.
//!
//! A second, independently derived iterative least-squares solver. It is
//! mathematically equivalent to LSQR in exact arithmetic; we keep both so
//! that tests can cross-validate one against the other and so the benchmark
//! harness can report solver-choice sensitivity.

use ektelo_matrix::{Matrix, Workspace};

use crate::lsqr::{LsqrOptions, LsqrResult};
use crate::util::{axpy, dot, norm2, xpay};

/// Solves `min_x ‖Ax − b‖₂` with CGLS. Options and result types are shared
/// with [`crate::lsqr()`].
pub fn cgls(a: &Matrix, b: &[f64], opts: &LsqrOptions) -> LsqrResult {
    let (m, n) = a.shape();
    assert_eq!(b.len(), m, "cgls: rhs length mismatch");

    let mut x = vec![0.0; n];

    // One workspace + fixed buffers: the inner loop is allocation-free.
    let mut ws = Workspace::for_matrix(a);
    let mut q = vec![0.0; m];

    let mut r = b.to_vec(); // r = b − A x (x = 0)
    let mut s = vec![0.0; n]; // s = Aᵀ r
    a.rmatvec_into(&r, &mut s, &mut ws);
    let mut p = s.clone();
    let mut gamma: f64 = dot(&s, &s);
    let gamma0 = gamma;
    if gamma == 0.0 {
        let rn = norm2(&r);
        return LsqrResult {
            x,
            iterations: 0,
            residual_norm: rn,
        };
    }

    let mut iterations = 0;
    for it in 1..=opts.max_iters {
        iterations = it;
        // Injected solver blow-up (numerical divergence has no error
        // channel here — the executor maps the unwind to a typed error).
        ektelo_matrix::failpoints::panic_if("solver::iteration");
        a.matvec_into(&p, &mut q, &mut ws);
        let qq = dot(&q, &q);
        if qq == 0.0 {
            break;
        }
        let alpha = gamma / qq;
        axpy(&mut x, alpha, &p);
        axpy(&mut r, -alpha, &q);
        a.rmatvec_into(&r, &mut s, &mut ws);
        let gamma_new = dot(&s, &s);
        if gamma_new <= opts.atol * opts.atol * gamma0 {
            gamma = gamma_new;
            break;
        }
        let beta = gamma_new / gamma;
        gamma = gamma_new;
        xpay(&mut p, beta, &s);
    }
    let _ = gamma;

    LsqrResult {
        x,
        iterations,
        residual_norm: norm2(&r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsqr::lsqr;
    use ektelo_matrix::Matrix;

    #[test]
    fn agrees_with_lsqr_on_hierarchical_strategy() {
        let n = 32;
        let a = Matrix::vstack(vec![Matrix::identity(n), Matrix::wavelet(n)]);
        let b: Vec<f64> = (0..a.rows())
            .map(|i| ((i * 2654435761) % 97) as f64 / 10.0)
            .collect();
        let opts = LsqrOptions::default();
        let x1 = cgls(&a, &b, &opts).x;
        let x2 = lsqr(&a, &b, &opts).x;
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-6, "cgls {u} vs lsqr {v}");
        }
    }

    #[test]
    fn simple_average() {
        let a = Matrix::from_rows(vec![vec![1.0], vec![1.0], vec![1.0]]);
        let r = cgls(&a, &[3.0, 6.0, 0.0], &LsqrOptions::default());
        assert!((r.x[0] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn zero_matrix_short_circuits() {
        let a = Matrix::sparse(ektelo_matrix::CsrMatrix::zeros(3, 2));
        let r = cgls(&a, &[1.0, 2.0, 3.0], &LsqrOptions::default());
        assert_eq!(r.x, vec![0.0, 0.0]);
        assert_eq!(r.iterations, 0);
    }
}
