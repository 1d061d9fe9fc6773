//! Power iteration on `AᵀA` for spectral-norm estimation.
//!
//! Used to pick the gradient step size in [`crate::nnls()`]. Deterministic:
//! starts from an all-ones vector with a fixed perturbation so results are
//! reproducible without threading an RNG through the solvers.

use ektelo_matrix::{Matrix, Workspace};

use crate::util::normalize_l2;

/// Estimates `‖A‖₂` (largest singular value) with `iters` rounds of power
/// iteration on `AᵀA`. The estimate converges from below; callers using it
/// for step sizes should add a small safety margin (we return a 1%-inflated
/// value for exactly that reason).
pub fn spectral_norm_estimate(a: &Matrix, iters: usize) -> f64 {
    let n = a.cols();
    if n == 0 || a.rows() == 0 {
        return 0.0;
    }
    // Fixed pseudo-random start vector to avoid orthogonal-start stalls.
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.01 * (((i as u64).wrapping_mul(2654435761) % 97) as f64 / 97.0))
        .collect();
    normalize_l2(&mut v);

    // One workspace + fixed buffers: the iteration is allocation-free.
    let mut ws = Workspace::for_matrix(a);
    let mut av = vec![0.0; a.rows()];
    let mut atav = vec![0.0; n];

    let mut sigma = 0.0;
    for _ in 0..iters.max(1) {
        a.matvec_into(&v, &mut av, &mut ws);
        a.rmatvec_into(&av, &mut atav, &mut ws);
        let norm = normalize_l2(&mut atav);
        if norm == 0.0 {
            return 0.0;
        }
        sigma = norm.sqrt();
        std::mem::swap(&mut v, &mut atav);
    }
    sigma * 1.01
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_matrix::Matrix;

    #[test]
    fn identity_has_unit_norm() {
        let s = spectral_norm_estimate(&Matrix::identity(16), 30);
        assert!((s - 1.0).abs() < 0.02, "estimate {s}");
    }

    #[test]
    fn diagonal_norm_is_max_entry() {
        let s = spectral_norm_estimate(&Matrix::diagonal(vec![0.5, 3.0, 1.0]), 60);
        assert!((s - 3.0).abs() < 0.05, "estimate {s}");
    }

    #[test]
    fn total_query_norm_is_sqrt_n() {
        // ‖1ₙᵀ‖₂ = √n
        let s = spectral_norm_estimate(&Matrix::total(25), 30);
        assert!((s - 5.0).abs() < 0.1, "estimate {s}");
    }

    #[test]
    fn zero_matrix() {
        let s = spectral_norm_estimate(
            &Matrix::sparse(ektelo_matrix::CsrMatrix::from_triplets(3, 3, &[])),
            10,
        );
        assert_eq!(s, 0.0);
    }
}
