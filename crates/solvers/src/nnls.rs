//! Non-negative least squares via FISTA projected gradient.
//!
//! Solves `min_{x ⪰ 0} ‖Ax − y‖₂²` (paper Definition 5.2). The paper's
//! implementation uses limited-memory BFGS with bound constraints; we use
//! Nesterov-accelerated projected gradient (FISTA), which touches `A` only
//! through `matvec`/`rmatvec` — the same primitive footprint — and
//! converges to the same constrained optimum at `O(1/k²)` rate. The step
//! size comes from a power-iteration estimate of `‖A‖₂²` (the gradient's
//! Lipschitz constant).

use ektelo_matrix::{kernels, Matrix, Workspace};

use crate::power::spectral_norm_estimate;

/// Options for [`nnls`].
#[derive(Clone, Debug)]
pub struct NnlsOptions {
    /// Iteration cap.
    pub max_iters: usize,
    /// Stop when the projected-gradient norm falls below
    /// `tol · ‖Aᵀy‖` (scale-free).
    pub tol: f64,
}

impl Default for NnlsOptions {
    fn default() -> Self {
        NnlsOptions {
            max_iters: 2000,
            tol: 1e-8,
        }
    }
}

/// Solves `min_{x ⪰ 0} ‖Ax − y‖₂`.
pub fn nnls(a: &Matrix, y: &[f64], opts: &NnlsOptions) -> Vec<f64> {
    let (m, n) = a.shape();
    assert_eq!(y.len(), m, "nnls: rhs length mismatch");

    let lipschitz = {
        let s = spectral_norm_estimate(a, 50);
        // Guard against degenerate estimates on zero matrices.
        (s * s).max(f64::MIN_POSITIVE)
    };
    let step = 1.0 / lipschitz;

    // One workspace + fixed buffers: the FISTA loop is allocation-free.
    let mut ws = Workspace::for_matrix(a);
    let mut r = vec![0.0; m];
    let mut grad = vec![0.0; n];

    let mut aty = vec![0.0; n];
    a.rmatvec_into(y, &mut aty, &mut ws);
    let grad_scale = kernels::norm2(&aty);
    if grad_scale == 0.0 {
        return vec![0.0; n];
    }

    let mut x = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    let mut z = x.clone(); // extrapolated point
    let mut t = 1.0f64;

    for _ in 0..opts.max_iters {
        // ∇f(z) = Aᵀ(Az − y)
        a.matvec_into(&z, &mut r, &mut ws);
        kernels::axpy(&mut r, -1.0, y);
        a.rmatvec_into(&r, &mut grad, &mut ws);

        // Projected gradient step from z.
        for i in 0..n {
            x_new[i] = (z[i] - step * grad[i]).max(0.0);
        }

        // Convergence: projected gradient at the new point.
        let pg: f64 = (0..n)
            .map(|i| {
                if x_new[i] > 0.0 {
                    grad[i] * grad[i]
                } else {
                    grad[i].min(0.0).powi(2)
                }
            })
            .sum::<f64>()
            .sqrt();

        // Nesterov momentum.
        let t_new = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_new;
        for i in 0..n {
            z[i] = x_new[i] + beta * (x_new[i] - x[i]);
        }
        t = t_new;
        std::mem::swap(&mut x, &mut x_new);

        if pg <= opts.tol * grad_scale {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_matrix::Matrix;

    #[test]
    fn unconstrained_optimum_reached_when_nonnegative() {
        let a = Matrix::identity(3);
        let y = [1.0, 2.0, 3.0];
        let x = nnls(&a, &y, &NnlsOptions::default());
        for (xi, yi) in x.iter().zip(&y) {
            assert!((xi - yi).abs() < 1e-6, "{x:?}");
        }
    }

    #[test]
    fn negative_observations_clamped() {
        let a = Matrix::identity(3);
        let x = nnls(&a, &[-5.0, 2.0, -0.1], &NnlsOptions::default());
        assert!(x[0].abs() < 1e-8);
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!(x[2].abs() < 1e-8);
    }

    #[test]
    fn all_coordinates_nonnegative_on_noisy_hierarchy() {
        let n = 16;
        let a = Matrix::vstack(vec![Matrix::identity(n), Matrix::total(n)]);
        let y: Vec<f64> = (0..a.rows())
            .map(|i| if i % 3 == 0 { -2.0 } else { (i % 5) as f64 })
            .collect();
        let x = nnls(&a, &y, &NnlsOptions::default());
        assert!(x.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn matches_kkt_conditions() {
        // At the optimum: grad_i ≥ 0 where x_i = 0, grad_i ≈ 0 where x_i > 0.
        let a = Matrix::vstack(vec![Matrix::prefix(8), Matrix::identity(8)]);
        let y: Vec<f64> = (0..a.rows()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let x = nnls(
            &a,
            &y,
            &NnlsOptions {
                max_iters: 20_000,
                tol: 1e-12,
            },
        );
        let mut r = a.matvec(&x);
        for (ri, &yi) in r.iter_mut().zip(&y) {
            *ri -= yi;
        }
        let grad = a.rmatvec(&r);
        for (i, (&xi, &gi)) in x.iter().zip(&grad).enumerate() {
            if xi > 1e-9 {
                assert!(gi.abs() < 1e-4, "active coordinate {i} has gradient {gi}");
            } else {
                assert!(gi > -1e-4, "inactive coordinate {i} has gradient {gi}");
            }
        }
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let a = Matrix::prefix(4);
        let x = nnls(&a, &[0.0; 4], &NnlsOptions::default());
        assert_eq!(x, vec![0.0; 4]);
    }
}
