//! Edge cases and cross-solver consistency for the numerical substrate.

use ektelo_matrix::{CsrMatrix, Matrix};
use ektelo_solvers::{
    direct_least_squares, lsqr, mult_weights, nnls, spectral_norm_estimate, LsqrOptions, MwOptions,
    NnlsOptions,
};
use proptest::prelude::*;

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[test]
fn wide_underdetermined_system_gets_min_norm_solution() {
    // One equation, many unknowns: x₁ + x₂ + x₃ + x₄ = 8. LSQR from zero
    // converges to the minimum-norm solution (uniform split).
    let a = Matrix::total(4);
    let r = lsqr(&a, &[8.0], &LsqrOptions::default());
    for xi in &r.x {
        assert!((xi - 2.0).abs() < 1e-8, "{:?}", r.x);
    }
}

#[test]
fn single_cell_domain() {
    let a = Matrix::identity(1);
    assert!((lsqr(&a, &[3.5], &LsqrOptions::default()).x[0] - 3.5).abs() < 1e-12);
    assert!((nnls(&a, &[-3.5], &NnlsOptions::default())[0]).abs() < 1e-9);
    assert!((spectral_norm_estimate(&a, 10) - 1.0).abs() < 0.05);
}

#[test]
fn nnls_all_negative_rhs_is_zero() {
    let a = Matrix::vstack(vec![Matrix::identity(5), Matrix::total(5)]);
    let y = vec![-1.0; 6];
    let x = nnls(&a, &y, &NnlsOptions::default());
    assert!(norm(&x) < 1e-8, "{x:?}");
}

#[test]
fn mw_zero_iterations_returns_normalized_start() {
    let m = Matrix::identity(3);
    let x = mult_weights(
        &m,
        &[1.0, 2.0, 3.0],
        &[1.0, 1.0, 2.0],
        &MwOptions {
            iterations: 0,
            total: 8.0,
        },
    );
    assert!((x.iter().sum::<f64>() - 8.0).abs() < 1e-12);
    assert!(
        (x[2] / x[0] - 2.0).abs() < 1e-12,
        "relative shape preserved"
    );
}

#[test]
fn iteration_cap_is_respected() {
    let a = Matrix::vstack(vec![Matrix::prefix(64), Matrix::identity(64)]);
    let b: Vec<f64> = (0..a.rows()).map(|i| (i % 7) as f64).collect();
    let r = lsqr(
        &a,
        &b,
        &LsqrOptions {
            max_iters: 3,
            atol: 0.0,
        },
    );
    assert!(r.iterations <= 3);
}

#[test]
fn direct_solver_handles_rectangular_tall_systems() {
    let a = Matrix::vstack(vec![Matrix::identity(3); 4]); // 12×3
    let mut b = Vec::new();
    for _ in 0..4 {
        b.extend_from_slice(&[1.0, 2.0, 3.0]);
    }
    let x = direct_least_squares(&a, &b);
    for (xi, e) in x.iter().zip(&[1.0, 2.0, 3.0]) {
        assert!((xi - e).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LSQR and the direct Cholesky solver agree on random full-rank
    /// systems.
    #[test]
    fn lsqr_agrees_with_direct_solver(
        diag in prop::collection::vec(0.5f64..4.0, 4..10),
        rhs_scale in -5.0f64..5.0,
    ) {
        let n = diag.len();
        let a = Matrix::vstack(vec![
            Matrix::diagonal(diag),
            Matrix::total(n),
        ]);
        let b: Vec<f64> = (0..a.rows()).map(|i| rhs_scale * ((i % 3) as f64 - 1.0)).collect();
        let x1 = lsqr(&a, &b, &LsqrOptions::default()).x;
        let x2 = direct_least_squares(&a, &b);
        for i in 0..n {
            prop_assert!((x1[i] - x2[i]).abs() < 1e-5, "lsqr vs direct at {i}");
        }
    }

    /// The LS residual is orthogonal to the column space: ‖Aᵀr‖ ≈ 0.
    #[test]
    fn normal_equations_hold(b in prop::collection::vec(-10.0f64..10.0, 12)) {
        let a = Matrix::vstack(vec![Matrix::identity(8), Matrix::range_queries(8, vec![(0,4),(4,8),(0,8),(2,6)])]);
        let r = lsqr(&a, &b, &LsqrOptions::default());
        let res: Vec<f64> = a.matvec(&r.x).iter().zip(&b).map(|(p, q)| p - q).collect();
        let grad = a.rmatvec(&res);
        prop_assert!(norm(&grad) < 1e-5 * (1.0 + norm(&b)), "‖Aᵀr‖ = {}", norm(&grad));
    }

    /// NNLS output is always feasible and never worse than the zero
    /// vector.
    #[test]
    fn nnls_feasible_and_useful(b in prop::collection::vec(-10.0f64..10.0, 8)) {
        let a = Matrix::vstack(vec![Matrix::identity(4), Matrix::identity(4)]);
        let x = nnls(&a, &b, &NnlsOptions::default());
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        let res_x: Vec<f64> = a.matvec(&x).iter().zip(&b).map(|(p, q)| p - q).collect();
        prop_assert!(norm(&res_x) <= norm(&b) + 1e-9);
    }

    /// Spectral-norm estimate is a lower bound (within tolerance) of the
    /// true largest singular value for diagonal matrices.
    #[test]
    fn power_iteration_bounds(diag in prop::collection::vec(0.1f64..9.0, 2..12)) {
        let true_norm = diag.iter().cloned().fold(0.0, f64::max);
        let a = Matrix::diagonal(diag);
        let est = spectral_norm_estimate(&a, 80);
        prop_assert!(est <= true_norm * 1.02 + 1e-9, "overshoot: {est} vs {true_norm}");
        prop_assert!(est >= true_norm * 0.8, "undershoot: {est} vs {true_norm}");
    }
}

#[test]
fn sparse_zero_rows_do_not_break_solvers() {
    // A strategy with an all-zero row (degenerate but representable).
    let m = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (2, 1, 1.0)]);
    let a = Matrix::sparse(m);
    let r = lsqr(&a, &[5.0, 0.0, 7.0], &LsqrOptions::default());
    assert!((r.x[0] - 5.0).abs() < 1e-9);
    assert!((r.x[1] - 7.0).abs() < 1e-9);
}
