//! Property tests for the paper's analytical claims: lossless
//! workload-based reduction (Prop. 8.3), error monotonicity of reduction
//! (Thm. 8.4, spot-checked), and never-hurts inference (Thm. 5.3).

use ektelo::core::kernel::ProtectedKernel;
use ektelo::core::ops::inference::{least_squares, LsSolver};
use ektelo::core::ops::partition::{workload_based_partition, workload_reduction};
use ektelo::matrix::Matrix;
use proptest::prelude::*;

fn arb_range_workload(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec((0usize..n, 1usize..=n / 2), 1..12).prop_map(move |pairs| {
        let ranges: Vec<(usize, usize)> = pairs
            .into_iter()
            .map(|(lo, len)| {
                let lo = lo.min(n - 1);
                (lo, (lo + len).min(n).max(lo + 1))
            })
            .collect();
        Matrix::range_queries(n, ranges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Prop. 8.3: W x = W' x' for x' = P x, W' = W P⁺ — exactly, for any
    /// range workload and any data.
    #[test]
    fn reduction_is_lossless(
        w in arb_range_workload(24),
        x in prop::collection::vec(0.0f64..50.0, 24),
    ) {
        let (p, w_red) = workload_reduction(&w, 5);
        let x_red = p.matvec(&x);
        let full = w.matvec(&x);
        let red = w_red.matvec(&x_red);
        for (a, b) in full.iter().zip(&red) {
            prop_assert!((a - b).abs() < 1e-8, "lossless violated: {a} vs {b}");
        }
    }

    /// Algorithm 4 groups exactly the identical columns (verified against
    /// brute-force column comparison on the dense form).
    #[test]
    fn algorithm_4_matches_bruteforce(w in arb_range_workload(16)) {
        let p = workload_based_partition(&w, 9);
        let d = w.to_dense();
        // Brute force: group columns by exact equality.
        let mut seen: Vec<Vec<f64>> = Vec::new();
        let mut labels = Vec::new();
        for j in 0..16 {
            let col: Vec<f64> = (0..d.rows()).map(|i| d.get(i, j)).collect();
            let idx = seen.iter().position(|c| c == &col).unwrap_or_else(|| {
                seen.push(col.clone());
                seen.len() - 1
            });
            labels.push(idx);
        }
        prop_assert_eq!(p.rows(), seen.len(), "group count mismatch");
        // Same grouping structure: columns with equal labels must share a
        // group in P.
        let pd = p.to_dense();
        let group_of = |j: usize| (0..p.rows()).find(|&g| pd.get(g, j) == 1.0).unwrap();
        for a in 0..16 {
            for b in 0..16 {
                prop_assert_eq!(
                    labels[a] == labels[b],
                    group_of(a) == group_of(b),
                    "columns {} and {} grouped inconsistently", a, b
                );
            }
        }
    }

    /// Thm. 5.3 (analytic): adding measurements never increases the
    /// *expected* least-squares error `q (MᵀΛM)⁻¹ qᵀ` of any query, for
    /// random strategies and random extensions. Exact — no sampling noise.
    #[test]
    fn extra_measurements_never_hurt(
        q_coeffs in prop::collection::vec(-3.0f64..3.0, 6),
        extra_rows in prop::collection::vec(
            prop::collection::vec(-2.0f64..2.0, 6), 1..4),
        weight in 0.05f64..5.0,
    ) {
        use ektelo::matrix::DenseMatrix;
        use ektelo::solvers::{cholesky_factor, cholesky_solve};

        // Base strategy: identity with unit precision.
        let base = Matrix::identity(6);
        let extension = Matrix::scaled(
            weight,
            Matrix::dense(DenseMatrix::from_rows(extra_rows)),
        );
        let expected_error = |m: &Matrix| -> f64 {
            let mut g = m.gram_dense();
            for i in 0..6 {
                let v = g.get(i, i);
                g.set(i, i, v + 1e-12);
            }
            let l = cholesky_factor(&g).expect("PD gram");
            let sol = cholesky_solve(&l, &q_coeffs);
            q_coeffs.iter().zip(&sol).map(|(a, b)| a * b).sum()
        };
        let err_small = expected_error(&base);
        let err_big = expected_error(&Matrix::vstack(vec![base.clone(), extension]));
        prop_assert!(
            err_big <= err_small * (1.0 + 1e-9),
            "extra measurements increased expected error: {err_big} vs {err_small}"
        );
    }

    /// Thm. 8.4 (empirical): answering through the reduced domain is never
    /// worse than the same strategy on the original domain, for the
    /// identity strategy on a reducible workload.
    #[test]
    fn reduction_never_hurts_error(
        seed in 0u64..100,
    ) {
        // Workload of 4 wide blocks over 32 cells → reduction to ≤5 groups.
        let w = Matrix::range_queries(32, vec![(0, 8), (8, 16), (16, 24), (24, 32)]);
        let x_true: Vec<f64> = (0..32).map(|i| ((i * 7) % 13) as f64).collect();
        let (p, w_red) = workload_reduction(&w, 3);
        let trials = 50;
        let mut err_orig = 0.0;
        let mut err_red = 0.0;
        for t in 0..trials {
            let s = seed * 1000 + t;
            // Original: identity over 32 cells.
            let k = ProtectedKernel::init_from_vector(x_true.clone(), 1.0, s);
            k.vector_laplace(k.root(), &Matrix::identity(32), 1.0).unwrap();
            let xh = least_squares(&k.measurements(), LsSolver::Direct);
            let t1 = w.matvec(&x_true);
            let e1 = w.matvec(&xh);
            err_orig += t1.iter().zip(&e1).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();

            // Reduced: identity over the groups.
            let k = ProtectedKernel::init_from_vector(x_true.clone(), 1.0, s + 500_000);
            let red = k.reduce_by_partition(k.root(), &p).unwrap();
            let g = k.vector_len(red).unwrap();
            k.vector_laplace(red, &Matrix::identity(g), 1.0).unwrap();
            let xh = least_squares(&k.measurements(), LsSolver::Direct);
            let e2 = w.matvec(&xh);
            err_red += t1.iter().zip(&e2).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        }
        let _ = w_red;
        prop_assert!(
            err_red <= err_orig,
            "reduction increased error: {err_red} vs {err_orig}"
        );
    }
}
