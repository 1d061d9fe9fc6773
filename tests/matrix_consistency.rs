//! Property tests: the implicit matrix algebra agrees with dense linear
//! algebra on randomly composed expressions (paper §7's losslessness
//! claim, verified mechanically).

use ektelo::matrix::{CsrMatrix, DenseMatrix, Matrix};
use proptest::prelude::*;

/// A recursive strategy generating random matrix expressions with
/// controlled shapes (columns fixed per level so compositions typecheck).
fn arb_matrix(cols: usize, depth: u32) -> BoxedStrategy<Matrix> {
    let leaf = prop_oneof![
        Just(Matrix::identity(cols)),
        Just(Matrix::total(cols)),
        Just(Matrix::prefix(cols)),
        Just(Matrix::suffix(cols)),
        Just(Matrix::wavelet(cols)),
        (1usize..=cols.min(4)).prop_map(move |m| Matrix::ones(m, cols)),
        prop::collection::vec((0usize..cols, 1usize..=cols), 1..5).prop_map(move |pairs| {
            let ranges: Vec<(usize, usize)> = pairs
                .into_iter()
                .map(|(lo, len)| (lo.min(cols - 1), (lo + len).clamp(lo + 1, cols).min(cols)))
                .filter(|&(lo, hi)| lo < hi)
                .collect();
            if ranges.is_empty() {
                Matrix::total(cols)
            } else {
                Matrix::range_queries(cols, ranges)
            }
        }),
        prop::collection::vec(-2.0f64..2.0, cols).prop_map(Matrix::diagonal),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arb_matrix(cols, depth - 1);
    prop_oneof![
        leaf,
        prop::collection::vec(arb_matrix(cols, depth - 1), 1..3).prop_map(Matrix::vstack),
        (inner.clone(), -2.0f64..2.0).prop_map(|(m, c)| Matrix::scaled(c, m)),
        // Transpose only when it preserves the column count (square),
        // otherwise the expression's shape invariant breaks.
        inner.prop_map(|m| if m.rows() == m.cols() {
            m.transpose()
        } else {
            m
        }),
    ]
    .boxed()
}

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// matvec and rmatvec of any composed expression match its dense form.
    #[test]
    fn products_match_dense(
        m in arb_matrix(6, 2),
        x in prop::collection::vec(-5.0f64..5.0, 6),
    ) {
        let d = m.to_dense();
        // matvec
        if m.cols() == 6 {
            let got = m.matvec(&x);
            let mut expect = vec![0.0; m.rows()];
            d.matvec_into(&x, &mut expect);
            prop_assert!(close(&got, &expect, 1e-9), "matvec mismatch: {got:?} vs {expect:?}");
        }
        // rmatvec with a fresh vector of the right length
        let y: Vec<f64> = (0..m.rows()).map(|i| (i as f64) - 1.0).collect();
        let got_t = m.rmatvec(&y);
        let mut expect_t = vec![0.0; m.cols()];
        d.rmatvec_into(&y, &mut expect_t);
        prop_assert!(close(&got_t, &expect_t, 1e-9), "rmatvec mismatch");
    }

    /// Sensitivity computations match brute force on the dense form.
    #[test]
    fn sensitivity_matches_dense(m in arb_matrix(6, 2)) {
        let d = m.to_dense();
        let brute_l1 = d.map(f64::abs).abs_pow_col_sums(1).into_iter().fold(0.0, f64::max);
        prop_assert!((m.l1_sensitivity() - brute_l1).abs() < 1e-9);
    }

    /// abs/sqr are exact element-wise transforms.
    #[test]
    fn abs_sqr_match_dense(m in arb_matrix(5, 2)) {
        let d = m.to_dense();
        let abs_expect = d.map(f64::abs);
        prop_assert!(m.abs().to_dense().max_abs_diff(&abs_expect).unwrap() < 1e-12);
        let sqr_expect = d.map(|v| v * v);
        prop_assert!(m.sqr().to_dense().max_abs_diff(&sqr_expect).unwrap() < 1e-12);
    }

    /// Sparse round trip is lossless.
    #[test]
    fn sparse_roundtrip(m in arb_matrix(5, 2)) {
        let via_sparse = Matrix::sparse(m.to_sparse()).to_dense();
        prop_assert!(m.to_dense().max_abs_diff(&via_sparse).unwrap() < 1e-12);
    }

    /// Kronecker products agree with the dense Kronecker definition.
    #[test]
    fn kron_matches_dense(
        a in arb_matrix(3, 1),
        b in arb_matrix(2, 1),
        x in prop::collection::vec(-3.0f64..3.0, 6),
    ) {
        let k = Matrix::kron(a.clone(), b.clone());
        let dense_kron = CsrMatrix::from_dense(&a.to_dense())
            .kron(&CsrMatrix::from_dense(&b.to_dense()))
            .to_dense();
        let got = k.matvec(&x);
        let mut expect = vec![0.0; k.rows()];
        dense_kron.matvec_into(&x, &mut expect);
        prop_assert!(close(&got, &expect, 1e-9));
        prop_assert!(k.to_dense().max_abs_diff(&dense_kron).unwrap() < 1e-12);
    }

    /// Transpose is an involution and matches dense transpose.
    #[test]
    fn transpose_involution(m in arb_matrix(5, 2)) {
        let tt = m.transpose().transpose();
        prop_assert!(m.to_dense().max_abs_diff(&tt.to_dense()).unwrap() < 1e-12);
        let t_expect = m.to_dense().transpose();
        prop_assert!(m.transpose().to_dense().max_abs_diff(&t_expect).unwrap() < 1e-12);
    }

    /// Gram matrices match AᵀA.
    #[test]
    fn gram_matches_dense(m in arb_matrix(4, 1)) {
        let g = m.gram_dense();
        let d = m.to_dense();
        let expect = d.transpose().matmul(&d);
        prop_assert!(g.max_abs_diff(&expect).unwrap() < 1e-9);
    }
}

/// The Example 7.3 memory claim: the census workload stores nothing
/// implicit, ~10⁸ scalars dense.
#[test]
fn census_workload_memory_claim() {
    let w = Matrix::kron_list(vec![
        Matrix::prefix(100),
        Matrix::prefix(100),
        Matrix::vstack(vec![
            Matrix::total(7),
            Matrix::identity(7),
            Matrix::dense(DenseMatrix::from_rows(vec![
                vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            ])),
        ]),
    ]);
    assert_eq!(w.cols(), 70_000);
    // Only the little 2×7 dense block is stored.
    assert_eq!(w.stored_scalars(), 14);
    // Dense materialization would need rows × cols scalars.
    let dense_scalars = w.rows() * w.cols();
    assert!(dense_scalars > 5_000_000_000usize);
}
