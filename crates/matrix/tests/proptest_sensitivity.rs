//! Property tests for the sensitivity fast paths (paper §5.2 / Table 1).
//!
//! `abs_col_sums` / `abs_row_sums` take a closed-form shortcut when both
//! product factors are structurally non-negative (`colsums(|AB|) = Bᵀ|A|ᵀ1`)
//! and fall back to materializing `|AB|` otherwise. The fallback calibrates
//! Laplace noise for every lineage containing a signed transform (wavelets,
//! differences, reweightings), so it is checked here against the
//! explicitly materialized product on factors with negative entries —
//! sensitivity drift would silently weaken or over-noise every downstream
//! measurement.
//!
//! `l1_sensitivity` is closed-form on `Kronecker` and `Scaled` nodes over
//! identity, ones, prefix and suffix factors: it carries each node's
//! column-sum range instead of the column-sum vector. It must equal the
//! fold over the materialized `abs_col_sums()` bit for bit, NaN and ±∞
//! included, and is checked here on random nested products whose dense
//! factors hold 0, NaN, ±∞ and values that overflow or underflow when
//! multiplied.
//!
//! A one-row `Sparse` (MWEM's per-round strategy) is closed-form too: the
//! largest `|v|` of its stored entries, with a 0 for any column it leaves
//! empty. It must equal the scan over the same row as `Dense` bit for
//! bit, with ±0, NaN and ±∞ entries, alone and under `Scaled` and
//! `Kronecker`; and so on the edges of its integer pass: subnormal
//! entries, rows of zeros only, and rows that store every column. (A row
//! whose columns repeat or descend takes the scan instead; no public
//! constructor builds one, so `sensitivity.rs`'s own tests check it.)

use std::sync::Arc;

use ektelo_matrix::{CsrMatrix, DenseMatrix, Matrix};
use proptest::prelude::*;

/// A small dense factor with entries in [-3, 3] (signed on purpose).
fn arb_dense(rows: usize, cols: usize) -> BoxedStrategy<Matrix> {
    prop::collection::vec(-3.0f64..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_rows(v.chunks(cols).map(<[f64]>::to_vec).collect()))
        .boxed()
}

/// Signed implicit factors: the shapes real lineages produce.
fn arb_signed_square(n: usize) -> BoxedStrategy<Matrix> {
    prop_oneof![
        Just(Matrix::wavelet(n)),
        (-2.0f64..-0.1).prop_map(move |c| Matrix::scaled(c, Matrix::prefix(n))),
        prop::collection::vec(-2.0f64..2.0, n).prop_map(Matrix::diagonal),
        Just(Matrix::suffix(n)),
    ]
    .boxed()
}

/// Reference column sums of |M| via full materialization.
fn dense_abs_col_sums(d: &DenseMatrix) -> Vec<f64> {
    d.map(f64::abs).abs_pow_col_sums(1)
}

/// Reference row sums of |M| via full materialization.
fn dense_abs_row_sums(d: &DenseMatrix) -> Vec<f64> {
    (0..d.rows())
        .map(|i| d.row_slice(i).iter().map(|v| v.abs()).sum())
        .collect()
}

fn check_product(p: &Matrix) -> Result<(), String> {
    let d = p.to_dense();
    let expect_cols = dense_abs_col_sums(&d);
    let got_cols = p.abs_col_sums();
    for (g, e) in got_cols.iter().zip(&expect_cols) {
        prop_assert!(
            (g - e).abs() < 1e-9,
            "abs_col_sums drifted: {got_cols:?} vs {expect_cols:?}"
        );
    }
    let expect_rows = dense_abs_row_sums(&d);
    let got_rows = p.abs_row_sums();
    for (g, e) in got_rows.iter().zip(&expect_rows) {
        prop_assert!(
            (g - e).abs() < 1e-9,
            "abs_row_sums drifted: {got_rows:?} vs {expect_rows:?}"
        );
    }
    // And therefore the L1 sensitivity itself.
    let expect_l1 = expect_cols.iter().copied().fold(0.0, f64::max);
    prop_assert!(
        (p.l1_sensitivity() - expect_l1).abs() < 1e-9,
        "l1_sensitivity drifted"
    );
    Ok(())
}

/// An entry that may be 0, NaN, ±∞ or a value whose products overflow
/// or underflow — the cases the closed form must classify exactly — and
/// otherwise an ordinary signed value.
fn arb_special() -> BoxedStrategy<f64> {
    (0usize..18, -3.0f64..3.0)
        .prop_map(|(k, v)| match k {
            0 | 1 => 0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 1e-200,
            6 => -1e200,
            _ => v,
        })
        .boxed()
}

/// The factors of the products: the closed-form kinds, plus `Range` and
/// dense kinds, which fold their materialized column sums.
fn arb_factor() -> BoxedStrategy<Matrix> {
    let range = (
        1usize..5,
        prop::collection::vec((0usize..4, 1usize..5), 1..4),
    )
        .prop_map(|(n, iv)| {
            let ranges = iv
                .into_iter()
                .map(|(lo, len)| (lo % n, (lo % n + len).min(n)));
            Matrix::range_queries(n, ranges.collect())
        });
    let dense = (
        1usize..4,
        1usize..4,
        prop::collection::vec(arb_special(), 9),
    )
        .prop_map(|(rows, cols, v)| {
            Matrix::from_rows(v[..rows * cols].chunks(cols).map(<[f64]>::to_vec).collect())
        });
    prop_oneof![
        (1usize..5).prop_map(Matrix::identity),
        (0usize..4, 1usize..5).prop_map(|(rows, cols)| Matrix::ones(rows, cols)),
        (1usize..5).prop_map(Matrix::prefix),
        (1usize..5).prop_map(Matrix::suffix),
        range,
        dense,
    ]
    .boxed()
}

/// Random nested `Kronecker` / `Scaled` products of [`arb_factor`]s.
/// Nested `Scaled` nodes are built directly, since [`Matrix::scaled`]
/// folds them.
fn arb_nested_product() -> BoxedStrategy<Matrix> {
    arb_factor()
        .prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Matrix::kron(a, b)),
                (arb_special(), inner).prop_map(|(c, a)| Matrix::Scaled(c, Arc::new(a))),
            ]
        })
        .boxed()
}

/// A one-row `Sparse` over 1–6 columns that stores each column or not,
/// with entries that may be +0 or −0 (stored explicitly), NaN, ±∞, tiny
/// or ordinary; paired with the same row as `Dense`, whose sensitivity
/// scans its materialized column sums.
fn arb_one_row() -> BoxedStrategy<(Matrix, Matrix)> {
    let cell = (0usize..4, 0usize..10, -3.0f64..3.0).prop_map(|(store, k, v)| {
        let v = match k {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 1e-300,
            _ => v,
        };
        (store > 0, v)
    });
    (1usize..7, prop::collection::vec(cell, 6))
        .prop_map(|(n, cells)| one_row(&cells[..n]))
        .boxed()
}

/// The rows at the edges of the closed form, paired as in
/// [`arb_one_row`]: entries of subnormal magnitude (either sign, beside
/// zeros and ordinary values), rows of zeros only (±0 stored, or nothing
/// stored at all), and rows that store every column, so no column sums
/// to the gap's 0 (with NaN, ±∞ and subnormals among the entries).
fn arb_edge_row() -> BoxedStrategy<(Matrix, Matrix)> {
    let subnormal = (0usize..6, 1u64..1 << 52, -3.0f64..3.0).prop_map(|(k, bits, v)| match k {
        0 => f64::from_bits(bits),
        1 => -f64::from_bits(bits),
        2 => f64::from_bits(1),
        3 => -0.0,
        _ => v,
    });
    let zero = || (0usize..2).prop_map(|k| if k == 0 { 0.0 } else { -0.0 });
    let special = (0usize..8, 1u64..1 << 52, -3.0f64..3.0).prop_map(|(k, bits, v)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -f64::from_bits(bits),
        4 => 0.0,
        _ => v,
    });
    let stored = |value: BoxedStrategy<f64>| (0usize..4, value).prop_map(|(s, v)| (s > 0, v));
    let every = |value: BoxedStrategy<f64>| value.prop_map(|v| (true, v));
    let rows = prop_oneof![
        prop::collection::vec(stored(subnormal.boxed()), 1..7),
        prop::collection::vec(stored(zero().boxed()), 1..7),
        prop::collection::vec(every(zero().boxed()), 1..7),
        prop::collection::vec(every(special.boxed()), 1..7),
    ];
    rows.prop_map(|cells| one_row(&cells)).boxed()
}

/// The row storing `v` at each column whose cell is `(true, v)`, as
/// `Sparse` and as `Dense`.
fn one_row(cells: &[(bool, f64)]) -> (Matrix, Matrix) {
    // `from_triplets` drops zeros, so ±0 go in as markers that `map`
    // turns back into stored zeros.
    let marker = |v: f64| match v {
        0.0 if v.is_sign_positive() => 7.0,
        0.0 => 8.0,
        v => v,
    };
    let triplets: Vec<(usize, usize, f64)> = cells
        .iter()
        .enumerate()
        .filter(|(_, &(store, _))| store)
        .map(|(c, &(_, v))| (0, c, marker(v)))
        .collect();
    let row = CsrMatrix::from_triplets(1, cells.len(), &triplets).map(|v| match v {
        7.0 => 0.0,
        8.0 => -0.0,
        v => v,
    });
    let dense = Matrix::dense(row.to_dense());
    (Matrix::sparse(row), dense)
}

/// A one-row sparse strategy, alone, scaled by `c`, and as a Kronecker
/// factor of `f` on either side: the closed form equals the scan over
/// the same row as `Dense`, bit for bit (NaN included), and the fold
/// over the materialized column sums.
fn check_one_row(sparse: Matrix, dense: Matrix, c: f64, f: &Matrix) -> Result<(), String> {
    let forms = |m: Matrix| {
        vec![
            m.clone(),
            Matrix::Scaled(c, Arc::new(m.clone())),
            Matrix::kron(m.clone(), f.clone()),
            Matrix::kron(f.clone(), m),
        ]
    };
    for (s, d) in forms(sparse).into_iter().zip(forms(dense)) {
        let (got, scan) = (s.l1_sensitivity(), d.l1_sensitivity());
        prop_assert!(
            got.to_bits() == scan.to_bits(),
            "{got:e} vs {scan:e} for {s:?}"
        );
        let want = folded_l1(&s);
        prop_assert!(same_sensitivity(got, want), "{got:e} vs {want:e} for {s:?}");
    }
    Ok(())
}

/// The sensitivity as the fold over the materialized column sums:
/// the largest sum, or NaN if one is NaN.
fn folded_l1(m: &Matrix) -> f64 {
    m.abs_col_sums()
        .into_iter()
        .fold(0.0, |acc, v| if v.is_nan() || v > acc { v } else { acc })
}

/// Bit equality, with every NaN one class (a NaN's payload carries no
/// meaning for the finiteness check that consumes it).
fn same_sensitivity(got: f64, want: f64) -> bool {
    (got.is_nan() && want.is_nan()) || got.to_bits() == want.to_bits()
}

#[test]
fn closed_form_classifies_zero_times_infinity_as_nan() {
    // Column sums [0, ∞] scaled by ∞ give [NaN, ∞]; by 0, [0, NaN].
    let zero_inf = Matrix::from_rows(vec![vec![0.0, f64::INFINITY]]);
    for c in [f64::INFINITY, 0.0] {
        let m = Matrix::scaled(c, zero_inf.clone());
        assert!(m.l1_sensitivity().is_nan(), "scale {c}");
    }
    // A 0 column sum in one factor and an ∞ in the other.
    let m = Matrix::kron(
        Matrix::ones(0, 3),
        Matrix::from_rows(vec![vec![f64::INFINITY]]),
    );
    assert!(m.l1_sensitivity().is_nan());
    // Column sums [1e-200·1e-200, 1·1e-200] = [0, 1e-200]: the product
    // that underflows to 0 meets an ∞ scale, so the result is NaN, not ∞.
    let m = Matrix::scaled(
        f64::INFINITY,
        Matrix::kron(
            Matrix::from_rows(vec![vec![1e-200, 1.0]]),
            Matrix::from_rows(vec![vec![1e-200]]),
        ),
    );
    assert!(m.l1_sensitivity().is_nan());
    // Without a zero, ∞ stays ∞.
    let m = Matrix::scaled(f64::INFINITY, Matrix::prefix(3));
    assert_eq!(m.l1_sensitivity(), f64::INFINITY);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random nested Kronecker / scaled products: the closed-form
    /// sensitivity equals the fold over the materialized column sums.
    #[test]
    fn closed_form_l1_matches_materialized_fold(m in arb_nested_product()) {
        let (got, want) = (m.l1_sensitivity(), folded_l1(&m));
        prop_assert!(same_sensitivity(got, want), "{got:e} vs {want:e} for {m:?}");
    }

    /// A one-row sparse strategy, alone, scaled, and as a Kronecker
    /// factor on either side: the closed form equals the scan over the
    /// same row as `Dense`, bit for bit (NaN included), and the fold over
    /// the materialized column sums.
    #[test]
    fn one_row_sparse_l1_matches_the_scan(
        (sparse, dense) in arb_one_row(),
        c in arb_special(),
        f in arb_factor(),
    ) {
        check_one_row(sparse, dense, c, &f)?;
    }

    /// The same on the edge rows: subnormal entries, rows of zeros, and
    /// rows that store every column.
    #[test]
    fn edge_one_row_sparse_l1_matches_the_scan(
        (sparse, dense) in arb_edge_row(),
        c in arb_special(),
        f in arb_factor(),
    ) {
        check_one_row(sparse, dense, c, &f)?;
    }

    /// Products of signed dense factors hit the materializing fallback;
    /// their column/row sums must match the explicit |AB|.
    #[test]
    fn signed_dense_product_matches_materialized(
        a in arb_dense(4, 5),
        b in arb_dense(5, 6),
    ) {
        check_product(&Matrix::product(a, b))?;
    }

    /// Signed implicit factors (wavelet, negative scalings, signed
    /// diagonals) — the lineage shapes — also take the fallback.
    #[test]
    fn signed_implicit_product_matches_materialized(
        a in arb_signed_square(6),
        b in arb_signed_square(6),
    ) {
        check_product(&Matrix::product(a, b))?;
    }

    /// Mixed case: one non-negative factor does not justify the shortcut;
    /// the structural check must still route to the fallback and agree.
    #[test]
    fn mixed_sign_product_matches_materialized(
        b in arb_signed_square(5),
    ) {
        check_product(&Matrix::product(Matrix::prefix(5), b.clone()))?;
        check_product(&Matrix::product(b, Matrix::suffix(5)))?;
    }

    /// Three-factor chains nest a product inside a product; the outer
    /// fallback must materialize the whole chain correctly.
    #[test]
    fn signed_chain_matches_materialized(
        a in arb_signed_square(5),
        b in arb_signed_square(5),
    ) {
        let chain = Matrix::product(a, Matrix::product(b, Matrix::wavelet(5)));
        check_product(&chain)?;
    }

    /// Sanity: when both factors *are* non-negative the shortcut runs and
    /// still matches the materialized reference.
    #[test]
    fn nonneg_shortcut_still_matches(
        diag in prop::collection::vec(0.0f64..2.0, 6),
    ) {
        let p = Matrix::product(Matrix::prefix(6), Matrix::diagonal(diag));
        check_product(&p)?;
    }
}
