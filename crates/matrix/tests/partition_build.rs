//! The direct partition and selector constructors against the triplet
//! forms they replaced, and the fused `is_partition` pass against the
//! three separate passes it replaced. Equality here is `==` on the CSR
//! arrays, so anything built from these matrices stays bit-identical.

use ektelo_matrix::{partition_from_labels, CsrMatrix, Matrix};
use proptest::prelude::*;

/// `partition_from_labels` as it was: one triplet per cell, sorted per row.
fn partition_by_triplets(num_groups: usize, labels: &[usize]) -> CsrMatrix {
    let t: Vec<(usize, usize, f64)> = labels
        .iter()
        .enumerate()
        .map(|(j, &g)| (g, j, 1.0))
        .collect();
    CsrMatrix::from_triplets(num_groups, labels.len(), &t)
}

/// `Matrix::select_rows` as it was.
fn selector_by_triplets(n: usize, picks: &[usize]) -> CsrMatrix {
    let t: Vec<(usize, usize, f64)> = picks
        .iter()
        .enumerate()
        .map(|(r, &c)| (r, c, 1.0))
        .collect();
    CsrMatrix::from_triplets(picks.len(), n, &t)
}

/// `Matrix::is_partition` as it was: nonnegativity, then |v| column sums,
/// then v² column sums, each a separate pass.
fn is_partition_three_pass(m: &Matrix) -> bool {
    if !m.is_nonneg() {
        return false;
    }
    let abs = m.abs_col_sums();
    if !abs.iter().all(|&s| s == 1.0) {
        return false;
    }
    let sq = m.sqr_col_sums();
    abs.iter().zip(&sq).all(|(&a, &b)| (a - b).abs() < 1e-12)
}

fn csr(m: &Matrix) -> CsrMatrix {
    assert!(matches!(m, Matrix::Sparse(_)), "expected an explicit CSR");
    m.to_sparse()
}

#[test]
fn partition_edge_cases_match_triplets() {
    let cases: &[(usize, &[usize])] = &[
        (0, &[]),              // no groups, no cells
        (3, &[]),              // groups but no cells: every row empty
        (1, &[0, 0, 0, 0]),    // one group
        (4, &[0, 0, 3, 3]),    // empty middle groups
        (6, &[1, 0, 1, 0]),    // unused trailing groups
        (3, &[2, 1, 0, 2, 1]), // descending first appearances
        (2, &[1, 1, 1, 0, 0]), // group 0 after group 1
    ];
    for &(groups, labels) in cases {
        let p = partition_from_labels(groups, labels);
        assert_eq!(
            csr(&p),
            partition_by_triplets(groups, labels),
            "{groups} groups, labels {labels:?}"
        );
        assert_eq!(p.shape(), (groups, labels.len()));
        assert_eq!(p.is_partition(), is_partition_three_pass(&p));
    }
}

#[test]
#[should_panic(expected = "group label out of range")]
fn partition_rejects_out_of_range_labels() {
    let _ = partition_from_labels(2, &[0, 2]);
}

#[test]
fn selector_edge_cases_match_triplets() {
    let cases: &[(usize, &[usize])] = &[
        (0, &[]),
        (4, &[]),
        (4, &[3, 1]),
        (5, &[2, 2, 2]),
        (3, &[0, 1, 2]),
    ];
    for &(n, picks) in cases {
        let s = Matrix::select_rows(n, picks);
        assert_eq!(csr(&s), selector_by_triplets(n, picks), "n {n}, {picks:?}");
        let as_u32: Vec<u32> = picks.iter().map(|&c| c as u32).collect();
        assert_eq!(
            CsrMatrix::selector(n, &as_u32),
            selector_by_triplets(n, picks)
        );
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn selector_rejects_out_of_range_columns() {
    let _ = CsrMatrix::selector(3, &[0, 3]);
}

/// One column of an `is_partition` probe, chosen by `kind`: valid forms
/// (a single 1, or 0.5 + 0.5 summed into one cell) and every way a column
/// can fail or nearly pass (0.5 + 0.5 in two rows, `(1−δ, δ)`, negatives,
/// NaN, an empty column, an arbitrary value).
fn column_triplets(
    col: usize,
    kind: usize,
    r1: usize,
    r2: usize,
    delta: f64,
    v: f64,
) -> Vec<(usize, usize, f64)> {
    match kind {
        0 => vec![(r1, col, 1.0)],
        1 => vec![(r1, col, 0.5), (r1, col, 0.5)],
        2 => vec![(r1, col, 0.5), (r2, col, 0.5)],
        3 => vec![(r1, col, 1.0 - delta), (r2, col, delta)],
        4 => vec![(r1, col, 2.0), (r2, col, -1.0)],
        5 => vec![(r1, col, f64::NAN)],
        6 => vec![],
        _ => vec![(r1, col, v)],
    }
}

fn probe_matrix(
    rows: usize,
    mostly_valid: bool,
    cols: &[(usize, usize, usize, f64, f64)],
) -> CsrMatrix {
    let mut t = Vec::new();
    for (j, &(kind, r1, r2, delta, v)) in cols.iter().enumerate() {
        // A mostly-valid probe keeps every column but (at most) the last
        // in a passing form, so passing verdicts are common too.
        let kind = if mostly_valid && j + 1 < cols.len() {
            kind % 2
        } else {
            kind
        };
        t.extend(column_triplets(j, kind, r1 % rows, r2 % rows, delta, v));
    }
    CsrMatrix::from_triplets(rows, cols.len(), &t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random labels, including unused and empty groups and zero cells.
    #[test]
    fn partition_matches_triplets(
        groups in 1usize..9,
        spare in 0usize..4,
        raw in prop::collection::vec(0usize..1000, 0..48),
    ) {
        let labels: Vec<usize> = raw.iter().map(|&r| r % groups).collect();
        let num_groups = groups + spare;
        let p = partition_from_labels(num_groups, &labels);
        prop_assert_eq!(csr(&p), partition_by_triplets(num_groups, &labels));
        prop_assert_eq!(p.is_partition(), is_partition_three_pass(&p));
    }

    /// Random index lists, repeats and any order allowed.
    #[test]
    fn selector_matches_triplets(
        n in 1usize..40,
        raw in prop::collection::vec(0usize..1000, 0..48),
    ) {
        let picks: Vec<usize> = raw.iter().map(|&r| r % n).collect();
        prop_assert_eq!(csr(&Matrix::select_rows(n, &picks)), selector_by_triplets(n, &picks));
    }

    /// The fused pass gives the three-pass verdict on sparse and dense
    /// forms of the same probe.
    #[test]
    fn is_partition_matches_three_passes(
        rows in 1usize..5,
        mostly_valid in prop_oneof![Just(true), Just(false)],
        cols in prop::collection::vec(
            (
                0usize..8,
                0usize..8,
                0usize..8,
                prop_oneof![1e-16f64..5e-13, 5e-13f64..1e-10],
                prop_oneof![Just(1.0), Just(0.0), Just(-0.0), -1.0f64..2.0],
            ),
            0..12,
        ),
    ) {
        let m = probe_matrix(rows, mostly_valid, &cols);
        let sparse = Matrix::sparse(m.clone());
        let dense = Matrix::dense(m.to_dense());
        prop_assert_eq!(sparse.is_partition(), is_partition_three_pass(&sparse));
        prop_assert_eq!(dense.is_partition(), is_partition_three_pass(&dense));
    }
}

#[test]
fn near_binary_columns_keep_their_verdict() {
    // (1−δ, δ) sums to 1 in |v| but to ≈ 1 − 2δ in v²: inside the 1e-12
    // tolerance for δ < 5e-13, outside it above.
    let near = |delta: f64| {
        Matrix::sparse(CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0 - delta), (1, 0, delta), (0, 1, 1.0)],
        ))
    };
    for delta in [1e-16, 1e-14, 2.5e-13, 4.9e-13, 6e-13, 1e-12, 1e-9] {
        let m = near(delta);
        assert_eq!(m.is_partition(), is_partition_three_pass(&m), "δ = {delta}");
    }
    // Both sides of the tolerance are exercised.
    assert!(near(1e-14).is_partition());
    assert!(!near(1e-9).is_partition());
    // NaN, negatives and empty columns never pass.
    for t in [
        vec![(0, 0, f64::NAN), (0, 1, 1.0)],
        vec![(0, 0, 2.0), (1, 0, -1.0), (0, 1, 1.0)],
        vec![(0, 0, 1.0)],
    ] {
        let m = Matrix::sparse(CsrMatrix::from_triplets(2, 2, &t));
        assert!(!m.is_partition());
        assert!(!is_partition_three_pass(&m));
    }
}
