//! LSQR on block-separable systems: the stacked lineage of the striped
//! plans, `Scaled(w, Product(Union(Scaled Range…), Product(P, Sel)))` per
//! stripe, is solved one column component at a time. These tests pin
//! that the split solve is the least-squares solution of the whole
//! system, and the edge cases of the split itself.

use std::sync::Arc;

use ektelo_matrix::{partition_from_labels, CsrMatrix, Matrix};
use ektelo_solvers::{direct_least_squares, lsqr, LsqrOptions};

/// SplitMix64: a small deterministic generator for the random systems.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn tight() -> LsqrOptions {
    LsqrOptions {
        max_iters: 5000,
        atol: 1e-14,
    }
}

fn rel_err(x: &[f64], reference: &[f64]) -> f64 {
    let diff: f64 = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let norm: f64 = reference.iter().map(|v| v * v).sum();
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// A random partition of `k` cells into `1..=k` contiguous groups, as
/// DAWA's stage 1 produces, with its group count.
fn random_partition(rng: &mut Rng, k: usize) -> (usize, Matrix) {
    let mut labels = Vec::with_capacity(k);
    let mut g = 0;
    for i in 0..k {
        if i > 0 && rng.below(3) == 0 {
            g += 1;
        }
        labels.push(g);
    }
    (g + 1, partition_from_labels(g + 1, &labels))
}

/// `Union(Scaled Range…)` over `p` cells: a weighted set of random
/// intervals plus the unit intervals, so the strategy has full column
/// rank.
fn random_strategy(rng: &mut Rng, p: usize) -> Matrix {
    let ranges: Vec<(usize, usize)> = (0..1 + rng.below(2 * p))
        .map(|_| {
            let lo = rng.below(p);
            (lo, lo + 1 + rng.below(p - lo))
        })
        .collect();
    let units = (0..p).map(|i| (i, i + 1)).collect();
    Matrix::vstack(vec![
        Matrix::scaled(0.5 + rng.unit(), Matrix::range_queries(p, ranges)),
        Matrix::scaled(0.5 + rng.unit(), Matrix::range_queries(p, units)),
    ])
}

/// The interleaved stripes of a `[k, stripes]` domain (striping on the
/// first attribute): stripe `s` holds cells `s, s + stripes, …`.
fn stripe_cells(stripes: usize, k: usize) -> Vec<Vec<usize>> {
    (0..stripes)
        .map(|s| (0..k).map(|i| s + i * stripes).collect())
        .collect()
}

/// One measurement block in the kernel's reduce∘split lineage shape:
/// `Scaled(w, Product(S, Product(P, Sel)))`.
fn reduced_block(rng: &mut Rng, n: usize, cells: &[usize]) -> (Matrix, Matrix) {
    let (p, part) = random_partition(rng, cells.len());
    let lineage = Matrix::product(part.clone(), Matrix::select_rows(n, cells));
    let block = Matrix::scaled(
        0.25 + rng.unit(),
        Matrix::product(random_strategy(rng, p), lineage),
    );
    (block, part)
}

/// A split-only block, `Scaled(w, Product(S, Sel))`: full column rank on
/// its stripe.
fn split_block(rng: &mut Rng, n: usize, cells: &[usize]) -> Matrix {
    Matrix::scaled(
        0.25 + rng.unit(),
        Matrix::product(
            random_strategy(rng, cells.len()),
            Matrix::select_rows(n, cells),
        ),
    )
}

fn random_rhs(rng: &mut Rng, m: usize) -> Vec<f64> {
    (0..m).map(|_| 100.0 * rng.unit() - 20.0).collect()
}

/// The same system hidden behind a double transpose, which
/// `column_components` does not look through: LSQR over the whole matrix.
fn unsplit(a: &Matrix) -> Matrix {
    Matrix::Transpose(Arc::new(a.transpose()))
}

#[test]
fn random_stripe_unions_match_direct_least_squares() {
    for seed in 0..12 {
        let mut rng = Rng(seed);
        let stripes = 2 + rng.below(7);
        let k = 2 + rng.below(9);
        let n = stripes * k;
        let mut blocks = Vec::new();
        for cells in stripe_cells(stripes, k) {
            blocks.push(reduced_block(&mut rng, n, &cells).0);
            blocks.push(split_block(&mut rng, n, &cells));
        }
        let a = Matrix::vstack(blocks);
        assert_eq!(a.column_components().map(|c| c.len()), Some(stripes));
        let b = random_rhs(&mut rng, a.rows());
        let x = lsqr(&a, &b, &tight()).x;
        let reference = direct_least_squares(&a, &b);
        let err = rel_err(&x, &reference);
        assert!(err < 1e-6, "seed {seed}: relative error {err:e}");
    }
}

/// Reduce∘split blocks alone are rank-deficient (a partition group's
/// cells are indistinguishable): the split solve must still return the
/// minimum-norm solution, which the whole-matrix LSQR also converges to.
#[test]
fn rank_deficient_stripes_get_the_min_norm_solution() {
    for seed in 100..110 {
        let mut rng = Rng(seed);
        let stripes = 2 + rng.below(7);
        let k = 2 + rng.below(9);
        let n = stripes * k;
        let mut blocks = Vec::new();
        let mut groups = Vec::new();
        for cells in stripe_cells(stripes, k) {
            let (block, part) = reduced_block(&mut rng, n, &cells);
            blocks.push(block);
            groups.push((cells, part));
        }
        let a = Matrix::vstack(blocks);
        let b = random_rhs(&mut rng, a.rows());
        let x = lsqr(&a, &b, &tight()).x;
        let whole = lsqr(&unsplit(&a), &b, &tight()).x;
        let err = rel_err(&x, &whole);
        assert!(err < 1e-6, "seed {seed}: relative error {err:e}");
        // Minimum norm: cells of one partition group share one value.
        for (cells, part) in &groups {
            let labels = part.to_dense();
            for g in 0..labels.rows() {
                let members: Vec<f64> = (0..cells.len())
                    .filter(|&i| labels.get(g, i) == 1.0)
                    .map(|i| x[cells[i]])
                    .collect();
                let spread = members
                    .iter()
                    .fold(0.0f64, |s, v| s.max((v - members[0]).abs()));
                assert!(
                    spread < 1e-6 * (1.0 + members[0].abs()),
                    "seed {seed}: {members:?}"
                );
            }
        }
    }
}

#[test]
fn blocks_sharing_a_column_merge_into_one_component() {
    let mut rng = Rng(7);
    let (stripes, k) = (3, 4);
    let n = stripes * k;
    let cells = stripe_cells(stripes, k);
    let mut blocks: Vec<Matrix> = cells.iter().map(|c| split_block(&mut rng, n, c)).collect();
    // One query over a cell of stripe 0 and a cell of stripe 2.
    blocks.push(Matrix::product(
        Matrix::total(2),
        Matrix::select_rows(n, &[cells[0][1], cells[2][3]]),
    ));
    let a = Matrix::vstack(blocks);
    let parts = a.column_components().unwrap();
    assert_eq!(parts.len(), 2);
    let mut merged = cells[0].clone();
    merged.extend(&cells[2]);
    merged.sort_unstable();
    assert_eq!(parts[0].cols, merged);
    assert_eq!(parts[1].cols, cells[1]);
    let b = random_rhs(&mut rng, a.rows());
    let err = rel_err(&lsqr(&a, &b, &tight()).x, &direct_least_squares(&a, &b));
    assert!(err < 1e-6, "relative error {err:e}");
}

#[test]
fn unmeasured_columns_stay_zero() {
    let mut rng = Rng(8);
    let n = 10;
    // Cells 3, 4 and 9 are never measured.
    let a = Matrix::vstack(vec![
        split_block(&mut rng, n, &[0, 1, 2]),
        split_block(&mut rng, n, &[5, 6, 7, 8]),
    ]);
    // Both stripes' random intervals cross, so both run the LSQR loop
    // (a hierarchy stripe would take the exact tree pass).
    for c in a.column_components().unwrap() {
        assert!(c.matrix.tree_shape().and_then(|s| s.tree()).is_none());
    }
    let b = random_rhs(&mut rng, a.rows());
    let r = lsqr(&a, &b, &tight());
    for j in [3, 4, 9] {
        assert_eq!(r.x[j], 0.0, "unmeasured cell {j}");
    }
    let whole = lsqr(&unsplit(&a), &b, &tight());
    assert!(rel_err(&r.x, &whole.x) < 1e-6);
    // Separable semantics of the report: √Σφ̄² matches the whole solve's
    // residual, and the steps of both components are summed.
    assert!((r.residual_norm - whole.residual_norm).abs() < 1e-6 * whole.residual_norm);
    assert!(r.iterations >= 2);
}

/// A known-total row couples every cell, so the system has one component
/// and takes the unchanged whole-matrix path — whether the total is the
/// implicit `Ones` leaf or an explicit sparse row.
#[test]
fn a_total_row_collapses_everything_into_one_component() {
    let mut rng = Rng(9);
    let (stripes, k) = (4, 5);
    let n = stripes * k;
    let stripe_blocks: Vec<Matrix> = stripe_cells(stripes, k)
        .iter()
        .map(|c| reduced_block(&mut rng, n, c).0)
        .collect();
    let split = Matrix::vstack(stripe_blocks.clone());
    assert_eq!(split.column_components().map(|c| c.len()), Some(stripes));
    let ones_row = Matrix::sparse(CsrMatrix::from_triplets(
        1,
        n,
        &(0..n).map(|j| (0, j, 1.0)).collect::<Vec<_>>(),
    ));
    for total in [Matrix::total(n), ones_row] {
        let mut blocks = stripe_blocks.clone();
        blocks.push(total);
        let a = Matrix::vstack(blocks);
        assert!(a.column_components().is_none());
        let b = random_rhs(&mut rng, a.rows());
        let r = lsqr(&a, &b, &tight());
        let whole = lsqr(&unsplit(&a), &b, &tight());
        assert!(rel_err(&r.x, &whole.x) < 1e-6);
    }
}
