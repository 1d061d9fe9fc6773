//! Multiplicative weights over column classes: `mult_weights` on a
//! `Sparse`/`Range`/`Scaled` union runs its passes on one value per class
//! of identical columns. These tests pin that the result is the per-cell
//! loop's — the same rows given as `Matrix::Dense`, which has no classes —
//! to 1e-12 relative, and that systems without a reduction run the
//! per-cell loop bit for bit.

use ektelo_matrix::{kernels, ColumnRefinement, CsrMatrix, Matrix, Workspace};
use ektelo_solvers::{
    mult_weights, mult_weights_classes_into, mult_weights_uniform_into, mw_uniform_start, MwOptions,
};
use proptest::prelude::*;

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

    fn pick(&mut self, values: &[f64]) -> f64 {
        values[self.below(values.len())]
    }
}

/// Entry values: repeats and negatives, plus `7.0`, which becomes a
/// stored (explicit) zero. Magnitudes stay at most 1 (block scales at
/// most 0.5) so the MW step is stable: with column norms much above 2, the
/// loop amplifies rounding until any change of summation order — even
/// reversing the columns of the dense matrix — moves its result by 1e-9.
const VALUES: [f64; 6] = [1.0, 1.0, 0.5, -1.0, -0.25, 7.0];

/// A sparse block of 1–3 rows over cells `0..span`: each row covers a
/// random interval with values from [`VALUES`], so runs of equal values
/// recur across rows and leave classes to merge.
fn sparse_block(rng: &mut Rng, n: usize, span: usize) -> Matrix {
    let rows = 1 + rng.below(3);
    let mut triplets = Vec::new();
    for r in 0..rows {
        let lo = rng.below(span);
        let hi = lo + 1 + rng.below(span - lo);
        let v = rng.pick(&VALUES);
        for c in lo..hi {
            let v = if rng.below(4) == 0 {
                rng.pick(&VALUES)
            } else {
                v
            };
            triplets.push((r, c, v));
        }
    }
    let s = CsrMatrix::from_triplets(rows, n, &triplets).map(|v| if v == 7.0 { 0.0 } else { v });
    Matrix::sparse(s)
}

fn range_block(rng: &mut Rng, n: usize, span: usize) -> Matrix {
    let ranges = (0..1 + rng.below(3))
        .map(|_| {
            let lo = rng.below(span);
            (lo, lo + 1 + rng.below(span - lo))
        })
        .collect();
    Matrix::range_queries(n, ranges)
}

/// A random union of sparse and range blocks, some scaled, over `n`
/// cells; the tail past `span` is often touched by no row.
fn random_union(rng: &mut Rng, n: usize) -> Matrix {
    let span = n - rng.below(n / 2);
    let blocks = (0..1 + rng.below(5))
        .map(|_| {
            let block = if rng.below(2) == 0 {
                sparse_block(rng, n, span)
            } else {
                range_block(rng, n, span)
            };
            match rng.below(3) {
                0 => Matrix::scaled(rng.pick(&[0.5, -0.5, 0.25]), block),
                _ => block,
            }
        })
        .collect();
    Matrix::vstack(blocks)
}

/// Noisy answers of `a` on a skewed data vector.
fn answers(rng: &mut Rng, a: &Matrix) -> Vec<f64> {
    let x: Vec<f64> = (0..a.cols()).map(|i| ((i * i) % 11) as f64).collect();
    a.matvec(&x)
        .into_iter()
        .map(|v| v + rng.pick(&[-2.0, 0.0, 1.5]))
        .collect()
}

/// The start vector of kind `kind`: uniform, non-uniform in runs of four
/// with one negative entry, or all zero (MW resets it to uniform).
fn start(kind: u8, n: usize) -> Vec<f64> {
    match kind {
        0 => vec![1.0; n],
        1 => (0..n)
            .map(|i| {
                if i == 1 {
                    -0.5
                } else {
                    1.0 + (i / 4 % 3) as f64
                }
            })
            .collect(),
        _ => vec![0.0; n],
    }
}

/// `max |x − reference| / max |reference|`.
fn rel_err(x: &[f64], reference: &[f64]) -> f64 {
    let diff = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let scale = reference.iter().map(|v| v.abs()).fold(0.0, f64::max);
    diff / scale.max(f64::MIN_POSITIVE)
}

/// The per-cell MW loop, written out: what `mult_weights` ran on every
/// system before column classes.
fn per_cell_loop(m: &Matrix, y: &[f64], x0: &[f64], opts: &MwOptions) -> Vec<f64> {
    fn normalize(x: &mut [f64], total: f64) {
        let sum = kernels::sum(x);
        if sum > 0.0 {
            kernels::scale(x, total / sum);
        } else {
            x.fill(total / x.len() as f64);
        }
    }
    let mut x = x0.to_vec();
    normalize(&mut x, opts.total);
    let mut ws = Workspace::for_matrix(m);
    let mut err = vec![0.0; m.rows()];
    let mut g = vec![0.0; m.cols()];
    for _ in 0..opts.iterations {
        m.matvec_into(&x, &mut err, &mut ws);
        kernels::rsub(&mut err, y);
        m.rmatvec_into(&err, &mut g, &mut ws);
        for (xi, &gi) in x.iter_mut().zip(&g) {
            *xi *= (gi / (2.0 * opts.total)).clamp(-50.0, 50.0).exp();
        }
        normalize(&mut x, opts.total);
    }
    x
}

fn assert_matches_dense(a: &Matrix, y: &[f64], x0: &[f64], opts: &MwOptions) {
    assert!(a.column_classes_by(x0).is_some(), "no reduction to test");
    let dense = Matrix::dense(a.to_dense());
    let got = mult_weights(a, y, x0, opts);
    let want = mult_weights(&dense, y, x0, opts);
    let err = rel_err(&got, &want);
    assert!(err <= 1e-12, "relative error {err:e}: {got:?} vs {want:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random unions with repeated, negative and explicitly zero entries,
    /// untouched columns, every start kind, and optionally one answer far
    /// beyond the total, whose residual keeps its exponents in the clamp.
    #[test]
    fn classes_match_the_dense_loop(
        seed in 0u64..1 << 40,
        n in 8usize..64,
        kind in 0u8..3,
        outlier in prop_oneof![Just(0.0), Just(1e6), Just(-1e6)],
    ) {
        let mut rng = Rng(seed);
        let a = random_union(&mut rng, n);
        let mut y = answers(&mut rng, &a);
        if outlier != 0.0 {
            let i = rng.below(y.len());
            y[i] = outlier;
        }
        let x0 = start(kind, n);
        let opts = MwOptions { iterations: 30, total: 40.0 };
        if a.column_classes_by(&x0).is_some() {
            assert_matches_dense(&a, &y, &x0, &opts);
        }
    }
}

#[test]
fn mwem_variant_b_union_matches_the_dense_loop() {
    // MWEM variant b, round 2: the selected range as a one-row sparse
    // block plus the dyadic intervals of length 4 it misses.
    let n = 32;
    let mut rng = Rng(7);
    let selected = Matrix::sparse(CsrMatrix::from_triplets(
        1,
        n,
        &(5..13).map(|c| (0, c, 1.0)).collect::<Vec<_>>(),
    ));
    let level = Matrix::range_queries(n, vec![(0, 4), (16, 20), (20, 24), (24, 28), (28, 32)]);
    let a = Matrix::vstack(vec![selected, level]);
    let y = answers(&mut rng, &a);
    let opts = MwOptions {
        iterations: 30,
        total: 500.0,
    };
    assert_matches_dense(&a, &y, &vec![500.0 / n as f64; n], &opts);
    assert_matches_dense(&a, &y, &start(1, n), &opts);
}

#[test]
fn extreme_residuals_and_zero_start_match_the_dense_loop() {
    let n = 24;
    let a = Matrix::vstack(vec![
        Matrix::range_queries(n, vec![(0, 12), (6, 18)]),
        Matrix::scaled(-2.0, Matrix::range_queries(n, vec![(3, 9)])),
    ]);
    let opts = MwOptions {
        iterations: 30,
        total: 10.0,
    };
    // Residuals in the millions drive every exponent into the clamp.
    assert_matches_dense(&a, &[4e6, -3e6, 1e6], &vec![0.0; n], &opts);
    assert_matches_dense(&a, &[4e6, -3e6, 1e6], &start(1, n), &opts);
}

#[test]
fn systems_without_a_reduction_run_the_per_cell_loop_bit_for_bit() {
    let opts = MwOptions {
        iterations: 30,
        total: 12.0,
    };
    let n = 16;
    let y: Vec<f64> = (0..n).map(|i| ((i * 5) % 7) as f64).collect();
    let x0 = start(1, n);
    // `p == n`: the sparse identity has no two equal columns.
    let identity = Matrix::sparse(CsrMatrix::identity(n));
    assert!(identity.column_classes().is_none());
    assert_eq!(
        mult_weights(&identity, &y, &x0, &opts),
        per_cell_loop(&identity, &y, &x0, &opts)
    );
    // An unsupported shape, and the dense reference itself.
    for m in [
        Matrix::prefix(n),
        Matrix::dense(Matrix::prefix(n).to_dense()),
    ] {
        assert_eq!(
            mult_weights(&m, &y, &x0, &opts),
            per_cell_loop(&m, &y, &x0, &opts)
        );
    }
    // A start vector that splits every class apart also leaves no
    // reduction.
    let ranges = Matrix::range_queries(n, vec![(0, 8)]);
    let distinct: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    assert!(ranges.column_classes_by(&distinct).is_none());
    assert_eq!(
        mult_weights(&ranges, &y[..1], &distinct, &opts),
        per_cell_loop(&ranges, &y[..1], &distinct, &opts)
    );
}

/// MWEM's MW step: from one start value per class, expanded into the
/// caller's buffer, the estimate is `mult_weights` on the stack from the
/// uniform `x0`, bit for bit — with kept classes, and per cell without
/// them. The totals make the `n`-cell sum of the start round, so a
/// closed-form start would differ.
#[test]
fn per_class_start_in_place_is_mult_weights_from_the_uniform_start() {
    for n in [192, 300, 4096] {
        let total = 0.1 * n as f64 + 1.0 / 3.0;
        let start = mw_uniform_start(n, total);
        assert_ne!(start, total / n as f64, "the start must round at n = {n}");
        let x0 = vec![total / n as f64; n];
        let opts = MwOptions {
            iterations: 30,
            total,
        };
        // Eight rounds of one-row interval measurements, and variant b's
        // range augmentation on the last.
        let mut rng = Rng(n as u64);
        let mut blocks: Vec<Matrix> = (0..8)
            .map(|_| {
                let lo = rng.below(n);
                let hi = lo + 1 + rng.below(n - lo);
                Matrix::sparse(CsrMatrix::interval_row(n, lo, hi))
            })
            .collect();
        blocks.push(Matrix::range_queries(n, vec![(0, n / 4), (n / 2, n)]));
        let mut refinement = ColumnRefinement::new(n, None);
        for b in &blocks {
            refinement.refine(b).expect("interval rows refine");
        }
        let classes = refinement.classes().expect("the rows leave classes");
        let stack = Matrix::vstack(blocks);
        let y = answers(&mut rng, &stack);
        let want = mult_weights(&stack, &y, &x0, &opts);
        let mut got = vec![f64::NAN; n];
        mult_weights_classes_into(&classes, &y, start, &mut got, &opts);
        assert_eq!(bits(&got), bits(&want), "classes, n = {n}");

        // Without classes the passes run per cell, as `mult_weights` runs
        // them on a system it cannot reduce.
        let prefix = Matrix::prefix(n);
        let y = answers(&mut rng, &prefix);
        let want = mult_weights(&prefix, &y, &x0, &opts);
        let mut got = vec![f64::NAN; n];
        mult_weights_uniform_into(&prefix, &y, start, &mut got, &opts);
        assert_eq!(bits(&got), bits(&want), "per cell, n = {n}");
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}
