//! `Matrix::column_classes[_by]` against a dense column-equality oracle.
//!
//! The oracle reads every column of the dense matrix, groups the columns
//! by their exact bit patterns (zero and negative zero both count as
//! absent) together with the key's bits, and numbers the groups by first
//! column. The refinement must give the same labels and sizes, a reduced
//! matrix equal to the dense columns at each class's first member, and
//! `None` exactly when every column is its own class.

use ektelo_matrix::{CsrMatrix, DenseMatrix, Matrix};
use proptest::prelude::*;

/// SplitMix64: a small deterministic generator for the random unions.
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

    /// A non-empty interval inside `0..n`.
    fn interval(&mut self, n: usize) -> (usize, usize) {
        let lo = self.below(n);
        (lo, lo + 1 + self.below(n - lo))
    }
}

/// Entry values, with repeats so runs of equal columns recur. Scales are
/// powers of two, so every scaled product is exact and the oracle sees
/// the same bits as the refinement.
const VALUES: [f64; 5] = [1.0, 1.0, 0.5, -1.0, 3.0];
const SCALES: [f64; 4] = [0.0, -0.5, 2.0, -1.0];

/// A sparse block of 1–3 rows of mixed kinds: one value on an interval
/// (sometimes with stored zeros beside it), several values with gaps and
/// stored zeros, or no non-zero entry at all.
fn sparse_block(rng: &mut Rng, n: usize) -> Matrix {
    let rows = 1 + rng.below(3);
    let mut triplets = Vec::new();
    for r in 0..rows {
        let (lo, hi) = rng.interval(n);
        match rng.below(3) {
            0 => {
                let v = rng.pick(&VALUES);
                triplets.extend((lo..hi).map(|c| (r, c, v)));
                if rng.below(2) == 0 {
                    // Marked for explicit zeros by `stored_zeros`.
                    triplets.extend(
                        [lo.wrapping_sub(1), hi]
                            .into_iter()
                            .filter(|&c| c < n)
                            .map(|c| (r, c, 7.0)),
                    );
                }
            }
            1 => {
                for c in lo..hi {
                    match rng.below(4) {
                        0 => {}
                        1 => triplets.push((r, c, 7.0)),
                        _ => triplets.push((r, c, rng.pick(&VALUES))),
                    }
                }
            }
            _ => {
                if rng.below(2) == 0 {
                    triplets.push((r, lo, 7.0));
                }
            }
        }
    }
    stored_zeros(CsrMatrix::from_triplets(rows, n, &triplets))
}

/// Turns the stored `7.0` entries into explicit zeros (`from_triplets`
/// drops zeros; `map` keeps the entries it rewrites).
fn stored_zeros(s: CsrMatrix) -> Matrix {
    Matrix::sparse(s.map(|v| if v == 7.0 { 0.0 } else { v }))
}

fn range_block(rng: &mut Rng, n: usize) -> Matrix {
    let ranges = (0..1 + rng.below(3)).map(|_| rng.interval(n)).collect();
    Matrix::range_queries(n, ranges)
}

/// A union of 1–5 blocks over `n` cells, some of them scaled; nested
/// scales compound.
fn random_union(rng: &mut Rng, n: usize) -> Matrix {
    let blocks = (0..1 + rng.below(5))
        .map(|_| {
            let mut block = if rng.below(2) == 0 {
                sparse_block(rng, n)
            } else {
                range_block(rng, n)
            };
            while rng.below(3) == 0 {
                block = Matrix::scaled(rng.pick(&SCALES), block);
            }
            block
        })
        .collect();
    Matrix::vstack(blocks)
}

/// A key of kind `kind`: uniform, signed zeros, or values in runs.
fn key(rng: &mut Rng, kind: u8, n: usize) -> Vec<f64> {
    match kind {
        0 => vec![0.25; n],
        1 => (0..n).map(|_| rng.pick(&[0.0, -0.0])).collect(),
        _ => {
            let mut v = rng.pick(&[1.0, 2.0, 0.5]);
            (0..n)
                .map(|_| {
                    if rng.below(4) == 0 {
                        v = rng.pick(&[1.0, 2.0, 0.5]);
                    }
                    v
                })
                .collect()
        }
    }
}

/// The oracle: labels numbered by first column and each class's size.
fn oracle(dense: &DenseMatrix, key: Option<&[f64]>) -> (Vec<u32>, Vec<usize>) {
    let bits = |v: f64| if v == 0.0 { 0 } else { v.to_bits() };
    let signature = |j: usize| -> Vec<u64> {
        let mut s: Vec<u64> = (0..dense.rows()).map(|i| bits(dense.get(i, j))).collect();
        s.extend(key.map(|k| k[j].to_bits()));
        s
    };
    let mut firsts: Vec<Vec<u64>> = Vec::new();
    let mut labels = Vec::new();
    let mut sizes = Vec::new();
    for j in 0..dense.cols() {
        let s = signature(j);
        let k = match firsts.iter().position(|f| *f == s) {
            Some(k) => k,
            None => {
                firsts.push(s);
                sizes.push(0);
                firsts.len() - 1
            }
        };
        sizes[k] += 1;
        labels.push(k as u32);
    }
    (labels, sizes)
}

/// Checks `column_classes[_by]` of `a` against the oracle.
fn check(a: &Matrix, key: Option<&[f64]>) -> Result<(), String> {
    let dense = a.to_dense();
    let (labels, sizes) = oracle(&dense, key);
    let got = match key {
        Some(k) => a.column_classes_by(k),
        None => a.column_classes(),
    };
    let Some(got) = got else {
        prop_assert_eq!(sizes.len(), a.cols(), "None, but the oracle merges columns");
        return Ok(());
    };
    prop_assert!(sizes.len() < a.cols(), "every column distinct, yet Some");
    prop_assert_eq!(&got.labels, &labels);
    prop_assert_eq!(&got.sizes, &sizes);
    let mut reduced = DenseMatrix::zeros(a.rows(), sizes.len());
    for (j, &l) in labels.iter().enumerate().rev() {
        for i in 0..a.rows() {
            reduced.set(i, l as usize, dense.get(i, j));
        }
    }
    prop_assert_eq!(got.matrix.to_dense(), reduced);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn classes_match_the_dense_oracle(
        seed in 0u64..1 << 40,
        n in 1usize..48,
        kind in 0u8..4,
    ) {
        let mut rng = Rng(seed);
        let a = random_union(&mut rng, n);
        if kind == 3 {
            check(&a, None)?;
        } else {
            let k = key(&mut rng, kind, n);
            check(&a, Some(&k))?;
        }
    }

    /// A one-valued contiguous sparse row and the equal range row are
    /// the same interval to the refinement.
    #[test]
    fn contiguous_sparse_rows_classify_as_ranges(
        seed in 0u64..1 << 40,
        n in 2usize..64,
    ) {
        let mut rng = Rng(seed);
        let ranges: Vec<(usize, usize)> =
            (0..1 + rng.below(6)).map(|_| rng.interval(n)).collect();
        let rows: Vec<Matrix> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let mut ones: Vec<_> = (lo..hi).map(|c| (0, c, 1.0)).collect();
                if lo > 0 && rng.below(2) == 0 {
                    ones.push((0, lo - 1, 7.0));
                }
                stored_zeros(CsrMatrix::from_triplets(1, n, &ones))
            })
            .collect();
        let sparse = Matrix::vstack(rows).column_classes();
        let range = Matrix::range_queries(n, ranges).column_classes();
        prop_assert_eq!(sparse.is_some(), range.is_some());
        if let (Some(s), Some(r)) = (sparse, range) {
            prop_assert_eq!(&s.labels, &r.labels);
            prop_assert_eq!(&s.sizes, &r.sizes);
            let (Matrix::Sparse(sm), Matrix::Sparse(rm)) = (&s.matrix, &r.matrix) else {
                return Err("reduced matrices are sparse".to_string());
            };
            prop_assert_eq!(sm, rm);
        }
    }
}
