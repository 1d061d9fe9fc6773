//! Workload constructors used across the paper's evaluation.
//!
//! A workload is a set of linear counting queries the analyst ultimately
//! wants answered, in matrix form (one row per query). Everything here
//! builds *implicit* `Matrix` values so workloads over 10⁶+-cell domains
//! stay cheap (paper Example 7.3: a census workload that would take 8 GB
//! sparse is a few combinator nodes here).

use ektelo_matrix::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `m` uniformly random interval queries over `n` cells — the paper's
/// `RandomRange(m)` workload (Table 4). Widths are drawn log-uniformly so
/// short and long ranges are both represented.
pub fn random_range(n: usize, m: usize, seed: u64) -> Matrix {
    Matrix::range_queries(n, random_range_pairs(n, m, seed, 1, n))
}

/// `RandomRange` restricted to *small* ranges (width ≤ `max_width`) —
/// the workload used in the domain-reduction experiment (Table 6).
pub fn random_range_small(n: usize, m: usize, max_width: usize, seed: u64) -> Matrix {
    Matrix::range_queries(n, random_range_pairs(n, m, seed, 1, max_width.max(1)))
}

fn random_range_pairs(
    n: usize,
    m: usize,
    seed: u64,
    min_width: usize,
    max_width: usize,
) -> Vec<(usize, usize)> {
    assert!(n > 0 && min_width >= 1 && max_width <= n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4a4d5e);
    let mut out = Vec::with_capacity(m);
    let lo_w = (min_width as f64).ln();
    let hi_w = (max_width as f64).ln();
    for _ in 0..m {
        let w = if max_width == min_width {
            min_width
        } else {
            let lw: f64 = rng.random_range(lo_w..=hi_w);
            (lw.exp().round() as usize).clamp(min_width, max_width)
        };
        let lo = rng.random_range(0..=(n - w));
        out.push((lo, lo + w));
    }
    out
}

/// `m` random axis-aligned rectangle queries over a 2-D `rows×cols` grid,
/// built with the paper's Example 7.4 construction: a ±1 sparse
/// corner matrix times `Prefix ⊗ Prefix`.
pub fn random_range_2d(rows: usize, cols: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2d2d);
    let n = rows * cols;
    let mut triplets = Vec::with_capacity(4 * m);
    for q in 0..m {
        let r1 = rng.random_range(0..rows);
        let r2 = rng.random_range(r1..rows);
        let c1 = rng.random_range(0..cols);
        let c2 = rng.random_range(c1..cols);
        // Inclusion–exclusion over prefix corners P(r, c) = sum over
        // [0..=r]×[0..=c]; corner index = r*cols + c in the kron layout.
        triplets.push((q, r2 * cols + c2, 1.0));
        if r1 > 0 {
            triplets.push((q, (r1 - 1) * cols + c2, -1.0));
        }
        if c1 > 0 {
            triplets.push((q, r2 * cols + (c1 - 1), -1.0));
        }
        if r1 > 0 && c1 > 0 {
            triplets.push((q, (r1 - 1) * cols + (c1 - 1), 1.0));
        }
    }
    let corners = Matrix::sparse(ektelo_matrix::CsrMatrix::from_triplets(m, n, &triplets));
    Matrix::product(
        corners,
        Matrix::kron(Matrix::prefix(rows), Matrix::prefix(cols)),
    )
}

/// A single marginal over the attributes flagged `true` in `keep`
/// (paper Example 7.5): `⊗ᵢ (keep[i] ? Identity : Total)`.
///
/// ```
/// use ektelo_data::workloads::marginal;
/// // Over a 2×3 domain, keep only the first attribute: sums over the
/// // second.
/// let w = marginal(&[2, 3], &[true, false]);
/// assert_eq!(w.shape(), (2, 6));
/// let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// assert_eq!(w.matvec(&x), vec![6.0, 15.0]);
/// ```
pub fn marginal(sizes: &[usize], keep: &[bool]) -> Matrix {
    assert_eq!(sizes.len(), keep.len(), "marginal mask length mismatch");
    let factors = sizes
        .iter()
        .zip(keep)
        .map(|(&n, &k)| {
            if k {
                Matrix::identity(n)
            } else {
                Matrix::total(n)
            }
        })
        .collect();
    Matrix::kron_list(factors)
}

/// The union of all k-way marginals over the given attribute sizes
/// (paper Example 7.5 shows the 2-way case).
pub fn all_k_way_marginals(sizes: &[usize], k: usize) -> Matrix {
    let d = sizes.len();
    assert!(k <= d, "k-way marginals need k ≤ arity");
    let mut blocks = Vec::new();
    // Enumerate all bitmasks with exactly k bits set.
    for mask in 0u32..(1 << d) {
        if mask.count_ones() as usize != k {
            continue;
        }
        let keep: Vec<bool> = (0..d).map(|i| mask & (1 << i) != 0).collect();
        blocks.push(marginal(sizes, &keep));
    }
    Matrix::vstack(blocks)
}

/// The paper's Census `Prefix(Income)` workload (§9.2): all queries
/// `(income ∈ (0, i_high), age = a?, marital = m?, race = r?, gender = g?)`
/// where each non-income attribute is either a fixed value or `<any>`.
/// Expressed as `Prefix ⊗ (I+Total) ⊗ (I+Total) ⊗ (I+Total) ⊗ (I+Total)`.
pub fn census_prefix_income(sizes: &[usize]) -> Matrix {
    assert!(!sizes.is_empty());
    let mut factors = vec![Matrix::prefix(sizes[0])];
    for &s in &sizes[1..] {
        factors.push(Matrix::vstack(vec![Matrix::total(s), Matrix::identity(s)]));
    }
    Matrix::kron_list(factors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_range_respects_width_cap() {
        let w = random_range_small(100, 50, 5, 3);
        if let Matrix::Range(r) = &w {
            for (lo, hi) in r.ranges() {
                assert!(hi - lo <= 5 && hi - lo >= 1);
            }
        } else {
            panic!("expected Range matrix");
        }
    }

    #[test]
    fn random_range_2d_matches_bruteforce() {
        let (rows, cols, m) = (6, 5, 20);
        let w = random_range_2d(rows, cols, m, 11);
        assert_eq!(w.shape(), (m, rows * cols));
        // Every query must be a 0/1 rectangle indicator: check via dense.
        let d = w.to_dense();
        for q in 0..m {
            let row = d.row_slice(q);
            assert!(
                row.iter().all(|&v| v == 0.0 || v == 1.0),
                "row {q}: {row:?}"
            );
            // The support must be a full rectangle: check the bounding box
            // has exactly as many ones as its area.
            let mut rmin = rows;
            let mut rmax = 0;
            let mut cmin = cols;
            let mut cmax = 0;
            let mut count = 0;
            for r in 0..rows {
                for c in 0..cols {
                    if row[r * cols + c] == 1.0 {
                        rmin = rmin.min(r);
                        rmax = rmax.max(r);
                        cmin = cmin.min(c);
                        cmax = cmax.max(c);
                        count += 1;
                    }
                }
            }
            assert_eq!(
                count,
                (rmax - rmin + 1) * (cmax - cmin + 1),
                "row {q} not a rectangle"
            );
        }
    }

    #[test]
    fn marginal_shapes() {
        let sizes = [3, 4, 5];
        let w = marginal(&sizes, &[true, false, true]);
        assert_eq!(w.shape(), (15, 60));
        let w2 = all_k_way_marginals(&sizes, 2);
        // (3·4) + (3·5) + (4·5) = 47 queries
        assert_eq!(w2.rows(), 47);
    }

    #[test]
    fn marginals_sum_to_total() {
        // Any marginal's answers must sum to the dataset total.
        let sizes = [3, 4];
        let w = marginal(&sizes, &[true, false]);
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let total: f64 = x.iter().sum();
        assert_eq!(w.matvec(&x).iter().sum::<f64>(), total);
    }

    #[test]
    fn census_workload_is_fully_implicit() {
        let w = census_prefix_income(&[5000, 5, 7, 4, 2]);
        assert_eq!(w.cols(), 1_400_000);
        assert_eq!(w.rows(), 5000 * 6 * 8 * 5 * 3);
        // The paper's point: this would be ~8 GB sparse; implicitly it
        // stores nothing.
        assert_eq!(w.stored_scalars(), 0);
    }
}
