//! Workload-based partition selection (paper §8, Algorithm 4). Public.
//!
//! Cells the workload never distinguishes — identical columns of `W` — can
//! be merged losslessly: `W x = W' x'` with `W' = W P⁺`, `x' = P x`
//! (Prop. 8.3), and the reduction never increases error (Thm. 8.4).
//! Finding identical columns without materializing `W` uses a randomized
//! sketch (Algorithm 4): `h = Wᵀ v` for random `v` groups columns by the
//! value of `h`; identical columns always collide, distinct columns
//! collide with probability ≈ 0. We run the sketch twice to push the
//! failure probability below ~10⁻³².

use ektelo_matrix::{partition_from_labels, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Independent sketch repetitions per column signature (Algorithm 4): two
/// push the false-collision probability of distinct columns to ~10⁻²²
/// (see [`workload_based_partition`]).
const SKETCHES: usize = 2;

/// Computes the workload-based reduction matrix `P` (Algorithm 4) from
/// two independent sketch repetitions.
///
/// Columns are compared after quantizing the sketch to an absolute grid
/// (10⁻¹¹ of the sketch's range): implicit evaluation (prefix sums,
/// difference arrays) reaches mathematically identical columns along
/// different floating-point accumulation paths, so bit-exact comparison
/// would spuriously split them. Quantization keeps the false-collision
/// probability of *distinct* columns at ~10⁻¹¹ per sketch (~10⁻²² over
/// both) while absorbing the absolute accumulation error.
pub fn workload_based_partition(workload: &Matrix, seed: u64) -> Matrix {
    let n = workload.cols();
    let m = workload.rows();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x8a17);
    // Column signatures: SKETCHES quantized sketch values per column. The
    // grid step is absolute (10⁻¹¹ of the sketch's dynamic range) because
    // the accumulation error of implicit evaluation is absolute too — e.g.
    // a zero column downstream of cancelling prefix sums carries ~1e-16
    // residue that a relative comparison could never match with an exact
    // zero.
    let mut signatures: Vec<Vec<i64>> = vec![Vec::with_capacity(SKETCHES); n];
    for _ in 0..SKETCHES {
        let v: Vec<f64> = (0..m).map(|_| rng.random::<f64>()).collect();
        let h = workload.rmatvec(&v);
        let max_abs = h.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let step = (max_abs * 1e-11).max(f64::MIN_POSITIVE);
        for (sig, &hv) in signatures.iter_mut().zip(&h) {
            sig.push((hv / step).round() as i64);
        }
    }
    let mut groups: HashMap<&[i64], usize> = HashMap::new();
    let mut labels = vec![0usize; n];
    for (j, sig) in signatures.iter().enumerate() {
        let next = groups.len();
        let g = *groups.entry(sig.as_slice()).or_insert(next);
        labels[j] = g;
    }
    partition_from_labels(groups.len(), &labels)
}

/// Convenience: the full reduction of paper Prop. 8.3 — returns
/// `(P, W' = W·P⁺)` so plans can transform both the data and the workload.
pub fn workload_reduction(workload: &Matrix, seed: u64) -> (Matrix, Matrix) {
    let p = workload_based_partition(workload, seed);
    let w_reduced = Matrix::product(workload.clone(), p.partition_pinv());
    (p, w_reduced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_8_1_two_group_reduction() {
        // Census(salary≤100K ∧ sex=M), (salary>100K ∧ sex=F): over a
        // 4-cell domain (salary≤?, sex) the workload needs only the cells
        // it touches; untouched cells share the all-zero column group.
        let w = Matrix::from_rows(vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0, 1.0]]);
        let p = workload_based_partition(&w, 0);
        // Groups: {cell0}, {cell1, cell2}, {cell3} → 3 groups.
        assert_eq!(p.rows(), 3);
    }

    #[test]
    fn marginal_workload_admits_no_reduction() {
        // All 1-way marginals distinguish every cell (paper Example 8.1).
        let w = ektelo_data::workloads::all_k_way_marginals(&[3, 4], 1);
        let p = workload_based_partition(&w, 1);
        assert_eq!(p.rows(), 12);
    }

    #[test]
    fn reduction_is_lossless_prop_8_3() {
        // Random small-range workload over 64 cells with forced duplicate
        // columns (queries over pairs).
        let ranges: Vec<(usize, usize)> = (0..16).map(|i| (4 * (i % 8), 4 * (i % 8) + 4)).collect();
        let w = Matrix::range_queries(64, ranges);
        let (p, w_red) = workload_reduction(&w, 7);
        assert!(p.rows() < 64, "expected a real reduction, got {}", p.rows());
        let x: Vec<f64> = (0..64).map(|i| ((i * 31) % 11) as f64).collect();
        let x_red = p.matvec(&x);
        let full = w.matvec(&x);
        let reduced = w_red.matvec(&x_red);
        for (a, b) in full.iter().zip(&reduced) {
            assert!((a - b).abs() < 1e-9, "lossless reduction violated");
        }
    }

    #[test]
    fn total_workload_reduces_to_one_group() {
        let w = Matrix::total(100);
        let p = workload_based_partition(&w, 3);
        assert_eq!(p.rows(), 1);
    }

    #[test]
    fn identity_workload_reduces_nothing() {
        let w = Matrix::identity(32);
        let p = workload_based_partition(&w, 4);
        assert_eq!(p.rows(), 32);
    }

    #[test]
    fn works_on_implicit_census_style_workload() {
        // Prefix ⊗ (Total ∪ Identity): huge row count, implicit evaluation.
        let w = Matrix::kron(
            Matrix::prefix(64),
            Matrix::vstack(vec![Matrix::total(4), Matrix::identity(4)]),
        );
        let p = workload_based_partition(&w, 5);
        // This workload distinguishes all cells.
        assert_eq!(p.rows(), 256);
        assert!(p.is_partition());
    }
}
