//! Implicit range-query workloads.
//!
//! Paper Example 7.4 represents a workload of m interval queries as the
//! product of an m×n sparse matrix (two entries per row) with the implicit
//! `Prefix` matrix, evaluating products in `O(n + m)`. We implement the
//! same idea directly: each query is a pair `[lo, hi)`, products use a
//! prefix-sum, transpose-products use a difference array, and exact column
//! sums (for sensitivity) also come from a difference array — all without
//! materializing anything.

use crate::kernels;

/// An implicit workload of `m` interval range queries over `n` cells.
#[derive(Clone, Debug, PartialEq)]
pub struct RangeQueries {
    n: usize,
    /// Half-open intervals `[lo, hi)`, `lo < hi ≤ n`.
    ranges: Vec<(u32, u32)>,
}

impl RangeQueries {
    /// Builds a range workload; panics on empty or out-of-bounds intervals.
    pub fn new(n: usize, ranges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        assert!(n <= u32::MAX as usize, "domain too large for u32 indices");
        let ranges = ranges
            .into_iter()
            .map(|(lo, hi)| {
                assert!(
                    lo < hi && hi <= n,
                    "invalid range [{lo}, {hi}) for domain {n}"
                );
                (lo as u32, hi as u32)
            })
            .collect();
        RangeQueries { n, ranges }
    }

    /// Domain size (number of columns).
    pub fn domain(&self) -> usize {
        self.n
    }

    /// Number of queries (rows).
    pub fn num_queries(&self) -> usize {
        self.ranges.len()
    }

    /// The underlying half-open intervals.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (lo as usize, hi as usize))
    }

    /// The half-open interval of query `k`.
    pub fn range(&self, k: usize) -> (usize, usize) {
        let (lo, hi) = self.ranges[k];
        (lo as usize, hi as usize)
    }

    /// Scratch scalars needed by the product kernels: one prefix-sum or
    /// difference array of `n + 1` entries.
    pub(crate) fn scratch_len(&self) -> usize {
        self.n + 1
    }

    /// `out[k] = Σ_{i ∈ [lo_k, hi_k)} x[i]` via one prefix-sum pass in
    /// caller-provided scratch (≥ [`Self::scratch_len`] scalars).
    pub(crate) fn matvec_into(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec dimension mismatch");
        assert_eq!(out.len(), self.ranges.len(), "matvec output mismatch");
        let prefix = &mut scratch[..self.n + 1];
        prefix[0] = 0.0;
        kernels::prefix_sum_into(&mut prefix[1..], x);
        for (o, &(lo, hi)) in out.iter_mut().zip(&self.ranges) {
            *o = prefix[hi as usize] - prefix[lo as usize];
        }
    }

    /// `out = Wᵀ y` via a difference array in caller-provided scratch (≥
    /// [`Self::scratch_len`] scalars).
    pub(crate) fn rmatvec_into(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(y.len(), self.ranges.len(), "rmatvec dimension mismatch");
        assert_eq!(out.len(), self.n, "rmatvec output mismatch");
        let diff = &mut scratch[..self.n + 1];
        diff.fill(0.0);
        for (&(lo, hi), &yk) in self.ranges.iter().zip(y) {
            diff[lo as usize] += yk;
            diff[hi as usize] -= yk;
        }
        kernels::prefix_sum_into(out, &diff[..self.n]);
    }

    /// Exact column sums (all entries are 0/1, so |W| = W = W²) in
    /// `O(n + m)`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.col_sums_into(&mut out);
        out
    }

    /// [`Self::col_sums`] written over `out` (`n` scalars). The difference
    /// array is built in `out` itself and then summed in place; a range
    /// ending at `n` marks nothing the sum reads.
    pub(crate) fn col_sums_into(&self, out: &mut [f64]) {
        out.fill(0.0);
        for &(lo, hi) in &self.ranges {
            out[lo as usize] += 1.0;
            if let Some(d) = out.get_mut(hi as usize) {
                *d -= 1.0;
            }
        }
        let mut acc = 0.0;
        for o in out {
            acc += *o;
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    const SAMPLE: [(usize, usize); 4] = [(1, 4), (3, 5), (0, 4), (1, 2)];

    fn sample() -> RangeQueries {
        RangeQueries::new(5, SAMPLE)
    }

    /// The sample workload as an implicit matrix and in its CSR form.
    fn implicit_and_csr() -> (Matrix, Matrix) {
        let w = Matrix::range_queries(5, SAMPLE.to_vec());
        let csr = Matrix::sparse(w.to_sparse());
        (w, csr)
    }

    #[test]
    fn matvec_matches_manual_sums() {
        let (w, csr) = implicit_and_csr();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(w.matvec(&x), vec![9.0, 9.0, 10.0, 2.0]);
        assert_eq!(w.matvec(&x), csr.matvec(&x));
    }

    #[test]
    fn rmatvec_matches_dense_transpose() {
        let (w, csr) = implicit_and_csr();
        let y = [1.0, -1.0, 0.5, 2.0];
        // Dense W: rows over [1,4),[3,5),[0,4),[1,2)
        // col sums of diag(y)·W: col0: 0.5; col1: 1+0.5+2; col2: 1+0.5; col3: 1-1+0.5; col4: -1
        assert_eq!(w.rmatvec(&y), vec![0.5, 3.5, 1.5, 0.5, -1.0]);
        assert_eq!(w.rmatvec(&y), csr.rmatvec(&y));
    }

    #[test]
    fn col_sums_count_coverage() {
        let w = sample();
        assert_eq!(w.col_sums(), vec![1.0, 3.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn rejects_bad_range() {
        RangeQueries::new(4, vec![(2, 2)]);
    }
}
