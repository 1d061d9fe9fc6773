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

    /// `out[k] = Σ_{i ∈ [lo_k, hi_k)} x[i]` via one prefix-sum pass.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        // xlint: allow(warm-path-alloc, reason = "ad-hoc entry point that owns its scratch; the planned evaluator reaches this type via the allocation-free matvec_rec variant")
        let mut scratch = vec![0.0; self.scratch_len()];
        self.matvec_rec(x, out, &mut scratch);
    }

    /// [`Self::matvec_into`] with caller-provided scratch (≥
    /// [`Self::scratch_len`] scalars); performs no allocation.
    pub(crate) fn matvec_rec(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec dimension mismatch");
        assert_eq!(out.len(), self.ranges.len(), "matvec output mismatch");
        let prefix = &mut scratch[..self.n + 1];
        prefix[0] = 0.0;
        kernels::prefix_sum_into(&mut prefix[1..], x);
        for (o, &(lo, hi)) in out.iter_mut().zip(&self.ranges) {
            *o = prefix[hi as usize] - prefix[lo as usize];
        }
    }

    /// `out = Wᵀ y` via a difference array.
    pub fn rmatvec_into(&self, y: &[f64], out: &mut [f64]) {
        // xlint: allow(warm-path-alloc, reason = "ad-hoc entry point that owns its scratch; the planned evaluator reaches this type via the allocation-free rmatvec_rec variant")
        let mut scratch = vec![0.0; self.scratch_len()];
        self.rmatvec_rec(y, out, &mut scratch);
    }

    /// [`Self::rmatvec_into`] with caller-provided scratch (≥
    /// [`Self::scratch_len`] scalars); performs no allocation.
    pub(crate) fn rmatvec_rec(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
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

    fn sample() -> RangeQueries {
        RangeQueries::new(5, vec![(1, 4), (3, 5), (0, 4), (1, 2)])
    }

    #[test]
    fn matvec_matches_manual_sums() {
        let w = sample();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = vec![0.0; 4];
        w.matvec_into(&x, &mut y);
        assert_eq!(y, vec![9.0, 9.0, 10.0, 2.0]);
    }

    #[test]
    fn rmatvec_matches_dense_transpose() {
        let w = sample();
        let y = [1.0, -1.0, 0.5, 2.0];
        let mut x = vec![0.0; 5];
        w.rmatvec_into(&y, &mut x);
        // Dense W: rows over [1,4),[3,5),[0,4),[1,2)
        // col sums of diag(y)·W: col0: 0.5; col1: 1+0.5+2; col2: 1+0.5; col3: 1-1+0.5; col4: -1
        assert_eq!(x, vec![0.5, 3.5, 1.5, 0.5, -1.0]);
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
