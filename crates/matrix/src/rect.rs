//! Implicit 2-D rectangle-query workloads.
//!
//! The natural extension of [`crate::RangeQueries`] to two-dimensional
//! domains (paper §7.5: "the range query construction can be naturally
//! extended to multi-dimensional domains"). A query is an axis-aligned
//! rectangle over an `rows×cols` grid flattened row-major; products use 2-D
//! prefix sums and difference arrays, so `matvec`/`rmatvec`/column sums all
//! run in `O(n + m)`. This is the backbone of the QuadTree, UniformGrid and
//! AdaptiveGrid strategies.

/// A workload of `m` axis-aligned rectangle queries over an `rows×cols`
/// grid.
#[derive(Clone, Debug, PartialEq)]
pub struct RectQueries2D {
    rows: usize,
    cols: usize,
    /// Half-open rectangles `(r_lo, r_hi, c_lo, c_hi)`.
    rects: Vec<(u32, u32, u32, u32)>,
}

impl RectQueries2D {
    /// Builds a rectangle workload; panics on empty or out-of-bounds rects.
    pub fn new(rows: usize, cols: usize, rects: Vec<(usize, usize, usize, usize)>) -> Self {
        let rects = rects
            .into_iter()
            .map(|(r1, r2, c1, c2)| {
                assert!(
                    r1 < r2 && r2 <= rows && c1 < c2 && c2 <= cols,
                    "invalid rectangle [{r1},{r2})x[{c1},{c2}) for grid {rows}x{cols}"
                );
                (r1 as u32, r2 as u32, c1 as u32, c2 as u32)
            })
            .collect();
        RectQueries2D { rows, cols, rects }
    }

    /// Flattened domain size.
    pub fn domain(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of queries.
    pub fn num_queries(&self) -> usize {
        self.rects.len()
    }

    /// The underlying rectangles.
    pub fn rects(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        self.rects
            .iter()
            .map(|&(a, b, c, d)| (a as usize, b as usize, c as usize, d as usize))
    }

    /// Scratch scalars needed by the product kernels: one padded
    /// `(rows+1)×(cols+1)` prefix-sum or difference array.
    pub(crate) fn scratch_len(&self) -> usize {
        (self.rows + 1) * (self.cols + 1)
    }

    /// `out[k] = Σ x[rect_k]` via one 2-D prefix-sum pass.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        // xlint: allow(warm-path-alloc, reason = "ad-hoc entry point that owns its scratch; the planned evaluator reaches this type via the allocation-free matvec_rec variant")
        let mut scratch = vec![0.0; self.scratch_len()];
        self.matvec_rec(x, out, &mut scratch);
    }

    /// [`Self::matvec_into`] with caller-provided scratch (≥
    /// [`Self::scratch_len`] scalars); performs no allocation.
    pub(crate) fn matvec_rec(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(x.len(), self.domain(), "matvec dimension mismatch");
        assert_eq!(out.len(), self.rects.len(), "matvec output mismatch");
        let (r, c) = (self.rows, self.cols);
        // prefix[(i, j)] = sum over [0,i)×[0,j); padded to (r+1)×(c+1).
        let stride = c + 1;
        let prefix = &mut scratch[..(r + 1) * stride];
        prefix.fill(0.0);
        for i in 0..r {
            let mut rowacc = 0.0;
            for j in 0..c {
                rowacc += x[i * c + j];
                prefix[(i + 1) * stride + j + 1] = prefix[i * stride + j + 1] + rowacc;
            }
        }
        for (o, &(r1, r2, c1, c2)) in out.iter_mut().zip(&self.rects) {
            let (r1, r2, c1, c2) = (r1 as usize, r2 as usize, c1 as usize, c2 as usize);
            *o = prefix[r2 * stride + c2] - prefix[r1 * stride + c2] - prefix[r2 * stride + c1]
                + prefix[r1 * stride + c1];
        }
    }

    /// `out = Wᵀ y` via a 2-D difference array.
    pub fn rmatvec_into(&self, y: &[f64], out: &mut [f64]) {
        // xlint: allow(warm-path-alloc, reason = "ad-hoc entry point that owns its scratch; the planned evaluator reaches this type via the allocation-free rmatvec_rec variant")
        let mut scratch = vec![0.0; self.scratch_len()];
        self.rmatvec_rec(y, out, &mut scratch);
    }

    /// [`Self::rmatvec_into`] with caller-provided scratch (≥
    /// [`Self::scratch_len`] scalars); performs no allocation.
    pub(crate) fn rmatvec_rec(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(y.len(), self.rects.len(), "rmatvec dimension mismatch");
        assert_eq!(out.len(), self.domain(), "rmatvec output mismatch");
        self.accumulate(y.iter().copied(), out, scratch);
    }

    /// Exact column sums (entries are 0/1) in `O(n + m)`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.domain()];
        let mut scratch = vec![0.0; self.scratch_len()];
        self.accumulate(
            std::iter::repeat_n(1.0, self.rects.len()),
            &mut out,
            &mut scratch,
        );
        out
    }

    fn accumulate(&self, values: impl Iterator<Item = f64>, out: &mut [f64], scratch: &mut [f64]) {
        let (r, c) = (self.rows, self.cols);
        let stride = c + 1;
        let diff = &mut scratch[..(r + 1) * stride];
        diff.fill(0.0);
        for (&(r1, r2, c1, c2), v) in self.rects.iter().zip(values) {
            let (r1, r2, c1, c2) = (r1 as usize, r2 as usize, c1 as usize, c2 as usize);
            diff[r1 * stride + c1] += v;
            diff[r1 * stride + c2] -= v;
            diff[r2 * stride + c1] -= v;
            diff[r2 * stride + c2] += v;
        }
        // Two cumulative passes turn the difference array into cell values.
        for i in 0..r {
            let mut rowacc = 0.0;
            for j in 0..c {
                rowacc += diff[i * stride + j];
                let val = rowacc + if i > 0 { out[(i - 1) * c + j] } else { 0.0 };
                out[i * c + j] = val;
            }
        }
    }

    /// Materializes as `(row, col, value)` triplets.
    pub fn triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for (k, (r1, r2, c1, c2)) in self.rects().enumerate() {
            for i in r1..r2 {
                for j in c1..c2 {
                    out.push((k, i * self.cols + j, 1.0));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn sample() -> RectQueries2D {
        RectQueries2D::new(
            4,
            5,
            vec![(0, 2, 0, 2), (1, 4, 2, 5), (0, 4, 0, 5), (2, 3, 1, 2)],
        )
    }

    fn x20() -> Vec<f64> {
        (0..20).map(|i| i as f64).collect()
    }

    #[test]
    fn matvec_matches_materialized() {
        let w = sample();
        let csr = CsrMatrix::from_triplets(w.num_queries(), w.domain(), &w.triplets());
        let x = x20();
        let mut got = vec![0.0; 4];
        w.matvec_into(&x, &mut got);
        let mut expect = vec![0.0; 4];
        csr.matvec_into(&x, &mut expect);
        assert_eq!(got, expect);
    }

    #[test]
    fn rmatvec_matches_materialized() {
        let w = sample();
        let csr = CsrMatrix::from_triplets(w.num_queries(), w.domain(), &w.triplets());
        let y = [1.0, -2.0, 0.5, 3.0];
        let mut got = vec![0.0; 20];
        w.rmatvec_into(&y, &mut got);
        let mut expect = vec![0.0; 20];
        csr.rmatvec_into(&y, &mut expect);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn col_sums_match_materialized() {
        let w = sample();
        let csr = CsrMatrix::from_triplets(w.num_queries(), w.domain(), &w.triplets());
        assert_eq!(w.col_sums(), csr.abs_pow_col_sums(1));
    }

    #[test]
    #[should_panic(expected = "invalid rectangle")]
    fn rejects_empty_rect() {
        RectQueries2D::new(4, 4, vec![(1, 1, 0, 2)]);
    }
}
