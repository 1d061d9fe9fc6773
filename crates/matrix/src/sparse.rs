//! Compressed-sparse-row matrices.
//!
//! CSR is the explicit representation used when a strategy has structure
//! (hierarchies, partitions, selectors) but no implicit form, and the
//! fallback target of [`crate::Matrix::to_sparse`]. Column indices are
//! stored as `u32`: EKTELO data vectors fit in memory on one machine
//! (paper §2.2), so domains beyond 2³² cells are out of scope.

use crate::DenseMatrix;

/// A CSR (compressed sparse row) matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index of each stored entry.
    indices: Vec<u32>,
    /// Value of each stored entry.
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from `(row, col, value)` triplets. Duplicate coordinates are
    /// summed; explicit zeros are dropped.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        assert!(
            cols <= u32::MAX as usize,
            "CSR column indices are u32; domain too large"
        );
        let mut per_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            per_row[r].push((c as u32, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut data = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = row.iter().peekable();
            while let Some(&(c, mut v)) = iter.next() {
                while let Some(&&(c2, v2)) = iter.peek() {
                    if c2 == c {
                        v += v2;
                        iter.next();
                    } else {
                        break;
                    }
                }
                if v != 0.0 {
                    indices.push(c);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// The `picks.len() × cols` row selector: row `r` holds one `1.0` at
    /// column `picks[r]`, so `selector · x` gathers `x[picks[r]]`.
    pub fn selector(cols: usize, picks: &[u32]) -> Self {
        assert!(
            picks.iter().all(|&c| (c as usize) < cols),
            "selector index out of range for domain {cols}"
        );
        let entries = || picks.iter().enumerate().map(|(r, &c)| (r, c, 1.0));
        CsrMatrix::bucket_rows(picks.len(), cols, entries)
    }

    /// The `1 × row.len()` matrix of `row`'s non-zero entries: equal to
    /// [`CsrMatrix::from_triplets`] over them, built by one counting pass
    /// and one fill, without a sort.
    pub fn from_row(row: &[f64]) -> Self {
        let nonzeros = || {
            row.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(c, &v)| (0, c as u32, v))
        };
        CsrMatrix::bucket_rows(1, row.len(), nonzeros)
    }

    /// The `1 × cols` row of ones over `[lo, hi)`: equal to
    /// [`CsrMatrix::from_row`] of that row, built without it.
    pub fn interval_row(cols: usize, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= cols && cols <= u32::MAX as usize,
            "interval [{lo}, {hi}) out of range for domain {cols}"
        );
        let indices = (lo..hi).map(|c| c as u32).collect();
        CsrMatrix::from_parts(cols, vec![0, hi - lo], indices, vec![1.0; hi - lo])
    }

    /// Assembles a matrix from CSR arrays that already hold sorted,
    /// distinct columns per row.
    pub(crate) fn from_parts(
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.last(), Some(&indices.len()));
        debug_assert_eq!(indices.len(), data.len());
        debug_assert!(indices.iter().all(|&c| (c as usize) < cols));
        CsrMatrix {
            rows: indptr.len() - 1,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// The n×n sparse identity.
    pub fn identity(n: usize) -> Self {
        let diagonal: Vec<u32> = (0..n as u32).collect();
        Self::selector(n, &diagonal)
    }

    /// A square diagonal matrix from its diagonal.
    pub fn diag(d: &[f64]) -> Self {
        let mut m = Self::identity(d.len());
        m.data.copy_from_slice(d);
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Stored values.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Iterates over the stored `(col, value)` entries of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.data[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// The same entries with every column `c` renamed to `local[c]`, over
    /// `width` columns. `local` must be increasing on the columns each row
    /// touches, so renamed rows keep their sorted order.
    pub(crate) fn remap_columns(&self, local: &[u32], width: usize) -> CsrMatrix {
        let indices: Vec<u32> = self.indices.iter().map(|&c| local[c as usize]).collect();
        debug_assert!(indices.iter().all(|&c| (c as usize) < width));
        CsrMatrix {
            rows: self.rows,
            cols: width,
            indptr: self.indptr.clone(),
            indices,
            data: self.data.clone(),
        }
    }

    /// True when `self` is exactly the square identity: one stored `1.0`
    /// per row, on the diagonal.
    pub(crate) fn is_identity(&self) -> bool {
        self.rows == self.cols
            && self.nnz() == self.rows
            && self.indptr.iter().enumerate().all(|(i, &p)| p == i)
            && self
                .indices
                .iter()
                .enumerate()
                .all(|(i, &c)| c as usize == i)
            && self.data.iter().all(|&v| v == 1.0)
    }

    /// `out = self · x`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output dimension mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let lo = self.indptr[i];
            let hi = self.indptr[i + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.data[k] * x[self.indices[k] as usize];
            }
            *o = acc;
        }
    }

    /// `out = selfᵀ · y`.
    pub fn rmatvec_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "rmatvec dimension mismatch");
        assert_eq!(out.len(), self.cols, "rmatvec output dimension mismatch");
        out.fill(0.0);
        for (i, &yi) in y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            let lo = self.indptr[i];
            let hi = self.indptr[i + 1];
            for k in lo..hi {
                out[self.indices[k] as usize] += yi * self.data[k];
            }
        }
    }

    /// The transpose in CSR form (a CSC view of `self`).
    pub fn transpose(&self) -> CsrMatrix {
        let entries = || {
            (0..self.rows).flat_map(move |i| {
                let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
                (lo..hi).map(move |k| (self.indices[k] as usize, i as u32, self.data[k]))
            })
        };
        CsrMatrix::bucket_rows(self.cols, self.rows, entries)
    }

    /// Counting sort of entries `(row, col, value)` into CSR: one pass
    /// over `entries()` counts the rows, a second scatters; rows keep
    /// arrival order, so entries in ascending `col` give sorted rows.
    pub(crate) fn bucket_rows<I: Iterator<Item = (usize, u32, f64)>>(
        rows: usize,
        cols: usize,
        entries: impl Fn() -> I,
    ) -> Self {
        assert!(cols <= u32::MAX as usize, "CSR column indices are u32");
        let mut indptr = vec![0usize; rows + 1];
        for (r, _, _) in entries() {
            indptr[r + 1] += 1;
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        // `indptr[r]` is row r's write cursor; it ends at row r + 1's start,
        // so shifting the array by one restores the row starts.
        let mut indices = vec![0u32; indptr[rows]];
        let mut data = vec![0.0; indptr[rows]];
        for (r, c, v) in entries() {
            let at = &mut indptr[r];
            indices[*at] = c;
            data[*at] = v;
            *at += 1;
        }
        indptr.copy_within(0..rows, 1);
        indptr[0] = 0;
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Sparse–sparse product `self · other` (Gustavson's algorithm).
    pub fn matmul(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices: Vec<u32> = Vec::new();
        let mut data: Vec<f64> = Vec::new();
        indptr.push(0);
        // Dense accumulator with a touched-list keeps each row O(flops).
        let mut acc = vec![0.0f64; other.cols];
        let mut seen = vec![false; other.cols];
        let mut touched: Vec<u32> = Vec::new();
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let a = self.data[k];
                let arow = self.indices[k] as usize;
                for kk in other.indptr[arow]..other.indptr[arow + 1] {
                    let c = other.indices[kk] as usize;
                    if !seen[c] {
                        seen[c] = true;
                        touched.push(c as u32);
                    }
                    acc[c] += a * other.data[kk];
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c as usize];
                if v != 0.0 {
                    indices.push(c);
                    data.push(v);
                }
                acc[c as usize] = 0.0;
                seen[c as usize] = false;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: other.cols,
            indptr,
            indices,
            data,
        }
    }

    /// Vertical stacking; all blocks must agree on `cols`.
    pub fn vstack(blocks: &[&CsrMatrix]) -> CsrMatrix {
        assert!(!blocks.is_empty(), "vstack of zero blocks");
        let cols = blocks[0].cols;
        let rows = blocks.iter().map(|b| b.rows).sum();
        let nnz = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        indptr.push(0);
        for b in blocks {
            assert_eq!(b.cols, cols, "vstack column mismatch");
            // xlint: allow(panic-policy, reason = "indptr is seeded with a 0 push before the loop, so last() is always Some")
            let base = *indptr.last().unwrap();
            for i in 0..b.rows {
                indptr.push(base + b.indptr[i + 1]);
            }
            indices.extend_from_slice(&b.indices);
            data.extend_from_slice(&b.data);
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Kronecker product `self ⊗ other` in CSR form.
    pub fn kron(&self, other: &CsrMatrix) -> CsrMatrix {
        let rows = self.rows * other.rows;
        let cols = self.cols * other.cols;
        assert!(cols <= u32::MAX as usize, "kron result exceeds u32 columns");
        let nnz = self.nnz() * other.nnz();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        indptr.push(0);
        for i in 0..self.rows {
            for q in 0..other.rows {
                for k in self.indptr[i]..self.indptr[i + 1] {
                    let acol = self.indices[k] as usize;
                    let aval = self.data[k];
                    for kk in other.indptr[q]..other.indptr[q + 1] {
                        indices.push((acol * other.cols + other.indices[kk] as usize) as u32);
                        data.push(aval * other.data[kk]);
                    }
                }
                indptr.push(indices.len());
            }
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Applies `f` to every stored value.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Column sums of `|a|^p` for p = 1 or 2.
    pub fn abs_pow_col_sums(&self, p: u32) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (k, &c) in self.indices.iter().enumerate() {
            let v = self.data[k];
            sums[c as usize] += match p {
                1 => v.abs(),
                2 => v * v,
                _ => v.abs().powi(p as i32),
            };
        }
        sums
    }

    /// [`crate::Matrix::is_partition`] in one pass: the same |v| and v²
    /// column sums, accumulated in the same order, so the same verdict.
    pub(crate) fn is_partition(&self) -> bool {
        // Each column's (|v| sum, v² sum), side by side in one buffer.
        let mut sums = vec![(0.0, 0.0); self.cols];
        for (&c, &v) in self.indices.iter().zip(&self.data) {
            if v.is_nan() || v < 0.0 {
                return false;
            }
            let (abs, sq) = &mut sums[c as usize];
            *abs += v.abs();
            *sq += v * v;
        }
        sums.iter().all(|&(a, s)| a == 1.0 && (a - s).abs() < 1e-12)
    }

    /// Converts to dense form.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (c, v) in self.row_entries(i) {
                d.set(i, c, v);
            }
        }
        d
    }

    /// Converts a dense matrix into CSR (dropping zeros).
    pub fn from_dense(d: &DenseMatrix) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(d.rows() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..d.rows() {
            for (j, &v) in d.row_slice(i).iter().enumerate() {
                if v != 0.0 {
                    indices.push(j as u32);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: d.rows(),
            cols: d.cols(),
            indptr,
            indices,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_row_is_from_row_of_the_dense_row() {
        for (cols, lo, hi) in [
            (1, 0, 1),
            (7, 0, 7),
            (7, 2, 5),
            (7, 6, 7),
            (7, 3, 3),
            (0, 0, 0),
        ] {
            let mut row = vec![0.0; cols];
            row[lo..hi].fill(1.0);
            assert_eq!(
                CsrMatrix::interval_row(cols, lo, hi),
                CsrMatrix::from_row(&row),
                "[{lo}, {hi}) over {cols}"
            );
        }
    }

    fn sample() -> CsrMatrix {
        // [[1 0 2], [0 3 0]]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn triplets_roundtrip_through_dense() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.row_slice(0), &[1.0, 0.0, 2.0]);
        assert_eq!(d.row_slice(1), &[0.0, 3.0, 0.0]);
        assert_eq!(CsrMatrix::from_dense(&d), m);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.to_dense().row_slice(0), &[0.0, 3.5]);
    }

    #[test]
    fn explicit_zero_dropped() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 0, 0.0), (0, 1, 1.0)]);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_rmatvec() {
        let m = sample();
        let mut y = vec![0.0; 2];
        m.matvec_into(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![7.0, 6.0]);
        let mut x = vec![0.0; 3];
        m.rmatvec_into(&[1.0, 1.0], &mut x);
        assert_eq!(x, vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_matches_dense() {
        let a = sample();
        let b = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, -1.0)]);
        let c = a.matmul(&b);
        let expect = a.to_dense().matmul(&b.to_dense());
        assert_eq!(c.to_dense(), expect);
    }

    #[test]
    fn vstack_matches_dense() {
        let a = sample();
        let b = CsrMatrix::identity(3);
        let s = CsrMatrix::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 5);
        assert_eq!(s.to_dense().row_slice(2), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn kron_matches_definition() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = CsrMatrix::from_triplets(1, 2, &[(0, 0, 3.0), (0, 1, 4.0)]);
        let k = a.kron(&b);
        assert_eq!(k.rows(), 2);
        assert_eq!(k.cols(), 4);
        let d = k.to_dense();
        assert_eq!(d.row_slice(0), &[3.0, 4.0, 0.0, 0.0]);
        assert_eq!(d.row_slice(1), &[0.0, 0.0, 6.0, 8.0]);
    }

    #[test]
    fn col_sums() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (1, 0, 2.0), (1, 1, -3.0)]);
        assert_eq!(m.abs_pow_col_sums(1), vec![3.0, 3.0]);
        assert_eq!(m.abs_pow_col_sums(2), vec![5.0, 9.0]);
    }

    #[test]
    fn diag_and_identity() {
        let d = CsrMatrix::diag(&[2.0, 0.5]);
        let mut y = vec![0.0; 2];
        d.matvec_into(&[1.0, 4.0], &mut y);
        assert_eq!(y, vec![2.0, 2.0]);
        assert_eq!(CsrMatrix::identity(3).nnz(), 3);
    }
}
