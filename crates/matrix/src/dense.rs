//! Row-major dense matrices.
//!
//! Dense storage is the baseline representation in the paper's Fig. 4/5
//! ablations and the workhorse for small direct solves (Gram matrices,
//! Cholesky factors, strategy optimization in HDMM).

use crate::kernels;

/// A row-major dense matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An all-zero `rows×cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a list of equal-length rows.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in &rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        DenseMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The n×n identity in dense form.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
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

    /// The flat row-major value buffer.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major value buffer.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    pub fn row_slice(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `out = self · x`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output dimension mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = kernels::dot(row, x);
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
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            kernels::axpy(out, yi, row);
        }
    }

    /// The transpose as a new dense matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Dense matrix product `self · other`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous in both inputs.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                kernels::axpy(orow, a, brow);
            }
        }
        out
    }

    /// The Gram matrix `selfᵀ · self` (symmetric `cols×cols`).
    pub fn gram(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &a) in row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[j * self.cols..(j + 1) * self.cols];
                kernels::axpy(orow, a, row);
            }
        }
        out
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Column sums of `|a|^p` for p = 1 or 2 (sensitivity computations).
    pub fn abs_pow_col_sums(&self, p: u32) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += match p {
                    1 => v.abs(),
                    2 => v * v,
                    _ => v.abs().powi(p as i32),
                };
            }
        }
        sums
    }

    /// Maximum absolute difference to `other`; `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn matvec_and_rmatvec() {
        let m = sample();
        let mut y = vec![0.0; 2];
        m.matvec_into(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![6.0, 15.0]);
        let mut x = vec![0.0; 3];
        m.rmatvec_into(&[1.0, 1.0], &mut x);
        assert_eq!(x, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = sample();
        let b = DenseMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            DenseMatrix::from_rows(vec![vec![4.0, 5.0], vec![10.0, 11.0]])
        );
    }

    #[test]
    fn gram_is_at_a() {
        let a = sample();
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        assert_eq!(g, g2);
    }

    #[test]
    fn col_sums() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, -2.0], vec![-3.0, 4.0]]);
        assert_eq!(m.abs_pow_col_sums(1), vec![4.0, 6.0]);
        assert_eq!(m.abs_pow_col_sums(2), vec![10.0, 20.0]);
    }

    #[test]
    fn identity_matvec_is_copy() {
        let m = DenseMatrix::identity(3);
        let mut y = vec![0.0; 3];
        m.matvec_into(&[7.0, 8.0, 9.0], &mut y);
        assert_eq!(y, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_shape_mismatch_panics() {
        let m = sample();
        let mut y = vec![0.0; 2];
        m.matvec_into(&[1.0], &mut y);
    }
}
