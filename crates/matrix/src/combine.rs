//! Combinators: Union (vstack), Product, Kronecker, scaling, transpose and
//! Gram matrices (paper §7.4, "Generalized matrix construction").

use std::sync::Arc;

use crate::{CsrMatrix, DenseMatrix, Matrix};

impl Matrix {
    /// Vertical stacking — the paper's *Union* combinator. Nested unions are
    /// flattened so that `Union(A, Union(B, C))` and `Union(A, B, C)` are
    /// the same object.
    ///
    /// ```
    /// use ektelo_matrix::Matrix;
    /// // The H2-style strategy "every cell plus the total".
    /// let m = Matrix::vstack(vec![Matrix::identity(3), Matrix::total(3)]);
    /// assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0, 6.0]);
    /// assert_eq!(m.l1_sensitivity(), 2.0);
    /// ```
    pub fn vstack(blocks: Vec<Matrix>) -> Matrix {
        assert!(!blocks.is_empty(), "vstack of zero blocks");
        let cols = blocks[0].cols();
        assert!(
            blocks.iter().all(|b| b.cols() == cols),
            "vstack blocks must agree on column count"
        );
        let nested = |b: &Matrix| matches!(b, Matrix::Union(_));
        let mut flat = if blocks.iter().any(nested) {
            let mut flat = Vec::with_capacity(blocks.len());
            for b in blocks {
                match b {
                    Matrix::Union(children) => flat.extend(children.iter().cloned()),
                    other => flat.push(other),
                }
            }
            flat
        } else {
            blocks
        };
        if flat.len() == 1 {
            // xlint: allow(panic-policy, reason = "guarded by the len() == 1 check on the previous line")
            flat.pop().unwrap()
        } else {
            Matrix::Union(flat.into())
        }
    }

    /// Matrix product `a · b`. Identity factors are elided (`A·I = A`,
    /// `I·B = B`) — important because transformation lineages start at an
    /// identity and would otherwise drag an O(n) copy through every
    /// product evaluation.
    pub fn product(a: Matrix, b: Matrix) -> Matrix {
        assert_eq!(
            a.cols(),
            b.rows(),
            "product dimension mismatch: {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        if matches!(a, Matrix::Identity { .. }) {
            return b;
        }
        if matches!(b, Matrix::Identity { .. }) {
            return a;
        }
        Matrix::Product(Arc::new(a), Arc::new(b))
    }

    /// Kronecker product `a ⊗ b`.
    ///
    /// ```
    /// use ektelo_matrix::Matrix;
    /// // A marginal over the first of two attributes: I₂ ⊗ Total₃.
    /// let w = Matrix::kron(Matrix::identity(2), Matrix::total(3));
    /// assert_eq!(w.shape(), (2, 6));
    /// assert_eq!(w.matvec(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]), vec![3.0, 6.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// If the product's row or column count overflows `usize`. Such a
    /// shape cannot be evaluated or even indexed; rejecting it here keeps
    /// [`Matrix::rows`] / [`Matrix::cols`] from wrapping silently.
    pub fn kron(a: Matrix, b: Matrix) -> Matrix {
        let fits =
            a.rows().checked_mul(b.rows()).is_some() && a.cols().checked_mul(b.cols()).is_some();
        if !fits {
            // xlint: allow(panic-policy, reason = "documented # Panics contract: an overflowing Kronecker shape has no representable row/column count, so no later operation on it could be correct")
            panic!(
                "Kronecker product of {:?} and {:?} overflows usize",
                a.shape(),
                b.shape()
            );
        }
        Matrix::Kronecker(Arc::new(a), Arc::new(b))
    }

    /// Kronecker product of a list of factors, associating to the right:
    /// `kron_list([A, B, C]) = A ⊗ (B ⊗ C)`.
    pub fn kron_list(factors: Vec<Matrix>) -> Matrix {
        assert!(!factors.is_empty(), "kron_list of zero factors");
        let mut iter = factors.into_iter().rev();
        // xlint: allow(panic-policy, reason = "guarded by the non-empty assert above")
        let mut acc = iter.next().unwrap();
        for f in iter {
            acc = Matrix::kron(f, acc);
        }
        acc
    }

    /// Scalar multiple `c · a`; nested scalings are folded.
    pub fn scaled(c: f64, a: Matrix) -> Matrix {
        match a {
            Matrix::Scaled(c2, inner) => Matrix::Scaled(c * c2, inner),
            other => Matrix::Scaled(c, Arc::new(other)),
        }
    }

    /// The transpose. Structure-preserving where a closed form exists
    /// (Prefixᵀ = Suffix, Onesᵀ swaps shape, (Aᵀ)ᵀ = A, transposes push
    /// through Kronecker and scaling); otherwise a lazy
    /// [`Matrix::Transpose`] wrapper whose products delegate to
    /// [`Matrix::rmatvec_into`].
    pub fn transpose(&self) -> Matrix {
        match self {
            Matrix::Identity { n } => Matrix::Identity { n: *n },
            Matrix::Diagonal(d) => Matrix::Diagonal(d.clone()),
            Matrix::Ones { rows, cols } => Matrix::Ones {
                rows: *cols,
                cols: *rows,
            },
            Matrix::Prefix { n } => Matrix::Suffix { n: *n },
            Matrix::Suffix { n } => Matrix::Prefix { n: *n },
            Matrix::Kronecker(a, b) => Matrix::kron(a.transpose(), b.transpose()),
            Matrix::Scaled(c, a) => Matrix::scaled(*c, a.transpose()),
            Matrix::Transpose(a) => (**a).clone(),
            other => Matrix::Transpose(Arc::new(other.clone())),
        }
    }

    /// The Gram matrix `AᵀA`, materialized densely (paper Table 1). Used by
    /// workload-adaptive selection operators (Greedy-H, HDMM); intended for
    /// moderate column counts.
    pub fn gram_dense(&self) -> DenseMatrix {
        if let Matrix::Sparse(s) = self {
            return s.transpose().matmul(s).to_dense();
        }
        if let Matrix::Dense(d) = self {
            return d.gram();
        }
        let n = self.cols();
        let mut out = DenseMatrix::zeros(n, n);
        let mut ws = crate::Workspace::for_matrix(self);
        let mut e = vec![0.0; n];
        let mut ae = vec![0.0; self.rows()];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            self.matvec_into(&e, &mut ae, &mut ws);
            self.rmatvec_into(&ae, &mut col, &mut ws);
            for (i, &v) in col.iter().enumerate() {
                out.set(i, j, v);
            }
            e[j] = 0.0;
        }
        out
    }

    /// The Moore–Penrose pseudo-inverse of a *partition* matrix
    /// (paper Prop. 8.3): for a valid partition `P`, `P⁺ = Pᵀ D⁻¹` where
    /// `D = diag(group sizes)`.
    ///
    /// Panics if `self` is not a valid partition matrix (each column with
    /// exactly one `1`). Use [`Matrix::is_partition`] to check first.
    pub fn partition_pinv(&self) -> Matrix {
        assert!(
            self.is_partition(),
            "partition_pinv requires a partition matrix"
        );
        let sizes = self.abs_row_sums();
        let inv: Vec<f64> = sizes.iter().map(|&s| 1.0 / s).collect();
        Matrix::product(self.transpose(), Matrix::diagonal(inv))
    }

    /// True when the matrix is a valid partition of the domain: binary,
    /// and every column has exactly one nonzero entry.
    pub fn is_partition(&self) -> bool {
        if let Matrix::Sparse(s) = self {
            return s.is_partition();
        }
        if !self.is_nonneg() {
            return false;
        }
        let col_sums = self.abs_col_sums();
        if !col_sums.iter().all(|&s| s == 1.0) {
            return false;
        }
        // Binary check: squared column sums must match absolute column sums.
        let sq = self.sqr_col_sums();
        col_sums
            .iter()
            .zip(&sq)
            .all(|(&a, &b)| (a - b).abs() < 1e-12)
    }
}

/// Builds a partition matrix from per-cell group labels `0..p`.
/// `labels[j] = g` places cell `j` in group `g`.
pub fn partition_from_labels(num_groups: usize, labels: &[usize]) -> Matrix {
    assert!(
        labels.iter().all(|&g| g < num_groups),
        "group label out of range for {num_groups} groups"
    );
    let entries = || labels.iter().enumerate().map(|(j, &g)| (g, j as u32, 1.0));
    Matrix::sparse(CsrMatrix::bucket_rows(num_groups, labels.len(), entries))
}

/// The partition of `outer · len · inner` cells into `outer · inner`
/// groups of `len` cells each, one per `(o, i)`: group `o·inner + i` holds
/// cells `(o·len + a)·inner + i` for `a` in `0..len`, ascending. These are
/// the mixed-radix cells that differ only in a middle digit of radix `len`
/// (a stripe). Equal to [`partition_from_labels`] over the labels
/// `cell ↦ (cell / (len·inner))·inner + cell % inner`, with the CSR arrays
/// written directly: no per-cell division and no counting sort.
pub fn strided_partition(outer: usize, len: usize, inner: usize) -> Matrix {
    let groups = outer.saturating_mul(inner);
    let n = groups.saturating_mul(len);
    assert!(
        groups.max(n) <= u32::MAX as usize,
        "strided partition of {outer}·{len}·{inner} cells exceeds u32 column indices"
    );
    let indptr = (0..=groups).map(|g| g * len).collect();
    let mut indices = Vec::with_capacity(n);
    for o in 0..outer {
        for i in 0..inner {
            indices.extend((0..len).map(|a| ((o * len + a) * inner + i) as u32));
        }
    }
    Matrix::sparse(CsrMatrix::from_parts(n, indptr, indices, vec![1.0; n]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vstack_flattens() {
        let u = Matrix::vstack(vec![
            Matrix::identity(3),
            Matrix::vstack(vec![Matrix::total(3), Matrix::prefix(3)]),
        ]);
        match &u {
            Matrix::Union(blocks) => assert_eq!(blocks.len(), 3),
            other => panic!("expected flattened union, got {other:?}"),
        }
    }

    #[test]
    fn vstack_of_one_unwraps() {
        let u = Matrix::vstack(vec![Matrix::identity(3)]);
        assert!(matches!(u, Matrix::Identity { .. }));
    }

    #[test]
    fn transpose_closed_forms() {
        assert!(matches!(
            Matrix::prefix(4).transpose(),
            Matrix::Suffix { n: 4 }
        ));
        assert!(matches!(
            Matrix::suffix(4).transpose(),
            Matrix::Prefix { n: 4 }
        ));
        assert!(matches!(
            Matrix::prefix(4).transpose().transpose(),
            Matrix::Prefix { n: 4 }
        ));
        let t = Matrix::wavelet(4).transpose().transpose();
        assert!(matches!(t, Matrix::Wavelet { n: 4 }));
    }

    #[test]
    fn gram_matches_dense() {
        let w = Matrix::vstack(vec![
            Matrix::prefix(4),
            Matrix::scaled(2.0, Matrix::identity(4)),
        ]);
        let g = w.gram_dense();
        let wd = w.to_dense();
        let gd = wd.gram();
        assert!(g.max_abs_diff(&gd).unwrap() < 1e-12);
    }

    #[test]
    fn partition_pinv_satisfies_p_pinv_p_eq_p() {
        let p = partition_from_labels(2, &[0, 0, 1, 1, 1]);
        assert!(p.is_partition());
        let pinv = p.partition_pinv();
        // P · P⁺ = I (2×2)
        let prod = Matrix::product(p.clone(), pinv).to_dense();
        let eye = DenseMatrix::identity(2);
        assert!(prod.max_abs_diff(&eye).unwrap() < 1e-12);
    }

    #[test]
    fn non_partition_detected() {
        let m = Matrix::from_rows(vec![vec![1.0, 1.0], vec![1.0, 0.0]]);
        assert!(!m.is_partition());
        assert!(!Matrix::wavelet(4).is_partition());
        assert!(Matrix::identity(4).is_partition());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn product_shape_mismatch_panics() {
        let _ = Matrix::product(Matrix::identity(3), Matrix::identity(4));
    }

    #[test]
    fn kron_list_associates() {
        let k = Matrix::kron_list(vec![
            Matrix::identity(2),
            Matrix::identity(3),
            Matrix::identity(4),
        ]);
        assert_eq!(k.shape(), (24, 24));
        let x: Vec<f64> = (0..24).map(|i| i as f64).collect();
        assert_eq!(k.matvec(&x), x);
    }

    #[test]
    fn scaled_folds() {
        let m = Matrix::scaled(2.0, Matrix::scaled(3.0, Matrix::identity(2)));
        match m {
            Matrix::Scaled(c, _) => assert_eq!(c, 6.0),
            other => panic!("expected folded scaling, got {other:?}"),
        }
    }
}
