#![deny(missing_docs)]
//! # ektelo-matrix
//!
//! The matrix engine behind EKTELO plans (paper §7, "Efficient matrix
//! support").
//!
//! EKTELO represents three kinds of objects as matrices: *workloads* of
//! linear counting queries, *measurement* strategies handed to the Laplace
//! mechanism, and *partitions* of the data vector. All of them have one
//! column per cell of the vectorized database, so for realistic domains an
//! explicit representation is infeasible. This crate provides:
//!
//! * **core implicit matrices** — [`Matrix::identity`], [`Matrix::ones`],
//!   [`Matrix::total`], [`Matrix::prefix`], [`Matrix::suffix`],
//!   [`Matrix::wavelet`], [`Matrix::range_queries`], [`Matrix::diagonal`] —
//!   that store `O(1)`–`O(m)` state yet evaluate matrix–vector products in
//!   `O(n)`–`O(n log n)` time (paper Table 2);
//! * **combinators** — [`Matrix::vstack`] (the paper's *Union*),
//!   [`Matrix::product`], [`Matrix::kron`], [`Matrix::scaled`],
//!   [`Matrix::transpose`] — that compose implicit matrices while delegating
//!   the primitive methods to their children (paper Table 3);
//! * **explicit representations** — [`DenseMatrix`] and CSR [`CsrMatrix`] —
//!   plus lossless conversions between all three forms, used by the
//!   evaluation to ablate the representation choice (paper Fig. 4);
//! * the five **primitive methods** every EKTELO matrix must support
//!   (paper §7.3): matrix–vector product ([`Matrix::matvec`]), transpose
//!   ([`Matrix::transpose`] / [`Matrix::rmatvec`]), matrix multiplication
//!   ([`Matrix::product`]), element-wise absolute value ([`Matrix::abs`])
//!   and element-wise square ([`Matrix::sqr`]); and derived computations:
//!   exact L1/L2 sensitivity, Gram matrices, row indexing and
//!   materialization (paper Table 1), plus the split of a column-separable
//!   union into independent sub-systems ([`Matrix::column_components`]),
//!   the recognition of a weighted interval hierarchy, which tree-based
//!   least squares solves exactly ([`Matrix::tree_shape`]), and the
//!   merge of identical columns into one reduced-domain cell
//!   ([`Matrix::column_classes`], paper §8).
//!
//! ```
//! use ektelo_matrix::Matrix;
//!
//! // The Prefix workload (empirical CDF) over a domain of 5 cells:
//! let w = Matrix::prefix(5);
//! let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
//! assert_eq!(w.matvec(&x), vec![1.0, 3.0, 6.0, 10.0, 15.0]);
//! // L1 sensitivity = maximum column norm = n (cell 0 is in every prefix).
//! assert_eq!(w.l1_sensitivity(), 5.0);
//! ```

mod classes;
mod combine;
mod components;
mod dense;
pub mod failpoints;
mod hierarchy;
pub mod kernels;
mod kron;
mod materialize;
mod matvec;
mod plan;
mod plan_cache;
pub mod pool;
mod range;
mod rect;
mod sensitivity;
mod sparse;
mod wavelet;
mod workspace;

pub use classes::{ColumnClasses, ColumnRefinement};
pub use combine::partition_from_labels;
pub use components::ColumnComponent;
pub use dense::DenseMatrix;
pub use hierarchy::{TreeNode, TreeShape};
pub use materialize::Repr;
pub use plan::plan_builds;
pub use plan_cache::{plan_cache_clear, plan_cache_stats, PlanCacheStats};
pub use range::RangeQueries;
pub use rect::RectQueries2D;
pub use sensitivity::{sens_cache_stats, SensCacheStats};
pub use sparse::CsrMatrix;
pub use workspace::Workspace;

use std::sync::Arc;

/// A linear operator over the vectorized database.
///
/// `Matrix` is a closed algebra: leaves are either explicit
/// ([`Matrix::Dense`], [`Matrix::Sparse`]) or implicit core matrices, and
/// internal nodes combine children (paper §7.4's `EMatrix` grammar).
///
/// Composite nodes share their children: [`Matrix::Product`],
/// [`Matrix::Kronecker`], [`Matrix::Scaled`] and [`Matrix::Transpose`]
/// hold them behind [`Arc`], and [`Matrix::Union`] holds an `Arc<[Matrix]>`,
/// as the explicit and implicit payloads do. `clone` is therefore O(1) and
/// allocates nothing, whatever the depth of the tree: recording a
/// strategy in the measurement history, composing it with a lineage or
/// stacking it for inference shares the tree instead of copying it.
#[derive(Clone, Debug)]
pub enum Matrix {
    /// Explicit row-major dense matrix.
    Dense(Arc<DenseMatrix>),
    /// Explicit compressed-sparse-row matrix.
    Sparse(Arc<CsrMatrix>),
    /// Diagonal matrix holding its diagonal; used for query weighting and
    /// for partition pseudo-inverses (`P⁺ = Pᵀ D⁻¹`, paper Prop. 8.3).
    Diagonal(Arc<Vec<f64>>),
    /// The n×n identity; queries every cell individually.
    Identity {
        /// Domain size.
        n: usize,
    },
    /// The all-ones matrix; `Ones { rows: 1, .. }` is the paper's *Total*.
    Ones {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Lower-triangular all-ones matrix: row k sums cells `0..=k`
    /// (the empirical-CDF workload of paper Example 7.1).
    Prefix {
        /// Domain size.
        n: usize,
    },
    /// Upper-triangular all-ones matrix; the transpose of [`Matrix::Prefix`].
    Suffix {
        /// Domain size.
        n: usize,
    },
    /// Generalized (unnormalized) Haar wavelet over a binary split tree.
    ///
    /// For power-of-two `n` this is exactly the Haar strategy used by
    /// Privelet (Xiao et al.); for other `n` the split tree uses
    /// `mid = (lo+hi)/2`. The matrix is n×n: one *total* row plus one
    /// `+1/−1` difference row per internal tree node.
    Wavelet {
        /// Domain size.
        n: usize,
    },
    /// A set of interval range queries stored as index pairs; evaluates
    /// products in `O(n + m)` via prefix-sum/difference-array tricks
    /// (paper Example 7.4 without materializing the factors).
    Range(Arc<RangeQueries>),
    /// Axis-aligned rectangle queries over a 2-D grid; the natural 2-D
    /// extension of [`Matrix::Range`] (paper §7.5) used by the QuadTree and
    /// grid strategies.
    Rect2D(Arc<RectQueries2D>),
    /// Vertical stacking of query sets (the paper's *Union* combinator).
    Union(Arc<[Matrix]>),
    /// Matrix product `A·B` (the paper's *Product* combinator).
    Product(Arc<Matrix>, Arc<Matrix>),
    /// Kronecker product `A ⊗ B` for multi-dimensional domains (§7.4).
    Kronecker(Arc<Matrix>, Arc<Matrix>),
    /// Scalar multiple `c·A`.
    Scaled(f64, Arc<Matrix>),
    /// Lazy transpose `Aᵀ`.
    Transpose(Arc<Matrix>),
}

impl Matrix {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// The n×n identity strategy.
    pub fn identity(n: usize) -> Self {
        Matrix::Identity { n }
    }

    /// The all-ones `rows×cols` matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix::Ones { rows, cols }
    }

    /// The 1×n total query.
    pub fn total(n: usize) -> Self {
        Matrix::Ones { rows: 1, cols: n }
    }

    /// The n×n prefix (empirical CDF) workload.
    pub fn prefix(n: usize) -> Self {
        Matrix::Prefix { n }
    }

    /// The n×n suffix workload.
    pub fn suffix(n: usize) -> Self {
        Matrix::Suffix { n }
    }

    /// The n×n generalized Haar wavelet strategy (Privelet).
    pub fn wavelet(n: usize) -> Self {
        assert!(n > 0, "wavelet matrix requires n > 0");
        Matrix::Wavelet { n }
    }

    /// A diagonal matrix from its diagonal entries.
    pub fn diagonal(diag: Vec<f64>) -> Self {
        Matrix::Diagonal(Arc::new(diag))
    }

    /// A workload of interval range queries `[lo, hi)` over `n` cells.
    pub fn range_queries(n: usize, ranges: Vec<(usize, usize)>) -> Self {
        Matrix::Range(Arc::new(RangeQueries::new(n, ranges)))
    }

    /// A workload of axis-aligned rectangle queries
    /// `[r_lo, r_hi) × [c_lo, c_hi)` over an `rows×cols` grid.
    pub fn rect_queries(
        rows: usize,
        cols: usize,
        rects: Vec<(usize, usize, usize, usize)>,
    ) -> Self {
        Matrix::Rect2D(Arc::new(RectQueries2D::new(rows, cols, rects)))
    }

    /// Wraps an explicit dense matrix.
    pub fn dense(m: DenseMatrix) -> Self {
        Matrix::Dense(Arc::new(m))
    }

    /// Wraps an explicit CSR matrix.
    pub fn sparse(m: CsrMatrix) -> Self {
        Matrix::Sparse(Arc::new(m))
    }

    /// Builds a dense matrix from rows (convenience for tests and small
    /// workloads).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        Matrix::dense(DenseMatrix::from_rows(rows))
    }

    /// A 1×n indicator query counting the single cell `i`.
    pub fn unit(n: usize, i: usize) -> Self {
        Matrix::select_rows(n, &[i])
    }

    /// A row-selection matrix keeping `indices` (in order); `select · x`
    /// extracts those coordinates.
    pub fn select_rows(n: usize, indices: &[usize]) -> Self {
        let picks: Vec<u32> = indices
            .iter()
            .map(|&c| {
                assert!(c < n, "selector index {c} out of range for domain {n}");
                c as u32
            })
            .collect();
        Matrix::sparse(CsrMatrix::selector(n, &picks))
    }

    // ---------------------------------------------------------------------
    // Shape
    // ---------------------------------------------------------------------

    /// Number of rows (queries).
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.rows(),
            Matrix::Sparse(s) => s.rows(),
            Matrix::Diagonal(d) => d.len(),
            Matrix::Identity { n } => *n,
            Matrix::Ones { rows, .. } => *rows,
            Matrix::Prefix { n } | Matrix::Suffix { n } | Matrix::Wavelet { n } => *n,
            Matrix::Range(r) => r.num_queries(),
            Matrix::Rect2D(r) => r.num_queries(),
            Matrix::Union(blocks) => blocks.iter().map(Matrix::rows).sum(),
            Matrix::Product(a, _) => a.rows(),
            Matrix::Kronecker(a, b) => a.rows() * b.rows(),
            Matrix::Scaled(_, a) => a.rows(),
            Matrix::Transpose(a) => a.cols(),
        }
    }

    /// Number of columns (domain size).
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.cols(),
            Matrix::Sparse(s) => s.cols(),
            Matrix::Diagonal(d) => d.len(),
            Matrix::Identity { n } => *n,
            Matrix::Ones { cols, .. } => *cols,
            Matrix::Prefix { n } | Matrix::Suffix { n } | Matrix::Wavelet { n } => *n,
            Matrix::Range(r) => r.domain(),
            Matrix::Rect2D(r) => r.domain(),
            Matrix::Union(blocks) => blocks.first().map_or(0, Matrix::cols),
            Matrix::Product(_, b) => b.cols(),
            Matrix::Kronecker(a, b) => a.cols() * b.cols(),
            Matrix::Scaled(_, a) => a.cols(),
            Matrix::Transpose(a) => a.rows(),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// An estimate of the explicit state held by this matrix, in number of
    /// stored scalars (used by the space-usage experiments).
    pub fn stored_scalars(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.rows() * d.cols(),
            Matrix::Sparse(s) => s.nnz(),
            Matrix::Diagonal(d) => d.len(),
            Matrix::Identity { .. }
            | Matrix::Ones { .. }
            | Matrix::Prefix { .. }
            | Matrix::Suffix { .. }
            | Matrix::Wavelet { .. } => 0,
            Matrix::Range(r) => 2 * r.num_queries(),
            Matrix::Rect2D(r) => 4 * r.num_queries(),
            Matrix::Union(blocks) => blocks.iter().map(Matrix::stored_scalars).sum(),
            Matrix::Product(a, b) | Matrix::Kronecker(a, b) => {
                a.stored_scalars() + b.stored_scalars()
            }
            Matrix::Scaled(_, a) | Matrix::Transpose(a) => a.stored_scalars(),
        }
    }

    /// True when every entry of the materialized matrix is ≥ 0. This is a
    /// *structural* check: it may conservatively return `false` for
    /// compositions whose product happens to be non-negative.
    pub fn is_nonneg(&self) -> bool {
        match self {
            Matrix::Dense(d) => d.values().iter().all(|&v| v >= 0.0),
            Matrix::Sparse(s) => s.values().iter().all(|&v| v >= 0.0),
            Matrix::Diagonal(d) => d.iter().all(|&v| v >= 0.0),
            Matrix::Identity { .. }
            | Matrix::Ones { .. }
            | Matrix::Prefix { .. }
            | Matrix::Suffix { .. }
            | Matrix::Range(..)
            | Matrix::Rect2D(..) => true,
            Matrix::Wavelet { n } => *n == 1,
            Matrix::Union(blocks) => blocks.iter().all(Matrix::is_nonneg),
            Matrix::Product(a, b) | Matrix::Kronecker(a, b) => a.is_nonneg() && b.is_nonneg(),
            Matrix::Scaled(c, a) => *c == 0.0 || (*c > 0.0 && a.is_nonneg()),
            Matrix::Transpose(a) => a.is_nonneg(),
        }
    }

    /// Extracts row `i` as a dense vector: `Aᵀ eᵢ` (paper Table 1, "Row
    /// indexing"). `Range`, `Prefix`, `Suffix`, `Identity` and `Ones` rows
    /// are written directly — ones on the row's columns, zeros elsewhere,
    /// the bits `rmatvec(eᵢ)` gives — so MWEM's per-round row costs one
    /// pass over the columns, not a product over every row.
    pub fn row(&self, i: usize) -> Vec<f64> {
        assert!(i < self.rows(), "row index {i} out of range");
        let ones = match *self {
            Matrix::Range(ref r) => r.range(i),
            Matrix::Prefix { .. } => (0, i + 1),
            Matrix::Suffix { n } => (i, n),
            Matrix::Identity { .. } => (i, i + 1),
            Matrix::Ones { .. } => (0, self.cols()),
            _ => {
                let mut e = vec![0.0; self.rows()];
                e[i] = 1.0;
                return self.rmatvec(&e);
            }
        };
        let mut row = vec![0.0; self.cols()];
        row[ones.0..ones.1].fill(1.0);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_of_core_matrices() {
        assert_eq!(Matrix::identity(4).shape(), (4, 4));
        assert_eq!(Matrix::total(7).shape(), (1, 7));
        assert_eq!(Matrix::ones(3, 5).shape(), (3, 5));
        assert_eq!(Matrix::prefix(6).shape(), (6, 6));
        assert_eq!(Matrix::suffix(6).shape(), (6, 6));
        assert_eq!(Matrix::wavelet(8).shape(), (8, 8));
        assert_eq!(Matrix::wavelet(5).shape(), (5, 5));
        assert_eq!(Matrix::diagonal(vec![1.0, 2.0]).shape(), (2, 2));
    }

    #[test]
    fn shapes_of_combinators() {
        let a = Matrix::identity(4);
        let b = Matrix::total(4);
        let u = Matrix::vstack(vec![a.clone(), b.clone()]);
        assert_eq!(u.shape(), (5, 4));
        let k = Matrix::kron(a.clone(), Matrix::identity(3));
        assert_eq!(k.shape(), (12, 12));
        let p = Matrix::product(b, a.clone());
        assert_eq!(p.shape(), (1, 4));
        assert_eq!(a.transpose().shape(), (4, 4));
        assert_eq!(Matrix::prefix(5).transpose().shape(), (5, 5));
    }

    #[test]
    fn closed_form_rows_are_the_bits_of_rmatvec() {
        let ranges = vec![(0, 7), (3, 4), (6, 7), (2, 5), (0, 1), (3, 4)];
        let kinds = [
            Matrix::range_queries(7, ranges),
            Matrix::prefix(7),
            Matrix::suffix(7),
            Matrix::identity(7),
            Matrix::ones(3, 5),
            Matrix::total(1),
            Matrix::prefix(1),
        ];
        for m in &kinds {
            for i in 0..m.rows() {
                let mut e = vec![0.0; m.rows()];
                e[i] = 1.0;
                let want: Vec<u64> = m.rmatvec(&e).iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = m.row(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {i} of {m:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn kron_rejects_overflowing_shapes() {
        let _ = Matrix::kron(Matrix::identity(1 << 33), Matrix::identity(1 << 33));
    }

    #[test]
    fn implicit_core_matrices_store_no_scalars() {
        assert_eq!(Matrix::prefix(1_000_000).stored_scalars(), 0);
        assert_eq!(Matrix::wavelet(1 << 20).stored_scalars(), 0);
        let k = Matrix::kron(Matrix::prefix(1 << 10), Matrix::identity(1 << 10));
        assert_eq!(k.stored_scalars(), 0);
    }

    #[test]
    fn nonnegativity_structure() {
        assert!(Matrix::prefix(4).is_nonneg());
        assert!(!Matrix::wavelet(4).is_nonneg());
        assert!(Matrix::kron(Matrix::identity(2), Matrix::total(3)).is_nonneg());
        assert!(!Matrix::scaled(-2.0, Matrix::identity(3)).is_nonneg());
    }

    #[test]
    fn row_indexing_matches_materialization() {
        let w = Matrix::vstack(vec![Matrix::prefix(4), Matrix::total(4)]);
        let d = w.to_dense();
        for i in 0..w.rows() {
            assert_eq!(w.row(i), d.row_slice(i).to_vec());
        }
    }

    #[test]
    fn unit_and_selector() {
        let u = Matrix::unit(4, 2);
        assert_eq!(u.matvec(&[1.0, 2.0, 3.0, 4.0]), vec![3.0]);
        let s = Matrix::select_rows(4, &[3, 1]);
        assert_eq!(s.matvec(&[1.0, 2.0, 3.0, 4.0]), vec![4.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_out_of_range_panics() {
        let _ = Matrix::unit(3, 3);
    }
}
