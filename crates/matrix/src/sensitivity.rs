//! Sensitivity analysis and element-wise |·| / (·)² (paper Table 1).
//!
//! The L1 sensitivity of a strategy matrix M — the largest L1 column norm —
//! calibrates the Laplace mechanism's noise (`Vector Laplace` adds
//! `‖M‖₁/ε`-scale noise). Computing it exactly *without materializing* M is
//! what allows EKTELO plans to auto-calibrate noise at any scale: column
//! sums decompose over every combinator (`Union` adds them, `Kronecker`
//! multiplies them, scaling multiplies by |c|), and each core matrix has a
//! closed form.
//!
//! [`Matrix::l1_sensitivity`] needs only the largest column sum, and for
//! `Identity`, `Ones`, `Prefix`, `Suffix`, a one-row `Sparse` (MWEM's
//! per-round strategy), `Scaled` and `Kronecker` it never builds the
//! column-sum vector: those kinds carry the range `[min, max]` of their
//! column sums and whether one is NaN. The core kinds know their range
//! outright; a one-row `Sparse` over distinct columns has the sums `|v|`
//! of its stored entries plus a 0 when it leaves a column empty, so one
//! pass over its entries gives the range (a NaN entry still gives NaN);
//! every other kind folds its [`Matrix::abs_col_sums`]. A Kronecker
//! column sum is the product `aᵢ·bⱼ` of two non-negative sums and a
//! scaled one is `sᵢ·|c|`, and rounding is monotone — `x ≤ x'` and
//! `y ≤ y'` give `fl(x·y) ≤ fl(x'·y')` for non-negative operands — so the
//! largest product is the product of the factors' largest sums, and the
//! smallest the product of the smallest, bit for bit the values the
//! materialized vector holds.
//! Overflow to ∞ and underflow to 0 happen in the same products. A
//! product is NaN exactly when an operand is NaN or it is `0·∞`, and a
//! factor holds a 0 (an ∞) exactly when its minimum is 0 (its maximum is
//! ∞), so the range classifies NaN exactly too: a `0` column sum next to
//! an `∞` one gives NaN, as the materialized fold does.

use std::sync::Arc;

use crate::wavelet::wavelet_abs_col_sums;
use crate::Matrix;

impl Matrix {
    /// Column sums of `|A|` — exact, without materializing `A` except for
    /// products of possibly-negative factors (see [`Matrix::abs`]).
    pub fn abs_col_sums(&self) -> Vec<f64> {
        match self {
            Matrix::Dense(d) => d.abs_pow_col_sums(1),
            Matrix::Sparse(s) => s.abs_pow_col_sums(1),
            Matrix::Diagonal(d) => d.iter().map(|v| v.abs()).collect(),
            Matrix::Identity { n } => vec![1.0; *n],
            Matrix::Ones { rows, cols } => vec![*rows as f64; *cols],
            Matrix::Prefix { n } => (0..*n).map(|j| (*n - j) as f64).collect(),
            Matrix::Suffix { n } => (0..*n).map(|j| (j + 1) as f64).collect(),
            Matrix::Wavelet { n } => wavelet_abs_col_sums(*n),
            Matrix::Range(r) => r.col_sums(),
            Matrix::Rect2D(r) => r.col_sums(),
            Matrix::Union(blocks) => {
                // One buffer holds each block's sums in turn.
                let mut sums = vec![0.0; self.cols()];
                let mut block = vec![0.0; self.cols()];
                for b in blocks.iter() {
                    b.abs_col_sums_into(&mut block);
                    for (s, v) in sums.iter_mut().zip(&block) {
                        *s += v;
                    }
                }
                sums
            }
            Matrix::Product(a, b) => {
                if a.is_nonneg() && b.is_nonneg() {
                    // colsums(AB) = Bᵀ (Aᵀ 1) when A, B ≥ 0.
                    b.rmatvec(&a.abs_col_sums_as_row())
                } else {
                    self.abs().abs_col_sums()
                }
            }
            Matrix::Kronecker(a, b) => {
                // |A⊗B| = |A|⊗|B|, so column sums multiply.
                kron_vec(&a.abs_col_sums(), &b.abs_col_sums())
            }
            Matrix::Scaled(c, a) => {
                let mut sums = a.abs_col_sums();
                for s in sums.iter_mut() {
                    *s *= c.abs();
                }
                sums
            }
            Matrix::Transpose(a) => a.abs_row_sums(),
        }
    }

    /// [`Matrix::abs_col_sums`] written over `out`: a `Range` block, bare
    /// or scaled (a Greedy-H level), needs no vector of its own.
    fn abs_col_sums_into(&self, out: &mut [f64]) {
        match self {
            Matrix::Range(r) => r.col_sums_into(out),
            Matrix::Scaled(c, a) => {
                a.abs_col_sums_into(out);
                for s in out.iter_mut() {
                    *s *= c.abs();
                }
            }
            other => out.copy_from_slice(&other.abs_col_sums()),
        }
    }

    /// Row sums of `|A|` (L1 norms of the queries).
    pub fn abs_row_sums(&self) -> Vec<f64> {
        match self {
            Matrix::Dense(d) => (0..d.rows())
                .map(|i| d.row_slice(i).iter().map(|v| v.abs()).sum())
                .collect(),
            Matrix::Sparse(s) => (0..s.rows())
                .map(|i| s.row_entries(i).map(|(_, v)| v.abs()).sum())
                .collect(),
            Matrix::Diagonal(d) => d.iter().map(|v| v.abs()).collect(),
            Matrix::Identity { n } => vec![1.0; *n],
            Matrix::Ones { rows, cols } => vec![*cols as f64; *rows],
            Matrix::Prefix { n } => (0..*n).map(|i| (i + 1) as f64).collect(),
            Matrix::Suffix { n } => (0..*n).map(|i| (*n - i) as f64).collect(),
            Matrix::Wavelet { n } => {
                // Row widths along the pre-order traversal of the split tree.
                let mut out = Vec::with_capacity(*n);
                out.push(*n as f64);
                fn rec(lo: usize, hi: usize, out: &mut Vec<f64>) {
                    if hi - lo == 1 {
                        return;
                    }
                    out.push((hi - lo) as f64);
                    let mid = (lo + hi) / 2;
                    rec(lo, mid, out);
                    rec(mid, hi, out);
                }
                rec(0, *n, &mut out);
                out.truncate(*n);
                out
            }
            Matrix::Range(r) => r.ranges().map(|(lo, hi)| (hi - lo) as f64).collect(),
            Matrix::Rect2D(r) => r
                .rects()
                .map(|(r1, r2, c1, c2)| ((r2 - r1) * (c2 - c1)) as f64)
                .collect(),
            Matrix::Union(blocks) => blocks.iter().flat_map(|b| b.abs_row_sums()).collect(),
            Matrix::Product(a, b) => {
                if a.is_nonneg() && b.is_nonneg() {
                    // rowsums(AB) = A (B 1) when A, B ≥ 0.
                    a.matvec(&b.abs_row_sums_as_col())
                } else {
                    self.abs().abs_row_sums()
                }
            }
            Matrix::Kronecker(a, b) => kron_vec(&a.abs_row_sums(), &b.abs_row_sums()),
            Matrix::Scaled(c, a) => {
                let mut sums = a.abs_row_sums();
                for s in sums.iter_mut() {
                    *s *= c.abs();
                }
                sums
            }
            Matrix::Transpose(a) => a.abs_col_sums(),
        }
    }

    /// Column sums of `A∘A` (element-wise square), for L2 sensitivity.
    pub fn sqr_col_sums(&self) -> Vec<f64> {
        match self {
            Matrix::Dense(d) => d.abs_pow_col_sums(2),
            Matrix::Sparse(s) => s.abs_pow_col_sums(2),
            Matrix::Diagonal(d) => d.iter().map(|v| v * v).collect(),
            // Binary and ±1 matrices: squares equal absolute values.
            Matrix::Identity { .. }
            | Matrix::Ones { .. }
            | Matrix::Prefix { .. }
            | Matrix::Suffix { .. }
            | Matrix::Wavelet { .. }
            | Matrix::Range(..)
            | Matrix::Rect2D(..) => self.abs_col_sums(),
            Matrix::Union(blocks) => {
                let mut sums = vec![0.0; self.cols()];
                for b in blocks.iter() {
                    for (s, v) in sums.iter_mut().zip(b.sqr_col_sums()) {
                        *s += v;
                    }
                }
                sums
            }
            // (AB)∘² does not decompose over the factors; materialize.
            Matrix::Product(..) => Matrix::sparse(self.to_sparse()).sqr().abs_col_sums(),
            Matrix::Kronecker(a, b) => kron_vec(&a.sqr_col_sums(), &b.sqr_col_sums()),
            Matrix::Scaled(c, a) => {
                let mut sums = a.sqr_col_sums();
                for s in sums.iter_mut() {
                    *s *= c * c;
                }
                sums
            }
            Matrix::Transpose(a) => {
                // Squared row sums of the inner matrix.
                match &**a {
                    Matrix::Dense(d) => (0..d.rows())
                        .map(|i| d.row_slice(i).iter().map(|v| v * v).sum())
                        .collect(),
                    Matrix::Sparse(s) => (0..s.rows())
                        .map(|i| s.row_entries(i).map(|(_, v)| v * v).sum())
                        .collect(),
                    inner => Matrix::sparse(inner.to_sparse().transpose()).sqr_col_sums(),
                }
            }
        }
    }

    /// The L1 sensitivity `‖A‖₁` = max column sum of `|A|` (paper §5.2).
    /// A NaN entry makes the result NaN rather than being skipped, so a
    /// caller's finiteness check sees it. Closed-form for the kinds the
    /// module docs list: a Kronecker strategy over the full domain costs
    /// one pass over each factor's columns, not one over the domain.
    pub fn l1_sensitivity(&self) -> f64 {
        match self.abs_col_sum_range() {
            ColSumRange::Empty => 0.0,
            ColSumRange::Nan => f64::NAN,
            ColSumRange::Span { max, .. } => max_keeping_nan(0.0, max),
        }
    }

    /// The range of the column sums of `|A|`, in closed form where the
    /// module docs give one.
    fn abs_col_sum_range(&self) -> ColSumRange {
        match *self {
            Matrix::Identity { n } => ColSumRange::constant(n, 1.0),
            Matrix::Ones { rows, cols } => ColSumRange::constant(cols, rows as f64),
            Matrix::Prefix { n } | Matrix::Suffix { n } => ColSumRange::span(n, 1.0, n as f64),
            Matrix::Scaled(c, ref a) => a.abs_col_sum_range().scaled(c.abs()),
            Matrix::Kronecker(ref a, ref b) => a.abs_col_sum_range().kron(b.abs_col_sum_range()),
            Matrix::Sparse(ref s) if s.rows() == 1 && strictly_ascending(s.indices()) => {
                // One row over distinct columns: each stored entry's sum
                // is `0 + |v|`, which is `|v|`, and every column the row
                // stores nothing in sums to 0.
                let gap = (s.nnz() < s.cols()).then_some(0.0);
                ColSumRange::of(s.cols(), s.values().iter().map(|v| v.abs()).chain(gap))
            }
            _ => {
                let sums = self.abs_col_sums();
                ColSumRange::of(sums.len(), sums)
            }
        }
    }

    /// The L2 sensitivity `‖A‖₂` = max column norm (NaN-propagating, like
    /// [`Matrix::l1_sensitivity`]).
    pub fn l2_sensitivity(&self) -> f64 {
        self.sqr_col_sums()
            .into_iter()
            .fold(0.0, max_keeping_nan)
            .sqrt()
    }

    /// Element-wise absolute value as a new matrix. A no-op (clone) for
    /// structurally non-negative matrices; materializes only when a closed
    /// form does not exist (paper §7.4: "abs and sqr are simple no-ops" for
    /// the non-negative core matrices).
    pub fn abs(&self) -> Matrix {
        if self.is_nonneg() {
            return self.clone();
        }
        match self {
            Matrix::Dense(d) => Matrix::dense(d.map(f64::abs)),
            Matrix::Sparse(s) => Matrix::sparse(s.map(f64::abs)),
            Matrix::Diagonal(d) => Matrix::diagonal(d.iter().map(|v| v.abs()).collect()),
            Matrix::Union(blocks) => Matrix::Union(blocks.iter().map(Matrix::abs).collect()),
            Matrix::Kronecker(a, b) => Matrix::kron(a.abs(), b.abs()),
            Matrix::Scaled(c, a) => Matrix::scaled(c.abs(), a.abs()),
            Matrix::Transpose(a) => Matrix::Transpose(Arc::new(a.abs())),
            // Wavelet and possibly-negative products: materialize.
            _ => Matrix::sparse(self.to_sparse().map(f64::abs)),
        }
    }

    /// Element-wise square as a new matrix; same materialization policy as
    /// [`Matrix::abs`].
    pub fn sqr(&self) -> Matrix {
        match self {
            Matrix::Dense(d) => Matrix::dense(d.map(|v| v * v)),
            Matrix::Sparse(s) => Matrix::sparse(s.map(|v| v * v)),
            Matrix::Diagonal(d) => Matrix::diagonal(d.iter().map(|v| v * v).collect()),
            // 0/1 and ±1 matrices square to their absolute value.
            Matrix::Identity { .. }
            | Matrix::Ones { .. }
            | Matrix::Prefix { .. }
            | Matrix::Suffix { .. }
            | Matrix::Range(..)
            | Matrix::Rect2D(..) => self.clone(),
            Matrix::Wavelet { .. } => self.abs(),
            Matrix::Union(blocks) => Matrix::Union(blocks.iter().map(Matrix::sqr).collect()),
            Matrix::Kronecker(a, b) => Matrix::kron(a.sqr(), b.sqr()),
            Matrix::Scaled(c, a) => Matrix::scaled(c * c, a.sqr()),
            Matrix::Transpose(a) => Matrix::Transpose(Arc::new(a.sqr())),
            Matrix::Product(..) => Matrix::sparse(self.to_sparse().map(|v| v * v)),
        }
    }

    /// `Aᵀ·1` helper used by the non-negative product fast path.
    fn abs_col_sums_as_row(&self) -> Vec<f64> {
        self.abs_col_sums()
    }

    /// `A·1` helper used by the non-negative product fast path.
    fn abs_row_sums_as_col(&self) -> Vec<f64> {
        self.abs_row_sums()
    }
}

/// Whether `cols` ascends strictly: a sparse row that stores no column
/// twice.
fn strictly_ascending(cols: &[u32]) -> bool {
    cols.windows(2).all(|w| w[0] < w[1])
}

fn kron_vec(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &ai in a {
        for &bi in b {
            out.push(ai * bi);
        }
    }
    out
}

/// The column sums of `|A|` as [`Matrix::l1_sensitivity`] needs them.
#[derive(Clone, Copy, Debug)]
enum ColSumRange {
    /// `A` has no columns.
    Empty,
    /// Some column sum is NaN.
    Nan,
    /// Every column sum lies in `[min, max]`, and both bounds are column
    /// sums.
    Span { min: f64, max: f64 },
}

impl ColSumRange {
    /// `cols` columns whose sums run from `min` to `max`.
    fn span(cols: usize, min: f64, max: f64) -> ColSumRange {
        if cols == 0 {
            ColSumRange::Empty
        } else if min.is_nan() || max.is_nan() {
            ColSumRange::Nan
        } else {
            ColSumRange::Span { min, max }
        }
    }

    /// `cols` columns that all sum to `v`.
    fn constant(cols: usize, v: f64) -> ColSumRange {
        ColSumRange::span(cols, v, v)
    }

    /// The range of the column sums of `cols` columns, given each distinct
    /// value among them at least once.
    fn of(cols: usize, sums: impl IntoIterator<Item = f64>) -> ColSumRange {
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in sums {
            if v.is_nan() {
                return ColSumRange::Nan;
            }
            min = min.min(v);
            max = max.max(v);
        }
        ColSumRange::span(cols, min, max)
    }

    /// The sums `sᵢ·k` for a scale `k = |c|`.
    fn scaled(self, k: f64) -> ColSumRange {
        self.kron(ColSumRange::constant(1, k))
    }

    /// The sums `aᵢ·bⱼ` of `A ⊗ B`, `self` holding `A`'s.
    fn kron(self, other: ColSumRange) -> ColSumRange {
        use ColSumRange::{Empty, Nan, Span};
        match (self, other) {
            (Empty, _) | (_, Empty) => Empty,
            (Nan, _) | (_, Nan) => Nan,
            (Span { min: a0, max: a1 }, Span { min: b0, max: b1 }) => {
                let zero_times_inf =
                    (a0 == 0.0 && b1 == f64::INFINITY) || (a1 == f64::INFINITY && b0 == 0.0);
                if zero_times_inf {
                    Nan
                } else {
                    Span {
                        min: a0 * b0,
                        max: a1 * b1,
                    }
                }
            }
        }
    }
}

/// `f64::max` that keeps a NaN instead of returning the other operand.
/// `f64::max` would let a NaN column sum hide the sensitivity of every
/// other column; for NaN-free input the two agree bit for bit.
fn max_keeping_nan(acc: f64, v: f64) -> f64 {
    if v.is_nan() || v > acc {
        v
    } else {
        acc
    }
}

/// Counters of the process-wide sensitivity cache, which has been
/// deleted: sensitivity is computed directly, once per distinct strategy
/// in a measurement batch. Every field is always 0; the type is kept only
/// because the end-to-end benchmark still reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SensCacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub bypassed: u64,
}

/// Always all zeros (see [`SensCacheStats`]).
pub fn sens_cache_stats() -> SensCacheStats {
    SensCacheStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn check_against_dense(m: &Matrix) {
        let d = m.to_dense();
        let abs_cols = d.map(f64::abs).abs_pow_col_sums(1);
        let got = m.abs_col_sums();
        for (g, e) in got.iter().zip(&abs_cols) {
            assert!(
                (g - e).abs() < 1e-10,
                "abs col sums mismatch: {got:?} vs {abs_cols:?}"
            );
        }
        let sq_cols = d.abs_pow_col_sums(2);
        let got2 = m.sqr_col_sums();
        for (g, e) in got2.iter().zip(&sq_cols) {
            assert!((g - e).abs() < 1e-10, "sqr col sums mismatch");
        }
        let row_sums: Vec<f64> = (0..d.rows())
            .map(|i| d.row_slice(i).iter().map(|v| v.abs()).sum())
            .collect();
        let got3 = m.abs_row_sums();
        for (g, e) in got3.iter().zip(&row_sums) {
            assert!((g - e).abs() < 1e-10, "abs row sums mismatch");
        }
    }

    #[test]
    fn core_matrices_match_dense() {
        check_against_dense(&Matrix::identity(5));
        check_against_dense(&Matrix::ones(3, 5));
        check_against_dense(&Matrix::prefix(6));
        check_against_dense(&Matrix::suffix(6));
        check_against_dense(&Matrix::wavelet(8));
        check_against_dense(&Matrix::wavelet(5));
        check_against_dense(&Matrix::range_queries(6, vec![(0, 3), (2, 6), (1, 2)]));
        check_against_dense(&Matrix::diagonal(vec![1.0, -2.0, 0.5]));
    }

    #[test]
    fn combinators_match_dense() {
        check_against_dense(&Matrix::vstack(vec![Matrix::identity(4), Matrix::total(4)]));
        check_against_dense(&Matrix::kron(Matrix::prefix(3), Matrix::identity(2)));
        check_against_dense(&Matrix::kron(Matrix::wavelet(4), Matrix::total(3)));
        check_against_dense(&Matrix::scaled(-2.5, Matrix::prefix(4)));
        check_against_dense(&Matrix::prefix(4).transpose());
        check_against_dense(&Matrix::product(Matrix::total(4), Matrix::prefix(4)));
        // Product with negative entries forces materialization.
        check_against_dense(&Matrix::product(
            Matrix::from_rows(vec![vec![1.0, -1.0]]),
            Matrix::prefix(2),
        ));
        check_against_dense(&Matrix::Transpose(Arc::new(Matrix::wavelet(4))));
    }

    #[test]
    fn known_sensitivities() {
        assert_eq!(Matrix::identity(10).l1_sensitivity(), 1.0);
        assert_eq!(Matrix::total(10).l1_sensitivity(), 1.0);
        assert_eq!(Matrix::prefix(10).l1_sensitivity(), 10.0);
        assert_eq!(Matrix::wavelet(8).l1_sensitivity(), 4.0); // log2(8)+1
                                                              // H2-style: identity + total has sensitivity 2.
        let h = Matrix::vstack(vec![Matrix::identity(4), Matrix::total(4)]);
        assert_eq!(h.l1_sensitivity(), 2.0);
        // Kron multiplies sensitivities.
        let k = Matrix::kron(Matrix::prefix(4), Matrix::wavelet(8));
        assert_eq!(k.l1_sensitivity(), 16.0);
    }

    #[test]
    fn one_row_sparse_storing_a_column_twice_sums_it() {
        // The closed form takes one row over distinct columns; a row that
        // stores column 1 twice falls back to the scan, which adds both.
        let dup = || [(0, 1, 1.0), (0, 1, -2.0)].into_iter();
        let m = Matrix::sparse(CsrMatrix::bucket_rows(1, 4, dup));
        assert_eq!(m.l1_sensitivity(), 3.0);
        let one = Matrix::sparse(CsrMatrix::from_row(&[0.0, -2.0, 0.5, 0.0]));
        assert_eq!(one.l1_sensitivity(), 2.0);
        let full = Matrix::sparse(CsrMatrix::from_row(&[1.0, -2.0]));
        assert_eq!(Matrix::scaled(0.5, full).l1_sensitivity(), 1.0);
    }

    #[test]
    fn l2_of_identity_union() {
        let m = Matrix::vstack(vec![Matrix::identity(4), Matrix::identity(4)]);
        assert!((m.l2_sensitivity() - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn abs_of_wavelet_materializes_correctly() {
        let a = Matrix::wavelet(4).abs();
        let expect = Matrix::wavelet(4).to_dense().map(f64::abs);
        assert!(a.to_dense().max_abs_diff(&expect).unwrap() < 1e-12);
    }

    #[test]
    fn scaled_sensitivity() {
        let m = Matrix::scaled(-3.0, Matrix::identity(4));
        assert_eq!(m.l1_sensitivity(), 3.0);
        assert_eq!(m.l2_sensitivity(), 3.0);
    }

    #[test]
    fn nan_entries_propagate_into_sensitivity() {
        // Column 0 holds a NaN and a 5: skipping the NaN would report
        // column 1's sum of 1 and underestimate the noise scale 5×.
        let m = Matrix::from_rows(vec![vec![f64::NAN, 1.0], vec![5.0, 0.0]]);
        assert!(m.l1_sensitivity().is_nan());
        assert!(m.l2_sensitivity().is_nan());
        // NaN in a later column, and through a combinator.
        let late = Matrix::from_rows(vec![vec![5.0, f64::NAN]]);
        assert!(late.l1_sensitivity().is_nan());
        assert!(Matrix::scaled(f64::NAN, Matrix::identity(3))
            .l1_sensitivity()
            .is_nan());
        assert_eq!(
            Matrix::scaled(f64::INFINITY, Matrix::identity(3)).l1_sensitivity(),
            f64::INFINITY
        );
    }
}
