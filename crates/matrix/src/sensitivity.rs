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

    /// Column sums of `A∘A` (element-wise square): `is_partition` compares
    /// them with the column sums of `|A|` to check that `A` is binary.
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

    /// The largest entry magnitude `max |Aᵢⱼ|`: how far one record can
    /// move any single answer, so the sensitivity of a per-query score
    /// such as Worst-approx's. Closed-form for the implicit kinds (their
    /// entries are 0 and ±1), a scan for the stored ones, and for a
    /// `Product` `AB` the upper bound `max |A| · ‖B‖₁`. NaN when an entry
    /// is NaN, and 0 for a matrix without a nonzero entry.
    pub fn max_abs_entry(&self) -> f64 {
        let max_abs = |vs: &[f64]| vs.iter().map(|v| v.abs()).fold(0.0, max_keeping_nan);
        let unit = |nonempty: bool| if nonempty { 1.0 } else { 0.0 };
        match self {
            Matrix::Dense(d) => max_abs(d.values()),
            Matrix::Sparse(s) => max_abs(s.values()),
            Matrix::Diagonal(d) => max_abs(d),
            Matrix::Identity { n }
            | Matrix::Prefix { n }
            | Matrix::Suffix { n }
            | Matrix::Wavelet { n } => unit(*n > 0),
            Matrix::Ones { rows, cols } => unit(*rows > 0 && *cols > 0),
            // Every stored range and rectangle is non-empty.
            Matrix::Range(r) => unit(r.num_queries() > 0),
            Matrix::Rect2D(r) => unit(r.num_queries() > 0),
            Matrix::Union(blocks) => blocks
                .iter()
                .map(Matrix::max_abs_entry)
                .fold(0.0, max_keeping_nan),
            Matrix::Product(a, b) => a.max_abs_entry() * b.l1_sensitivity(),
            Matrix::Kronecker(a, b) => a.max_abs_entry() * b.max_abs_entry(),
            Matrix::Scaled(c, a) => c.abs() * a.max_abs_entry(),
            Matrix::Transpose(a) => a.max_abs_entry(),
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
                ColSumRange::of(s.cols(), s.values(), s.nnz() < s.cols())
            }
            _ => ColSumRange::of(self.cols(), &self.abs_col_sums(), false),
        }
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
/// twice. One pass without a branch over the neighbouring pairs.
fn strictly_ascending(cols: &[u32]) -> bool {
    let next = cols.get(1..).unwrap_or_default();
    cols.iter().zip(next).fold(true, |ok, (a, b)| ok & (a < b))
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
    /// value among them at least once: `|v|` for each `v` of `sums`, and
    /// a 0 when `zero`. (A sum of `|A|` is `|v|` itself, or a NaN.)
    ///
    /// One pass without a branch over the bit patterns: those of
    /// non-negative values order like the values, and a NaN is any
    /// pattern above +∞'s, which [`ColSumRange::span`] reads back as a
    /// NaN. Dropping the sign bit makes every `v` count as `|v|`, so −0
    /// counts as +0 and a NaN of either sign stays a NaN. Four lanes
    /// keep the integer minima and maxima independent, so they are not
    /// one chain of dependent steps.
    fn of(cols: usize, sums: &[f64], zero: bool) -> ColSumRange {
        let (mut min, mut max) = ([if zero { 0 } else { f64::INFINITY.to_bits() }; 4], [0; 4]);
        let mut fold = |k: usize, v: &f64| {
            let bits = v.to_bits() & !(1 << 63);
            (min[k], max[k]) = (min[k].min(bits), max[k].max(bits));
        };
        let lanes = sums.chunks_exact(4);
        lanes.remainder().iter().for_each(|v| fold(0, v));
        lanes.for_each(|l| l.iter().enumerate().for_each(|(k, v)| fold(k, v)));
        let min = min.into_iter().fold(u64::MAX, u64::min);
        let max = max.into_iter().fold(0, u64::max);
        ColSumRange::span(cols, f64::from_bits(min), f64::from_bits(max))
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

    /// `max_abs_entry` equals a scan of the materialized entries for every
    /// kind but `Product`, which it bounds from above; NaN propagates.
    #[test]
    fn max_abs_entry_matches_a_dense_scan() {
        let scan = |m: &Matrix| {
            m.to_dense()
                .values()
                .iter()
                .fold(0.0, |a: f64, v| a.max(v.abs()))
        };
        let signed = Matrix::from_rows(vec![vec![0.5, -2.5, 0.0], vec![1.0, 0.0, -0.75]]);
        let exact = [
            signed.clone(),
            Matrix::sparse(CsrMatrix::from_triplets(2, 3, &[(0, 1, -4.0), (1, 2, 3.5)])),
            Matrix::diagonal(vec![0.5, -1.5, 1.0]),
            Matrix::identity(4),
            Matrix::ones(2, 3),
            Matrix::prefix(5),
            Matrix::suffix(5),
            Matrix::wavelet(6),
            Matrix::range_queries(8, vec![(0, 3), (2, 8)]),
            Matrix::rect_queries(3, 3, vec![(0, 2, 1, 3)]),
            Matrix::vstack(vec![
                Matrix::identity(3),
                Matrix::scaled(-2.0, Matrix::total(3)),
            ]),
            Matrix::kron(signed.clone(), Matrix::scaled(1.5, Matrix::identity(2))),
            Matrix::Transpose(Arc::new(signed.clone())),
            Matrix::range_queries(8, vec![]),
            Matrix::identity(0),
        ];
        for m in &exact {
            assert_eq!(m.max_abs_entry(), scan(m), "{m:?}");
        }
        let product = Matrix::product(signed.clone(), Matrix::prefix(3));
        assert!(product.max_abs_entry() >= scan(&product));
        let nan = Matrix::from_rows(vec![vec![1.0, f64::NAN]]);
        assert!(Matrix::vstack(vec![nan, Matrix::identity(2)])
            .max_abs_entry()
            .is_nan());
    }

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

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// A one-row `Sparse` whose stored columns repeat or descend (no
        /// public constructor builds one) takes the scan: its sensitivity
        /// is the largest column sum of `|A|`, each stored `|v|` added to
        /// its column in storage order, bit for bit, NaN included.
        #[test]
        fn one_row_sparse_with_repeated_or_descending_columns_matches_the_scan(
            n in 1usize..6,
            cells in proptest::collection::vec((0usize..6, 0usize..8, -3.0f64..3.0), 2..7),
            descending in 0u8..2,
        ) {
            let value = |k: usize, v: f64| match k {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                3 => -f64::from_bits(7),
                _ => v,
            };
            let mut entries: Vec<(usize, u32, f64)> = cells
                .iter()
                .map(|&(c, k, v)| (0, (c % n) as u32, value(k, v)))
                .collect();
            if descending == 1 {
                // Distinct columns, stored from the last to the first.
                entries.sort_by_key(|&(_, c, _)| std::cmp::Reverse(c));
                entries.dedup_by_key(|e| e.1);
            }
            let row = CsrMatrix::bucket_rows(1, n, || entries.iter().copied());
            let mut sums = vec![0.0; n];
            for &(_, c, v) in &entries {
                sums[c as usize] += v.abs();
            }
            let scan = sums.into_iter().fold(0.0, max_keeping_nan);
            let got = Matrix::sparse(row).l1_sensitivity();
            proptest::prop_assert!(
                got.to_bits() == scan.to_bits() || (got.is_nan() && scan.is_nan()),
                "{got:e} vs {scan:e} for {entries:?}"
            );
        }
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
    }

    #[test]
    fn nan_entries_propagate_into_sensitivity() {
        // Column 0 holds a NaN and a 5: skipping the NaN would report
        // column 1's sum of 1 and underestimate the noise scale 5×.
        let m = Matrix::from_rows(vec![vec![f64::NAN, 1.0], vec![5.0, 0.0]]);
        assert!(m.l1_sensitivity().is_nan());
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
