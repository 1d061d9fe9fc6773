//! Weighted interval hierarchies: the component shape that tree-based
//! least squares (Hay et al. 2010) solves exactly.
//!
//! The striped plans measure every stripe with an interval hierarchy (HB
//! or Greedy-H), for DAWA-Striped behind the stripe's reduce partition.
//! After [`Matrix::column_components`] each stripe's system is
//! `c · S` or `c · S · P`: `S` stacks weighted interval queries and `P`
//! merges cells into groups. [`Matrix::tree_shape`] recognises that shape
//! without allocating per cell, and [`TreeShape::tree`] orders the
//! intervals into the tree a two-pass solve walks. Both decide exactly:
//! anything they cannot prove is a hierarchy returns `None`.

use crate::{CsrMatrix, Matrix, RangeQueries};

/// A matrix `S` or `S · P` whose rows are weighted intervals, as found by
/// [`Matrix::tree_shape`].
#[derive(Clone, Debug)]
pub struct TreeShape<'a> {
    /// The interval blocks of `S`, in row order, each with the weight all
    /// of its rows carry (every enclosing scale multiplied in). Each
    /// weight's square is finite and non-zero.
    pub blocks: Vec<(f64, &'a RangeQueries)>,
    /// The partition `P` when the matrix is `S · P`: entries of `1.0`, no
    /// empty row, and no column in two rows. Row `g` of `P` is cell `g`
    /// of `S`.
    pub partition: Option<&'a CsrMatrix>,
}

/// One interval of the tree [`TreeShape::tree`] returns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeNode {
    /// The node's row of `S`.
    pub row: u32,
    /// The index of the node's parent, or [`TreeNode::ROOT`] for a root.
    pub parent: u32,
    /// The row's weight.
    pub weight: f64,
}

impl TreeNode {
    /// The parent entry of a root.
    pub const ROOT: u32 = u32::MAX;
}

impl Matrix {
    /// Recognises a weighted interval matrix, optionally behind a
    /// partition.
    ///
    /// Applies to `Scaled*(S)` and `Scaled*(Product(S, P))`, where `S` is a
    /// [`Matrix::Range`] or a [`Matrix::Union`] of `Scaled*(Range)` blocks
    /// and `P` is a [`Matrix::Sparse`] grouping: every entry `1.0`, every
    /// row non-empty, every column in at most one row. Each row weight
    /// must have a finite, non-zero square.
    ///
    /// Costs `O(blocks + nnz(P) + cols(P))`; it does not look at the
    /// intervals themselves. Whether they form a hierarchy is
    /// [`TreeShape::tree`]'s question.
    ///
    /// ```
    /// use ektelo_matrix::Matrix;
    ///
    /// let s = Matrix::range_queries(2, vec![(0, 2), (0, 1), (1, 2)]);
    /// let a = Matrix::scaled(3.0, s);
    /// let shape = a.tree_shape().unwrap();
    /// assert_eq!(shape.blocks[0].0, 3.0);
    /// assert!(shape.partition.is_none());
    /// assert!(Matrix::prefix(2).tree_shape().is_none());
    /// ```
    pub fn tree_shape(&self) -> Option<TreeShape<'_>> {
        let (c, inner) = unscale(self);
        let (s, partition) = match inner {
            Matrix::Product(s, p) => match &**p {
                Matrix::Sparse(p) if is_grouping(p) => (&**s, Some(&**p)),
                _ => return None,
            },
            s => (s, None),
        };
        // Sized for a (scaled) union of levels, the usual shape.
        let levels = match unscale(s).1 {
            Matrix::Union(b) => b.len(),
            _ => 1,
        };
        let mut blocks = Vec::with_capacity(levels);
        interval_blocks(s, c, &mut blocks)?;
        Some(TreeShape { blocks, partition })
    }
}

impl Matrix {
    /// The scale and the factors, in order, of a (scaled) Kronecker chain
    /// `c · (F₁ ⊗ … ⊗ F_d)`, however it is nested; `None` for any other
    /// matrix. Exact Kronecker least squares solves such a system factor
    /// by factor.
    pub fn kron_factors(&self) -> Option<(f64, Vec<&Matrix>)> {
        let (c, kron) = unscale(self);
        if !matches!(kron, Matrix::Kronecker(..)) {
            return None;
        }
        let mut factors = Vec::new();
        crate::kron::collect_factors(kron, &mut factors);
        Some((c, factors))
    }
}

impl TreeShape<'_> {
    /// Orders the intervals into a forest, in pre-order: every node comes
    /// before its children, and siblings run left to right. The
    /// singletons are the leaves, so they appear in cell order.
    ///
    /// Returns `None` unless the intervals are laminar (every pair nested
    /// or disjoint), no interval repeats, and every cell has its
    /// singleton. Those conditions make each non-singleton node the
    /// disjoint union of its children. Sorting by `(lo, −hi)` gives the
    /// pre-order, and one pass up the previous node's ancestors finds each
    /// node's parent, so the cost is `O(m log m)` for `m` intervals.
    pub fn tree(&self) -> Option<Vec<TreeNode>> {
        // The columns of `S`, which the union makes common to its blocks.
        let cells = self.blocks.first().map_or(0, |(_, r)| r.domain());
        let m: usize = self.blocks.iter().map(|(_, r)| r.num_queries()).sum();
        if cells == 0 || m >= TreeNode::ROOT as usize {
            return None;
        }
        // Each interval keyed by `(lo, −hi)` in one integer, so that the
        // pre-order is an integer sort.
        let key = |lo: usize, hi: usize| ((lo as u64) << 32) | u64::from(u32::MAX - hi as u32);
        let bounds = |key: u64| ((key >> 32) as usize, (u32::MAX - key as u32) as usize);
        let mut intervals: Vec<(u64, TreeNode)> = Vec::with_capacity(m);
        for &(weight, r) in &self.blocks {
            for (lo, hi) in r.ranges() {
                let node = TreeNode {
                    row: intervals.len() as u32,
                    parent: TreeNode::ROOT,
                    weight,
                };
                intervals.push((key(lo, hi), node));
            }
        }
        intervals.sort_unstable_by_key(|&(k, _)| k);

        let mut singletons = 0;
        for k in 0..m {
            let (lo, hi) = bounds(intervals[k].0);
            // The enclosing candidates are the previous node and its
            // ancestors; skip those that end at or before `lo`.
            let mut t = k.checked_sub(1);
            while let Some(c) = t.filter(|&c| bounds(intervals[c].0).1 <= lo) {
                let p = intervals[c].1.parent;
                t = (p != TreeNode::ROOT).then_some(p as usize);
            }
            if let Some(t) = t {
                // Sorted by `lo`, so the candidate starts at or before
                // `lo`: it must also end at or after `hi`, and differ.
                if hi > bounds(intervals[t].0).1 || intervals[t].0 == intervals[k].0 {
                    return None;
                }
                intervals[k].1.parent = t as u32;
            }
            singletons += usize::from(hi - lo == 1);
        }
        (singletons == cells).then(|| intervals.into_iter().map(|(_, node)| node).collect())
    }
}

/// The product of the scales wrapping `m`, and what they wrap.
fn unscale(m: &Matrix) -> (f64, &Matrix) {
    match m {
        Matrix::Scaled(c, a) => {
            let (c2, inner) = unscale(a);
            (c * c2, inner)
        }
        other => (1.0, other),
    }
}

/// Appends the interval blocks of `m` with their row weights (`w` times
/// the scales inside `m`); `None` unless `m` is built from ranges by
/// scaling and stacking alone, with weights whose squares are finite and
/// non-zero.
fn interval_blocks<'a>(
    m: &'a Matrix,
    w: f64,
    out: &mut Vec<(f64, &'a RangeQueries)>,
) -> Option<()> {
    match m {
        Matrix::Range(r) if (w * w).is_finite() && w * w > 0.0 => out.push((w, &**r)),
        Matrix::Scaled(c, a) => interval_blocks(a, w * c, out)?,
        Matrix::Union(blocks) => {
            for b in blocks.iter() {
                interval_blocks(b, w, out)?;
            }
        }
        _ => return None,
    }
    Some(())
}

/// True when `p` groups columns: every entry `1.0`, no empty row, and no
/// column in two rows.
fn is_grouping(p: &CsrMatrix) -> bool {
    if p.indptr().windows(2).any(|w| w[0] == w[1]) || p.values().iter().any(|&v| v != 1.0) {
        return false;
    }
    // Columns that increase through the rows, as contiguous groups' do,
    // are distinct without a marker array.
    if p.indices().windows(2).all(|w| w[0] < w[1]) {
        return true;
    }
    let mut seen = vec![false; p.cols()];
    p.indices()
        .iter()
        .all(|&c| !std::mem::replace(&mut seen[c as usize], true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_from_labels;

    fn ranges(n: usize, iv: &[(usize, usize)]) -> Matrix {
        Matrix::range_queries(n, iv.to_vec())
    }

    #[test]
    fn a_binary_hierarchy_orders_parents_first() {
        let s = ranges(3, &[(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]);
        let t = s.tree_shape().unwrap().tree().unwrap();
        // Pre-order: [0,3), [0,1), [1,3), [1,2), [2,3).
        let rows: Vec<u32> = t.iter().map(|n| n.row).collect();
        let parents: Vec<u32> = t.iter().map(|n| n.parent).collect();
        assert_eq!(rows, vec![3, 0, 4, 1, 2]);
        assert_eq!(parents, vec![TreeNode::ROOT, 0, 0, 2, 2]);
    }

    #[test]
    fn weights_multiply_through_scales_and_unions() {
        let s = Matrix::vstack(vec![
            Matrix::scaled(2.0, ranges(2, &[(0, 2)])),
            Matrix::scaled(0.5, Matrix::scaled(3.0, ranges(2, &[(0, 1), (1, 2)]))),
        ]);
        let p = partition_from_labels(2, &[0, 1, 1]);
        let m = Matrix::scaled(-4.0, Matrix::product(s, p));
        let shape = m.tree_shape().unwrap();
        let w: Vec<f64> = shape.blocks.iter().map(|b| b.0).collect();
        assert_eq!(w, vec![-8.0, -6.0]);
        assert_eq!(shape.partition.map(CsrMatrix::rows), Some(2));
        let weights: Vec<f64> = shape.tree().unwrap().iter().map(|n| n.weight).collect();
        assert_eq!(weights, vec![-8.0, -6.0, -6.0]);
    }

    /// Shapes outside `tree_shape`'s grammar; the interval conditions
    /// and the weight and grouping rejections that reach a solve are
    /// covered in `ektelo-solvers`' `tree_exact.rs`.
    #[test]
    fn other_shapes_are_rejected() {
        let units = ranges(3, &[(0, 1), (1, 2), (2, 3)]);
        // A weight whose square overflows.
        assert!(Matrix::scaled(1e200, units.clone()).tree_shape().is_none());
        // A grouping with an empty row.
        let gap = CsrMatrix::from_triplets(3, 4, &[(0, 0, 1.0), (2, 2, 1.0)]);
        assert!(Matrix::product(units.clone(), Matrix::sparse(gap))
            .tree_shape()
            .is_none());
        // Any 0/1 one-per-column grouping is accepted, in any column order.
        let shuffled = Matrix::product(units.clone(), Matrix::select_rows(4, &[3, 0, 1]));
        assert!(shuffled.tree_shape().is_some());
        for other in [
            Matrix::prefix(3),
            Matrix::identity(3),
            Matrix::total(3),
            Matrix::vstack(vec![units.clone(), Matrix::identity(3)]),
            Matrix::product(units, Matrix::sparse(CsrMatrix::identity(3))).transpose(),
        ] {
            assert!(other.tree_shape().is_none(), "{other:?}");
        }
    }
}
