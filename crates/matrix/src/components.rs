//! Column-connected components of a block-separable `Union`.
//!
//! The kernel's split/reduce lineage gives every per-stripe measurement
//! the shape `Scaled(w, Product(S, Product(P, Sel)))`: whatever the
//! strategy `S`, the rightmost factor is a sparse selector `Sel` that
//! picks the stripe's cells out of the base domain. Stacked, those
//! measurements form a union whose blocks touch disjoint column sets, so
//! `min ‖Ax − b‖` splits into one independent problem per group of
//! column-connected blocks. [`Matrix::column_components`] finds those
//! groups and rewrites each as a small matrix over its own columns.

use std::ops::Range;
use std::sync::Arc;

use crate::{CsrMatrix, Matrix};

/// One connected component of a column-separable [`Matrix::Union`]: the
/// blocks that share columns with each other and with no other block.
#[derive(Clone, Debug)]
pub struct ColumnComponent {
    /// The component's columns of the parent union, ascending. Local
    /// column `j` of [`ColumnComponent::matrix`] is parent column
    /// `cols[j]`.
    pub cols: Vec<usize>,
    /// The parent rows the component's blocks occupy, ascending and with
    /// adjacent spans merged; their concatenation is the row space of
    /// [`ColumnComponent::matrix`].
    pub row_spans: Vec<Range<usize>>,
    /// The component's blocks, in parent order, stacked over `cols`.
    pub matrix: Matrix,
}

impl Matrix {
    /// Splits a column-separable union into its connected components, in
    /// ascending order of first column.
    ///
    /// Applies only to a [`Matrix::Union`] whose every block's right spine
    /// — through [`Matrix::Scaled`] and the right factor of
    /// [`Matrix::Product`] — ends in a [`Matrix::Sparse`] leaf with at
    /// least one stored entry: the shape the kernel's split/reduce lineage
    /// produces. That leaf's columns bound the block's columns, and blocks
    /// are grouped by shared columns with union–find in
    /// `O(blocks + cols + Σ nnz)`. Each leaf is re-indexed to
    /// component-local columns; a re-indexed leaf that is exactly the k×k
    /// identity becomes [`Matrix::identity`], which [`Matrix::product`]
    /// elides.
    ///
    /// Returns `None` for any other shape and when there is only one
    /// component. Columns no block touches belong to no component.
    ///
    /// ```
    /// use ektelo_matrix::Matrix;
    ///
    /// // Prefix sums over cells {0, 1} and over cells {2, 3}.
    /// let a = Matrix::vstack(vec![
    ///     Matrix::product(Matrix::prefix(2), Matrix::select_rows(4, &[0, 1])),
    ///     Matrix::product(Matrix::prefix(2), Matrix::select_rows(4, &[2, 3])),
    /// ]);
    /// let parts = a.column_components().unwrap();
    /// assert_eq!(parts.len(), 2);
    /// assert_eq!(parts[1].cols, vec![2, 3]);
    /// assert_eq!(parts[1].row_spans, vec![2..4]);
    /// // The selector became an identity and was elided.
    /// assert!(matches!(parts[1].matrix, Matrix::Prefix { n: 2 }));
    /// ```
    pub fn column_components(&self) -> Option<Vec<ColumnComponent>> {
        let Matrix::Union(blocks) = self else {
            return None;
        };
        // Structural check first: other shapes return before allocating.
        if !blocks
            .iter()
            .all(|b| spine_leaf(b).is_some_and(|s| s.nnz() > 0))
        {
            return None;
        }
        let n = self.cols();

        // Union–find over blocks, linked through the first block that
        // touches each column.
        let mut parent: Vec<usize> = (0..blocks.len()).collect();
        let mut owner = vec![usize::MAX; n];
        for (bi, block) in blocks.iter().enumerate() {
            for &c in spine_leaf(block)?.indices() {
                let c = c as usize;
                if owner[c] == usize::MAX {
                    owner[c] = bi;
                } else {
                    let (ra, rb) = (find(&mut parent, owner[c]), find(&mut parent, bi));
                    parent[ra.max(rb)] = ra.min(rb);
                }
            }
        }

        // Number components by first column; one pass fills each
        // component's ascending column list and the global → local map.
        let mut comp_of_root = vec![usize::MAX; blocks.len()];
        let mut cols: Vec<Vec<usize>> = Vec::new();
        let mut local = vec![0u32; n];
        for (c, &o) in owner.iter().enumerate() {
            if o == usize::MAX {
                continue;
            }
            let root = find(&mut parent, o);
            if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = cols.len();
                cols.push(Vec::new());
            }
            let k = comp_of_root[root];
            local[c] = cols[k].len() as u32;
            cols[k].push(c);
        }
        if cols.len() <= 1 {
            return None;
        }

        let mut parts: Vec<(Vec<Matrix>, Vec<Range<usize>>)> =
            vec![(Vec::new(), Vec::new()); cols.len()];
        let mut row = 0;
        for (bi, block) in blocks.iter().enumerate() {
            let k = comp_of_root[find(&mut parent, bi)];
            let (members, spans) = &mut parts[k];
            members.push(rebase(block, &local, cols[k].len())?);
            let end = row + block.rows();
            match spans.last_mut() {
                Some(last) if last.end == row => last.end = end,
                _ => spans.push(row..end),
            }
            row = end;
        }
        Some(
            cols.into_iter()
                .zip(parts)
                .map(|(cols, (members, row_spans))| ColumnComponent {
                    cols,
                    row_spans,
                    matrix: Matrix::vstack(members),
                })
                .collect(),
        )
    }
}

/// The sparse leaf ending `m`'s right spine, if it has one.
fn spine_leaf(m: &Matrix) -> Option<&CsrMatrix> {
    match m {
        Matrix::Sparse(s) => Some(s),
        Matrix::Scaled(_, a) => spine_leaf(a),
        Matrix::Product(_, b) => spine_leaf(b),
        _ => None,
    }
}

/// `m` with its spine leaf's columns renamed through `local`, over
/// `width` columns.
fn rebase(m: &Matrix, local: &[u32], width: usize) -> Option<Matrix> {
    Some(match m {
        Matrix::Sparse(s) => {
            let s = s.remap_columns(local, width);
            if s.is_identity() {
                Matrix::identity(width)
            } else {
                Matrix::Sparse(Arc::new(s))
            }
        }
        Matrix::Scaled(c, a) => Matrix::scaled(*c, rebase(a, local, width)?),
        Matrix::Product(a, b) => Matrix::product((**a).clone(), rebase(b, local, width)?),
        _ => return None,
    })
}

/// Union–find root of `i`, halving the path as it goes.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(n: usize, cells: &[usize]) -> Matrix {
        Matrix::scaled(
            2.0,
            Matrix::product(Matrix::wavelet(cells.len()), Matrix::select_rows(n, cells)),
        )
    }

    #[test]
    fn disjoint_stripes_split_in_first_column_order() {
        let a = Matrix::vstack(vec![stripe(8, &[4, 5, 6, 7]), stripe(8, &[0, 1, 2, 3])]);
        let parts = a.column_components().unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].cols, vec![0, 1, 2, 3]);
        assert_eq!(parts[0].row_spans, vec![4..8]);
        assert_eq!(parts[1].cols, vec![4, 5, 6, 7]);
        assert_eq!(parts[1].row_spans, vec![0..4]);
        // The identity selector is elided: Scaled(Wavelet) is all that is left.
        assert!(matches!(&parts[0].matrix, Matrix::Scaled(c, w)
            if *c == 2.0 && matches!(**w, Matrix::Wavelet { n: 4 })));
    }

    #[test]
    fn components_reproduce_the_parent_products() {
        // Interleaved stripes whose selectors stay non-identity after
        // re-indexing (cells out of order), plus a block that shares a
        // column and merges two stripes.
        let n = 9;
        let a = Matrix::vstack(vec![
            stripe(n, &[0, 3, 6]),
            stripe(n, &[7, 1, 4]),
            stripe(n, &[2, 5]),
            Matrix::product(Matrix::total(2), Matrix::select_rows(n, &[8, 5])),
        ]);
        let parts = a.column_components().unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].cols, vec![2, 5, 8]);
        assert_eq!(parts[2].row_spans, vec![6..9]);
        let x: Vec<f64> = (0..n).map(|i| (i * i) as f64 - 3.0).collect();
        let y = a.matvec(&x);
        for p in &parts {
            let xc: Vec<f64> = p.cols.iter().map(|&j| x[j]).collect();
            let yc: Vec<f64> = p
                .row_spans
                .iter()
                .flat_map(|r| y[r.clone()].to_vec())
                .collect();
            assert_eq!(p.matrix.matvec(&xc), yc);
        }
    }

    #[test]
    fn non_separable_shapes_return_none() {
        let s = stripe(4, &[0, 1]);
        assert!(s.column_components().is_none(), "not a union");
        let one = Matrix::vstack(vec![s.clone(), stripe(4, &[1, 2])]);
        assert!(one.column_components().is_none(), "one component");
        let dense_leaf = Matrix::vstack(vec![s.clone(), Matrix::total(4)]);
        assert!(dense_leaf.column_components().is_none(), "non-sparse spine");
        let empty = Matrix::vstack(vec![s, Matrix::sparse(CsrMatrix::zeros(1, 4))]);
        assert!(empty.column_components().is_none(), "block with no entries");
    }

    #[test]
    fn untouched_columns_belong_to_no_component() {
        let a = Matrix::vstack(vec![stripe(6, &[0, 1]), stripe(6, &[4, 5])]);
        let parts = a.column_components().unwrap();
        let covered: Vec<usize> = parts.iter().flat_map(|p| p.cols.clone()).collect();
        assert_eq!(covered, vec![0, 1, 4, 5]);
    }
}
