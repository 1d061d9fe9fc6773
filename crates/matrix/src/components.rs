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
    /// are grouped by shared columns with union–find. Each leaf is
    /// re-indexed to component-local columns; a re-indexed leaf that is
    /// exactly the k×k identity becomes [`Matrix::identity`], which
    /// [`Matrix::product`] elides.
    ///
    /// Only the blocks' stored entries are visited, never the whole
    /// domain: with `Σ nnz` leaf entries the split costs
    /// `O(Σ nnz · α + blocks · log blocks)`, plus a sort of the columns of
    /// any component whose columns do not already arrive ascending from
    /// a single leaf, and one `u32` per column of the parent for the
    /// column → block map.
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
        if blocks.len() >= NONE as usize
            || !blocks
                .iter()
                .all(|b| spine_leaf(b).is_some_and(|s| s.nnz() > 0))
        {
            return None;
        }
        let leaves: Vec<&CsrMatrix> = blocks.iter().filter_map(spine_leaf).collect();

        // Union–find over blocks, linked through the first block that
        // touches each column, and each block's least column.
        let mut parent: Vec<usize> = (0..blocks.len()).collect();
        let mut first = vec![NONE; blocks.len()];
        let mut owner = vec![NONE; self.cols()];
        for (bi, leaf) in leaves.iter().enumerate() {
            for &c in leaf.indices() {
                first[bi] = first[bi].min(c);
                let o = owner[c as usize];
                if o == NONE {
                    owner[c as usize] = bi as u32;
                } else {
                    let (ra, rb) = (find(&mut parent, o as usize), find(&mut parent, bi));
                    parent[ra.max(rb)] = ra.min(rb);
                }
            }
        }

        // Number the components by least column, and list each one's
        // blocks in parent order.
        let roots: Vec<usize> = (0..blocks.len()).map(|bi| find(&mut parent, bi)).collect();
        for (bi, &r) in roots.iter().enumerate() {
            first[r] = first[r].min(first[bi]);
        }
        let mut order: Vec<usize> = (0..blocks.len()).filter(|&bi| roots[bi] == bi).collect();
        if order.len() <= 1 {
            return None;
        }
        // Components own disjoint columns, so their least columns differ.
        order.sort_unstable_by_key(|&r| first[r]);
        let mut comp_of_root = vec![0; blocks.len()];
        for (k, &r) in order.iter().enumerate() {
            comp_of_root[r] = k;
        }
        // Each component's blocks in parent order, as one counting sort of
        // the blocks by component: component `k`'s are
        // `members[start[k]..start[k + 1]]`.
        let mut start = vec![0; order.len() + 1];
        for &r in &roots {
            start[comp_of_root[r] + 1] += 1;
        }
        for k in 0..order.len() {
            start[k + 1] += start[k];
        }
        let mut members = vec![0; blocks.len()];
        // The union–find forest is spent: its buffer holds each
        // component's next free slot.
        let mut next = parent;
        next[..order.len()].copy_from_slice(&start[..order.len()]);
        for (bi, &r) in roots.iter().enumerate() {
            let slot = &mut next[comp_of_root[r]];
            members[*slot] = bi;
            *slot += 1;
        }
        let members_of = |k: usize| &members[start[k]..start[k + 1]];

        // A lone one-per-row ascending selector of ones re-indexes to the
        // identity over its own columns, so its component skips the
        // remap. The others get the global → local map of their columns,
        // written over `owner`, which is no longer needed.
        let identity: Vec<bool> = (0..order.len())
            .map(|k| matches!(members_of(k), &[bi] if is_ascending_selector(leaves[bi])))
            .collect();
        let cols: Vec<Vec<usize>> = (0..order.len())
            .map(|k| match *members_of(k) {
                [bi] if strictly_ascending(leaves[bi]) => {
                    leaves[bi].indices().iter().map(|&c| c as usize).collect()
                }
                ref m => {
                    let mut c: Vec<usize> = m
                        .iter()
                        .flat_map(|&bi| leaves[bi].indices().iter().map(|&c| c as usize))
                        .collect();
                    c.sort_unstable();
                    c.dedup();
                    c
                }
            })
            .collect();
        let local = &mut owner;
        for (c, _) in cols.iter().zip(&identity).filter(|(_, &id)| !id) {
            for (i, &j) in c.iter().enumerate() {
                local[j] = i as u32;
            }
        }

        let mut row_spans: Vec<Vec<Range<usize>>> = vec![Vec::new(); order.len()];
        let mut row = 0;
        for (bi, block) in blocks.iter().enumerate() {
            let spans = &mut row_spans[comp_of_root[roots[bi]]];
            let end = row + block.rows();
            match spans.last_mut() {
                Some(last) if last.end == row => last.end = end,
                _ => spans.push(row..end),
            }
            row = end;
        }
        let mut parts = Vec::with_capacity(order.len());
        for (k, (cols, row_spans)) in cols.into_iter().zip(row_spans).enumerate() {
            let map = (!identity[k]).then_some(&local[..]);
            let rebased = |&bi: &usize| rebase(&blocks[bi], map, cols.len());
            let matrix = match members_of(k) {
                [bi] => rebased(bi)?,
                m => Matrix::vstack(m.iter().map(rebased).collect::<Option<_>>()?),
            };
            parts.push(ColumnComponent {
                cols,
                row_spans,
                matrix,
            });
        }
        Some(parts)
    }
}

/// "No block yet" in the column → block map, and the bound on the block
/// count that keeps block numbers below it.
const NONE: u32 = u32::MAX;

/// True when `leaf`'s stored column indices, row after row, strictly
/// increase: they are then its ascending, distinct columns.
fn strictly_ascending(leaf: &CsrMatrix) -> bool {
    leaf.indices().windows(2).all(|w| w[0] < w[1])
}

/// True when `leaf` holds one stored `1.0` per row at strictly
/// increasing columns: re-indexed over its own columns it is the
/// identity.
fn is_ascending_selector(leaf: &CsrMatrix) -> bool {
    leaf.nnz() == leaf.rows()
        && leaf.indptr().iter().enumerate().all(|(i, &p)| p == i)
        && leaf.values().iter().all(|&v| v == 1.0)
        && strictly_ascending(leaf)
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
/// `width` columns; `None` means the renamed leaf is the identity.
fn rebase(m: &Matrix, local: Option<&[u32]>, width: usize) -> Option<Matrix> {
    Some(match m {
        Matrix::Sparse(s) => match local {
            None => Matrix::identity(width),
            Some(local) => {
                let s = s.remap_columns(local, width);
                if s.is_identity() {
                    Matrix::identity(width)
                } else {
                    Matrix::Sparse(Arc::new(s))
                }
            }
        },
        Matrix::Scaled(c, a) => Matrix::scaled(*c, rebase(a, local, width)?),
        // The left factor is shared, not copied; an identity right
        // factor is elided as `Matrix::product` would.
        Matrix::Product(a, b) => match rebase(b, local, width)? {
            Matrix::Identity { .. } => (**a).clone(),
            b => Matrix::Product(Arc::clone(a), Arc::new(b)),
        },
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
    use proptest::prelude::*;

    /// The split as it was first written, kept as the oracle: owner and
    /// local maps over the whole domain, components numbered by a scan
    /// of every column.
    fn oracle(a: &Matrix) -> Option<Vec<ColumnComponent>> {
        let Matrix::Union(blocks) = a else {
            return None;
        };
        if !blocks
            .iter()
            .all(|b| spine_leaf(b).is_some_and(|s| s.nnz() > 0))
        {
            return None;
        }
        let n = a.cols();
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
            members.push(rebase(block, Some(&local), cols[k].len())?);
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

    /// A random block over `n` columns: a strategy over a random set of
    /// cells (ascending, shuffled, or shared with other blocks), through
    /// a selector or a general sparse leaf, optionally behind a
    /// partition and a scale.
    fn random_block(seed: u64, n: usize) -> Matrix {
        let mut s = seed;
        let mut next = move |k: usize| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((s >> 33) % k as u64) as usize
        };
        let width = 1 + next(n.min(6));
        let mut cells: Vec<usize> = (0..width).map(|_| next(n)).collect();
        cells.sort_unstable();
        cells.dedup();
        if next(3) == 0 {
            cells.reverse();
        }
        let k = cells.len();
        let leaf = match next(4) {
            0 => {
                // A general sparse leaf: two entries in some rows.
                let triplets: Vec<(usize, usize, f64)> = (0..k)
                    .flat_map(|r| {
                        let mut t = vec![(r, cells[r], 1.0 + r as f64)];
                        if r + 1 < k {
                            t.push((r, cells[r + 1], -1.0));
                        }
                        t
                    })
                    .collect();
                Matrix::sparse(CsrMatrix::from_triplets(k, n, &triplets))
            }
            1 => Matrix::scaled(2.0, Matrix::select_rows(n, &cells)),
            _ => Matrix::select_rows(n, &cells),
        };
        let lineage = if k > 1 && next(2) == 0 {
            let labels: Vec<usize> = (0..k).map(|i| i / 2).collect();
            Matrix::product(crate::partition_from_labels(k.div_ceil(2), &labels), leaf)
        } else {
            leaf
        };
        let strategy = match next(3) {
            0 => Matrix::prefix(lineage.rows()),
            1 => Matrix::range_queries(lineage.rows(), vec![(0, lineage.rows())]),
            _ => Matrix::identity(lineage.rows()),
        };
        Matrix::scaled(0.5 + next(4) as f64, Matrix::product(strategy, lineage))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The split visits only stored entries, yet returns exactly the
        /// oracle's components, columns, row spans and matrices, in the
        /// same order.
        #[test]
        fn components_match_the_domain_scan_oracle(
            seed in 0u64..u64::MAX,
            n in 2usize..40,
            blocks in 1usize..9,
        ) {
            let a = Matrix::vstack(
                (0..blocks as u64).map(|b| random_block(seed ^ (b * 0x9E37_79B9), n)).collect(),
            );
            let got = a.column_components();
            let want = oracle(&a);
            prop_assert_eq!(got.is_some(), want.is_some());
            for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                prop_assert_eq!(&g.cols, &w.cols);
                prop_assert_eq!(&g.row_spans, &w.row_spans);
                prop_assert_eq!(format!("{:?}", g.matrix), format!("{:?}", w.matrix));
            }
            prop_assert_eq!(got.map(|c| c.len()), want.map(|c| c.len()));
        }
    }

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
        let empty = Matrix::vstack(vec![s, Matrix::sparse(CsrMatrix::from_triplets(1, 4, &[]))]);
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
