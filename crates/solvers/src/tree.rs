//! Tree-based least squares (Hay et al. 2010): the exact `O(nodes)`
//! solution for a weighted interval hierarchy, optionally behind a
//! partition.
//!
//! The system is `A = S · P` (or `A = S`), recognised by
//! [`Matrix::tree_shape`]. Row `v` of `S` counts the cells of one
//! interval with weight `a_v`, so it observes the interval's total as
//! `b_v / a_v` with variance `1 / a_v²`. The intervals form a tree whose
//! leaves are the singletons, and each internal node is the disjoint union
//! of its children. Two passes give the least-squares cell values `z`:
//!
//! * **upward**: a node's estimate from its own subtree is the
//!   inverse-variance average of its own answer and the sum of its
//!   children's estimates, whose variances add;
//! * **downward**: a node's final value is split among its children by
//!   giving each a share of (final value − children's sum) proportional
//!   to the child's variance.
//!
//! Then `x = Pᵀ D⁻¹ z`, `D` holding the group sizes, and columns no group
//! covers stay 0.
//!
//! **Why this is the solution LSQR converges to.** From `x₀ = 0` LSQR
//! converges to the minimum-norm solution `A⁺ b`. `S` has full column
//! rank (every cell has its singleton with a non-zero weight) and `P` has
//! full row rank (its rows are non-empty and disjoint), so
//! `(S P)⁺ = P⁺ S⁺`. `S⁺ b` is the unique weighted least-squares `z`,
//! which the two passes compute: with the subtree estimates independent,
//! the upward pass is the best estimate of each node's total from its
//! subtree, and given a parent's final total, minimising
//! `Σ (s_c − z_c)² / var_c` subject to `Σ s_c = total` gives the
//! proportional shares of the downward pass. `P⁺ = Pᵀ (P Pᵀ)⁻¹ = Pᵀ D⁻¹`
//! because `P Pᵀ = D` for a 0/1 matrix with disjoint rows.

use std::collections::BTreeMap;

use ektelo_matrix::{CsrMatrix, Matrix, RangeQueries, TreeNode};

use crate::lsqr::LsqrResult;

/// Solves `min_x ‖A x − b‖₂` exactly when `A` is a weighted interval
/// hierarchy ([`Matrix::tree_shape`], [`ektelo_matrix::TreeShape::tree`]), returning the
/// minimum-norm solution with `iterations == 0` and the exact residual
/// norm; `None` for any other matrix.
///
/// This is the specialised inference the paper's Fig. 5 compares its
/// generic engine against. [`crate::lsqr()`] applies the same pass to
/// each column component of a separable system.
///
/// ```
/// use ektelo_matrix::Matrix;
/// use ektelo_solvers::tree_least_squares;
///
/// // A total and its two cells, all measured with unit weight.
/// let a = Matrix::range_queries(2, vec![(0, 2), (0, 1), (1, 2)]);
/// let r = tree_least_squares(&a, &[6.0, 1.0, 2.0]).unwrap();
/// assert!((r.x[0] - 2.0).abs() < 1e-12 && (r.x[1] - 3.0).abs() < 1e-12);
/// assert!(tree_least_squares(&Matrix::prefix(2), &[1.0, 2.0]).is_none());
/// ```
pub fn tree_least_squares(a: &Matrix, b: &[f64]) -> Option<LsqrResult> {
    assert_eq!(b.len(), a.rows(), "tree_least_squares: rhs length mismatch");
    let mut x = vec![0.0; a.cols()];
    let residual_sq = TreeSolver::default().solve(a, b, &mut x)?;
    Some(LsqrResult {
        x,
        iterations: 0,
        residual_norm: residual_sq.sqrt(),
    })
}

/// The exact solve over the components of one system. A hierarchy that
/// several components share (HB-Striped puts one on every stripe) is
/// built once and kept; one that a single component uses is built, used
/// and dropped, so a solve never holds a pass per component. The pass
/// buffers are reused throughout.
#[derive(Default)]
pub(crate) struct TreeSolver {
    /// Addresses of the interval blocks that lead the hierarchy of more
    /// than one component, ascending.
    shared: Vec<usize>,
    /// Passes of the shared hierarchies, keyed by each interval block's
    /// address and weight bits; `None` records a shape whose intervals
    /// are not a hierarchy. The addresses stay valid because the
    /// matrices outlive the solver.
    passes: BTreeMap<Vec<(usize, u64)>, Option<TreePass>>,
    /// Node estimates, then final node values.
    z: Vec<f64>,
    /// Sum of each node's children's upward estimates, then each
    /// node's interval total of the solution.
    sum: Vec<f64>,
}

impl TreeSolver {
    /// A solver for the components `matrices`, knowing which hierarchies
    /// they share.
    pub(crate) fn new<'a>(matrices: impl Iterator<Item = &'a Matrix>) -> TreeSolver {
        let mut leads: Vec<usize> = matrices
            .filter_map(|m| Some(address(m.tree_shape()?.blocks.first()?.1)))
            .collect();
        leads.sort_unstable();
        let mut shared: Vec<usize> = leads
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| w[0])
            .collect();
        shared.dedup();
        TreeSolver {
            shared,
            ..TreeSolver::default()
        }
    }

    /// Solves `min ‖A x − b‖` exactly into `x` (zero on entry) and returns
    /// `‖A x − b‖²`, or returns `None`, leaving `x` untouched, when `A` is
    /// not a weighted interval hierarchy.
    pub(crate) fn solve(&mut self, a: &Matrix, b: &[f64], x: &mut [f64]) -> Option<f64> {
        let shape = a.tree_shape()?;
        let (z, sum) = (&mut self.z, &mut self.sum);
        let lead = address(shape.blocks.first()?.1);
        if self.shared.binary_search(&lead).is_err() {
            let pass = TreePass::new(shape.tree()?, z, sum);
            return Some(pass.solve(shape.partition, b, x, z, sum));
        }
        let key = shape
            .blocks
            .iter()
            .map(|&(w, r)| (address(r), w.to_bits()))
            .collect();
        let pass = self
            .passes
            .entry(key)
            .or_insert_with(|| shape.tree().map(|t| TreePass::new(t, z, sum)))
            .as_ref()?;
        Some(pass.solve(shape.partition, b, x, z, sum))
    }
}

/// The address of an interval block, its identity for sharing.
fn address(r: &RangeQueries) -> usize {
    r as *const RangeQueries as usize
}

/// One hierarchy's tree with the pass weights precomputed; they depend on
/// the row weights alone, not on the answers.
struct TreePass {
    nodes: Vec<TreeNode>,
    /// Per node: the upward weight of its own answer divided by its row
    /// weight (so it applies to `b` directly), the upward weight of its
    /// children's sum (0 at a leaf), and its share of its parent's
    /// discrepancy in the downward pass — its variance over the sum of
    /// its siblings' (its own included).
    weights: Vec<[f64; 3]>,
    /// The leaf (singleton) node of each cell.
    leaves: Vec<u32>,
}

impl TreePass {
    /// Precomputes the passes of the pre-order `nodes`, using `var` and
    /// `child_var` as scratch.
    fn new(nodes: Vec<TreeNode>, var: &mut Vec<f64>, child_var: &mut Vec<f64>) -> TreePass {
        let m = nodes.len();
        // var[k]: variance of node k's subtree estimate; child_var[k]: the
        // sum of its children's.
        reset(var, m);
        reset(child_var, m);
        let mut weights = vec![[0.0; 3]; m];
        for (k, node) in nodes.iter().enumerate().rev() {
            let a = node.weight;
            let precision = a * a;
            let [own, kids, _] = &mut weights[k];
            if child_var[k] == 0.0 {
                var[k] = 1.0 / precision;
                *own = 1.0 / a;
            } else {
                let total = precision + 1.0 / child_var[k];
                var[k] = 1.0 / total;
                *own = a / total;
                *kids = 1.0 / (child_var[k] * total);
            }
            if let Some(p) = parent(node) {
                child_var[p] += var[k];
            }
        }
        for (k, node) in nodes.iter().enumerate() {
            if let Some(p) = parent(node) {
                weights[k][2] = var[k] / child_var[p];
            }
        }
        let leaves = (0..m as u32)
            .filter(|&k| {
                nodes
                    .get(k as usize + 1)
                    .is_none_or(|next| next.parent != k)
            })
            .collect();
        TreePass {
            nodes,
            weights,
            leaves,
        }
    }

    /// The two passes and the expansion through `partition`; returns
    /// `‖A x − b‖²`.
    fn solve(
        &self,
        partition: Option<&CsrMatrix>,
        b: &[f64],
        x: &mut [f64],
        z: &mut Vec<f64>,
        sum: &mut Vec<f64>,
    ) -> f64 {
        let nodes = &self.nodes;
        reset(z, nodes.len());
        reset(sum, nodes.len());

        // Upward: children come after their parent in pre-order.
        for (k, node) in nodes.iter().enumerate().rev() {
            let [own, kids, _] = self.weights[k];
            let zk = own * b[node.row as usize] + kids * sum[k];
            z[k] = zk;
            if let Some(p) = parent(node) {
                sum[p] += zk;
            }
        }
        // Downward: a parent's final value is set before its children's.
        for (k, node) in nodes.iter().enumerate() {
            if let Some(p) = parent(node) {
                z[k] += self.weights[k][2] * (z[p] - sum[p]);
            }
        }

        // x = Pᵀ D⁻¹ z, then each cell's total of x (P x, or x itself)
        // at its leaf for the residual.
        sum.fill(0.0);
        match partition {
            None => {
                for (xj, &leaf) in x.iter_mut().zip(&self.leaves) {
                    *xj = z[leaf as usize];
                    sum[leaf as usize] = *xj;
                }
            }
            Some(p) => {
                for (g, &leaf) in self.leaves.iter().enumerate() {
                    let cols = &p.indices()[p.indptr()[g]..p.indptr()[g + 1]];
                    let v = z[leaf as usize] / cols.len() as f64;
                    for &c in cols {
                        x[c as usize] = v;
                        sum[leaf as usize] += v;
                    }
                }
            }
        }
        // Interval totals from the leaves up, and the residual.
        let mut residual_sq = 0.0;
        for (k, node) in nodes.iter().enumerate().rev() {
            if let Some(p) = parent(node) {
                sum[p] += sum[k];
            }
            let r = node.weight * sum[k] - b[node.row as usize];
            residual_sq += r * r;
        }
        residual_sq
    }
}

/// The parent of `node`, if it is not a root.
fn parent(node: &TreeNode) -> Option<usize> {
    (node.parent != TreeNode::ROOT).then_some(node.parent as usize)
}

/// Sets `v` to `len` zeros, reusing its allocation.
fn reset(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lsqr, LsqrOptions};

    #[test]
    fn two_level_tree_by_hand() {
        // Root [0,2) with weight 1, leaves with weight 1: the root's own
        // answer 6 and the leaves' sum 3 average to 4.5, split evenly.
        let a = Matrix::range_queries(2, vec![(0, 2), (0, 1), (1, 2)]);
        let r = tree_least_squares(&a, &[6.0, 1.0, 2.0]).unwrap();
        assert_eq!(r.iterations, 0);
        assert!((r.x[0] - 2.0).abs() < 1e-12 && (r.x[1] - 3.0).abs() < 1e-12);
        // Residual: (5 − 6)² + (2 − 1)² + (3 − 2)² = 3.
        assert!((r.residual_norm - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn partition_expands_uniformly_and_leaves_uncovered_columns_zero() {
        let s = Matrix::vstack(vec![
            Matrix::range_queries(2, vec![(0, 2)]),
            Matrix::scaled(2.0, Matrix::range_queries(2, vec![(0, 1), (1, 2)])),
        ]);
        // Group 0 = columns {0, 1}, group 1 = column {3}; column 2 unused.
        let p = Matrix::sparse(CsrMatrix::from_triplets(
            2,
            4,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 3, 1.0)],
        ));
        let a = Matrix::scaled(0.5, Matrix::product(s, p));
        let b = [3.0, 1.0, 4.0];
        let r = tree_least_squares(&a, &b).unwrap();
        // Rank-deficient, so the reference is LSQR's minimum-norm limit.
        let tight = LsqrOptions {
            max_iters: 1000,
            atol: 1e-15,
        };
        let reference = lsqr(&a, &b, &tight).x;
        for (x, e) in r.x.iter().zip(&reference) {
            assert!((x - e).abs() < 1e-12, "{:?} vs {reference:?}", r.x);
        }
        assert_eq!(r.x[2], 0.0);
        assert_eq!(r.x[0], r.x[1]);
    }

    #[test]
    fn shared_hierarchies_are_built_once() {
        let h = Matrix::range_queries(3, vec![(0, 3), (0, 1), (1, 2), (2, 3)]);
        let lone = Matrix::range_queries(3, vec![(0, 1), (1, 2), (2, 3)]);
        let parts: Vec<Matrix> = [1.0, 1.0, 2.0]
            .into_iter()
            .map(|c| Matrix::scaled(c, h.clone()))
            .chain([lone])
            .collect();
        let mut solver = TreeSolver::new(parts.iter());
        let mut x = vec![0.0; 3];
        for a in &parts {
            assert!(solver.solve(a, &[1.0; 4][..a.rows()], &mut x).is_some());
        }
        // One kept pass per distinct (hierarchy, weight) pair of the
        // shared hierarchy; the lone one is not kept.
        assert_eq!(solver.passes.len(), 2);
    }
}
