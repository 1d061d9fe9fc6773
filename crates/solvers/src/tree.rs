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
//!
//! **Kronecker measurements** (`kron_least_squares`). For the
//! Moore–Penrose pseudo-inverse, `(A₁ ⊗ … ⊗ A_d)⁺ = A₁⁺ ⊗ … ⊗ A_d⁺` with
//! no rank condition, and `(c·K)⁺ = K⁺ / c`. So the minimum-norm
//! solution of one Kronecker measurement (HB-Striped as one strategy,
//! `I ⊗ HB ⊗ I`; EKTELO Algorithm 6, HDMM's inference) is each factor's
//! pseudo-inverse applied along its own mode: an identity mode is left
//! as it is, and a hierarchy mode runs one tree pass, built once, on
//! every fiber along it. The scale `c` is folded into the first
//! hierarchy's row weights (a pass is linear in `b`, and scaling every
//! weight by `c` scales the solution by `1 / c`), which is exactly the
//! pass a stripe of the split form `c · HB · Sel` gets. The answers are
//! read in place: a measurement's inverse-noise weight `w` is applied
//! where the first pass reads each answer `a`, as the product `a * w`
//! that a stacked, weighted copy would hold, so no such copy is made.
//!
//! **Panels.** The fibers along a mode with `inner` trailing columns sit
//! `inner` apart, so row `r` of `inner` neighbouring fibers is one
//! contiguous run. The pass works on tiles of at most 64 (`TILE`) such
//! fibers (lanes): each node's upward and downward step is one
//! operation across a tile row, so it reads and writes whole rows
//! instead of gathering each fiber. Every lane runs exactly the
//! operation sequence of the one-fiber pass, so the result does not
//! depend on the tiling, bit for bit. The leaves' values live in the
//! output rows, which makes the expansion `x = z` free; only the
//! internal nodes take scratch rows (20 of the 377 nodes of `HB(357)`).
//! A column component of a separable system runs the same pass with one
//! lane, its leaves behind a partition in a group buffer.

use ektelo_matrix::{Matrix, TreeNode};

use crate::lsqr::{LsqrResult, WeightedRhs};

/// Lanes (neighbouring fibers) per tile of the panel pass.
const TILE: usize = 64;

/// Solves `min_x ‖A x − b‖₂` exactly when `A` is a weighted interval
/// hierarchy ([`Matrix::tree_shape`], [`ektelo_matrix::TreeShape::tree`]), returning the
/// minimum-norm solution with `iterations == 0`; `None` for any other
/// matrix.
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
    TreeSolver::default().solve(a, b, &mut x)?;
    Some(LsqrResult { x, iterations: 0 })
}

/// The exact solve over the components of one system: each component's
/// pass is built, used and dropped, and the pass buffers are reused
/// throughout.
#[derive(Default)]
pub(crate) struct TreeSolver {
    /// The pass's internal-node rows, and its set-up scratch.
    scratch: Vec<f64>,
    /// A second set-up buffer.
    child_var: Vec<f64>,
    /// Each group's value, then its total of the solution, when the
    /// hierarchy sits behind a partition.
    groups: Vec<f64>,
}

impl TreeSolver {
    /// Solves `min ‖A x − b‖` exactly into `x` (zero on entry), or
    /// returns `None`, leaving `x` untouched, when `A` is not a weighted
    /// interval hierarchy.
    pub(crate) fn solve(&mut self, a: &Matrix, b: &[f64], x: &mut [f64]) -> Option<()> {
        let shape = a.tree_shape()?;
        let pass = TreePass::new(shape.tree()?, &mut self.scratch, &mut self.child_var);
        reset(&mut self.scratch, pass.scratch_len(1));
        let Some(p) = shape.partition else {
            // The leaves are the cells: their rows are `x` itself.
            pass.estimate(b, 1.0, x, 1, 1, &mut self.scratch);
            return Some(());
        };
        // x = Pᵀ D⁻¹ z, D holding the group sizes.
        let groups = &mut self.groups;
        reset(groups, p.rows());
        pass.estimate(b, 1.0, groups, 1, 1, &mut self.scratch);
        for (g, &total) in groups.iter().enumerate() {
            let cols = &p.indices()[p.indptr()[g]..p.indptr()[g + 1]];
            let v = total / cols.len() as f64;
            for &c in cols {
                x[c as usize] = v;
            }
        }
        Some(())
    }
}

/// One mode of a Kronecker system: its rows, its columns, and the pass
/// of a hierarchy mode (`None` for an identity).
type Mode = (usize, usize, Option<TreePass>);

/// The modes of a (scaled) Kronecker product whose every factor is an
/// [`Matrix::Identity`] or a weighted interval hierarchy without a
/// partition, with at least one hierarchy, the scale folded into the
/// first hierarchy's weights; `None` for every other matrix.
fn kron_modes(a: &Matrix) -> Option<Vec<Mode>> {
    let (c, factors) = a.kron_factors()?;
    let mut modes: Vec<Mode> = Vec::with_capacity(factors.len());
    let (mut var, mut child_var) = (Vec::new(), Vec::new());
    let mut scale = Some(c);
    for f in factors {
        if let Matrix::Identity { n } = *f {
            modes.push((n, n, None));
            continue;
        }
        let shape = f.tree_shape()?;
        if shape.partition.is_some() {
            return None;
        }
        let mut nodes = shape.tree()?;
        if let Some(c) = scale.take() {
            for node in &mut nodes {
                node.weight *= c;
                let sq = node.weight * node.weight;
                if !sq.is_finite() || sq == 0.0 {
                    return None;
                }
            }
        }
        let pass = TreePass::new(nodes, &mut var, &mut child_var);
        modes.push((f.rows(), f.cols(), Some(pass)));
    }
    // With every factor an identity there is no hierarchy mode to solve.
    scale.is_none().then_some(modes)
}

/// Solves `min ‖A x − b‖₂` exactly when `A` is a (scaled) Kronecker
/// product whose every factor is an [`Matrix::Identity`] or a weighted
/// interval hierarchy without a partition ([`Matrix::tree_shape`]), with
/// at least one hierarchy, and returns the minimum-norm solution. A
/// right-hand side held as one block of answers is read in place, each
/// value formed as `a * w` where the first hierarchy pass reads it; one
/// of several blocks is gathered first. Modes apply last to first; a
/// hierarchy mode runs its one tree pass on tiles of at most `TILE`
/// neighbouring fibers at a time, reading each node's answers as a
/// contiguous row of the tile and writing each cell's value straight
/// into the output rows. `None` for every other matrix, including dense
/// factors and unions of several Kronecker blocks.
pub(crate) fn kron_least_squares(a: &Matrix, rhs: &WeightedRhs<'_>) -> Option<Vec<f64>> {
    let modes = kron_modes(a)?;
    let gathered;
    let (b, w) = match rhs.single() {
        Some(block) => block,
        None => {
            gathered = rhs.to_vec();
            (&gathered[..], 1.0)
        }
    };
    let mut solved: Option<Vec<f64>> = None;
    let mut scratch = Vec::new();
    for k in (0..modes.len()).rev() {
        let (m, n, Some(pass)) = &modes[k] else {
            continue;
        };
        // Modes before `k` are still in row space, modes after it are
        // already in column space.
        let outer: usize = modes[..k].iter().map(|f| f.0).product();
        let inner: usize = modes[k + 1..].iter().map(|f| f.1).product();
        // The first pass reads the weighted answers, later ones the
        // previous pass's output.
        let (src, w) = solved.as_deref().map_or((b, w), |s| (s, 1.0));
        let mut dst = vec![0.0; outer * n * inner];
        reset(&mut scratch, pass.scratch_len(TILE.min(inner)));
        for (s, d) in src
            .chunks_exact(m * inner)
            .zip(dst.chunks_exact_mut(n * inner))
        {
            for t in (0..inner).step_by(TILE) {
                let lanes = TILE.min(inner - t);
                pass.estimate(&s[t..], w, &mut d[t..], inner, lanes, &mut scratch);
            }
        }
        solved = Some(dst);
    }
    solved
}

/// Where a node's values live during a pass.
#[derive(Clone, Copy)]
enum Slot {
    /// A leaf: the row of its cell (or group) in the leaf panel.
    Leaf(u32),
    /// An internal node: its row in the scratch panels.
    Internal(u32),
}

impl Slot {
    /// The node's row in its panel.
    fn row(self) -> u32 {
        match self {
            Slot::Leaf(r) | Slot::Internal(r) => r,
        }
    }
}

/// A node's part in the passes; its pass weights depend on the row
/// weights alone, not on the answers.
struct Step {
    /// The scratch row of the node's parent, or [`TreeNode::ROOT`] at a
    /// root. (Rows are `u32`, as node indices are, to keep a step small:
    /// the passes stream the steps.)
    parent: u32,
    slot: Slot,
    /// The upward weight of the node's own answer divided by its row
    /// weight (so it applies to `b` directly).
    own: f64,
    /// The upward weight of its children's sum (0 at a leaf).
    kids: f64,
    /// Its share of its parent's discrepancy in the downward pass: its
    /// variance over the sum of its siblings' (its own included).
    share: f64,
}

impl Step {
    /// The scratch row of the node's parent, if it is not a root.
    fn parent(&self) -> Option<usize> {
        (self.parent != TreeNode::ROOT).then_some(self.parent as usize)
    }
}

/// One hierarchy's tree with the pass weights precomputed.
struct TreePass {
    /// The nodes in pre-order; parents come before their children.
    nodes: Vec<TreeNode>,
    /// The nodes' steps, in the same order.
    steps: Vec<Step>,
    /// How many nodes are internal (have children).
    internal: usize,
}

impl TreePass {
    /// Precomputes the passes of the pre-order `nodes`, using `var` and
    /// `child_var` as scratch.
    fn new(nodes: Vec<TreeNode>, var: &mut Vec<f64>, child_var: &mut Vec<f64>) -> TreePass {
        // Rows in pre-order: a parent's scratch row comes before its
        // children's, and the leaves come in cell order.
        let (mut internal, mut leaves) = (0, 0);
        let mut steps: Vec<Step> = Vec::with_capacity(nodes.len());
        for (k, node) in nodes.iter().enumerate() {
            let is_leaf = nodes
                .get(k + 1)
                .is_none_or(|next| next.parent as usize != k);
            let slot = if is_leaf {
                leaves += 1;
                Slot::Leaf(leaves - 1)
            } else {
                internal += 1;
                Slot::Internal(internal - 1)
            };
            steps.push(Step {
                parent: parent(node).map_or(TreeNode::ROOT, |p| steps[p].slot.row()),
                slot,
                own: 0.0,
                kids: 0.0,
                share: 0.0,
            });
        }
        // var[k]: variance of node k's subtree estimate; child_var[k]: the
        // sum of its children's.
        reset(var, nodes.len());
        reset(child_var, nodes.len());
        for (k, node) in nodes.iter().enumerate().rev() {
            let a = node.weight;
            let precision = a * a;
            let step = &mut steps[k];
            if child_var[k] == 0.0 {
                var[k] = 1.0 / precision;
                step.own = 1.0 / a;
            } else {
                let total = precision + 1.0 / child_var[k];
                var[k] = 1.0 / total;
                step.own = a / total;
                step.kids = 1.0 / (child_var[k] * total);
            }
            if let Some(p) = parent(node) {
                child_var[p] += var[k];
            }
        }
        for (k, node) in nodes.iter().enumerate() {
            if let Some(p) = parent(node) {
                steps[k].share = var[k] / child_var[p];
            }
        }
        TreePass {
            nodes,
            steps,
            internal: internal as usize,
        }
    }

    /// Scratch values [`Self::estimate`] needs for `lanes` lanes: one row
    /// per internal node for the node values and one for the sums.
    fn scratch_len(&self, lanes: usize) -> usize {
        2 * self.internal * lanes
    }

    /// The upward and downward passes on `lanes` fibers at once, whose
    /// rows start `stride` apart: answer row `r` of the lanes is
    /// `b[r * stride..][..lanes]`, each answer read as `b * w` (`w` is 1
    /// for a right-hand side that is already weighted, and `b * 1.0` is
    /// `b` bit for bit), the leaves' final values go to
    /// `leaf[j * stride..][..lanes]` for leaf `j` (a cell, or a group
    /// behind a partition), and the internal nodes' stay in `scratch`
    /// ([`Self::scratch_len`]). Inlined, so that the one-lane callers
    /// compile to scalar code.
    #[inline(always)]
    fn estimate(
        &self,
        b: &[f64],
        w: f64,
        leaf: &mut [f64],
        stride: usize,
        lanes: usize,
        scratch: &mut [f64],
    ) {
        let (z, sum) = scratch[..self.scratch_len(lanes)].split_at_mut(self.internal * lanes);
        sum.fill(0.0);

        // Upward: children come after their parent in pre-order. A node
        // adds its estimate to its parent's row of `sum`, which lies
        // before its own.
        for (node, step) in self.nodes.iter().zip(&self.steps).rev() {
            let bk = row(b, stride, node.row as usize, lanes);
            let (own, kids) = (step.own, step.kids);
            let (up, zk): (&mut [f64], &[f64]) = match step.slot {
                Slot::Leaf(j) => {
                    let zk = row_mut(leaf, stride, j as usize, lanes);
                    // A leaf has no children: their sum is 0.
                    for (zl, &bl) in zk.iter_mut().zip(bk) {
                        *zl = own * (bl * w) + kids * 0.0;
                    }
                    (&mut *sum, zk)
                }
                Slot::Internal(i) => {
                    let i = i as usize;
                    let (up, rest) = sum.split_at_mut(i * lanes);
                    let zk = row_mut(z, lanes, i, lanes);
                    for ((zl, &bl), &sl) in zk.iter_mut().zip(bk).zip(&rest[..lanes]) {
                        *zl = own * (bl * w) + kids * sl;
                    }
                    (up, zk)
                }
            };
            if let Some(p) = step.parent() {
                add(row_mut(up, lanes, p, lanes), zk);
            }
        }
        // Downward: a parent's final value is set before its children's.
        for step in &self.steps {
            let Some(p) = step.parent() else { continue };
            let sp = row(sum, lanes, p, lanes);
            let (zp, zk) = match step.slot {
                Slot::Leaf(j) => (
                    row(z, lanes, p, lanes),
                    row_mut(leaf, stride, j as usize, lanes),
                ),
                Slot::Internal(i) => {
                    let (up, rest) = z.split_at_mut(i as usize * lanes);
                    (row(up, lanes, p, lanes), &mut rest[..lanes])
                }
            };
            for ((zl, &pl), &sl) in zk.iter_mut().zip(zp).zip(sp) {
                *zl += step.share * (pl - sl);
            }
        }
    }
}

/// Row `r` of a panel whose rows start `stride` apart: its first `lanes`
/// values.
fn row(panel: &[f64], stride: usize, r: usize, lanes: usize) -> &[f64] {
    &panel[r * stride..][..lanes]
}

/// [`row`], mutably.
fn row_mut(panel: &mut [f64], stride: usize, r: usize, lanes: usize) -> &mut [f64] {
    &mut panel[r * stride..][..lanes]
}

/// `dst += src`, element by element.
fn add(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
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
    use ektelo_matrix::CsrMatrix;
    use proptest::prelude::*;

    #[test]
    fn two_level_tree_by_hand() {
        // Root [0,2) with weight 1, leaves with weight 1: the root's own
        // answer 6 and the leaves' sum 3 average to 4.5, split evenly.
        let a = Matrix::range_queries(2, vec![(0, 2), (0, 1), (1, 2)]);
        let b = [6.0, 1.0, 2.0];
        let r = tree_least_squares(&a, &b).unwrap();
        assert_eq!(r.iterations, 0);
        assert!((r.x[0] - 2.0).abs() < 1e-12 && (r.x[1] - 3.0).abs() < 1e-12);
        // Residual of x: (5 − 6)² + (2 − 1)² + (3 − 2)² = 3.
        let residual_sq: f64 = a
            .matvec(&r.x)
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum();
        assert!((residual_sq - 3.0).abs() < 1e-12);
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

    /// The one-fiber pass as it ran before the panels, node by node over
    /// node-indexed buffers, writing `x`.
    fn scalar_pass(pass: &TreePass, b: &[f64], x: &mut [f64]) {
        let nodes = &pass.nodes;
        let m = nodes.len();
        let (mut z, mut sum) = (vec![0.0; m], vec![0.0; m]);
        for (k, node) in nodes.iter().enumerate().rev() {
            let step = &pass.steps[k];
            let zk = step.own * b[node.row as usize] + step.kids * sum[k];
            z[k] = zk;
            if let Some(p) = parent(node) {
                sum[p] += zk;
            }
        }
        for (k, node) in nodes.iter().enumerate() {
            if let Some(p) = parent(node) {
                z[k] += pass.steps[k].share * (z[p] - sum[p]);
            }
        }
        let leaves = (0..m).filter(|&k| {
            nodes
                .get(k + 1)
                .is_none_or(|next| next.parent as usize != k)
        });
        for (xj, leaf) in x.iter_mut().zip(leaves) {
            *xj = z[leaf];
        }
    }

    /// The per-fiber loop the panels replace: gathers each fiber along a
    /// hierarchy mode, runs [`scalar_pass`] on it and scatters the result.
    fn kron_per_fiber(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let modes = kron_modes(a)?;
        let mut solved: Option<Vec<f64>> = None;
        for k in (0..modes.len()).rev() {
            let (m, n, Some(pass)) = &modes[k] else {
                continue;
            };
            let outer: usize = modes[..k].iter().map(|f| f.0).product();
            let inner: usize = modes[k + 1..].iter().map(|f| f.1).product();
            let src = solved.as_deref().unwrap_or(b);
            let mut dst = vec![0.0; outer * n * inner];
            let (mut bf, mut xf) = (vec![0.0; *m], vec![0.0; *n]);
            for (s, d) in src
                .chunks_exact(m * inner)
                .zip(dst.chunks_exact_mut(n * inner))
            {
                for i in 0..inner {
                    for (r, v) in bf.iter_mut().enumerate() {
                        *v = s[r * inner + i];
                    }
                    scalar_pass(pass, &bf, &mut xf);
                    for (j, &v) in xf.iter().enumerate() {
                        d[j * inner + i] = v;
                    }
                }
            }
            solved = Some(dst);
        }
        solved
    }

    /// SplitMix64, for the random systems.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A weight in ±[0.25, 2.25).
        fn weight(&mut self) -> f64 {
            let w = 0.25 + 2.0 * (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            if self.below(4) == 0 {
                -w
            } else {
                w
            }
        }
    }

    /// A random weighted hierarchy over `p` cells: every interval splits
    /// at a random cut, some internal intervals are left out (so some
    /// trees are forests), and each depth gets its own weight.
    fn random_hierarchy(rng: &mut Rng, p: usize) -> Matrix {
        let mut levels: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut stack = vec![(0, p, 0)];
        while let Some((lo, hi, depth)) = stack.pop() {
            if hi - lo == 1 || rng.below(4) != 0 {
                levels.resize(levels.len().max(depth + 1), Vec::new());
                levels[depth].push((lo, hi));
            }
            if hi - lo > 1 {
                let cut = lo + 1 + rng.below(hi - lo - 1);
                stack.extend([(lo, cut, depth + 1), (cut, hi, depth + 1)]);
            }
        }
        let blocks = levels
            .into_iter()
            .filter(|level| !level.is_empty())
            .map(|level| Matrix::scaled(rng.weight(), Matrix::range_queries(p, level)))
            .collect();
        Matrix::vstack(blocks)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random scaled products `c · (I_o ⊗ H₁ [⊗ H₂] ⊗ I_inner)`: the
        /// panel pass returns the per-fiber loop's `x` bit for bit,
        /// across tile boundaries (`inner` of 63, 64, 65 and 280 lanes)
        /// and with one or two hierarchy modes. Answers include exact
        /// zeros and the weights negative ones, so some estimates are −0.
        /// The answers carry an inverse-noise weight `w`: read in place
        /// with it, as a stacked weighted copy, or as two blocks that are
        /// gathered, they give the per-fiber loop's `x` on the weighted
        /// copy.
        #[test]
        fn panel_pass_matches_the_per_fiber_loop(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let inner = [1, 63, 64, 65, 280][rng.below(5)];
            let mut factors = Vec::new();
            if rng.below(2) == 0 {
                factors.push(Matrix::identity(1 + rng.below(3)));
            }
            for _ in 0..1 + rng.below(2) {
                let p = 1 + rng.below(7);
                factors.push(random_hierarchy(&mut rng, p));
            }
            factors.push(Matrix::identity(inner));
            let a = Matrix::scaled(rng.weight(), Matrix::kron_list(factors));
            let b: Vec<f64> = (0..a.rows())
                .map(|_| match rng.below(8) {
                    0 => 0.0,
                    _ => rng.below(2001) as f64 / 16.0 - 60.0,
                })
                .collect();
            let w = match rng.below(3) {
                0 => 1.0,
                _ => 1.0 / (0.5 + rng.below(4001) as f64 / 64.0),
            };
            let weighted: Vec<f64> = b.iter().map(|&v| v * w).collect();
            let x_ref = kron_per_fiber(&a, &weighted).expect("exact pass");
            let (head, tail) = b.split_at(rng.below(b.len() + 1));
            for rhs in [
                WeightedRhs::new(vec![(&b, w)]),
                WeightedRhs::new(vec![(&weighted, 1.0)]),
                WeightedRhs::new(vec![(head, w), (tail, w)]),
            ] {
                let x = kron_least_squares(&a, &rhs).expect("exact pass");
                prop_assert_eq!(bits(&x), bits(&x_ref), "seed {}", seed);
            }
        }
    }

    /// A hierarchy alone is one fiber: the one-lane pass that the column
    /// components run is the per-fiber pass bit for bit.
    #[test]
    fn one_lane_pass_matches_the_scalar_pass() {
        let mut rng = Rng(11);
        for p in [1, 2, 7, 30] {
            let a = random_hierarchy(&mut rng, p);
            let b: Vec<f64> = (0..a.rows())
                .map(|i| ((i * 37) % 23) as f64 - 9.0)
                .collect();
            let r = tree_least_squares(&a, &b).unwrap();
            let pass = kron_modes(&Matrix::kron(a.clone(), Matrix::identity(1)))
                .unwrap()
                .remove(0)
                .2
                .unwrap();
            let mut x = vec![0.0; p];
            scalar_pass(&pass, &b, &mut x);
            assert_eq!(bits(&r.x), bits(&x), "p = {p}");
        }
    }
}
