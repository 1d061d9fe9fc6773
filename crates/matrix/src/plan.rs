//! Cached evaluation plans for the combinator tree.
//!
//! PR 1's engine removed per-call heap allocations but still re-ran the
//! *planning pass* — the `O(tree)` recursion computing scratch sizes, split
//! offsets and shapes — on every `matvec_into` call. An [`EvalPlan`] runs
//! that pass **once** and records everything evaluation needs:
//!
//! * per-node **split offsets** (block row ranges of a `Union`,
//!   intermediate lengths of a `Product` chain),
//! * for a chain of nested `Kronecker` nodes — flattened into **one N-ary
//!   node** whatever its nesting — the factor shapes, how each factor is
//!   applied (skipped identity, panel kernel or per-fiber walk), and per
//!   direction each mode's `outer × n × inner` geometry and its ping-pong
//!   buffer ([`crate::kron`]),
//! * the total **scratch requirement** of all three product directions
//!   (`matvec`, `rmatvec`, `rmatvec_add`), so the arena is reserved in full
//!   up front and never grows mid-evaluation, and
//! * a **ping-pong buffer assignment** for right-nested `Product` chains:
//!   a chain of `k` products needs only `min(k, 2)` intermediate buffers
//!   instead of the `k` the nested recursion carved, shrinking the working
//!   set of lineage-shaped trees (the shape every kernel-transformed
//!   source drags through inference) by up to `k/2`×.
//!
//! Plans are shared through the **process-wide cache** of
//! [`crate::plan_cache`] (one mutex-guarded map), keyed purely by the
//! structural shape fingerprint; `Union` blocks and `Product`-chain
//! factors are fingerprinted and cached **individually**, so a spine that
//! is rebuilt with mostly-unchanged children (an MWEM round stacking one
//! more measurement onto last round's union) reassembles from cached block
//! plans in `O(blocks)` without re-walking any shared subtree. Each
//! [`crate::Workspace`] additionally keeps a single-entry fast path so
//! solver inner loops never touch the shared cache's lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::kron::{self, Apply, ModeFactor, ModesPlan, Slot, Step, Sweep};
use crate::plan_cache;
use crate::Matrix;

/// Number of planning-pass tree walks performed process-wide over
/// *uncached* structure. Spine assembly (`Union`/`Product` nodes rebuilt
/// from cached child plans) is `O(children)` bookkeeping, not a tree walk,
/// and deliberately does not count — which is exactly what lets the MWEM
/// regression tests assert this counter stays flat while rounds keep
/// stacking new spines. Exposed through [`plan_builds`].
static PLAN_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total planning-pass tree walks this process has run (see
/// `PLAN_BUILDS` for what counts as one).
///
/// A solver iterating over a fixed system must not move this counter: the
/// plan is built once — the first time *any* workspace in the process sees
/// the shape — and every later call is a cache hit. Regression tests
/// assert the delta across extra iterations (and across MWEM-style rounds
/// that re-stack cached blocks under fresh spines) is exactly zero.
pub fn plan_builds() -> u64 {
    PLAN_BUILDS.load(Ordering::Relaxed)
}

/// A fully planned evaluation of one matrix: the per-node records plus the
/// arena requirement of every direction.
#[derive(Debug)]
pub(crate) struct EvalPlan {
    /// Per-node plan mirroring the combinator tree.
    pub root: NodePlan,
    /// Cached shape (saves the `O(tree)` `rows()`/`cols()` walks in the
    /// entry-point assertions).
    pub rows: usize,
    /// See `rows`.
    pub cols: usize,
    /// Arena scalars `matvec_into` draws.
    pub mv_scratch: usize,
    /// Arena scalars `rmatvec_into` draws.
    pub rmv_scratch: usize,
    /// Arena scalars `rmatvec_add` draws.
    pub rmva_scratch: usize,
    /// Structural fingerprint of the tree this plan was built for.
    pub fingerprint: u64,
}

impl EvalPlan {
    /// The arena size covering every direction — reserved in full, up
    /// front, by the `*_into` entry points so evaluation never grows the
    /// arena mid-solve.
    pub fn max_scratch(&self) -> usize {
        self.mv_scratch.max(self.rmv_scratch).max(self.rmva_scratch)
    }

    /// Approximate heap bytes owned *directly* by this plan: its struct
    /// plus every inline node record, counting `Arc`-shared sub-plans
    /// (`Union` blocks, `Product`-chain factors) at pointer size only —
    /// the cache holds those as entries of their own, so summing
    /// `direct_bytes` over all cached entries approximates total
    /// resident plan memory without double counting shared subtrees.
    pub(crate) fn direct_bytes(&self) -> usize {
        std::mem::size_of::<EvalPlan>() + self.root.direct_bytes()
    }

    /// The shared cached plan for `m`: a process-wide cache hit, or the
    /// one-time planning pass on the first sighting of the shape. Spine
    /// assembly looks up each `Union` block and `Product`-chain factor
    /// here. (`Workspace::plan_for` goes through
    /// `plan_cache::get_or_build` directly to keep its build counter.)
    fn cached(m: &Matrix) -> Arc<EvalPlan> {
        let (plan, _) = plan_cache::get_or_build(m, fingerprint(m));
        plan
    }

    /// Builds the plan for `m` under fingerprint `fp` (called by the
    /// process-wide cache on a miss; everyone else goes through
    /// [`EvalPlan::cached`]).
    pub(crate) fn build_new(m: &Matrix, fp: u64) -> EvalPlan {
        let (root, info) = match m {
            // Spines assemble from individually cached children — an
            // O(children) reassembly, not a planning-pass walk.
            Matrix::Union(blocks) => plan_union(blocks),
            Matrix::Product(..) => plan_chain(m),
            _ => {
                PLAN_BUILDS.fetch_add(1, Ordering::Relaxed);
                plan_node(m)
            }
        };
        EvalPlan {
            root,
            rows: info.rows,
            cols: info.cols,
            mv_scratch: info.mv,
            rmv_scratch: info.rmv,
            rmva_scratch: info.rmva,
            fingerprint: fp,
        }
    }
}

/// The per-node evaluation record. Variants mirror the combinator arms of
/// [`Matrix`]; every leaf (explicit or implicit core matrix) is
/// [`NodePlan::Leaf`] and evaluates through the unplanned serial kernels.
#[derive(Debug)]
pub(crate) enum NodePlan {
    /// Core/explicit matrices: no tree structure below, `O(1)` planning.
    Leaf,
    /// `Union` with per-block row spans.
    Union(UnionPlan),
    /// A maximal right-nested `Product` chain with ping-pong buffers.
    Chain(ChainPlan),
    /// A chain of nested `Kronecker` nodes, flattened into its factors and
    /// evaluated mode by mode ([`crate::kron`]).
    Kron(ModesPlan),
    /// `Scaled`; `rows` feeds the `rmatvec_add` temporary.
    Scaled {
        /// Rows of the scaled matrix.
        rows: usize,
        /// Plan of the inner matrix.
        child: Box<NodePlan>,
    },
    /// Lazy transpose; directions swap when descending.
    Transpose {
        /// Rows of the *inner* matrix (length of the `rmatvec_add`
        /// temporary).
        child_rows: usize,
        /// Plan of the inner matrix.
        child: Box<NodePlan>,
    },
}

impl NodePlan {
    /// Heap bytes owned by this node record and its *inline* children
    /// (see [`EvalPlan::direct_bytes`] for the sharing convention).
    fn direct_bytes(&self) -> usize {
        let node = std::mem::size_of::<NodePlan>();
        match self {
            NodePlan::Leaf => 0,
            NodePlan::Union(u) => {
                u.block_rows.capacity() * std::mem::size_of::<usize>()
                    + u.blocks.capacity() * std::mem::size_of::<Arc<EvalPlan>>()
            }
            NodePlan::Chain(c) => {
                c.factors.capacity() * std::mem::size_of::<Arc<EvalPlan>>()
                    + c.rows.capacity() * std::mem::size_of::<usize>()
            }
            NodePlan::Kron(k) => {
                let sweeps = [&k.fwd, &k.bwd, &k.bwd_add];
                k.factors.capacity() * std::mem::size_of::<ModeFactor>()
                    + sweeps
                        .iter()
                        .map(|s| s.steps.capacity() * std::mem::size_of::<Step>())
                        .sum::<usize>()
                    + k.factors
                        .iter()
                        .map(|f| match &f.apply {
                            Apply::Fiber { plan, .. } => plan.direct_bytes(),
                            _ => 0,
                        })
                        .sum::<usize>()
            }
            NodePlan::Scaled { child, .. } | NodePlan::Transpose { child, .. } => {
                node + child.direct_bytes()
            }
        }
    }
}

/// Plan records for one `Union` node. Block sub-plans are `Arc`-shared
/// through the process-wide cache, so two spines stacking the same block
/// shapes hold the *same* block plans.
#[derive(Debug)]
pub(crate) struct UnionPlan {
    /// Rows of each block, in order (the split offsets of the stacked
    /// output/input vector).
    pub block_rows: Vec<usize>,
    /// Per-block sub-plans, shared with every other spine that stacks the
    /// same block shape.
    pub blocks: Vec<Arc<EvalPlan>>,
}

/// Plan records for a maximal right-nested `Product` chain
/// `f_0 · f_1 · … · f_m` (`m ≥ 1` products, `m + 1` factors).
#[derive(Debug)]
pub(crate) struct ChainPlan {
    /// Sub-plans of the factors `f_0 ..= f_m`, outermost first —
    /// `Arc`-shared through the process-wide cache like union blocks.
    pub factors: Vec<Arc<EvalPlan>>,
    /// `rows(f_j)` for every factor. Intermediate `s_j` (the running
    /// product applied to the input) has length `rows[j]` in the forward
    /// direction and `rows[j + 1]` in the transpose direction.
    pub rows: Vec<usize>,
    /// Length of one ping-pong buffer: the largest intermediate.
    pub buf_len: usize,
    /// Number of ping-pong buffers carved (`1` for a single product,
    /// else `2` — the liveness argument: evaluating a chain only ever
    /// needs the previous intermediate and the one being written).
    pub bufs: usize,
}

/// Planning facts about one subtree.
#[derive(Clone, Copy, Debug)]
struct Info {
    rows: usize,
    cols: usize,
    /// `matvec` scratch of the *planned* evaluation (≤ the unplanned
    /// recursion's requirement; chains shrink it).
    mv: usize,
    /// `rmatvec` scratch.
    rmv: usize,
    /// `rmatvec_add` scratch.
    rmva: usize,
}

fn plan_node(m: &Matrix) -> (NodePlan, Info) {
    match m {
        Matrix::Dense(..)
        | Matrix::Sparse(..)
        | Matrix::Diagonal(..)
        | Matrix::Identity { .. }
        | Matrix::Ones { .. }
        | Matrix::Prefix { .. }
        | Matrix::Suffix { .. }
        | Matrix::Wavelet { .. }
        | Matrix::Range(..)
        | Matrix::Rect2D(..) => (
            NodePlan::Leaf,
            Info {
                rows: m.rows(),
                cols: m.cols(),
                mv: m.matvec_scratch(),
                rmv: m.rmatvec_scratch(),
                rmva: m.rmatvec_add_scratch(),
            },
        ),
        Matrix::Union(blocks) => plan_union(blocks),
        Matrix::Product(..) => plan_chain(m),
        Matrix::Kronecker(..) => plan_modes(m),
        Matrix::Scaled(_, a) => {
            let (child, ci) = plan_node(a);
            let info = Info {
                rmva: ci.rows + ci.rmva,
                ..ci
            };
            (
                NodePlan::Scaled {
                    rows: ci.rows,
                    child: Box::new(child),
                },
                info,
            )
        }
        Matrix::Transpose(a) => {
            let (child, ci) = plan_node(a);
            let info = Info {
                rows: ci.cols,
                cols: ci.rows,
                mv: ci.rmv,
                rmv: ci.mv,
                rmva: ci.rows + ci.mv,
            };
            (
                NodePlan::Transpose {
                    child_rows: ci.rows,
                    child: Box::new(child),
                },
                info,
            )
        }
    }
}

fn plan_union(blocks: &[Matrix]) -> (NodePlan, Info) {
    let built: Vec<Arc<EvalPlan>> = blocks.iter().map(EvalPlan::cached).collect();
    let rows: usize = built.iter().map(|p| p.rows).sum();
    let cols = built.first().map_or(0, |p| p.cols);
    let block_mv = built.iter().map(|p| p.mv_scratch).max().unwrap_or(0);
    let block_rmva = built.iter().map(|p| p.rmva_scratch).max().unwrap_or(0);
    let info = Info {
        rows,
        cols,
        mv: block_mv,
        rmv: block_rmva,
        rmva: block_rmva,
    };
    (
        NodePlan::Union(UnionPlan {
            block_rows: built.iter().map(|p| p.rows).collect(),
            blocks: built,
        }),
        info,
    )
}

fn plan_chain(m: &Matrix) -> (NodePlan, Info) {
    // Fold the maximal right spine of `Product` nodes into one chain:
    // Product(f0, Product(f1, … Product(f_{m-1}, f_m))) — the shape
    // `Matrix::product` builds for transformation lineages.
    let mut factors: Vec<Arc<EvalPlan>> = Vec::new();
    let mut cur = m;
    while let Matrix::Product(a, b) = cur {
        factors.push(EvalPlan::cached(a));
        cur = b;
    }
    factors.push(EvalPlan::cached(cur));
    debug_assert!(factors.len() >= 2);

    let rows: Vec<usize> = factors.iter().map(|p| p.rows).collect();
    let cols = factors.last().map_or(0, |p| p.cols);
    let nprod = factors.len() - 1;
    let buf_len = rows[1..].iter().copied().max().unwrap_or(0);
    let bufs = nprod.min(2);

    let max_mv = factors.iter().map(|p| p.mv_scratch).max().unwrap_or(0);
    let max_rmv = factors.iter().map(|p| p.rmv_scratch).max().unwrap_or(0);
    // `rmatvec_add` pushes the accumulation into the innermost factor; the
    // outer ones run plain `rmatvec`.
    let max_rmva_path = factors[..nprod]
        .iter()
        .map(|p| p.rmv_scratch)
        .max()
        .unwrap_or(0)
        .max(factors[nprod].rmva_scratch);

    let info = Info {
        rows: rows[0],
        cols,
        mv: bufs * buf_len + max_mv,
        rmv: bufs * buf_len + max_rmv,
        rmva: bufs * buf_len + max_rmva_path,
    };
    (
        NodePlan::Chain(ChainPlan {
            factors,
            rows,
            buf_len,
            bufs,
        }),
        info,
    )
}

/// `a · b` for a Kronecker shape product. `Matrix::kron` rejects shapes
/// whose products overflow, so this only fires on trees built around it.
fn shape_mul(a: usize, b: usize) -> usize {
    // xlint: allow(panic-policy, reason = "Matrix::kron rejects overflowing shapes; a tree built from the raw enum that overflows has no valid shape, and a clear panic beats a wrapped, out-of-bounds one")
    a.checked_mul(b).expect("Kronecker shape overflows usize")
}

/// Plans a chain of nested `Kronecker` nodes as one N-ary node: flattens
/// the factors (whatever the nesting), decides how each is applied, and
/// lays out one sweep per product direction.
fn plan_modes(m: &Matrix) -> (NodePlan, Info) {
    let mut leaves = Vec::new();
    kron::collect_factors(m, &mut leaves);
    let factors: Vec<ModeFactor> = leaves
        .iter()
        .map(|&f| {
            let apply = if matches!(f, Matrix::Identity { .. }) {
                Apply::Skip
            } else if kron::is_panel(f) {
                Apply::Panel {
                    prefix: kron::panel_prefix(f),
                }
            } else {
                let (plan, info) = plan_node(f);
                Apply::Fiber {
                    plan,
                    mv: info.mv,
                    rmv: info.rmv,
                }
            };
            ModeFactor {
                rows: f.rows(),
                cols: f.cols(),
                apply,
            }
        })
        .collect();
    let fwd = plan_sweep(&factors, false, true);
    let bwd = plan_sweep(&factors, true, true);
    let bwd_add = plan_sweep(&factors, true, false);
    let info = Info {
        rows: factors.iter().fold(1, |p, f| shape_mul(p, f.rows)),
        cols: factors.iter().fold(1, |p, f| shape_mul(p, f.cols)),
        mv: fwd.scratch,
        rmv: bwd.scratch,
        rmva: bwd_add.scratch,
    };
    (
        NodePlan::Kron(ModesPlan {
            factors,
            fwd,
            bwd,
            bwd_add,
        }),
        info,
    )
}

/// Lays out one direction of an N-ary Kronecker evaluation: each factor's
/// mode geometry (factors apply last to first, so mode `k` sees input
/// dimensions before it and output dimensions after it) and a ping-pong
/// slot per applied mode. With `to_out` the last mode writes the caller's
/// `out`, and earlier modes use `out` too whenever their result fits and
/// the next mode does not read from it; otherwise the modes alternate
/// between two scratch buffers.
fn plan_sweep(factors: &[ModeFactor], t: bool, to_out: bool) -> Sweep {
    let nf = factors.len();
    let dims: Vec<(usize, usize)> = factors
        .iter()
        .map(|f| {
            if t {
                (f.rows, f.cols)
            } else {
                (f.cols, f.rows)
            }
        })
        .collect();
    let mut outer = vec![1; nf];
    for k in 1..nf {
        outer[k] = shape_mul(outer[k - 1], dims[k - 1].0);
    }
    let mut inner = vec![1; nf];
    for k in (0..nf.saturating_sub(1)).rev() {
        inner[k] = shape_mul(inner[k + 1], dims[k + 1].1);
    }
    let out_total = shape_mul(inner[0], dims[0].1);
    let mut steps: Vec<Step> = (0..nf)
        .map(|k| {
            let (n_in, n_out) = dims[k];
            let (outer, inner) = (outer[k], inner[k]);
            // Every intermediate length must fit in `usize` (evaluation
            // multiplies these unchecked).
            shape_mul(shape_mul(outer, n_in.max(n_out)), inner);
            let extra = match factors[k].apply {
                Apply::Fiber { mv, rmv, .. } => {
                    let gather = if inner > 1 {
                        crate::kernels::KRON_PANEL * (n_in + n_out)
                    } else {
                        0
                    };
                    gather + if t { rmv } else { mv }
                }
                Apply::Panel { prefix } => kron::panel_scratch(prefix, inner),
                Apply::Skip => 0,
            };
            Step {
                outer,
                inner,
                n_in,
                n_out,
                slot: Slot::Out,
                extra,
            }
        })
        .collect();
    // Slots, assigned backwards along the application order (descending
    // factor index): a mode never writes the buffer the next mode reads.
    let applied: Vec<usize> = (0..nf)
        .rev()
        .filter(|&k| !matches!(factors[k].apply, Apply::Skip))
        .collect();
    let (mut a_len, mut b_len, mut extra) = (0, 0, 0);
    let mut next: Option<Slot> = None;
    for (i, &k) in applied.iter().enumerate().rev() {
        let last = i + 1 == applied.len();
        let len = steps[k].out_len();
        let slot = if to_out && (last || (next != Some(Slot::Out) && len <= out_total)) {
            Slot::Out
        } else if next != Some(Slot::A) {
            a_len = a_len.max(len);
            Slot::A
        } else {
            b_len = b_len.max(len);
            Slot::B
        };
        steps[k].slot = slot;
        extra = extra.max(steps[k].extra);
        next = Some(slot);
    }
    Sweep {
        steps,
        a_len,
        b_len,
        scratch: a_len + b_len + extra,
    }
}

// ---------------------------------------------------------------------
// Identity: fingerprints and shallow signatures for the plan cache
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    // FNV-1a over the value's bytes, 8 at a time.
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// A structural *shape* fingerprint of the whole tree: combinator
/// structure plus every dimension the planner reads — and nothing else.
///
/// Soundness argument: an [`EvalPlan`] is a pure function of (a) the tree
/// of combinator discriminants and (b) the dimensions/scratch sizes of
/// each node. Both feed this hash (payload *values* are irrelevant to
/// planning and are deliberately not hashed), so any matrix with the same
/// fingerprint can reuse the same plan — the cache cannot go stale, no
/// matter how matrices are dropped, rebuilt, cloned or moved, which is
/// what makes a *process-wide* cache sound with no invalidation protocol
/// at all. The
/// walk is allocation-free and costs a few ns per node (two orders of
/// magnitude below the planning pass it replaces, see the
/// `replan_every_call` bench entries). A 64-bit collision between
/// resident shapes is negligible (~2⁻⁵⁸ even at thousands of entries).
pub(crate) fn fingerprint(m: &Matrix) -> u64 {
    fn rec(m: &Matrix, mut h: u64) -> u64 {
        h = mix(h, tag(m));
        match m {
            // Explicit payloads hash by their O(1) dimension accessors;
            // Rect2D additionally by its grid-dependent scratch size
            // (two grids can share (queries, domain) but not (rows+1)·
            // (cols+1)).
            Matrix::Dense(d) => mix(mix(h, d.rows() as u64), d.cols() as u64),
            Matrix::Sparse(s) => mix(mix(h, s.rows() as u64), s.cols() as u64),
            Matrix::Diagonal(d) => mix(h, d.len() as u64),
            Matrix::Range(r) => mix(mix(h, r.num_queries() as u64), r.domain() as u64),
            Matrix::Rect2D(r) => mix(
                mix(mix(h, r.num_queries() as u64), r.domain() as u64),
                r.scratch_len() as u64,
            ),
            Matrix::Identity { n }
            | Matrix::Prefix { n }
            | Matrix::Suffix { n }
            | Matrix::Wavelet { n } => mix(h, *n as u64),
            Matrix::Ones { rows, cols } => mix(mix(h, *rows as u64), *cols as u64),
            Matrix::Union(blocks) => {
                h = mix(h, blocks.len() as u64);
                for b in blocks.iter() {
                    h = rec(b, h);
                }
                h
            }
            Matrix::Product(a, b) | Matrix::Kronecker(a, b) => rec(b, rec(a, h)),
            // The scale factor does not affect planning, so equal shapes
            // share one plan across different scalings.
            Matrix::Scaled(_, a) => rec(a, h),
            Matrix::Transpose(a) => rec(a, h),
        }
    }
    rec(m, FNV_OFFSET)
}

fn tag(m: &Matrix) -> u64 {
    match m {
        Matrix::Dense(..) => 1,
        Matrix::Sparse(..) => 2,
        Matrix::Diagonal(..) => 3,
        Matrix::Identity { .. } => 4,
        Matrix::Ones { .. } => 5,
        Matrix::Prefix { .. } => 6,
        Matrix::Suffix { .. } => 7,
        Matrix::Wavelet { .. } => 8,
        Matrix::Range(..) => 9,
        Matrix::Rect2D(..) => 10,
        Matrix::Union(..) => 11,
        Matrix::Product(..) => 12,
        Matrix::Kronecker(..) => 13,
        Matrix::Scaled(..) => 14,
        Matrix::Transpose(..) => 15,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Dimensions in these tests are unique to this file: the plan cache
    // is process-wide and the test harness runs files' tests concurrently,
    // so shared shapes would make counter assertions racy.

    #[test]
    fn chain_folds_right_spine_and_halves_scratch() {
        // 4 products over n=72: nested recursion would need 4 intermediate
        // buffers; the chain plan ping-pongs two.
        let n = 72;
        let mut m = Matrix::prefix(n);
        for _ in 0..4 {
            m = Matrix::Product(Arc::new(Matrix::suffix(n)), Arc::new(m));
        }
        let plan = EvalPlan::cached(&m);
        match &plan.root {
            NodePlan::Chain(c) => {
                assert_eq!(c.factors.len(), 5);
                assert_eq!(c.buf_len, n);
                assert_eq!(c.bufs, 2);
            }
            other => panic!("expected chain plan, got {other:?}"),
        }
        assert_eq!(plan.mv_scratch, 2 * n);
        assert!(
            plan.mv_scratch < m.matvec_scratch(),
            "plan should beat the nested recursion"
        );
    }

    #[test]
    fn single_product_matches_unplanned_requirement() {
        let m = Matrix::product(Matrix::prefix(56), Matrix::wavelet(56));
        let plan = EvalPlan::cached(&m);
        assert_eq!(plan.mv_scratch, m.matvec_scratch());
        assert_eq!(plan.rmv_scratch, m.rmatvec_scratch());
    }

    #[test]
    fn union_plan_records_split_offsets() {
        let m = Matrix::vstack(vec![
            Matrix::prefix(24),
            Matrix::total(24),
            Matrix::identity(24),
        ]);
        let plan = EvalPlan::cached(&m);
        match &plan.root {
            NodePlan::Union(u) => assert_eq!(u.block_rows, vec![24, 1, 24]),
            other => panic!("expected union plan, got {other:?}"),
        }
        assert_eq!(plan.rows, 49);
        assert_eq!(plan.cols, 24);
    }

    #[test]
    fn union_spines_share_block_plans() {
        // Two different spines over the same block shapes must hold the
        // very same Arc'd block plans — the per-child sharing that makes
        // MWEM-style round loops cheap.
        let a = Matrix::vstack(vec![Matrix::prefix(368), Matrix::wavelet(368)]);
        let b = Matrix::vstack(vec![
            Matrix::prefix(368),
            Matrix::wavelet(368),
            Matrix::prefix(368),
        ]);
        let pa = EvalPlan::cached(&a);
        let pb = EvalPlan::cached(&b);
        let (NodePlan::Union(ua), NodePlan::Union(ub)) = (&pa.root, &pb.root) else {
            panic!("expected union plans");
        };
        assert!(Arc::ptr_eq(&ua.blocks[0], &ub.blocks[0]));
        assert!(Arc::ptr_eq(&ua.blocks[1], &ub.blocks[1]));
        assert!(Arc::ptr_eq(&ub.blocks[0], &ub.blocks[2]));
    }

    #[test]
    fn fingerprint_stable_across_clones_and_distinct_across_shapes() {
        let a = Matrix::vstack(vec![Matrix::prefix(8), Matrix::wavelet(8)]);
        let b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = Matrix::vstack(vec![Matrix::prefix(8), Matrix::identity(8)]);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(
            fingerprint(&Matrix::prefix(8)),
            fingerprint(&Matrix::suffix(8))
        );
    }

    #[test]
    fn build_counter_advances_once_then_never() {
        let m = Matrix::kron(Matrix::prefix(41), Matrix::total(43));
        let before = plan_builds();
        let _ = EvalPlan::cached(&m);
        let after_first = plan_builds();
        assert!(after_first > before, "fresh shape must run a planning pass");
        let _ = EvalPlan::cached(&m);
        // Possible concurrent tests build their own (unique) shapes, so
        // only this shape's contribution is pinned: re-lookup adds none.
        let _ = EvalPlan::cached(&m.clone());
        assert!(plan_builds() >= after_first);
    }

    fn tot_id(n: usize) -> Matrix {
        Matrix::vstack(vec![Matrix::total(n), Matrix::identity(n)])
    }

    /// The census `Prefix(Income)` workload (`Prefix(357) ⊗ [T;I](5) ⊗
    /// [T;I](7) ⊗ [T;I](4) ⊗ [T;I](2)`, 257,040 × 99,960).
    fn census() -> Matrix {
        Matrix::kron_list(vec![
            Matrix::prefix(357),
            tot_id(5),
            tot_id(7),
            tot_id(4),
            tot_id(2),
        ])
    }

    #[test]
    fn nested_krons_flatten_into_one_node_whatever_the_nesting() {
        let (a, b, c) = (Matrix::prefix(29), tot_id(3), Matrix::wavelet(5));
        let right = Matrix::kron(a.clone(), Matrix::kron(b.clone(), c.clone()));
        let left = Matrix::kron(Matrix::kron(a, b), c);
        for m in [&right, &left] {
            let plan = EvalPlan::cached(m);
            let NodePlan::Kron(kp) = &plan.root else {
                panic!("expected one Kronecker node");
            };
            let shapes: Vec<(usize, usize)> = kp.factors.iter().map(|f| (f.rows, f.cols)).collect();
            assert_eq!(shapes, vec![(29, 29), (4, 3), (5, 5)]);
            assert!(matches!(kp.factors[0].apply, Apply::Panel { .. }));
            assert!(matches!(kp.factors[1].apply, Apply::Panel { .. }));
            assert!(matches!(kp.factors[2].apply, Apply::Fiber { .. }));
        }
    }

    #[test]
    fn census_scratch_fits_the_binary_plans_footprint() {
        let m = census();
        let plan = EvalPlan::cached(&m);
        // `out` is the forward ping-pong partner: one 257,040 buffer (the
        // binary recursion carved 257,766).
        assert_eq!(plan.mv_scratch, 257_040);
        // Transpose intermediates of 171,360 and 137,088 scalars; the
        // accumulating direction reuses them for its final temporary.
        assert_eq!(plan.rmv_scratch, 171_360 + 137_088);
        assert_eq!(plan.rmva_scratch, plan.rmv_scratch);
        assert!(crate::Workspace::for_matrix(&m).capacity() <= 320_000);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn planner_rejects_overflowing_raw_kron() {
        // Built from the raw enum, bypassing `Matrix::kron`'s check.
        let m = Matrix::Kronecker(
            Arc::new(Matrix::identity(1 << 33)),
            Arc::new(Matrix::prefix(1 << 33)),
        );
        let _ = EvalPlan::cached(&m);
    }
}
