//! Scratch-space planning for allocation-free matrix evaluation.
//!
//! Every combinator in the [`Matrix`] algebra needs transient storage to
//! evaluate a product: `Product` stores the intermediate vector, `Kronecker`
//! stores the reshaped partial products, `Range`/`Rect2D` need a prefix-sum
//! or difference array, and the accumulating transpose product needs
//! per-node temporaries. The original engine allocated these with `Vec` at
//! every tree node on every call — thousands of allocator round-trips per
//! solver iteration. Instead, a [`Workspace`] owns one flat `f64` arena
//! sized by a one-time *planning pass* over the combinator tree
//! ([`Matrix::matvec_scratch`] / [`Matrix::rmatvec_scratch`]); evaluation
//! then carves disjoint sub-slices off that arena with `split_at_mut` as it
//! recurses, so the steady state performs **zero heap allocations**.
//! An arena only grows; code that wants to bound idle memory drops the
//! whole workspace (the protected kernel keeps one idle workspace and
//! drops any arena over 32 MiB).
//!
//! ```
//! use ektelo_matrix::{Matrix, Workspace};
//!
//! let m = Matrix::product(Matrix::prefix(4), Matrix::wavelet(4));
//! let mut ws = Workspace::for_matrix(&m); // one-time planning + allocation
//! let x = [1.0, 2.0, 3.0, 4.0];
//! let mut out = [0.0; 4];
//! for _ in 0..1000 {
//!     m.matvec_into(&x, &mut out, &mut ws); // no allocation in this loop
//! }
//! assert_eq!(out[0], 10.0);
//! ```

use std::sync::Arc;

use crate::plan::{fingerprint, EvalPlan};
use crate::{plan_cache, Matrix};

/// A reusable scratch arena and evaluation-plan fast path for
/// [`Matrix::matvec_into`], [`Matrix::rmatvec_into`] and
/// [`Matrix::rmatvec_add`].
///
/// A `Workspace` may be shared freely across different matrices and all
/// product directions: the arena grows monotonically to the largest
/// requirement it has seen and never shrinks. Evaluation plans live in the
/// **process-wide** plan cache (the private `plan_cache` module), shared by every
/// workspace and every thread; the workspace keeps a single-entry
/// fingerprint→plan fast path so solver inner loops — which hammer one
/// shape — never touch the shared cache's lock. Constructing one with
/// [`Workspace::for_matrix`] performs the planning lookup and the arena
/// allocation up front, which is what iterative solvers do once per
/// solve.
///
/// # Plan invalidation rules
///
/// There are none to worry about: cached plans are keyed by a structural
/// *shape* fingerprint (combinator structure plus every dimension the
/// planner reads — see `plan::fingerprint`), and a plan is a pure
/// function of exactly that shape, so a cache entry is valid for *any*
/// matrix with the same fingerprint — dropping, rebuilding, cloning or
/// moving matrices can never resurrect a stale plan, in this workspace or
/// any other. Each lookup costs one allocation-free hash walk over the
/// tree (a few ns per node); the expensive planning pass runs only on a
/// shape the *process* has not seen, which is what the `plan_builds`
/// counters prove in the counting-allocator suites.
/// [`Workspace::invalidate_plans`] drops the fast path only; pair it with
/// [`crate::plan_cache_clear`] to force re-planning in benchmarks.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    buf: Vec<f64>,
    /// Single-entry lock-free fast path into the process-wide plan cache.
    fast: Option<(u64, Arc<EvalPlan>)>,
    hits: u64,
    builds: u64,
}

impl Workspace {
    /// An empty workspace; it will size itself lazily on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace pre-planned and pre-sized for every product direction of
    /// `m` (`m·x`, `mᵀ·y` and the accumulating scatter) — the one-time
    /// setup of iterative solvers.
    pub fn for_matrix(m: &Matrix) -> Self {
        let mut ws = Workspace::new();
        let plan = ws.plan_for(m);
        ws.reserve(plan.max_scratch());
        ws
    }

    /// Grows the arena to at least `len` scalars.
    pub fn reserve(&mut self, len: usize) {
        if self.buf.len() < len {
            // xlint: allow(warm-path-alloc, reason = "monotonic arena growth: first use grows to the plan-recorded requirement, steady state takes the no-grow branch — gated by the counting-allocator suite")
            self.buf.resize(len, 0.0);
        }
    }

    /// Current arena size in scalars.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Total scalars of heap storage this workspace currently pins (the
    /// arena's capacity). The figure the kernel's idle-workspace bound
    /// applies to.
    pub fn resident_scalars(&self) -> usize {
        self.buf.capacity()
    }

    /// The evaluation plan for `m`: the workspace's single-entry fast path
    /// when the shape matches the previous call (lock-free — the solver
    /// inner-loop case), otherwise the process-wide shared cache. Only a
    /// shape the whole process has never seen triggers the planning pass.
    pub(crate) fn plan_for(&mut self, m: &Matrix) -> Arc<EvalPlan> {
        let fp = fingerprint(m);
        if let Some((cached_fp, plan)) = &self.fast {
            if *cached_fp == fp {
                self.hits += 1;
                return Arc::clone(plan);
            }
        }
        let (plan, built) = plan_cache::get_or_build(m, fp);
        debug_assert_eq!(plan.fingerprint, fp);
        if built {
            self.builds += 1;
        } else {
            self.hits += 1;
        }
        self.fast = Some((fp, Arc::clone(&plan)));
        plan
    }

    /// Drops the workspace's plan fast path (the arena is kept).
    /// Never needed for correctness — see the type-level docs; the
    /// process-wide cache still serves the shape, so pair with
    /// [`crate::plan_cache_clear`] to genuinely force re-planning in
    /// benchmarks.
    pub fn invalidate_plans(&mut self) {
        self.fast = None;
    }

    /// Number of plan lookups this workspace served without running a
    /// planning pass (fast-path and shared-cache hits).
    pub fn plan_cache_hits(&self) -> u64 {
        self.hits
    }

    /// Number of plan lookups by this workspace that had to run the
    /// planning pass (the shape was new to the whole process).
    pub fn plan_cache_builds(&self) -> u64 {
        self.builds
    }

    /// The first `len` scalars of the arena. The `*_into` entry points
    /// reserve the direction's full requirement before evaluation starts,
    /// so this never grows anything mid-evaluation.
    pub(crate) fn carve(&mut self, len: usize) -> &mut [f64] {
        debug_assert!(
            len <= self.buf.len(),
            "workspace arena under-reserved: {len} > {}",
            self.buf.len()
        );
        self.reserve(len); // release-mode safety net; no-op when planned
        &mut self.buf[..len]
    }
}

impl Matrix {
    /// Scalars of scratch space the *unplanned serial recursion* needs for
    /// `A·x` — `O(tree size)` to compute. The planned engine (the private
    /// `plan` module) sizes its own buffers: less on product chains, and
    /// Kronecker chains ping-pong between the output and at most two
    /// buffers. These functions remain the sizing authority for leaf nodes
    /// and for sub-evaluations that run without a plan.
    pub fn matvec_scratch(&self) -> usize {
        match self {
            Matrix::Dense(..)
            | Matrix::Sparse(..)
            | Matrix::Diagonal(..)
            | Matrix::Identity { .. }
            | Matrix::Ones { .. }
            | Matrix::Prefix { .. }
            | Matrix::Suffix { .. }
            | Matrix::Wavelet { .. } => 0,
            Matrix::Range(r) => r.scratch_len(),
            Matrix::Rect2D(r) => r.scratch_len(),
            Matrix::Union(blocks) => blocks.iter().map(Matrix::matvec_scratch).max().unwrap_or(0),
            // t = B·x (len = B.rows), then A applied to t.
            Matrix::Product(a, b) => b.rows() + a.matvec_scratch().max(b.matvec_scratch()),
            // t: na×mb partials, then per-output-column gather/apply
            // buffers col (na) and ocol (ma) while A runs.
            Matrix::Kronecker(a, b) => {
                let (ma, na) = a.shape();
                let mb = b.rows();
                na * mb + b.matvec_scratch().max(na + ma + a.matvec_scratch())
            }
            Matrix::Scaled(_, a) => a.matvec_scratch(),
            Matrix::Transpose(a) => a.rmatvec_scratch(),
        }
    }

    /// Scalars of scratch space [`Matrix::rmatvec_into`] needs.
    pub fn rmatvec_scratch(&self) -> usize {
        match self {
            Matrix::Dense(..)
            | Matrix::Sparse(..)
            | Matrix::Diagonal(..)
            | Matrix::Identity { .. }
            | Matrix::Ones { .. }
            | Matrix::Prefix { .. }
            | Matrix::Suffix { .. }
            | Matrix::Wavelet { .. } => 0,
            Matrix::Range(r) => r.scratch_len(),
            Matrix::Rect2D(r) => r.scratch_len(),
            // Unionᵀ scatter-adds per block.
            Matrix::Union(blocks) => blocks
                .iter()
                .map(Matrix::rmatvec_add_scratch)
                .max()
                .unwrap_or(0),
            // t = Aᵀ·y (len = A.cols = B.rows), then Bᵀ applied to t.
            Matrix::Product(a, b) => b.rows() + a.rmatvec_scratch().max(b.rmatvec_scratch()),
            // Mirror of the matvec case with shapes transposed.
            Matrix::Kronecker(a, b) => {
                let (ma, na) = a.shape();
                let nb = b.cols();
                ma * nb + b.rmatvec_scratch().max(ma + na + a.rmatvec_scratch())
            }
            Matrix::Scaled(_, a) => a.rmatvec_scratch(),
            Matrix::Transpose(a) => a.matvec_scratch(),
        }
    }

    /// Scalars of scratch space [`Matrix::rmatvec_add`] needs.
    pub(crate) fn rmatvec_add_scratch(&self) -> usize {
        match self {
            Matrix::Sparse(..) | Matrix::Identity { .. } | Matrix::Diagonal(..) => 0,
            Matrix::Product(a, b) => b.rows() + a.rmatvec_scratch().max(b.rmatvec_add_scratch()),
            Matrix::Scaled(_, a) => self.rows() + a.rmatvec_add_scratch(),
            Matrix::Union(blocks) => blocks
                .iter()
                .map(Matrix::rmatvec_add_scratch)
                .max()
                .unwrap_or(0),
            Matrix::Transpose(a) => a.rows() + a.matvec_scratch(),
            // Remaining shapes compute into a dense temporary of the full
            // output width, then accumulate.
            _ => self.cols() + self.rmatvec_scratch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Dimensions in these tests are unique to this file (and distinct per
    // test): the plan cache is process-wide and the harness runs tests
    // concurrently, so reusing a shape another test builds would turn this
    // workspace's "build" into a "hit" and flake the counter assertions.

    #[test]
    fn leaves_need_no_scratch() {
        assert_eq!(Matrix::identity(64).matvec_scratch(), 0);
        assert_eq!(Matrix::prefix(64).rmatvec_scratch(), 0);
        assert_eq!(Matrix::wavelet(64).matvec_scratch(), 0);
    }

    #[test]
    fn product_needs_intermediate() {
        let m = Matrix::product(Matrix::prefix(8), Matrix::wavelet(8));
        assert_eq!(m.matvec_scratch(), 8);
        assert_eq!(m.rmatvec_scratch(), 8);
    }

    #[test]
    fn nested_products_take_max_of_children() {
        // A·(B·C): outer needs rows(B·C)=8 plus inner's 8.
        let inner = Matrix::product(Matrix::prefix(8), Matrix::wavelet(8));
        let m = Matrix::product(Matrix::suffix(8), inner);
        assert_eq!(m.matvec_scratch(), 16);
    }

    #[test]
    fn union_takes_max_not_sum() {
        let m = Matrix::vstack(vec![
            Matrix::product(Matrix::prefix(8), Matrix::wavelet(8)),
            Matrix::product(Matrix::suffix(8), Matrix::wavelet(8)),
            Matrix::identity(8),
        ]);
        assert_eq!(m.matvec_scratch(), 8);
    }

    #[test]
    fn workspace_grows_monotonically() {
        let mut ws = Workspace::new();
        assert_eq!(ws.capacity(), 0);
        ws.reserve(10);
        ws.reserve(4);
        assert_eq!(ws.capacity(), 10);
    }

    #[test]
    fn for_matrix_covers_both_directions() {
        let m = Matrix::kron(Matrix::prefix(4), Matrix::ones(2, 8));
        let ws = Workspace::for_matrix(&m);
        assert!(ws.capacity() >= m.matvec_scratch());
        assert!(ws.capacity() >= m.rmatvec_scratch());
    }

    #[test]
    fn plan_cache_hits_on_shape_and_shares_across_clones() {
        let m = Matrix::vstack(vec![Matrix::prefix(184), Matrix::wavelet(184)]);
        let mut ws = Workspace::new();
        let p1 = ws.plan_for(&m);
        assert_eq!(ws.plan_cache_builds(), 1);
        let p2 = ws.plan_for(&m);
        assert_eq!(ws.plan_cache_builds(), 1, "second lookup must not rebuild");
        assert_eq!(ws.plan_cache_hits(), 1);
        assert!(Arc::ptr_eq(&p1, &p2));
        // A clone (and any structurally identical rebuild) shares the
        // shape fingerprint and therefore the plan.
        let m2 = m.clone();
        let p3 = ws.plan_for(&m2);
        assert_eq!(ws.plan_cache_builds(), 1);
        assert!(Arc::ptr_eq(&p1, &p3));
    }

    /// Two workspaces — and two OS threads with their own workspaces —
    /// evaluating the same shape must observe one `EvalPlan` build and
    /// pointer-identical plans.
    #[test]
    fn plans_shared_across_workspaces_and_threads() {
        let m = Matrix::vstack(vec![
            Matrix::product(Matrix::prefix(232), Matrix::wavelet(232)),
            Matrix::identity(232),
        ]);
        let mut w1 = Workspace::new();
        let mut w2 = Workspace::new();
        let p1 = w1.plan_for(&m);
        let p2 = w2.plan_for(&m);
        assert!(Arc::ptr_eq(&p1, &p2), "workspaces must share one plan");
        assert_eq!(
            w1.plan_cache_builds() + w2.plan_cache_builds(),
            1,
            "exactly one of the two lookups runs the planning pass"
        );
        let mut thread_plans: Vec<Option<Arc<EvalPlan>>> = vec![None; 2];
        // xlint: allow(determinism-thread, reason = "test: the plan cache must be shared across real OS threads, so the lookups run on two of them")
        std::thread::scope(|s| {
            for slot in thread_plans.iter_mut() {
                let m = m.clone();
                s.spawn(move || {
                    let mut ws = Workspace::new();
                    let plan = ws.plan_for(&m);
                    // The thread actually evaluates through the shared
                    // plan, not just fetches it.
                    let x: Vec<f64> = (0..m.cols()).map(|i| i as f64).collect();
                    let mut out = vec![0.0; m.rows()];
                    m.matvec_into(&x, &mut out, &mut ws);
                    // Identity block starts at row 232: row 233 = x[1].
                    assert_eq!(out[233], 1.0);
                    *slot = Some(plan);
                });
            }
        });
        for p in &thread_plans {
            assert!(
                Arc::ptr_eq(p.as_ref().expect("thread ran"), &p1),
                "other threads must observe the same shared plan"
            );
        }
    }

    /// Regression (code review of ISSUE 2): reordered union blocks are a
    /// different shape and must never share a plan, even when the old
    /// matrix is dropped and the allocator hands its memory (root value,
    /// blocks `Vec`, child boxes) to the new one — the scenario that
    /// broke the address-keyed cache design. Shape-keyed plans are immune
    /// by construction; this pins the behavior.
    #[test]
    fn reordered_union_blocks_never_share_a_plan() {
        let mut ws = Workspace::new();
        let x: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        for round in 0..3 {
            // Rebuild both shapes each round so drops/reallocations of
            // structurally different trees interleave on one workspace.
            let a = Matrix::vstack(vec![Matrix::prefix(8), Matrix::total(8)]);
            let mut out_a = vec![0.0; a.rows()];
            a.matvec_into(&x, &mut out_a, &mut ws);
            assert_eq!(out_a[8], 36.0, "total row of [prefix; total]");
            assert_eq!(out_a[0], 1.0, "first prefix row (round {round})");
            drop(a);
            let b = Matrix::vstack(vec![Matrix::total(8), Matrix::prefix(8)]);
            let mut out_b = vec![0.0; b.rows()];
            b.matvec_into(&x, &mut out_b, &mut ws);
            assert_eq!(out_b[0], 36.0, "total row of [total; prefix]");
            assert_eq!(out_b[1], 1.0, "first prefix row (round {round})");
        }
    }

    /// The PR-2 pathology this PR removes: more shapes than the old cap-8
    /// per-workspace LRU could hold, round-robined through one workspace,
    /// used to rebuild plans on *every* call. With the process-wide cache
    /// every shape stays resident, and invalidating the workspace fast
    /// path does not lose residency either.
    #[test]
    fn many_shapes_round_robin_without_eviction() {
        let mut ws = Workspace::new();
        let shapes: Vec<Matrix> = (0..12).map(|i| Matrix::prefix(1000 + i * 4)).collect();
        for m in &shapes {
            let _ = ws.plan_for(m);
        }
        assert_eq!(ws.plan_cache_builds(), 12);
        // Three more full rotations: every lookup is a hit.
        for _ in 0..3 {
            for m in &shapes {
                let _ = ws.plan_for(m);
            }
        }
        assert_eq!(
            ws.plan_cache_builds(),
            12,
            "round-robined shapes must stay resident (no cap-8 eviction)"
        );
        // Fast-path invalidation only forgets the workspace's last shape;
        // the process-wide cache still serves everything without a build.
        ws.invalidate_plans();
        for m in &shapes {
            let _ = ws.plan_for(m);
        }
        assert_eq!(ws.plan_cache_builds(), 12);
    }

    #[test]
    fn distinct_matrices_get_distinct_plans() {
        let a = Matrix::product(Matrix::prefix(296), Matrix::wavelet(296));
        let b = Matrix::product(Matrix::suffix(296), Matrix::wavelet(296));
        let mut ws = Workspace::new();
        let pa = ws.plan_for(&a);
        let pb = ws.plan_for(&b);
        assert!(!Arc::ptr_eq(&pa, &pb));
        assert_eq!(ws.plan_cache_builds(), 2);
        // Both stay resident: re-lookups are hits (one through the global
        // cache, one through the restored fast path).
        let _ = ws.plan_for(&a);
        let _ = ws.plan_for(&b);
        assert_eq!(ws.plan_cache_builds(), 2);
        assert_eq!(ws.plan_cache_hits(), 2);
    }
}
