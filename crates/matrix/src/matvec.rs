//! Matrix–vector products (`A·x`) and transpose products (`Aᵀ·y`) — the two
//! primitive methods everything else in EKTELO reduces to (paper §7.3).
//!
//! The engine is allocation-free **and** planning-free in steady state: the
//! public `*_into` entry points fetch a shared [`crate::plan::EvalPlan`]
//! (workspace fast path → process-wide plan cache), reserve the
//! direction's full scratch requirement up front, and then recurse over the
//! combinator tree guided by the plan's per-node records — no
//! `rows()`/scratch recomputation, no arena growth, no allocator traffic.
//! Right-nested `Product` chains (transformation lineages) evaluate through
//! two ping-pong buffers instead of one intermediate per product, shrinking
//! the hot working set, and chains of nested `Kronecker` nodes evaluate as
//! one N-ary node, mode by mode ([`crate::kron`]). [`Matrix::matvec`] /
//! [`Matrix::rmatvec`] remain as thin allocating wrappers with unchanged
//! semantics.
//!
//! Plan-time chunk decisions drive multi-threaded evaluation in **both**
//! directions: `Union` blocks in the forward direction and `Union`
//! scatter-adds in the transpose direction (per-worker accumulators
//! merged in fixed chunk order at the barrier), plus each Kronecker mode,
//! split over its outer blocks or inner column ranges in either
//! direction. Chunk counts
//! are fixed when the plan is built, so threaded results are deterministic
//! run-to-run. Chunks execute on the persistent [`crate::pool`] executor
//! (parked workers, preallocated job slots; the offline build environment
//! has no rayon) and borrow their scratch — and, in the scatter
//! direction, their private accumulators — from the workspace's per-worker
//! [`crate::workspace::ArenaPool`] (sized at plan time), so the warm
//! threaded paths perform zero allocations *and* zero thread creation.

use crate::kernels;
use crate::kron::{kron_apply, Dir};
use crate::plan::{ChainPlan, NodePlan};
use crate::wavelet::{wavelet_matvec, wavelet_rmatvec};
use crate::workspace::ArenaPool;
use crate::{Matrix, Workspace};

impl Matrix {
    /// `A · x` as a fresh vector (allocating convenience wrapper). Each
    /// call plans from scratch and discards the plan; loops should hold a
    /// [`Workspace`] and call [`Matrix::matvec_into`] instead.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows()];
        self.matvec_into(x, &mut out, &mut Workspace::new());
        out
    }

    /// `Aᵀ · y` as a fresh vector (allocating convenience wrapper). Same
    /// per-call planning cost as [`Matrix::matvec`]; loops should reuse a
    /// [`Workspace`] via [`Matrix::rmatvec_into`].
    pub fn rmatvec(&self, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols()];
        self.rmatvec_into(y, &mut out, &mut Workspace::new());
        out
    }

    /// `out = A · x`, drawing all transient storage from `ws`.
    ///
    /// The first call plans the evaluation and reserves the arena (and the
    /// threaded worker pool) for every product direction at once; repeated
    /// calls are pure computation — zero heap allocations *and* zero
    /// planning-pass tree walks.
    ///
    /// WARM: steady-state evaluation entry point — the transitive call
    /// closure past the planning/reservation boundary must not allocate
    /// (xlint `warm-path-alloc`, backed by the counting-allocator suite).
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        // xlint: allow(warm-path-alloc, reason = "planning boundary: plan_for allocates only on the first call per matrix; repeat calls take the memoized fast path — the steady state the counting-allocator suite gates")
        let plan = ws.plan_for(self);
        assert_eq!(x.len(), plan.cols, "matvec: x has wrong length");
        assert_eq!(out.len(), plan.rows, "matvec: out has wrong length");
        // The direction's full requirement, reserved before evaluation
        // starts — the arena never grows mid-evaluation. (Only this
        // direction: a matvec-only workload must not pay for the O(cols)
        // scatter temporary; `Workspace::for_matrix` pre-sizes all three
        // directions for solvers that alternate.)
        // xlint: allow(warm-path-alloc, reason = "arena reservation boundary: grows the workspace arena only up to the planned requirement on first use; steady-state calls are a bounds check")
        ws.reserve(plan.mv_scratch);
        let (scratch, pool) = ws.carve(plan.mv_scratch, plan.pool_workers, plan.pool_arena);
        self.matvec_plan(&plan.root, x, out, scratch, pool);
    }

    /// `out = Aᵀ · y`, drawing all transient storage from `ws`.
    ///
    /// WARM: steady-state evaluation entry point (see
    /// [`Matrix::matvec_into`]).
    pub fn rmatvec_into(&self, y: &[f64], out: &mut [f64], ws: &mut Workspace) {
        // xlint: allow(warm-path-alloc, reason = "planning boundary: plan_for allocates only on the first call per matrix; repeat calls take the memoized fast path — the steady state the counting-allocator suite gates")
        let plan = ws.plan_for(self);
        assert_eq!(y.len(), plan.rows, "rmatvec: y has wrong length");
        assert_eq!(out.len(), plan.cols, "rmatvec: out has wrong length");
        // xlint: allow(warm-path-alloc, reason = "arena reservation boundary: grows the workspace arena only up to the planned requirement on first use; steady-state calls are a bounds check")
        ws.reserve(plan.rmv_scratch);
        let (scratch, pool) = ws.carve(plan.rmv_scratch, plan.pool_workers, plan.pool_arena);
        self.rmatvec_plan(&plan.root, y, out, scratch, pool);
    }

    /// `out += Aᵀ · y` — the accumulating variant of
    /// [`Matrix::rmatvec_into`]. Sparse-structure-aware: a CSR block
    /// scatter-adds its `nnz` entries, and products push the accumulation
    /// into their right factor, so a `Union` of narrow blocks costs the sum
    /// of block sizes rather than `O(blocks · n)`.
    ///
    /// WARM: steady-state evaluation entry point (see
    /// [`Matrix::matvec_into`]).
    pub fn rmatvec_add(&self, y: &[f64], out: &mut [f64], ws: &mut Workspace) {
        // xlint: allow(warm-path-alloc, reason = "planning boundary: plan_for allocates only on the first call per matrix; repeat calls take the memoized fast path — the steady state the counting-allocator suite gates")
        let plan = ws.plan_for(self);
        assert_eq!(y.len(), plan.rows, "rmatvec_add: y has wrong length");
        assert_eq!(out.len(), plan.cols, "rmatvec_add: out has wrong length");
        // xlint: allow(warm-path-alloc, reason = "arena reservation boundary: grows the workspace arena only up to the planned requirement on first use; steady-state calls are a bounds check")
        ws.reserve(plan.rmva_scratch);
        let (scratch, pool) = ws.carve(plan.rmva_scratch, plan.pool_workers, plan.pool_arena);
        self.rmatvec_add_plan(&plan.root, y, out, scratch, pool);
    }

    // ------------------------------------------------------------------
    // Planned evaluation: recursion guided by NodePlan records
    // ------------------------------------------------------------------

    /// Planned worker for `out = A·x`. `scratch` must hold the plan's
    /// `mv_scratch` scalars; combinator nodes read split offsets and chunk
    /// decisions from `plan` instead of re-deriving them from the tree,
    /// and parallel regions borrow worker arenas from `pool`.
    pub(crate) fn matvec_plan(
        &self,
        plan: &NodePlan,
        x: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
        pool: &mut ArenaPool,
    ) {
        match (self, plan) {
            (m, NodePlan::Leaf) => m.matvec_rec(x, out, scratch),
            (Matrix::Union(blocks), NodePlan::Union(up)) => {
                if up.par_fwd_chunk > 0 && !pool.is_nested() {
                    parallel::union_matvec(blocks, up, x, out, pool);
                    return;
                }
                let mut offset = 0;
                for ((b, bp), &m) in blocks.iter().zip(&up.blocks).zip(&up.block_rows) {
                    b.matvec_plan(&bp.root, x, &mut out[offset..offset + m], scratch, pool);
                    offset += m;
                }
            }
            (m @ Matrix::Product(..), NodePlan::Chain(cp)) => {
                chain_matvec(m, cp, x, out, scratch, pool)
            }
            (m @ Matrix::Kronecker(..), NodePlan::Kron(kp)) => {
                kron_apply(m, kp, Dir::Fwd, x, out, scratch, pool)
            }
            (Matrix::Scaled(c, a), NodePlan::Scaled { child, .. }) => {
                a.matvec_plan(child, x, out, scratch, pool);
                kernels::scale(out, *c);
            }
            (Matrix::Transpose(a), NodePlan::Transpose { child, .. }) => {
                a.rmatvec_plan(child, x, out, scratch, pool)
            }
            _ => unreachable!(
                "evaluation plan does not match matrix structure (shape-fingerprint collision)"
            ),
        }
    }

    /// Planned worker for `out = Aᵀ·y`.
    pub(crate) fn rmatvec_plan(
        &self,
        plan: &NodePlan,
        y: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
        pool: &mut ArenaPool,
    ) {
        match (self, plan) {
            (m, NodePlan::Leaf) => m.rmatvec_rec(y, out, scratch),
            (Matrix::Union(blocks), NodePlan::Union(up)) => {
                // Unionᵀ is a horizontal stack: contributions accumulate.
                out.fill(0.0);
                if up.par_bwd_chunk > 0 && !pool.is_nested() {
                    parallel::union_rmatvec_add(blocks, up, y, out, pool);
                    return;
                }
                let mut offset = 0;
                for ((b, bp), &m) in blocks.iter().zip(&up.blocks).zip(&up.block_rows) {
                    b.rmatvec_add_plan(&bp.root, &y[offset..offset + m], out, scratch, pool);
                    offset += m;
                }
            }
            (m @ Matrix::Product(..), NodePlan::Chain(cp)) => {
                chain_bwd(m, cp, y, out, scratch, pool, false)
            }
            (m @ Matrix::Kronecker(..), NodePlan::Kron(kp)) => {
                kron_apply(m, kp, Dir::Bwd, y, out, scratch, pool)
            }
            (Matrix::Scaled(c, a), NodePlan::Scaled { child, .. }) => {
                a.rmatvec_plan(child, y, out, scratch, pool);
                kernels::scale(out, *c);
            }
            (Matrix::Transpose(a), NodePlan::Transpose { child, .. }) => {
                a.matvec_plan(child, y, out, scratch, pool)
            }
            _ => unreachable!(
                "evaluation plan does not match matrix structure (shape-fingerprint collision)"
            ),
        }
    }

    /// Planned worker for `out += Aᵀ·y`.
    pub(crate) fn rmatvec_add_plan(
        &self,
        plan: &NodePlan,
        y: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
        pool: &mut ArenaPool,
    ) {
        match (self, plan) {
            (m, NodePlan::Leaf) => m.rmatvec_add_rec(y, out, scratch),
            (Matrix::Union(blocks), NodePlan::Union(up)) => {
                if up.par_bwd_chunk > 0 && !pool.is_nested() {
                    parallel::union_rmatvec_add(blocks, up, y, out, pool);
                    return;
                }
                let mut offset = 0;
                for ((b, bp), &m) in blocks.iter().zip(&up.blocks).zip(&up.block_rows) {
                    b.rmatvec_add_plan(&bp.root, &y[offset..offset + m], out, scratch, pool);
                    offset += m;
                }
            }
            (m @ Matrix::Product(..), NodePlan::Chain(cp)) => {
                chain_bwd(m, cp, y, out, scratch, pool, true)
            }
            (Matrix::Scaled(c, a), NodePlan::Scaled { rows, child }) => {
                debug_assert_eq!(y.len(), *rows);
                let (scaled, rest) = scratch.split_at_mut(*rows);
                kernels::scale_into(scaled, *c, y);
                a.rmatvec_add_plan(child, scaled, out, rest, pool);
            }
            (Matrix::Transpose(a), NodePlan::Transpose { child_rows, child }) => {
                // (Aᵀ)ᵀ y = A y, accumulated.
                let (t, rest) = scratch.split_at_mut(*child_rows);
                a.matvec_plan(child, y, t, rest, pool);
                kernels::add_assign(out, t);
            }
            (m @ Matrix::Kronecker(..), NodePlan::Kron(kp)) => {
                kron_apply(m, kp, Dir::BwdAdd, y, out, scratch, pool)
            }
            _ => unreachable!(
                "evaluation plan does not match matrix structure (shape-fingerprint collision)"
            ),
        }
    }

    // ------------------------------------------------------------------
    // Unplanned serial recursion: leaf kernels and the sizing reference
    // ------------------------------------------------------------------

    /// Recursive worker for `out = A·x`. `scratch` must hold at least
    /// [`Matrix::matvec_scratch`] scalars; nodes carve what they need off
    /// the front and pass the rest down. This is the serial reference
    /// engine: the planned path delegates leaf evaluation here and parallel
    /// workers never re-enter it with combinator nodes.
    pub(crate) fn matvec_rec(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        match self {
            Matrix::Dense(d) => d.matvec_into(x, out),
            Matrix::Sparse(s) => s.matvec_into(x, out),
            Matrix::Diagonal(d) => kernels::mul_into(out, d, x),
            Matrix::Identity { .. } => out.copy_from_slice(x),
            Matrix::Ones { .. } => out.fill(kernels::sum(x)),
            Matrix::Prefix { .. } => kernels::prefix_sum_into(out, x),
            Matrix::Suffix { .. } => kernels::suffix_sum_into(out, x),
            Matrix::Wavelet { .. } => wavelet_matvec(x, out),
            Matrix::Range(r) => r.matvec_rec(x, out, scratch),
            Matrix::Rect2D(r) => r.matvec_rec(x, out, scratch),
            Matrix::Union(blocks) => {
                let mut offset = 0;
                for b in blocks {
                    let m = b.rows();
                    b.matvec_rec(x, &mut out[offset..offset + m], scratch);
                    offset += m;
                }
            }
            Matrix::Product(a, b) => {
                let (t, rest) = scratch.split_at_mut(b.rows());
                b.matvec_rec(x, t, rest);
                a.matvec_rec(t, out, rest);
            }
            Matrix::Kronecker(a, b) => kron_matvec(a, b, x, out, scratch),
            Matrix::Scaled(c, a) => {
                a.matvec_rec(x, out, scratch);
                kernels::scale(out, *c);
            }
            Matrix::Transpose(a) => a.rmatvec_rec(x, out, scratch),
        }
    }

    /// Recursive worker for `out = Aᵀ·y`; `scratch` must hold at least
    /// [`Matrix::rmatvec_scratch`] scalars.
    pub(crate) fn rmatvec_rec(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        match self {
            Matrix::Dense(d) => d.rmatvec_into(y, out),
            Matrix::Sparse(s) => s.rmatvec_into(y, out),
            Matrix::Diagonal(d) => kernels::mul_into(out, d, y),
            Matrix::Identity { .. } => out.copy_from_slice(y),
            Matrix::Ones { .. } => out.fill(kernels::sum(y)),
            // Prefixᵀ behaves like Suffix and vice versa.
            Matrix::Prefix { .. } => kernels::suffix_sum_into(out, y),
            Matrix::Suffix { .. } => kernels::prefix_sum_into(out, y),
            Matrix::Wavelet { .. } => wavelet_rmatvec(y, out),
            Matrix::Range(r) => r.rmatvec_rec(y, out, scratch),
            Matrix::Rect2D(r) => r.rmatvec_rec(y, out, scratch),
            Matrix::Union(blocks) => {
                // Unionᵀ is a horizontal stack: contributions accumulate.
                // Scatter-adding per block keeps the cost proportional to
                // each block's own work instead of O(blocks · n) — vital
                // for striped plans whose unions have hundreds of blocks.
                out.fill(0.0);
                let mut offset = 0;
                for b in blocks {
                    let m = b.rows();
                    b.rmatvec_add_rec(&y[offset..offset + m], out, scratch);
                    offset += m;
                }
            }
            Matrix::Product(a, b) => {
                let (t, rest) = scratch.split_at_mut(b.rows());
                a.rmatvec_rec(y, t, rest);
                b.rmatvec_rec(t, out, rest);
            }
            Matrix::Kronecker(a, b) => kron_rmatvec(a, b, y, out, scratch),
            Matrix::Scaled(c, a) => {
                a.rmatvec_rec(y, out, scratch);
                kernels::scale(out, *c);
            }
            Matrix::Transpose(a) => a.matvec_rec(y, out, scratch),
        }
    }

    /// Recursive worker for `out += Aᵀ·y`; `scratch` must hold at least
    /// [`Matrix::rmatvec_add_scratch`] scalars.
    pub(crate) fn rmatvec_add_rec(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        match self {
            Matrix::Sparse(s) => {
                for (i, &yi) in y.iter().enumerate() {
                    if yi == 0.0 {
                        continue;
                    }
                    for (c, v) in s.row_entries(i) {
                        out[c] += yi * v;
                    }
                }
            }
            Matrix::Identity { .. } => kernels::add_assign(out, y),
            Matrix::Diagonal(d) => kernels::mul_add_assign(out, d, y),
            Matrix::Product(a, b) => {
                let (t, rest) = scratch.split_at_mut(b.rows());
                a.rmatvec_rec(y, t, rest);
                b.rmatvec_add_rec(t, out, rest);
            }
            Matrix::Scaled(c, a) => {
                let (scaled, rest) = scratch.split_at_mut(y.len());
                kernels::scale_into(scaled, *c, y);
                a.rmatvec_add_rec(scaled, out, rest);
            }
            Matrix::Union(blocks) => {
                let mut offset = 0;
                for b in blocks {
                    let m = b.rows();
                    b.rmatvec_add_rec(&y[offset..offset + m], out, scratch);
                    offset += m;
                }
            }
            Matrix::Transpose(a) => {
                // (Aᵀ)ᵀ y = A y, accumulated.
                let (t, rest) = scratch.split_at_mut(a.rows());
                a.matvec_rec(y, t, rest);
                kernels::add_assign(out, t);
            }
            // Dense blocks and the remaining implicit types touch all of
            // `out` anyway; a dense temporary costs nothing extra
            // asymptotically.
            _ => {
                let (tmp, rest) = scratch.split_at_mut(out.len());
                self.rmatvec_rec(y, tmp, rest);
                kernels::add_assign(out, tmp);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Product chains: ping-pong buffer evaluation
// ---------------------------------------------------------------------

/// `out = f_0 · f_1 · … · f_m · x` over a planned chain, using the plan's
/// ping-pong buffers. The arithmetic sequence is identical to the nested
/// recursion (each factor applied once, innermost first), so results are
/// bit-identical — only the intermediate *storage* changes: `min(m, 2)`
/// buffers instead of `m`.
fn chain_matvec(
    node: &Matrix,
    cp: &ChainPlan,
    x: &[f64],
    out: &mut [f64],
    scratch: &mut [f64],
    pool: &mut ArenaPool,
) {
    let (b0, rest) = scratch.split_at_mut(cp.buf_len);
    let (b1, rest) = rest.split_at_mut(if cp.bufs == 2 { cp.buf_len } else { 0 });
    let (f0, tail) = match node {
        Matrix::Product(a, b) => (&**a, &**b),
        _ => unreachable!("chain plan on non-product node"),
    };
    chain_fwd_tail(tail, cp, 1, x, b0, b1, rest, pool);
    // out = f_0 · s_1 ; s_1 lives in b0 (odd slot).
    f0.matvec_plan(&cp.factors[0].root, &b0[..cp.rows[1]], out, rest, pool);
}

/// Computes the intermediate `s_idx = f_idx · … · f_m · x` into its
/// ping-pong slot (odd `idx` → `b0`, even → `b1`). `spine` is the subtree
/// whose product equals that suffix of the chain.
#[allow(clippy::too_many_arguments)]
fn chain_fwd_tail(
    spine: &Matrix,
    cp: &ChainPlan,
    idx: usize,
    x: &[f64],
    b0: &mut [f64],
    b1: &mut [f64],
    rest: &mut [f64],
    pool: &mut ArenaPool,
) {
    let last = cp.factors.len() - 1;
    if idx == last {
        let dst = if cp.bufs == 1 || idx % 2 == 1 { b0 } else { b1 };
        spine.matvec_plan(
            &cp.factors[idx].root,
            x,
            &mut dst[..cp.rows[idx]],
            rest,
            pool,
        );
        return;
    }
    let (f, tail) = match spine {
        Matrix::Product(a, b) => (&**a, &**b),
        _ => unreachable!("chain plan longer than the product spine"),
    };
    chain_fwd_tail(tail, cp, idx + 1, x, &mut *b0, &mut *b1, &mut *rest, pool);
    // s_idx = f_idx · s_{idx+1}; consecutive intermediates alternate slots,
    // and by the time s_idx is written, s_{idx+2} (which shared its slot)
    // is dead.
    let (dst, src) = if idx % 2 == 1 {
        (&mut *b0, &*b1)
    } else {
        (&mut *b1, &*b0)
    };
    f.matvec_plan(
        &cp.factors[idx].root,
        &src[..cp.rows[idx + 1]],
        &mut dst[..cp.rows[idx]],
        rest,
        pool,
    );
}

/// Transpose-direction chain evaluation, iterative along the spine:
/// `s_0 = f_0ᵀ y`, `s_j = f_jᵀ s_{j-1}`, finishing with the innermost
/// factor — plain (`add = false`) or accumulating (`add = true`).
#[allow(clippy::too_many_arguments)]
fn chain_bwd(
    node: &Matrix,
    cp: &ChainPlan,
    y: &[f64],
    out: &mut [f64],
    scratch: &mut [f64],
    pool: &mut ArenaPool,
    add: bool,
) {
    let last = cp.factors.len() - 1;
    let (b0, rest) = scratch.split_at_mut(cp.buf_len);
    let (b1, rest) = rest.split_at_mut(if cp.bufs == 2 { cp.buf_len } else { 0 });
    let mut cur = node;
    for idx in 0..last {
        let (f, tail) = match cur {
            Matrix::Product(a, b) => (&**a, &**b),
            _ => unreachable!("chain plan longer than the product spine"),
        };
        // s_idx has length cols(f_idx) = rows(f_{idx+1}); even slots in b0.
        let dlen = cp.rows[idx + 1];
        if idx == 0 {
            let dst = if cp.bufs == 1 || idx.is_multiple_of(2) {
                &mut *b0
            } else {
                &mut *b1
            };
            f.rmatvec_plan(&cp.factors[0].root, y, &mut dst[..dlen], rest, pool);
        } else {
            let (dst, src) = if idx.is_multiple_of(2) {
                (&mut *b0, &*b1)
            } else {
                (&mut *b1, &*b0)
            };
            f.rmatvec_plan(
                &cp.factors[idx].root,
                &src[..cp.rows[idx]],
                &mut dst[..dlen],
                rest,
                pool,
            );
        }
        cur = tail;
    }
    let src = if cp.bufs == 1 || (last - 1).is_multiple_of(2) {
        &*b0
    } else {
        &*b1
    };
    let src = &src[..cp.rows[last]];
    if add {
        cur.rmatvec_add_plan(&cp.factors[last].root, src, out, rest, pool);
    } else {
        cur.rmatvec_plan(&cp.factors[last].root, src, out, rest, pool);
    }
}

// ---------------------------------------------------------------------
// Kronecker: the unplanned reference engine (planned: `crate::kron`)
// ---------------------------------------------------------------------

/// Unplanned serial Kronecker forward product (reference engine): the
/// vec-trick, reshaping `x` as an `nA×nB` matrix `X`, applying `B` to every
/// row (`T = X·Bᵀ`), then `A` to every column of `T`. Cost
/// `nA·Time(B) + mB·Time(A)` (paper Table 3).
fn kron_matvec(a: &Matrix, b: &Matrix, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
    let (ma, na) = a.shape();
    let (mb, nb) = b.shape();
    let (t, rest) = scratch.split_at_mut(na * mb);
    for i in 0..na {
        b.matvec_rec(&x[i * nb..(i + 1) * nb], &mut t[i * mb..(i + 1) * mb], rest);
    }
    let (col, rest) = rest.split_at_mut(na);
    let (ocol, rest) = rest.split_at_mut(ma);
    for q in 0..mb {
        for i in 0..na {
            col[i] = t[i * mb + q];
        }
        a.matvec_rec(col, ocol, rest);
        for p in 0..ma {
            out[p * mb + q] = ocol[p];
        }
    }
}

/// Unplanned serial Kronecker transpose product (reference engine).
fn kron_rmatvec(a: &Matrix, b: &Matrix, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
    let (ma, na) = a.shape();
    let (mb, nb) = b.shape();
    let (t, rest) = scratch.split_at_mut(ma * nb);
    for p in 0..ma {
        b.rmatvec_rec(&y[p * mb..(p + 1) * mb], &mut t[p * nb..(p + 1) * nb], rest);
    }
    let (col, rest) = rest.split_at_mut(ma);
    let (ocol, rest) = rest.split_at_mut(na);
    for j in 0..nb {
        for p in 0..ma {
            col[p] = t[p * nb + j];
        }
        a.rmatvec_rec(col, ocol, rest);
        for i in 0..na {
            out[i * nb + j] = ocol[i];
        }
    }
}

/// Multi-threaded `Union` evaluation, built on the
/// persistent [`crate::pool`] executor (the offline build environment
/// cannot vendor rayon): chunk sizes are
/// fixed in the evaluation plan, so results are deterministic run-to-run
/// — and bit-identical for every pool size, since the pool only decides
/// *where* each fixed chunk runs. Workers borrow their scratch — and, in
/// the scatter direction, their private accumulators — from the
/// workspace's plan-sized [`ArenaPool`] instead of allocating, and pooled
/// dispatch copies each chunk closure into a preallocated job slot, so
/// the warm threaded paths perform **zero** heap allocations and zero
/// thread creation (gated by `alloc_parallel.rs` with an every-size
/// counting allocator). The paths engage only above a plan-time work
/// threshold. Worker arena pools are marked *nested*: a parallel-eligible
/// node under a pooled chunk worker (e.g. the large-union factor of an
/// `hdmm_kron` strategy) evaluates serially instead of spawning nested
/// regions and allocating fresh arenas — the outer region already
/// saturates the machine (gated by `alloc_parallel.rs`). At
/// `configured_parallelism() == 1` the plan records no chunks and these
/// paths never engage.
mod parallel {
    use super::ArenaPool;
    use crate::plan::UnionPlan;
    use crate::pool;
    use crate::Matrix;

    /// `Union` matvec with one worker per plan-time chunk of blocks.
    /// Blocks write disjoint output spans, so this is bit-identical to the
    /// serial path.
    pub(super) fn union_matvec(
        blocks: &[Matrix],
        up: &UnionPlan,
        x: &[f64],
        out: &mut [f64],
        pool: &mut ArenaPool,
    ) {
        let chunk = up.par_fwd_chunk;
        let nchunks = blocks.len().div_ceil(chunk);
        let arenas = pool.arenas(nchunks, up.block_mv_scratch);
        pool::scope(|s| {
            let mut rem = out;
            for ((bchunk, pchunk), (rchunk, arena)) in blocks
                .chunks(chunk)
                .zip(up.blocks.chunks(chunk))
                .zip(up.block_rows.chunks(chunk).zip(arenas.iter_mut()))
            {
                let span: usize = rchunk.iter().sum();
                let (head, tail) = rem.split_at_mut(span);
                rem = tail;
                s.spawn(move || {
                    let scratch = &mut arena[..up.block_mv_scratch];
                    let mut wpool = ArenaPool::for_worker();
                    let mut off = 0;
                    for ((b, bp), &m) in bchunk.iter().zip(pchunk).zip(rchunk) {
                        b.matvec_plan(&bp.root, x, &mut head[off..off + m], scratch, &mut wpool);
                        off += m;
                    }
                });
            }
        });
    }

    /// `Unionᵀ` scatter-add over plan-time chunks of blocks: each worker
    /// accumulates its chunk into a private full-width accumulator carved
    /// from its pool arena; the accumulators are merged **in fixed chunk
    /// order** after the barrier, so the result is deterministic
    /// run-to-run (within one chunk the blocks scatter in their serial
    /// order; across chunks only the grouping of the final sums differs
    /// from the serial path, by at most the usual f64 rounding).
    pub(super) fn union_rmatvec_add(
        blocks: &[Matrix],
        up: &UnionPlan,
        y: &[f64],
        out: &mut [f64],
        pool: &mut ArenaPool,
    ) {
        let chunk = up.par_bwd_chunk;
        let cols = out.len();
        let nchunks = blocks.len().div_ceil(chunk);
        let per = cols + up.block_rmva_scratch;
        let arenas = pool.arenas(nchunks, per);
        pool::scope(|s| {
            let mut offset = 0;
            for ((bchunk, pchunk), (rchunk, arena)) in blocks
                .chunks(chunk)
                .zip(up.blocks.chunks(chunk))
                .zip(up.block_rows.chunks(chunk).zip(arenas.iter_mut()))
            {
                let span: usize = rchunk.iter().sum();
                let ys = &y[offset..offset + span];
                offset += span;
                s.spawn(move || {
                    let (local, scratch) = arena[..per].split_at_mut(cols);
                    local.fill(0.0); // the arena is reused across calls
                    let mut wpool = ArenaPool::for_worker();
                    let mut off = 0;
                    for ((b, bp), &m) in bchunk.iter().zip(pchunk).zip(rchunk) {
                        b.rmatvec_add_plan(&bp.root, &ys[off..off + m], local, scratch, &mut wpool);
                        off += m;
                    }
                });
            }
        });
        // Deterministic fixed-order merge of the per-worker accumulators
        // (the scatter-add kernel is order-preserving).
        for arena in arenas.iter().take(nchunks) {
            crate::kernels::add_assign(out, &arena[..cols]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x5() -> Vec<f64> {
        vec![1.0, 2.0, 3.0, 4.0, 5.0]
    }

    #[test]
    fn identity_and_diagonal() {
        assert_eq!(Matrix::identity(5).matvec(&x5()), x5());
        let d = Matrix::diagonal(vec![1.0, 0.0, -1.0, 2.0, 0.5]);
        assert_eq!(d.matvec(&x5()), vec![1.0, 0.0, -3.0, 8.0, 2.5]);
        assert_eq!(d.rmatvec(&x5()), vec![1.0, 0.0, -3.0, 8.0, 2.5]);
    }

    #[test]
    fn ones_and_total() {
        assert_eq!(Matrix::ones(3, 5).matvec(&x5()), vec![15.0; 3]);
        assert_eq!(Matrix::total(5).matvec(&x5()), vec![15.0]);
        assert_eq!(Matrix::total(5).rmatvec(&[2.0]), vec![2.0; 5]);
    }

    #[test]
    fn prefix_suffix_are_transposes() {
        let p = Matrix::prefix(5);
        let s = Matrix::suffix(5);
        assert_eq!(p.matvec(&x5()), vec![1.0, 3.0, 6.0, 10.0, 15.0]);
        assert_eq!(s.matvec(&x5()), vec![15.0, 14.0, 12.0, 9.0, 5.0]);
        assert_eq!(p.rmatvec(&x5()), s.matvec(&x5()));
        assert_eq!(s.rmatvec(&x5()), p.matvec(&x5()));
    }

    #[test]
    fn rmatvec_add_matches_rmatvec_for_all_variants() {
        let cases = vec![
            Matrix::identity(5),
            Matrix::prefix(5),
            Matrix::wavelet(5),
            Matrix::diagonal(vec![1.0, -2.0, 0.5, 3.0, 0.0]),
            Matrix::select_rows(5, &[3, 1]),
            Matrix::scaled(2.0, Matrix::select_rows(5, &[0, 4])),
            Matrix::product(Matrix::total(3), Matrix::select_rows(5, &[0, 2, 4])),
            Matrix::vstack(vec![Matrix::identity(5), Matrix::total(5)]),
            Matrix::prefix(5).transpose().transpose(),
            Matrix::Transpose(Box::new(Matrix::wavelet(5))),
        ];
        for m in cases {
            let y: Vec<f64> = (0..m.rows()).map(|i| i as f64 - 1.5).collect();
            let mut acc = vec![1.0; m.cols()];
            let mut ws = Workspace::new();
            m.rmatvec_add(&y, &mut acc, &mut ws);
            let direct = m.rmatvec(&y);
            for (a, d) in acc.iter().zip(&direct) {
                assert!((a - (d + 1.0)).abs() < 1e-12, "mismatch for {m:?}");
            }
        }
    }

    #[test]
    fn union_stacks_and_accumulates() {
        let u = Matrix::vstack(vec![Matrix::total(5), Matrix::identity(5)]);
        assert_eq!(u.matvec(&x5()), vec![15.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let y = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        // Unionᵀ y = Totalᵀ·1 + Iᵀ·rest = [1+1, ...]
        assert_eq!(u.rmatvec(&y), vec![2.0; 5]);
    }

    #[test]
    fn product_composes() {
        // Total · Prefix = [n, n-1, ..., 1] as a row
        let p = Matrix::product(Matrix::total(5), Matrix::prefix(5));
        assert_eq!(
            p.matvec(&x5()),
            vec![1.0 * 5.0 + 2.0 * 4.0 + 3.0 * 3.0 + 4.0 * 2.0 + 5.0]
        );
    }

    #[test]
    fn long_product_chain_matches_step_by_step() {
        // 5 factors exercise the ping-pong buffers in both directions.
        let n = 6;
        let factors = [
            Matrix::prefix(n),
            Matrix::diagonal((0..n).map(|i| 1.0 + i as f64 * 0.5).collect()),
            Matrix::suffix(n),
            Matrix::wavelet(n),
            Matrix::diagonal((0..n).map(|i| 2.0 - i as f64 * 0.3).collect()),
        ];
        let mut chain = factors[factors.len() - 1].clone();
        for f in factors[..factors.len() - 1].iter().rev() {
            chain = Matrix::Product(Box::new(f.clone()), Box::new(chain.clone()));
        }
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        // Reference: apply factors innermost-first, one at a time.
        let mut expect = x.clone();
        for f in factors.iter().rev() {
            expect = f.matvec(&expect);
        }
        let mut ws = Workspace::for_matrix(&chain);
        let mut got = vec![0.0; n];
        chain.matvec_into(&x, &mut got, &mut ws);
        assert_eq!(got, expect, "chain matvec diverged");

        let y: Vec<f64> = (0..n).map(|i| (i as f64) * 0.7 - 1.0).collect();
        let mut expect_t = y.clone();
        for f in factors.iter() {
            expect_t = f.rmatvec(&expect_t);
        }
        let mut got_t = vec![0.0; n];
        chain.rmatvec_into(&y, &mut got_t, &mut ws);
        assert_eq!(got_t, expect_t, "chain rmatvec diverged");

        // Accumulating scatter through the chain.
        let mut acc = vec![0.25; n];
        chain.rmatvec_add(&y, &mut acc, &mut ws);
        for (a, e) in acc.iter().zip(&expect_t) {
            assert!((a - (e + 0.25)).abs() < 1e-12, "chain rmatvec_add diverged");
        }
    }

    #[test]
    fn chain_scratch_is_smaller_than_nested_recursion() {
        let n = 64;
        let mut chain = Matrix::prefix(n);
        for _ in 0..7 {
            chain = Matrix::Product(Box::new(Matrix::suffix(n)), Box::new(chain));
        }
        let mut ws = Workspace::for_matrix(&chain);
        // 7 products: the nested recursion would need 7n for matvec; the
        // ping-pong plan needs 2n (the arena itself covers the widest of
        // the three directions, still well under the nested requirement).
        let plan = ws.plan_for(&chain);
        assert_eq!(plan.mv_scratch, 2 * n);
        assert_eq!(plan.rmv_scratch, 2 * n);
        assert!(chain.matvec_scratch() >= 7 * n);
        assert!(ws.capacity() < chain.matvec_scratch());
    }

    #[test]
    fn kron_matches_materialized() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![0.0, -1.0], vec![3.0, 1.0]]);
        let b = Matrix::from_rows(vec![vec![1.0, 0.0, 2.0], vec![-1.0, 1.0, 0.5]]);
        let k = Matrix::kron(a.clone(), b.clone());
        let kd = k.to_dense();
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let mut expect = vec![0.0; 6];
        kd.matvec_into(&x, &mut expect);
        assert_eq!(k.matvec(&x), expect);

        let y: Vec<f64> = (0..6).map(|i| (i as f64) * 0.3).collect();
        let mut expect_t = vec![0.0; 6];
        kd.rmatvec_into(&y, &mut expect_t);
        let got = k.rmatvec(&y);
        for (g, e) in got.iter().zip(&expect_t) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn scaled_and_transpose() {
        let m = Matrix::scaled(2.0, Matrix::prefix(5));
        assert_eq!(m.matvec(&x5()), vec![2.0, 6.0, 12.0, 20.0, 30.0]);
        let t = Matrix::Transpose(Box::new(Matrix::prefix(5)));
        assert_eq!(t.matvec(&x5()), Matrix::suffix(5).matvec(&x5()));
    }

    #[test]
    fn range_variant_dispatch() {
        let w = Matrix::range_queries(5, vec![(0, 5), (2, 3)]);
        assert_eq!(w.matvec(&x5()), vec![15.0, 3.0]);
    }

    #[test]
    fn three_way_kron_marginal() {
        // W13 = I ⊗ Total ⊗ I over a 2×3×2 domain (paper Example 7.5).
        let w = Matrix::kron_list(vec![
            Matrix::identity(2),
            Matrix::total(3),
            Matrix::identity(2),
        ]);
        assert_eq!(w.shape(), (4, 12));
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        // cell index = a*6 + b*2 + c; marginal over b.
        let mut expect = vec![0.0; 4];
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..2 {
                    expect[a * 2 + c] += x[a * 6 + b * 2 + c];
                }
            }
        }
        assert_eq!(w.matvec(&x), expect);
    }

    /// The parallel paths only engage above the plan-time work threshold;
    /// these cases are sized past it so the threaded chunking actually
    /// executes whenever `configured_parallelism() >= 2` (below-threshold
    /// evaluation stays serial and serves as the reference).
    #[test]
    fn large_union_matches_per_block_evaluation() {
        let n = 1usize << 13;
        let blocks = vec![
            Matrix::wavelet(n),
            Matrix::prefix(n),
            Matrix::scaled(0.5, Matrix::suffix(n)),
            Matrix::product(Matrix::prefix(n), Matrix::wavelet(n)),
        ];
        let u = Matrix::vstack(blocks.clone());
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        let got = u.matvec(&x);
        let expect: Vec<f64> = blocks.iter().flat_map(|b| b.matvec(&x)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn large_union_rmatvec_matches_per_block_scatter() {
        // Above the scatter threshold: rows = 4n ≥ 2^14 and rows ≥ cols.
        let n = 1usize << 12;
        let blocks = vec![
            Matrix::wavelet(n),
            Matrix::prefix(n),
            Matrix::scaled(0.5, Matrix::suffix(n)),
            Matrix::product(Matrix::prefix(n), Matrix::wavelet(n)),
        ];
        let u = Matrix::vstack(blocks.clone());
        let y: Vec<f64> = (0..u.rows())
            .map(|i| ((i * 19) % 11) as f64 - 5.0)
            .collect();
        let got = u.rmatvec(&y);
        // Serial per-block reference.
        let mut expect = vec![0.0; n];
        let mut offset = 0;
        for b in &blocks {
            let back = b.rmatvec(&y[offset..offset + b.rows()]);
            for (e, v) in expect.iter_mut().zip(&back) {
                *e += v;
            }
            offset += b.rows();
        }
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "union rmatvec diverged");
        }
        // The threaded merge must be deterministic: a second evaluation
        // through a fresh workspace is bit-identical.
        let got2 = u.rmatvec(&y);
        assert_eq!(got, got2, "threaded union rmatvec is nondeterministic");
        // And a *reused* (pool-warm) workspace must also be bit-identical:
        // stale accumulator contents in pool arenas would surface here.
        let mut ws = Workspace::for_matrix(&u);
        let mut out = vec![0.0; n];
        u.rmatvec_into(&y, &mut out, &mut ws);
        assert_eq!(got, out);
        u.rmatvec_into(&y, &mut out, &mut ws);
        assert_eq!(got, out, "pool reuse changed the scatter result");
    }

    /// The mode-by-mode engine reproduces the unplanned binary recursion
    /// (`kron_matvec` / `kron_rmatvec`) bit for bit on the census
    /// `Prefix(Income)` workload, whose `Ones` rows follow the `sum` order.
    #[test]
    fn census_kron_matches_reference_engine() {
        let tot_id = |n| Matrix::vstack(vec![Matrix::total(n), Matrix::identity(n)]);
        let k = Matrix::kron_list(vec![
            Matrix::prefix(357),
            tot_id(5),
            tot_id(7),
            tot_id(4),
            tot_id(2),
        ]);
        let x: Vec<f64> = (0..k.cols())
            .map(|i| ((i * 37) % 41) as f64 - 20.5)
            .collect();
        let y: Vec<f64> = (0..k.rows())
            .map(|i| ((i * 13) % 29) as f64 - 14.0)
            .collect();
        let mut want = vec![0.0; k.rows()];
        k.matvec_rec(&x, &mut want, &mut vec![0.0; k.matvec_scratch()]);
        let mut want_t = vec![0.0; k.cols()];
        k.rmatvec_rec(&y, &mut want_t, &mut vec![0.0; k.rmatvec_scratch()]);
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same(&k.matvec(&x), &want), "census matvec diverged");
        assert!(same(&k.rmatvec(&y), &want_t), "census rmatvec diverged");
    }

    #[test]
    fn large_kron_matches_materialized() {
        // 128×128 factors put both modes above the threading threshold:
        // the wavelet mode runs the fiber walk in block chunks, the prefix
        // mode its panel kernel in column chunks.
        let a = Matrix::prefix(128);
        let b = Matrix::wavelet(128);
        let k = Matrix::kron(a, b);
        let sparse = Matrix::sparse(k.to_sparse());
        let x: Vec<f64> = (0..k.cols())
            .map(|i| ((i * 31) % 17) as f64 - 8.0)
            .collect();
        let got = k.matvec(&x);
        let expect = sparse.matvec(&x);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "kron matvec diverged");
        }
        let y: Vec<f64> = (0..k.rows())
            .map(|i| ((i * 7) % 23) as f64 - 11.0)
            .collect();
        let got_t = k.rmatvec(&y);
        let expect_t = sparse.rmatvec(&y);
        for (g, e) in got_t.iter().zip(&expect_t) {
            assert!((g - e).abs() < 1e-9, "kron rmatvec diverged");
        }
        let got_t2 = k.rmatvec(&y);
        assert_eq!(got_t, got_t2, "threaded kron rmatvec is nondeterministic");
        // Pool-warm reuse must match too (fiber-walk chunks use arenas).
        let mut ws = Workspace::for_matrix(&k);
        let mut out = vec![0.0; k.cols()];
        k.rmatvec_into(&y, &mut out, &mut ws);
        assert_eq!(got_t, out);
        k.rmatvec_into(&y, &mut out, &mut ws);
        assert_eq!(got_t, out, "pool reuse changed the kron scatter result");
    }

    #[test]
    fn shared_workspace_reused_across_directions() {
        let m = Matrix::vstack(vec![
            Matrix::product(Matrix::prefix(6), Matrix::wavelet(6)),
            Matrix::kron(Matrix::total(2), Matrix::prefix(3)),
        ]);
        let mut ws = Workspace::for_matrix(&m);
        let cap_after_plan = ws.capacity();
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let mut out = vec![0.0; m.rows()];
        let mut back = vec![0.0; m.cols()];
        for _ in 0..3 {
            m.matvec_into(&x, &mut out, &mut ws);
            m.rmatvec_into(&out, &mut back, &mut ws);
        }
        // The planning pass sized the arena once; evaluation never grew it.
        assert_eq!(ws.capacity(), cap_after_plan);
        assert_eq!(out, m.matvec(&x));
        assert_eq!(back, m.rmatvec(&out));
        // And every lookup after the first was a cache hit.
        assert!(ws.plan_cache_builds() <= 1);
        assert!(ws.plan_cache_hits() >= 6);
    }
}
