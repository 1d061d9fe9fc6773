//! N-ary Kronecker evaluation, one mode at a time (paper §7; the
//! vec-trick of Table 3 generalized from two factors to N).
//!
//! A chain of nested `Kronecker` nodes `A_0 ⊗ A_1 ⊗ … ⊗ A_{N−1}`, however
//! it is nested, acts on its input viewed as an N-way tensor stored
//! row-major (factor 0 is the most significant index). Applying factor `k`
//! along its own mode turns an `outer × n_k × inner` tensor into an
//! `outer × m_k × inner` one, where `outer` and `inner` are the products
//! of the dimensions before and after mode `k`. The planner
//! ([`crate::plan`]) flattens the chain into one [`ModesPlan`] and records
//! each mode's geometry and its ping-pong buffer; [`kron_apply`] walks it.
//!
//! * **Order.** Factors apply from last to first in both directions —
//!   the order of the binary vec-trick recursion (apply `B` to every row
//!   of the reshaped input, then `A` to every column) — so every output
//!   element is produced by the same arithmetic as that recursion, which
//!   `tests/proptest_into.rs` replays as the reference.
//! * **Panel kernels.** A factor built from `Identity`, `Ones`, `Prefix`,
//!   `Suffix`, `Diagonal`, `Dense`, `Sparse`, `Range`, `Scaled` and
//!   `Union` leaves is applied to a whole mode in one call: rows of length
//!   `inner` are contiguous, so each kernel streams whole rows instead of
//!   gathering one fiber at a time. Each kernel performs, per column,
//!   exactly the operation sequence of its vector kernel in `matvec.rs`
//!   (including the accumulator's initial value), so results are
//!   bit-identical to the reference wherever the vector kernel is
//!   order-preserving. A `Range` leaf (the HB strategy of `HB ⊗ I ⊗ …`)
//!   takes prefix sums down the rows into a scratch tile of at most
//!   `TILE` columns and then row differences, or builds a difference
//!   array in the tile and runs it back up; its plan step draws that
//!   tile. Every
//!   kernel here is tagged with its CLASS, as in [`crate::kernels`].
//! * **Fiber walk.** Other factors (`Wavelet`, `Rect2D`, `Product`,
//!   `Transpose`, …) keep the per-fiber gather → planned evaluation →
//!   scatter walk; when `inner = 1` the fibers are contiguous and the
//!   walk is a direct slice call.
//! * **Identity factors** are skipped: they only re-stride the tensor.
//! * **Buffers.** Modes ping-pong between the caller's `out` and scratch
//!   buffers chosen at plan time so that the last mode writes `out`; the
//!   first mode reads `x` directly.

use std::marker::PhantomData;

use crate::kernels::{self, KRON_PANEL};
use crate::plan::NodePlan;
use crate::{DenseMatrix, Matrix, RangeQueries};

/// Columns a stack-resident accumulator tile covers (512 bytes).
const TILE: usize = 64;

/// Which product a Kronecker evaluation computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dir {
    /// `out = K·x`.
    Fwd,
    /// `out = Kᵀ·y`.
    Bwd,
    /// `out += Kᵀ·y`.
    BwdAdd,
}

/// A buffer a mode reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Slot {
    /// The caller's input (read by the first applied mode only).
    In,
    /// The caller's output.
    Out,
    /// First scratch buffer.
    A,
    /// Second scratch buffer.
    B,
}

/// How one factor is applied along its mode.
#[derive(Debug)]
pub(crate) enum Apply {
    /// An `Identity` factor: nothing to do.
    Skip,
    /// A panel-kernel factor (see [`is_panel`]), with the prefix-sum
    /// rows per column its `Range` leaves need ([`panel_prefix`]).
    Panel {
        /// `n + 1` for `Range` leaves over `n` cells, else 0.
        prefix: usize,
    },
    /// Any other factor, with its own evaluation plan and scratch needs.
    Fiber {
        /// Plan of the factor.
        plan: NodePlan,
        /// The factor's `matvec` scratch.
        mv: usize,
        /// The factor's `rmatvec` scratch.
        rmv: usize,
    },
}

/// One factor of a flattened Kronecker chain.
#[derive(Debug)]
pub(crate) struct ModeFactor {
    /// Rows of the factor.
    pub rows: usize,
    /// Columns of the factor.
    pub cols: usize,
    /// How the factor is applied.
    pub apply: Apply,
}

/// Geometry and placement of one factor's mode in one direction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step {
    /// Product of the dimensions before the mode.
    pub outer: usize,
    /// Product of the dimensions after the mode.
    pub inner: usize,
    /// Mode length on input.
    pub n_in: usize,
    /// Mode length on output.
    pub n_out: usize,
    /// Where the mode writes (unused for skipped factors).
    pub slot: Slot,
    /// Scratch the fiber walk or a `Range` panel draws.
    pub extra: usize,
}

impl Step {
    pub(crate) fn in_len(&self) -> usize {
        self.outer * self.n_in * self.inner
    }

    pub(crate) fn out_len(&self) -> usize {
        self.outer * self.n_out * self.inner
    }
}

/// The steps of one direction, indexed by factor, plus its buffer sizes.
#[derive(Debug)]
pub(crate) struct Sweep {
    /// Per-factor steps (factor 0 first; applied in reverse).
    pub steps: Vec<Step>,
    /// Length of scratch buffer [`Slot::A`].
    pub a_len: usize,
    /// Length of scratch buffer [`Slot::B`].
    pub b_len: usize,
    /// Total arena scalars the direction draws.
    pub scratch: usize,
}

/// Plan records for a flattened chain of nested `Kronecker` nodes.
#[derive(Debug)]
pub(crate) struct ModesPlan {
    /// The factors, most significant first.
    pub factors: Vec<ModeFactor>,
    /// `out = K·x`.
    pub fwd: Sweep,
    /// `out = Kᵀ·y` (the last mode writes `out`).
    pub bwd: Sweep,
    /// `out += Kᵀ·y` (the last mode writes scratch, then one add).
    pub bwd_add: Sweep,
}

/// A basic panel leaf.
fn panel_leaf(m: &Matrix) -> bool {
    matches!(
        m,
        Matrix::Identity { .. }
            | Matrix::Ones { .. }
            | Matrix::Prefix { .. }
            | Matrix::Suffix { .. }
            | Matrix::Diagonal(..)
            | Matrix::Dense(..)
            | Matrix::Sparse(..)
            | Matrix::Range(..)
    )
}

/// A `Union` block the panel kernels accept: a leaf, or a scaled leaf.
fn panel_term(m: &Matrix) -> bool {
    match m {
        Matrix::Scaled(_, a) => panel_leaf(a),
        _ => panel_leaf(m),
    }
}

/// Whether the panel kernels can apply `m` to a whole mode: a panel leaf,
/// a `Union` of (scaled) panel leaves, or a scaling of either.
pub(crate) fn is_panel(m: &Matrix) -> bool {
    match m {
        Matrix::Union(blocks) => blocks.iter().all(panel_term),
        Matrix::Scaled(_, a) => is_panel(a),
        _ => panel_leaf(m),
    }
}

/// Prefix-sum rows per column a panel factor's `Range` leaves need: one
/// more than their domain, or 0 without `Range` leaves.
pub(crate) fn panel_prefix(m: &Matrix) -> usize {
    match m {
        Matrix::Range(r) => r.domain() + 1,
        Matrix::Scaled(_, a) => panel_prefix(a),
        Matrix::Union(blocks) => blocks.iter().map(panel_prefix).max().unwrap_or(0),
        _ => 0,
    }
}

/// Scratch a panel step draws on a mode with `inner` columns: one
/// prefix tile of at most [`TILE`] columns.
pub(crate) fn panel_scratch(prefix: usize, inner: usize) -> usize {
    prefix * inner.min(TILE)
}

/// Appends the factors of the Kronecker chain rooted at `m`, in order.
pub(crate) fn collect_factors<'m>(m: &'m Matrix, out: &mut Vec<&'m Matrix>) {
    match m {
        Matrix::Kronecker(a, b) => {
            collect_factors(a, out);
            collect_factors(b, out);
        }
        _ => out.push(m),
    }
}

/// Calls `f` on the factors of the chain rooted at `m`, last first —
/// the allocation-free mirror of [`collect_factors`].
fn for_each_factor_rev<'m>(m: &'m Matrix, f: &mut impl FnMut(&'m Matrix)) {
    match m {
        Matrix::Kronecker(a, b) => {
            for_each_factor_rev(b, f);
            for_each_factor_rev(a, f);
        }
        _ => f(m),
    }
}

/// Evaluates the Kronecker chain `node` planned as `kp` in direction
/// `dir`. `scratch` must hold the direction's `Sweep::scratch` scalars.
pub(crate) fn kron_apply(
    node: &Matrix,
    kp: &ModesPlan,
    dir: Dir,
    x: &[f64],
    out: &mut [f64],
    scratch: &mut [f64],
) {
    let sweep = match dir {
        Dir::Fwd => &kp.fwd,
        Dir::Bwd => &kp.bwd,
        Dir::BwdAdd => &kp.bwd_add,
    };
    let t = dir != Dir::Fwd;
    let (a, rest) = scratch.split_at_mut(sweep.a_len);
    let (b, rest) = rest.split_at_mut(sweep.b_len);
    let mut src = Slot::In;
    let mut k = kp.factors.len();
    for_each_factor_rev(node, &mut |f| {
        k -= 1;
        let apply = &kp.factors[k].apply;
        if matches!(apply, Apply::Skip) {
            return;
        }
        let step = &sweep.steps[k];
        let (sbuf, dbuf) = pick(src, step.slot, x, &mut *out, &mut *a, &mut *b);
        let s = Src::new(&sbuf[..step.in_len()], step.outer, step.n_in, step.inner);
        let d = Dst::new(
            &mut dbuf[..step.out_len()],
            step.outer,
            step.n_out,
            step.inner,
        );
        apply_mode(f, apply, t, s, d, &mut rest[..step.extra]);
        src = step.slot;
    });
    match (dir, src) {
        // Every factor was an identity.
        (Dir::BwdAdd, Slot::In) => kernels::add_assign(out, x),
        (_, Slot::In) => out.copy_from_slice(x),
        // `K` was evaluated into scratch; accumulate it, exactly as a
        // dense temporary of `Kᵀ·y` added to `out` does.
        (Dir::BwdAdd, Slot::A) => kernels::add_assign(out, &a[..out.len()]),
        (Dir::BwdAdd, Slot::B) => kernels::add_assign(out, &b[..out.len()]),
        _ => debug_assert_eq!(src, Slot::Out, "the last mode writes out"),
    }
}

/// The source and destination buffers of one mode.
fn pick<'s>(
    src: Slot,
    dst: Slot,
    x: &'s [f64],
    out: &'s mut [f64],
    a: &'s mut [f64],
    b: &'s mut [f64],
) -> (&'s [f64], &'s mut [f64]) {
    match (src, dst) {
        (Slot::In, Slot::Out) => (x, out),
        (Slot::In, Slot::A) => (x, a),
        (Slot::In, Slot::B) => (x, b),
        (Slot::Out, Slot::A) => (out, a),
        (Slot::Out, Slot::B) => (out, b),
        (Slot::A, Slot::Out) => (a, out),
        (Slot::A, Slot::B) => (a, b),
        (Slot::B, Slot::Out) => (b, out),
        (Slot::B, Slot::A) => (b, a),
        _ => unreachable!("a mode never reads the buffer it writes"),
    }
}

/// Applies one factor along its mode.
fn apply_mode(f: &Matrix, apply: &Apply, t: bool, src: Src<'_>, dst: Dst<'_>, scratch: &mut [f64]) {
    match apply {
        Apply::Panel { .. } if t => panel_bwd(f, src, dst, scratch),
        Apply::Panel { .. } => panel_fwd(f, src, dst, scratch),
        Apply::Fiber { plan, .. } => fiber(f, plan, t, src, dst, scratch),
        Apply::Skip => unreachable!("skipped factors are never applied"),
    }
}

// ---------------------------------------------------------------------
// Panel views
// ---------------------------------------------------------------------

/// Read-only view of a `blocks × rows × width` panel: element `(o, r, c)`
/// sits at `data[o·block + r·row + c]`.
#[derive(Clone, Copy)]
struct Src<'a> {
    data: &'a [f64],
    blocks: usize,
    rows: usize,
    width: usize,
    block: usize,
    row: usize,
}

impl<'a> Src<'a> {
    /// The contiguous `blocks × rows × width` tensor `data`.
    fn new(data: &'a [f64], blocks: usize, rows: usize, width: usize) -> Self {
        debug_assert_eq!(data.len(), blocks * rows * width);
        Src {
            data,
            blocks,
            rows,
            width,
            block: rows * width,
            row: width,
        }
    }

    #[inline]
    fn line(&self, o: usize, r: usize) -> &'a [f64] {
        let at = o * self.block + r * self.row;
        &self.data[at..at + self.width]
    }

    /// Rows `r0 .. r0 + rows` of every block.
    fn rows(&self, r0: usize, rows: usize) -> Self {
        Src {
            data: &self.data[r0 * self.row..],
            rows,
            ..*self
        }
    }

    /// Whether each block is one contiguous run (rows unsplit).
    fn contiguous(&self) -> bool {
        self.row == self.width
    }

    /// Block `o` as one slice; requires [`Src::contiguous`].
    fn block(&self, o: usize) -> &'a [f64] {
        debug_assert!(self.contiguous());
        let at = o * self.block;
        &self.data[at..at + self.rows * self.width]
    }
}

/// Exclusive view of a `blocks × rows × width` panel inside a borrowed
/// buffer: element `(o, r, c)` sits at `ptr + o·block + r·row + c`.
///
/// A `Union` factor's block owns the same row range of *every* block of
/// the panel, a strided set of elements no `&mut [f64]` split can
/// express; [`Dst::rows`] is that split. Invariants, kept by every
/// constructor: `row ≥ width`, `block ≥ rows·row`, and every in-range
/// `(o, r, c)` addresses an element of the buffer borrowed for `'a`.
/// `rows` borrows its parent mutably, so no element is ever reachable
/// through two live views.
struct Dst<'a> {
    ptr: *mut f64,
    blocks: usize,
    rows: usize,
    width: usize,
    block: usize,
    row: usize,
    _buf: PhantomData<&'a mut [f64]>,
}

impl<'a> Dst<'a> {
    /// The contiguous `blocks × rows × width` tensor `data`.
    fn new(data: &'a mut [f64], blocks: usize, rows: usize, width: usize) -> Self {
        assert_eq!(data.len(), blocks * rows * width, "panel view mis-sized");
        Dst {
            ptr: data.as_mut_ptr(),
            blocks,
            rows,
            width,
            block: rows * width,
            row: width,
            _buf: PhantomData,
        }
    }

    #[inline]
    fn line(&mut self, o: usize, r: usize) -> &mut [f64] {
        assert!(o < self.blocks && r < self.rows, "panel row out of range");
        // SAFETY: `(o, r)` is in range, so by the type's invariants the
        // `width` elements from this offset lie in the borrowed buffer and
        // belong to this view alone; `&mut self` keeps the slice unique.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.ptr.wrapping_add(o * self.block + r * self.row),
                self.width,
            )
        }
    }

    /// Block `o` as one slice; requires unsplit rows (`row == width`).
    fn block(&mut self, o: usize) -> &mut [f64] {
        assert!(
            o < self.blocks && self.contiguous(),
            "panel block not contiguous"
        );
        // SAFETY: with `row == width` block `o` is the `rows·width`
        // consecutive elements from `o·block`, all in this view (type
        // invariants); `&mut self` keeps the slice unique.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.ptr.wrapping_add(o * self.block),
                self.rows * self.width,
            )
        }
    }

    /// Rows `a` (read) and `b` (written) of block `o`, `a != b`.
    #[inline]
    fn lines2(&mut self, o: usize, a: usize, b: usize) -> (&[f64], &mut [f64]) {
        assert!(
            o < self.blocks && a < self.rows && b < self.rows && a != b,
            "panel rows"
        );
        let base = o * self.block;
        // SAFETY: both rows are in range, so by the type's invariants they
        // lie in the borrowed buffer and belong to this view; `row ≥ width`
        // and `a != b` make them disjoint, and `&mut self` keeps both
        // slices unique.
        unsafe {
            (
                std::slice::from_raw_parts(self.ptr.wrapping_add(base + a * self.row), self.width),
                std::slice::from_raw_parts_mut(
                    self.ptr.wrapping_add(base + b * self.row),
                    self.width,
                ),
            )
        }
    }

    /// Whether each block is one contiguous run (rows unsplit).
    fn contiguous(&self) -> bool {
        self.row == self.width
    }

    /// A shorter-lived view of the same elements.
    fn reborrow(&mut self) -> Dst<'_> {
        Dst {
            _buf: PhantomData,
            ..*self
        }
    }

    /// Rows `r0 .. r0 + rows` of every block (a `Union` block's share).
    fn rows(&mut self, r0: usize, rows: usize) -> Dst<'_> {
        assert!(r0 + rows <= self.rows, "panel rows out of range");
        Dst {
            ptr: self.ptr.wrapping_add(r0 * self.row),
            rows,
            _buf: PhantomData,
            ..*self
        }
    }

    fn fill(&mut self, v: f64) {
        if self.contiguous() && self.block == self.rows * self.row && self.blocks > 0 {
            // SAFETY: with unsplit rows and blocks packed end to end, the
            // view is the `blocks·rows·width` consecutive elements from
            // `ptr`, all in the borrowed buffer (type invariants);
            // `&mut self` keeps the slice unique.
            unsafe {
                std::slice::from_raw_parts_mut(self.ptr, self.blocks * self.block).fill(v);
            }
            return;
        }
        for o in 0..self.blocks {
            for r in 0..self.rows {
                self.line(o, r).fill(v);
            }
        }
    }

    fn scale(&mut self, c: f64) {
        for o in 0..self.blocks {
            for r in 0..self.rows {
                kernels::scale(self.line(o, r), c);
            }
        }
    }
}

/// Column tiles `[t0, t1)` of at most [`TILE`] columns covering `0..width`.
fn tiles(width: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..width)
        .step_by(TILE)
        .map(move |t0| (t0, (t0 + TILE).min(width)))
}

/// The initial accumulator of `Iterator::sum` over `f64`, which
/// `kernels::sum` and `kernels::dot` start from.
#[inline]
fn sum_init() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// `c·v`, or `v` unscaled: the value a `Scaled` block's `rmatvec_add`
/// passes on (`kernels::scale_into` computes `c * v`).
#[inline]
fn pre(c: Option<f64>, v: f64) -> f64 {
    match c {
        Some(c) => c * v,
        None => v,
    }
}

// ---------------------------------------------------------------------
// Panel kernels
// ---------------------------------------------------------------------

/// `dst = f · src` per column: each factor kind runs its vector kernel's
/// operation sequence on every column at once.
///
/// CLASS: order-preserving (`Ones` and `Dense` rows follow the `sum`/`dot`
/// order, so every kind is bit-identical to its vector kernel)
fn panel_fwd(f: &Matrix, src: Src<'_>, mut dst: Dst<'_>, scratch: &mut [f64]) {
    match f {
        Matrix::Identity { .. } => copy(src, dst),
        Matrix::Ones { .. } => ones(src, dst),
        Matrix::Prefix { .. } => running(src, dst, false),
        Matrix::Suffix { .. } => running(src, dst, true),
        Matrix::Diagonal(d) => diag_rows(d, src, dst),
        Matrix::Dense(d) => dense_fwd(d, src, dst),
        Matrix::Range(r) => range_fwd(r, src, dst, scratch),
        Matrix::Sparse(s) => {
            for o in 0..src.blocks {
                for i in 0..dst.rows {
                    let row = dst.line(o, i);
                    row.fill(0.0);
                    for (j, v) in s.row_entries(i) {
                        kernels::axpy(row, v, src.line(o, j));
                    }
                }
            }
        }
        Matrix::Scaled(c, a) => {
            panel_fwd(a, src, dst.reborrow(), scratch);
            dst.scale(*c);
        }
        Matrix::Union(blocks) => {
            let mut off = 0;
            for b in blocks.iter() {
                let m = b.rows();
                panel_fwd(b, src, dst.rows(off, m), scratch);
                off += m;
            }
        }
        _ => unreachable!("not a panel factor"),
    }
}

/// `dst = fᵀ · src` per column, mirroring the leaf kernels of
/// `Matrix::rmatvec_plan`.
///
/// CLASS: order-preserving (`Ones` rows follow the `sum` order, as in
/// [`panel_fwd`])
fn panel_bwd(f: &Matrix, src: Src<'_>, mut dst: Dst<'_>, scratch: &mut [f64]) {
    match f {
        Matrix::Identity { .. } => copy(src, dst),
        Matrix::Ones { .. } => ones(src, dst),
        // Prefixᵀ is a suffix sum and vice versa.
        Matrix::Prefix { .. } => running(src, dst, true),
        Matrix::Suffix { .. } => running(src, dst, false),
        Matrix::Diagonal(d) => diag_rows(d, src, dst),
        Matrix::Dense(d) => {
            dst.fill(0.0);
            dense_add(d, src, dst, None);
        }
        Matrix::Sparse(s) => {
            dst.fill(0.0);
            sparse_add(s, src, dst, None);
        }
        Matrix::Range(r) => {
            // The running sums start from `0.0` and never reach `-0.0`,
            // so adding them to zeros keeps their bits.
            dst.fill(0.0);
            range_add(r, src, dst, None, scratch);
        }
        Matrix::Scaled(c, a) => {
            panel_bwd(a, src, dst.reborrow(), scratch);
            dst.scale(*c);
        }
        Matrix::Union(blocks) => {
            // Unionᵀ is a horizontal stack: blocks accumulate into zeros.
            dst.fill(0.0);
            let mut off = 0;
            for b in blocks.iter() {
                let m = b.rows();
                panel_add(b, src.rows(off, m), dst.reborrow(), None, scratch);
                off += m;
            }
        }
        _ => unreachable!("not a panel factor"),
    }
}

/// `dst += fᵀ · (c·src)` per column for a `Union` block, mirroring
/// `Matrix::rmatvec_add_plan` (and the `Scaled` arm's pre-scaled input when `c` is
/// set). Kinds whose vector path accumulates through a dense temporary
/// build that temporary one stack tile at a time.
///
/// CLASS: order-preserving, except `Ones` rows (as in [`panel_bwd`])
fn panel_add(f: &Matrix, src: Src<'_>, mut dst: Dst<'_>, c: Option<f64>, scratch: &mut [f64]) {
    match f {
        Matrix::Identity { .. } if src.contiguous() && dst.contiguous() => {
            for o in 0..src.blocks {
                for (d, &y) in dst.block(o).iter_mut().zip(src.block(o)) {
                    *d += pre(c, y);
                }
            }
        }
        Matrix::Identity { .. } => {
            for o in 0..src.blocks {
                for r in 0..src.rows {
                    for (d, &y) in dst.line(o, r).iter_mut().zip(src.line(o, r)) {
                        *d += pre(c, y);
                    }
                }
            }
        }
        Matrix::Diagonal(dg) => {
            for o in 0..src.blocks {
                for (r, &dr) in dg.iter().enumerate() {
                    for (d, &y) in dst.line(o, r).iter_mut().zip(src.line(o, r)) {
                        *d += dr * pre(c, y);
                    }
                }
            }
        }
        Matrix::Sparse(s) => sparse_add(s, src, dst, c),
        Matrix::Dense(d) => {
            let mut acc = [0.0; TILE];
            for o in 0..src.blocks {
                for j in 0..dst.rows {
                    for (t0, t1) in tiles(src.width) {
                        let acc = &mut acc[..t1 - t0];
                        acc.fill(0.0);
                        for i in 0..src.rows {
                            let dij = d.row_slice(i)[j];
                            for (a, &y) in acc.iter_mut().zip(&src.line(o, i)[t0..t1]) {
                                let y = pre(c, y);
                                if y != 0.0 {
                                    *a += y * dij;
                                }
                            }
                        }
                        kernels::add_assign(&mut dst.line(o, j)[t0..t1], acc);
                    }
                }
            }
        }
        // A single input row (a `Total` block): its sum is one addition,
        // recomputed per output row instead of staged in a tile.
        Matrix::Ones { .. } if src.rows == 1 => {
            for o in 0..src.blocks {
                let y = src.line(o, 0);
                for r in 0..dst.rows {
                    for (d, &yv) in dst.line(o, r).iter_mut().zip(y) {
                        *d += sum_init() + pre(c, yv);
                    }
                }
            }
        }
        Matrix::Ones { .. } => {
            let mut acc = [0.0; TILE];
            for o in 0..src.blocks {
                for (t0, t1) in tiles(src.width) {
                    let acc = &mut acc[..t1 - t0];
                    acc.fill(sum_init());
                    for i in 0..src.rows {
                        for (a, &y) in acc.iter_mut().zip(&src.line(o, i)[t0..t1]) {
                            *a += pre(c, y);
                        }
                    }
                    for r in 0..dst.rows {
                        kernels::add_assign(&mut dst.line(o, r)[t0..t1], acc);
                    }
                }
            }
        }
        Matrix::Prefix { .. } | Matrix::Suffix { .. } => {
            // Prefixᵀ runs from the last row (a suffix sum).
            let rev = matches!(f, Matrix::Prefix { .. });
            let n = src.rows;
            let mut acc = [0.0; TILE];
            for o in 0..src.blocks {
                for (t0, t1) in tiles(src.width) {
                    let acc = &mut acc[..t1 - t0];
                    acc.fill(0.0);
                    for i in 0..n {
                        let r = if rev { n - 1 - i } else { i };
                        for (a, &y) in acc.iter_mut().zip(&src.line(o, r)[t0..t1]) {
                            *a += pre(c, y);
                        }
                        kernels::add_assign(&mut dst.line(o, r)[t0..t1], acc);
                    }
                }
            }
        }
        Matrix::Range(r) => range_add(r, src, dst, c, scratch),
        Matrix::Scaled(s, a) => {
            debug_assert!(c.is_none(), "union blocks carry one scaling at most");
            panel_add(a, src, dst, Some(*s), scratch);
        }
        _ => unreachable!("not a panel union block"),
    }
}

fn copy(src: Src<'_>, mut dst: Dst<'_>) {
    for o in 0..src.blocks {
        if src.contiguous() && dst.contiguous() {
            for (d, &s) in dst.block(o).iter_mut().zip(src.block(o)) {
                *d = s;
            }
        } else {
            for r in 0..src.rows {
                dst.line(o, r).copy_from_slice(src.line(o, r));
            }
        }
    }
}

/// Every output row is the column sum of the input rows, accumulated in
/// row 0 from `Iterator::sum`'s initial value like `kernels::sum`.
fn ones(src: Src<'_>, mut dst: Dst<'_>) {
    if dst.rows == 0 {
        return;
    }
    if src.width == 1 && src.contiguous() && dst.contiguous() {
        for o in 0..src.blocks {
            let v = src.block(o).iter().fold(sum_init(), |a, &b| a + b);
            dst.block(o).fill(v);
        }
        return;
    }
    for o in 0..src.blocks {
        let acc = dst.line(o, 0);
        acc.fill(sum_init());
        for i in 0..src.rows {
            kernels::add_assign(acc, src.line(o, i));
        }
        for r in 1..dst.rows {
            let (first, row) = dst.lines2(o, 0, r);
            row.copy_from_slice(first);
        }
    }
}

/// Running sums down the rows (`rev`: up from the last row), as
/// `kernels::prefix_sum_into` / `suffix_sum_into` run them along a vector:
/// each output row is the previous one plus the input row, starting from
/// `0.0`.
fn running(src: Src<'_>, mut dst: Dst<'_>, rev: bool) {
    let n = src.rows;
    let at = |i: usize| if rev { n - 1 - i } else { i };
    for o in 0..src.blocks {
        for i in 0..n {
            let r = at(i);
            if i == 0 {
                let row = dst.line(o, r);
                row.fill(0.0);
                kernels::add_assign(row, src.line(o, r));
            } else {
                let (prev, row) = dst.lines2(o, at(i - 1), r);
                for ((d, &p), &x) in row.iter_mut().zip(prev).zip(src.line(o, r)) {
                    *d = p + x;
                }
            }
        }
    }
}

/// `dst = R · src` for interval rows `R`: per column tile, prefix sums
/// down the rows from `0.0` (as `kernels::prefix_sum_into` runs them
/// along a vector, behind a leading `0.0`), then each interval's
/// difference `P[hi] − P[lo]`, as `RangeQueries::matvec_into` does.
/// `scratch` holds `(n + 1) · min(width, TILE)` scalars.
///
/// CLASS: order-preserving
fn range_fwd(r: &RangeQueries, src: Src<'_>, mut dst: Dst<'_>, scratch: &mut [f64]) {
    let n = r.domain();
    for o in 0..src.blocks {
        for (t0, t1) in tiles(src.width) {
            let w = t1 - t0;
            let p = &mut scratch[..(n + 1) * w];
            p[..w].fill(0.0);
            for i in 0..n {
                let (prev, next) = p[i * w..(i + 2) * w].split_at_mut(w);
                for ((d, &a), &x) in next.iter_mut().zip(&*prev).zip(&src.line(o, i)[t0..t1]) {
                    *d = a + x;
                }
            }
            for (k, (lo, hi)) in r.ranges().enumerate() {
                let (lo, hi) = (&p[lo * w..(lo + 1) * w], &p[hi * w..(hi + 1) * w]);
                for ((d, &h), &l) in dst.line(o, k)[t0..t1].iter_mut().zip(hi).zip(lo) {
                    *d = h - l;
                }
            }
        }
    }
}

/// `dst += Rᵀ · (c·src)`: the difference array of
/// `RangeQueries::rmatvec_into` (an interval ending at `n` drops its end
/// mark, which the vector kernel writes but never reads) and its running
/// sums from `0.0`, built one column tile at a time in `scratch` (the
/// vector path's dense temporary), then added to `dst`. `scratch` holds
/// `n · min(width, TILE)` scalars.
///
/// CLASS: order-preserving
fn range_add(
    r: &RangeQueries,
    src: Src<'_>,
    mut dst: Dst<'_>,
    c: Option<f64>,
    scratch: &mut [f64],
) {
    let n = dst.rows;
    for o in 0..src.blocks {
        for (t0, t1) in tiles(src.width) {
            let w = t1 - t0;
            let t = &mut scratch[..n * w];
            t.fill(0.0);
            for (k, (lo, hi)) in r.ranges().enumerate() {
                let y = &src.line(o, k)[t0..t1];
                for (d, &v) in t[lo * w..(lo + 1) * w].iter_mut().zip(y) {
                    *d += pre(c, v);
                }
                if hi < n {
                    for (d, &v) in t[hi * w..(hi + 1) * w].iter_mut().zip(y) {
                        *d -= pre(c, v);
                    }
                }
            }
            for d in &mut t[..w] {
                *d += 0.0;
            }
            for i in 1..n {
                let (prev, row) = t[(i - 1) * w..(i + 1) * w].split_at_mut(w);
                for (d, &p) in row.iter_mut().zip(&*prev) {
                    *d += p;
                }
            }
            for i in 0..n {
                kernels::add_assign(&mut dst.line(o, i)[t0..t1], &t[i * w..(i + 1) * w]);
            }
        }
    }
}

fn diag_rows(d: &[f64], src: Src<'_>, mut dst: Dst<'_>) {
    for o in 0..src.blocks {
        for (r, &dr) in d.iter().enumerate() {
            kernels::scale_into(dst.line(o, r), dr, src.line(o, r));
        }
    }
}

/// Row `i` is `Σ_k D[i,k]·x_k`, accumulated from `Iterator::sum`'s initial
/// value in `k` order like `kernels::dot`.
fn dense_fwd(d: &DenseMatrix, src: Src<'_>, mut dst: Dst<'_>) {
    for o in 0..src.blocks {
        for i in 0..dst.rows {
            let row = dst.line(o, i);
            row.fill(sum_init());
            for (k, &dik) in d.row_slice(i).iter().enumerate() {
                kernels::axpy(row, dik, src.line(o, k));
            }
        }
    }
}

/// `dst += Dᵀ·(c·src)` row by row, skipping zero inputs per column like
/// `DenseMatrix::rmatvec_into`.
fn dense_add(d: &DenseMatrix, src: Src<'_>, mut dst: Dst<'_>, c: Option<f64>) {
    for o in 0..src.blocks {
        for i in 0..src.rows {
            let y = src.line(o, i);
            for (j, &dij) in d.row_slice(i).iter().enumerate() {
                for (out, &yv) in dst.line(o, j).iter_mut().zip(y) {
                    let yv = pre(c, yv);
                    if yv != 0.0 {
                        *out += yv * dij;
                    }
                }
            }
        }
    }
}

/// `dst += Sᵀ·(c·src)`, skipping zero inputs per column like
/// `CsrMatrix::rmatvec_into`.
fn sparse_add(s: &crate::CsrMatrix, src: Src<'_>, mut dst: Dst<'_>, c: Option<f64>) {
    for o in 0..src.blocks {
        for i in 0..src.rows {
            let y = src.line(o, i);
            for (j, v) in s.row_entries(i) {
                for (out, &yv) in dst.line(o, j).iter_mut().zip(y) {
                    let yv = pre(c, yv);
                    if yv != 0.0 {
                        *out += yv * v;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fiber walk
// ---------------------------------------------------------------------

/// Applies a non-panel factor fiber by fiber: gathers [`kernels::KRON_PANEL`]
/// columns of a block, evaluates the factor's plan on each, and writes the
/// results back. With `inner = 1` the fibers are contiguous and each block
/// is one direct slice call. `scratch` holds the step's `extra` scalars.
fn fiber(
    f: &Matrix,
    plan: &NodePlan,
    t: bool,
    src: Src<'_>,
    mut dst: Dst<'_>,
    scratch: &mut [f64],
) {
    let eval = |x: &[f64], out: &mut [f64], scratch: &mut [f64]| {
        if t {
            f.rmatvec_plan(plan, x, out, scratch)
        } else {
            f.matvec_plan(plan, x, out, scratch)
        }
    };
    let (n_in, n_out, w) = (src.rows, dst.rows, src.width);
    if w == 1 && src.contiguous() {
        for o in 0..src.blocks {
            eval(src.block(o), dst.block(o), scratch);
        }
        return;
    }
    let (cols, rest) = scratch.split_at_mut(KRON_PANEL * n_in);
    let (ocols, rest) = rest.split_at_mut(KRON_PANEL * n_out);
    for o in 0..src.blocks {
        let mut q = 0;
        while q < w {
            let k = if q + KRON_PANEL <= w { KRON_PANEL } else { 1 };
            if k == KRON_PANEL {
                let at = o * src.block;
                kernels::gather_panel(&src.data[at..], src.row, q, n_in, cols);
            } else {
                for (r, c) in cols[..n_in].iter_mut().enumerate() {
                    *c = src.line(o, r)[q];
                }
            }
            for j in 0..k {
                let col = &cols[j * n_in..(j + 1) * n_in];
                eval(col, &mut ocols[j * n_out..(j + 1) * n_out], rest);
            }
            for r in 0..n_out {
                let row = &mut dst.line(o, r)[q..q + k];
                for (j, v) in row.iter_mut().enumerate() {
                    *v = ocols[j * n_out + r];
                }
            }
            q += k;
        }
    }
}
