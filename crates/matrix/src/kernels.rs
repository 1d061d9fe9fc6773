//! Shared compute kernels for the hot inner loops.
//!
//! Every scalar loop the engine runs in steady state — the solver
//! primitives (`dot`/`axpy`/`scale`/`norm2`), the leaf accumulations of
//! [`crate::Matrix`] evaluation (prefix/suffix sums, diagonal products,
//! union scatter-adds) and the dense row blocks — lives here, exactly
//! once. Two implementations exist side by side:
//!
//! * [`scalar`] — plain sequential reference loops, always compiled;
//! * [`simd`] — portable 4-lane blocked versions (`[f64; 4]` blocks the
//!   optimizer lowers to vector instructions; no intrinsics, no runtime
//!   detection), always compiled so tests and benches can compare the two
//!   in one build.
//!
//! The module's top-level re-exports select one of them at **compile
//! time**: the `simd` feature picks [`simd`], otherwise the scalar
//! fallback is used. The default build therefore runs the reference
//! loops, and CI keeps both legs green.
//!
//! # Bit-identity vs documented tolerance
//!
//! Kernels fall into two classes, and the distinction is load-bearing for
//! the engine's determinism gates:
//!
//! * **Order-preserving** kernels ([`axpy`], [`xpay`], [`scale`],
//!   [`scale_into`], [`add_assign`], [`mul_into`], [`mul_add_assign`],
//!   [`rsub`], the panel gather/scatters and the prefix/suffix sums)
//!   perform the identical per-element arithmetic in the identical order
//!   as the scalar reference — blocking only changes how the loop is
//!   *written*, never which operation produces which element. Their
//!   results are **bit-identical** to scalar (no fused multiply-add: FMA's
//!   single rounding would differ from scalar mul-then-add), so they join
//!   the existing bit-identity determinism suites unchanged.
//! * **Reassociating** reductions ([`dot`], [`sum`], [`sumsq`], and
//!   [`norm2`] built on them) sum in a *pinned* fixed tree under `simd`:
//!   two independent 4-lane accumulators over 8-element blocks, reduced
//!   lane-wise (`acc0 + acc1`), then as `(v0 + v1) + (v2 + v3)`, then a
//!   sequential scalar tail. That order differs from the scalar
//!   left-to-right sum, so the two legs agree only to rounding (relative
//!   error `O(n·ε)`, tolerance-tested in `proptest_kernels.rs`) — but the
//!   tree is a compile-time constant, so each leg is fully deterministic.
//!   [`par_dot`] extends the same policy across threads: chunk geometry
//!   comes from [`crate::pool::configured_parallelism`] (a process
//!   constant) and partials merge in fixed chunk order, so its result is
//!   bit-identical for every pool size, including 0.

use crate::pool;

/// f64 lanes per SIMD block (the portable vector width every blocked
/// kernel is written for).
pub const LANES: usize = 4;

/// Columns gathered per pass by the Kronecker fiber walk (the per-fiber
/// evaluation of factors that have no panel kernel).
pub const KRON_PANEL: usize = 4;

/// Reductions run two independent [`LANES`]-wide accumulators.
const UNROLL: usize = 2 * LANES;

/// Sequential reference implementations — the scalar fallback leg, and
/// the yardstick every blocked kernel is tested against.
pub mod scalar {
    /// Inner product `⟨a, b⟩`, summed left to right.
    ///
    /// CLASS: reassociating
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// Sum of all entries, left to right.
    ///
    /// CLASS: reassociating
    #[inline]
    pub fn sum(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    /// Sum of squares, left to right.
    ///
    /// CLASS: reassociating
    #[inline]
    pub fn sumsq(v: &[f64]) -> f64 {
        v.iter().map(|&x| x * x).sum()
    }

    /// `y ← y + a·x`, element-wise in order.
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// `y ← x + b·y`, element-wise in order.
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn xpay(y: &mut [f64], b: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = xi + b * *yi;
        }
    }

    /// `v ← c·v`, element-wise in order.
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn scale(v: &mut [f64], c: f64) {
        for x in v {
            *x *= c;
        }
    }

    /// `out ← c·x`, element-wise in order.
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn scale_into(out: &mut [f64], c: f64, x: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        for (o, &xi) in out.iter_mut().zip(x) {
            *o = c * xi;
        }
    }

    /// `out ← out + x` — the scatter-add merge.
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn add_assign(out: &mut [f64], x: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        for (o, &xi) in out.iter_mut().zip(x) {
            *o += xi;
        }
    }

    /// `out ← d ⊙ x` (diagonal product).
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn mul_into(out: &mut [f64], d: &[f64], x: &[f64]) {
        debug_assert_eq!(out.len(), d.len());
        debug_assert_eq!(out.len(), x.len());
        for ((o, &di), &xi) in out.iter_mut().zip(d).zip(x) {
            *o = di * xi;
        }
    }

    /// `out ← out + d ⊙ x` (accumulating diagonal product).
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn mul_add_assign(out: &mut [f64], d: &[f64], x: &[f64]) {
        debug_assert_eq!(out.len(), d.len());
        debug_assert_eq!(out.len(), x.len());
        for ((o, &di), &xi) in out.iter_mut().zip(d).zip(x) {
            *o += di * xi;
        }
    }

    /// `e ← y − e` (residual reversal, the multiplicative-weights update).
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn rsub(e: &mut [f64], y: &[f64]) {
        debug_assert_eq!(e.len(), y.len());
        for (ei, &yi) in e.iter_mut().zip(y) {
            *ei = yi - *ei;
        }
    }
}

/// Portable 4-lane blocked implementations, selected by the `simd`
/// feature. Order-preserving kernels are bit-identical to [`scalar`];
/// reductions use the pinned fixed tree documented at module level.
pub mod simd {
    use super::{LANES, UNROLL};

    /// Folds the pinned reduction state (two 4-lane accumulators) and the
    /// sequential tail into the final scalar: lane-wise `acc0 + acc1`,
    /// then `(v0 + v1) + (v2 + v3)`, then the remainder left to right.
    #[inline]
    fn reduce(acc0: [f64; LANES], acc1: [f64; LANES], tail: impl Iterator<Item = f64>) -> f64 {
        let v = [
            acc0[0] + acc1[0],
            acc0[1] + acc1[1],
            acc0[2] + acc1[2],
            acc0[3] + acc1[3],
        ];
        let mut s = (v[0] + v[1]) + (v[2] + v[3]);
        for t in tail {
            s += t;
        }
        s
    }

    /// Inner product `⟨a, b⟩` over the pinned fixed reduction tree.
    ///
    /// CLASS: reassociating
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut ca = a.chunks_exact(UNROLL);
        let mut cb = b.chunks_exact(UNROLL);
        let mut acc0 = [0.0; LANES];
        let mut acc1 = [0.0; LANES];
        for (pa, pb) in (&mut ca).zip(&mut cb) {
            for l in 0..LANES {
                acc0[l] += pa[l] * pb[l];
                acc1[l] += pa[LANES + l] * pb[LANES + l];
            }
        }
        let tail = ca.remainder().iter().zip(cb.remainder());
        reduce(acc0, acc1, tail.map(|(&x, &y)| x * y))
    }

    /// Sum of all entries over the pinned fixed reduction tree.
    ///
    /// CLASS: reassociating
    #[inline]
    pub fn sum(v: &[f64]) -> f64 {
        let mut cv = v.chunks_exact(UNROLL);
        let mut acc0 = [0.0; LANES];
        let mut acc1 = [0.0; LANES];
        for p in &mut cv {
            for l in 0..LANES {
                acc0[l] += p[l];
                acc1[l] += p[LANES + l];
            }
        }
        reduce(acc0, acc1, cv.remainder().iter().copied())
    }

    /// Sum of squares over the pinned fixed reduction tree.
    ///
    /// CLASS: reassociating
    #[inline]
    pub fn sumsq(v: &[f64]) -> f64 {
        let mut cv = v.chunks_exact(UNROLL);
        let mut acc0 = [0.0; LANES];
        let mut acc1 = [0.0; LANES];
        for p in &mut cv {
            for l in 0..LANES {
                acc0[l] += p[l] * p[l];
                acc1[l] += p[LANES + l] * p[LANES + l];
            }
        }
        reduce(acc0, acc1, cv.remainder().iter().map(|&x| x * x))
    }

    /// `y ← y + a·x`; bit-identical to [`super::scalar::axpy`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        let mut cy = y.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (py, px) in (&mut cy).zip(&mut cx) {
            for l in 0..LANES {
                py[l] += a * px[l];
            }
        }
        for (yi, &xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
            *yi += a * xi;
        }
    }

    /// `y ← x + b·y`; bit-identical to [`super::scalar::xpay`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn xpay(y: &mut [f64], b: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        let mut cy = y.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (py, px) in (&mut cy).zip(&mut cx) {
            for l in 0..LANES {
                py[l] = px[l] + b * py[l];
            }
        }
        for (yi, &xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
            *yi = xi + b * *yi;
        }
    }

    /// `v ← c·v`; bit-identical to [`super::scalar::scale`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn scale(v: &mut [f64], c: f64) {
        let mut cv = v.chunks_exact_mut(LANES);
        for p in &mut cv {
            for x in p.iter_mut() {
                *x *= c;
            }
        }
        for x in cv.into_remainder() {
            *x *= c;
        }
    }

    /// `out ← c·x`; bit-identical to [`super::scalar::scale_into`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn scale_into(out: &mut [f64], c: f64, x: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        let mut co = out.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (po, px) in (&mut co).zip(&mut cx) {
            for l in 0..LANES {
                po[l] = c * px[l];
            }
        }
        for (o, &xi) in co.into_remainder().iter_mut().zip(cx.remainder()) {
            *o = c * xi;
        }
    }

    /// `out ← out + x`; bit-identical to [`super::scalar::add_assign`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn add_assign(out: &mut [f64], x: &[f64]) {
        debug_assert_eq!(out.len(), x.len());
        let mut co = out.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (po, px) in (&mut co).zip(&mut cx) {
            for l in 0..LANES {
                po[l] += px[l];
            }
        }
        for (o, &xi) in co.into_remainder().iter_mut().zip(cx.remainder()) {
            *o += xi;
        }
    }

    /// `out ← d ⊙ x`; bit-identical to [`super::scalar::mul_into`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn mul_into(out: &mut [f64], d: &[f64], x: &[f64]) {
        debug_assert_eq!(out.len(), d.len());
        debug_assert_eq!(out.len(), x.len());
        let mut co = out.chunks_exact_mut(LANES);
        let mut cd = d.chunks_exact(LANES);
        let mut cx = x.chunks_exact(LANES);
        for ((po, pd), px) in (&mut co).zip(&mut cd).zip(&mut cx) {
            for l in 0..LANES {
                po[l] = pd[l] * px[l];
            }
        }
        let tail = cd.remainder().iter().zip(cx.remainder());
        for (o, (&di, &xi)) in co.into_remainder().iter_mut().zip(tail) {
            *o = di * xi;
        }
    }

    /// `out ← out + d ⊙ x`; bit-identical to
    /// [`super::scalar::mul_add_assign`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn mul_add_assign(out: &mut [f64], d: &[f64], x: &[f64]) {
        debug_assert_eq!(out.len(), d.len());
        debug_assert_eq!(out.len(), x.len());
        let mut co = out.chunks_exact_mut(LANES);
        let mut cd = d.chunks_exact(LANES);
        let mut cx = x.chunks_exact(LANES);
        for ((po, pd), px) in (&mut co).zip(&mut cd).zip(&mut cx) {
            for l in 0..LANES {
                po[l] += pd[l] * px[l];
            }
        }
        let tail = cd.remainder().iter().zip(cx.remainder());
        for (o, (&di, &xi)) in co.into_remainder().iter_mut().zip(tail) {
            *o += di * xi;
        }
    }

    /// `e ← y − e`; bit-identical to [`super::scalar::rsub`].
    ///
    /// CLASS: order-preserving
    #[inline]
    pub fn rsub(e: &mut [f64], y: &[f64]) {
        debug_assert_eq!(e.len(), y.len());
        let mut ce = e.chunks_exact_mut(LANES);
        let mut cy = y.chunks_exact(LANES);
        for (pe, py) in (&mut ce).zip(&mut cy) {
            for l in 0..LANES {
                pe[l] = py[l] - pe[l];
            }
        }
        for (ei, &yi) in ce.into_remainder().iter_mut().zip(cy.remainder()) {
            *ei = yi - *ei;
        }
    }
}

#[cfg(not(feature = "simd"))]
pub use scalar::{
    add_assign, axpy, dot, mul_add_assign, mul_into, rsub, scale, scale_into, sum, sumsq, xpay,
};
#[cfg(feature = "simd")]
pub use simd::{
    add_assign, axpy, dot, mul_add_assign, mul_into, rsub, scale, scale_into, sum, sumsq, xpay,
};

/// Euclidean norm `‖v‖₂` (built on the selected [`sumsq`], so it inherits
/// the reassociating-reduction tolerance policy under `simd`).
///
/// CLASS: reassociating
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    sumsq(v).sqrt()
}

/// Running prefix sum: `out[i] = x[0] + … + x[i]`.
///
/// Deliberately **not** blocked: a vectorized prefix scan reassociates the
/// chain, and the prefix/suffix leaves are order-preserving kernels under
/// the engine's determinism policy. Both feature legs share this single
/// sequential implementation.
///
/// CLASS: order-preserving
#[inline]
pub fn prefix_sum_into(out: &mut [f64], x: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    let mut acc = 0.0;
    for (o, &xi) in out.iter_mut().zip(x) {
        acc += xi;
        *o = acc;
    }
}

/// Running suffix sum: `out[i] = x[i] + … + x[n−1]` (the transpose of
/// [`prefix_sum_into`]); sequential for the same reason.
///
/// CLASS: order-preserving
#[inline]
pub fn suffix_sum_into(out: &mut [f64], x: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    let mut acc = 0.0;
    for (o, &xi) in out.iter_mut().rev().zip(x.iter().rev()) {
        acc += xi;
        *o = acc;
    }
}

/// Gathers the [`KRON_PANEL`] consecutive columns `q .. q+KRON_PANEL` of
/// the row-major `rows × stride` matrix `t` into `panel`, column-major
/// (column `j` of the panel occupies `panel[j·rows ..][.. rows]`).
///
/// One pass over `t` reads four adjacent entries per row instead of one,
/// amortizing the strided cache-line traffic of the Kronecker fiber-walk
/// gather fourfold. Pure data movement: bit-identical to four
/// single-column gathers.
///
/// CLASS: order-preserving
pub fn gather_panel(t: &[f64], stride: usize, q: usize, rows: usize, panel: &mut [f64]) {
    assert!(q + KRON_PANEL <= stride, "panel gather out of bounds");
    assert_eq!(panel.len(), KRON_PANEL * rows, "panel buffer mis-sized");
    let (p0, r) = panel.split_at_mut(rows);
    let (p1, r) = r.split_at_mut(rows);
    let (p2, p3) = r.split_at_mut(rows);
    for (i, (((o0, o1), o2), o3)) in p0.iter_mut().zip(p1).zip(p2).zip(p3).enumerate() {
        let row = &t[i * stride + q..i * stride + q + KRON_PANEL];
        *o0 = row[0];
        *o1 = row[1];
        *o2 = row[2];
        *o3 = row[3];
    }
}

/// Scatters a column-major [`KRON_PANEL`]-wide `panel` (layout as in
/// [`gather_panel`]) into columns `q .. q+KRON_PANEL` of the row-major
/// `rows × stride` matrix `out`. Pure data movement: bit-identical to four
/// single-column scatters.
///
/// CLASS: order-preserving
pub fn scatter_panel(panel: &[f64], rows: usize, out: &mut [f64], stride: usize, q: usize) {
    assert!(q + KRON_PANEL <= stride, "panel scatter out of bounds");
    assert_eq!(panel.len(), KRON_PANEL * rows, "panel buffer mis-sized");
    let (p0, r) = panel.split_at(rows);
    let (p1, r) = r.split_at(rows);
    let (p2, p3) = r.split_at(rows);
    for (i, (((&v0, &v1), &v2), &v3)) in p0.iter().zip(p1).zip(p2).zip(p3).enumerate() {
        let row = &mut out[i * stride + q..i * stride + q + KRON_PANEL];
        row[0] = v0;
        row[1] = v1;
        row[2] = v2;
        row[3] = v3;
    }
}

/// Minimum vector length before [`par_dot`] splits across the pool;
/// below it the dispatch overhead exceeds the arithmetic.
const PAR_DOT_MIN: usize = 1 << 15;

/// Inner product with pool-threaded chunk reduction.
///
/// The vector is split into [`pool::configured_parallelism`] fixed chunks
/// (a process constant — **not** the live worker count), each chunk's
/// partial is computed with the selected [`dot`] kernel by one
/// [`pool::scope`] job writing its own slot of a stack partials array,
/// and the partials are summed on the caller in fixed chunk order.
/// Changing [`pool::set_workers`] therefore never changes the result: it is bit-identical for every pool size,
/// including 0 (everything inline), and for every steal interleaving —
/// when all workers are busy, spawns queue on per-worker deques and may
/// execute via work stealing, which moves chunks but never reorders the
/// caller-side sum. Short vectors skip the pool entirely and return
/// `dot(a, b)`. Allocation-free: partials live in a stack array and the
/// pool copies each job into a preallocated slot.
///
/// WARM: allocation-free by contract — partials live in a stack array and
/// pool dispatch is allocation-free (xlint `warm-path-alloc`).
///
/// CLASS: reassociating
pub fn par_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "par_dot length mismatch");
    let n = a.len();
    let k = pool::configured_parallelism();
    if n < PAR_DOT_MIN || k < 2 {
        return dot(a, b);
    }
    let chunk = n.div_ceil(k);
    let nchunks = n.div_ceil(chunk);
    let mut partials = [0.0f64; pool::MAX_WORKERS];
    pool::scope(|s| {
        for (c, p) in partials.iter_mut().take(nchunks).enumerate() {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(n);
            let (ac, bc) = (&a[lo..hi], &b[lo..hi]);
            s.spawn(move || *p = dot(ac, bc));
        }
    });
    // Fixed-order sequential merge of the fixed-geometry partials.
    let mut s = 0.0;
    for &p in &partials[..nchunks] {
        s += p;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 19) as f64 * 0.31 - 2.7)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 53) % 23) as f64 * 0.17 - 1.9)
            .collect();
        (a, b)
    }

    #[test]
    fn order_preserving_kernels_bit_match_scalar_at_odd_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1023] {
            let (x, d) = data(n);
            let mut ys = x.clone();
            let mut yv = x.clone();
            scalar::axpy(&mut ys, 1.3, &d);
            simd::axpy(&mut yv, 1.3, &d);
            assert_eq!(ys, yv, "axpy n={n}");
            scalar::xpay(&mut ys, -0.7, &d);
            simd::xpay(&mut yv, -0.7, &d);
            assert_eq!(ys, yv, "xpay n={n}");
            scalar::scale(&mut ys, 1.0 / 3.0);
            simd::scale(&mut yv, 1.0 / 3.0);
            assert_eq!(ys, yv, "scale n={n}");
            scalar::add_assign(&mut ys, &x);
            simd::add_assign(&mut yv, &x);
            assert_eq!(ys, yv, "add_assign n={n}");
            scalar::mul_into(&mut ys, &d, &x);
            simd::mul_into(&mut yv, &d, &x);
            assert_eq!(ys, yv, "mul_into n={n}");
            scalar::mul_add_assign(&mut ys, &d, &x);
            simd::mul_add_assign(&mut yv, &d, &x);
            assert_eq!(ys, yv, "mul_add_assign n={n}");
            scalar::rsub(&mut ys, &d);
            simd::rsub(&mut yv, &d);
            assert_eq!(ys, yv, "rsub n={n}");
            scalar::scale_into(&mut ys, 0.9, &x);
            simd::scale_into(&mut yv, 0.9, &x);
            assert_eq!(ys, yv, "scale_into n={n}");
        }
    }

    #[test]
    fn reductions_agree_within_tolerance_and_are_deterministic() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let (a, b) = data(n);
            let (ds, dv) = (scalar::dot(&a, &b), simd::dot(&a, &b));
            let bound = 1e-12 * (1.0 + ds.abs()) * (n as f64 + 1.0);
            assert!((ds - dv).abs() <= bound, "dot n={n}: {ds} vs {dv}");
            assert_eq!(dv.to_bits(), simd::dot(&a, &b).to_bits());
            let (ss, sv) = (scalar::sum(&a), simd::sum(&a));
            assert!((ss - sv).abs() <= bound, "sum n={n}: {ss} vs {sv}");
            let (qs, qv) = (scalar::sumsq(&a), simd::sumsq(&a));
            assert!((qs - qv).abs() <= bound, "sumsq n={n}: {qs} vs {qv}");
        }
    }

    #[test]
    fn prefix_and_suffix_sums_match_reference() {
        let (x, _) = data(13);
        let mut p = vec![0.0; 13];
        prefix_sum_into(&mut p, &x);
        let mut acc = 0.0;
        for (pi, &xi) in p.iter().zip(&x) {
            acc += xi;
            assert_eq!(*pi, acc);
        }
        let mut s = vec![0.0; 13];
        suffix_sum_into(&mut s, &x);
        let mut acc = 0.0;
        for (si, &xi) in s.iter().zip(&x).rev() {
            acc += xi;
            assert_eq!(*si, acc);
        }
    }

    #[test]
    fn panel_gather_scatter_round_trips() {
        let (rows, stride) = (5usize, 9usize);
        let t: Vec<f64> = (0..rows * stride).map(|i| i as f64).collect();
        let mut panel = vec![0.0; KRON_PANEL * rows];
        gather_panel(&t, stride, 2, rows, &mut panel);
        for j in 0..KRON_PANEL {
            for i in 0..rows {
                assert_eq!(panel[j * rows + i], t[i * stride + 2 + j]);
            }
        }
        let mut out = vec![0.0; rows * stride];
        scatter_panel(&panel, rows, &mut out, stride, 2);
        for i in 0..rows {
            for j in 0..KRON_PANEL {
                assert_eq!(out[i * stride + 2 + j], t[i * stride + 2 + j]);
            }
        }
    }

    #[test]
    fn par_dot_matches_fixed_chunk_reference() {
        let n = PAR_DOT_MIN + 37;
        let (a, b) = data(n);
        let k = pool::configured_parallelism();
        let got = par_dot(&a, &b);
        if k < 2 {
            assert_eq!(got.to_bits(), dot(&a, &b).to_bits());
            return;
        }
        let chunk = n.div_ceil(k);
        let mut expect = 0.0;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            expect += dot(&a[lo..hi], &b[lo..hi]);
            lo = hi;
        }
        assert_eq!(got.to_bits(), expect.to_bits());
    }
}
