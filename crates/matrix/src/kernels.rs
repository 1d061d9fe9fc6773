//! Shared compute kernels for the hot inner loops.
//!
//! Every scalar loop the engine runs in steady state — the solver
//! primitives (`dot`/`axpy`/`scale`/`norm2`), the leaf accumulations of
//! [`crate::Matrix`] evaluation (prefix/suffix sums, diagonal products,
//! union scatter-adds) and the dense row blocks — lives here, exactly
//! once, as one plain sequential loop. The optimizer may vectorize the
//! element-wise loops, but it never reorders a floating-point reduction,
//! so every kernel's result is a fixed function of its inputs.
//!
//! # Kernel classes
//!
//! Every public kernel declares one of two classes (xlint `kernel-class`),
//! and the distinction is load-bearing for the engine's determinism gates:
//!
//! * **Order-preserving** kernels ([`axpy`], [`xpay`], [`scale`],
//!   [`scale_into`], [`add_assign`], [`mul_into`], [`mul_add_assign`],
//!   [`rsub`], the panel gather/scatters and the prefix/suffix sums)
//!   compute each output element by a fixed sequence of operations, with
//!   no fused multiply-add (FMA's single rounding would differ from
//!   mul-then-add). Any other loop that performs the same per-element
//!   sequence — such as the N-ary Kronecker panel kernels in `kron.rs` —
//!   is **bit-identical** to them.
//! * **Reassociating** reductions ([`dot`], [`sum`], [`sumsq`] and
//!   [`norm2`] built on them) produce a result that depends on the
//!   summation order. All of them sum left to right, on the caller.
//!   Changing any reduction's order is a tolerance change: declare it
//!   here and test it in `proptest_kernels.rs`.

/// Columns gathered per pass by the Kronecker fiber walk (the per-fiber
/// evaluation of factors that have no panel kernel).
pub const KRON_PANEL: usize = 4;

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

/// Euclidean norm `‖v‖₂`, the square root of [`sumsq`].
///
/// CLASS: reassociating
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    sumsq(v).sqrt()
}

/// Running prefix sum: `out[i] = x[0] + … + x[i]`.
///
/// Sequential on purpose: a vectorized prefix scan reassociates the
/// chain, and the prefix/suffix leaves are order-preserving kernels under
/// the engine's determinism policy.
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Each order-preserving kernel against the per-element expression it
    /// is documented to compute, written out here as a plain map.
    #[test]
    fn order_preserving_kernels_match_inline_loops_at_odd_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1023] {
            let (x, d) = data(n);
            let check = |what: &str, got: &[f64], want: Vec<f64>| {
                assert_eq!(bits(got), bits(&want), "{what} n={n}");
            };
            let mut y = x.clone();
            let want = y.iter().zip(&d).map(|(&yi, &di)| yi + 1.3 * di).collect();
            axpy(&mut y, 1.3, &d);
            check("axpy", &y, want);
            let want = y.iter().zip(&d).map(|(&yi, &di)| di + -0.7 * yi).collect();
            xpay(&mut y, -0.7, &d);
            check("xpay", &y, want);
            let want = y.iter().map(|&yi| yi * (1.0 / 3.0)).collect();
            scale(&mut y, 1.0 / 3.0);
            check("scale", &y, want);
            let want = y.iter().zip(&x).map(|(&yi, &xi)| yi + xi).collect();
            add_assign(&mut y, &x);
            check("add_assign", &y, want);
            let want = d.iter().zip(&x).map(|(&di, &xi)| di * xi).collect();
            mul_into(&mut y, &d, &x);
            check("mul_into", &y, want);
            let want = y
                .iter()
                .zip(d.iter().zip(&x))
                .map(|(&yi, (&di, &xi))| yi + di * xi)
                .collect();
            mul_add_assign(&mut y, &d, &x);
            check("mul_add_assign", &y, want);
            let want = y.iter().zip(&d).map(|(&yi, &di)| di - yi).collect();
            rsub(&mut y, &d);
            check("rsub", &y, want);
            let want = x.iter().map(|&xi| 0.9 * xi).collect();
            scale_into(&mut y, 0.9, &x);
            check("scale_into", &y, want);
        }
    }

    /// The reductions against a left-to-right fold. The fold starts at
    /// `-0.0`, the exact additive identity (and std's `Sum` start), so an
    /// empty input gives the same zero as the kernel.
    #[test]
    fn reductions_match_left_to_right_fold() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let (a, b) = data(n);
            let fold = |it: &mut dyn Iterator<Item = f64>| it.fold(-0.0, |s, t| s + t);
            let want_dot = fold(&mut a.iter().zip(&b).map(|(&x, &y)| x * y));
            assert_eq!(dot(&a, &b).to_bits(), want_dot.to_bits(), "dot n={n}");
            let want_sum = fold(&mut a.iter().copied());
            assert_eq!(sum(&a).to_bits(), want_sum.to_bits(), "sum n={n}");
            let want_sq = fold(&mut a.iter().map(|&x| x * x));
            assert_eq!(sumsq(&a).to_bits(), want_sq.to_bits(), "sumsq n={n}");
            assert_eq!(norm2(&a).to_bits(), want_sq.sqrt().to_bits(), "norm2 n={n}");
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
}
