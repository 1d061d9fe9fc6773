//! Property tests for the compute-kernel layer.
//!
//! Every kernel is checked against an independent oracle written out in
//! this file, never against another kernel:
//!
//! * order-preserving kernels must equal the per-element expression they
//!   document **bit-exactly**, at odd lengths and misaligned sub-slice
//!   offsets;
//! * the reductions (`dot`, `sum`, `norm2`) must equal a left-to-right
//!   fold bit-exactly (the private `sumsq` under `norm2` is pinned the
//!   same way beside it, in `kernels.rs`), and the prefix/suffix sums a
//!   running accumulator;
//! * the panel gather/scatter pair must round-trip and match the
//!   column-at-a-time reference exactly (pure data movement).

use ektelo_matrix::kernels::{self, KRON_PANEL};
use proptest::prelude::*;

/// Vectors with lengths 0..=66 (empty, short and every remainder modulo
/// any small block width), plus an offset in 0..4 so sub-slices start
/// off the original allocation head.
fn vec_and_offset() -> BoxedStrategy<(Vec<f64>, usize)> {
    (prop::collection::vec(-4.0f64..4.0, 0..67), 0usize..4)
        .prop_map(|(v, off)| {
            let off = off.min(v.len());
            (v, off)
        })
        .boxed()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Left-to-right sum from `-0.0`, the exact additive identity (and the
/// start of std's `Sum` for `f64`).
fn fold(it: impl Iterator<Item = f64>) -> f64 {
    let mut s = -0.0;
    for t in it {
        s += t;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn order_preserving_kernels_bit_exact((x, off) in vec_and_offset(), c in -3.0f64..3.0) {
        let x = &x[off..];
        let d: Vec<f64> = x.iter().map(|v| v * 0.7 - 0.3).collect();
        let mut y: Vec<f64> = x.iter().map(|v| v * 1.3 + 0.1).collect();

        let want: Vec<f64> = y.iter().zip(x).map(|(&yi, &xi)| yi + c * xi).collect();
        kernels::axpy(&mut y, c, x);
        prop_assert_eq!(bits(&y), bits(&want), "axpy");

        let want: Vec<f64> = y.iter().zip(&d).map(|(&yi, &di)| di + c * yi).collect();
        kernels::xpay(&mut y, c, &d);
        prop_assert_eq!(bits(&y), bits(&want), "xpay");

        let want: Vec<f64> = y.iter().map(|&yi| yi * c).collect();
        kernels::scale(&mut y, c);
        prop_assert_eq!(bits(&y), bits(&want), "scale");

        let want: Vec<f64> = y.iter().zip(x).map(|(&yi, &xi)| yi + xi).collect();
        kernels::add_assign(&mut y, x);
        prop_assert_eq!(bits(&y), bits(&want), "add_assign");

        let want: Vec<f64> = d.iter().zip(x).map(|(&di, &xi)| di * xi).collect();
        kernels::mul_into(&mut y, &d, x);
        prop_assert_eq!(bits(&y), bits(&want), "mul_into");

        let want: Vec<f64> = y
            .iter()
            .zip(d.iter().zip(x))
            .map(|(&yi, (&di, &xi))| yi + di * xi)
            .collect();
        kernels::mul_add_assign(&mut y, &d, x);
        prop_assert_eq!(bits(&y), bits(&want), "mul_add_assign");

        let want: Vec<f64> = y.iter().zip(&d).map(|(&yi, &di)| di - yi).collect();
        kernels::rsub(&mut y, &d);
        prop_assert_eq!(bits(&y), bits(&want), "rsub");

        let want: Vec<f64> = x.iter().map(|&xi| c * xi).collect();
        kernels::scale_into(&mut y, c, x);
        prop_assert_eq!(bits(&y), bits(&want), "scale_into");
    }

    #[test]
    fn reductions_equal_left_to_right_fold((a, off) in vec_and_offset()) {
        let a = &a[off..];
        let b: Vec<f64> = a.iter().map(|v| v * 0.9 - 0.2).collect();

        let want = fold(a.iter().zip(&b).map(|(&x, &y)| x * y));
        prop_assert_eq!(kernels::dot(a, &b).to_bits(), want.to_bits(), "dot");

        let want = fold(a.iter().copied());
        prop_assert_eq!(kernels::sum(a).to_bits(), want.to_bits(), "sum");
    }

    #[test]
    fn prefix_suffix_sums_and_norm2_match_references((x, off) in vec_and_offset()) {
        let x = &x[off..];
        let n = x.len();

        // prefix_sum_into / suffix_sum_into are order-preserving: exact
        // against a running accumulator walked in the same order.
        let mut p = vec![0.0; n];
        kernels::prefix_sum_into(&mut p, x);
        let mut acc = 0.0;
        for (pi, &xi) in p.iter().zip(x) {
            acc += xi;
            prop_assert_eq!(pi.to_bits(), acc.to_bits());
        }
        let mut s = vec![0.0; n];
        kernels::suffix_sum_into(&mut s, x);
        let mut acc = 0.0;
        for (si, &xi) in s.iter().zip(x).rev() {
            acc += xi;
            prop_assert_eq!(si.to_bits(), acc.to_bits());
        }

        let want = fold(x.iter().map(|&v| v * v)).sqrt();
        prop_assert_eq!(kernels::norm2(x).to_bits(), want.to_bits(), "norm2");
    }

    #[test]
    fn panel_gather_scatter_matches_columnwise_reference(
        rows in 1usize..40,
        extra_cols in 0usize..5,
        q4 in 0usize..9,
        seed in 0u64..1000,
    ) {
        let stride = KRON_PANEL + extra_cols + (q4 * KRON_PANEL).min(32);
        let q = (q4 * KRON_PANEL).min(stride - KRON_PANEL);
        let t: Vec<f64> = (0..rows * stride)
            .map(|i| ((i as u64).wrapping_mul(seed + 1) % 97) as f64 * 0.37 - 17.0)
            .collect();

        let mut panel = vec![0.0; KRON_PANEL * rows];
        kernels::gather_panel(&t, stride, q, rows, &mut panel);
        for j in 0..KRON_PANEL {
            for i in 0..rows {
                prop_assert_eq!(panel[j * rows + i].to_bits(), t[i * stride + q + j].to_bits());
            }
        }

        let mut out = vec![f64::NAN; rows * stride];
        kernels::scatter_panel(&panel, rows, &mut out, stride, q);
        for i in 0..rows {
            for j in 0..KRON_PANEL {
                prop_assert_eq!(out[i * stride + q + j].to_bits(), t[i * stride + q + j].to_bits());
            }
        }
    }
}
