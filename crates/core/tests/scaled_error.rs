//! The Table 5 error check (`scaled_per_query_l2_error`) against the
//! plain norm `‖W (x − x̂)‖ / (√m · scale)` of one product.
//!
//! A Kronecker workload `c · (F₀ ⊗ R)` whose rest `R` is at least as
//! tall as it is wide is streamed row panel by row panel and agrees to a
//! relative 1e-12; every other workload, Kronecker or not, takes the one
//! product and returns its bits exactly. With `F₀` a `Prefix`, `Suffix`
//! or `Identity` (scaled or not) the panels are built from `x` and `x̂`
//! in one running buffer, and that returns the bits of the two-buffer
//! path that forms `x − x̂` and the mode-0 panel.

use std::sync::Arc;

use ektelo_core::ops::inference::scaled_per_query_l2_error;
use ektelo_matrix::Matrix;
use proptest::prelude::*;

/// SplitMix64: a small deterministic generator for the random workloads.
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

    /// A value in [-1, 1).
    fn signed(&mut self) -> f64 {
        2.0 * (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 1.0
    }
}

/// One random factor over `1..=6` cells: a prefix, random ranges, a
/// dense block or a total stacked on an identity.
fn random_factor(rng: &mut Rng) -> Matrix {
    let n = 1 + rng.below(6);
    match rng.below(4) {
        0 => Matrix::prefix(n),
        1 => {
            let ranges = (0..1 + rng.below(2 * n))
                .map(|_| {
                    let lo = rng.below(n);
                    (lo, lo + 1 + rng.below(n - lo))
                })
                .collect();
            Matrix::range_queries(n, ranges)
        }
        2 => Matrix::from_rows(
            (0..1 + rng.below(2 * n))
                .map(|_| (0..n).map(|_| rng.signed()).collect())
                .collect(),
        ),
        _ => Matrix::vstack(vec![Matrix::total(n), Matrix::identity(n)]),
    }
}

/// `‖W d‖ / (√m · scale)` through one product.
fn one_product(w: &Matrix, x: &[f64], x_hat: &[f64], scale: f64) -> f64 {
    let d: Vec<f64> = x.iter().zip(x_hat).map(|(t, e)| t - e).collect();
    let sq: f64 = w.matvec(&d).iter().map(|v| v * v).sum();
    (sq / w.rows() as f64).sqrt() / scale
}

/// The two-buffer form of the streamed check: `d = x − x̂` and the
/// mode-0 panel `C = (F₀ ⊗ I) d` formed whole through the Kronecker
/// engine, then `Σᵢ ‖c · R Cᵢ‖²` over the blocks of `C`, squares summed in
/// row order, taking the blocks in order (last to first for a `Suffix`
/// `F₀`, the order its running sums are built in).
fn two_buffer(w: &Matrix, x: &[f64], x_hat: &[f64], scale: f64) -> f64 {
    let (c, factors) = w.kron_factors().expect("a Kronecker workload");
    let f0 = factors[0];
    let rest = Matrix::kron_list(factors[1..].iter().map(|&f| f.clone()).collect());
    let cols = rest.cols();
    let d: Vec<f64> = x.iter().zip(x_hat).map(|(t, e)| t - e).collect();
    let panel = Matrix::kron(f0.clone(), Matrix::identity(cols)).matvec(&d);
    let mut blocks: Vec<&[f64]> = panel.chunks_exact(cols).collect();
    if is_suffix(f0) {
        blocks.reverse();
    }
    let mut sq = 0.0;
    for block in blocks {
        for a in rest.matvec(block) {
            let e = a * c;
            sq += e * e;
        }
    }
    (sq / w.rows() as f64).sqrt() / scale
}

/// Whether `f` is a `Suffix` under any number of scalings.
fn is_suffix(f: &Matrix) -> bool {
    match f {
        Matrix::Suffix { .. } => true,
        Matrix::Scaled(_, a) => is_suffix(a),
        _ => false,
    }
}

/// A first factor the check builds in one running buffer: a prefix, a
/// suffix or an identity over `1..=9` cells, under zero, one or two
/// scalings (the second nested as built, not folded).
fn running_first_factor(rng: &mut Rng) -> Matrix {
    let n = 1 + rng.below(9);
    let f = match rng.below(3) {
        0 => Matrix::prefix(n),
        1 => Matrix::Suffix { n },
        _ => Matrix::identity(n),
    };
    match rng.below(4) {
        0 => Matrix::scaled(0.5 + rng.signed(), f),
        1 => Matrix::Scaled(
            0.5 + rng.signed(),
            Arc::new(Matrix::scaled(1.5 + rng.signed(), f)),
        ),
        _ => f,
    }
}

/// A factor at least as tall as it is wide, over `1..=5` cells.
fn tall_factor(rng: &mut Rng) -> Matrix {
    let n = 1 + rng.below(5);
    match rng.below(5) {
        0 => Matrix::prefix(n),
        1 => Matrix::identity(n),
        2 => {
            let ranges = (0..n + rng.below(n + 1))
                .map(|_| {
                    let lo = rng.below(n);
                    (lo, lo + 1 + rng.below(n - lo))
                })
                .collect();
            Matrix::range_queries(n, ranges)
        }
        3 => Matrix::from_rows(
            (0..n + rng.below(n + 1))
                .map(|_| (0..n).map(|_| rng.signed()).collect())
                .collect(),
        ),
        _ => Matrix::vstack(vec![Matrix::total(n), Matrix::identity(n)]),
    }
}

/// A cell value: an exact `±0`, a small integer or a fraction.
fn cell(rng: &mut Rng) -> f64 {
    match rng.below(6) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.below(7) as f64 - 3.0,
        _ => 100.0 * rng.signed(),
    }
}

/// Whether the check streams `w`: a Kronecker chain whose factors after
/// the first form a matrix at least as tall as it is wide.
fn streams(w: &Matrix) -> bool {
    w.kron_factors().is_some_and(|(_, f)| {
        let rows: usize = f[1..].iter().map(|f| f.rows()).product();
        let cols: usize = f[1..].iter().map(|f| f.cols()).product();
        rows >= cols
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random (scaled) Kronecker products of two to four factors, and
    /// non-Kronecker workloads built from the same factors.
    #[test]
    fn streamed_check_matches_one_product(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let factors: Vec<Matrix> = (0..2 + rng.below(3)).map(|_| random_factor(&mut rng)).collect();
        let kron = Matrix::kron_list(factors.clone());
        let w = match rng.below(4) {
            0 => kron,
            1 => Matrix::scaled(0.5 + rng.signed(), kron),
            // Not a Kronecker chain: a union of two, and a lone factor.
            2 => Matrix::vstack(vec![kron.clone(), kron]),
            _ => factors[0].clone(),
        };
        let x: Vec<f64> = (0..w.cols()).map(|_| 100.0 * rng.signed()).collect();
        let x_hat: Vec<f64> = x.iter().map(|v| v + 5.0 * rng.signed()).collect();
        let scale = 1.0 + rng.below(1000) as f64;
        let got = scaled_per_query_l2_error(&w, &x, &x_hat, scale);
        let want = one_product(&w, &x, &x_hat, scale);
        if streams(&w) {
            let rel = (got - want).abs() / want.max(f64::MIN_POSITIVE);
            prop_assert!(rel <= 1e-12, "seed {}: {} vs {} (relative {:e})", seed, got, want, rel);
        } else {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "seed {}: {} vs {}", seed, got, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random (scaled) workloads `c · (F₀ ⊗ R)` with `F₀` a (scaled)
    /// `Prefix`, `Suffix` or `Identity` and a random rest of one to three
    /// tall factors: the check built in one running buffer returns the
    /// two-buffer path's bits. Cells include `±0`, and `x̂` equals `x` on
    /// some cells, so some differences are exact zeros.
    #[test]
    fn running_sum_check_matches_the_two_buffer_path(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let mut factors = vec![running_first_factor(&mut rng)];
        factors.extend((0..1 + rng.below(3)).map(|_| tall_factor(&mut rng)));
        let kron = Matrix::kron_list(factors);
        let w = match rng.below(2) {
            0 => kron,
            _ => Matrix::scaled(0.5 + rng.signed(), kron),
        };
        prop_assert!(streams(&w));
        let x: Vec<f64> = (0..w.cols()).map(|_| cell(&mut rng)).collect();
        let x_hat: Vec<f64> = x
            .iter()
            .map(|&v| if rng.below(3) == 0 { v } else { cell(&mut rng) })
            .collect();
        let scale = 1.0 + rng.below(1000) as f64;
        let got = scaled_per_query_l2_error(&w, &x, &x_hat, scale);
        let want = two_buffer(&w, &x, &x_hat, scale);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "seed {}: {} vs {}", seed, got, want);
    }
}

/// The check rejects an estimate of another length.
#[test]
#[should_panic(expected = "differ in length")]
fn unequal_lengths_are_rejected() {
    let w = Matrix::kron(Matrix::prefix(3), Matrix::identity(2));
    scaled_per_query_l2_error(&w, &[1.0; 6], &[1.0; 5], 1.0);
}

/// The census `Prefix(Income)` workload is streamed, agrees with the
/// product, and reads exactly 0 for an exact estimate.
#[test]
fn census_prefix_income_is_streamed() {
    let sizes = [40, 5, 7, 4, 2];
    let w = ektelo_data::workloads::census_prefix_income(&sizes);
    assert!(streams(&w));
    let n = w.cols();
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
    let x_hat: Vec<f64> = (0..n)
        .map(|i| (i % 13) as f64 + ((i % 7) as f64 - 3.0) / 4.0)
        .collect();
    let got = scaled_per_query_l2_error(&w, &x, &x_hat, 1000.0);
    let want = one_product(&w, &x, &x_hat, 1000.0);
    assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
    let two = two_buffer(&w, &x, &x_hat, 1000.0);
    assert_eq!(got.to_bits(), two.to_bits(), "{got} vs {two}");
    assert_eq!(scaled_per_query_l2_error(&w, &x, &x, 1000.0), 0.0);
}
