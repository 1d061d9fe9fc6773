//! The Table 5 error check (`scaled_per_query_l2_error`) against the
//! plain norm `‖W (x − x̂)‖ / (√m · scale)` of one product.
//!
//! A Kronecker workload `c · (F₀ ⊗ R)` whose rest `R` is at least as
//! tall as it is wide is streamed row panel by row panel and agrees to a
//! relative 1e-12; every other workload, Kronecker or not, takes the one
//! product and returns its bits exactly.

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
    assert_eq!(scaled_per_query_l2_error(&w, &x, &x, 1000.0), 0.0);
}
