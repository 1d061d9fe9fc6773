//! Noise primitives used by the kernel's Private→Public operators.
//!
//! All randomness used for privacy flows through these functions with an
//! explicitly seeded RNG owned by the kernel — experiments are exactly
//! reproducible given the seed.
//!
//! **Floating-point caveat** (paper §1, citing Mironov 2012): textbook
//! sampling of the Laplace distribution with `f64` arithmetic leaks
//! information through the low-order bits of the output. Production
//! deployments should prefer the discrete/snapped mechanisms; we expose
//! [`two_sided_geometric`] for integer-valued counts as the hardened
//! alternative and keep the continuous sampler for fidelity with the
//! paper's experiments.

use rand::rngs::StdRng;
use rand::RngExt;

/// A draw from the Laplace distribution with density
/// `exp(−|x|/scale) / (2·scale)` (inverse-CDF sampling).
pub fn laplace(rng: &mut StdRng, scale: f64) -> f64 {
    assert!(scale >= 0.0, "laplace scale must be non-negative");
    if scale == 0.0 {
        return 0.0;
    }
    // u uniform in (−1/2, 1/2]; guard the log's argument away from 0.
    let u: f64 = rng.random::<f64>() - 0.5;
    let a = (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE);
    -scale * u.signum() * a.ln()
}

/// A draw from the standard Gumbel distribution. Adding i.i.d. Gumbel noise
/// to scaled scores and taking the argmax implements the exponential
/// mechanism exactly (the "Gumbel-max trick").
fn gumbel(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -(-u.ln()).ln()
}

/// The exponential mechanism over `scores` with quality sensitivity
/// `sensitivity`, at privacy level `eps`: returns an index sampled with
/// probability ∝ `exp(eps · score / (2 · sensitivity))`.
pub fn exponential_mechanism(
    rng: &mut StdRng,
    scores: &[f64],
    sensitivity: f64,
    eps: f64,
) -> usize {
    assert!(
        !scores.is_empty(),
        "exponential mechanism over empty candidate set"
    );
    // xlint: allow(budget-chokepoint, reason = "sampler precondition on already-admitted parameters, not a budget admission decision")
    assert!(sensitivity > 0.0 && eps > 0.0);
    // A NaN score would never win the Gumbel-max scan (NaN comparisons are
    // false), silently biasing the mechanism toward index 0 — a privacy
    // *and* correctness bug. Fail loudly instead.
    assert!(
        scores.iter().all(|s| s.is_finite()),
        "exponential mechanism requires finite scores, got {:?}",
        // xlint: allow(panic-policy, reason = "only evaluated while the enclosing assert is already failing, so a non-finite element is guaranteed to exist")
        scores.iter().find(|s| !s.is_finite()).unwrap()
    );
    let mut best = 0;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        let v = eps * s / (2.0 * sensitivity) + gumbel(rng);
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

/// A draw from the two-sided geometric distribution with parameter
/// `alpha = exp(−eps/sensitivity)`: the discrete analogue of the Laplace
/// mechanism, immune to the floating-point attack for integer counts.
///
/// Construction: the **difference of two i.i.d. one-sided geometrics**,
/// `X = G₁ − G₂` with `P(G = k) = (1 − α) αᵏ` for `k ≥ 0`. The difference
/// is symmetric with `P(X = k) ∝ α^|k|` and variance `2α / (1 − α)²`
/// (twice the one-sided variance `α / (1 − α)²`), which the distribution
/// test checks against the sample variance.
pub fn two_sided_geometric(rng: &mut StdRng, eps_over_sens: f64) -> i64 {
    // xlint: allow(budget-chokepoint, reason = "sampler precondition on already-admitted parameters, not a budget admission decision")
    assert!(eps_over_sens > 0.0);
    // Mathematically alpha = exp(−x) < 1 for x > 0, but for
    // x ≲ 1.1e-16 the f64 result rounds to exactly 1.0, making
    // ln(alpha) = 0 and the geometric draws collapse to a deterministic
    // zero — i.e. *no noise at essentially zero epsilon*. Clamp just
    // below 1 so the sampler degrades to astronomically wide (not
    // absent) noise instead.
    let alpha = (-eps_over_sens).exp().min(1.0 - f64::EPSILON);
    let g1 = one_sided_geometric(rng, alpha);
    let g2 = one_sided_geometric(rng, alpha);
    g1 - g2
}

fn one_sided_geometric(rng: &mut StdRng, alpha: f64) -> i64 {
    // P(G = k) = (1 − alpha) alpha^k for k ≥ 0.
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    (u.ln() / alpha.ln()).floor() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn laplace_mean_and_spread() {
        let mut r = rng();
        let n = 200_000;
        let scale = 2.0;
        let samples: Vec<f64> = (0..n).map(|_| laplace(&mut r, scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mad = samples.iter().map(|v| v.abs()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // E|X| = scale for Laplace.
        assert!((mad - scale).abs() < 0.05, "mean abs dev {mad}");
    }

    #[test]
    fn laplace_zero_scale_is_deterministic() {
        let mut r = rng();
        assert_eq!(laplace(&mut r, 0.0), 0.0);
    }

    #[test]
    fn exponential_mechanism_prefers_high_scores() {
        let mut r = rng();
        let scores = [0.0, 0.0, 10.0, 0.0];
        let mut hits = 0;
        for _ in 0..200 {
            if exponential_mechanism(&mut r, &scores, 1.0, 2.0) == 2 {
                hits += 1;
            }
        }
        assert!(hits > 150, "high-score arm picked only {hits}/200 times");
    }

    #[test]
    fn exponential_mechanism_is_near_uniform_at_tiny_eps() {
        let mut r = rng();
        let scores = [0.0, 1.0];
        let mut hits = 0;
        for _ in 0..2000 {
            hits += exponential_mechanism(&mut r, &scores, 1.0, 1e-6);
        }
        let frac = hits as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn geometric_is_integer_and_symmetric() {
        let mut r = rng();
        let n = 100_000;
        let sum: i64 = (0..n).map(|_| two_sided_geometric(&mut r, 0.5)).sum();
        let mean = sum as f64 / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn geometric_variance_matches_difference_construction() {
        // Var(G₁ − G₂) = 2α/(1−α)² for the difference-of-geometrics
        // construction; a sign-and-magnitude sampler that double-counted
        // zero (what the doc comment used to describe) would disagree.
        let mut r = rng();
        let n = 200_000usize;
        for eps_over_sens in [0.25f64, 0.5, 1.0] {
            let alpha = (-eps_over_sens).exp();
            let expect = 2.0 * alpha / ((1.0 - alpha) * (1.0 - alpha));
            let samples: Vec<f64> = (0..n)
                .map(|_| two_sided_geometric(&mut r, eps_over_sens) as f64)
                .collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
            assert!(
                (var - expect).abs() < 0.05 * expect,
                "eps/sens {eps_over_sens}: sample variance {var} vs expected {expect}"
            );
        }
    }

    #[test]
    fn geometric_still_noisy_at_vanishing_epsilon() {
        // exp(-1e-17) rounds to 1.0 in f64; without the clamp the sampler
        // would return exactly 0 forever — zero noise at zero epsilon.
        let mut r = rng();
        let draws: Vec<i64> = (0..10)
            .map(|_| two_sided_geometric(&mut r, 1e-17))
            .collect();
        assert!(
            draws.iter().any(|&d| d != 0),
            "vanishing epsilon must give (huge) noise, not none: {draws:?}"
        );
    }

    #[test]
    #[should_panic(expected = "finite scores")]
    fn exponential_mechanism_rejects_nan_scores() {
        let mut r = rng();
        let _ = exponential_mechanism(&mut r, &[1.0, f64::NAN, 3.0], 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite scores")]
    fn exponential_mechanism_rejects_infinite_scores() {
        let mut r = rng();
        let _ = exponential_mechanism(&mut r, &[f64::INFINITY, 0.0], 1.0, 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(laplace(&mut a, 1.0), laplace(&mut b, 1.0));
        }
    }
}
