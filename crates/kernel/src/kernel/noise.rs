//! Noise samplers behind the kernel's Private→Public operators, private
//! to the kernel: operators reach them only through the kernel's
//! measurements and its two primitives (the noisy histogram and the
//! exponential-mechanism selection).
//!
//! All randomness used for privacy flows through these functions with an
//! explicitly seeded RNG owned by the kernel — experiments are exactly
//! reproducible given the seed.
//!
//! **Floating-point caveat** (paper §1, citing Mironov 2012): textbook
//! sampling of the Laplace distribution with `f64` arithmetic leaks
//! information through the low-order bits of the output. The samplers
//! here keep the continuous construction for fidelity with the paper's
//! experiments; an exact discrete sampler is planned work.

use rand::rngs::StdRng;
use rand::RngExt;

/// A draw from the Laplace distribution with density
/// `exp(−|x|/scale) / (2·scale)` (inverse-CDF sampling): the single draw
/// [`fill_laplace`] repeats, kept as the tests' reference.
#[cfg(test)]
pub(crate) fn laplace(rng: &mut StdRng, scale: f64) -> f64 {
    assert!(scale >= 0.0, "laplace scale must be non-negative");
    if scale == 0.0 {
        return 0.0;
    }
    laplace_from_uniform(rng.random::<f64>(), scale)
}

/// Uniforms drawn per block by [`fill_laplace`].
pub(crate) const LAPLACE_BLOCK: usize = 256;

/// Fills `out` with `out.len()` Laplace draws of one `scale` (density
/// `exp(−|x|/scale) / (2·scale)`, by inverse-CDF sampling), one uniform
/// per draw, in order.
/// The uniforms are drawn a stack block at a time and then transformed,
/// so the generator and the transform each run in a tight loop.
pub(crate) fn fill_laplace(rng: &mut StdRng, scale: f64, out: &mut [f64]) {
    assert!(scale >= 0.0, "laplace scale must be non-negative");
    if scale == 0.0 {
        out.fill(0.0);
        return;
    }
    let mut uniforms = [0.0; LAPLACE_BLOCK];
    for chunk in out.chunks_mut(LAPLACE_BLOCK) {
        let uniforms = &mut uniforms[..chunk.len()];
        for u in uniforms.iter_mut() {
            *u = rng.random::<f64>();
        }
        for (o, &u) in chunk.iter_mut().zip(uniforms.iter()) {
            *o = laplace_from_uniform(u, scale);
        }
    }
}

/// The inverse-CDF transform of a uniform draw in `[0, 1)` into a
/// Laplace draw of scale `scale > 0`.
fn laplace_from_uniform(uniform: f64, scale: f64) -> f64 {
    // u uniform in (−1/2, 1/2]; guard the log's argument away from 0.
    let u = uniform - 0.5;
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
pub(crate) fn exponential_mechanism(
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
        let mut out = [1.0; 3];
        fill_laplace(&mut r, 0.0, &mut out);
        assert_eq!(out, [0.0; 3]);
        // Neither call consumed a uniform.
        assert_eq!(r.random::<f64>(), rng().random::<f64>());
    }

    #[test]
    fn fill_laplace_is_the_sequence_of_single_draws() {
        // Lengths around the block size, so partial and full blocks both
        // run; the generator must also end in the same state.
        for len in [0, 1, 255, 256, 257, 1000] {
            for scale in [1.0, 0.37, 1e300] {
                let (mut a, mut b) = (rng(), rng());
                let mut filled = vec![f64::NAN; len];
                fill_laplace(&mut a, scale, &mut filled);
                let single: Vec<f64> = (0..len).map(|_| laplace(&mut b, scale)).collect();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&filled), bits(&single), "len {len}, scale {scale}");
                assert_eq!(a.random::<u64>(), b.random::<u64>());
            }
        }
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
