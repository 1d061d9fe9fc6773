//! Order statistics used by the run summaries and by `--compare`.

/// Nearest-rank percentile (`0 < p <= 100`): the smallest sample with at
/// least `p`% of the samples at or below it. No interpolation, so the
/// value is always one that was measured.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle samples for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles with the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so spreads printed here match the ones the acceptance check computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The outcome of comparing one metric on one workload between a base
/// set of runs (A, the parent) and a candidate set (B, the change).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Summary of one A-versus-B comparison.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    pub median_a: f64,
    pub quartiles_a: (f64, f64),
    pub median_b: f64,
    pub quartiles_b: (f64, f64),
    /// Share of the paired runs (i-th of A against i-th of B) that B
    /// won; ties count for neither side.
    pub won_frac: f64,
    pub verdict: Verdict,
}

/// Compares paired runs of one metric for which lower is better (every
/// bounded metric of the benchmark is).
///
/// * **improved** — B wins at least nine tenths of the pairs and the
///   medians differ, in B's favour, by more than A's own quartile spread;
/// * **unresolved** — A's quartile spread, as a share of its median, is
///   wider than `bound`, and not every run of B reads better than every
///   run of A;
/// * **worse** — B's median is worse than A's by more than `bound` of A's
///   median;
/// * **no worse** — otherwise.
pub fn compare(a: &[f64], b: &[f64], bound: f64) -> Comparison {
    let median_a = median(a);
    let median_b = median(b);
    let quartiles_a = quartiles(a);
    let quartiles_b = quartiles(b);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| y < x).count();
    let won_frac = wins as f64 / pairs as f64;
    let spread_a = quartiles_a.1 - quartiles_a.0;
    let all_b_better = a.iter().all(|&x| b.iter().all(|&y| y < x));
    let scale = median_a.abs().max(f64::MIN_POSITIVE);
    let verdict = if won_frac >= 0.9 && median_a - median_b > spread_a {
        Verdict::Improved
    } else if spread_a / scale > bound && !all_b_better {
        Verdict::Unresolved
    } else if median_b - median_a > bound * scale {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    };
    Comparison {
        median_a,
        quartiles_a,
        median_b,
        quartiles_b,
        won_frac,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 50.0), 2.0);
        // 150 samples: p90 is the 135th, leaving 15 beyond it.
        let w: Vec<f64> = (1..=150).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 90.0), 135.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        // B is 20% faster on every pair; A's spread is tiny.
        let a = runs(100.0, 0.1);
        let b = runs(80.0, 0.1);
        let c = compare(&a, &b, 0.05);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.won_frac, 1.0);
        // The other way round, B lost every pair.
        let c = compare(&b, &a, 0.05);
        assert_eq!(c.verdict, Verdict::Worse);
        assert_eq!(c.won_frac, 0.0);
    }

    #[test]
    fn small_gain_within_spread_is_not_improved() {
        // B wins every pair by 0.5, but A's quartile spread is ~2.
        let a = runs(100.0, 0.9);
        let b: Vec<f64> = a.iter().map(|x| x - 0.5).collect();
        let c = compare(&a, &b, 0.05);
        assert_eq!(c.won_frac, 1.0);
        assert_eq!(c.verdict, Verdict::NoWorse);
    }

    #[test]
    fn eight_of_ten_wins_is_not_improved() {
        let a = runs(100.0, 0.01);
        let mut b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        b[0] = 200.0;
        b[1] = 200.0;
        let c = compare(&a, &b, 0.05);
        assert_eq!(c.won_frac, 0.8);
        assert_ne!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn regression_past_bound_is_worse_and_within_bound_is_no_worse() {
        let a = runs(100.0, 0.1);
        let worse: Vec<f64> = a.iter().map(|x| x * 1.08).collect();
        assert_eq!(compare(&a, &worse, 0.05).verdict, Verdict::Worse);
        let slight: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert_eq!(compare(&a, &slight, 0.05).verdict, Verdict::NoWorse);
    }

    #[test]
    fn noisy_base_is_unresolved_unless_b_dominates() {
        // A's quartile spread is ~45% of its median: wider than a 5% bound.
        let a = runs(50.0, 5.0);
        let b: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(compare(&a, &b, 0.05).verdict, Verdict::Unresolved);
        // Every B run beats every A run: resolved despite the noise.
        let dominated: Vec<f64> = a.iter().map(|_| 10.0).collect();
        assert_ne!(compare(&a, &dominated, 0.05).verdict, Verdict::Unresolved);
    }
}
