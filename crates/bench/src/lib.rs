//! Shared harness utilities for the experiment binaries and criterion
//! benches that regenerate the paper's tables and figures (the README's
//! "Running things" section lists them).

use std::time::{Duration, Instant};

use ektelo_matrix::Matrix;

/// Times a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Root-mean-square error between two equally long vectors.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
}

/// Scaled per-query L2 error of workload answers (Table 5 metric): the
/// RMSE of `W x` vs `W x̂`, divided by the dataset size.
pub fn workload_scaled_error(w: &Matrix, x_true: &[f64], x_hat: &[f64]) -> f64 {
    let n_records: f64 = x_true.iter().sum::<f64>().max(1.0);
    let t = w.matvec(x_true);
    let e = w.matvec(x_hat);
    (t.iter()
        .zip(&e)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / t.len() as f64)
        .sqrt()
        / n_records
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Min / mean / max triple, as Table 4 reports.
pub fn min_mean_max(xs: &[f64]) -> (f64, f64, f64) {
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (min, mean(xs), max)
}

/// Percentile (0–100) of a slice (nearest-rank).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Formats seconds compactly for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// A soft wall-clock guard for sweeps: runs `f` unless the previous run at
/// a smaller size already exceeded the budget (the paper stops runs at
/// 1000 s; our default budget is far smaller so `cargo bench` stays
/// pleasant).
pub struct SweepGuard {
    budget: Duration,
    tripped: bool,
}

impl SweepGuard {
    /// A guard with the given per-point budget.
    pub fn new(budget: Duration) -> Self {
        SweepGuard {
            budget,
            tripped: false,
        }
    }

    /// Runs `f` and returns its duration, or `None` once a previous call
    /// went over budget (monotone workloads only get slower).
    pub fn run(&mut self, f: impl FnOnce()) -> Option<f64> {
        if self.tripped {
            return None;
        }
        let ((), secs) = time_it(f);
        if secs > self.budget.as_secs_f64() {
            self.tripped = true;
        }
        Some(secs)
    }
}

/// Parses a `--full` flag (experiment binaries run reduced sweeps by
/// default so the whole suite finishes in minutes).
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Rebins the census income attribute to `bins`, shrinking the vectorized
/// domain (shared by the Table 5 reduced mode and the Fig. 4b sweep).
pub fn rebin_census_income(t: &ektelo_data::Table, bins: usize) -> ektelo_data::Table {
    use ektelo_data::{Schema, Table};
    let sizes = t.schema().sizes();
    let factor = sizes[0].div_ceil(bins);
    let schema = Schema::from_sizes(&[
        ("income", bins),
        ("age", sizes[1]),
        ("marital", sizes[2]),
        ("race", sizes[3]),
        ("gender", sizes[4]),
    ]);
    let mut out = Table::empty(schema);
    for i in 0..t.num_rows() {
        let mut row = t.row(i);
        row[0] = (row[0] as usize / factor).min(bins - 1) as u32;
        out.push_row(&row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        let (lo, m, hi) = min_mean_max(&[1.0, 2.0, 6.0]);
        assert_eq!((lo, m, hi), (1.0, 3.0, 6.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0], 100.0), 5.0);
    }

    #[test]
    fn guard_trips_once_over_budget() {
        let mut g = SweepGuard::new(Duration::from_millis(1));
        assert!(g
            .run(|| std::thread::sleep(Duration::from_millis(5)))
            .is_some());
        assert!(g.run(|| ()).is_none());
    }

    #[test]
    fn scaled_error_is_zero_for_exact_estimates() {
        let w = Matrix::prefix(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(workload_scaled_error(&w, &x, &x), 0.0);
    }
}
