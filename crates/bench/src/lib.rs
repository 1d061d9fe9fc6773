//! Shared harness utilities for the experiment binaries and criterion
//! benches that regenerate the paper's tables and figures (the README's
//! "Running things" section lists them).

use std::time::{Duration, Instant};

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
/// domain (shared by the Table 5 reduced mode, the Fig. 4b sweep and the
/// end-to-end benchmark). Only the income column is recoded; the result
/// shares the other four columns with `t`.
pub fn rebin_census_income(t: &ektelo_data::Table, bins: usize) -> ektelo_data::Table {
    let income = t.schema().require("income");
    let factor = t.schema().sizes()[income].div_ceil(bins);
    t.map_column("income", bins, |v| {
        (v as usize / factor).min(bins - 1) as u32
    })
}

pub mod vetted;

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

    /// The row-by-row rebin [`rebin_census_income`] replaced: one
    /// `Table::row` copy per row.
    fn rebin_by_rows(t: &ektelo_data::Table, bins: usize) -> ektelo_data::Table {
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
        let mut rows = out.appender();
        for i in 0..t.num_rows() {
            let mut row = t.row(i);
            row[0] = (row[0] as usize / factor).min(bins - 1) as u32;
            rows.push(&row);
        }
        out
    }

    #[test]
    fn columnwise_rebin_matches_the_row_by_row_rebin() {
        let census = ektelo_data::generators::census_cps_sized(49_436, 1);
        // The end-to-end benchmark's bins, Table 5's, and no rebinning.
        for bins in [357, 64, 500, 5000] {
            let fast = rebin_census_income(&census, bins);
            let slow = rebin_by_rows(&census, bins);
            assert_eq!(fast.schema(), slow.schema(), "{bins} bins");
            for attr in slow.schema().attributes() {
                assert_eq!(fast.column(attr.name()), slow.column(attr.name()));
            }
            assert!(std::ptr::eq(fast.column("age"), census.column("age")));
        }
    }

    #[test]
    fn guard_trips_once_over_budget() {
        let mut g = SweepGuard::new(Duration::from_millis(1));
        assert!(g
            .run(|| std::thread::sleep(Duration::from_millis(5)))
            .is_some());
        assert!(g.run(|| ()).is_none());
    }
}
