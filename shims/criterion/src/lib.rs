//! Minimal, dependency-free shim of the `criterion` benchmarking API used
//! by this workspace (the build environment cannot reach crates.io).
//!
//! Two deliberate differences from upstream criterion:
//!
//! * Measurement is simple wall-clock statistics of N timed iterations
//!   (mean, best, and the median with a p10–p90 band) rather than full
//!   statistical analysis — adequate for the before/after trajectory this
//!   repo tracks.
//! * On exit every bench target writes a machine-readable summary,
//!   `BENCH_<target>.json`, at the workspace root (next to `ROADMAP.md`),
//!   so successive PRs can diff performance without parsing human output.
//!
//! Set `BENCH_SAMPLE_BUDGET_MS` to bound per-benchmark wall time (default
//! 300 ms once warm).

pub use std::hint::black_box;

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct Record {
    /// Benchmark group name.
    pub group: String,
    /// Benchmark id (function / parameter).
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest observed iteration, nanoseconds.
    pub min_ns: f64,
    /// Median iteration, nanoseconds.
    pub median_ns: f64,
    /// 10th and 90th percentile iterations, nanoseconds: the spread a
    /// change must leave to count.
    pub p10_ns: f64,
    /// See [`Record::p10_ns`].
    pub p90_ns: f64,
    /// Number of timed iterations.
    pub iters: u64,
}

/// Top-level benchmark driver (collects results, writes the JSON summary).
#[derive(Default)]
pub struct Criterion {
    records: Vec<Record>,
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkLabel, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.into_label();
        let rec = run_bench("ungrouped", &label, 10, &mut f);
        eprintln!(
            "bench ungrouped/{label}: {:.1} ns/iter (n={})",
            rec.mean_ns, rec.iters
        );
        self.records.push(rec);
        self
    }

    /// Writes the `BENCH_<target>.json` summary. Called by
    /// [`criterion_main!`]; harmless to call twice.
    pub fn finalize(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let path = summary_path();
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"group\": {}, \"bench\": {}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \"p90_ns\": {:.1}, \"iters\": {}}}{}\n",
                json_str(&r.group),
                json_str(&r.id),
                r.mean_ns,
                r.min_ns,
                r.median_ns,
                r.p10_ns,
                r.p90_ns,
                r.iters,
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        match std::fs::write(&path, out) {
            Ok(()) => eprintln!("wrote benchmark summary to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        self.records.clear();
    }
}

/// A group of related benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Benchmarks `f` with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkLabel,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = id.into_label();
        let rec = run_bench(&self.name, &label, self.sample_size, &mut |b| f(b, input));
        eprintln!(
            "bench {}/{label}: {:.1} ns/iter (n={})",
            self.name, rec.mean_ns, rec.iters
        );
        self.criterion.records.push(rec);
        self
    }

    /// Benchmarks `f`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkLabel, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.into_label();
        let rec = run_bench(&self.name, &label, self.sample_size, &mut f);
        eprintln!(
            "bench {}/{label}: {:.1} ns/iter (n={})",
            self.name, rec.mean_ns, rec.iters
        );
        self.criterion.records.push(rec);
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// Conversion of the various accepted id types into a display label.
pub trait IntoBenchmarkLabel {
    /// The label used in reports and JSON.
    fn into_label(self) -> String;
}

impl IntoBenchmarkLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkLabel for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkLabel for String {
    fn into_label(self) -> String {
        self
    }
}

/// Timing handle passed to benchmark closures.
pub struct Bencher {
    sample_size: u64,
    budget: Duration,
    timings_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f`, recording per-iteration wall-clock durations. Stops at
    /// the sample size or when the time budget is exhausted (whichever
    /// comes first, with a minimum of 3 timed iterations).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up
        let started = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            self.timings_ns.push(t0.elapsed().as_nanos() as f64);
            if started.elapsed() > self.budget && self.timings_ns.len() >= 3 {
                break;
            }
        }
    }
}

fn run_bench(group: &str, id: &str, sample_size: u64, f: &mut dyn FnMut(&mut Bencher)) -> Record {
    let budget_ms: u64 = std::env::var("BENCH_SAMPLE_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let mut bencher = Bencher {
        sample_size,
        budget: Duration::from_millis(budget_ms),
        timings_ns: Vec::new(),
    };
    f(&mut bencher);
    let n = bencher.timings_ns.len().max(1) as f64;
    let mean = bencher.timings_ns.iter().sum::<f64>() / n;
    let mut sorted = bencher.timings_ns;
    sorted.sort_by(f64::total_cmp);
    Record {
        group: group.to_string(),
        id: id.to_string(),
        mean_ns: mean,
        min_ns: quantile(&sorted, 0.0),
        median_ns: quantile(&sorted, 0.5),
        p10_ns: quantile(&sorted, 0.1),
        p90_ns: quantile(&sorted, 0.9),
        iters: sorted.len() as u64,
    }
}

/// The `p`-quantile of ascending `sorted`, interpolated linearly between
/// the two nearest ranks (0 when there are no timings).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = p * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// `BENCH_<target>.json` at the workspace root (found by walking up from
/// the current directory to the first ancestor containing `ROADMAP.md` or
/// `.git`; falls back to the current directory).
fn summary_path() -> PathBuf {
    let target = std::env::args()
        .next()
        .map(|argv0| {
            let stem = std::path::Path::new(&argv0)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "bench".to_string());
            // Cargo appends a -<hash> disambiguator to bench executables.
            match stem.rsplit_once('-') {
                Some((base, hash))
                    if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) =>
                {
                    base.to_string()
                }
                _ => stem,
            }
        })
        .unwrap_or_else(|| "bench".to_string());
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("ROADMAP.md").exists() || dir.join(".git").exists() {
            break;
        }
        if !dir.pop() {
            dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            break;
        }
    }
    dir.join(format!("BENCH_{target}.json"))
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares `main` running the given group functions and writing the
/// JSON summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert!((quantile(&sorted, 0.9) - 7.6).abs() < 1e-12);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
