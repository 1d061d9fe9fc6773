//! One workload in this process: set-up, the closed-loop timed phase,
//! output checks, replays, and the metrics (end-to-end, or per layer in
//! a traced run).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use ektelo_matrix::pool::{self, PoolStats};
use ektelo_matrix::{
    plan_builds, plan_cache_stats, sens_cache_stats, PlanCacheStats, SensCacheStats,
};

use crate::json::Json;
use crate::stats::{median, nearest_rank};
use crate::trace::{self, Counts, Layer, RequestTrace, Span, LAYERS};
use crate::workloads::{digest, Checked, Kind, Prepared};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// The run length at which a workload issues `Kind::timed_requests` per
/// client; other lengths scale that count in proportion.
const REFERENCE_SECONDS: f64 = 20.0;
/// Fewest timed requests of an untraced run, so that p90 has at least
/// 10 samples beyond it.
const MIN_SAMPLES: usize = 100;
/// Fewest requests of each phase of a traced run.
const MIN_TRACE_SAMPLES: usize = 20;
/// A phase that runs this many times longer than its requests take on
/// the reference machine (a much slower commit or machine) stops at that
/// point, and all timed requests of a run stop `MAX_TIMED_S` after the
/// first at the latest, so a run always ends in bounded time.
const OVERRUN: f64 = 3.0;
const MAX_TIMED_S: f64 = 120.0;
/// Requests replayed (and compared bit for bit) at the end of a run.
const REPLAYS: u64 = 3;
/// Requests whose spans are written to the trace file.
const KEEP_SPANS: u64 = 64;

/// What one run reports.
pub struct Report {
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)`, the metrics of the final JSON line.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra `(name, value, unit)` lines printed but not in the JSON.
    pub info: Vec<(&'static str, String, &'static str)>,
    pub warnings: Vec<String>,
}

impl Report {
    fn new(kind: Kind) -> Report {
        Report {
            kind,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            info: Vec::new(),
            warnings: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints `workload metric value unit` lines, then the result JSON as
    /// the last line of standard output.
    pub fn print(&self) {
        let w = self.kind.name();
        for msg in self.failures.iter().take(20) {
            eprintln!("{w}: FAILED CHECK: {msg}");
        }
        for msg in &self.warnings {
            eprintln!("{w}: warning: {msg}");
        }
        for (name, value, unit) in &self.info {
            println!("{w} {name} {value} {unit}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{w} {name} {value} {unit}");
        }
        println!("{}", self.result_json().render());
    }

    pub fn result_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            metrics = metrics.with(name, Json::obj().with("value", *value).with("unit", *unit));
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    fn absorb(&mut self, logs: &[ClientLog]) {
        for log in logs {
            self.attempted += log.attempted;
            self.failed += log.failed;
            self.failures.extend(log.failures.iter().cloned());
        }
    }
}

/// One traced request, reduced to what the per-layer metrics need.
struct TracedRequest {
    latency_s: f64,
    layers: [f64; LAYERS],
    unattributed_s: f64,
    counts: Counts,
}

/// One closed-loop client's record of a phase.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    latencies: Vec<f64>,
    errors: Vec<f64>,
    /// Outputs of requests `0..REPLAYS`, by request index.
    firsts: Vec<(u64, Vec<Option<Vec<f64>>>)>,
    traced: Vec<TracedRequest>,
    spans: Vec<Span>,
}

/// What one request that returned left behind: its latency, its checks,
/// its outputs if it is one of the replayed requests, and its trace.
struct Outcome {
    latency_s: f64,
    checked: Checked,
    outputs: Option<Vec<Option<Vec<f64>>>>,
    traced: Option<RequestTrace>,
}

/// Runs request `idx`, untraced or (with `origin`) as the traced
/// decomposition, then checks it outside the latency timer.
fn attempt(prep: &Prepared, idx: u64, origin: Option<Instant>) -> Outcome {
    let (done, traced) = match origin {
        Some(origin) => {
            let (done, t) = trace::execute_traced(prep, idx, origin);
            (done, Some(t))
        }
        None => (prep.execute(idx), None),
    };
    Outcome {
        latency_s: done.latency_s,
        checked: prep.check(&done),
        outputs: (idx < REPLAYS).then(|| done.outputs()),
        traced,
    }
}

impl ClientLog {
    /// Records attempt `idx`; `None` means the request panicked.
    fn record(&mut self, idx: u64, outcome: Option<Outcome>) {
        self.attempted += 1;
        let Some(o) = outcome else {
            self.failed += 1;
            self.failures.push(format!("request {idx} panicked"));
            return;
        };
        self.latencies.push(o.latency_s);
        if !o.checked.failures.is_empty() {
            self.failed += 1;
            self.failures.extend(o.checked.failures);
        }
        self.errors.extend(o.checked.error);
        if let Some(outputs) = o.outputs {
            self.firsts.push((idx, outputs));
        }
        if let Some(t) = o.traced {
            if idx < KEEP_SPANS {
                self.spans.extend(t.spans.iter().cloned());
            }
            self.traced.push(TracedRequest {
                latency_s: o.latency_s,
                layers: t.layer_seconds(),
                unattributed_s: t.unattributed_seconds(),
                counts: t.counts,
            });
        }
    }
}

/// A closed loop of `clients` clients, each sending its next request when
/// the last one has returned. Client `c` issues requests `c + clients·j`
/// for `j` in `turns`, so the request indices — and with them every
/// kernel seed — never depend on timing. A request that panics still
/// counts as an attempt, so the loop ends whatever the requests do; it
/// ends early only once `deadline` passes. `record` receives each
/// attempt's index and outcome (`None` for a panic) in the client's own
/// log.
fn closed_loop<T, L: Default + Send>(
    clients: usize,
    turns: Range<u64>,
    deadline: Instant,
    request: impl Fn(u64) -> T + Sync,
    record: impl Fn(&mut L, u64, Option<T>) + Sync,
) -> Vec<L> {
    let client = |c: usize| {
        let mut log = L::default();
        for j in turns.clone() {
            if Instant::now() >= deadline {
                break;
            }
            let idx = c as u64 + clients as u64 * j;
            let outcome = catch_unwind(AssertUnwindSafe(|| request(idx))).ok();
            record(&mut log, idx, outcome);
        }
        log
    };
    if clients == 1 {
        return vec![client(0)];
    }
    let client = &client;
    // xlint: allow(determinism-thread, reason = "closed-loop load generators of the benchmark, one per simulated client; they issue plan requests and never share results, so the library's pool-only threading invariant is unaffected")
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked outside a request"))
            .collect()
    })
}

/// Requests per client of a phase `share` of an untraced run of `seconds`
/// long, with at least `min_total` over all clients. The count depends on
/// the run length alone, never on how fast the build runs, so two commits
/// always do the same work.
fn phase_requests(kind: Kind, seconds: f64, share: f64, min_total: usize) -> u64 {
    let scaled = (kind.timed_requests() as f64 * seconds * share / REFERENCE_SECONDS).ceil();
    (scaled as u64).max(min_total.div_ceil(kind.clients()) as u64)
}

/// The latest moment the timed requests of a run starting now may run.
fn timed_cap() -> Instant {
    Instant::now() + Duration::from_secs_f64(MAX_TIMED_S)
}

/// Runs turns `turns` of `prep`'s closed loop, stopping at `OVERRUN`
/// times their expected time or at `cap`, and warns if they stopped.
fn run_phase(
    prep: &Prepared,
    turns: Range<u64>,
    origin: Option<Instant>,
    cap: Instant,
    report: &mut Report,
) -> Vec<ClientLog> {
    let per_client = turns.end - turns.start;
    let expected_s = per_client as f64 * REFERENCE_SECONDS / prep.kind.timed_requests() as f64;
    let deadline = cap.min(Instant::now() + Duration::from_secs_f64(OVERRUN * expected_s));
    let logs = closed_loop(
        prep.kind.clients(),
        turns,
        deadline,
        |idx| attempt(prep, idx, origin),
        ClientLog::record,
    );
    let planned = per_client * prep.kind.clients() as u64;
    let done: u64 = logs.iter().map(|l| l.attempted).sum();
    if done < planned {
        report.warnings.push(format!(
            "stopped after {done} of {planned} requests at the deadline"
        ));
    }
    report.absorb(&logs);
    logs
}

/// Request outputs of `0..REPLAYS`, gathered from all clients.
fn firsts(logs: &[ClientLog]) -> Vec<(u64, Vec<Option<Vec<f64>>>)> {
    let mut out: Vec<_> = logs.iter().flat_map(|l| l.firsts.iter().cloned()).collect();
    out.sort_by_key(|(idx, _)| *idx);
    out
}

fn same_bits(a: &[Option<Vec<f64>>], b: &[Option<Vec<f64>>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (None, None) => true,
            _ => false,
        })
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Completed requests per second of request time with `clients` clients
/// busy at once. Check time between requests is excluded, so this is the
/// closed loop's throughput with the checks taken out.
fn throughput(latencies: &[f64], clients: usize) -> f64 {
    clients as f64 * latencies.len() as f64 / latencies.iter().sum::<f64>()
}

fn all_latencies(logs: &[ClientLog]) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| l.latencies.iter().copied())
        .collect()
}

/// Sets up the workload (inputs and warm-up), adding its requests to
/// `report`; returns the inputs and the set-up time.
fn set_up(kind: Kind, seed: u64, report: &mut Report) -> (Prepared, f64) {
    let setup = Prepared::set_up(kind, seed);
    report.attempted += setup.requests;
    report.failed += setup.failed;
    report.failures.extend(setup.failures);
    (setup.prep, setup.seconds)
}

/// The untraced run: the end-to-end metrics.
///
/// The workload is set up `SETUP_REPEATS` times, each set-up followed by
/// an equal share of the timed requests, so the set-ups sample different
/// moments of the run and their median does not rest on one slow moment
/// of the machine.
pub fn run_untraced(kind: Kind, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(kind);
    let per_client = phase_requests(kind, seconds, 1.0, MIN_SAMPLES);
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut logs = Vec::new();
    let mut prep = None;
    let cap = timed_cap();
    for k in 0..SETUP_REPEATS as u64 {
        // Drop the last set-up's inputs first, so two never coexist.
        drop(prep.take());
        let (p, setup_s) = set_up(kind, seed, &mut report);
        setup_times.push(setup_s);
        let turns =
            k * per_client / SETUP_REPEATS as u64..(k + 1) * per_client / SETUP_REPEATS as u64;
        logs.extend(run_phase(&p, turns, None, cap, &mut report));
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up");

    let firsts = firsts(&logs);
    for (idx, outputs) in &firsts {
        report.attempted += 1;
        let again = prep.execute(*idx).outputs();
        if !same_bits(outputs, &again) {
            report.failed += 1;
            report.failures.push(format!(
                "replay of request {idx} differs from its first run"
            ));
        }
    }

    let latencies = all_latencies(&logs);
    let errors: Vec<f64> = logs.iter().flat_map(|l| l.errors.iter().copied()).collect();
    if latencies.is_empty() || errors.is_empty() {
        report.failed += 1;
        report
            .failures
            .push("no request completed and was scored".into());
        return report;
    }
    let rss = peak_rss_mb().unwrap_or_else(|| {
        report.failed += 1;
        report.failures.push("VmHWM unavailable".into());
        f64::NAN
    });
    if let Some((_, outputs)) = firsts.first() {
        report
            .info
            .push(("x_hat_digest", format!("{:016x}", digest(outputs)), "fnv1a"));
    }
    report.info.extend([
        (
            "configured_parallelism",
            pool::configured_parallelism().to_string(),
            "threads",
        ),
        ("clients", kind.clients().to_string(), "threads"),
        ("samples", latencies.len().to_string(), "count"),
        // The timings are printed but not bounded metrics: on the machine
        // the benchmark was defined on, their spread over ten runs exceeds
        // a 10% bound on some workload (see README.md).
        (
            "requests_per_s",
            throughput(&latencies, kind.clients()).to_string(),
            "1/s",
        ),
        (
            "latency_p50_ms",
            (nearest_rank(&latencies, 50.0) * 1e3).to_string(),
            "ms",
        ),
        (
            "latency_p90_ms",
            (nearest_rank(&latencies, 90.0) * 1e3).to_string(),
            "ms",
        ),
        (
            "failed_frac",
            (report.failed as f64 / report.attempted.max(1) as f64).to_string(),
            "frac",
        ),
    ]);
    report.metrics = vec![
        ("setup_s", median(&setup_times), "s"),
        ("peak_rss_mb", rss, "MiB"),
        // The mean, as the paper's Table 5 averages over noisy trials.
        (
            "scaled_error",
            errors.iter().sum::<f64>() / errors.len() as f64,
            "ratio",
        ),
    ];
    report
}

/// Process-wide counters read around the traced phase.
struct Counters {
    pool: PoolStats,
    plans: PlanCacheStats,
    builds: u64,
    sens: SensCacheStats,
}

impl Counters {
    fn read_counters() -> Counters {
        Counters {
            pool: pool::stats(),
            plans: plan_cache_stats(),
            builds: plan_builds(),
            sens: sens_cache_stats(),
        }
    }
}

/// The traced run: a quarter of the untraced run's requests untraced (the
/// overhead baseline), then a quarter traced; the per-layer metrics.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, trace_dir: &Path) -> Report {
    let mut report = Report::new(kind);
    let (prep, _) = set_up(kind, seed, &mut report);

    let per_client = phase_requests(kind, seconds, 0.25, MIN_TRACE_SAMPLES);
    let cap = timed_cap();
    let untraced = run_phase(&prep, 0..per_client, None, cap, &mut report);
    let before = Counters::read_counters();
    let origin = Instant::now();
    let traced = run_phase(&prep, 0..per_client, Some(origin), cap, &mut report);
    let after = Counters::read_counters();

    let requests: Vec<&TracedRequest> = traced.iter().flat_map(|l| &l.traced).collect();
    let untraced_lat = all_latencies(&untraced);
    if requests.is_empty() || untraced_lat.is_empty() {
        report.failed += 1;
        report.failures.push("no request completed".into());
        return report;
    }
    let matches = same_bits_all(&firsts(&untraced), &firsts(&traced));
    if !matches {
        report.warnings.push(
            "traced decomposition no longer reproduces PlanExecutor bit for bit; \
             the per-layer split describes a program that has since changed"
                .into(),
        );
    }

    let med = |f: &dyn Fn(&TracedRequest) -> f64| {
        median(&requests.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let layer = |l: Layer, scale: f64| med(&|r: &TracedRequest| r.layers[l as usize] * scale);
    let n = requests.len() as f64;
    let per_request = |delta: u64| delta as f64 / n;
    let traced_p50 = nearest_rank(
        &requests.iter().map(|r| r.latency_s).collect::<Vec<_>>(),
        50.0,
    );
    let untraced_p50 = nearest_rank(&untraced_lat, 50.0);
    let (p0, p1) = (&before.pool, &after.pool);
    report.metrics = vec![
        ("graph.build_us", layer(Layer::GraphBuild, 1e6), "us"),
        (
            "graph.pre_account_us",
            layer(Layer::GraphPreAccount, 1e6),
            "us",
        ),
        ("kernel.admit_us", layer(Layer::KernelAdmit, 1e6), "us"),
        ("kernel.init_ms", layer(Layer::KernelInit, 1e3), "ms"),
        (
            "kernel.transform_ms",
            layer(Layer::KernelTransform, 1e3),
            "ms",
        ),
        ("kernel.measure_ms", layer(Layer::KernelMeasure, 1e3), "ms"),
        (
            "kernel.measure_calls",
            med(&|r| r.counts.measure_calls as f64),
            "count",
        ),
        (
            "kernel.measure_rows",
            med(&|r| r.counts.measure_rows as f64),
            "count",
        ),
        ("kernel.history_ms", layer(Layer::KernelHistory, 1e3), "ms"),
        (
            "kernel.workspace_pool_bytes",
            med(&|r| r.counts.workspace_pool_bytes as f64),
            "bytes",
        ),
        (
            "select.ms",
            med(&|r| {
                (r.layers[Layer::Select as usize] + r.layers[Layer::WorstApprox as usize]) * 1e3
            }),
            "ms",
        ),
        (
            "select.worst_approx_ms",
            layer(Layer::WorstApprox, 1e3),
            "ms",
        ),
        ("partition.ms", layer(Layer::Partition, 1e3), "ms"),
        ("infer.stack_ms", layer(Layer::InferStack, 1e3), "ms"),
        ("infer.solve_ms", layer(Layer::InferSolve, 1e3), "ms"),
        (
            "solver.iterations",
            med(&|r| r.counts.solver_iterations as f64),
            "count",
        ),
        (
            "solver.us_per_iter",
            med(&|r| {
                let it = r.counts.solver_iterations;
                if it == 0 {
                    0.0
                } else {
                    r.layers[Layer::InferSolve as usize] * 1e6 / it as f64
                }
            }),
            "us",
        ),
        (
            "matrix.plan_cache_hits",
            per_request(after.plans.hits - before.plans.hits),
            "count",
        ),
        (
            "matrix.plan_cache_misses",
            per_request(after.plans.misses - before.plans.misses),
            "count",
        ),
        (
            "matrix.plan_builds",
            per_request(after.builds - before.builds),
            "count",
        ),
        (
            "matrix.plan_cache_resident_bytes",
            after.plans.resident_bytes as f64,
            "bytes",
        ),
        (
            "matrix.sens_cache_hits",
            per_request(after.sens.hits - before.sens.hits),
            "count",
        ),
        (
            "matrix.sens_cache_misses",
            per_request(after.sens.misses - before.sens.misses),
            "count",
        ),
        (
            "matrix.sens_cache_bypassed",
            per_request(after.sens.bypassed - before.sens.bypassed),
            "count",
        ),
        (
            "pool.completed",
            per_request(p1.completed - p0.completed),
            "count",
        ),
        ("pool.queued", per_request(p1.queued - p0.queued), "count"),
        ("pool.stolen", per_request(p1.stolen - p0.stolen), "count"),
        ("pool.inline", per_request(p1.inline - p0.inline), "count"),
        ("pool.queue_depth_max", p1.queue_depth_max as f64, "count"),
        (
            "pool.configured_parallelism",
            pool::configured_parallelism() as f64,
            "threads",
        ),
        ("unattributed_ms", med(&|r| r.unattributed_s * 1e3), "ms"),
        ("trace.latency_p50_ms", traced_p50 * 1e3, "ms"),
        ("trace.untraced_p50_ms", untraced_p50 * 1e3, "ms"),
        (
            "trace.overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "frac",
        ),
        (
            "trace.matches_untraced",
            f64::from(u8::from(matches)),
            "bool",
        ),
        ("trace.requests", n, "count"),
    ];

    let spans: Vec<Span> = {
        let mut all = Vec::new();
        for log in &traced {
            let base = all.len();
            let mut offset = 0;
            // Parent indices are per request; rebase them onto the file.
            for (i, s) in log.spans.iter().enumerate() {
                if s.parent.is_none() {
                    offset = base + i;
                }
                let mut s = s.clone();
                s.parent = s.parent.map(|p| p + offset);
                all.push(s);
            }
        }
        all
    };
    let path = trace_dir.join(format!("trace-{}-seed{seed}.json", kind.name()));
    let doc = Json::obj()
        .with("workload", kind.name())
        .with("seed", seed)
        .with("configured_parallelism", pool::configured_parallelism())
        .with("clock", "ns since the traced phase started")
        .with("spans", trace::spans_json(&spans));
    if let Err(e) =
        std::fs::create_dir_all(trace_dir).and_then(|()| std::fs::write(&path, doc.render()))
    {
        report
            .warnings
            .push(format!("could not write {}: {e}", path.display()));
    } else {
        report
            .info
            .push(("trace_file", path.display().to_string(), "path"));
    }
    report
}

fn same_bits_all(a: &[(u64, Vec<Option<Vec<f64>>>)], b: &[(u64, Vec<Option<Vec<f64>>>)]) -> bool {
    !a.is_empty()
        && a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((i, x), (j, y))| i == j && same_bits(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(600)
    }

    #[test]
    fn closed_loop_ends_when_every_request_panics() {
        let logs = closed_loop(
            2,
            0..5,
            far_deadline(),
            |idx| -> Outcome { panic!("request {idx} fails") },
            ClientLog::record,
        );
        assert_eq!(logs.len(), 2);
        for log in &logs {
            assert_eq!((log.attempted, log.failed), (5, 5));
            assert!(log.latencies.is_empty() && log.errors.is_empty());
        }
    }

    #[test]
    fn closed_loop_issues_fixed_indices_until_the_deadline() {
        let record = |log: &mut Vec<u64>, idx: u64, out: Option<u64>| {
            assert_eq!(out, Some(idx));
            log.push(idx);
        };
        let logs = closed_loop(2, 0..3, far_deadline(), |idx| idx, record);
        assert_eq!(logs, vec![vec![0, 2, 4], vec![1, 3, 5]]);
        // A later segment of the same loop continues the same sequence.
        let logs = closed_loop(2, 3..5, far_deadline(), |idx| idx, record);
        assert_eq!(logs, vec![vec![6, 8], vec![7, 9]]);
        let logs = closed_loop(1, 0..3, Instant::now(), |idx| idx, record);
        assert_eq!(logs, vec![Vec::<u64>::new()]);
    }

    #[test]
    fn request_counts_follow_the_run_length_alone() {
        assert_eq!(phase_requests(Kind::StripedHb, 20.0, 1.0, MIN_SAMPLES), 600);
        assert_eq!(phase_requests(Kind::StripedHb, 10.0, 1.0, MIN_SAMPLES), 300);
        assert_eq!(
            phase_requests(Kind::SessionsSmall, 20.0, 0.25, MIN_TRACE_SAMPLES),
            6_250
        );
        // Short runs keep enough samples for p90: 100 in all.
        assert_eq!(
            phase_requests(Kind::StripedDawa, 5.0, 1.0, MIN_SAMPLES),
            100
        );
        assert_eq!(
            phase_requests(Kind::SessionsSmall, 0.01, 1.0, MIN_SAMPLES),
            50
        );
    }
}
