//! End-to-end plan benchmark for the EKTELO workspace.
//!
//! Four closed-loop workloads drive the public plan entry points
//! (`ektelo_plans::striped::*`, `ektelo_plans::mwem::plan_mwem`), which
//! build a `PlanSpec` and run it through `PlanExecutor::run`. See
//! `README.md` next to this package for the workloads, metrics and
//! commands.
//!
//! ```text
//! ektelo_benchmark [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//!     runs every workload, each as a child process of this binary
//! ektelo_benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//!     runs one workload in this process
//! ektelo_benchmark --compare DIR_A DIR_B
//!     compares two sets of run files written by the first form
//! ```

mod json;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use workloads::Kind;

/// Where run files and traces go, relative to the working directory.
const OUT_DIR: &str = "target/ektelo-benchmark";
const DEFAULT_SECONDS: f64 = 12.0;
/// Fewest run files per side that `--compare` accepts.
const MIN_COMPARE_RUNS: usize = 10;

/// An end-to-end metric and the share of the base median by which it may
/// worsen before a change counts as a regression (kept equal to
/// `BENCHMARK.json`).
struct E2e {
    name: &'static str,
    bound: f64,
}

const E2E: &[E2e] = &[
    E2e {
        name: "setup_s",
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        bound: 0.10,
    },
    E2e {
        name: "scaled_error",
        bound: 0.06,
    },
];

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(OUT_DIR).join("runs"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Kind::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ektelo_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare_dirs(a, b) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ektelo_benchmark --compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match args.workload {
        Some(kind) => {
            let report = if args.trace {
                run::run_traced(kind, args.seed, args.seconds, Path::new(OUT_DIR))
            } else {
                run::run_untraced(kind, args.seed, args.seconds)
            };
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => run_all(&args),
    }
}

/// Runs every workload as a child process (cold process-wide caches per
/// workload, and `peak_rss_mb` of that workload alone), echoes their
/// lines, and writes one run file.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ektelo_benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Json::obj();
    for kind in workloads::ALL {
        let output = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: could not start: {e}", kind.name());
                ok = false;
                continue;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        match json::parse_json(last) {
            Ok(result) => {
                ok &= output.status.success()
                    && result.field("correct").and_then(Json::as_bool) == Some(true);
                results = results.with(kind.name(), result);
            }
            Err(e) => {
                eprintln!("{}: no result line ({e})", kind.name());
                ok = false;
            }
        }
    }
    let doc = Json::obj()
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with(
            "configured_parallelism",
            ektelo_matrix::pool::configured_parallelism(),
        )
        .with("workloads", results);
    let suffix = if args.trace { "-trace" } else { "" };
    let path = args.out.join(format!("run-seed{}{suffix}.json", args.seed));
    match std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, doc.render())) {
        Ok(()) => eprintln!("run file: {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads the untraced run files of `dir`, in file-name order.
fn load_runs(dir: &Path) -> Result<Vec<Json>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.field("trace").and_then(Json::as_bool) != Some(true)
            && doc.field("workloads").is_some()
        {
            runs.push(doc);
        }
    }
    if runs.len() < MIN_COMPARE_RUNS {
        return Err(format!(
            "{}: {} untraced run files, need at least {MIN_COMPARE_RUNS}",
            dir.display(),
            runs.len()
        ));
    }
    Ok(runs)
}

fn metric_values(runs: &[Json], kind: Kind, metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            r.field("workloads")
                .and_then(|w| w.field(kind.name()))
                .and_then(|w| w.field("metrics"))
                .and_then(|m| m.field(metric))
                .and_then(|m| m.field("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("a run file lacks {} {metric}", kind.name()))
        })
        .collect()
}

/// `--compare`: one row per (workload, end-to-end metric), base `a`
/// against candidate `b`, paired in file-name order.
fn compare_dirs(a: &Path, b: &Path) -> Result<(), String> {
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let parallelism: Vec<f64> = runs_a
        .iter()
        .chain(&runs_b)
        .map(|r| {
            r.field("configured_parallelism")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        })
        .collect();
    let mut distinct = parallelism.clone();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup_by(|a, b| a.to_bits() == b.to_bits());
    if distinct.len() != 1 {
        return Err(format!(
            "runs were made at different configured_parallelism values {distinct:?}; \
             results are not comparable"
        ));
    }
    for (side, runs) in [("A", &runs_a), ("B", &runs_b)] {
        for kind in workloads::ALL {
            let incorrect = runs
                .iter()
                .filter(|r| {
                    r.field("workloads")
                        .and_then(|w| w.field(kind.name()))
                        .and_then(|w| w.field("correct"))
                        .and_then(Json::as_bool)
                        != Some(true)
                })
                .count();
            if incorrect > 0 {
                println!(
                    "warning: {incorrect} run(s) of side {side} failed checks on {}",
                    kind.name()
                );
            }
        }
    }
    println!(
        "A = {} ({} runs), B = {} ({} runs), configured_parallelism {}",
        a.display(),
        runs_a.len(),
        b.display(),
        runs_b.len(),
        parallelism[0]
    );
    println!(
        "{:<15} {:<15} {:>12} {:>25} {:>12} {:>25} {:>6} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "bound", "B won"
    );
    for kind in workloads::ALL {
        for m in E2E {
            let va = metric_values(&runs_a, kind, m.name)?;
            let vb = metric_values(&runs_b, kind, m.name)?;
            let c = stats::compare(&va, &vb, m.bound);
            println!(
                "{:<15} {:<15} {:>12.6} {:>25} {:>12.6} {:>25} {:>6.2} {:>6.2}  {}",
                kind.name(),
                m.name,
                c.median_a,
                format!("[{:.6}, {:.6}]", c.quartiles_a.0, c.quartiles_a.1),
                c.median_b,
                format!("[{:.6}, {:.6}]", c.quartiles_b.0, c.quartiles_b.1),
                m.bound,
                c.won_frac,
                c.verdict.label()
            );
        }
    }
    Ok(())
}
