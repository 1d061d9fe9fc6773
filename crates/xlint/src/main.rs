//! CLI for the workspace invariant linter.
//!
//! ```text
//! cargo run -p xlint --                  # human-readable diagnostics, exit 1 on any
//! cargo run -p xlint -- --json           # machine-readable report
//! cargo run -p xlint -- --inventory      # also list unsafe sites, lock regions,
//!                                        # WARM roots and cfg-parity pairs
//! cargo run -p xlint -- --features failpoints  # evaluate #[cfg] gates with
//!                                              # declared features on
//! cargo run -p xlint -- --root PATH      # lint a different tree (default: workspace root)
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]` — so the tool works from any subdirectory.
fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut inventory = false;
    let mut root: Option<PathBuf> = None;
    let mut features: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--inventory" => inventory = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xlint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--features" => match args.next() {
                Some(list) => features.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                ),
                None => {
                    eprintln!("xlint: --features requires a comma-separated list");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "xlint: offline invariant linter\n\n\
                     USAGE: cargo run -p xlint -- [--json] [--inventory] [--features a,b] \
                     [--root PATH]\n\n\
                     Rules: {}\n\
                     Allowlist: // xlint: allow(<rule>, reason = \"...\")",
                    xlint::RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("xlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root.unwrap_or_else(|| find_workspace_root(&cwd));

    let analysis = match xlint::Analysis::load(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xlint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    // A name no manifest declares would lint a build that cannot exist
    // (a stale leg) while reporting it clean.
    let unknown: Vec<&str> = features
        .iter()
        .filter(|f| !analysis.declared_features().contains(*f))
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "xlint: --features names undeclared feature(s) `{}`; declared: {}",
            unknown.join(", "),
            analysis
                .declared_features()
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    }
    let config = xlint::Config::with_features(features);
    let report = analysis.lint(&config);

    if json {
        println!("{}", xlint::to_json(&report, inventory));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        if inventory {
            println!(
                "-- unsafe inventory ({} sites) --",
                report.unsafe_sites.len()
            );
            for s in &report.unsafe_sites {
                match &s.safety {
                    Some(t) => println!("{}:{}: {}", s.file, s.line, t),
                    None => println!("{}:{}: MISSING SAFETY COMMENT", s.file, s.line),
                }
            }
            println!("-- lock regions ({} regions) --", report.lock_regions.len());
            for r in &report.lock_regions {
                let binding = r.binding.as_deref().unwrap_or("<expr>");
                println!(
                    "{}:{}-{}: {} guard `{}` in fn {}{}",
                    r.file,
                    r.start,
                    r.end,
                    r.kind,
                    binding,
                    r.fn_name,
                    if r.events.is_empty() {
                        String::new()
                    } else {
                        format!(" [{}]", r.events.join("; "))
                    }
                );
            }
            println!("-- WARM roots ({} roots) --", report.warm_roots.len());
            for w in &report.warm_roots {
                println!(
                    "{}: {} (closure: {} fn(s), alloc sites: {})",
                    w.file, w.name, w.closure, w.alloc_sites
                );
            }
            println!("-- cfg-parity pairs ({} pairs) --", report.cfg_pairs.len());
            for p in &report.cfg_pairs {
                println!("{}: [{}] {}", p.file, p.kind, p.name);
            }
        }
        println!(
            "xlint: {} diagnostic(s), {} unsafe site(s), {} file(s) scanned",
            report.diagnostics.len(),
            report.unsafe_sites.len(),
            report.files_scanned
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
