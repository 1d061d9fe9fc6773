//! Fixture self-tests: each fixture is a miniature workspace tree, so the
//! path-scoped rules (the shim's parallelism query, state.rs chokepoint, hot-file
//! hash ban, kernels/proptest cross-reference) and the flow rules
//! (lock-discipline, warm-path-alloc, determinism-transitive,
//! cfg-parity, dead-pub) are exercised exactly as they run against the
//! real tree. Each tree's `examples/callers.rs` calls the functions
//! seeded for the other rules, so `dead-pub` reports only its own cases.
//!
//! * `violations/` seeds one violation per rule at a known line and
//!   pairs each with the path-exempt twin (the machine query in
//!   `pool.rs`, the benchmark shim; ledger code in `state.rs`; or a
//!   `#[cfg(test)]` module must stay silent), and checks that the shim
//!   gets no thread exemption;
//! * `allowed/` carries the same violations under well-formed
//!   `xlint: allow(...)` directives and must lint clean;
//! * `badallow/` holds malformed directives, which must surface as
//!   `allow-syntax` diagnostics rather than silently disabling rules.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The (file, line, rule) triple of every diagnostic, in report order.
fn keys(report: &xlint::Report) -> Vec<(String, usize, &'static str)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

#[test]
fn violations_are_detected_at_exact_lines() {
    let report = xlint::lint_root(&fixture("violations")).expect("fixture tree scans");
    let expected: Vec<(String, usize, &str)> = [
        // mod.rs: raw eps comparison + reserved mutation outside state.rs,
        // then the reservation-ledger fields (held/charged) likewise.
        ("crates/core/src/kernel/mod.rs", 6, "budget-chokepoint"),
        ("crates/core/src/kernel/mod.rs", 9, "budget-chokepoint"),
        ("crates/core/src/kernel/mod.rs", 14, "budget-chokepoint"),
        ("crates/core/src/kernel/mod.rs", 15, "budget-chokepoint"),
        // locked_work: allocation, pool dispatch, solver entry and
        // reentrant self-call inside a live KernelState guard, then a
        // panic that fires under both the flow and the line rule.
        ("crates/core/src/kernel/mod.rs", 25, "lock-discipline"),
        ("crates/core/src/kernel/mod.rs", 26, "lock-discipline"),
        ("crates/core/src/kernel/mod.rs", 27, "lock-discipline"),
        ("crates/core/src/kernel/mod.rs", 28, "lock-discipline"),
        ("crates/core/src/kernel/mod.rs", 29, "lock-discipline"),
        ("crates/core/src/kernel/mod.rs", 29, "panic-policy"),
        // moved_guard: the guard is assigned in a nested block but the
        // binding outlives it — the alloc after the block close is still
        // inside the region.
        ("crates/core/src/kernel/mod.rs", 46, "lock-discipline"),
        // lib.rs: bare unsafe block, library unwrap, then an arm call in
        // library code and a failpoint site outside the audited list
        // (the undeclared name also trips the SITES parity check).
        ("crates/core/src/lib.rs", 3, "unsafe-safety"),
        ("crates/core/src/lib.rs", 7, "panic-policy"),
        ("crates/core/src/lib.rs", 19, "failpoint-sites"),
        ("crates/core/src/lib.rs", 20, "cfg-parity"),
        ("crates/core/src/lib.rs", 20, "failpoint-sites"),
        // failpoints.rs: `ghost::site` is declared but used nowhere.
        ("crates/matrix/src/failpoints.rs", 6, "cfg-parity"),
        // graph.rs: hash use visible only transitively from matvec_into.
        ("crates/matrix/src/graph.rs", 5, "determinism-transitive"),
        // kernels.rs: untagged fires twice (missing tag + unreferenced),
        // tagged_untested once (unreferenced), mistagged once (bad tag).
        ("crates/matrix/src/kernels.rs", 6, "kernel-class"),
        ("crates/matrix/src/kernels.rs", 6, "kernel-class"),
        ("crates/matrix/src/kernels.rs", 11, "kernel-class"),
        ("crates/matrix/src/kernels.rs", 16, "kernel-class"),
        // matvec.rs: hash import, machine query, hash use, ad-hoc thread.
        ("crates/matrix/src/matvec.rs", 1, "determinism-hash-iter"),
        ("crates/matrix/src/matvec.rs", 4, "determinism-parallelism"),
        ("crates/matrix/src/matvec.rs", 5, "determinism-hash-iter"),
        ("crates/matrix/src/matvec.rs", 7, "determinism-thread"),
        // pool.rs: the shim may query the machine, but not spawn.
        ("crates/matrix/src/pool.rs", 5, "determinism-thread"),
        // warm.rs: allocation in the transitive closure of a WARM root.
        ("crates/matrix/src/warm.rs", 10, "warm-path-alloc"),
        // api.rs: no caller at all, a caller only in its own file, callers
        // only in the crate's own tests or in a unit test, and a method
        // whose one qualified call resolves to another impl type. The
        // library, example, root-test (inside `proptest!`), value-use and
        // unresolved-alias callers keep the rest alive; `pub(crate)` is
        // not checked.
        ("crates/plans/src/api.rs", 3, "dead-pub"),
        ("crates/plans/src/api.rs", 5, "dead-pub"),
        ("crates/plans/src/api.rs", 11, "dead-pub"),
        ("crates/plans/src/api.rs", 13, "dead-pub"),
        ("crates/plans/src/api.rs", 28, "dead-pub"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r))
    .collect();
    assert_eq!(
        keys(&report),
        expected,
        "full diagnostics: {:#?}",
        report.diagnostics
    );
    // The path-exempt twins stayed silent: the machine query in pool.rs
    // (the benchmark shim), state.rs (budget chokepoint, incl.
    // held/charged), the #[cfg(test)] unwrap, the site in kernel/mod.rs
    // (audited site file), and the arm call inside a #[cfg(test)]
    // module.
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.rule == "failpoint-sites" && d.line > 20));
    assert!(!report
        .diagnostics
        .iter()
        .any(
            |d| (d.file.ends_with("pool.rs") && d.rule != "determinism-thread")
                || d.file.contains("state.rs")
        ));
    // The bare unsafe site is inventoried without a justification.
    assert_eq!(report.unsafe_sites.len(), 1);
    assert_eq!(report.unsafe_sites[0].file, "crates/core/src/lib.rs");
    assert_eq!(report.unsafe_sites[0].line, 3);
    assert!(report.unsafe_sites[0].safety.is_none());
    // Only the own-file caller is told to make its function private.
    let private: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "dead-pub" && d.message.contains("make it private"))
        .map(|d| d.line)
        .collect();
    assert_eq!(private, [5]);
    // The warm diagnostic names its reaching chain.
    let warm = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "warm-path-alloc")
        .expect("warm diagnostic present");
    assert!(
        warm.message.contains("accumulate -> stage"),
        "chain missing: {}",
        warm.message
    );
    // Flow inventory: the guard regions, WARM roots and verified
    // cfg pairs all surface.
    assert!(
        report
            .lock_regions
            .iter()
            .any(|r| r.fn_name == "moved_guard" && r.kind == "KernelState"),
        "moved_guard region missing: {:?}",
        report.lock_regions
    );
    let root = report
        .warm_roots
        .iter()
        .find(|w| w.name == "accumulate")
        .expect("WARM root inventoried");
    assert!(root.closure >= 2 && root.alloc_sites >= 1);
    assert!(report
        .cfg_pairs
        .iter()
        .any(|p| p.kind == "failpoint-site" && p.name.contains("state::charge")));
}

#[test]
fn allowlisted_violations_are_honored() {
    let report = xlint::lint_root(&fixture("allowed")).expect("fixture tree scans");
    assert!(
        report.clean(),
        "allowed tree must lint clean, got: {:#?}",
        report.diagnostics
    );
    // The justified unsafe site is inventoried with its SAFETY text.
    assert_eq!(report.unsafe_sites.len(), 1);
    let safety = report.unsafe_sites[0].safety.as_deref().unwrap_or("");
    assert!(safety.contains("SAFETY:"), "inventory text: {safety:?}");
}

#[test]
fn malformed_allow_directives_are_diagnostics() {
    let report = xlint::lint_root(&fixture("badallow")).expect("fixture tree scans");
    let got = keys(&report);
    assert_eq!(
        got,
        vec![
            ("crates/core/src/lib.rs".to_string(), 1, "allow-syntax"),
            ("crates/core/src/lib.rs".to_string(), 4, "allow-syntax"),
            // A reason-less allow on a warm-path allocation surfaces as
            // a syntax diagnostic AND does not suppress the flow rule.
            ("crates/matrix/src/warm.rs".to_string(), 7, "allow-syntax"),
            (
                "crates/matrix/src/warm.rs".to_string(),
                8,
                "warm-path-alloc"
            ),
        ],
        "full diagnostics: {:#?}",
        report.diagnostics
    );
    // The unknown-rule case names the bad rule so the typo is findable.
    assert!(report.diagnostics[1].message.contains("made-up-rule"));
}

#[test]
fn json_output_is_well_formed_and_complete() {
    let report = xlint::lint_root(&fixture("violations")).expect("fixture tree scans");
    let json = xlint::to_json(&report, true);
    // Hand-rolled writer: check the load-bearing structure.
    assert!(json.contains("\"diagnostics\":["));
    assert!(json.contains("\"unsafe_inventory\":["));
    assert!(json.contains("\"files_scanned\":"));
    assert!(json.contains("\"rule\":\"determinism-thread\""));
    assert!(json.contains("\"file\":\"crates/matrix/src/matvec.rs\""));
    // Every diagnostic is present, and the bare unsafe site reads null.
    assert_eq!(json.matches("\"rule\":").count(), report.diagnostics.len());
    assert!(json.contains("\"safety\":null"));
}
