//! The linter's own gate on the real tree: `cargo test -p xlint` (and so
//! the root `cargo test`) fails if any workspace file violates a rule —
//! under every cfg leg the CI matrix builds — or any `unsafe` site loses
//! its `SAFETY:` justification. The tree is parsed once
//! ([`xlint::Analysis::load`]) and re-linted per feature set, which is
//! what keeps the full matrix under the CI time budget.

use std::path::PathBuf;

fn analysis() -> xlint::Analysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    xlint::Analysis::load(&root).expect("workspace scans")
}

fn assert_clean(report: &xlint::Report, leg: &str) {
    assert!(
        report.clean(),
        "xlint found violations in the real tree (features: {leg}):\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_lints_clean_across_cfg_matrix() {
    let analysis = analysis();
    let legs: &[&[&str]] = &[&[], &["failpoints"]];
    for leg in legs {
        assert!(
            leg.iter()
                .all(|f| analysis.declared_features().contains(*f)),
            "leg {leg:?} names a feature no manifest declares"
        );
        let config = xlint::Config::with_features(leg.iter().copied());
        let report = analysis.lint(&config);
        assert_clean(&report, &leg.join(","));
    }
}

#[test]
fn workspace_inventory_is_sound() {
    let report = analysis().lint(&xlint::Config::default());
    assert_clean(&report, "<default>");
    // Sanity: the walk actually covered the workspace (guards against a
    // silently-wrong root making this test vacuous).
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — wrong root?",
        report.files_scanned
    );
    // Unsafe hygiene is a hard gate, not just an inventory: every site
    // must carry its justification.
    let unjustified: Vec<_> = report
        .unsafe_sites
        .iter()
        .filter(|s| s.safety.is_none())
        .map(|s| format!("{}:{}", s.file, s.line))
        .collect();
    assert!(
        unjustified.is_empty(),
        "unsafe sites without SAFETY comments: {unjustified:?}"
    );
    // The flow analysis actually saw the tree: the kernel's guard
    // regions, the matvec/kernels WARM roots and the failpoint SITES
    // parity pairs must all be inventoried — an empty section here
    // means a rule went vacuous, not that the tree is pristine.
    assert!(
        report
            .lock_regions
            .iter()
            .any(|r| r.file.ends_with("kernel/src/kernel/mod.rs") && r.kind == "KernelState"),
        "no KernelState guard regions found in the kernel"
    );
    let warm: Vec<&str> = report.warm_roots.iter().map(|w| w.name.as_str()).collect();
    for root in ["matvec_into", "rmatvec_into", "rmatvec_add"] {
        assert!(warm.contains(&root), "WARM root `{root}` missing: {warm:?}");
    }
    assert!(
        report.warm_roots.iter().all(|w| w.closure >= 1),
        "degenerate WARM closure: {:?}",
        report.warm_roots
    );
    let fp_pairs = report
        .cfg_pairs
        .iter()
        .filter(|p| p.kind == "failpoint-site")
        .count();
    assert!(
        fp_pairs >= 6,
        "expected every declared failpoint verified, got {fp_pairs}"
    );
}
