//! Gate on the privacy-critical surface (paper §6.3): the files a privacy
//! review reads, counted with `verification_effort`'s rule.
//!
//! Two checks. The count must not exceed [`CEILING`], the count measured
//! when the Private→Public operators moved onto the kernel's two
//! primitives (1,566 lines before, 1,381 after). Raising the ceiling is a
//! declared change, with its reason recorded beside the new value. And no
//! `ektelo-core` library file off the list may name the kernel's
//! privileged steps (`charge_and_snapshot`, `substream_seed`, `noise::`)
//! in its code: the operators outside the list reach the data only
//! through the two primitives, so what they do with the release stays
//! post-processing. The steps are private items of `ektelo-core`'s
//! kernel, so no other crate can name them.

use ektelo_bench::vetted::{
    code_lines, file_code_lines, library_files, workspace_root, PRIVACY_CRITICAL, PRIVILEGED_NAMES,
};

/// The most privacy-critical lines the surface may hold: 1,381, plus the
/// 8 lines of `split_by_partition`'s check that no cell lies in two
/// groups, which parallel composition of the children needs.
const CEILING: usize = 1_389;

#[test]
fn privacy_critical_lines_stay_under_the_ceiling() {
    let root = workspace_root();
    let files = library_files(&root);
    let mut count = 0;
    for rel in PRIVACY_CRITICAL {
        assert!(
            files.iter().any(|f| f == rel),
            "{rel} is on the vetted list but is not a library file"
        );
        count += file_code_lines(&root, rel);
    }
    assert!(
        count <= CEILING,
        "{count} privacy-critical lines, over the ceiling of {CEILING}"
    );
}

#[test]
fn only_vetted_files_name_the_privileged_steps() {
    let root = workspace_root();
    let mut offenders = Vec::new();
    for rel in library_files(&root) {
        if !rel.starts_with("crates/core/src/") || PRIVACY_CRITICAL.contains(&rel.as_str()) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel)).unwrap();
        for line in code_lines(&src) {
            if let Some(name) = PRIVILEGED_NAMES.iter().find(|n| line.contains(*n)) {
                offenders.push(format!("{rel}: `{name}` in `{line}`"));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "library files off the vetted list name privileged steps:\n{}",
        offenders.join("\n")
    );
}
