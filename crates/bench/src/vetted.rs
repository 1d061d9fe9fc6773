//! The privacy-critical surface (paper §6.3): the files a privacy review
//! must read, and the rule that counts their lines. The
//! `verification_effort` bin prints the count (its docs say why each file
//! is on the list or off it), and the `vetted_surface` test gates it.

use std::fs;
use std::path::{Path, PathBuf};

/// Files whose correctness the privacy proof depends on, relative to the
/// workspace root.
pub const PRIVACY_CRITICAL: &[&str] = &[
    "crates/core/src/kernel/mod.rs",
    "crates/core/src/kernel/state.rs",
    "crates/core/src/kernel/noise.rs",
    "crates/core/src/kernel/error.rs",
    "crates/core/src/ops/selection/worst_approx.rs",
    "crates/core/src/ops/selection/privbayes.rs",
    // Stability bookkeeping depends on exact sensitivity computation:
    "crates/matrix/src/sensitivity.rs",
];

/// The kernel's privileged steps, private to `ektelo-core`'s kernel: a
/// core library file off the list that names one of them reaches the
/// data around the two primitives.
pub const PRIVILEGED_NAMES: &[&str] = &["charge_and_snapshot", "substream_seed", "noise::"];

/// The lines of `src` a review reads: every line before the first
/// `#[cfg(test)]` (tests need no privacy vetting) that is neither blank
/// nor a comment.
pub fn code_lines(src: &str) -> impl Iterator<Item = &str> {
    src.lines()
        .map(str::trim)
        .take_while(|t| !t.starts_with("#[cfg(test)]"))
        .filter(|t| !t.is_empty() && !t.starts_with("//"))
}

/// Directories holding no library code: build output, test suites,
/// benches, and the linter's fixture trees (deliberate violations shaped
/// like library files).
const NOT_LIBRARY: &[&str] = &["target", "tests", "benches", "fixtures"];

/// Every library source file under `root`'s `crates/` and `src/`, as
/// paths relative to `root` with forward slashes, sorted.
pub fn library_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    let mut rel: Vec<String> = files
        .iter()
        .map(|f| {
            let rel = f.strip_prefix(root).unwrap_or(f);
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect();
    rel.sort();
    rel
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name()
                .is_some_and(|n| NOT_LIBRARY.iter().any(|x| n == *x))
            {
                continue;
            }
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The workspace root this crate was built from.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The number of code lines of `root`'s file `rel` (0 if unreadable).
pub fn file_code_lines(root: &Path, rel: &str) -> usize {
    fs::read_to_string(root.join(rel)).map_or(0, |src| code_lines(&src).count())
}
