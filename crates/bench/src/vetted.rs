//! The privacy-critical surface (paper §6.3): the files a privacy review
//! must read, and the rule that counts their lines. The surface is the
//! kernel crate's library code plus the files on [`LISTED`]; the
//! compiler keeps the private data inside the crate, so nothing outside
//! it needs vetting. The `verification_effort` bin prints the count (its
//! docs say why each file is on the surface or off it), and the
//! `vetted_surface` test gates it.

use std::fs;
use std::path::{Path, PathBuf};

/// The kernel crate's source directory, relative to the workspace root:
/// every library file under it is privacy-critical.
pub const KERNEL_CRATE: &str = "crates/kernel/src/";

/// The privacy-critical files outside the kernel crate, relative to the
/// workspace root. Stability bookkeeping and noise calibration depend on
/// exact L1 sensitivities, an inherent method of `Matrix` that every
/// measurement and transformation calls.
pub const LISTED: &[&str] = &["crates/matrix/src/sensitivity.rs"];

/// Whether library file `rel` is on the privacy-critical surface.
pub fn is_vetted(rel: &str) -> bool {
    rel.starts_with(KERNEL_CRATE) || LISTED.contains(&rel)
}

/// The lines of `src` a review reads: every line that is neither blank
/// nor a comment, except the items annotated `#[cfg(test)]` (tests need
/// no privacy vetting). Such an item ends at its first `;` outside braces
/// or where its braced block closes, counted by brace depth; the code
/// after it is counted again.
pub fn code_lines(src: &str) -> impl Iterator<Item = &str> {
    // Brace depth inside the test item being skipped, and whether its
    // block has opened yet.
    let mut test_item: Option<(usize, bool)> = None;
    src.lines()
        .map(str::trim)
        .filter(|t| !t.is_empty() && !t.starts_with("//"))
        .filter(move |t| {
            let rest = match (test_item, t.strip_prefix("#[cfg(test)]")) {
                (Some(_), _) => *t,
                (None, Some(rest)) => rest.trim_start(),
                (None, None) => return true,
            };
            let (mut depth, mut opened) = test_item.unwrap_or((0, false));
            for c in rest.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            let done = depth == 0 && (opened || rest.ends_with(';'));
            test_item = (!done).then_some((depth, opened));
            false
        })
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

#[cfg(test)]
mod tests {
    use super::code_lines;

    #[test]
    fn a_test_item_hides_only_itself() {
        let src = "\
//! Module docs.
fn a() {}
#[cfg(test)]
use std::fmt;

fn b() {
    // a comment
    let c = 1;
}
#[cfg(test)] use std::io;
#[cfg(test)]
#[allow(dead_code)]
fn helper() -> u8 {
    let x = { 1 };
    x
}
fn d() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        let lines: Vec<&str> = code_lines(src).collect();
        assert_eq!(
            lines,
            ["fn a() {}", "fn b() {", "let c = 1;", "}", "fn d() {}"]
        );
    }
}
