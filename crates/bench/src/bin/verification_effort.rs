//! Reproduces the *methodology* of the paper's §6.3 verification-effort
//! comparison: how many lines of code must be vetted to trust the privacy
//! guarantee?
//!
//! In EKTELO's trust model only the privacy-critical surface needs review:
//! the kernel crate (`crates/kernel`: budget accounting, stability, noise,
//! the two primitives through which the Private→Public operators reach
//! the data, and the two selection scores its exponential mechanism picks
//! by) plus the listed files outside it (the L1 sensitivities). The crate
//! boundary is the containment: no code outside it can name a private
//! snapshot or the samplers. Plans, inference, workloads, generators and
//! the matrix engine are untrusted client-space code — bugs there cost
//! accuracy, never privacy. So are the selection operators' modules:
//! AHP's clustering and DAWA's segmentation post-process the kernel's
//! noisy-histogram release, and Worst-approx and PrivBayes only choose
//! among the kernel's picks. The surface and the counting rule live in
//! `ektelo_bench::vetted`, shared with the `vetted_surface` test that
//! gates the count. This binary walks the workspace sources
//! and prints the split (the paper's analogous numbers: 517
//! privacy-critical lines vs 1837 for vetting the monolithic DPBench
//! implementations).
//!
//! Run: `cargo run --release -p ektelo-bench --bin verification_effort`

use ektelo_bench::vetted::{file_code_lines, is_vetted, library_files, workspace_root};

fn main() {
    let root = workspace_root();
    let mut critical = 0usize;
    let mut total = 0usize;
    println!("\nPrivacy-critical modules (must be vetted once):");
    for rel in library_files(&root) {
        let lines = file_code_lines(&root, &rel);
        total += lines;
        if is_vetted(&rel) {
            critical += lines;
            println!("  {rel:<55} {lines:>6}");
        }
    }
    println!("\n{:<57} {critical:>6}", "privacy-critical lines");
    println!("{:<57} {total:>6}", "total library lines (excl. tests)");
    println!(
        "{:<57} {:>5.1}%",
        "fraction needing privacy review",
        100.0 * critical as f64 / total as f64
    );
    println!(
        "\n(Paper §6.3: vetting all privacy-critical EKTELO operators took 517 lines \
         vs 1837 lines to vet the equivalent DPBench algorithms — and one vetted \
         operator, Vector Laplace, covers 10 of the 18 plans. The same leverage \
         holds here: every plan in ektelo-plans is untrusted client code.)"
    );
}
