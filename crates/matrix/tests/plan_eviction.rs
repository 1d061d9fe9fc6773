//! Gate for the plan cache's residency bound on a long spine-stacking
//! run.
//!
//! An MWEM-style loop stacks a *new* `Union` spine every round (a
//! brand-new shape, so a brand-new cache entry of `O(blocks)` bytes)
//! while re-using the same block shapes. The cache keeps a byte counter
//! and clears itself when an insert finds the counter above its 64 MiB
//! bound. This run stays far below the bound, so it must hold every
//! block plan for its whole length: `plan_builds()` stays **exactly
//! flat** after warmup, each round costs exactly one miss (its new
//! spine), and the counted bytes never exceed the bound.
//!
//! This file runs as its own process, so the global cache is not shared
//! with other suites.

use ektelo_matrix::{plan_builds, plan_cache_stats, Matrix, Workspace};

/// The cache's residency bound (`MAX_BYTES` in `plan_cache.rs`).
const BOUND: usize = 64 << 20;

#[test]
fn long_spine_stacking_run_stays_byte_bounded_without_rebuilds() {
    let n = 512usize;
    // Eight distinct block shapes over the same domain (distinct query
    // counts fingerprint distinctly), rotated like MWEM's per-round
    // measurement rows.
    let blocks: Vec<Matrix> = (0..8)
        .map(|k| Matrix::range_queries(n, (0..=4 * k).map(|i| (i, i + 2)).collect()))
        .collect();

    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
    let mut ws = Workspace::new();
    let mut spine: Vec<Matrix> = Vec::new();

    // Warmup: one pass over every block shape builds all block plans.
    for b in &blocks {
        spine.push(b.clone());
        let system = Matrix::vstack(spine.clone());
        let mut out = vec![0.0; system.rows()];
        system.matvec_into(&x, &mut out, &mut ws);
    }
    let builds_after_warmup = plan_builds();
    let warm = plan_cache_stats();

    // The long run: 400 more rounds, each stacking one more (cached)
    // block under a brand-new spine shape.
    let rounds = 400usize;
    for r in 0..rounds {
        spine.push(blocks[r % blocks.len()].clone());
        let system = Matrix::vstack(spine.clone());
        let mut out = vec![0.0; system.rows()];
        system.matvec_into(&x, &mut out, &mut ws);

        let stats = plan_cache_stats();
        assert!(
            stats.resident_bytes <= BOUND,
            "round {r}: resident plan bytes {} escaped the bound {BOUND}",
            stats.resident_bytes
        );
    }

    let stats = plan_cache_stats();
    // Every dead spine is still resident and counted: nothing was
    // cleared, and the counter grew by each new spine's bytes.
    assert_eq!(stats.entries, warm.entries + rounds);
    assert!(stats.resident_bytes > warm.resident_bytes);
    // No rebuild: every round's spine *reassembles* from cached block
    // plans (a miss on the new spine shape, but zero planning-pass walks).
    assert_eq!(
        plan_builds(),
        builds_after_warmup,
        "block plans must stay resident (no planning-pass walks)"
    );
    // And each round costs exactly one miss: the brand-new spine shape.
    assert_eq!(
        stats.misses - warm.misses,
        rounds as u64,
        "per round: one spine miss, zero block misses"
    );
}
