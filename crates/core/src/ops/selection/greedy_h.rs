//! Greedy-H: the workload-weighted binary hierarchy from the DAWA paper
//! (Li et al. 2014; paper Plan #5 and the second stage of Plan #9).
//!
//! Each workload range query decomposes greedily into maximal nodes of a
//! binary interval tree. Levels that answer many workload queries get
//! proportionally more of the noise budget: minimizing
//! `Σ_ℓ c_ℓ / λ_ℓ²` subject to `Σ_ℓ λ_ℓ = const` gives the closed form
//! `λ_ℓ ∝ c_ℓ^{1/3}` for per-level weights λ_ℓ and usage counts c_ℓ.

use std::sync::Arc;

use ektelo_matrix::{Matrix, RangeQueries};

/// Depth of the binary split tree over `[0, n)`: the root, and one level
/// per halving of its longest interval, `⌈log₂ n⌉ + 1`.
fn depth(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        (n - 1).ilog2() as usize + 2
    }
}

/// Writes the next level of the binary split tree over `next`: the
/// halves of `level`'s intervals, left to right.
fn split_level(level: &[(usize, usize)], next: &mut Vec<(usize, usize)>) {
    next.clear();
    for &(lo, hi) in level.iter().filter(|&&(lo, hi)| hi - lo > 1) {
        let mid = (lo + hi) / 2;
        next.push((lo, mid));
        next.push((mid, hi));
    }
}

/// Counts, per tree level, how many workload ranges use a node of that
/// level in their greedy decomposition (`depth` levels over `[0, n)`).
fn level_usage(n: usize, depth: usize, ranges: &[(usize, usize)]) -> Vec<f64> {
    let mut counts = vec![0.0; depth];
    for &(qlo, qhi) in ranges {
        decompose(0, n, qlo.min(n), qhi.min(n), 0, &mut counts);
    }
    counts
}

fn decompose(lo: usize, hi: usize, qlo: usize, qhi: usize, level: usize, counts: &mut [f64]) {
    if qlo >= hi || qhi <= lo || qlo >= qhi {
        return;
    }
    if qlo <= lo && hi <= qhi {
        counts[level] += 1.0;
        return;
    }
    debug_assert!(hi - lo > 1, "singleton must be fully covered or disjoint");
    let mid = (lo + hi) / 2;
    decompose(lo, mid, qlo, qhi, level + 1, counts);
    decompose(mid, hi, qlo, qhi, level + 1, counts);
}

/// Builds the Greedy-H strategy for a workload of range queries over
/// `[0, n)`. Falls back to uniform level weights when `ranges` is empty.
pub fn greedy_h(n: usize, ranges: &[(usize, usize)]) -> Matrix {
    // λ_ℓ ∝ c_ℓ^{1/3}; floor keeps unused levels measurable at low weight
    // so the strategy stays full-rank (leaves are always included).
    let mut weights = level_usage(n, depth(n), ranges);
    for c in &mut weights {
        *c = (*c + 0.125).cbrt();
    }
    let max_w = weights.iter().cloned().fold(f64::MIN, f64::max);
    // Each level is built once, from the one above it, in the second of
    // two buffers; no level holds more than the `n` leaves.
    let (mut level, mut next) = (Vec::with_capacity(n), Vec::with_capacity(n));
    level.push((0, n));
    let blocks: Arc<[Matrix]> = weights
        .iter()
        .map(|&w| {
            let intervals = RangeQueries::new(n, level.iter().copied());
            split_level(&level, &mut next);
            std::mem::swap(&mut level, &mut next);
            Matrix::scaled(w / max_w, Matrix::Range(Arc::new(intervals)))
        })
        .collect();
    // What `Matrix::vstack` would give, without its intermediate vector.
    match &blocks[..] {
        [root] => root.clone(),
        _ => Matrix::Union(blocks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Greedy-H as first written, kept as the oracle: every level clones
    /// its frontier, and the usage count builds the levels again for
    /// their depth.
    fn greedy_h_oracle(n: usize, ranges: &[(usize, usize)]) -> Matrix {
        fn levels(n: usize) -> Vec<Vec<(usize, usize)>> {
            let mut out = Vec::new();
            let mut frontier = vec![(0usize, n)];
            while !frontier.is_empty() {
                out.push(frontier.clone());
                let mut next = Vec::new();
                for &(lo, hi) in &frontier {
                    if hi - lo <= 1 {
                        continue;
                    }
                    let mid = (lo + hi) / 2;
                    next.push((lo, mid));
                    next.push((mid, hi));
                }
                frontier = next;
            }
            out
        }
        let lv = levels(n);
        let mut counts = vec![0.0; levels(n).len()];
        for &(qlo, qhi) in ranges {
            decompose(0, n, qlo.min(n), qhi.min(n), 0, &mut counts);
        }
        let weights: Vec<f64> = counts.iter().map(|&c| (c + 0.125).cbrt()).collect();
        let max_w = weights.iter().cloned().fold(f64::MIN, f64::max);
        let blocks = lv
            .into_iter()
            .zip(weights)
            .map(|(iv, w)| Matrix::scaled(w / max_w, Matrix::range_queries(n, iv)))
            .collect();
        Matrix::vstack(blocks)
    }

    /// The `(scale bits, range workload)` of each block of a Greedy-H
    /// strategy.
    fn blocks_of(m: &Matrix) -> Vec<(u64, RangeQueries)> {
        let block = |b: &Matrix| match b {
            Matrix::Scaled(c, r) => match &**r {
                Matrix::Range(r) => (c.to_bits(), (**r).clone()),
                other => panic!("expected a range level, got {other:?}"),
            },
            other => panic!("expected a scaled level, got {other:?}"),
        };
        match m {
            Matrix::Union(blocks) => blocks.iter().map(block).collect(),
            single => vec![block(single)],
        }
    }

    #[test]
    fn greedy_h_equals_the_oracle_block_for_block() {
        let mut seed = 7u64;
        let mut next = |k: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize % k
        };
        for n in (1..=70).chain([127, 128, 129, 255, 1000]) {
            let mut workloads = vec![vec![], vec![(0, n)], vec![(0, n / 2 + 1)]];
            let random: Vec<(usize, usize)> = (0..1 + next(12))
                .map(|_| {
                    let lo = next(n + 3);
                    (lo, lo + next(n + 3))
                })
                .collect();
            workloads.push(random);
            for ranges in &workloads {
                assert_eq!(
                    blocks_of(&greedy_h(n, ranges)),
                    blocks_of(&greedy_h_oracle(n, ranges)),
                    "n = {n}, ranges {ranges:?}"
                );
            }
        }
    }

    #[test]
    fn levels_partition_each_depth() {
        for n in [1usize, 4, 7, 16, 33] {
            let mut level = vec![(0, n)];
            let mut next = Vec::new();
            for _ in 0..depth(n) {
                // Intervals at one level are disjoint.
                let mut cells = vec![0usize; n];
                for &(lo, hi) in &level {
                    for c in cells.iter_mut().take(hi).skip(lo) {
                        *c += 1;
                    }
                }
                assert!(cells.iter().all(|&c| c <= 1));
                split_level(&level, &mut next);
                std::mem::swap(&mut level, &mut next);
            }
            // The last level was all singletons: the tree ends there.
            assert!(
                level.is_empty(),
                "n = {n}: the tree is deeper than {}",
                depth(n)
            );
        }
    }

    #[test]
    fn decomposition_counts_match_hand_example() {
        // n = 8, query [0, 8): uses exactly the root.
        let u = level_usage(8, 4, &[(0, 8)]);
        assert_eq!(u[0], 1.0);
        assert_eq!(u[1..].iter().sum::<f64>(), 0.0);
        // Query [1, 8) over the binary tree on [0,8):
        // right half [4,8) + [2,4) + [1,2) → one node at each of 3 levels.
        let u2 = level_usage(8, 4, &[(1, 8)]);
        assert_eq!(u2.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn strategy_shape_and_rank() {
        let w = greedy_h(8, &[(0, 4), (2, 6)]);
        // All levels present: 1 + 2 + 4 + 8 = 15 rows.
        assert_eq!(w.rows(), 15);
        assert_eq!(w.cols(), 8);
        // Leaves present with nonzero weight → full rank (check by solving).
        let x: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
        let y = w.matvec(&x);
        let r = ektelo_solvers::lsqr(&w, &y, &ektelo_solvers::LsqrOptions::default());
        for (a, b) in r.x.iter().zip(&x) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn heavily_used_levels_get_more_weight() {
        // Workload of singletons at level=leaf: leaf weight should dominate
        // the root weight.
        let ranges: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
        let w = greedy_h(8, &ranges);
        // Extract level weights from the union structure.
        if let Matrix::Union(blocks) = &w {
            let weight_of = |b: &Matrix| match b {
                Matrix::Scaled(c, _) => *c,
                _ => 1.0,
            };
            let root_w = weight_of(&blocks[0]);
            let leaf_w = weight_of(blocks.last().unwrap());
            assert!(leaf_w > root_w, "leaf {leaf_w} vs root {root_w}");
        } else {
            panic!("expected union structure");
        }
    }
}
