//! Hierarchical strategies: H2 (binary tree, Hay et al. 2010) and HB
//! (optimized branching factor, Qardaji et al. 2013) — plus Greedy-H
//! (workload-weighted binary hierarchy from the DAWA paper).
//!
//! All hierarchies are expressed as implicit [`Matrix::Range`] workloads:
//! one interval per tree node, so a strategy over n cells stores `O(n)`
//! index pairs and multiplies in `O(n)` (the paper's "special instance of
//! range queries" representation, §7.5).

use ektelo_matrix::Matrix;

/// The intervals of a k-ary hierarchy over `[0, n)`: the root, then each
/// level's children, down to singletons. Children split their parent into
/// `k` near-equal parts.
fn hierarchical_intervals(n: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(n > 0 && k >= 2, "hierarchy needs n > 0 and branching ≥ 2");
    let mut out = Vec::new();
    let mut frontier = vec![(0usize, n)];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &(lo, hi) in &frontier {
            out.push((lo, hi));
            let len = hi - lo;
            if len <= 1 {
                continue;
            }
            // Split into min(k, len) near-equal parts.
            let parts = k.min(len);
            let base = len / parts;
            let extra = len % parts;
            let mut start = lo;
            for i in 0..parts {
                let w = base + usize::from(i < extra);
                next.push((start, start + w));
                start += w;
            }
            debug_assert_eq!(start, hi);
        }
        frontier = next;
    }
    out
}

/// H2: the binary hierarchy of interval sums (paper Plan #3).
pub fn h2(n: usize) -> Matrix {
    Matrix::range_queries(n, hierarchical_intervals(n, 2))
}

/// HB's branching-factor rule (Qardaji et al.): pick the k ≥ 2 minimizing
/// the average range-query variance proxy `(k − 1) · h(k)³` where
/// `h(k) = ⌈log_k n⌉` — wider trees are shallower but each level costs
/// more sensitivity.
fn hb_branching(n: usize) -> usize {
    let mut best_k = 2;
    let mut best = f64::INFINITY;
    for k in 2..=n.clamp(2, 1024) {
        let h = (n as f64).ln() / (k as f64).ln();
        let h = h.ceil().max(1.0);
        let score = (k as f64 - 1.0) * h * h * h;
        if score < best {
            best = score;
            best_k = k;
        }
        // Score is quasi-convex in k; stop once clearly past the minimum.
        if score > 4.0 * best {
            break;
        }
    }
    best_k
}

/// HB: hierarchy with the optimized branching factor (paper Plan #4).
pub fn hb(n: usize) -> Matrix {
    Matrix::range_queries(n, hierarchical_intervals(n, hb_branching(n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_hierarchy_counts() {
        // n = 4: [0,4), [0,2), [2,4), [0,1), [1,2), [2,3), [3,4) = 7 nodes.
        let iv = hierarchical_intervals(4, 2);
        assert_eq!(iv.len(), 7);
        assert_eq!(iv[0], (0, 4));
    }

    #[test]
    fn hierarchy_covers_every_level_fully() {
        for n in [3usize, 5, 8, 17] {
            for k in [2usize, 3, 4] {
                let iv = hierarchical_intervals(n, k);
                // Singletons must all be present (the leaf level).
                for j in 0..n {
                    assert!(iv.contains(&(j, j + 1)), "n={n} k={k} missing leaf {j}");
                }
                // The root must be present.
                assert!(iv.contains(&(0, n)));
            }
        }
    }

    #[test]
    fn h2_answers_range_queries_exactly() {
        let n = 8;
        let m = h2(n);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = m.matvec(&x);
        // Root row is the total.
        assert_eq!(y[0], 28.0);
        // Sensitivity = levels = log2(8) + 1 = 4.
        assert_eq!(m.l1_sensitivity(), 4.0);
    }

    #[test]
    fn hb_branching_grows_with_domain() {
        let small = hb_branching(64);
        let large = hb_branching(1 << 20);
        assert!(small >= 2);
        assert!(
            large >= small,
            "branching should not shrink: {small} vs {large}"
        );
    }

    #[test]
    fn hb_sensitivity_below_h2_for_large_domains() {
        let n = 4096;
        assert!(hb(n).l1_sensitivity() <= h2(n).l1_sensitivity());
    }
}
