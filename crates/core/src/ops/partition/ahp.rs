//! AHPpartition (Zhang et al. 2014; paper §5.4, Plan #8).
//! Private→Public.
//!
//! AHP's key subroutine: spend ε on a noisy histogram, zero out cells below
//! a threshold `t = η·ln(n)/ε` (noise dominates them anyway), then cluster
//! cells with similar noisy counts so that within-cluster uniformity error
//! is balanced against per-cluster noise. Cells are sorted by noisy value
//! and greedily grouped while the cluster's spread stays under the
//! threshold — matching AHP's sort-and-cluster stage.
//!
//! The kernel's noisy-histogram release draws the noise; everything in
//! this module is post-processing of its output.

use ektelo_matrix::{partition_from_labels, Matrix};

use crate::kernel::{BudgetReservation, ProtectedKernel, Result, SourceVar};

/// Threshold multiplier η (the AHP paper's recommended value): cells with
/// noisy count below `η·ln(n)/ε` are treated as empty.
const ETA: f64 = 0.35;

/// Cluster spread multiplier γ (the AHP paper's recommended value): a
/// cluster is closed once `max − min > γ/ε`.
const GAMMA: f64 = 2.0;

/// Computes a data-adaptive partition of vector source `sv`, spending
/// `eps` on the kernel's noisy histogram of it: a batch of one, see
/// [`ahp_partition_batch`]. An empty source is rejected with
/// `InvalidArgument` before anything is charged.
pub fn ahp_partition(kernel: &ProtectedKernel, sv: SourceVar, eps: f64) -> Result<Matrix> {
    // A batch that returns `Ok` holds one partition per source.
    ahp_partition_batch(kernel, &[sv], eps, None).map(|mut parts| parts.swap_remove(0))
}

/// AHP partition selection over many sources: one noisy-histogram
/// release charges `eps` to every source in order, and each source's
/// histogram is clustered on its own. With `res`, the charges are
/// redeemed from that reservation.
pub fn ahp_partition_batch(
    kernel: &ProtectedKernel,
    svs: &[SourceVar],
    eps: f64,
    res: Option<&BudgetReservation<'_>>,
) -> Result<Vec<Matrix>> {
    let reqs: Vec<(SourceVar, f64)> = svs.iter().map(|&s| (s, eps)).collect();
    kernel.noisy_histograms(&reqs, res, |noisy| cluster(noisy, eps))
}

/// AHP's selection on the noisy histogram `noisy` released at `eps` — a
/// pure function of its arguments.
fn cluster(noisy: &[f64], eps: f64) -> Matrix {
    let n = noisy.len();
    // Thresholding: noise-dominated cells count as empty.
    let t = ETA * (n.max(2) as f64).ln() / eps;
    let value = |cell: usize| if noisy[cell] < t { 0.0 } else { noisy[cell] };
    // Sort cells by thresholded value, then greedily cluster.
    let mut order: Vec<usize> = (0..n).collect();
    // total_cmp: no unwrap on a partial order — NaN (impossible for
    // finite data + Laplace draws, but cheap to be total about) sorts
    // last instead of panicking.
    order.sort_by(|&a, &b| value(a).total_cmp(&value(b)));
    let spread_cap = GAMMA / eps;
    let mut labels = vec![0usize; n];
    let mut group = 0usize;
    let mut cluster_min = value(order[0]);
    for (rank, &cell) in order.iter().enumerate() {
        if rank > 0 && value(cell) - cluster_min > spread_cap {
            group += 1;
            cluster_min = value(cell);
        }
        labels[cell] = group;
    }
    partition_from_labels(group + 1, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_valid_partition() {
        let x: Vec<f64> = (0..64).map(|i| (i / 16) as f64 * 50.0).collect();
        let k = ProtectedKernel::init_from_vector(x, 10.0, 5);
        let p = ahp_partition(&k, k.root(), 5.0).unwrap();
        assert!(p.is_partition());
        assert_eq!(p.cols(), 64);
    }

    #[test]
    fn uniform_data_collapses_to_few_groups() {
        let x = vec![100.0; 128];
        let k = ProtectedKernel::init_from_vector(x, 10.0, 6);
        let p = ahp_partition(&k, k.root(), 5.0).unwrap();
        assert!(
            p.rows() <= 16,
            "uniform data should form few clusters, got {}",
            p.rows()
        );
    }

    #[test]
    fn distinct_levels_stay_separate_at_high_eps() {
        // Two well-separated levels must not merge when noise is small.
        let mut x = vec![0.0; 64];
        for v in x.iter_mut().take(32) {
            *v = 1000.0;
        }
        let k = ProtectedKernel::init_from_vector(x, 100.0, 7);
        let p = ahp_partition(&k, k.root(), 50.0).unwrap();
        let dense = p.to_dense();
        // Find groups of cell 0 and cell 63; they must differ.
        let group_of = |j: usize| (0..p.rows()).find(|&g| dense.get(g, j) == 1.0).unwrap();
        assert_ne!(group_of(0), group_of(63));
    }

    #[test]
    fn charges_exactly_eps() {
        let k = ProtectedKernel::init_from_vector(vec![1.0; 16], 1.0, 8);
        ahp_partition(&k, k.root(), 0.3).unwrap();
        assert!((k.budget_spent() - 0.3).abs() < 1e-12);
    }

    /// Reference: the clustering as first written, thresholding its own
    /// copy of the released histogram in place. Also returns how many
    /// cells fell under the threshold.
    fn cluster_by_hand(mut noisy: Vec<f64>, eps: f64) -> (Matrix, usize) {
        let n = noisy.len();
        let t = ETA * (n.max(2) as f64).ln() / eps;
        let mut under = 0;
        for v in noisy.iter_mut() {
            if *v < t {
                *v = 0.0;
                under += 1;
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| noisy[a].total_cmp(&noisy[b]));
        let spread_cap = GAMMA / eps;
        let mut labels = vec![0usize; n];
        let mut group = 0usize;
        let mut cluster_min = noisy[order[0]];
        for (rank, &cell) in order.iter().enumerate() {
            if rank > 0 && noisy[cell] - cluster_min > spread_cap {
                group += 1;
                cluster_min = noisy[cell];
            }
            labels[cell] = group;
        }
        (partition_from_labels(group + 1, &labels), under)
    }

    /// The operator selects and spends as the reference clustering of the
    /// kernel's release on a twin (the kernel's own tests pin the release
    /// to its private steps), at several seeds and budgets. Every case
    /// puts some cells under the threshold and closes at least one
    /// cluster, so both branches are compared.
    #[test]
    fn partition_is_its_snapshot_under_substream_zero() {
        use std::cell::Cell;
        let x: Vec<f64> = (0..48).map(|i| ((i * 13) % 7) as f64 * 20.0).collect();
        for (seed, eps) in [(31, 0.5), (32, 0.05), (33, 2.0)] {
            let (under, groups) = (Cell::new(0), Cell::new(0));
            crate::ops::tests::assert_twins(
                || ProtectedKernel::init_from_vector(x.clone(), 4.0, seed),
                |k| ahp_partition(k, k.root(), eps).unwrap().to_sparse(),
                |k| {
                    let release = k.noisy_histograms(&[(k.root(), eps)], None, |n| n.to_vec());
                    let (p, cells) = cluster_by_hand(release.unwrap().swap_remove(0), eps);
                    under.set(cells);
                    groups.set(p.rows());
                    p.to_sparse()
                },
            );
            assert!(under.get() > 0, "seed {seed}: no cell under the threshold");
            assert!(groups.get() > 1, "seed {seed}: no cluster closed");
        }
    }
}
