//! AHPpartition (Zhang et al. 2014; paper §5.4, Plan #8).
//! Private→Public.
//!
//! AHP's key subroutine: spend ε on a noisy histogram, zero out cells below
//! a threshold `t = η·ln(n)/ε` (noise dominates them anyway), then cluster
//! cells with similar noisy counts so that within-cluster uniformity error
//! is balanced against per-cluster noise. Cells are sorted by noisy value
//! and greedily grouped while the cluster's spread stays under the
//! threshold — matching AHP's sort-and-cluster stage.

use ektelo_matrix::{partition_from_labels, Matrix};

use crate::kernel::noise::laplace;
use crate::kernel::{ProtectedKernel, Result, SourceVar};

/// Tuning constants for [`ahp_partition`] (defaults follow the AHP paper's
/// recommendations).
#[derive(Clone, Debug)]
pub struct AhpOptions {
    /// Threshold multiplier η: cells with noisy count below `η·ln(n)/ε`
    /// are treated as empty.
    pub eta: f64,
    /// Cluster spread multiplier: a cluster is closed once
    /// `max − min > gamma/ε`.
    pub gamma: f64,
}

impl Default for AhpOptions {
    fn default() -> Self {
        AhpOptions {
            eta: 0.35,
            gamma: 2.0,
        }
    }
}

/// Computes a data-adaptive partition of vector source `sv`, spending
/// `eps`. An empty source is rejected with `InvalidArgument` before
/// anything is charged.
pub fn ahp_partition(
    kernel: &ProtectedKernel,
    sv: SourceVar,
    eps: f64,
    opts: &AhpOptions,
) -> Result<Matrix> {
    super::reject_empty_source(kernel, sv)?;
    kernel.charge(sv, eps)?;
    kernel.with_vector(sv, move |x, rng| {
        let n = x.len();
        let mut noisy: Vec<f64> = x.iter().map(|&v| v + laplace(rng, 1.0 / eps)).collect();
        // Thresholding: suppress noise-dominated cells.
        let t = opts.eta * (n.max(2) as f64).ln() / eps;
        for v in noisy.iter_mut() {
            if *v < t {
                *v = 0.0;
            }
        }
        // Sort cells by noisy value, then greedily cluster.
        let mut order: Vec<usize> = (0..n).collect();
        // total_cmp: no unwrap on a partial order — NaN (impossible for
        // finite data + Laplace draws, but cheap to be total about) sorts
        // last instead of panicking.
        order.sort_by(|&a, &b| noisy[a].total_cmp(&noisy[b]));
        let spread_cap = opts.gamma / eps;
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
        partition_from_labels(group + 1, &labels)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_valid_partition() {
        let x: Vec<f64> = (0..64).map(|i| (i / 16) as f64 * 50.0).collect();
        let k = ProtectedKernel::init_from_vector(x, 10.0, 5);
        let p = ahp_partition(&k, k.root(), 5.0, &AhpOptions::default()).unwrap();
        assert!(p.is_partition());
        assert_eq!(p.cols(), 64);
    }

    #[test]
    fn uniform_data_collapses_to_few_groups() {
        let x = vec![100.0; 128];
        let k = ProtectedKernel::init_from_vector(x, 10.0, 6);
        let p = ahp_partition(&k, k.root(), 5.0, &AhpOptions::default()).unwrap();
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
        let p = ahp_partition(&k, k.root(), 50.0, &AhpOptions::default()).unwrap();
        let dense = p.to_dense();
        // Find groups of cell 0 and cell 63; they must differ.
        let group_of = |j: usize| (0..p.rows()).find(|&g| dense.get(g, j) == 1.0).unwrap();
        assert_ne!(group_of(0), group_of(63));
    }

    #[test]
    fn charges_exactly_eps() {
        let k = ProtectedKernel::init_from_vector(vec![1.0; 16], 1.0, 8);
        ahp_partition(&k, k.root(), 0.3, &AhpOptions::default()).unwrap();
        assert!((k.budget_spent() - 0.3).abs() < 1e-12);
    }
}
