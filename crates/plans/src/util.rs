//! Shared plan plumbing: plan-scoped inference and partition helpers.

use ektelo_core::kernel::{ProtectedKernel, Result, SourceVar};
use ektelo_core::ops::inference::{self, LsSolver};
use ektelo_matrix::Matrix;

/// Runs least squares over the measurements a plan recorded after
/// `history_start`, returning the estimate on the base domain.
pub fn infer_ls(kernel: &ProtectedKernel, history_start: usize, solver: LsSolver) -> Vec<f64> {
    inference::least_squares(&kernel.measurements_since(history_start), solver)
}

/// Like [`infer_ls`] with a non-negativity constraint.
pub fn infer_nnls(kernel: &ProtectedKernel, history_start: usize) -> Vec<f64> {
    inference::non_negative_least_squares(&kernel.measurements_since(history_start))
}

// Partition-bucket helpers moved into the trusted operator library so
// the plan-graph executor (ektelo-core) can share them; re-exported here
// for the imperative plans and downstream users.
pub use ektelo_core::ops::partition::{interval_partition_bounds, map_ranges_to_buckets};

/// Extracts the interval list of a range-query workload, if it is one.
pub fn workload_ranges(w: &Matrix) -> Option<Vec<(usize, usize)>> {
    match w {
        Matrix::Range(r) => Some(r.ranges().collect()),
        _ => None,
    }
}

// Known-total helpers moved into `ektelo_core::ops::inference` (the
// plan-graph MWEM loop needs them); re-exported for compatibility.
pub use ektelo_core::ops::inference::{known_total_measurement, relative_total_scale};

/// Splits a privacy budget into labelled shares that sum to the original
/// (guards against silent over/under-spending in multi-stage plans).
pub fn split_budget(eps: f64, shares: &[f64]) -> Vec<f64> {
    let total: f64 = shares.iter().sum();
    assert!(
        total > 0.0 && shares.iter().all(|&s| s > 0.0),
        "invalid budget shares"
    );
    shares.iter().map(|&s| eps * s / total).collect()
}

/// Convenience used by every 1-D experiment: build a kernel around a raw
/// histogram.
pub fn kernel_for_histogram(x: &[f64], eps: f64, seed: u64) -> (ProtectedKernel, SourceVar) {
    let k = ProtectedKernel::init_from_vector(x.to_vec(), eps, seed);
    let root = k.root();
    (k, root)
}

/// A plan outcome: the estimate plus the measurements' history span
/// (handy for composing plans and for debugging budget use).
pub struct PlanOutcome {
    /// Estimated data vector over the base domain of the plan's source.
    pub x_hat: Vec<f64>,
}

/// Result alias re-exported for plan signatures.
pub type PlanResult = Result<PlanOutcome>;

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_matrix::partition_from_labels;

    #[test]
    fn bounds_of_contiguous_partition() {
        let p = partition_from_labels(3, &[0, 0, 1, 1, 1, 2]);
        assert_eq!(interval_partition_bounds(&p), vec![0, 2, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "not a contiguous")]
    fn non_contiguous_partition_rejected() {
        let p = partition_from_labels(2, &[0, 1, 0, 1]);
        interval_partition_bounds(&p);
    }

    #[test]
    fn range_mapping_covers_buckets() {
        let bounds = vec![0, 2, 5, 6];
        let mapped = map_ranges_to_buckets(&[(0, 2), (1, 6), (5, 6)], &bounds);
        assert_eq!(mapped, vec![(0, 1), (0, 3), (2, 3)]);
    }

    #[test]
    fn budget_split_sums_to_eps() {
        let parts = split_budget(1.0, &[1.0, 3.0]);
        assert!((parts[0] - 0.25).abs() < 1e-12);
        assert!((parts.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
