//! Partition selection operators (paper §5.4 and §8).
//!
//! A partition selection operator outputs a `p×n` partition matrix `P`
//! (each domain cell assigned to exactly one group), which feeds
//! `V-ReduceByPartition` (merge cells) or `V-SplitByPartition` (process
//! groups independently under parallel composition).
//!
//! [`ahp_partition`] and [`dawa_partition`] are *data-adaptive*
//! (Private→Public): they inspect a noisy copy of the data to find nearly
//! uniform regions. The rest are Public.

mod ahp;
mod dawa;
mod stripe;
mod workload_based;

pub use ahp::{ahp_partition, AhpOptions};
pub use dawa::{dawa_partition, dawa_partition_batch, DawaOptions};
pub use stripe::stripe_partition;
pub use workload_based::{workload_based_partition, workload_reduction};

use ektelo_matrix::Matrix;

use crate::kernel::{EktError, ProtectedKernel, Result, SourceVar};

/// Rejects an empty vector source before a data-adaptive selection
/// charges for it: an empty vector has no cell to group, and selecting on
/// it would panic after the charge. Other source errors are left to the
/// operator's own checks, in their usual order.
fn reject_empty_source(kernel: &ProtectedKernel, sv: SourceVar) -> Result<()> {
    if matches!(kernel.vector_len(sv), Ok(0)) {
        return Err(EktError::InvalidArgument(
            "cannot select a partition of an empty vector source".into(),
        ));
    }
    Ok(())
}

/// The marginal partition over the attributes flagged `true` in `keep`:
/// reduces the data vector to the marginal sub-vector (paper §5.4,
/// `Marginal(attr)`). Identical in form to the marginal *workload*; as a
/// partition it groups all cells sharing the kept attributes' values.
pub fn marginal_partition(sizes: &[usize], keep: &[bool]) -> Matrix {
    let p = ektelo_data::workloads::marginal(sizes, keep);
    debug_assert!(p.is_partition());
    p
}

/// Extracts contiguous bucket boundaries from a 1-D interval partition
/// matrix (as produced by DAWA): returns `buckets + 1` cut positions.
/// Panics if the partition is not contiguous.
pub fn interval_partition_bounds(p: &Matrix) -> Vec<usize> {
    let sp = p.to_sparse();
    let n = sp.cols();
    let mut label_of = vec![usize::MAX; n];
    for g in 0..sp.rows() {
        for (c, _) in sp.row_entries(g) {
            label_of[c] = g;
        }
    }
    let mut bounds = vec![0usize];
    for j in 1..n {
        if label_of[j] != label_of[j - 1] {
            bounds.push(j);
        }
    }
    bounds.push(n);
    // Verify contiguity: number of cuts must equal number of groups + 1.
    assert_eq!(
        bounds.len(),
        sp.rows() + 1,
        "partition is not a contiguous interval partition"
    );
    bounds
}

/// Maps 1-D range queries on the original domain onto bucket indices of a
/// contiguous partition (for running Greedy-H on DAWA's reduced domain).
pub fn map_ranges_to_buckets(ranges: &[(usize, usize)], bounds: &[usize]) -> Vec<(usize, usize)> {
    let bucket_of = |cell: usize| -> usize {
        // bounds is sorted; find the bucket containing `cell`.
        match bounds.binary_search(&cell) {
            Ok(i) => i.min(bounds.len() - 2),
            Err(i) => i - 1,
        }
    };
    ranges
        .iter()
        .map(|&(lo, hi)| {
            let b_lo = bucket_of(lo);
            let b_hi = bucket_of(hi - 1) + 1;
            (b_lo, b_hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginal_partition_is_a_partition() {
        let p = marginal_partition(&[3, 4, 2], &[true, false, true]);
        assert!(p.is_partition());
        assert_eq!(p.shape(), (6, 24));
    }
}
