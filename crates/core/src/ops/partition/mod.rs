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
/// A CSR partition (DAWA's) is read in place: each group's columns form
/// one run, and the runs' first columns, ascending, are the cuts.
/// Panics if the partition is not contiguous.
pub fn interval_partition_bounds(p: &Matrix) -> Vec<usize> {
    let owned;
    let sp = match p {
        Matrix::Sparse(s) => &**s,
        other => {
            owned = other.to_sparse();
            &owned
        }
    };
    let mut bounds = Vec::with_capacity(sp.rows() + 1);
    for run in sp.indptr().windows(2) {
        let cols = &sp.indices()[run[0]..run[1]];
        let (lo, hi) = cols
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(
            !cols.is_empty() && (hi - lo) as usize + 1 == cols.len(),
            "partition is not a contiguous interval partition"
        );
        bounds.push(lo as usize);
    }
    bounds.sort_unstable();
    bounds.push(sp.cols());
    bounds
}

/// Maps 1-D range queries on the original domain onto bucket indices of a
/// contiguous partition (for running Greedy-H on DAWA's reduced domain).
///
/// `bounds` are a partition's cut positions, as
/// [`interval_partition_bounds`] returns them. Each half-open range is
/// first intersected with the domain `[0, bounds.last())`; a range left
/// empty — `lo >= hi`, or wholly past the domain — maps to nothing, so
/// the result can be shorter than `ranges`.
pub fn map_ranges_to_buckets(ranges: &[(usize, usize)], bounds: &[usize]) -> Vec<(usize, usize)> {
    let n = bounds.last().copied().unwrap_or(0);
    let bucket_of = |cell: usize| -> usize {
        // bounds is sorted and starts at 0; find the bucket containing
        // `cell < n`.
        match bounds.binary_search(&cell) {
            Ok(i) => i.min(bounds.len() - 2),
            Err(i) => i - 1,
        }
    };
    ranges
        .iter()
        .map(|&(lo, hi)| (lo, hi.min(n)))
        .filter(|&(lo, hi)| lo < hi)
        .map(|(lo, hi)| (bucket_of(lo), bucket_of(hi - 1) + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bounds of a 32-cell partition into buckets `[0, 4)`, `[4, 10)`,
    /// `[10, 11)`, `[11, 20)` and `[20, 32)`.
    const BOUNDS: [usize; 6] = [0, 4, 10, 11, 20, 32];

    #[test]
    fn valid_ranges_map_to_the_buckets_they_touch() {
        let ranges = [
            (0, 32),
            (0, 1),
            (3, 5),
            (4, 10),
            (10, 11),
            (12, 19),
            (31, 32),
        ];
        let want = [(0, 5), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)];
        assert_eq!(map_ranges_to_buckets(&ranges, &BOUNDS), want);
        // Every valid range maps as the mapping did before ranges were
        // intersected with the domain: bucket of `lo`, one past the
        // bucket of `hi - 1`.
        let bucket_before = |cell: usize| match BOUNDS.binary_search(&cell) {
            Ok(i) => i.min(BOUNDS.len() - 2),
            Err(i) => i - 1,
        };
        for lo in 0..32 {
            for hi in lo + 1..=32 {
                let before = (bucket_before(lo), bucket_before(hi - 1) + 1);
                assert_eq!(map_ranges_to_buckets(&[(lo, hi)], &BOUNDS), [before]);
            }
        }
    }

    #[test]
    fn empty_and_out_of_domain_ranges_map_to_nothing() {
        for bad in [(0, 0), (7, 3), (40, 50), (32, 33)] {
            assert_eq!(map_ranges_to_buckets(&[bad], &BOUNDS), [], "{bad:?}");
        }
        // A range running past the domain is cut at its end; the empty
        // ones around it are dropped and the rest keep their order.
        let ranges = [(0, 0), (25, 50), (7, 3), (2, 5), (40, 50)];
        assert_eq!(map_ranges_to_buckets(&ranges, &BOUNDS), [(4, 5), (0, 2)]);
        // No buckets at all: every range is empty once intersected.
        assert_eq!(map_ranges_to_buckets(&[(0, 4)], &[0]), []);
        assert_eq!(map_ranges_to_buckets(&[(0, 4)], &[]), []);
    }

    #[test]
    fn marginal_partition_is_a_partition() {
        let p = marginal_partition(&[3, 4, 2], &[true, false, true]);
        assert!(p.is_partition());
        assert_eq!(p.shape(), (6, 24));
    }
}
