//! Stripe partition (paper §9.2, `Stripe(attr)`). Public.
//!
//! Splits a multi-dimensional domain into parallel 1-D "stripes" along
//! `attr`: one group per combination of the *other* attributes' values.
//! Each group, in original cell order, is exactly the 1-D histogram of
//! `attr` for that fixed combination — the input to the per-stripe
//! subplans of `HB-Striped` / `DAWA-Striped` (Algorithm 5).

use ektelo_matrix::{partition_from_labels, Matrix};

/// Per-cell stripe labels: cell → index of its non-`attr` value
/// combination.
fn stripe_partition_labels(sizes: &[usize], attr: usize) -> Vec<usize> {
    assert!(attr < sizes.len(), "stripe attribute out of range");
    let n: usize = sizes.iter().product();
    // Cells are mixed-radix with the first attribute most significant
    // (`Schema::cell_index`), so `cell = (outer·sizes[attr] + a)·inner + i`
    // with `inner = ∏_{j>attr} sizes[j]`; the label drops the digit `a`.
    let inner: usize = sizes[attr + 1..].iter().product();
    let span = sizes[attr] * inner;
    (0..n)
        .map(|cell| (cell / span) * inner + cell % inner)
        .collect()
}

/// The stripe partition matrix: `(∏_{i≠attr} sizes[i]) × ∏ sizes[i]`.
pub fn stripe_partition(sizes: &[usize], attr: usize) -> Matrix {
    let groups: usize = sizes
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != attr)
        .map(|(_, &s)| s)
        .product();
    partition_from_labels(groups.max(1), &stripe_partition_labels(sizes, attr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The mixed-radix decode the arithmetic labels replaced: decode every
    /// coordinate, then re-encode all but `attr`.
    fn labels_by_decode(sizes: &[usize], attr: usize) -> Vec<usize> {
        let n: usize = sizes.iter().product();
        let mut labels = Vec::with_capacity(n);
        for cell in 0..n {
            let mut rest = cell;
            let mut coords = vec![0usize; sizes.len()];
            for i in (0..sizes.len()).rev() {
                coords[i] = rest % sizes[i];
                rest /= sizes[i];
            }
            let mut label = 0usize;
            for i in 0..sizes.len() {
                if i != attr {
                    label = label * sizes[i] + coords[i];
                }
            }
            labels.push(label);
        }
        labels
    }

    #[test]
    fn labels_match_the_mixed_radix_decode() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..200 {
            let dims = rng.random_range(1..6);
            let sizes: Vec<usize> = (0..dims).map(|_| rng.random_range(1..8)).collect();
            for attr in 0..dims {
                assert_eq!(
                    stripe_partition_labels(&sizes, attr),
                    labels_by_decode(&sizes, attr),
                    "sizes {sizes:?}, attr {attr}"
                );
            }
        }
    }

    #[test]
    fn stripe_counts_and_validity() {
        let p = stripe_partition(&[4, 3, 2], 0);
        assert!(p.is_partition());
        assert_eq!(p.shape(), (6, 24));
        // Every group has exactly sizes[attr] = 4 cells.
        let sizes = p.abs_row_sums();
        assert!(sizes.iter().all(|&s| s == 4.0));
    }

    #[test]
    fn stripe_on_first_attr_preserves_attr_order_within_group() {
        // sizes [3, 2], stripe on attr 0: group g = value of attr 1;
        // its cells are {0*2+g, 1*2+g, 2*2+g} in increasing order.
        let labels = stripe_partition_labels(&[3, 2], 0);
        assert_eq!(labels, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn stripe_on_last_attr_groups_rows() {
        let labels = stripe_partition_labels(&[2, 3], 1);
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn single_attribute_degenerates_to_one_group() {
        let p = stripe_partition(&[5], 0);
        assert_eq!(p.shape(), (1, 5));
    }
}
