//! Multiplicative-weights inference (MWEM's update rule).
//!
//! Maintains a distribution-like estimate `x̂` of the data vector and, for
//! each measured query `(q, y)`, applies
//! `x̂ ← x̂ ⊙ exp(q · (y − q·x̂) / (2·N))` followed by renormalization to the
//! assumed total `N` (Hardt, Ligett & McSherry 2012; paper Table 1 gives
//! the batched gradient form). Closely related to maximum-entropy
//! inference; effective when measurements are incomplete (paper §5.5).
//!
//! # Column classes
//!
//! MW is a maximum-entropy update: a cell changes only through the
//! exponent `(Mᵀ r)_j / (2N)`, which depends on the cell only through its
//! column `M_{:,j}`. Cells with identical columns and bit-identical start
//! values therefore receive the same exponent in every pass and stay
//! equal forever — the lossless domain reduction of paper §8
//! (Prop. 8.3 / Thm. 8.4). [`mult_weights`] uses this: it groups the
//! cells into classes with [`Matrix::column_classes_by`] (identical
//! columns, split by the bit pattern of the normalized start), runs the
//! passes on one value `u_G` per class over the representative columns —
//! `M x = M_red (sizes ⊙ u)`, mass `Σ sizes·u` — and expands `x_i =
//! u_{label(i)}` at the end. A pass then costs `O(nnz(M_red) + classes)`
//! instead of `O(nnz(M) + n)` with one `exp` per cell; MWEM's `T` one-row
//! range measurements split a domain into at most `2T + 1` classes.
//!
//! The reduction applies to a `Sparse` or `Range` leaf, optionally under
//! `Scaled`, and to a `Union` of such blocks (MWEM's one-row strategies
//! and variant b's range augmentation). Other shapes, and systems whose
//! columns are all distinct, take the full-domain loop; it is the same
//! loop run with unit sizes and its results are bit-identical to a
//! per-cell update. The reduced results differ from it only by the
//! rounding of reordered sums; `tests/mw_classes.rs` gates them at 1e-12
//! relative.

use ektelo_matrix::{Matrix, Workspace};

use crate::util::{normalize_class_mass, rsub};

/// Options for [`mult_weights`].
#[derive(Clone, Debug)]
pub struct MwOptions {
    /// Number of passes over the full measurement set.
    pub iterations: usize,
    /// Total mass the estimate is normalized to (MWEM assumes the dataset
    /// size is known or separately estimated).
    pub total: f64,
}

impl Default for MwOptions {
    fn default() -> Self {
        MwOptions {
            iterations: 50,
            total: 1.0,
        }
    }
}

/// Runs multiplicative-weights updates for measurements `M x ≈ y`, starting
/// from `x0` (commonly uniform with mass `opts.total`). Returns the refined
/// estimate.
///
/// The passes run over the column classes of `M` (see the module docs);
/// when every column is its own class, or `M` has another shape, they
/// run over every cell.
pub fn mult_weights(m: &Matrix, y: &[f64], x0: &[f64], opts: &MwOptions) -> Vec<f64> {
    let (rows, n) = m.shape();
    assert_eq!(y.len(), rows, "mw: measurement count mismatch");
    assert_eq!(x0.len(), n, "mw: estimate length mismatch");
    assert!(opts.total > 0.0, "mw: total must be positive");

    let mut x = x0.to_vec();
    normalize_class_mass(&mut x, None, opts.total, n);
    let Some(classes) = m.column_classes_by(&x) else {
        mw_passes(m, None, n, y, &mut x, opts);
        return x;
    };
    let sizes: Vec<f64> = classes.sizes.iter().map(|&s| s as f64).collect();
    let mut u = vec![0.0; sizes.len()];
    for (&l, &xi) in classes.labels.iter().zip(&x) {
        u[l as usize] = xi;
    }
    mw_passes(&classes.matrix, Some(&sizes), n, y, &mut u, opts);
    for (xi, &l) in x.iter_mut().zip(&classes.labels) {
        *xi = u[l as usize];
    }
    x
}

/// `opts.iterations` MW passes on `u`, one value per column of `m`, over
/// an `n`-cell domain. Column `j` stands for `sizes[j]` cells, or one cell
/// when `sizes` is `None`.
fn mw_passes(
    m: &Matrix,
    sizes: Option<&[f64]>,
    n: usize,
    y: &[f64],
    u: &mut [f64],
    opts: &MwOptions,
) {
    // One workspace + fixed buffers: each MW pass is allocation-free (MWEM
    // re-runs this loop every round, so the savings compound).
    let mut ws = Workspace::for_matrix(m);
    let mut err = vec![0.0; m.rows()];
    let mut g = vec![0.0; u.len()];
    // The cell mass of each class, `sizes ⊙ u`: what `m` multiplies.
    let mut mass = vec![0.0; sizes.map_or(0, <[f64]>::len)];

    for _ in 0..opts.iterations {
        // Batched update (paper Table 1): g = Mᵀ(y − M x̂) scaled by 1/(2N).
        match sizes {
            None => m.matvec_into(u, &mut err, &mut ws),
            Some(s) => {
                for ((mi, &si), &ui) in mass.iter_mut().zip(s).zip(u.iter()) {
                    *mi = si * ui;
                }
                m.matvec_into(&mass, &mut err, &mut ws);
            }
        }
        rsub(&mut err, y);
        m.rmatvec_into(&err, &mut g, &mut ws);
        for (ui, &gi) in u.iter_mut().zip(&g) {
            // Clamp the exponent for numerical robustness on extreme
            // residuals (matches practical MWEM implementations).
            let e = (gi / (2.0 * opts.total)).clamp(-50.0, 50.0);
            *ui *= e.exp();
        }
        normalize_class_mass(u, sizes, opts.total, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_matrix::Matrix;

    #[test]
    fn preserves_total_mass() {
        let m = Matrix::identity(4);
        let y = [5.0, 0.0, 3.0, 2.0];
        let x0 = vec![2.5; 4];
        let x = mult_weights(
            &m,
            &y,
            &x0,
            &MwOptions {
                iterations: 20,
                total: 10.0,
            },
        );
        let sum: f64 = x.iter().sum();
        assert!((sum - 10.0).abs() < 1e-9);
    }

    #[test]
    fn converges_toward_identity_measurements() {
        let m = Matrix::identity(4);
        let y = [4.0, 0.0, 3.0, 3.0];
        let x0 = vec![2.5; 4];
        let x = mult_weights(
            &m,
            &y,
            &x0,
            &MwOptions {
                iterations: 300,
                total: 10.0,
            },
        );
        for (xi, yi) in x.iter().zip(&y) {
            assert!((xi - yi).abs() < 0.15, "{x:?}");
        }
    }

    #[test]
    fn incomplete_measurements_stay_maximum_entropy() {
        // Only the total of the first two cells is measured; MW should keep
        // the split uniform within the measured group and leave the rest
        // untouched relative to each other.
        let m = Matrix::range_queries(4, vec![(0, 2)]);
        let y = [6.0];
        let x0 = vec![2.0; 4];
        let x = mult_weights(
            &m,
            &y,
            &x0,
            &MwOptions {
                iterations: 200,
                total: 8.0,
            },
        );
        assert!((x[0] - x[1]).abs() < 1e-9, "uniformity within group: {x:?}");
        assert!(
            (x[2] - x[3]).abs() < 1e-9,
            "uniformity outside group: {x:?}"
        );
        assert!((x[0] + x[1] - 6.0).abs() < 0.1, "measured mass: {x:?}");
    }

    #[test]
    fn zero_estimate_resets_to_uniform() {
        let m = Matrix::identity(2);
        let x = mult_weights(
            &m,
            &[1.0, 1.0],
            &[0.0, 0.0],
            &MwOptions {
                iterations: 5,
                total: 2.0,
            },
        );
        let sum: f64 = x.iter().sum();
        assert!((sum - 2.0).abs() < 1e-9);
    }
}
