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
//!
//! # The per-class start
//!
//! MWEM starts every round's passes from the same uniform estimate of
//! mass `N`, and a uniform start is one value on every class.
//! [`mult_weights_classes_into`] therefore takes that value, not an
//! `n`-cell `x0`: the caller computes it once per plan with
//! [`mw_uniform_start`] (the `n`-cell normalization [`mult_weights`]
//! runs, so the bits agree), the passes start from it on each class, and
//! the expansion `x_i = u_{label(i)}` is written into the caller's
//! estimate buffer. It also takes the classes from the caller, and no
//! matrix: MWEM's loop keeps an [`ektelo_matrix::ColumnRefinement`] of
//! its history, refines it by each round's new rows only, and never
//! stacks the history while it has classes. Both entry points run the
//! same pass loop; only where the start comes from differs, so a round
//! costs the passes plus one `n`-cell expansion. A history without
//! classes takes [`mult_weights_uniform_into`], the per-cell loop from
//! the same start.
//!
//! The reduced matrix of the classes is always a [`Matrix::Sparse`], and
//! the passes run its CSR kernels directly: they are the kernels its
//! evaluation plan's leaf runs, so the bits are the same, without a plan
//! lookup per product or a workspace per call.

use ektelo_matrix::{kernels, ColumnClasses, Matrix, Workspace};

use crate::util::normalize_class_mass;

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
    let n = x0.len();
    mw_check(m.shape(), y, n, opts);
    let mut x = x0.to_vec();
    normalize_class_mass(&mut x, None, opts.total, n);
    match m.column_classes_by(&x) {
        Some(classes) => {
            // The normalized start is constant on every class (the
            // classes are split by its bits): any member gives the value.
            let mut u = vec![0.0; classes.sizes.len()];
            for (&l, &xi) in classes.labels.iter().zip(&x) {
                u[l as usize] = xi;
            }
            mw_classes(&classes, y, u, &mut x, opts);
        }
        None => mw_passes(m, None, n, y, &mut x, opts),
    }
    x
}

/// The value every cell of [`mult_weights`]'s normalized start takes
/// when `x0` is uniform, `total / n` on each of `n` cells. It is computed
/// as [`mult_weights`] computes it — summing the `n` cells and scaling —
/// not in closed form: the sequential sum rounds, and the start must be
/// the same bits for [`mult_weights_classes_into`] and
/// [`mult_weights_uniform_into`] to equal [`mult_weights`].
pub fn mw_uniform_start(n: usize, total: f64) -> f64 {
    let mut x = vec![total / n as f64; n];
    normalize_class_mass(&mut x, None, total, n);
    x.first().copied().unwrap_or(total)
}

/// [`mult_weights`] from the uniform start, over column classes the
/// caller already holds, written into `x`. MWEM keeps a
/// [`ColumnRefinement`] of its history across rounds and refines it by
/// each round's new rows only, computes `start` once per plan with
/// [`mw_uniform_start`], and lends its own estimate buffer as `x`.
///
/// `classes` must be the column classes of the stacked measurements `M`
/// that `y` answers — what [`ColumnRefinement::classes`] gives after
/// refining by `M`'s rows — and `start` must be
/// [`mw_uniform_start`]`(x.len(), opts.total)`; then `x` ends as
/// [`mult_weights`] on `M` from `x0 = [total / n; n]` returns it, bit for
/// bit. `M` itself is never read: the passes begin from `start` on every
/// class and run over the classes' reduced matrix, so the start is never
/// built cell by cell. `x`'s contents on entry are ignored.
///
/// [`ColumnRefinement`]: ektelo_matrix::ColumnRefinement
/// [`ColumnRefinement::classes`]: ektelo_matrix::ColumnRefinement::classes
pub fn mult_weights_classes_into(
    classes: &ColumnClasses,
    y: &[f64],
    start: f64,
    x: &mut [f64],
    opts: &MwOptions,
) {
    mw_check(
        (classes.matrix.rows(), classes.labels.len()),
        y,
        x.len(),
        opts,
    );
    mw_classes(classes, y, vec![start; classes.sizes.len()], x, opts);
}

/// [`mult_weights`] on `m` from the uniform start, with its passes over
/// every cell: the path of a history without column classes. `start` must
/// be [`mw_uniform_start`]`(x.len(), opts.total)`; then `x` ends as
/// [`mult_weights`] from `x0 = [total / n; n]` returns it when `m` has no
/// classes, bit for bit. `x`'s contents on entry are ignored.
pub fn mult_weights_uniform_into(
    m: &Matrix,
    y: &[f64],
    start: f64,
    x: &mut [f64],
    opts: &MwOptions,
) {
    mw_check(m.shape(), y, x.len(), opts);
    x.fill(start);
    mw_passes(m, None, x.len(), y, x, opts);
}

/// The shape and option checks every entry point makes, for a system of
/// `(rows, cols)`.
fn mw_check((rows, cols): (usize, usize), y: &[f64], n: usize, opts: &MwOptions) {
    assert_eq!(y.len(), rows, "mw: measurement count mismatch");
    assert_eq!(n, cols, "mw: estimate length mismatch");
    assert!(opts.total > 0.0, "mw: total must be positive");
}

/// The passes over `classes` from `u`, one start value per class, with
/// the expansion `x_i = u_{label(i)}` written into `x`, one slice fill per
/// run of a class.
fn mw_classes(
    classes: &ColumnClasses,
    y: &[f64],
    mut u: Vec<f64>,
    x: &mut [f64],
    opts: &MwOptions,
) {
    let n = x.len();
    let sizes: Vec<f64> = classes.sizes.iter().map(|&s| s as f64).collect();
    mw_passes(&classes.matrix, Some(&sizes), n, y, &mut u, opts);
    let mut from = 0;
    for &(end, k) in &classes.runs {
        x[from..end].fill(u[k as usize]);
        from = end;
    }
}

/// `opts.iterations` MW passes on `u`, one value per column of `m`, over
/// an `n`-cell domain. Column `j` stands for `sizes[j]` cells, or one cell
/// when `sizes` is `None`.
///
/// A [`Matrix::Sparse`] `m` — the reduced matrix of column classes
/// always is one — runs its CSR kernels directly, the kernels its plan's
/// leaf runs, with no plan lookup and no workspace. Any other `m` runs
/// through one workspace, planned once for every pass.
fn mw_passes(
    m: &Matrix,
    sizes: Option<&[f64]>,
    n: usize,
    y: &[f64],
    u: &mut [f64],
    opts: &MwOptions,
) {
    match m {
        Matrix::Sparse(s) => mw_loop(
            m.rows(),
            |transpose, v, out| {
                if transpose {
                    s.rmatvec_into(v, out)
                } else {
                    s.matvec_into(v, out)
                }
            },
            sizes,
            n,
            y,
            u,
            opts,
        ),
        _ => {
            let mut ws = Workspace::for_matrix(m);
            mw_loop(
                m.rows(),
                |transpose, v, out| {
                    if transpose {
                        m.rmatvec_into(v, out, &mut ws)
                    } else {
                        m.matvec_into(v, out, &mut ws)
                    }
                },
                sizes,
                n,
                y,
                u,
                opts,
            )
        }
    }
}

/// The passes of [`mw_passes`], with `apply(false, v, out)` writing
/// `M v` and `apply(true, v, out)` writing `Mᵀ v` for an `M` of `rows`
/// rows. Each pass is allocation-free: MWEM re-runs this loop every
/// round, so the savings compound.
fn mw_loop(
    rows: usize,
    mut apply: impl FnMut(bool, &[f64], &mut [f64]),
    sizes: Option<&[f64]>,
    n: usize,
    y: &[f64],
    u: &mut [f64],
    opts: &MwOptions,
) {
    let mut err = vec![0.0; rows];
    let mut g = vec![0.0; u.len()];
    // The cell mass of each class, `sizes ⊙ u`: what `m` multiplies.
    let mut mass = vec![0.0; sizes.map_or(0, <[f64]>::len)];

    for _ in 0..opts.iterations {
        // Batched update (paper Table 1): g = Mᵀ(y − M x̂) scaled by 1/(2N).
        match sizes {
            None => apply(false, u, &mut err),
            Some(s) => {
                for ((mi, &si), &ui) in mass.iter_mut().zip(s).zip(u.iter()) {
                    *mi = si * ui;
                }
                apply(false, &mass, &mut err);
            }
        }
        kernels::rsub(&mut err, y);
        apply(true, &err, &mut g);
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
