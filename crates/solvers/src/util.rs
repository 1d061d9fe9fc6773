//! Small dense-vector kernels shared by every solver.
//!
//! These are thin re-export wrappers over [`ektelo_matrix::kernels`] — the
//! single home of every hot vector loop; see that module's docs for the
//! order-preserving vs reassociating kernel classes.

use ektelo_matrix::kernels;

/// Euclidean norm `‖v‖₂`.
pub fn norm2(v: &[f64]) -> f64 {
    kernels::norm2(v)
}

/// Inner product `⟨a, b⟩`.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    kernels::dot(a, b)
}

/// In-place scaling `v ← c·v`.
pub fn scale(v: &mut [f64], c: f64) {
    kernels::scale(v, c);
}

/// `y ← y + a·x`.
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    kernels::axpy(y, a, x);
}

/// `y ← x + b·y`.
pub fn xpay(y: &mut [f64], b: f64, x: &[f64]) {
    kernels::xpay(y, b, x);
}

/// `e ← y − e` (residual reversal).
pub fn rsub(e: &mut [f64], y: &[f64]) {
    kernels::rsub(e, y);
}

/// Normalizes `v` to unit Euclidean length in place, returning the original
/// norm (leaves `v` untouched when zero).
pub fn normalize_l2(v: &mut [f64]) -> f64 {
    let norm = norm2(v);
    if norm > 0.0 {
        scale(v, 1.0 / norm);
    }
    norm
}

/// Normalizes class values `u` over an `n`-cell domain to total mass
/// `total` in place, where class `k` holds `sizes[k]` cells (one cell per
/// value when `None`). Resets every cell to `total / n` when the current
/// mass is non-positive (the multiplicative-weights convention).
pub fn normalize_class_mass(u: &mut [f64], sizes: Option<&[f64]>, total: f64, n: usize) {
    let mass = match sizes {
        None => kernels::sum(u),
        Some(s) => dot(s, u),
    };
    if mass > 0.0 {
        scale(u, total / mass);
    } else {
        u.fill(total / n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_dot() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn normalize_unit() {
        let mut v = vec![3.0, 4.0];
        assert_eq!(normalize_l2(&mut v), 5.0);
        assert!((norm2(&v) - 1.0).abs() < 1e-15);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize_l2(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn normalize_mass_resets_on_zero() {
        let mut x = vec![0.0; 4];
        normalize_class_mass(&mut x, None, 8.0, 4);
        assert_eq!(x, vec![2.0; 4]);
        let mut y = vec![1.0, 3.0];
        normalize_class_mass(&mut y, None, 8.0, 2);
        assert_eq!(y, vec![2.0, 6.0]);
    }

    #[test]
    fn class_mass_weights_by_size_and_resets_per_cell() {
        // Classes of 1 and 3 cells: mass 1·1 + 3·1 = 4.
        let mut u = vec![1.0, 1.0];
        normalize_class_mass(&mut u, Some(&[1.0, 3.0]), 8.0, 4);
        assert_eq!(u, vec![2.0, 2.0]);
        let mut z = vec![0.0, -1.0];
        normalize_class_mass(&mut z, Some(&[1.0, 3.0]), 8.0, 4);
        assert_eq!(z, vec![2.0, 2.0]);
    }
}
