//! Normalization helpers shared by the solvers. The vector loops they
//! run are [`ektelo_matrix::kernels`], the single home of every hot
//! vector loop; the solvers call those kernels directly.

use ektelo_matrix::kernels;

/// Normalizes `v` to unit Euclidean length in place, returning the original
/// norm (leaves `v` untouched when zero).
pub fn normalize_l2(v: &mut [f64]) -> f64 {
    let norm = kernels::norm2(v);
    if norm > 0.0 {
        kernels::scale(v, 1.0 / norm);
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
        Some(s) => kernels::dot(s, u),
    };
    if mass > 0.0 {
        kernels::scale(u, total / mass);
    } else {
        u.fill(total / n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_unit() {
        let mut v = vec![3.0, 4.0];
        assert_eq!(normalize_l2(&mut v), 5.0);
        assert!((kernels::norm2(&v) - 1.0).abs() < 1e-15);
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
