//! The paper's running example: the CDF estimator of Algorithm 1 (§2.1).
//!
//! Filter → Select → Vectorize → AHPpartition(ε/2) → Reduce →
//! Identity/Laplace(ε/2) → NNLS → Prefix·x̂.

use ektelo_core::kernel::{ProtectedKernel, Result, SourceVar};
use ektelo_core::ops::partition::ahp_partition;
use ektelo_data::Predicate;
use ektelo_matrix::Matrix;

use crate::util::infer_nnls;

/// Runs Algorithm 1: the differentially-private empirical CDF of
/// `attr` over the rows matching `filter`. Returns the cumulative counts
/// (one per attribute value).
pub fn cdf_estimator(
    kernel: &ProtectedKernel,
    table: SourceVar,
    filter: &Predicate,
    attr: &str,
    eps: f64,
) -> Result<Vec<f64>> {
    // Lines 2–4: Where, Select, T-Vectorize.
    let filtered = kernel.transform_where(table, filter)?;
    let projected = kernel.transform_select(filtered, &[attr])?;
    let x = kernel.vectorize(projected)?;
    let n = kernel.vector_len(x)?;
    let start = kernel.measurement_count();

    // Line 5: AHPpartition with ε/2.
    let p = ahp_partition(kernel, x, eps / 2.0)?;
    // Line 6: V-ReduceByPartition.
    let reduced = kernel.reduce_by_partition(x, &p)?;
    // Lines 7–8: Identity selection + Vector Laplace with ε/2.
    let groups = kernel.vector_len(reduced)?;
    kernel.vector_laplace(reduced, &Matrix::identity(groups), eps / 2.0)?;
    // Line 9: NNLS maps the reduced answers back to the full domain.
    let x_hat = infer_nnls(kernel, start);
    // Lines 10–11: W_pre · x̂.
    Ok(Matrix::prefix(n).matvec(&x_hat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_data::{Schema, Table};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The paper's example schema: [age, gender, salary].
    fn census_like(rows: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_sizes(&[("age", 80), ("sex", 2), ("salary", 64)]);
        let mut t = Table::empty(schema);
        for _ in 0..rows {
            let age = rng.random_range(0..80u32);
            let sex = rng.random_range(0..2u32);
            let salary = rng.random_range(0..40u32) + if sex == 0 { 8 } else { 0 };
            t.push_row(&[age, sex, salary.min(63)]);
        }
        t
    }

    #[test]
    fn cdf_is_monotone_and_ends_near_group_count() {
        let t = census_like(20_000, 1);
        // Count the true group size first (males in their 30s).
        let pred = Predicate::eq("sex", 0).and(Predicate::range("age", 30, 40));
        let truth = t.filter(&pred).num_rows() as f64;
        let k = ProtectedKernel::init(t, 1.0, 2);
        let cdf = cdf_estimator(&k, k.root(), &pred, "salary", 1.0).unwrap();
        assert_eq!(cdf.len(), 64);
        // Monotone (NNLS guarantees non-negative increments).
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        let last = *cdf.last().unwrap();
        assert!(
            (last - truth).abs() / truth < 0.25,
            "CDF endpoint {last} vs true group size {truth}"
        );
    }

    #[test]
    fn spends_exactly_eps() {
        let t = census_like(2000, 3);
        let k = ProtectedKernel::init(t, 0.8, 4);
        let pred = Predicate::eq("sex", 1);
        cdf_estimator(&k, k.root(), &pred, "salary", 0.8).unwrap();
        assert!((k.budget_spent() - 0.8).abs() < 1e-9);
    }
}
