//! Shared plan plumbing: plan-scoped inference, budget splits and
//! workload helpers.

use ektelo_core::kernel::{ProtectedKernel, Result, SourceVar};
use ektelo_core::ops::graph::{PlanExecutor, PlanSpec};
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

/// Extracts the interval list of a range-query workload, if it is one.
pub fn workload_ranges(w: &Matrix) -> Option<Vec<(usize, usize)>> {
    match w {
        Matrix::Range(r) => Some(r.ranges().collect()),
        _ => None,
    }
}

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

/// A plan outcome: the estimate over the base domain of the plan's
/// source.
pub struct PlanOutcome {
    /// Estimated data vector over the base domain of the plan's source.
    pub x_hat: Vec<f64>,
}

/// Result alias re-exported for plan signatures.
pub type PlanResult = Result<PlanOutcome>;

/// Runs `spec` on `x` through the plan executor, which pre-accounts it
/// and admits it before any kernel call.
pub(crate) fn run_spec(kernel: &ProtectedKernel, x: SourceVar, spec: &PlanSpec) -> PlanResult {
    let report = PlanExecutor::new(kernel).run(spec, x)?;
    Ok(PlanOutcome {
        x_hat: report.x_hat,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test oracle for a migrated plan: `a` on a kernel and source from
    /// `make` and `b` on a twin from `make` return the same estimate bits,
    /// spend the same budget, record as many measurements and leave the
    /// kernel stream at the same place.
    pub(crate) fn assert_twins(
        make: impl Fn() -> (ProtectedKernel, SourceVar),
        a: impl FnOnce(&ProtectedKernel, SourceVar) -> PlanResult,
        b: impl FnOnce(&ProtectedKernel, SourceVar) -> Vec<f64>,
    ) {
        let ((k1, x1), (k2, x2)) = (make(), make());
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let planned = a(&k1, x1).unwrap().x_hat;
        assert_eq!(bits(planned), bits(b(&k2, x2)), "the estimates differ");
        assert_eq!(k1.budget_spent(), k2.budget_spent());
        assert_eq!(k1.measurement_count(), k2.measurement_count());
        let next = |k: &ProtectedKernel| k.noisy_count(k.root(), 1e-3).unwrap();
        assert_eq!(next(&k1), next(&k2), "the kernel stream diverged");
    }

    #[test]
    fn budget_split_sums_to_eps() {
        let parts = split_budget(1.0, &[1.0, 3.0]);
        assert!((parts[0] - 0.25).abs() < 1e-12);
        assert!((parts.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
