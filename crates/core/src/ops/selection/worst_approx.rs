//! Worst-approx: MWEM's private query selection (paper §5.3; Hardt et al.
//! 2012). Private→Public.
//!
//! Given the analyst's current estimate `x̂`, selects the workload query
//! whose answer on the private data deviates most from its answer on `x̂`,
//! via the exponential mechanism (implemented with the Gumbel-max trick,
//! which is exactly equivalent).

use ektelo_matrix::Matrix;

use crate::kernel::noise::exponential_mechanism;
use crate::kernel::{BudgetReservation, EktError, ProtectedKernel, Result, SourceVar};

/// Selects the index of the workload row worst-approximated by `x_hat`,
/// spending `eps`. `score_sensitivity` bounds how much one record can move
/// any single query's score — 1 for counting queries with 0/1
/// coefficients (all workloads in the paper's MWEM experiments).
///
/// When `res` is given, the charge is redeemed from that reservation's
/// hold (the plan executor's path); with `None` it competes for open
/// budget like any imperative charge.
pub fn worst_approx(
    kernel: &ProtectedKernel,
    sv: SourceVar,
    workload: &Matrix,
    x_hat: &[f64],
    score_sensitivity: f64,
    eps: f64,
    res: Option<&BudgetReservation<'_>>,
) -> Result<usize> {
    if workload.rows() == 0 {
        return Err(EktError::InvalidArgument("empty workload".into()));
    }
    if workload.cols() != x_hat.len() {
        return Err(EktError::ShapeMismatch {
            expected: x_hat.len(),
            found: workload.cols(),
        });
    }
    // The exponential mechanism asserts on these, and it runs under the
    // kernel's state lock: a panic there would poison the kernel. Reject
    // them before anything is charged.
    if !score_sensitivity.is_finite() || score_sensitivity <= 0.0 {
        return Err(EktError::InvalidArgument(format!(
            "score sensitivity must be positive and finite, got {score_sensitivity}"
        )));
    }
    if let Some(v) = x_hat.iter().find(|v| !v.is_finite()) {
        return Err(EktError::InvalidArgument(format!(
            "x_hat must be finite, got an entry {v}"
        )));
    }
    // The truth evaluation below runs under the kernel's state lock, where
    // a width mismatch would panic and poison the kernel. Reject it (and a
    // wrong source type) before anything is charged.
    let n = kernel.vector_len(sv)?;
    if workload.cols() != n {
        return Err(EktError::ShapeMismatch {
            expected: n,
            found: workload.cols(),
        });
    }
    kernel.charge_in(sv, eps, res)?;
    // Both workload evaluations (public estimate, private truth) share one
    // workspace; the truth answers are overwritten in place with the
    // per-query deviation scores. It is the kernel's idle workspace, so
    // MWEM's round loop — which calls this once per round with the same
    // workload — reuses one warm arena instead of rebuilding it.
    let mut ws = kernel.workspace_checkout();
    let mut est = vec![0.0; workload.rows()];
    workload.matvec_into(x_hat, &mut est, &mut ws);
    let (idx, ws) = kernel.with_vector(sv, move |x, rng| {
        let mut scores = vec![0.0; workload.rows()];
        workload.matvec_into(x, &mut scores, &mut ws);
        for (s, e) in scores.iter_mut().zip(&est) {
            *s = (*s - e).abs();
        }
        (
            exponential_mechanism(rng, &scores, score_sensitivity, eps),
            ws,
        )
    })?;
    kernel.workspace_restore(ws);
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_obvious_worst_query() {
        // Data: spike at cell 3; estimate: uniform. The singleton query on
        // cell 3 has by far the worst approximation.
        let mut x = vec![1.0; 8];
        x[3] = 100.0;
        let x_hat = vec![1.0; 8];
        let w = Matrix::identity(8);
        let mut hits = 0;
        for seed in 0..50 {
            let k = ProtectedKernel::init_from_vector(x.clone(), 10.0, seed);
            let idx = worst_approx(&k, k.root(), &w, &x_hat, 1.0, 5.0, None).unwrap();
            if idx == 3 {
                hits += 1;
            }
        }
        assert!(hits > 40, "picked the spike only {hits}/50 times");
    }

    #[test]
    fn charges_budget() {
        let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
        let w = Matrix::identity(4);
        worst_approx(&k, k.root(), &w, &[0.0; 4], 1.0, 0.25, None).unwrap();
        assert!((k.budget_spent() - 0.25).abs() < 1e-12);
        // Exhausting the budget errors out.
        assert!(worst_approx(&k, k.root(), &w, &[0.0; 4], 1.0, 1.0, None).is_err());
    }

    #[test]
    fn rejects_shape_mismatch() {
        let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
        let w = Matrix::identity(5);
        assert!(matches!(
            worst_approx(&k, k.root(), &w, &[0.0; 4], 1.0, 0.1, None),
            Err(EktError::ShapeMismatch { .. })
        ));
    }
}
