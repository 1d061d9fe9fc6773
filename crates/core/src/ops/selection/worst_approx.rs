//! Worst-approx: MWEM's private query selection (paper §5.3; Hardt et al.
//! 2012). Private→Public.
//!
//! Given the analyst's current estimate `x̂`, selects the workload query
//! whose answer on the private data deviates most from its answer on `x̂`,
//! via the exponential mechanism. The scores `|W·x − W·x̂|` run inside the
//! kernel crate ([`Picker::pick_worst_approx`]); this module checks the
//! public arguments and asks for one pick. A loop that selects from one
//! workload round after round keeps one [`WorstApproxScores`], which
//! evaluates the truth answers `W·x` once per source.

use std::sync::Arc;

use ektelo_matrix::Matrix;

use crate::kernel::{
    BudgetReservation, EktError, Picker, ProtectedKernel, Result, SourceVar, WorstApproxScores,
};

/// Selects the index of the workload row worst-approximated by `x_hat`,
/// spending `eps`. The kernel derives the score sensitivity from the
/// workload, `Δ = max |Wᵢⱼ|` (1 for counting queries with 0/1
/// coefficients, all workloads in the paper's MWEM experiments), and
/// calibrates with it. `score_sensitivity` is the caller's declared bound:
/// it must be positive, finite and at least `Δ`, else the call is
/// `InvalidArgument` before anything is charged. The kernel's
/// exponential-mechanism selection charges `eps` and picks once with it,
/// on the scores computed outside the kernel lock.
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
    let mut scores = WorstApproxScores::new(workload);
    // A NaN `Δ` is rejected below, with the other malformed workloads.
    if !score_sensitivity.is_finite() || score_sensitivity < scores.sensitivity() {
        return Err(EktError::InvalidArgument(format!(
            "score sensitivity must be finite and at least the workload's {}, got \
             {score_sensitivity}",
            scores.sensitivity()
        )));
    }
    select_worst_approx(kernel, sv, &mut scores, x_hat, eps, res)
}

/// One round of [`worst_approx`] on `scores`' workload: the same pick,
/// charge and stream position, with the truth answers kept across the
/// rounds of a loop.
pub(crate) fn select_worst_approx(
    kernel: &ProtectedKernel,
    sv: SourceVar,
    scores: &mut WorstApproxScores<'_>,
    x_hat: &[f64],
    eps: f64,
    res: Option<&BudgetReservation<'_>>,
) -> Result<usize> {
    let workload = scores.workload();
    if workload.rows() == 0 {
        return Err(EktError::InvalidArgument("empty workload".into()));
    }
    if workload.cols() != x_hat.len() {
        return Err(EktError::ShapeMismatch {
            expected: x_hat.len(),
            found: workload.cols(),
        });
    }
    // The exponential mechanism and the truth evaluation assert on these
    // after the charge: reject them (and a wrong source type) before
    // anything is charged.
    let sensitivity = scores.sensitivity();
    if !sensitivity.is_finite() || sensitivity <= 0.0 {
        return Err(EktError::InvalidArgument(format!(
            "workload score sensitivity must be positive and finite, got {sensitivity}"
        )));
    }
    // Checked every round, in one pass without a branch; the offending
    // entry is looked up only to report it.
    if !all_finite(x_hat) {
        let v = x_hat.iter().find(|v| !v.is_finite()).copied();
        return Err(EktError::InvalidArgument(format!(
            "x_hat must be finite, got an entry {}",
            v.unwrap_or(f64::NAN)
        )));
    }
    let n = kernel.vector_len(sv)?;
    if workload.cols() != n {
        return Err(EktError::ShapeMismatch {
            expected: n,
            found: workload.cols(),
        });
    }
    kernel.exponential_selection(sv, eps, 1, res, |picker: &mut Picker<'_, Arc<Vec<f64>>>| {
        picker.pick_worst_approx(scores, x_hat)
    })?
}

/// Whether every entry of `v` is finite: one pass without a branch, in
/// four independent lanes.
fn all_finite(v: &[f64]) -> bool {
    let mut ok = [true; 4];
    let lanes = v.chunks_exact(4);
    let rest = lanes
        .remainder()
        .iter()
        .fold(true, |ok, v| ok & v.is_finite());
    lanes.for_each(|l| {
        l.iter()
            .zip(&mut ok)
            .for_each(|(v, ok)| *ok &= v.is_finite())
    });
    ok.iter().fold(rest, |all, &ok| all & ok)
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

    /// One round is the kernel's exponential-mechanism selection with
    /// Worst-approx's pick, on a twin (the kernel's own tests pin that
    /// selection to its snapshot and substream 0 of its base).
    #[test]
    fn selection_is_its_snapshot_under_substream_zero() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 11) % 5) as f64 * 3.0).collect();
        let (w, x_hat) = (Matrix::prefix(32), vec![1.5; 32]);
        crate::ops::tests::assert_twins(
            || ProtectedKernel::init_from_vector(x.clone(), 4.0, 21),
            |k| worst_approx(k, k.root(), &w, &x_hat, 1.0, 0.4, None).unwrap(),
            |k| {
                let mut scores = WorstApproxScores::new(&w);
                k.exponential_selection(k.root(), 0.4, 1, None, |p: &mut Picker<'_, _>| {
                    p.pick_worst_approx(&mut scores, &x_hat)
                })
                .unwrap()
                .unwrap()
            },
        );
    }

    /// Over rounds whose `x̂` changes, a loop that keeps one scoring state
    /// picks what fresh [`worst_approx`] calls pick each round, and spends
    /// and draws the same.
    #[test]
    fn kept_truth_answers_select_as_fresh_calls() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 * 5.0).collect();
        let w = Matrix::range_queries(64, (0..40).map(|i| (i, i + 1 + (i * 7) % 24)).collect());
        let x_hats: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..64).map(|i| ((i + 3 * r) % 9) as f64 * 1.5).collect())
            .collect();
        crate::ops::tests::assert_twins(
            || ProtectedKernel::init_from_vector(x.clone(), 4.0, 5),
            |k| {
                let mut scores = WorstApproxScores::new(&w);
                x_hats
                    .iter()
                    .map(|x_hat| {
                        select_worst_approx(k, k.root(), &mut scores, x_hat, 0.3, None).unwrap()
                    })
                    .collect::<Vec<_>>()
            },
            |k| {
                x_hats
                    .iter()
                    .map(|x_hat| worst_approx(k, k.root(), &w, x_hat, 1.0, 0.3, None).unwrap())
                    .collect::<Vec<_>>()
            },
        );
    }

    /// A declared score sensitivity below the workload's `max |Wᵢⱼ|` is
    /// refused before the charge: calibrating a 0/1 range workload with
    /// 0.1 would spend 10× the stated ε per pick.
    #[test]
    fn declared_sensitivity_below_the_workloads_is_rejected_before_charging() {
        let k = ProtectedKernel::init_from_vector(vec![3.0; 16], 1.0, 4);
        let w = Matrix::range_queries(16, vec![(0, 4), (3, 16), (7, 8)]);
        let err = worst_approx(&k, k.root(), &w, &[1.0; 16], 0.1, 0.2, None).unwrap_err();
        assert!(matches!(err, EktError::InvalidArgument(_)), "{err:?}");
        assert_eq!(k.budget_spent(), 0.0);
        // A declared bound at or above it is accepted, and charges.
        worst_approx(&k, k.root(), &w, &[1.0; 16], 1.0, 0.2, None).unwrap();
        worst_approx(&k, k.root(), &w, &[1.0; 16], 2.0, 0.2, None).unwrap();
        assert!((k.budget_spent() - 0.4).abs() < 1e-12);
    }

    /// A NaN or an infinity anywhere in `x̂` (in any of the check's four
    /// lanes, or among the last entries that fill no lane) is refused
    /// before the charge, and the error names it.
    #[test]
    fn non_finite_estimates_are_rejected_before_charging() {
        let k = ProtectedKernel::init_from_vector(vec![2.0; 11], 1.0, 6);
        let w = Matrix::range_queries(11, vec![(0, 5), (4, 11)]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 3, 5, 6, 10] {
                let mut x_hat = vec![1.0; 11];
                x_hat[at] = bad;
                let err = worst_approx(&k, k.root(), &w, &x_hat, 1.0, 0.2, None).unwrap_err();
                let EktError::InvalidArgument(msg) = &err else {
                    panic!("{err:?}");
                };
                assert!(msg.ends_with(&format!("entry {bad}")), "{msg}");
            }
        }
        assert_eq!(k.budget_spent(), 0.0);
        // Finite extremes are accepted.
        let mut x_hat = vec![1.0; 11];
        x_hat[..5].copy_from_slice(&[1e300, -1e300, f64::MIN_POSITIVE, -0.0, 0.0]);
        worst_approx(&k, k.root(), &w, &x_hat, 1.0, 0.2, None).unwrap();
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
