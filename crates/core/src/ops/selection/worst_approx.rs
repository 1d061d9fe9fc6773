//! Worst-approx: MWEM's private query selection (paper §5.3; Hardt et al.
//! 2012). Private→Public.
//!
//! Given the analyst's current estimate `x̂`, selects the workload query
//! whose answer on the private data deviates most from its answer on `x̂`,
//! via the exponential mechanism (implemented with the Gumbel-max trick,
//! which is exactly equivalent).
//!
//! # One selection state per loop
//!
//! MWEM's loop selects from the same workload on the same source every
//! round; only `x̂` changes. [`WorstApprox`] is the state the loop owns
//! for that: it keeps the truth answers `W·x` of the snapshot it last
//! scored and, when the next round's snapshot is the same source data,
//! scores against them instead of evaluating `W·x` again. [`worst_approx`]
//! is the state's one-round use. Reusing the answers is safe because:
//!
//! * **the data are the same.** A snapshot is the source's `Arc`; the
//!   state holds that `Arc` with the answers and reuses them only when
//!   the round's snapshot is the same allocation (`Arc::ptr_eq`). Source
//!   vectors are immutable once recorded, and holding the `Arc` keeps the
//!   allocation alive, so its address cannot be handed to other data
//!   while the answers exist. Any other snapshot is evaluated afresh.
//! * **the answers stay private to the operator.** They live in a
//!   `pub(crate)` state no plan can read: every round still validates its
//!   arguments before it charges, charges through the kernel's
//!   exponential-mechanism selection, and releases only the index its
//!   picker draws from substream 0 of its own base — the same release,
//!   budget and stream position as a fresh [`worst_approx`] call.
//! * **they are dropped with the loop.** The state is a local of the
//!   loop that owns it, so the answers and the snapshot `Arc` are freed
//!   when the loop returns or fails.

use std::sync::Arc;

use ektelo_matrix::{Matrix, Workspace};

use crate::kernel::{BudgetReservation, EktError, ProtectedKernel, Result, SourceVar};

/// Selects the index of the workload row worst-approximated by `x_hat`,
/// spending `eps`. `score_sensitivity` bounds how much one record can move
/// any single query's score — 1 for counting queries with 0/1
/// coefficients (all workloads in the paper's MWEM experiments). The
/// kernel's exponential-mechanism selection charges `eps` and picks once
/// with it, on the scores computed outside the kernel lock.
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
    WorstApprox::new(workload).select(kernel, sv, x_hat, score_sensitivity, eps, res)
}

/// Worst-approx over one workload across the rounds of a loop: each
/// [`WorstApprox::select`] is a [`worst_approx`] call, bit for bit, but
/// the truth answers are evaluated once per snapshot (see the module
/// docs).
pub(crate) struct WorstApprox<'w> {
    workload: &'w Matrix,
    /// The snapshot last scored and the workload's answers on it, `W·x`.
    truth: Option<(Arc<Vec<f64>>, Vec<f64>)>,
    /// The workload's answers on `x̂`, then the scores.
    scores: Vec<f64>,
}

impl<'w> WorstApprox<'w> {
    pub(crate) fn new(workload: &'w Matrix) -> Self {
        WorstApprox {
            workload,
            truth: None,
            scores: Vec::new(),
        }
    }

    /// One round of [`worst_approx`] on this state's workload.
    pub(crate) fn select(
        &mut self,
        kernel: &ProtectedKernel,
        sv: SourceVar,
        x_hat: &[f64],
        score_sensitivity: f64,
        eps: f64,
        res: Option<&BudgetReservation<'_>>,
    ) -> Result<usize> {
        let workload = self.workload;
        if workload.rows() == 0 {
            return Err(EktError::InvalidArgument("empty workload".into()));
        }
        if workload.cols() != x_hat.len() {
            return Err(EktError::ShapeMismatch {
                expected: x_hat.len(),
                found: workload.cols(),
            });
        }
        // The exponential mechanism and the truth evaluation assert on
        // these after the charge: reject them (and a wrong source type)
        // before anything is charged.
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
        let n = kernel.vector_len(sv)?;
        if workload.cols() != n {
            return Err(EktError::ShapeMismatch {
                expected: n,
                found: workload.cols(),
            });
        }
        kernel.exponential_selection(sv, eps, res, |x: &Arc<Vec<f64>>, picker| {
            // The workload evaluations go through the kernel's idle
            // workspace, returned before the round's measurement checks it
            // out, so the round loop reuses one warm arena instead of
            // rebuilding it.
            let mut ws = kernel.workspace_checkout();
            self.score(x, x_hat, &mut ws);
            kernel.workspace_restore(ws);
            picker.pick(&self.scores, score_sensitivity, eps)
        })
    }

    /// Each workload query's deviation `|W x − W x̂|` on the snapshot `x`,
    /// into `self.scores`. `W x` is evaluated only when `x` is not the
    /// snapshot the kept answers belong to.
    fn score(&mut self, x: &Arc<Vec<f64>>, x_hat: &[f64], ws: &mut Workspace) {
        let workload = self.workload;
        let truth = match &mut self.truth {
            Some((kept, truth)) if Arc::ptr_eq(kept, x) => truth,
            slot => {
                let mut truth = vec![0.0; workload.rows()];
                workload.matvec_into(x, &mut truth, ws);
                &mut slot.insert((Arc::clone(x), truth)).1
            }
        };
        self.scores.resize(workload.rows(), 0.0);
        workload.matvec_into(x_hat, &mut self.scores, ws);
        for (s, t) in self.scores.iter_mut().zip(truth.iter()) {
            *s = (t - *s).abs();
        }
    }
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

    /// Reference: one round with the kernel's privileged steps inlined —
    /// the charge and snapshot, the scores, and the exponential mechanism
    /// on substream 0 of the base.
    fn worst_approx_by_hand(
        k: &ProtectedKernel,
        w: &Matrix,
        x_hat: &[f64],
        sensitivity: f64,
        eps: f64,
    ) -> usize {
        use crate::kernel::tests::{charge_and_snapshot, exponential_mechanism, substream_seed};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let reqs = [(k.root(), eps)];
        let (base, snaps) = charge_and_snapshot::<Arc<Vec<f64>>>(k, &reqs).unwrap();
        let (truth, est) = (w.matvec(&snaps[0]), w.matvec(x_hat));
        let scores: Vec<f64> = truth.iter().zip(&est).map(|(t, e)| (t - e).abs()).collect();
        let mut rng = StdRng::seed_from_u64(substream_seed(base, 0));
        exponential_mechanism(&mut rng, &scores, sensitivity, eps)
    }

    #[test]
    fn selection_is_its_snapshot_under_substream_zero() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 11) % 5) as f64 * 3.0).collect();
        let (w, x_hat) = (Matrix::prefix(32), vec![1.5; 32]);
        crate::kernel::tests::assert_twins(
            || ProtectedKernel::init_from_vector(x.clone(), 4.0, 21),
            |k| worst_approx(k, k.root(), &w, &x_hat, 1.0, 0.4, None).unwrap(),
            |k| worst_approx_by_hand(k, &w, &x_hat, 1.0, 0.4),
        );
    }

    /// Over rounds whose `x̂` changes, the state that keeps the truth
    /// answers picks what the reference picks each round, and spends and
    /// draws the same.
    #[test]
    fn kept_truth_answers_select_as_fresh_calls() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 * 5.0).collect();
        let w = Matrix::range_queries(64, (0..40).map(|i| (i, i + 1 + (i * 7) % 24)).collect());
        let x_hats: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..64).map(|i| ((i + 3 * r) % 9) as f64 * 1.5).collect())
            .collect();
        crate::kernel::tests::assert_twins(
            || ProtectedKernel::init_from_vector(x.clone(), 4.0, 5),
            |k| {
                let mut state = WorstApprox::new(&w);
                let mut kept = None;
                let mut picked = Vec::new();
                for x_hat in &x_hats {
                    picked.push(state.select(k, k.root(), x_hat, 1.0, 0.3, None).unwrap());
                    // The answers of the first round are kept, not
                    // evaluated again: a new evaluation would sit in a
                    // new buffer, allocated before the old one is freed.
                    let (_, truth) = state.truth.as_ref().unwrap();
                    assert_eq!(*kept.get_or_insert(truth.as_ptr()), truth.as_ptr());
                    assert_eq!(*truth, w.matvec(&x));
                }
                picked
            },
            |k| {
                x_hats
                    .iter()
                    .map(|x_hat| worst_approx_by_hand(k, &w, x_hat, 1.0, 0.3))
                    .collect::<Vec<_>>()
            },
        );
    }

    /// A snapshot of other data is scored against its own answers.
    #[test]
    fn another_snapshot_is_evaluated_afresh() {
        let w = Matrix::prefix(8);
        let data = [vec![1.0; 8], (0..8).map(f64::from).collect::<Vec<_>>()];
        let kernels = |seed| {
            data.clone()
                .map(|x| ProtectedKernel::init_from_vector(x, 4.0, seed))
        };
        let (ks, twins) = (kernels(3), kernels(3));
        let mut state = WorstApprox::new(&w);
        let x_hat = [2.0; 8];
        for i in [0, 1, 0, 0, 1] {
            let (k, twin) = (&ks[i], &twins[i]);
            let got = state.select(k, k.root(), &x_hat, 1.0, 0.5, None).unwrap();
            let want = worst_approx(twin, twin.root(), &w, &x_hat, 1.0, 0.5, None).unwrap();
            assert_eq!(got, want);
            let (_, truth) = state.truth.as_ref().unwrap();
            assert_eq!(*truth, w.matvec(&data[i]));
        }
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
