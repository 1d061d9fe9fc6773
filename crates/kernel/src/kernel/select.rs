//! The exponential-mechanism selection's picker, and the two
//! data-dependent scores it picks by: Worst-approx's `|W·x − W·x̂|`
//! (MWEM's query selection, paper §5.3; Hardt et al. 2012) and PrivBayes's
//! mutual information (Zhang et al. 2017; paper Plan #17). Both run here,
//! on a snapshot the caller never sees: the caller learns the indices its
//! picks draw and nothing else.

use std::sync::Arc;

use ektelo_data::{vectorize, Table};
use ektelo_matrix::{Matrix, Workspace};
use rand::rngs::StdRng;

use super::noise::exponential_mechanism;
use super::{EktError, ProtectedKernel, Result};

/// The exponential mechanism over one selection's snapshot, as
/// [`ProtectedKernel::exponential_selection`] hands it to the caller.
/// Every pick draws from the selection's substream; each scored pick
/// spends an equal share of the selection's ε, and no more picks are
/// drawn than the selection declared.
pub struct Picker<'s, D> {
    pub(super) rng: StdRng,
    pub(super) source: &'s D,
    pub(super) kernel: &'s ProtectedKernel,
    /// The ε of one scored pick, and how many are left.
    pub(super) eps: f64,
    pub(super) picks: usize,
}

impl<D> Picker<'_, D> {
    /// An index into `0..n` drawn uniformly: the exponential mechanism
    /// over `n` equal scores, which spends nothing.
    pub fn pick_uniform(&mut self, n: usize) -> usize {
        exponential_mechanism(&mut self.rng, &vec![0.0; n], 1.0, 1.0)
    }

    /// The ε of the next scored pick, or `InvalidArgument` once the
    /// declared picks are spent.
    fn spend(&mut self) -> Result<f64> {
        if self.picks == 0 {
            return Err(EktError::InvalidArgument(
                "the selection's declared picks are spent".into(),
            ));
        }
        self.picks -= 1;
        Ok(self.eps)
    }
}

impl Picker<'_, Arc<Vec<f64>>> {
    /// Worst-approx: the index of the workload query that `x_hat`
    /// approximates worst on the snapshot, drawn with probability
    /// `∝ exp(ε · |W·x − W·x̂| / (2Δ))`, where `Δ` is the workload's
    /// score sensitivity ([`WorstApproxScores::sensitivity`]). A workload
    /// whose `Δ` is not positive and finite is `InvalidArgument`. The
    /// workload evaluations go through the kernel's idle workspace.
    pub fn pick_worst_approx(
        &mut self,
        scores: &mut WorstApproxScores<'_>,
        x_hat: &[f64],
    ) -> Result<usize> {
        let sensitivity = scores.sensitivity;
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(EktError::InvalidArgument(format!(
                "workload score sensitivity must be positive and finite, got {sensitivity}"
            )));
        }
        let eps = self.spend()?;
        let mut ws = self.kernel.workspace_checkout();
        scores.score(self.source, x_hat, &mut ws);
        self.kernel.workspace_restore(ws);
        Ok(exponential_mechanism(
            &mut self.rng,
            &scores.scores,
            sensitivity,
            eps,
        ))
    }
}

impl Picker<'_, Arc<Table>> {
    /// PrivBayes: the index of a candidate `(child, parents)` drawn by the
    /// empirical mutual information `I(child; parents)` on the snapshot.
    /// The table cardinality `N` is public (as in PrivBayes), so the score
    /// has sensitivity `(1/N)·ln N + ((N−1)/N)·ln(N/(N−1))`.
    pub fn pick_mutual_information<'c>(
        &mut self,
        candidates: impl IntoIterator<Item = (usize, &'c [usize])>,
    ) -> Result<usize> {
        let eps = self.spend()?;
        let table: &Table = self.source;
        let scores: Vec<f64> = candidates
            .into_iter()
            .map(|(child, parents)| mutual_information(table, child, parents))
            .collect();
        let sensitivity = mi_sensitivity(table.num_rows().max(2));
        Ok(exponential_mechanism(
            &mut self.rng,
            &scores,
            sensitivity,
            eps,
        ))
    }
}

/// Worst-approx's scoring state across the rounds of one loop.
///
/// MWEM selects from the same workload on the same source every round;
/// only `x̂` changes. The state keeps the truth answers `W·x` of the
/// snapshot it last scored and, when the next round's snapshot is the
/// same source data, scores against them instead of evaluating `W·x`
/// again. Reusing them is safe because:
///
/// * **the data are the same.** The state holds the snapshot's `Arc` with
///   the answers and reuses them only when the round's snapshot is the
///   same allocation (`Arc::ptr_eq`). Source vectors are immutable once
///   recorded, and holding the `Arc` keeps the allocation alive, so its
///   address cannot be handed to other data while the answers exist.
/// * **the answers stay in this crate.** The fields are private: every
///   round still charges through the selection and releases only the
///   index its picker draws — the same release, budget and stream
///   position as a fresh state.
/// * **they are dropped with the loop** that owns the state.
pub struct WorstApproxScores<'w> {
    workload: &'w Matrix,
    /// `Δ = max |Wᵢⱼ|`: one record moves any score by at most this.
    sensitivity: f64,
    /// The snapshot last scored and the workload's answers on it, `W·x`.
    truth: Option<(Arc<Vec<f64>>, Vec<f64>)>,
    /// The workload's answers on `x̂`, then the scores.
    scores: Vec<f64>,
}

impl<'w> WorstApproxScores<'w> {
    /// A state over `workload` that has scored nothing yet; derives the
    /// score sensitivity from the workload's entries.
    pub fn new(workload: &'w Matrix) -> Self {
        WorstApproxScores {
            workload,
            sensitivity: workload.max_abs_entry(),
            truth: None,
            scores: Vec::new(),
        }
    }

    /// The workload this state scores.
    pub fn workload(&self) -> &'w Matrix {
        self.workload
    }

    /// The score sensitivity `Δ = max |Wᵢⱼ|` the picks calibrate with:
    /// adding or removing one record in cell `j` moves `(W·x)ᵢ`, so score
    /// `i`, by at most `|Wᵢⱼ|`.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
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

/// Sensitivity of empirical mutual information w.r.t. one record, with
/// public N (PrivBayes Lemma 4.1, natural-log form for non-binary
/// attributes).
fn mi_sensitivity(n: usize) -> f64 {
    assert!(n >= 2, "mutual information needs at least 2 records");
    let nf = n as f64;
    (1.0 / nf) * nf.ln() + ((nf - 1.0) / nf) * (nf / (nf - 1.0)).ln()
}

/// Empirical mutual information `I(X; Π)` in nats; `I(X; ∅) = 0`.
fn mutual_information(table: &Table, child: usize, parents: &[usize]) -> f64 {
    if parents.is_empty() {
        return 0.0;
    }
    let n = table.num_rows();
    if n == 0 {
        return 0.0;
    }
    // Joint histogram over (Π, X): the count vector of the projection
    // onto the parents then the child, so cell `π·|X| + x`.
    let attrs = table.schema().attributes();
    let child_size = attrs[child].size();
    let names: Vec<&str> = parents
        .iter()
        .chain([&child])
        .map(|&a| attrs[a].name())
        .collect();
    let joint = vectorize(&table.select(&names));
    let parent_domain = joint.len() / child_size;
    let nf = n as f64;
    // Marginals.
    let mut px = vec![0.0; child_size];
    let mut ppi = vec![0.0; parent_domain];
    for (idx, &c) in joint.iter().enumerate() {
        px[idx % child_size] += c;
        ppi[idx / child_size] += c;
    }
    let mut mi = 0.0;
    for (idx, &c) in joint.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let pxy = c / nf;
        let p1 = ppi[idx / child_size] / nf;
        let p2 = px[idx % child_size] / nf;
        mi += pxy * (pxy / (p1 * p2)).ln();
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::super::substream_seed;
    use super::super::tests::assert_twins;
    use super::*;
    use ektelo_data::Schema;
    use rand::{RngExt, SeedableRng};

    /// Worst-approx's pick on `k`'s root, through the public route.
    fn pick(k: &ProtectedKernel, scores: &mut WorstApproxScores<'_>, x_hat: &[f64]) -> usize {
        k.exponential_selection(
            k.root(),
            0.3,
            1,
            None,
            |p: &mut Picker<'_, Arc<Vec<f64>>>| p.pick_worst_approx(scores, x_hat),
        )
        .unwrap()
        .unwrap()
    }

    /// Reference: one Worst-approx round with the privileged steps inlined
    /// — the charge and snapshot, the scores, and the exponential mechanism
    /// on substream 0 of the base, calibrated to the 0/1 workloads' score
    /// sensitivity 1.
    fn worst_approx_by_hand(k: &ProtectedKernel, w: &Matrix, x_hat: &[f64], eps: f64) -> usize {
        worst_approx_by_hand_at(k, w, x_hat, eps, 1.0)
    }

    /// [`worst_approx_by_hand`] calibrated to `sensitivity`.
    fn worst_approx_by_hand_at(
        k: &ProtectedKernel,
        w: &Matrix,
        x_hat: &[f64],
        eps: f64,
        sensitivity: f64,
    ) -> usize {
        let (base, snaps) = k
            .charge_and_snapshot::<Arc<Vec<f64>>>(&[(k.root(), eps)], None)
            .unwrap();
        let (truth, est) = (w.matvec(&snaps[0]), w.matvec(x_hat));
        let scores: Vec<f64> = truth.iter().zip(&est).map(|(t, e)| (t - e).abs()).collect();
        let mut rng = StdRng::seed_from_u64(substream_seed(base, 0));
        exponential_mechanism(&mut rng, &scores, sensitivity, eps)
    }

    /// The picker calibrates with the workload's largest entry magnitude,
    /// whatever its scale: a workload of ranges weighted 3 (or 0.25) picks
    /// as the reference at sensitivity 3 (0.25), and a workload without a
    /// nonzero entry is refused.
    #[test]
    fn picks_calibrate_with_the_largest_workload_entry() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 7) % 5) as f64 * 4.0).collect();
        let ranges = Matrix::range_queries(32, (0..20).map(|i| (i, i + 1 + i % 9)).collect());
        let x_hat = vec![2.0; 32];
        for (c, seed) in [(3.0, 1), (0.25, 2)] {
            let w = Matrix::scaled(c, ranges.clone());
            assert_eq!(WorstApproxScores::new(&w).sensitivity(), c);
            assert_twins(
                || ProtectedKernel::init_from_vector(x.clone(), 4.0, seed),
                |k| pick(k, &mut WorstApproxScores::new(&w), &x_hat),
                |k| worst_approx_by_hand_at(k, &w, &x_hat, 0.3, c),
            );
        }
        let zero = Matrix::scaled(0.0, ranges);
        let k = ProtectedKernel::init_from_vector(x, 4.0, 3);
        let refused = k.exponential_selection(k.root(), 0.3, 1, None, |p: &mut Picker<'_, _>| {
            p.pick_worst_approx(&mut WorstApproxScores::new(&zero), &x_hat)
        });
        assert!(matches!(refused, Ok(Err(EktError::InvalidArgument(_)))));
    }

    /// Over six rounds whose `x̂` changes, the state that keeps the truth
    /// answers picks what the reference picks each round, and spends and
    /// draws the same.
    #[test]
    fn kept_truth_answers_select_as_fresh_calls() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 * 5.0).collect();
        let w = Matrix::range_queries(64, (0..40).map(|i| (i, i + 1 + (i * 7) % 24)).collect());
        let x_hats: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..64).map(|i| ((i + 3 * r) % 9) as f64 * 1.5).collect())
            .collect();
        assert_twins(
            || ProtectedKernel::init_from_vector(x.clone(), 4.0, 5),
            |k| {
                let mut scores = WorstApproxScores::new(&w);
                let mut kept = None;
                let mut picked = Vec::new();
                for x_hat in &x_hats {
                    picked.push(pick(k, &mut scores, x_hat));
                    // The answers of the first round are kept, not
                    // evaluated again: a new evaluation would sit in a
                    // new buffer, allocated before the old one is freed.
                    let (_, truth) = scores.truth.as_ref().unwrap();
                    assert_eq!(*kept.get_or_insert(truth.as_ptr()), truth.as_ptr());
                    assert_eq!(*truth, w.matvec(&x));
                }
                picked
            },
            |k| {
                x_hats
                    .iter()
                    .map(|x_hat| worst_approx_by_hand(k, &w, x_hat, 0.3))
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
        let mut scores = WorstApproxScores::new(&w);
        let x_hat = [2.0; 8];
        for i in [0, 1, 0, 0, 1] {
            let got = pick(&ks[i], &mut scores, &x_hat);
            assert_eq!(got, worst_approx_by_hand(&twins[i], &w, &x_hat, 0.3));
            let (_, truth) = scores.truth.as_ref().unwrap();
            assert_eq!(*truth, w.matvec(&data[i]));
        }
    }

    /// A picker draws at most the picks its selection declared: one more
    /// scored pick is refused, and uniform picks spend nothing.
    #[test]
    fn a_picker_spends_at_most_its_declared_picks() {
        let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 4.0, 0);
        let w = Matrix::identity(4);
        let mut scores = WorstApproxScores::new(&w);
        let second = k
            .exponential_selection(
                k.root(),
                1.0,
                1,
                None,
                |p: &mut Picker<'_, Arc<Vec<f64>>>| {
                    p.pick_uniform(3);
                    p.pick_worst_approx(&mut scores, &[0.0; 4]).unwrap();
                    p.pick_worst_approx(&mut scores, &[0.0; 4])
                },
            )
            .unwrap();
        assert!(matches!(second, Err(EktError::InvalidArgument(_))));
        assert!(matches!(
            k.exponential_selection(
                k.root(),
                1.0,
                0,
                None,
                |p: &mut Picker<'_, Arc<Vec<f64>>>| { p.pick_uniform(2) }
            ),
            Err(EktError::InvalidArgument(_))
        ));
        assert_eq!(k.budget_spent(), 1.0);
    }

    /// A table where b is a noisy copy of a, and c is independent noise.
    fn correlated_table(rows: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_sizes(&[("a", 4), ("b", 4), ("c", 4)]);
        let mut t = Table::empty(schema);
        for _ in 0..rows {
            let a = rng.random_range(0..4u32);
            let b = if rng.random_bool(0.9) {
                a
            } else {
                rng.random_range(0..4u32)
            };
            let c = rng.random_range(0..4u32);
            t.push_row(&[a, b, c]);
        }
        t
    }

    #[test]
    fn mi_detects_correlation() {
        let t = correlated_table(5000, 1);
        let mi_ab = mutual_information(&t, 1, &[0]);
        let mi_cb = mutual_information(&t, 2, &[0]);
        assert!(mi_ab > 0.5, "correlated MI too small: {mi_ab}");
        assert!(mi_cb < 0.05, "independent MI too large: {mi_cb}");
    }

    #[test]
    fn mi_of_empty_parents_is_zero() {
        let t = correlated_table(100, 2);
        assert_eq!(mutual_information(&t, 0, &[]), 0.0);
    }

    #[test]
    fn sensitivity_decreases_with_n() {
        assert!(mi_sensitivity(100) > mi_sensitivity(10_000));
    }

    /// PrivBayes's network growth over `d` attributes: the first attribute
    /// from `pick(0, candidates)` over the parentless candidates, then
    /// round `r`'s child and parents (at most `max_parents`, from the
    /// attributes grown so far) from `pick(r, candidates)`.
    fn grow(
        d: usize,
        max_parents: usize,
        mut pick: impl FnMut(usize, &[(usize, Vec<usize>)]) -> usize,
    ) -> Vec<(usize, Vec<usize>)> {
        let first = pick(0, &(0..d).map(|a| (a, Vec::new())).collect::<Vec<_>>());
        let (mut order, mut cliques) = (vec![first], vec![(first, Vec::new())]);
        while order.len() < d {
            let mut candidates = Vec::new();
            for x in (0..d).filter(|x| !order.contains(x)) {
                for mask in 0u32..(1 << order.len()) {
                    if mask.count_ones() as usize <= max_parents {
                        let parents = (0..order.len())
                            .filter(|i| mask & (1 << i) != 0)
                            .map(|i| order[i])
                            .collect();
                        candidates.push((x, parents));
                    }
                }
            }
            let chosen = candidates.swap_remove(pick(order.len(), &candidates));
            order.push(chosen.0);
            cliques.push(chosen);
        }
        cliques
    }

    /// The mutual-information picks through the public route grow, spend
    /// and draw as the reference that inlines the privileged steps and
    /// draws its own picks, on three and four attributes at several seeds
    /// and parent bounds.
    #[test]
    fn network_is_its_snapshot_under_substream_zero() {
        let wider = |seed| {
            let t = correlated_table(300, seed);
            let schema = Schema::from_sizes(&[("a", 4), ("b", 4), ("c", 4), ("d", 3)]);
            let mut out = Table::empty(schema);
            for i in 0..t.num_rows() {
                let mut row = t.row(i);
                row.push((row[0] + row[2]) % 3);
                out.push_row(&row);
            }
            out
        };
        for (table, seed, max_parents, eps) in [
            (correlated_table(400, 5), 5, 2, 1.0),
            (correlated_table(200, 6), 6, 1, 0.3),
            (wider(7), 7, 2, 2.0),
        ] {
            let d = table.schema().arity();
            assert_twins(
                || ProtectedKernel::init(table.clone(), 4.0, seed),
                |k| {
                    k.exponential_selection(
                        k.root(),
                        eps,
                        d - 1,
                        None,
                        |p: &mut Picker<'_, Arc<Table>>| {
                            grow(d, max_parents, |round, c| match round {
                                0 => p.pick_uniform(c.len()),
                                _ => p
                                    .pick_mutual_information(
                                        c.iter().map(|(x, ps)| (*x, ps.as_slice())),
                                    )
                                    .unwrap(),
                            })
                        },
                    )
                    .unwrap()
                },
                |k| {
                    let (base, snaps) = k
                        .charge_and_snapshot::<Arc<Table>>(&[(k.root(), eps)], None)
                        .unwrap();
                    let mut rng = StdRng::seed_from_u64(substream_seed(base, 0));
                    let eps_step = eps / (d as f64 - 1.0);
                    let sens = mi_sensitivity(snaps[0].num_rows().max(2));
                    grow(d, max_parents, |round, c| {
                        let scores: Vec<f64> = c
                            .iter()
                            .map(|(x, ps)| mutual_information(&snaps[0], *x, ps))
                            .collect();
                        match round {
                            0 => exponential_mechanism(
                                &mut rng,
                                &scores,
                                1.0,
                                eps_step.max(f64::MIN_POSITIVE),
                            ),
                            _ => exponential_mechanism(&mut rng, &scores, sens, eps_step),
                        }
                    })
                },
            );
        }
    }
}
