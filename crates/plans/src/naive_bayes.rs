//! The Naive-Bayes case study (§9.3, Fig. 3).
//!
//! Learning a Naive-Bayes classifier for a binary label Y from predictors
//! X₁…X_k requires the 2k+1 histograms {Y} ∪ {(Y, Xᵢ)}. Four DP plans
//! estimate them:
//!
//! * [`plan_nb_workload`] — measure the histogram workload directly
//!   (the Cormode 2011 baseline of Fig. 3);
//! * [`plan_nb_workload_ls`] — the same plus least-squares inference
//!   (the paper's *WorkloadLS*);
//! * [`plan_nb_identity`] — noisy full contingency table, marginalized
//!   (Plan #1 applied to the task);
//! * [`plan_nb_select_ls`] — Algorithm 8 (*SelectLS*).
//!
//! Plus the non-private references: [`nb_unperturbed`] and the majority
//! classifier (an AUC of 0.5 by construction — it ranks everything
//! equally).

use ektelo_core::kernel::{ProtectedKernel, Result, SourceVar};
use ektelo_core::ops::inference::LsSolver;
use ektelo_data::workloads::marginal;
use ektelo_data::Table;
use ektelo_matrix::Matrix;

use crate::select_ls::{plan_select_ls, SelectLsOptions};
use crate::util::infer_ls;

/// The sufficient statistics of a binary-label Naive-Bayes model:
/// the label histogram and one `(label × value)` joint histogram per
/// predictor (label-major layout).
#[derive(Clone, Debug)]
pub struct NbHistograms {
    /// `P(Y)` counts, length 2.
    pub label: Vec<f64>,
    /// Per predictor: counts over `(y, v)` at index `y * size + v`.
    pub joint: Vec<Vec<f64>>,
}

/// The marginal masks for the NB task over `[label, X₁ … X_k]`.
fn nb_specs(arity: usize) -> Vec<Vec<bool>> {
    let mut specs = Vec::with_capacity(arity);
    let mut label_only = vec![false; arity];
    label_only[0] = true;
    specs.push(label_only);
    for i in 1..arity {
        let mut keep = vec![false; arity];
        keep[0] = true;
        keep[i] = true;
        specs.push(keep);
    }
    specs
}

/// The NB workload matrix: the union of the 2k+1 histogram marginals.
fn nb_workload(sizes: &[usize]) -> Matrix {
    Matrix::vstack(
        nb_specs(sizes.len())
            .iter()
            .map(|k| marginal(sizes, k))
            .collect(),
    )
}

/// Extracts [`NbHistograms`] from a full-domain estimate.
fn histograms_from_vector(x_hat: &[f64], sizes: &[usize]) -> NbHistograms {
    let specs = nb_specs(sizes.len());
    let label = marginal(sizes, &specs[0]).matvec(x_hat);
    let joint = specs[1..]
        .iter()
        .map(|keep| marginal(sizes, keep).matvec(x_hat))
        .collect();
    NbHistograms { label, joint }
}

/// Ground-truth histograms straight from a table (non-private reference).
pub fn nb_unperturbed(table: &Table) -> NbHistograms {
    let x = ektelo_data::vectorize(table);
    histograms_from_vector(&x, &table.schema().sizes())
}

/// Fig. 3's *Workload* baseline (Cormode): one `Vector Laplace` call on the
/// union of histogram queries, no inference.
pub fn plan_nb_workload(
    kernel: &ProtectedKernel,
    table: SourceVar,
    eps: f64,
) -> Result<NbHistograms> {
    let sizes = kernel.schema(table)?.sizes();
    let x = kernel.vectorize(table)?;
    let w = nb_workload(&sizes);
    let y = kernel.vector_laplace(x, &w, eps)?;
    // Split the stacked answers back into histograms.
    let mut offset = 0;
    let mut take = |len: usize| {
        let v = y[offset..offset + len].to_vec();
        offset += len;
        v
    };
    let label = take(sizes[0]);
    let joint = sizes[1..].iter().map(|&s| take(sizes[0] * s)).collect();
    Ok(NbHistograms { label, joint })
}

/// *WorkloadLS*: the same measurement followed by least squares — the one
/// extra operator that Fig. 3 shows "significantly increases performance".
pub fn plan_nb_workload_ls(
    kernel: &ProtectedKernel,
    table: SourceVar,
    eps: f64,
) -> Result<NbHistograms> {
    let sizes = kernel.schema(table)?.sizes();
    let x = kernel.vectorize(table)?;
    let start = kernel.measurement_count();
    kernel.vector_laplace(x, &nb_workload(&sizes), eps)?;
    let x_hat = infer_ls(kernel, start, LsSolver::Iterative);
    Ok(histograms_from_vector(&x_hat, &sizes))
}

/// Fig. 3's *Identity* baseline: noisy contingency table, marginalized.
pub fn plan_nb_identity(
    kernel: &ProtectedKernel,
    table: SourceVar,
    eps: f64,
) -> Result<NbHistograms> {
    let sizes = kernel.schema(table)?.sizes();
    let x = kernel.vectorize(table)?;
    let n = kernel.vector_len(x)?;
    let x_hat = kernel.vector_laplace(x, &Matrix::identity(n), eps)?;
    Ok(histograms_from_vector(&x_hat, &sizes))
}

/// *SelectLS* (Algorithm 8) applied to the NB histogram task.
pub fn plan_nb_select_ls(
    kernel: &ProtectedKernel,
    table: SourceVar,
    eps: f64,
) -> Result<NbHistograms> {
    let sizes = kernel.schema(table)?.sizes();
    let x = kernel.vectorize(table)?;
    let specs = nb_specs(sizes.len());
    let out = plan_select_ls(kernel, x, &sizes, &specs, eps, &SelectLsOptions::default())?;
    Ok(histograms_from_vector(&out.x_hat, &sizes))
}

// ---------------------------------------------------------------------
// The classifier itself (multinomial model, paper §9.3)
// ---------------------------------------------------------------------

/// A fitted binary Naive-Bayes classifier.
#[derive(Clone, Debug)]
pub struct NaiveBayesModel {
    log_prior: [f64; 2],
    /// Per predictor: `log P(v | y)` at `y * size + v`.
    log_cond: Vec<Vec<f64>>,
    sizes: Vec<usize>,
}

impl NaiveBayesModel {
    /// Fits from (possibly noisy) histograms with Laplace smoothing;
    /// negative counts are clamped to zero first.
    pub fn fit(h: &NbHistograms, predictor_sizes: &[usize]) -> Self {
        const ALPHA: f64 = 1.0;
        let c0 = h.label[0].max(0.0) + ALPHA;
        let c1 = h.label[1].max(0.0) + ALPHA;
        let total = c0 + c1;
        let log_prior = [(c0 / total).ln(), (c1 / total).ln()];
        let log_cond = h
            .joint
            .iter()
            .zip(predictor_sizes)
            .map(|(counts, &size)| {
                let mut out = vec![0.0; 2 * size];
                for y in 0..2 {
                    let denom: f64 = counts[y * size..(y + 1) * size]
                        .iter()
                        .map(|&c| c.max(0.0))
                        .sum::<f64>()
                        + ALPHA * size as f64;
                    for v in 0..size {
                        let c = counts[y * size + v].max(0.0) + ALPHA;
                        out[y * size + v] = (c / denom).ln();
                    }
                }
                out
            })
            .collect();
        NaiveBayesModel {
            log_prior,
            log_cond,
            sizes: predictor_sizes.to_vec(),
        }
    }

    /// The log-odds `log P(y=1 | x) − log P(y=0 | x)`.
    pub fn score(&self, predictors: &[u32]) -> f64 {
        assert_eq!(
            predictors.len(),
            self.sizes.len(),
            "predictor arity mismatch"
        );
        let mut s = self.log_prior[1] - self.log_prior[0];
        for ((lc, &size), &v) in self.log_cond.iter().zip(&self.sizes).zip(predictors) {
            let v = (v as usize).min(size - 1);
            s += lc[size + v] - lc[v];
        }
        s
    }
}

/// Area under the ROC curve from `(score, is_positive)` pairs
/// (Mann–Whitney with average ranks for ties).
pub fn auc(scored: &[(f64, bool)]) -> f64 {
    let pos = scored.iter().filter(|&&(_, y)| y).count();
    let neg = scored.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    let mut sorted: Vec<(f64, bool)> = scored.to_vec();
    // total_cmp: scores come from callers (ratios of noisy counts can be
    // NaN); a total order degrades gracefully instead of panicking.
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Average ranks over tie groups.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j < sorted.len() && sorted[j].0 == sorted[i].0 {
            j += 1;
        }
        let avg_rank = (i + 1 + j) as f64 / 2.0; // mean of ranks i+1..=j
        for item in &sorted[i..j] {
            if item.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j;
    }
    (rank_sum_pos - pos as f64 * (pos as f64 + 1.0) / 2.0) / (pos as f64 * neg as f64)
}

/// Scores a test table with a fitted model, returning `(score, label)`
/// pairs for [`auc`]. The label is attribute 0.
pub fn score_table(model: &NaiveBayesModel, test: &Table) -> Vec<(f64, bool)> {
    let mut out = Vec::with_capacity(test.num_rows());
    for i in 0..test.num_rows() {
        let row = test.row(i);
        out.push((model.score(&row[1..]), row[0] == 1));
    }
    out
}

/// Deterministic k-fold split of row indices.
pub fn fold_indices(rows: usize, folds: usize, seed: u64) -> Vec<Vec<usize>> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut idx: Vec<usize> = (0..rows).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut out = vec![Vec::new(); folds];
    for (i, r) in idx.into_iter().enumerate() {
        out[i % folds].push(r);
    }
    out
}

/// Builds train/test tables for one fold.
pub fn train_test_split(table: &Table, test_rows: &[usize]) -> (Table, Table) {
    let mut train = Table::empty(table.schema().clone());
    let mut test = Table::empty(table.schema().clone());
    let test_set: std::collections::HashSet<usize> = test_rows.iter().copied().collect();
    for i in 0..table.num_rows() {
        let row = table.row(i);
        if test_set.contains(&i) {
            test.push_row(&row);
        } else {
            train.push_row(&row);
        }
    }
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_data::generators::credit_default_sized;

    #[test]
    fn auc_of_perfect_and_random_rankings() {
        let perfect: Vec<(f64, bool)> = (0..100).map(|i| (i as f64, i >= 50)).collect();
        assert_eq!(auc(&perfect), 1.0);
        let inverted: Vec<(f64, bool)> = (0..100).map(|i| (-(i as f64), i >= 50)).collect();
        assert_eq!(auc(&inverted), 0.0);
        let constant: Vec<(f64, bool)> = (0..100).map(|i| (0.0, i % 2 == 0)).collect();
        assert_eq!(auc(&constant), 0.5);
    }

    #[test]
    fn unperturbed_classifier_beats_chance() {
        let data = credit_default_sized(8000, 1);
        let folds = fold_indices(data.num_rows(), 4, 2);
        let (train, test) = train_test_split(&data, &folds[0]);
        let h = nb_unperturbed(&train);
        let sizes = train.schema().sizes();
        let model = NaiveBayesModel::fit(&h, &sizes[1..]);
        let a = auc(&score_table(&model, &test));
        assert!(a > 0.65, "unperturbed AUC {a}");
    }

    #[test]
    fn dp_plans_degrade_gracefully_with_eps() {
        let data = credit_default_sized(8000, 3);
        let folds = fold_indices(data.num_rows(), 4, 4);
        let (train, test) = train_test_split(&data, &folds[0]);
        let sizes = train.schema().sizes();
        let run = |eps: f64, seed: u64| {
            let k = ProtectedKernel::init(train.clone(), eps, seed);
            let h = plan_nb_workload_ls(&k, k.root(), eps).unwrap();
            let model = NaiveBayesModel::fit(&h, &sizes[1..]);
            auc(&score_table(&model, &test))
        };
        let high = (0..3).map(|s| run(1.0, s)).sum::<f64>() / 3.0;
        let low = (0..3).map(|s| run(0.001, s)).sum::<f64>() / 3.0;
        assert!(high > 0.65, "high-eps AUC {high}");
        assert!(
            low < high,
            "low-eps ({low}) must not beat high-eps ({high})"
        );
    }

    #[test]
    fn all_nb_plans_produce_valid_histograms() {
        let data = credit_default_sized(3000, 5);
        let sizes = data.schema().sizes();
        type NbPlan = fn(&ProtectedKernel, SourceVar, f64) -> Result<NbHistograms>;
        let plans: Vec<(&str, NbPlan)> = vec![
            ("workload", plan_nb_workload),
            ("workload_ls", plan_nb_workload_ls),
            ("identity", plan_nb_identity),
            ("select_ls", plan_nb_select_ls),
        ];
        for (name, plan) in plans {
            let k = ProtectedKernel::init(data.clone(), 1.0, 6);
            let h = plan(&k, k.root(), 1.0).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(h.label.len(), 2, "{name}");
            assert_eq!(h.joint.len(), sizes.len() - 1, "{name}");
            for (j, &s) in h.joint.iter().zip(&sizes[1..]) {
                assert_eq!(j.len(), 2 * s, "{name}");
            }
            assert!((k.budget_spent() - 1.0).abs() < 1e-9, "{name} budget");
        }
    }

    #[test]
    fn fig3_ordering_select_ls_beats_identity_and_ls_does_not_hurt() {
        // The Fig. 3 ordering at moderate eps: the new plans (SelectLS,
        // WorkloadLS) outperform the Identity baseline, and adding LS never
        // hurts the plain Workload plan beyond noise.
        let data = credit_default_sized(10_000, 7);
        let folds = fold_indices(data.num_rows(), 4, 8);
        let (train, test) = train_test_split(&data, &folds[0]);
        let sizes = train.schema().sizes();
        let eps = 0.2;
        let reps = 6;
        let mut a_w = 0.0;
        let mut a_wls = 0.0;
        let mut a_sel = 0.0;
        let mut a_id = 0.0;
        for seed in 0..reps {
            let run = |plan: fn(&ProtectedKernel, SourceVar, f64) -> Result<NbHistograms>,
                       s: u64| {
                let k = ProtectedKernel::init(train.clone(), eps, s);
                let h = plan(&k, k.root(), eps).unwrap();
                auc(&score_table(&NaiveBayesModel::fit(&h, &sizes[1..]), &test))
            };
            a_w += run(plan_nb_workload, seed);
            a_wls += run(plan_nb_workload_ls, seed + 40);
            a_sel += run(plan_nb_select_ls, seed + 80);
            a_id += run(plan_nb_identity, seed + 120);
        }
        let r = reps as f64;
        let (a_w, a_wls, a_sel, a_id) = (a_w / r, a_wls / r, a_sel / r, a_id / r);
        assert!(
            a_sel > a_id + 0.04,
            "SelectLS ({a_sel}) should clearly beat Identity ({a_id})"
        );
        assert!(
            a_wls >= a_w - 0.03,
            "WorkloadLS ({a_wls}) should not trail Workload ({a_w}) beyond noise"
        );
    }
}
