//! PrivBayes (baseline of Table 5) and PrivBayesLS (Fig. 2, Plan #17;
//! Algorithm 7).
//!
//! Both plans share the first two steps — private structure learning
//! ([`ektelo_core::ops::selection::privbayes_select`]) and Laplace
//! measurement of the clique marginals. They differ only in inference:
//! original PrivBayes fits conditional distributions and multiplies them
//! out (a maximum-likelihood model estimate), while PrivBayesLS runs the
//! generic least-squares operator over the same measurements — the paper's
//! §10.1.2 shows this simple swap improves two of three census workloads.

use ektelo_core::kernel::{ProtectedKernel, Result, SourceVar};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::selection::{privbayes_select, BayesNet, Clique};
use ektelo_data::workloads::marginal;
use ektelo_matrix::Matrix;

use crate::util::{infer_ls, split_budget, PlanOutcome, PlanResult};

/// Maximum parents per node: the network's degree bound, PrivBayes's `k`.
const MAX_PARENTS: usize = 2;

/// Budget share for structure selection. The PrivBayes paper uses 0.3–0.5;
/// 0.3 leaves most of the budget to measurement.
const SELECT_SHARE: f64 = 0.3;

/// The shared front half: select the network, vectorize, and measure the
/// clique marginals. Returns the net, the vector source, and the history
/// start index.
fn select_and_measure(
    kernel: &ProtectedKernel,
    table: SourceVar,
    eps: f64,
) -> Result<(BayesNet, SourceVar, usize, Vec<usize>)> {
    let schema = kernel.schema(table)?;
    let sizes = schema.sizes();
    let shares = split_budget(eps, &[SELECT_SHARE, 1.0 - SELECT_SHARE]);
    let net = privbayes_select(kernel, table, MAX_PARENTS, shares[0])?;
    let x = kernel.vectorize(table)?;
    let start = kernel.measurement_count();
    let blocks: Vec<Matrix> = net
        .measured_attribute_sets()
        .iter()
        .map(|set| {
            let keep: Vec<bool> = (0..sizes.len()).map(|i| set.contains(&i)).collect();
            marginal(&sizes, &keep)
        })
        .collect();
    // One union measurement: sensitivity = number of cliques (every record
    // appears once per clique marginal) — auto-calibrated by the kernel.
    kernel.vector_laplace(x, &Matrix::vstack(blocks), shares[1])?;
    Ok((net, x, start, sizes))
}

/// Original PrivBayes (Zhang et al. 2017): model-based inference.
/// Returns the estimated full-domain vector.
pub fn plan_privbayes(kernel: &ProtectedKernel, table: SourceVar, eps: f64) -> PlanResult {
    let (net, _x, start, sizes) = select_and_measure(kernel, table, eps)?;
    let measurements = kernel.measurements_since(start);
    // Split the single union answer back into per-clique marginals.
    let answers = &measurements[0].answers;
    let sets = net.measured_attribute_sets();
    let mut offset = 0usize;
    let mut clique_marginals = Vec::with_capacity(sets.len());
    for set in &sets {
        let len: usize = set.iter().map(|&a| sizes[a]).product();
        clique_marginals.push(answers[offset..offset + len].to_vec());
        offset += len;
    }
    let x_hat = bn_joint_estimate(&net, &sizes, &sets, &clique_marginals);
    Ok(PlanOutcome { x_hat })
}

/// Plan #17 — PrivBayesLS (Algorithm 7): same measurements, generic
/// least-squares inference.
pub fn plan_privbayes_ls(kernel: &ProtectedKernel, table: SourceVar, eps: f64) -> PlanResult {
    let (_net, _x, start, _sizes) = select_and_measure(kernel, table, eps)?;
    Ok(PlanOutcome {
        x_hat: infer_ls(kernel, start, LsSolver::Iterative),
    })
}

/// Fits the Bayesian-network model from noisy clique marginals and
/// materializes the implied joint estimate over the full domain.
fn bn_joint_estimate(
    net: &BayesNet,
    sizes: &[usize],
    sets: &[Vec<usize>],
    marginals: &[Vec<f64>],
) -> Vec<f64> {
    let d = sizes.len();
    let n_total: f64 = marginals[0]
        .iter()
        .map(|&v| v.max(0.0))
        .sum::<f64>()
        .max(1.0);

    // Each clique's log CPD, over its joint assignments: computed once,
    // so each cell below is one lookup per clique.
    let log_cpds: Vec<Vec<f64>> = net
        .cliques
        .iter()
        .zip(sets)
        .zip(marginals)
        .map(|((clique, set), m)| log_cpd(clique, set, sizes, m))
        .collect();

    let n: usize = sizes.iter().product();
    let mut x_hat = vec![0.0; n];
    let mut coords = vec![0usize; d];
    for (cell, out) in x_hat.iter_mut().enumerate() {
        // Decode mixed-radix coordinates.
        let mut rest = cell;
        for i in (0..d).rev() {
            coords[i] = rest % sizes[i];
            rest /= sizes[i];
        }
        let mut log_p = 0.0;
        for (set, table) in sets.iter().zip(&log_cpds) {
            // Index of the full-clique assignment.
            let mut joint_idx = 0usize;
            for &a in set {
                joint_idx = joint_idx * sizes[a] + coords[a];
            }
            log_p += table[joint_idx];
        }
        *out = n_total * log_p.exp();
    }
    // Renormalize to the estimated total (noise makes the product drift).
    let s: f64 = x_hat.iter().sum();
    if s > 0.0 {
        let scale = n_total / s;
        for v in x_hat.iter_mut() {
            *v *= scale;
        }
    }
    x_hat
}

/// `ln P(child = v | parents = u)` of one clique at each of its joint
/// assignments, Laplace-smoothed, from its noisy marginal `m` (mixed radix
/// over the sorted attribute set `set`). A parentless clique divides by
/// the whole marginal's sum; otherwise each parent assignment's sum adds
/// the child's values in order.
fn log_cpd(clique: &Clique, set: &[usize], sizes: &[usize], m: &[f64]) -> Vec<f64> {
    let smoothed: Vec<f64> = m.iter().map(|&v| v.max(0.0) + 1e-3).collect();
    let ln_ratio =
        |joint: f64, parent_sum: f64| (joint / parent_sum.max(f64::MIN_POSITIVE)).max(1e-12).ln();
    if clique.parents.is_empty() {
        let total: f64 = smoothed.iter().sum();
        return smoothed.iter().map(|&v| ln_ratio(v, total)).collect();
    }
    let child_pos = set.partition_point(|&a| a < clique.child);
    let stride: usize = set.iter().skip(child_pos + 1).map(|&a| sizes[a]).product();
    let arity = sizes[clique.child];
    let mut out = vec![0.0; smoothed.len()];
    // A parent assignment's entries sit `stride` apart, from the one whose
    // child value is 0.
    for first in (0..smoothed.len()).filter(|&j| (j / stride).is_multiple_of(arity)) {
        let entries = || (0..arity).map(|v| first + v * stride);
        let mut parent_sum = 0.0;
        for j in entries() {
            parent_sum += smoothed[j];
        }
        for j in entries() {
            out[j] = ln_ratio(smoothed[j], parent_sum);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_data::{Schema, Table};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn correlated_table(rows: usize, seed: u64) -> (Table, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_sizes(&[("a", 4), ("b", 4), ("c", 3)]);
        let mut t = Table::empty(schema);
        for _ in 0..rows {
            let a = rng.random_range(0..4u32);
            let b = if rng.random_bool(0.8) {
                a
            } else {
                rng.random_range(0..4u32)
            };
            let c = rng.random_range(0..3u32);
            t.push_row(&[a, b, c]);
        }
        let x = ektelo_data::vectorize(&t);
        (t, x)
    }

    /// The per-cell model estimate `bn_joint_estimate` replaced: it finds
    /// each clique's table by a scan and re-sums the parents' slice at
    /// every cell.
    fn bn_joint_estimate_by_cell(
        net: &BayesNet,
        sizes: &[usize],
        sets: &[Vec<usize>],
        marginals: &[Vec<f64>],
    ) -> Vec<f64> {
        let d = sizes.len();
        let n_total: f64 = marginals[0]
            .iter()
            .map(|&v| v.max(0.0))
            .sum::<f64>()
            .max(1.0);
        let smoothed: Vec<Vec<f64>> = marginals
            .iter()
            .map(|m| m.iter().map(|&v| v.max(0.0) + 1e-3).collect())
            .collect();
        let n: usize = sizes.iter().product();
        let mut x_hat = vec![0.0; n];
        let mut coords = vec![0usize; d];
        for (cell, out) in x_hat.iter_mut().enumerate() {
            let mut rest = cell;
            for i in (0..d).rev() {
                coords[i] = rest % sizes[i];
                rest /= sizes[i];
            }
            let mut log_p = 0.0;
            for (clique, set) in net.cliques.iter().zip(sets) {
                let m = &smoothed[net
                    .cliques
                    .iter()
                    .position(|c| c.child == clique.child)
                    .unwrap()];
                let mut joint_idx = 0usize;
                for &a in set {
                    joint_idx = joint_idx * sizes[a] + coords[a];
                }
                let joint = m[joint_idx];
                let parent_sum: f64 = if clique.parents.is_empty() {
                    m.iter().sum()
                } else {
                    sum_over_child(m, set, clique.child, sizes, &coords)
                };
                log_p += (joint / parent_sum.max(f64::MIN_POSITIVE)).max(1e-12).ln();
            }
            *out = n_total * log_p.exp();
        }
        let s: f64 = x_hat.iter().sum();
        if s > 0.0 {
            let scale = n_total / s;
            for v in x_hat.iter_mut() {
                *v *= scale;
            }
        }
        x_hat
    }

    /// Sums a clique marginal over the child's values, holding the
    /// parents at the assignment in `coords`.
    fn sum_over_child(
        m: &[f64],
        set: &[usize],
        child: usize,
        sizes: &[usize],
        coords: &[usize],
    ) -> f64 {
        let child_pos = set.iter().position(|&a| a == child).unwrap();
        let mut total = 0.0;
        for v in 0..sizes[child] {
            let mut idx = 0usize;
            for (pos, &a) in set.iter().enumerate() {
                let c = if pos == child_pos { v } else { coords[a] };
                idx = idx * sizes[a] + c;
            }
            total += m[idx];
        }
        total
    }

    /// The model estimate equals the per-cell oracle bit for bit on small
    /// random networks: random attribute orders, up to two parents each,
    /// and noisy marginals with negative entries.
    #[test]
    fn joint_estimate_matches_the_per_cell_oracle() {
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..40 {
            let d = rng.random_range(1..5usize);
            let sizes: Vec<usize> = (0..d).map(|_| rng.random_range(1..6usize)).collect();
            let mut order: Vec<usize> = (0..d).collect();
            for i in (1..d).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let cliques = order
                .iter()
                .enumerate()
                .map(|(i, &child)| {
                    let mut earlier = order[..i].to_vec();
                    let keep = rng.random_range(0..=earlier.len().min(2));
                    for j in 0..keep {
                        let pick = rng.random_range(j..earlier.len());
                        earlier.swap(j, pick);
                    }
                    earlier.truncate(keep);
                    Clique {
                        child,
                        parents: earlier,
                    }
                })
                .collect();
            let net = BayesNet { order, cliques };
            let sets = net.measured_attribute_sets();
            let marginals: Vec<Vec<f64>> = sets
                .iter()
                .map(|set| {
                    let len: usize = set.iter().map(|&a| sizes[a]).product();
                    (0..len).map(|_| rng.random_range(-20.0..200.0)).collect()
                })
                .collect();
            let fast = bn_joint_estimate(&net, &sizes, &sets, &marginals);
            let oracle = bn_joint_estimate_by_cell(&net, &sizes, &sets, &marginals);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&oracle), "sizes {sizes:?}, net {net:?}");
        }
    }

    fn rmse(a: &[f64], b: &[f64]) -> f64 {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    }

    #[test]
    fn privbayes_estimates_have_right_total_and_domain() {
        let (t, x_true) = correlated_table(5000, 1);
        let k = ProtectedKernel::init(t, 2.0, 1);
        let out = plan_privbayes(&k, k.root(), 2.0).unwrap();
        assert_eq!(out.x_hat.len(), x_true.len());
        let total: f64 = out.x_hat.iter().sum();
        assert!((total - 5000.0).abs() / 5000.0 < 0.2, "total {total}");
        assert!(out.x_hat.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn privbayes_ls_runs_and_spends_eps() {
        let (t, _) = correlated_table(2000, 2);
        let k = ProtectedKernel::init(t, 1.0, 2);
        plan_privbayes_ls(&k, k.root(), 1.0).unwrap();
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn model_captures_the_correlation() {
        // P(a=b) is ~0.85 in the data; the PrivBayes estimate should put
        // clearly more mass on the diagonal than independence would (~0.25).
        let (t, _) = correlated_table(20_000, 3);
        let k = ProtectedKernel::init(t, 5.0, 3);
        let out = plan_privbayes(&k, k.root(), 5.0).unwrap();
        let total: f64 = out.x_hat.iter().sum();
        let mut diag = 0.0;
        // cell = (a*4 + b)*3 + c
        for a in 0..4usize {
            for c in 0..3usize {
                diag += out.x_hat[(a * 4 + a) * 3 + c];
            }
        }
        assert!(diag / total > 0.5, "diagonal mass {}", diag / total);
    }

    #[test]
    fn ls_variant_is_consistent_with_truth_at_high_eps() {
        let (t, x_true) = correlated_table(20_000, 4);
        let k = ProtectedKernel::init(t, 50.0, 4);
        let out = plan_privbayes_ls(&k, k.root(), 50.0).unwrap();
        // Marginal errors should be small even though the joint is
        // underdetermined: check the (a,b) marginal.
        let w = marginal(&[4, 4, 3], &[true, true, false]);
        let e = rmse(&w.matvec(&x_true), &w.matvec(&out.x_hat));
        assert!(e < 30.0, "marginal rmse {e}");
    }
}
