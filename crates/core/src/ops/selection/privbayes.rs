//! PrivBayes select (Zhang et al. 2017; paper §5.3, Plan #17).
//! Private→Public.
//!
//! Privately constructs a Bayesian network over the table's attributes by
//! greedily choosing, for each new attribute, a parent set maximizing
//! (private) mutual information via the exponential mechanism. The output
//! is the network structure: a list of cliques whose marginals are the
//! sufficient statistics for fitting the model. Measuring those marginals
//! (with `Vector Laplace`) and fitting is the rest of the PrivBayes plan.
//!
//! Assumption (as in the PrivBayes paper): the table cardinality `N` is
//! public. The mutual-information quality function then has sensitivity
//! `Δ(I) = (1/N)·ln N + ((N−1)/N)·ln(N/(N−1))` (natural-log variant of
//! PrivBayes Lemma 4.1 for non-binary attributes).

use ektelo_data::Table;

use crate::kernel::noise::exponential_mechanism;
use crate::kernel::{EktError, ProtectedKernel, Result, SourceVar};

/// One node of the learned network: `child` with its `parents`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clique {
    /// Attribute index of the child.
    pub child: usize,
    /// Attribute indices of the parents (possibly empty).
    pub parents: Vec<usize>,
}

/// A Bayesian network over the table's attributes.
#[derive(Clone, Debug)]
pub struct BayesNet {
    /// Attribute order in which the network was grown.
    pub order: Vec<usize>,
    /// One clique per attribute (the first has no parents).
    pub cliques: Vec<Clique>,
}

impl BayesNet {
    /// The attribute sets whose marginals must be measured: for each
    /// clique, `{child} ∪ parents`.
    pub fn measured_attribute_sets(&self) -> Vec<Vec<usize>> {
        self.cliques
            .iter()
            .map(|c| {
                let mut s = c.parents.clone();
                s.push(c.child);
                s.sort_unstable();
                s
            })
            .collect()
    }
}

/// Sensitivity of empirical mutual information w.r.t. one record, with
/// public N (PrivBayes Lemma 4.1, natural-log form).
fn mi_sensitivity(n: usize) -> f64 {
    assert!(n >= 2, "mutual information needs at least 2 records");
    let nf = n as f64;
    (1.0 / nf) * nf.ln() + ((nf - 1.0) / nf) * (nf / (nf - 1.0)).ln()
}

/// Privately selects a Bayesian network with at most `max_parents` parents
/// per node, spending `eps` (split evenly over the `d − 1` exponential-
/// mechanism selections).
pub fn privbayes_select(
    kernel: &ProtectedKernel,
    sv: SourceVar,
    max_parents: usize,
    eps: f64,
) -> Result<BayesNet> {
    let schema = kernel.schema(sv)?;
    let d = schema.arity();
    if d < 2 {
        return Err(EktError::InvalidArgument(
            "PrivBayes needs at least two attributes".into(),
        ));
    }
    kernel.charge(sv, eps)?;
    let eps_step = eps / (d as f64 - 1.0);
    kernel.with_table(sv, move |table, rng| {
        let n = table.num_rows().max(2);
        let sens = mi_sensitivity(n);

        // First attribute: highest (public-domain-agnostic) choice — we
        // follow PrivBayes in picking it uniformly at random.
        let first = {
            let scores = vec![0.0; d];
            exponential_mechanism(rng, &scores, 1.0, eps_step.max(f64::MIN_POSITIVE))
        };
        let mut order = vec![first];
        let mut cliques = vec![Clique {
            child: first,
            parents: Vec::new(),
        }];

        while order.len() < d {
            // Candidates: (remaining attr X, parent set Π ⊆ order, |Π| ≤ k).
            let mut candidates: Vec<Clique> = Vec::new();
            for x in 0..d {
                if order.contains(&x) {
                    continue;
                }
                for parents in subsets_up_to(&order, max_parents) {
                    candidates.push(Clique { child: x, parents });
                }
            }
            let scores: Vec<f64> = candidates
                .iter()
                .map(|c| mutual_information(table, c.child, &c.parents))
                .collect();
            let idx = exponential_mechanism(rng, &scores, sens, eps_step);
            let chosen = candidates.swap_remove(idx);
            order.push(chosen.child);
            cliques.push(chosen);
        }
        BayesNet { order, cliques }
    })
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
    let schema = table.schema();
    let names: Vec<&str> = schema.attributes().iter().map(|a| a.name()).collect();
    let child_col = table.column(names[child]);
    let parent_cols: Vec<&[u32]> = parents.iter().map(|&p| table.column(names[p])).collect();
    let parent_sizes: Vec<usize> = parents
        .iter()
        .map(|&p| schema.attributes()[p].size())
        .collect();
    let child_size = schema.attributes()[child].size();

    // Joint histogram over (Π, X).
    let parent_domain: usize = parent_sizes.iter().product();
    let mut joint = vec![0.0f64; parent_domain * child_size];
    for i in 0..n {
        let mut pidx = 0usize;
        for (col, &size) in parent_cols.iter().zip(&parent_sizes) {
            pidx = pidx * size + col[i] as usize;
        }
        joint[pidx * child_size + child_col[i] as usize] += 1.0;
    }
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

/// All subsets of `set` of size 1..=k (and the empty set).
fn subsets_up_to(set: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    let d = set.len();
    for mask in 1u32..(1 << d) {
        if (mask.count_ones() as usize) <= k {
            out.push(
                (0..d)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| set[i])
                    .collect(),
            );
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

    #[test]
    fn select_finds_the_correlated_edge_at_high_eps() {
        let mut found = 0;
        for seed in 0..10 {
            let t = correlated_table(5000, seed);
            let k = ProtectedKernel::init(t, 100.0, seed);
            let net = privbayes_select(&k, k.root(), 2, 50.0).unwrap();
            // Somewhere in the network, a and b must be linked.
            let linked = net.cliques.iter().any(|c| {
                (c.child == 0 && c.parents.contains(&1)) || (c.child == 1 && c.parents.contains(&0))
            });
            if linked {
                found += 1;
            }
        }
        assert!(found >= 8, "a–b edge found only {found}/10 times");
    }

    #[test]
    fn network_covers_every_attribute_once() {
        let t = correlated_table(500, 3);
        let k = ProtectedKernel::init(t, 10.0, 3);
        let net = privbayes_select(&k, k.root(), 1, 1.0).unwrap();
        let mut children: Vec<usize> = net.cliques.iter().map(|c| c.child).collect();
        children.sort_unstable();
        assert_eq!(children, vec![0, 1, 2]);
        // Parents precede children in the order.
        for c in &net.cliques {
            for p in &c.parents {
                let pi = net.order.iter().position(|&o| o == *p).unwrap();
                let ci = net.order.iter().position(|&o| o == c.child).unwrap();
                assert!(pi < ci);
            }
        }
    }

    #[test]
    fn budget_is_charged_once() {
        let t = correlated_table(500, 4);
        let k = ProtectedKernel::init(t, 1.0, 4);
        privbayes_select(&k, k.root(), 1, 0.4).unwrap();
        assert!((k.budget_spent() - 0.4).abs() < 1e-12);
    }
}
