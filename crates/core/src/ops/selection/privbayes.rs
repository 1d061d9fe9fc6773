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
//! The mutual-information scores and their sensitivity run inside the
//! kernel crate ([`Picker::pick_mutual_information`], which takes the
//! table cardinality as public, as the PrivBayes paper does); this module
//! enumerates the candidates and grows the network from the picks.

use std::sync::Arc;

use ektelo_data::Table;

use crate::kernel::{EktError, Picker, ProtectedKernel, Result, SourceVar};

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

/// Privately selects a Bayesian network with at most `max_parents` parents
/// per node, spending `eps` (split evenly over the `d − 1` exponential-
/// mechanism selections), through the kernel's exponential-mechanism
/// selection: the network grows outside the kernel lock.
pub fn privbayes_select(
    kernel: &ProtectedKernel,
    sv: SourceVar,
    max_parents: usize,
    eps: f64,
) -> Result<BayesNet> {
    let d = kernel.schema(sv)?.arity();
    if d < 2 {
        return Err(EktError::InvalidArgument(
            "PrivBayes needs at least two attributes".into(),
        ));
    }
    kernel.exponential_selection(
        sv,
        eps,
        d - 1,
        None,
        |picker: &mut Picker<'_, Arc<Table>>| grow(picker, d, max_parents),
    )?
}

/// Grows a network over `d` attributes from `picker`'s picks: the first
/// attribute uniformly (PrivBayes's choice; it spends nothing), then
/// `d − 1` children with their parents by mutual information.
fn grow(picker: &mut Picker<'_, Arc<Table>>, d: usize, max_parents: usize) -> Result<BayesNet> {
    let first = picker.pick_uniform(d);
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
        let idx = picker
            .pick_mutual_information(candidates.iter().map(|c| (c.child, c.parents.as_slice())))?;
        let chosen = candidates.swap_remove(idx);
        order.push(chosen.child);
        cliques.push(chosen);
    }
    Ok(BayesNet { order, cliques })
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
