//! SelectLS (Algorithm 8): per-histogram algorithm selection with global
//! least-squares inference (§9.3).
//!
//! For each requested marginal the plan reduces the domain, then picks a
//! subplan by (public) domain size: small marginals are measured directly
//! with Identity; large ones first run DAWA's partition selection and
//! measure the buckets with Greedy-H. All measurements from all branches
//! feed one joint least-squares at the end — the "use inference
//! consistently" guidance of §5.5. The branches are chosen from the
//! public marginal sizes, so the whole plan is one [`PlanSpec`],
//! pre-accounted before any marginal is measured.

use ektelo_core::kernel::{EktError, ProtectedKernel, SourceVar};
use ektelo_core::ops::graph::{PlanBuilder, PlanSpec};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::partition::{marginal_partition, DawaOptions};

use crate::util::{run_spec, split_budget, PlanResult};

/// Domain-size threshold between the Identity and DAWA branches (80 in
/// Algorithm 8).
const SMALL_DOMAIN: usize = 80;

/// DAWA's stage-1 budget share (Plan #9 and SelectLS's large-domain
/// branch): 0.25, the DAWA paper's value (Li et al. 2014).
pub(crate) const DAWA_RHO: f64 = 0.25;

/// The SelectLS spec: per marginal, `TM` to the marginal, then `SI LM`
/// or `PD TR SG LM`; one `LS` over every branch's measurements.
fn select_ls_spec(sizes: &[usize], specs: &[Vec<bool>], eps: f64) -> PlanSpec {
    let per_spec = eps / specs.len() as f64;
    let mut b = PlanBuilder::new();
    let x = b.input();
    for keep in specs {
        // The marginal reduction is 1-stable: `transform_linear` gives it
        // the stability `reduce_by_partition` does.
        let reduced = b.transform_linear(x, marginal_partition(sizes, keep));
        let m: usize = sizes
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(&n, _)| n)
            .product();
        if m > SMALL_DOMAIN {
            // DAWA branch: partition the marginal, measure buckets.
            let shares = split_budget(per_spec, &[DAWA_RHO, 1.0 - DAWA_RHO]);
            let reduced = reduced.as_list();
            let parts = b.partition_dawa_each(reduced, shares[0], DawaOptions::new(shares[1]));
            let buckets = b.transform_reduce_each(reduced, parts);
            let s = b.select_greedy_h_each(buckets, parts, &[]);
            b.measure_laplace_batch_each(buckets, s, shares[1]);
        } else {
            let s = b.select_identity(reduced);
            b.measure_laplace(reduced, s, per_spec);
        }
    }
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

/// Runs Algorithm 8 over the marginal masks in `specs` (one bool per
/// attribute; `true` = kept). Each spec gets an `eps / specs.len()` share
/// (sequential composition across overlapping marginals). Returns the
/// estimate over the full domain.
///
/// No spec, or a mask whose length is not the number of attributes in
/// `sizes`, is `InvalidArgument` before anything is charged.
pub fn plan_select_ls(
    kernel: &ProtectedKernel,
    x: SourceVar,
    sizes: &[usize],
    specs: &[Vec<bool>],
    eps: f64,
) -> PlanResult {
    if specs.is_empty() {
        return Err(EktError::InvalidArgument(
            "SelectLS needs at least one marginal spec".into(),
        ));
    }
    if let Some(keep) = specs.iter().find(|keep| keep.len() != sizes.len()) {
        return Err(EktError::InvalidArgument(format!(
            "a SelectLS marginal mask has {} entries for {} attributes",
            keep.len(),
            sizes.len()
        )));
    }
    run_spec(kernel, x, &select_ls_spec(sizes, specs, eps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::infer_ls;
    use crate::util::tests::assert_twins;
    use ektelo_core::kernel::ProtectedKernel;
    use ektelo_core::ops::partition::dawa_partition;
    use ektelo_core::ops::selection::greedy_h;
    use ektelo_data::{Schema, Table};
    use ektelo_matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn setup(rows: usize, seed: u64) -> (ProtectedKernel, SourceVar, Vec<f64>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_sizes(&[("y", 2), ("a", 6), ("b", 200)]);
        let mut t = Table::empty(schema);
        for _ in 0..rows {
            let y = rng.random_range(0..2u32);
            let a = rng.random_range(0..6u32);
            let b = (rng.random_range(0..100u32) + y * 50).min(199);
            t.push_row(&[y, a, b]);
        }
        let truth = ektelo_data::vectorize(&t);
        let k = ProtectedKernel::init(t, 10.0, seed);
        let x = k.vectorize(k.root()).unwrap();
        (k, x, truth, vec![2, 6, 200])
    }

    /// Reference: Algorithm 8 as it drove the kernel by hand before it
    /// became a spec.
    fn select_ls_by_hand(
        kernel: &ProtectedKernel,
        x: SourceVar,
        sizes: &[usize],
        specs: &[Vec<bool>],
        eps: f64,
    ) -> Vec<f64> {
        let per_spec = eps / specs.len() as f64;
        let start = kernel.measurement_count();
        for keep in specs {
            let p = marginal_partition(sizes, keep);
            let reduced = kernel.reduce_by_partition(x, &p).unwrap();
            let m = kernel.vector_len(reduced).unwrap();
            if m > SMALL_DOMAIN {
                let shares = split_budget(per_spec, &[DAWA_RHO, 1.0 - DAWA_RHO]);
                let opts = DawaOptions::new(shares[1]);
                let bucket_p = dawa_partition(kernel, reduced, shares[0], &opts).unwrap();
                let buckets = kernel.reduce_by_partition(reduced, &bucket_p).unwrap();
                let groups = kernel.vector_len(buckets).unwrap();
                kernel
                    .vector_laplace(buckets, &greedy_h(groups, &[]), shares[1])
                    .unwrap();
            } else {
                kernel
                    .vector_laplace(reduced, &Matrix::identity(m), per_spec)
                    .unwrap();
            }
        }
        infer_ls(kernel, start, LsSolver::Iterative)
    }

    /// The spec runs as the hand-driven plan did: on twin kernels, the
    /// same estimate bits, budget and stream position.
    #[test]
    fn spec_matches_the_hand_driven_plan() {
        let sizes = [2, 6, 200];
        let specs = vec![
            vec![true, true, false],
            vec![true, false, true],
            vec![false, false, true],
        ];
        assert_eq!(
            select_ls_spec(&sizes, &specs, 1.0).signature(),
            "TM SI LM TM PD TR SG LM TM PD TR SG LM LS"
        );
        for (seed, eps) in [(1, 1.0), (2, 0.1)] {
            assert_twins(
                || {
                    let (k, x, _, _) = setup(3000, seed);
                    (k, x)
                },
                |k, x| plan_select_ls(k, x, &sizes, &specs, eps),
                |k, x| select_ls_by_hand(k, x, &sizes, &specs, eps),
            );
        }
    }

    /// Malformed specs are refused before the spec is built: no spec, a
    /// mask shorter than the attributes and one longer charge nothing
    /// and record nothing.
    #[test]
    fn malformed_specs_are_rejected_before_any_charge() {
        let (k, x, _, sizes) = setup(100, 3);
        let malformed = [
            vec![],
            vec![vec![true, false]],
            vec![vec![true, true, false], vec![true, false, true, false]],
        ];
        for specs in &malformed {
            let out = plan_select_ls(&k, x, &sizes, specs, 1.0);
            assert!(
                matches!(out, Err(EktError::InvalidArgument(_))),
                "{specs:?}"
            );
        }
        assert_eq!(k.budget_spent(), 0.0);
        assert_eq!(k.measurement_count(), 0);
    }

    #[test]
    fn mixes_identity_and_dawa_branches() {
        let (k, x, _, sizes) = setup(5000, 1);
        // (y,a) = 12 cells → identity; (y,b) = 400 cells → DAWA branch.
        let specs = vec![vec![true, true, false], vec![true, false, true]];
        let out = plan_select_ls(&k, x, &sizes, &specs, 1.0).unwrap();
        assert_eq!(out.x_hat.len(), 2 * 6 * 200);
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
        // The DAWA branch produces ≥ 2 measurements (buckets), identity 1.
        assert!(k.measurements().len() >= 2);
    }

    #[test]
    fn marginal_estimates_are_consistent_with_truth_at_high_eps() {
        let (k, x, truth, sizes) = setup(20_000, 2);
        let specs = vec![vec![true, true, false], vec![true, false, true]];
        let out = plan_select_ls(&k, x, &sizes, &specs, 8.0).unwrap();
        let w = ektelo_data::workloads::marginal(&sizes, &[true, true, false]);
        let e: f64 = w
            .matvec(&truth)
            .iter()
            .zip(&w.matvec(&out.x_hat))
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 12.0;
        assert!(e < 100.0, "mean marginal error {e}");
    }
}
