//! Data-dependent 1-D plans: AHP (Plan #8) and DAWA (Plan #9).
//!
//! Both follow the same signature — *Partition selection → Reduce → Query
//! selection → LM → LS* — and differ only in the two selection operators,
//! which is exactly the transparency point the paper makes about them
//! (§6.3). Each is a [`PlanSpec`] whose partition selection, reduce,
//! selection and measurement run element-wise over the input as a list
//! of one, so the executor pre-accounts both stages before either runs.

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_core::ops::graph::{PlanBuilder, PlanSpec};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::partition::DawaOptions;
use ektelo_matrix::Matrix;

use crate::select_ls::DAWA_RHO;
use crate::util::{run_spec, split_budget, workload_ranges, PlanResult};

/// AHP's partition-selection budget share: 0.5, the AHP paper's value
/// (Zhang et al. 2014).
const AHP_RHO: f64 = 0.5;

/// The AHP spec: `PA TR SI LM LS`.
fn ahp_spec(eps: f64) -> PlanSpec {
    let shares = split_budget(eps, &[AHP_RHO, 1.0 - AHP_RHO]);
    let mut b = PlanBuilder::new();
    let x = b.input().as_list();
    let parts = b.partition_ahp_each(x, shares[0]);
    let reduced = b.transform_reduce_each(x, parts);
    let s = b.select_identity_shared(reduced);
    b.measure_laplace_batch_shared(reduced, s, shares[1]);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

/// Plan #8 — AHP (Zhang et al. 2014): `PA TR SI LM LS`. Half the budget
/// selects the partition, half measures its groups.
pub fn plan_ahp(kernel: &ProtectedKernel, x: SourceVar, eps: f64) -> PlanResult {
    run_spec(kernel, x, &ahp_spec(eps))
}

/// The DAWA spec: `PD TR SG LM LS`.
fn dawa_spec(workload: &Matrix, eps: f64) -> PlanSpec {
    let shares = split_budget(eps, &[DAWA_RHO, 1.0 - DAWA_RHO]);
    let ranges = workload_ranges(workload).unwrap_or_default();
    let mut b = PlanBuilder::new();
    let x = b.input().as_list();
    let parts = b.partition_dawa_each(x, shares[0], DawaOptions::new(shares[1]));
    let reduced = b.transform_reduce_each(x, parts);
    let s = b.select_greedy_h_each(reduced, parts, &ranges);
    b.measure_laplace_batch_each(reduced, s, shares[1]);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

/// Plan #9 — DAWA (Li et al. 2014): `PD TR SG LM LS`. A quarter of the
/// budget selects the partition (the DAWA paper's share). The workload
/// (range queries) steers both the partition penalty and the Greedy-H
/// weights on the reduced domain, its ranges mapped onto the buckets.
pub fn plan_dawa(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
) -> PlanResult {
    run_spec(kernel, x, &dawa_spec(workload, eps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::plan_identity;
    use crate::util::tests::assert_twins;
    use crate::util::{infer_ls, kernel_for_histogram};
    use ektelo_core::ops::partition::{
        ahp_partition, dawa_partition, interval_partition_bounds, map_ranges_to_buckets,
    };
    use ektelo_core::ops::selection;
    use ektelo_data::generators::{shape_1d, Shape1D};
    use ektelo_data::workloads::random_range;

    /// Reference: Plan #8 as it drove the kernel by hand before it became
    /// a spec.
    fn ahp_by_hand(kernel: &ProtectedKernel, x: SourceVar, eps: f64) -> Vec<f64> {
        let shares = split_budget(eps, &[AHP_RHO, 1.0 - AHP_RHO]);
        let start = kernel.measurement_count();
        let p = ahp_partition(kernel, x, shares[0]).unwrap();
        let reduced = kernel.reduce_by_partition(x, &p).unwrap();
        let groups = kernel.vector_len(reduced).unwrap();
        kernel
            .vector_laplace(reduced, &selection::identity(groups), shares[1])
            .unwrap();
        infer_ls(kernel, start, LsSolver::Iterative)
    }

    /// Reference: Plan #9 as it drove the kernel by hand before it became
    /// a spec.
    fn dawa_by_hand(
        kernel: &ProtectedKernel,
        x: SourceVar,
        workload: &Matrix,
        eps: f64,
    ) -> Vec<f64> {
        let shares = split_budget(eps, &[DAWA_RHO, 1.0 - DAWA_RHO]);
        let start = kernel.measurement_count();
        let p = dawa_partition(kernel, x, shares[0], &DawaOptions::new(shares[1])).unwrap();
        let reduced = kernel.reduce_by_partition(x, &p).unwrap();
        let groups = kernel.vector_len(reduced).unwrap();
        let bounds = interval_partition_bounds(&p);
        let bucket_ranges = workload_ranges(workload)
            .map(|r| map_ranges_to_buckets(&r, &bounds))
            .unwrap_or_default();
        let strategy = selection::greedy_h(groups, &bucket_ranges);
        kernel
            .vector_laplace(reduced, &strategy, shares[1])
            .unwrap();
        infer_ls(kernel, start, LsSolver::Iterative)
    }

    /// The specs render the Fig. 2 signatures.
    #[test]
    fn specs_render_their_signatures() {
        assert_eq!(ahp_spec(1.0).signature(), "PA TR SI LM LS");
        assert_eq!(
            dawa_spec(&random_range(64, 8, 1), 1.0).signature(),
            "PD TR SG LM LS"
        );
    }

    /// The specs run as the hand-driven plans did: on twin kernels, the
    /// same estimate bits, budget and stream position.
    #[test]
    fn specs_match_the_hand_driven_plans() {
        let x = shape_1d(Shape1D::DenseRegion, 128, 20_000.0, 3);
        let w = random_range(128, 32, 2);
        for (seed, eps) in [(1, 1.0), (2, 0.05), (3, 0.3)] {
            let make = || kernel_for_histogram(&x, 2.0, seed);
            assert_twins(
                make,
                |k, x| plan_ahp(k, x, eps),
                |k, x| ahp_by_hand(k, x, eps),
            );
            assert_twins(
                make,
                |k, x| plan_dawa(k, x, &w, eps),
                |k, x| dawa_by_hand(k, x, &w, eps),
            );
        }
    }

    fn rmse(a: &[f64], b: &[f64]) -> f64 {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    }

    #[test]
    fn ahp_spends_exactly_eps_and_estimates() {
        let x = shape_1d(Shape1D::Step, 128, 20_000.0, 4);
        let (k, root) = kernel_for_histogram(&x, 1.0, 9);
        let out = plan_ahp(&k, root, 1.0).unwrap();
        assert_eq!(out.x_hat.len(), 128);
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dawa_spends_exactly_eps_and_estimates() {
        let x = shape_1d(Shape1D::Step, 128, 20_000.0, 4);
        let w = random_range(128, 64, 5);
        let (k, root) = kernel_for_histogram(&x, 1.0, 9);
        let out = plan_dawa(&k, root, &w, 1.0).unwrap();
        assert_eq!(out.x_hat.len(), 128);
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn data_dependent_plans_beat_identity_on_sparse_data() {
        // Mostly-empty data at low eps is where partition-based plans shine
        // (DPBench's core finding, which Table 4-style experiments rely
        // on): AHP's thresholding collapses the empty region into one
        // group, DAWA's segmentation merges it into a handful of buckets.
        // Averaged over seeds to damp randomness.
        let x = shape_1d(Shape1D::DenseRegion, 512, 1_000_000.0, 6);
        let eps = 0.01;
        let trials = 6;
        let mut err_id = 0.0;
        let mut err_ahp = 0.0;
        let mut err_dawa = 0.0;
        let w = random_range(512, 128, 3);
        for seed in 0..trials {
            let (k, root) = kernel_for_histogram(&x, eps, seed);
            err_id += rmse(&x, &plan_identity(&k, root, eps).unwrap().x_hat);
            let (k, root) = kernel_for_histogram(&x, eps, seed + 100);
            err_ahp += rmse(&x, &plan_ahp(&k, root, eps).unwrap().x_hat);
            let (k, root) = kernel_for_histogram(&x, eps, seed + 200);
            err_dawa += rmse(&x, &plan_dawa(&k, root, &w, eps).unwrap().x_hat);
        }
        assert!(
            err_ahp < 0.7 * err_id,
            "AHP ({err_ahp}) should clearly beat identity ({err_id}) on sparse data at low eps"
        );
        assert!(
            err_dawa < 0.9 * err_id,
            "DAWA ({err_dawa}) should beat identity ({err_id}) on sparse data at low eps"
        );
    }

    #[test]
    fn reduced_measurements_map_back_to_base_domain() {
        let x = shape_1d(Shape1D::DenseRegion, 64, 5_000.0, 1);
        let (k, root) = kernel_for_histogram(&x, 1.0, 2);
        plan_dawa(&k, root, &random_range(64, 16, 1), 1.0).unwrap();
        for m in k.measurements() {
            assert_eq!(m.query.cols(), 64, "measurement not mapped to base");
        }
    }
}
