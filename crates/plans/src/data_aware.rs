//! Data-dependent 1-D plans: AHP (Plan #8) and DAWA (Plan #9).
//!
//! Both follow the same signature — *Partition selection → Reduce → Query
//! selection → LM → LS* — and differ only in the two selection operators,
//! which is exactly the transparency point the paper makes about them
//! (§6.3).

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::partition::{
    ahp_partition, dawa_partition, interval_partition_bounds, map_ranges_to_buckets, DawaOptions,
};
use ektelo_core::ops::selection;
use ektelo_matrix::Matrix;

use crate::util::{infer_ls, split_budget, workload_ranges, PlanOutcome, PlanResult};

/// Plan #8 — AHP (Zhang et al. 2014): `PA TR SI LM LS`.
/// `rho` is the budget share spent on partition selection (0.5 default in
/// the AHP paper).
pub fn plan_ahp(kernel: &ProtectedKernel, x: SourceVar, eps: f64, rho: f64) -> PlanResult {
    let shares = split_budget(eps, &[rho, 1.0 - rho]);
    let start = kernel.measurement_count();
    let p = ahp_partition(kernel, x, shares[0])?;
    let reduced = kernel.reduce_by_partition(x, &p)?;
    let groups = kernel.vector_len(reduced)?;
    kernel.vector_laplace(reduced, &selection::identity(groups), shares[1])?;
    Ok(PlanOutcome {
        x_hat: infer_ls(kernel, start, LsSolver::Iterative),
    })
}

/// Plan #9 — DAWA (Li et al. 2014): `PD TR SG LM LS`.
/// `rho` is the stage-1 (partition) budget share; the DAWA paper uses 0.25.
/// The workload (range queries) steers both the partition penalty and the
/// Greedy-H weights on the reduced domain.
pub fn plan_dawa(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
    rho: f64,
) -> PlanResult {
    let shares = split_budget(eps, &[rho, 1.0 - rho]);
    let start = kernel.measurement_count();
    let p = dawa_partition(kernel, x, shares[0], &DawaOptions::new(shares[1]))?;
    let reduced = kernel.reduce_by_partition(x, &p)?;
    let groups = kernel.vector_len(reduced)?;
    // Map the workload's ranges onto bucket indices for Greedy-H.
    let bounds = interval_partition_bounds(&p);
    let bucket_ranges = workload_ranges(workload)
        .map(|r| map_ranges_to_buckets(&r, &bounds))
        .unwrap_or_default();
    let strategy = selection::greedy_h(groups, &bucket_ranges);
    kernel.vector_laplace(reduced, &strategy, shares[1])?;
    Ok(PlanOutcome {
        x_hat: infer_ls(kernel, start, LsSolver::Iterative),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::plan_identity;
    use crate::util::kernel_for_histogram;
    use ektelo_data::generators::{shape_1d, Shape1D};
    use ektelo_data::workloads::random_range;

    fn rmse(a: &[f64], b: &[f64]) -> f64 {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    }

    #[test]
    fn ahp_spends_exactly_eps_and_estimates() {
        let x = shape_1d(Shape1D::Step, 128, 20_000.0, 4);
        let (k, root) = kernel_for_histogram(&x, 1.0, 9);
        let out = plan_ahp(&k, root, 1.0, 0.5).unwrap();
        assert_eq!(out.x_hat.len(), 128);
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dawa_spends_exactly_eps_and_estimates() {
        let x = shape_1d(Shape1D::Step, 128, 20_000.0, 4);
        let w = random_range(128, 64, 5);
        let (k, root) = kernel_for_histogram(&x, 1.0, 9);
        let out = plan_dawa(&k, root, &w, 1.0, 0.25).unwrap();
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
            err_ahp += rmse(&x, &plan_ahp(&k, root, eps, 0.5).unwrap().x_hat);
            let (k, root) = kernel_for_histogram(&x, eps, seed + 200);
            err_dawa += rmse(&x, &plan_dawa(&k, root, &w, eps, 0.25).unwrap().x_hat);
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
        plan_dawa(&k, root, &random_range(64, 16, 1), 1.0, 0.25).unwrap();
        for m in k.measurements() {
            assert_eq!(m.query.cols(), 64, "measurement not mapped to base");
        }
    }
}
