//! The striped high-dimensional plans of §9.2 (Fig. 2, Plans #14–#16).
//!
//! A *stripe* fixes every attribute except one, giving a 1-D histogram per
//! combination of the remaining attributes. `V-SplitByPartition` makes the
//! stripes disjoint sources, so per-stripe subplans compose in parallel:
//! measuring all 280 census stripes costs the same ε as measuring one.
//! When the subplan is data-independent (HB), the whole construction
//! collapses to a single Kronecker strategy (`HB-Striped_kron`,
//! Algorithm 6).
//!
//! Since the operator-graph migration the striped plans are [`PlanSpec`]s
//! (`PS TP[ … ] LS`): the stripe partition, split, per-stripe selection
//! and batched measurement are graph nodes, and the executor pre-accounts
//! the parallel composition exactly — N stripes at ε cost ε — before any
//! kernel call.
//!
//! The stripe transforms are linear in the domain: each cell's stripe
//! label is computed arithmetically, the partition's CSR is built by
//! counting sort, and `split_by_partition` reads each stripe's cells from
//! the borrowed CSR rows — a few allocations per stripe, none per cell.
//!
//! The budget composes in parallel across stripes, and so does the
//! *compute*: per-stripe measurements go through the kernel's batched
//! `vector_laplace_batch`, which evaluates the exact per-stripe answers on
//! the pool's worker threads while drawing noise sequentially in stripe
//! order — so the *measurements* are bit-identical for every pool size,
//! and plan outputs are deterministic run-to-run given the kernel seed.
//! Inference is per stripe as well: every stacked measurement ends in its
//! stripe's selector, so the system splits into one column component per
//! stripe ([`ektelo_matrix::Matrix::column_components`]) and `lsqr`
//! solves the stripes one after another. Both plans measure a stripe
//! with an interval hierarchy (HB, or Greedy-H behind DAWA's reduce
//! partition), so each stripe gets its exact least-squares solution from
//! the `O(nodes)` tree pass ([`ektelo_solvers::tree_least_squares`])
//! instead of LSQR iterations; HB-Striped's shared strategy is built into
//! a pass once per solve. A stripe's solve runs serially on the calling
//! thread, so `x_hat` does not depend on `configured_parallelism()`. A
//! stripe that is not a hierarchy runs the LSQR loop, and only one large
//! enough to cross the pool's threading thresholds (thousands of cells)
//! is evaluated in chunks, whose merge points can move the last ulps.
//! DAWA-Striped additionally builds its per-stripe Greedy-H
//! strategies (pure public
//! compute, the dominant per-stripe cost) on worker threads, and its
//! data-adaptive stage-1 partition selection threads too: the kernel
//! charges stripes in order and derives counter-based per-stripe RNG
//! substreams from its privacy stream, so each stripe's selection is a
//! pure function of (snapshot, substream) and the threaded batch is
//! bit-identical to a sequential loop over the same substreams.

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_core::ops::graph::{PlanBuilder, PlanExecutor, PlanSpec};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::partition::DawaOptions;
use ektelo_core::ops::selection::{hb, stripe_select};

use crate::util::{split_budget, PlanOutcome, PlanResult};

/// The HB-Striped spec: `PS TP[ SHB LM ] LS`.
fn hb_striped_spec(sizes: &[usize], attr: usize, eps: f64) -> PlanSpec {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let p = b.partition_stripes(sizes, attr);
    let stripes = b.transform_split(x, p);
    let s = b.select_hb_shared(stripes);
    b.measure_laplace_batch_shared(stripes, s, eps);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

/// Plan #15 — HB-Striped (Algorithm 5): `PS TP[ SHB LM ] LS`.
///
/// All stripes share one data-independent HB strategy, so the whole
/// measurement phase is a single batched call: exact answers evaluate in
/// parallel on the pool, noise is drawn in stripe order — bit-identical
/// to the old sequential loop.
pub fn plan_hb_striped(
    kernel: &ProtectedKernel,
    x: SourceVar,
    sizes: &[usize],
    attr: usize,
    eps: f64,
) -> PlanResult {
    let spec = hb_striped_spec(sizes, attr, eps);
    let report = PlanExecutor::new(kernel).run(&spec, x)?;
    Ok(PlanOutcome {
        x_hat: report.x_hat,
    })
}

/// The DAWA-Striped spec: `PS TP[ PD TR SG LM ] LS`.
fn dawa_striped_spec(
    sizes: &[usize],
    attr: usize,
    stripe_ranges: &[(usize, usize)],
    eps: f64,
    rho: f64,
) -> PlanSpec {
    let shares = split_budget(eps, &[rho, 1.0 - rho]);
    let mut b = PlanBuilder::new();
    let x = b.input();
    let p = b.partition_stripes(sizes, attr);
    let stripes = b.transform_split(x, p);
    let parts = b.partition_dawa_each(stripes, shares[0], DawaOptions::new(shares[1]));
    let reduced = b.transform_reduce_each(stripes, parts);
    let strats = b.select_greedy_h_each(reduced, parts, stripe_ranges);
    b.measure_laplace_batch_each(reduced, strats, shares[1]);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

/// Plan #14 — DAWA-Striped: `PS TP[ PD TR SG LM ] LS`.
///
/// Unlike HB-Striped, each stripe gets its *own* data-adaptive partition
/// and measurement set (`rho` = DAWA's stage-1 share, 0.25 in the paper).
/// `stripe_ranges` are the 1-D range queries of interest along the striped
/// attribute (steering each stripe's Greedy-H); pass `&[]` for uniform
/// weights.
pub fn plan_dawa_striped(
    kernel: &ProtectedKernel,
    x: SourceVar,
    sizes: &[usize],
    attr: usize,
    stripe_ranges: &[(usize, usize)],
    eps: f64,
    rho: f64,
) -> PlanResult {
    let spec = dawa_striped_spec(sizes, attr, stripe_ranges, eps, rho);
    let report = PlanExecutor::new(kernel).run(&spec, x)?;
    Ok(PlanOutcome {
        x_hat: report.x_hat,
    })
}

/// Plan #16 — HB-Striped_kron (Algorithm 6): `SS LM LS`. The
/// data-independent variant expressed as one Kronecker measurement —
/// no kernel splitting, identical answers in distribution.
pub fn plan_hb_striped_kron(
    kernel: &ProtectedKernel,
    x: SourceVar,
    sizes: &[usize],
    attr: usize,
    eps: f64,
) -> PlanResult {
    let mut b = PlanBuilder::new();
    let x_ref = b.input();
    let s = b.select_fixed(stripe_select(sizes, attr, hb), "SS");
    b.measure_laplace(x_ref, s, eps);
    let e = b.infer_least_squares(LsSolver::Iterative);
    let spec = b.finish(e);
    let report = PlanExecutor::new(kernel).run(&spec, x)?;
    Ok(PlanOutcome {
        x_hat: report.x_hat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_core::kernel::ProtectedKernel;
    use ektelo_data::{Schema, Table};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A small 3-attribute table: [v: 32, a: 3, b: 2].
    fn small_census(rows: usize, seed: u64) -> (ProtectedKernel, SourceVar, Vec<f64>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_sizes(&[("v", 32), ("a", 3), ("b", 2)]);
        let mut t = Table::empty(schema);
        for _ in 0..rows {
            let a = rng.random_range(0..3u32);
            // v correlates with a.
            let v = ((rng.random_range(0..16u32)) + a * 8).min(31);
            let b = rng.random_range(0..2u32);
            t.push_row(&[v, a, b]);
        }
        let truth = ektelo_data::vectorize(&t);
        let k = ProtectedKernel::init(t, 10.0, seed);
        let x = k.vectorize(k.root()).unwrap();
        (k, x, truth, vec![32, 3, 2])
    }

    fn rmse(a: &[f64], b: &[f64]) -> f64 {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    }

    #[test]
    fn striped_specs_render_fig2_signatures() {
        assert_eq!(
            hb_striped_spec(&[32, 3, 2], 0, 1.0).signature(),
            "PS TP[ SHB LM ] LS"
        );
        assert_eq!(
            dawa_striped_spec(&[32, 3, 2], 0, &[], 1.0, 0.25).signature(),
            "PS TP[ PD TR SG LM ] LS"
        );
    }

    #[test]
    fn striped_preaccounting_is_exact_despite_many_stripes() {
        // 6 stripes all measured with eps=1; parallel composition → the
        // pre-accounted worst case is 1, and the charged ε matches it
        // bit for bit.
        let spec = hb_striped_spec(&[32, 3, 2], 0, 1.0);
        assert_eq!(spec.pre_account().unwrap().total, 1.0);
        let (k, x, _, _) = small_census(2000, 1);
        let report = PlanExecutor::new(&k).run(&spec, x).unwrap();
        assert_eq!(report.eps_pre_accounted, report.eps_charged);
    }

    #[test]
    fn hb_striped_costs_eps_despite_many_stripes() {
        let (k, x, _, sizes) = small_census(2000, 1);
        plan_hb_striped(&k, x, &sizes, 0, 1.0).unwrap();
        // 6 stripes all measured with eps=1; parallel composition → 1.
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dawa_striped_costs_eps() {
        let (k, x, _, sizes) = small_census(2000, 2);
        plan_dawa_striped(&k, x, &sizes, 0, &[], 1.0, 0.25).unwrap();
        assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    /// The threaded measurement phase must not introduce nondeterminism:
    /// identical seeds give identical estimates, run to run, at any pool
    /// size (noise is drawn sequentially in stripe order either way).
    #[test]
    fn striped_plans_are_deterministic_given_seed() {
        let run_hb = || {
            let (k, x, _, sizes) = small_census(3000, 7);
            plan_hb_striped(&k, x, &sizes, 0, 1.0).unwrap().x_hat
        };
        assert_eq!(run_hb(), run_hb());
        let run_dawa = || {
            let (k, x, _, sizes) = small_census(3000, 8);
            plan_dawa_striped(&k, x, &sizes, 0, &[(0, 16)], 1.0, 0.25)
                .unwrap()
                .x_hat
        };
        assert_eq!(run_dawa(), run_dawa());
    }

    #[test]
    fn striped_estimates_live_on_the_full_domain() {
        let (k, x, truth, sizes) = small_census(5000, 3);
        let out = plan_hb_striped(&k, x, &sizes, 0, 2.0).unwrap();
        assert_eq!(out.x_hat.len(), truth.len());
        assert!(rmse(&truth, &out.x_hat) < 20.0);
    }

    #[test]
    fn kron_variant_matches_split_variant_statistically() {
        // Same strategy, different plumbing: errors should be comparable.
        let trials = 3;
        let mut err_split = 0.0;
        let mut err_kron = 0.0;
        for seed in 0..trials {
            let (k, x, truth, sizes) = small_census(5000, 100 + seed);
            let o = plan_hb_striped(&k, x, &sizes, 0, 1.0).unwrap();
            err_split += rmse(&truth, &o.x_hat);
            let (k, x, truth, sizes) = small_census(5000, 100 + seed);
            let o = plan_hb_striped_kron(&k, x, &sizes, 0, 1.0).unwrap();
            err_kron += rmse(&truth, &o.x_hat);
        }
        let ratio = err_split / err_kron;
        assert!(
            (0.5..2.0).contains(&ratio),
            "split ({err_split}) and kron ({err_kron}) variants should be comparable"
        );
    }

    #[test]
    fn dawa_striped_beats_hb_striped_on_sparse_stripes() {
        // Strong structure within stripes favours the data-adaptive plan
        // at small eps.
        let trials = 3;
        let mut err_hb = 0.0;
        let mut err_dawa = 0.0;
        for seed in 0..trials {
            let (k, x, truth, sizes) = small_census(20_000, 200 + seed);
            let o = plan_hb_striped(&k, x, &sizes, 0, 0.05).unwrap();
            err_hb += rmse(&truth, &o.x_hat);
            let (k, x, truth, sizes) = small_census(20_000, 200 + seed);
            let o = plan_dawa_striped(&k, x, &sizes, 0, &[], 0.05, 0.25).unwrap();
            err_dawa += rmse(&truth, &o.x_hat);
        }
        assert!(
            err_dawa < err_hb * 1.6,
            "DAWA-striped ({err_dawa}) should be competitive with HB-striped ({err_hb})"
        );
    }
}
