//! Deterministic fault-injection sweep (robustness acceptance gate).
//!
//! For each representative plan shape (baseline identity, HB, DAWA-Striped
//! with its batched measure, adaptive MWEM), and for kernel calls issued
//! directly without a reservation, a clean run
//! first records how often every failpoint site is passed; the sweep then
//! re-runs the plan on a fresh equally-seeded kernel with "fail at the
//! k-th hit of site S" armed, for several k per site, and asserts the
//! transactional-ledger contract after every injected failure:
//!
//! * the error is typed — [`EktError::FaultInjected`] from error-path
//!   sites, [`EktError::ExecutionPanic`] from panic sites — never a
//!   wedged lock or a poisoned kernel;
//! * **ledger conservation**: nothing stays reserved, no reservation
//!   slot leaks, spent budget is finite and within the session total,
//!   and the entire remainder is still chargeable afterwards (so no
//!   budget was silently lost to the crash);
//! * the kernel stays fully functional for subsequent sessions.
//!
//! A final gate pins the success path: with the feature compiled in and
//! every site armed at an unreachable hit count, results are bit-identical
//! to the unarmed run.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use ektelo_core::kernel::{EktError, ProtectedKernel};
use ektelo_core::ops::graph::{
    MwemLoopOp, MwemRoundInference, PlanBuilder, PlanExecutor, PlanSpec,
};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::partition::{ahp_partition, DawaOptions};
use ektelo_matrix::{failpoints, Matrix};

/// The failpoint registry is process-global; tests in this binary must
/// not interleave their schedules.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every site the engine defines, in one place so the sweep cannot
/// silently miss a class of fault.
const SITES: &[&str] = &[
    "state::reserve",
    "state::charge",
    "state::redeem",
    "kernel::batch_stripe",
    "kernel::batch_exact",
    "solver::iteration",
];

const N: usize = 48;
const EPS_TOTAL: f64 = 1.0;
const SEED: u64 = 77;

fn identity_spec(eps: f64) -> PlanSpec {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let s = b.select_identity(x);
    b.measure_laplace(x, s, eps);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

fn hb_spec(eps: f64) -> PlanSpec {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let s = b.select_hb(x);
    b.measure_laplace(x, s, eps);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

fn dawa_striped_spec(eps1: f64, eps2: f64) -> PlanSpec {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let p = b.partition_stripes(&[16, 3], 0);
    let stripes = b.transform_split(x, p);
    let parts = b.partition_dawa_each(stripes, eps1, DawaOptions::new(eps2));
    let reduced = b.transform_reduce_each(stripes, parts);
    let strats = b.select_greedy_h_each(reduced, parts, &[]);
    b.measure_laplace_batch_each(reduced, strats, eps2);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

fn mwem_spec(rounds: usize, eps: f64) -> PlanSpec {
    let per_round = eps / (2.0 * rounds as f64);
    let mut b = PlanBuilder::new();
    let x = b.input();
    let e = b.mwem_loop(MwemLoopOp {
        input: x,
        workload: Matrix::prefix(N),
        rounds,
        eps_select: per_round,
        eps_measure: per_round,
        augment: false,
        inference: MwemRoundInference::MultWeights,
        total: 500.0,
        mw_iterations: 15,
    });
    b.finish(e)
}

fn plans() -> Vec<(&'static str, PlanSpec)> {
    vec![
        ("identity", identity_spec(0.6)),
        ("hb", hb_spec(0.6)),
        ("dawa-striped", dawa_striped_spec(0.15, 0.45)),
        ("mwem", mwem_spec(4, 0.6)),
    ]
}

fn kernel() -> ProtectedKernel {
    let x: Vec<f64> = (0..N).map(|i| ((i * 13) % 11) as f64).collect();
    ProtectedKernel::init_from_vector(x, EPS_TOTAL, SEED)
}

/// A run the sweep repeats on fresh kernels.
type Runner<'a> = &'a dyn Fn(&ProtectedKernel) -> Result<(), EktError>;

/// Runs `spec` through the executor, which redeems every charge from the
/// plan's reservation.
fn execute(spec: &PlanSpec) -> impl Fn(&ProtectedKernel) -> Result<(), EktError> + '_ {
    move |k| PlanExecutor::new(k).run(spec, k.root()).map(|_| ())
}

/// Kernel calls issued directly, with no reservation, so every charge
/// takes the unattributed `state::charge` path: AHP's partition
/// selection, then its buckets measured. A panic is reported as the
/// executor reports one.
fn direct_calls(k: &ProtectedKernel) -> Result<(), EktError> {
    catch_unwind(AssertUnwindSafe(|| {
        let p = ahp_partition(k, k.root(), 0.2)?;
        let buckets = k.reduce_by_partition(k.root(), &p)?;
        let groups = k.vector_len(buckets)?;
        k.vector_laplace(buckets, &Matrix::identity(groups), 0.4)?;
        Ok(())
    }))
    .unwrap_or_else(|_| Err(EktError::ExecutionPanic("direct kernel call".into())))
}

/// The hit counts a clean `run` accrues at every site.
fn baseline_hits(run: Runner) -> Vec<(&'static str, u64)> {
    failpoints::clear();
    let k = kernel();
    run(&k).expect("clean baseline run");
    SITES.iter().map(|&s| (s, failpoints::hits(s))).collect()
}

/// Post-failure contract: typed error, conserved ledger, functional
/// kernel.
fn assert_fault_contract(name: &str, site: &str, nth: u64, k: &ProtectedKernel, err: EktError) {
    let what = format!("{name}: fail at {site} hit {nth}");
    assert!(
        matches!(
            err,
            EktError::FaultInjected(_) | EktError::ExecutionPanic(_)
        ),
        "{what}: unexpected error {err:?}"
    );
    assert_eq!(k.budget_reserved(), 0.0, "{what}: a hold leaked");
    assert_eq!(
        k.active_reservations(),
        0,
        "{what}: a reservation slot leaked"
    );
    let spent = k.budget_spent();
    assert!(
        spent.is_finite() && (0.0..=EPS_TOTAL + 1e-9).contains(&spent),
        "{what}: ledger corrupted, spent = {spent}"
    );
    // Conservation: the entire remainder is still available — nothing
    // was silently destroyed by the crash. (The armed site already
    // fired, so this charge cannot re-trigger it.)
    let remaining = EPS_TOTAL - spent;
    if remaining > 1e-6 {
        k.vector_laplace(k.root(), &Matrix::identity(N), remaining)
            .unwrap_or_else(|e| panic!("{what}: remainder not chargeable: {e}"));
    }
    // And the kernel still admits fresh sessions end to end.
    failpoints::clear();
    let k2 = kernel();
    let report = PlanExecutor::new(&k2)
        .run(&identity_spec(0.25), k2.root())
        .unwrap_or_else(|e| panic!("{what}: kernel wedged for the next session: {e}"));
    assert_eq!(report.eps_charged, report.eps_pre_accounted);
}

/// Sweep "fail at hit k of site s" for k ∈ {1, 2, h/2, h} over every site
/// the run actually passes.
fn sweep(name: &str, run: Runner) {
    for (site, h) in baseline_hits(run) {
        if h == 0 {
            continue;
        }
        let mut ks = vec![1, 2, h / 2, h];
        ks.retain(|&k| k >= 1 && k <= h);
        ks.dedup();
        for nth in ks {
            failpoints::clear();
            failpoints::arm(site, nth);
            let k = kernel();
            let err = run(&k).expect_err("an armed in-range site must fail the plan");
            assert_fault_contract(name, site, nth, &k, err);
        }
    }
    failpoints::clear();
}

#[test]
fn fault_sweep_over_representative_plans() {
    let _guard = serial();
    for (name, spec) in plans() {
        sweep(name, &execute(&spec));
    }
}

#[test]
fn fault_sweep_without_preaccounting_hits_the_unattributed_charge_path() {
    // Direct kernel calls charge without a reservation, so this is the
    // only sweep that exercises the `state::charge` site (executor runs
    // always redeem via `state::redeem`).
    let _guard = serial();
    assert!(
        baseline_hits(&direct_calls)
            .iter()
            .any(|&(s, h)| s == "state::charge" && h > 0),
        "direct calls must pass the unattributed charge site"
    );
    sweep("direct calls", &direct_calls);
}

#[test]
fn single_measurement_plans_pass_the_batch_sites() {
    // A single Laplace measurement is a batch of one, so the sweep's
    // "fail at hit k" schedules at the batch sites also cover plans
    // that measure one strategy at a time.
    let _guard = serial();
    for (name, spec) in [
        ("identity", identity_spec(0.6)),
        ("mwem", mwem_spec(4, 0.6)),
    ] {
        let hits = baseline_hits(&execute(&spec));
        for site in ["kernel::batch_stripe", "kernel::batch_exact"] {
            assert!(
                hits.iter().any(|&(s, h)| s == site && h > 0),
                "{name}: a clean run must pass {site}"
            );
        }
    }
    failpoints::clear();
}

#[test]
fn striped_inference_passes_the_solver_site() {
    // DAWA-Striped's stripes are interval hierarchies behind a
    // partition, which `lsqr` solves exactly without iterating. Each
    // exact stripe still passes the solver site once, so the sweep keeps
    // failing a striped inference there.
    let _guard = serial();
    let hits = baseline_hits(&execute(&dawa_striped_spec(0.15, 0.45)));
    assert!(
        hits.iter().any(|&(s, h)| s == "solver::iteration" && h > 0),
        "dawa-striped must pass solver::iteration: {hits:?}"
    );
    failpoints::clear();
}

#[test]
fn admission_fault_leaves_zero_history() {
    // A fault at the reservation itself must reject the plan before any
    // kernel side effect — the same contract as an over-budget spec.
    let _guard = serial();
    failpoints::clear();
    failpoints::arm("state::reserve", 1);
    let k = kernel();
    let err = PlanExecutor::new(&k)
        .run(&identity_spec(0.6), k.root())
        .unwrap_err();
    assert_eq!(err, EktError::FaultInjected("state::reserve"));
    assert_eq!(k.measurement_count(), 0);
    assert_eq!(k.budget_spent(), 0.0);
    assert_eq!(k.budget_reserved(), 0.0);
    assert_eq!(k.active_reservations(), 0);
    failpoints::clear();
}

#[test]
fn batch_exact_panic_mid_stripe_leaves_ledger_consistent() {
    // A crash in `vector_laplace_batch`'s compute phase (the
    // `kernel::batch_exact` site panics inside the per-stripe
    // exact-answer fill) unwinds before the charge phase: zero charges,
    // zero history, unpoisoned state, next sessions fully functional.
    let _guard = serial();
    failpoints::clear();
    failpoints::arm("kernel::batch_exact", 2);
    let k = kernel();
    let svs = k
        .split_by_partition(
            k.root(),
            &ektelo_core::ops::partition::stripe_partition(&[16, 3], 0),
        )
        .unwrap();
    assert!(svs.len() >= 2, "need a multi-stripe batch");
    let mats: Vec<Matrix> = svs
        .iter()
        .map(|&sv| Matrix::identity(k.vector_len(sv).unwrap()))
        .collect();
    let reqs: Vec<(_, &Matrix, f64)> = svs
        .iter()
        .zip(&mats)
        .map(|(&sv, m)| (sv, m, 0.05))
        .collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        k.vector_laplace_batch(&reqs)
    }));
    assert!(outcome.is_err(), "the exact-answer panic must surface");
    assert_eq!(
        k.budget_spent(),
        0.0,
        "no partial charges from a dead batch"
    );
    assert_eq!(k.measurement_count(), 0, "no history from a dead batch");
    assert_eq!(k.budget_reserved(), 0.0);
    // Unpoisoned and consistent: the same batch succeeds now.
    failpoints::clear();
    let out = k.vector_laplace_batch(&reqs).unwrap();
    assert_eq!(out.len(), svs.len());
    assert!(k.budget_spent() > 0.0);
    assert_eq!(k.measurement_count(), svs.len());
}

#[test]
fn success_path_is_bit_identical_with_sites_compiled_in_and_unreached() {
    // Arming every site at an unreachable hit count must not perturb a
    // single bit of any plan's output or ledger relative to the unarmed
    // run — the sites' success path is side-effect-free beyond a counter.
    let _guard = serial();
    for (name, spec) in plans() {
        failpoints::clear();
        let k1 = kernel();
        let clean = PlanExecutor::new(&k1).run(&spec, k1.root()).unwrap();

        failpoints::clear();
        for site in SITES {
            failpoints::arm(site, 1_000_000);
        }
        let k2 = kernel();
        let armed = PlanExecutor::new(&k2).run(&spec, k2.root()).unwrap();

        assert_eq!(clean.x_hat, armed.x_hat, "{name}: x_hat drifted");
        assert_eq!(clean.eps_charged, armed.eps_charged, "{name}");
        assert_eq!(k1.budget_spent(), k2.budget_spent(), "{name}");
        assert_eq!(
            clean.eps_charged, clean.eps_pre_accounted,
            "{name}: per-plan ledger equals pre-account bit-for-bit"
        );
    }
    failpoints::clear();
}
