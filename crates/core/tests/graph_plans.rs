//! Round-trip and failure-path gates for the operator-graph API
//! (ISSUE 4 acceptance criteria):
//!
//! * every migrated plan shape builds through the typed builder,
//!   pre-accounts an ε that matches the ε the kernel actually charges
//!   **bit for bit**, and renders its Fig. 2 signature;
//! * an over-budget spec is rejected *before any kernel call* — zero
//!   measurement-history entries, zero budget spent, nothing reserved;
//! * the executor reserves a plan's whole pre-accounted ε up front, so
//!   no plan run through it exhausts the budget mid-plan; issued directly,
//!   as an imperative plan issues them, the same kernel calls surface
//!   exhaustion mid-plan as a typed [`EktError`] — never a panic — from
//!   every operator class that charges: Measure (Vector Laplace, single
//!   and batched), Partition selection (DAWA stage 1), and query
//!   Selection inside the MWEM adaptive loop; stability-scaled Transform
//!   chains are accounted and enforced too.

use ektelo_core::kernel::{EktError, ProtectedKernel};
use ektelo_core::ops::graph::{
    MwemLoopOp, MwemRoundInference, PlanBuilder, PlanExecutor, PlanSpec,
};
use ektelo_core::ops::inference::LsSolver;
use ektelo_core::ops::partition::{dawa_partition_batch, stripe_partition, DawaOptions};
use ektelo_core::ops::selection::{hb, stripe_select, worst_approx};
use ektelo_matrix::Matrix;

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

fn dawa_striped_spec(sizes: &[usize], attr: usize, eps1: f64, eps2: f64) -> PlanSpec {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let p = b.partition_stripes(sizes, attr);
    let stripes = b.transform_split(x, p);
    let parts = b.partition_dawa_each(stripes, eps1, DawaOptions::new(eps2));
    let reduced = b.transform_reduce_each(stripes, parts);
    let strats = b.select_greedy_h_each(reduced, parts, &[]);
    b.measure_laplace_batch_each(reduced, strats, eps2);
    let e = b.infer_least_squares(LsSolver::Iterative);
    b.finish(e)
}

fn mwem_spec(n: usize, rounds: usize, eps: f64) -> PlanSpec {
    let per_round = eps / (2.0 * rounds.max(1) as f64);
    let mut b = PlanBuilder::new();
    let x = b.input();
    let e = b.mwem_loop(MwemLoopOp {
        input: x,
        workload: Matrix::prefix(n),
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

fn vector_kernel(n: usize, eps_total: f64, seed: u64) -> ProtectedKernel {
    let x: Vec<f64> = (0..n).map(|i| ((i * 13) % 11) as f64).collect();
    ProtectedKernel::init_from_vector(x, eps_total, seed)
}

// -------------------------------------------------------------------
// Round-trips: builder → pre-account → execute, ε exact, signature
// rendered
// -------------------------------------------------------------------

#[test]
fn migrated_plan_specs_round_trip_with_exact_budgets() {
    let cases: Vec<(PlanSpec, &str)> = vec![
        (identity_spec(0.6), "SI LM LS"),
        (hb_spec(0.6), "SHB LM LS"),
        (
            dawa_striped_spec(&[16, 3], 0, 0.15, 0.45),
            "PS TP[ PD TR SG LM ] LS",
        ),
        (mwem_spec(48, 4, 0.6), "I:( SW LM MW )"),
    ];
    for (spec, signature) in cases {
        assert_eq!(spec.signature(), signature);
        let pre = spec.pre_account().unwrap().total;
        let k = vector_kernel(48, 1.0, 77);
        let report = PlanExecutor::new(&k).run(&spec, k.root()).unwrap();
        assert_eq!(report.signature, signature);
        assert_eq!(
            report.eps_pre_accounted, pre,
            "{signature}: root scaling is 1 for a root source"
        );
        assert_eq!(
            report.eps_charged, pre,
            "{signature}: pre-accounted ε must equal charged ε bit-for-bit"
        );
        assert_eq!(
            k.budget_spent(),
            pre,
            "{signature}: kernel ledger agrees with the report"
        );
        assert_eq!(k.budget_reserved(), 0.0, "{signature}: nothing left held");
    }
}

#[test]
fn over_budget_specs_rejected_with_zero_kernel_history() {
    let specs = vec![
        identity_spec(0.6),
        hb_spec(0.6),
        dawa_striped_spec(&[16, 3], 0, 0.15, 0.45),
        mwem_spec(48, 4, 0.6),
    ];
    for spec in specs {
        let k = vector_kernel(48, 0.5, 77); // every spec pre-accounts 0.6
        let err = PlanExecutor::new(&k).run(&spec, k.root()).unwrap_err();
        assert!(
            matches!(err, EktError::BudgetExceeded { .. }),
            "{}: expected BudgetExceeded, got {err:?}",
            spec.signature()
        );
        assert_eq!(k.measurement_count(), 0, "zero kernel history entries");
        assert_eq!(k.budget_spent(), 0.0, "nothing charged");
        assert_eq!(k.budget_reserved(), 0.0, "nothing left reserved");
    }
}

#[test]
fn admitted_plan_cannot_lose_its_budget_to_a_later_reservation() {
    // Admission control: once a plan's reservation is in, a second
    // session asking for more than the remainder is turned away, and an
    // ordinary (unreserved) charge cannot eat into the hold either.
    let k = vector_kernel(16, 1.0, 3);
    let reservation = k.reserve_budget(0.7).unwrap();
    assert_eq!(k.budget_reserved(), 0.7);
    assert!(matches!(
        k.reserve_budget(0.5),
        Err(EktError::BudgetExceeded { .. })
    ));
    // A direct charge can only use the unreserved 0.3.
    assert!(matches!(
        k.vector_laplace(k.root(), &Matrix::identity(16), 0.4),
        Err(EktError::BudgetExceeded { .. })
    ));
    k.vector_laplace(k.root(), &Matrix::identity(16), 0.3)
        .unwrap();
    // Releasing the hold re-opens the rest.
    drop(reservation);
    assert_eq!(k.budget_reserved(), 0.0);
    k.vector_laplace(k.root(), &Matrix::identity(16), 0.7)
        .unwrap();
}

#[test]
fn nan_epsilon_cannot_poison_budget_enforcement() {
    // Regression: a NaN declared ε used to slip through both the static
    // validation (`eps <= 0.0` is false for NaN) and the reservation
    // admission check, setting `reserved = NaN` — after which every root
    // availability check (`ε_tot − NaN`) was vacuously satisfied and ALL
    // charges from every session were admitted.
    let spec = identity_spec(f64::NAN);
    assert!(matches!(
        spec.pre_account(),
        Err(EktError::InvalidArgument(_))
    ));
    let k = vector_kernel(16, 1.0, 9);
    let err = PlanExecutor::new(&k).run(&spec, k.root()).unwrap_err();
    assert!(matches!(err, EktError::InvalidArgument(_)));
    assert_eq!(k.measurement_count(), 0);
    assert_eq!(k.budget_reserved(), 0.0);

    // Direct reservations reject NaN and ∞ outright…
    assert!(matches!(
        k.reserve_budget(f64::NAN),
        Err(EktError::InvalidArgument(_))
    ));
    assert!(matches!(
        k.reserve_budget(f64::INFINITY),
        Err(EktError::InvalidArgument(_))
    ));
    assert_eq!(k.budget_reserved(), 0.0);

    // …so enforcement stays intact: the reviewer's over-budget probe (a
    // 10.0 charge against ε_tot = 1.0) is still refused…
    assert!(matches!(
        k.vector_laplace(k.root(), &Matrix::identity(16), 10.0),
        Err(EktError::BudgetExceeded { .. })
    ));

    // …and a NaN ε fed straight to a kernel charge dies as a typed error
    // at the request chokepoint instead of corrupting the trackers.
    assert!(matches!(
        k.vector_laplace(k.root(), &Matrix::identity(16), f64::NAN),
        Err(EktError::InvalidArgument(_))
    ));
    assert_eq!(k.budget_spent(), 0.0);

    // The kernel remains fully usable for an honest charge.
    k.vector_laplace(k.root(), &Matrix::identity(16), 1.0)
        .unwrap();
}

// -------------------------------------------------------------------
// Mid-plan budget exhaustion: typed errors from every charging class
// -------------------------------------------------------------------

/// The executor turns `spec` away at admission, with no kernel effect:
/// it never starts a plan whose pre-accounted ε is not free.
fn assert_rejected_at_admission(k: &ProtectedKernel, spec: &PlanSpec) {
    let err = PlanExecutor::new(k).run(spec, k.root()).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(k.measurement_count(), 0);
    assert_eq!(k.budget_spent(), 0.0);
    assert_eq!(k.budget_reserved(), 0.0);
    assert_eq!(k.active_reservations(), 0);
}

/// One round of `mwem_spec`'s loop issued directly: the worst-approx
/// selection (the exponential mechanism's charge), then the chosen row
/// measured. The estimate stays uniform; it moves no charge.
fn mwem_round(
    k: &ProtectedKernel,
    workload: &Matrix,
    eps_select: f64,
    eps_measure: f64,
) -> Result<(), EktError> {
    let n = workload.cols();
    let x_hat = vec![500.0 / n as f64; n];
    let idx = worst_approx(k, k.root(), workload, &x_hat, 1.0, eps_select, None)?;
    let row = Matrix::from_rows(vec![workload.row(idx)]);
    k.vector_laplace(k.root(), &row, eps_measure)?;
    Ok(())
}

#[test]
fn measure_class_exhaustion_is_typed_mid_plan() {
    // Two measure nodes; the kernel can only afford the first.
    let mut b = PlanBuilder::new();
    let x = b.input();
    let s1 = b.select_identity(x);
    b.measure_laplace(x, s1, 0.4);
    let s2 = b.select_hb(x);
    b.measure_laplace(x, s2, 0.4);
    let e = b.infer_least_squares(LsSolver::Iterative);
    let spec = b.finish(e);

    let k = vector_kernel(16, 0.5, 1);
    assert_rejected_at_admission(&k, &spec);
    // Issued directly, the second measurement hits the exhausted budget.
    k.vector_laplace(k.root(), &Matrix::identity(16), 0.4)
        .unwrap();
    let err = k.vector_laplace(k.root(), &hb(16), 0.4).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    // The first measurement went through before the failure.
    assert_eq!(k.measurement_count(), 1);
    assert!((k.budget_spent() - 0.4).abs() < 1e-12);
}

#[test]
fn batched_measure_exhaustion_is_typed_mid_plan() {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let p = b.partition_stripes(&[16, 3], 0);
    let stripes = b.transform_split(x, p);
    let s = b.select_hb_shared(stripes);
    b.measure_laplace_batch_shared(stripes, s, 0.8);
    let e = b.infer_least_squares(LsSolver::Iterative);
    let spec = b.finish(e);

    let k = vector_kernel(48, 0.5, 2);
    assert_rejected_at_admission(&k, &spec);
    // Issued directly, the per-stripe batch the spec lowers fails typed.
    let stripes = k
        .split_by_partition(k.root(), &stripe_partition(&[16, 3], 0))
        .unwrap();
    let s = hb(16);
    let reqs: Vec<_> = stripes.iter().map(|&sv| (sv, &s, 0.8)).collect();
    let err = k.vector_laplace_batch(&reqs).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(
        k.measurement_count(),
        0,
        "the first stripe's charge already exceeds the root budget"
    );
}

/// A shared-strategy stripe batch runs as one Kronecker measurement of
/// the split's input. Without the ε for it the plan is refused at
/// admission, and that measurement issued directly fails with the same
/// typed error and charges and records nothing; with enough ε it records
/// one measurement and charges exactly the pre-accounted ε.
#[test]
fn lowered_stripe_batch_exhaustion_charges_nothing() {
    let mut b = PlanBuilder::new();
    let x = b.input();
    let p = b.partition_stripes(&[16, 3], 0);
    let stripes = b.transform_split(x, p);
    let s = b.select_hb_shared(stripes);
    b.measure_laplace_batch_shared(stripes, s, 0.8);
    let e = b.infer_least_squares(LsSolver::Iterative);
    let spec = b.finish(e);

    let k = vector_kernel(48, 0.5, 2);
    assert_rejected_at_admission(&k, &spec);
    let lowered = stripe_select(&[16, 3], 0, hb);
    let err = k.vector_laplace(k.root(), &lowered, 0.8).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(k.measurement_count(), 0);
    assert_eq!(k.budget_spent(), 0.0);

    let k = vector_kernel(48, 1.0, 2);
    let report = PlanExecutor::new(&k).run(&spec, k.root()).unwrap();
    assert_eq!(k.measurement_count(), 1, "the batch ran per stripe");
    assert_eq!(
        report.eps_charged.to_bits(),
        report.eps_pre_accounted.to_bits()
    );
    assert_eq!(k.budget_spent(), 0.8);
}

#[test]
fn partition_class_exhaustion_is_typed_mid_plan() {
    let spec = dawa_striped_spec(&[16, 3], 0, 0.25, 0.75);
    let k = vector_kernel(48, 0.2, 3); // < DAWA's stage-1 share
    assert_rejected_at_admission(&k, &spec);
    // Issued directly, DAWA's stage 1 over the stripes fails typed.
    let stripes = k
        .split_by_partition(k.root(), &stripe_partition(&[16, 3], 0))
        .unwrap();
    let err = dawa_partition_batch(&k, &stripes, 0.25, &DawaOptions::new(0.75), None).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(k.measurement_count(), 0);
}

#[test]
fn select_class_exhaustion_inside_mwem_loop_is_typed() {
    // Rounds charge 0.15 (select) + 0.15 (measure). With ε_tot = 0.4 the
    // loop survives round 1 (0.3 spent) and dies in round 2's *selection*
    // operator — the exponential mechanism's charge — with a typed error.
    let spec = mwem_spec(32, 3, 0.9);
    let k = vector_kernel(32, 0.4, 4);
    assert_rejected_at_admission(&k, &spec);
    let w = Matrix::prefix(32);
    mwem_round(&k, &w, 0.15, 0.15).unwrap();
    let err = mwem_round(&k, &w, 0.15, 0.15).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(
        k.measurement_count(),
        1,
        "round 1's measurement is in, round 2's selection failed"
    );
    assert!((k.budget_spent() - 0.3).abs() < 1e-12);
}

#[test]
fn mwem_measure_exhaustion_mid_round_is_typed() {
    // ε_tot = 0.35: round 2's selection fits (0.45 > 0.35? no —
    // 0.15·3 = 0.45 exceeds; make per-round asymmetric via a direct
    // spec). Selection 0.05 / measurement 0.25: round 1 spends 0.3,
    // round 2's selection reaches 0.35, its *measurement* breaks.
    let mut b = PlanBuilder::new();
    let x = b.input();
    let e = b.mwem_loop(MwemLoopOp {
        input: x,
        workload: Matrix::prefix(32),
        rounds: 3,
        eps_select: 0.05,
        eps_measure: 0.25,
        augment: false,
        inference: MwemRoundInference::MultWeights,
        total: 500.0,
        mw_iterations: 15,
    });
    let spec = b.finish(e);
    let k = vector_kernel(32, 0.35, 5);
    assert_rejected_at_admission(&k, &spec);
    let w = Matrix::prefix(32);
    mwem_round(&k, &w, 0.05, 0.25).unwrap();
    let err = mwem_round(&k, &w, 0.05, 0.25).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(k.measurement_count(), 1);
}

// -------------------------------------------------------------------
// Stability accounting through Transform nodes
// -------------------------------------------------------------------

#[test]
fn stability_scaled_transform_is_pre_accounted_and_enforced() {
    let spec = {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let doubled = b.transform_linear(x, Matrix::scaled(2.0, Matrix::identity(16)));
        let s = b.select_identity(doubled);
        b.measure_laplace(doubled, s, 0.4);
        let e = b.infer_least_squares(LsSolver::Iterative);
        b.finish(e)
    };
    // Pre-accounting sees the 2-stable hop: 0.4 at the source costs 0.8
    // at the root.
    assert_eq!(spec.pre_account().unwrap().total, 0.8);

    // ε_tot = 0.5 < 0.8 → rejected up front, zero kernel effects.
    let k = vector_kernel(16, 0.5, 6);
    assert!(matches!(
        PlanExecutor::new(&k).run(&spec, k.root()),
        Err(EktError::BudgetExceeded { .. })
    ));
    assert_eq!(k.measurement_count(), 0);
    assert_eq!(k.budget_spent(), 0.0);

    // Issued directly, the same calls die inside the measure operator
    // with a typed error — the Transform itself is free but its
    // stability scales the downstream charge.
    let doubled = k
        .transform_linear(k.root(), &Matrix::scaled(2.0, Matrix::identity(16)))
        .unwrap();
    let err = k
        .vector_laplace(doubled, &Matrix::identity(16), 0.4)
        .unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(k.budget_spent(), 0.0);

    // With enough budget it runs, charging exactly the pre-account.
    let k = vector_kernel(16, 1.0, 7);
    let report = PlanExecutor::new(&k).run(&spec, k.root()).unwrap();
    assert_eq!(report.eps_charged, 0.8);
    assert_eq!(k.budget_spent(), 0.8);
}

#[test]
fn executor_scales_pre_account_through_the_input_stability_path() {
    // The plan is budgeted relative to its input; when the input itself
    // sits below a 2-stable transformation, the reservation must cover
    // the root-scaled cost.
    let k = vector_kernel(16, 1.0, 8);
    let derived = k
        .transform_linear(k.root(), &Matrix::scaled(2.0, Matrix::identity(16)))
        .unwrap();
    assert_eq!(k.stability_to_root(derived), 2.0);
    let spec = identity_spec(0.3);
    let report = PlanExecutor::new(&k).run(&spec, derived).unwrap();
    assert_eq!(report.eps_pre_accounted, 0.6);
    assert_eq!(report.eps_charged, 0.6);

    // And a spec that fits input-relative but not root-scaled is
    // rejected up front.
    let spec = identity_spec(0.3);
    let err = PlanExecutor::new(&k).run(&spec, derived).unwrap_err();
    assert!(matches!(err, EktError::BudgetExceeded { .. }));
    assert_eq!(k.measurement_count(), 1, "only the first run measured");
}
