//! The plan executor: runs a [`PlanSpec`] against a kernel session.
//!
//! Execution order is the spec's node order, and each node issues
//! *exactly* the kernel calls the imperative plan functions issue — same
//! charges, same privacy-RNG consumption, same measurement history — so
//! a migrated plan is bit-identical to its imperative ancestor given the
//! same kernel seed. One exception: a stripe split read only by one
//! shared-strategy batch (HB-Striped, `PS TP[ SHB LM ] LS`) runs as a
//! single Kronecker measurement of the split's input (see [`lowers`]),
//! with the same rows, sensitivity and charge as the per-stripe batch and
//! the noise drawn in Kronecker row order; the partition and the child
//! sources are then never built.
//!
//! Budget flow: the executor pre-accounts the spec, takes one
//! [`BudgetReservation`] for the whole plan (the rejection point for
//! over-budget specs — zero kernel history entries on failure), then
//! passes the reservation into every charging kernel call. Each charge
//! *redeems* its cost from the reservation's hold atomically with the
//! root-ledger update, under one `KernelState` lock — there is no
//! unlock→charge window at all, so a concurrent session can never take
//! an admitted plan's budget, no matter how long a batch node computes
//! between admission and its charges. On any failure — a typed kernel
//! error, an injected fault, or a panic unwinding out of a batch's
//! exact-answer phase or a solver — dropping the reservation releases
//! exactly the unredeemed remainder: charges already issued stand,
//! nothing else is held.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ektelo_matrix::{ColumnRefinement, CsrMatrix, Matrix};
use ektelo_solvers::{mw_uniform_start, NnlsOptions};

use crate::kernel::{BudgetReservation, EktError, ProtectedKernel, Result, SourceVar};
use crate::ops::inference::{
    known_total_measurement, least_squares, mult_weights_inference,
    non_negative_least_squares_opts, relative_total_scale,
};
use crate::ops::partition::{
    dawa_partition_batch, interval_partition_bounds, map_ranges_to_buckets, stripe_partition,
};
use crate::ops::selection::{self, greedy_h, stripe_select, WorstApprox};

use super::{
    InferOp, MeasureOp, MwemLoopOp, MwemRoundInference, NodeKind, PartitionOp, PlanSpec,
    SelectDomain, SelectOp, StrategySource, TransformOp,
};

/// What executing a plan produced, plus the budget ledger a service logs.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// The plan's estimate of the data vector (output node's value).
    pub x_hat: Vec<f64>,
    /// The rendered Fig. 2 signature of the executed spec.
    pub signature: String,
    /// Worst-case root ε the pre-accounting predicted (scaled through
    /// the input's stability path).
    pub eps_pre_accounted: f64,
    /// Root ε the kernel charged *to this plan*, read from the plan's
    /// own reservation ledger: every charge the executor issues is
    /// attributed to its [`BudgetReservation`], so concurrent sessions
    /// never contaminate the figure. It equals `eps_pre_accounted` bit
    /// for bit — the pre-accounting replays the kernel's exact charge
    /// arithmetic and the ledger accumulates the same root increments
    /// in the same order. (The [`PlanExecutor::unchecked`] path runs
    /// without a reservation and falls back to the global-ledger delta
    /// across the run, which is per-plan only on single-session
    /// kernels.)
    pub eps_charged: f64,
}

/// Runs [`PlanSpec`]s against a [`ProtectedKernel`].
pub struct PlanExecutor<'k> {
    kernel: &'k ProtectedKernel,
    check_budget: bool,
}

/// Execution-time value of a spec node.
#[derive(Debug)]
enum Value {
    None,
    Source(SourceVar),
    Sources(Vec<SourceVar>),
    Strategy(Matrix),
    Strategies(Vec<Matrix>),
    /// A stripe partition, built only when a split materializes.
    Stripes {
        sizes: Vec<usize>,
        attr: usize,
    },
    /// A stripe split of `input` that [`lowers`] to one Kronecker
    /// measurement: no partition and no child sources are ever built.
    LoweredSplit {
        input: SourceVar,
        sizes: Vec<usize>,
        attr: usize,
    },
    Partitions(Vec<Matrix>),
    Estimate(Vec<f64>),
}

fn type_err(id: usize, want: &str, got: &Value) -> EktError {
    EktError::InvalidPlan(format!("node #{id} is not a {want} (found {got:?})"))
}

impl<'k> PlanExecutor<'k> {
    /// An executor with static pre-accounting **on**: over-budget specs
    /// are rejected before any kernel call.
    pub fn new(kernel: &'k ProtectedKernel) -> Self {
        PlanExecutor {
            kernel,
            check_budget: true,
        }
    }

    /// An executor that skips the admission check (budget exhaustion
    /// then surfaces *mid-plan* as the typed kernel error of whichever
    /// operator hits it — the pre-graph behaviour, kept for comparison
    /// and for failure-path tests).
    // xlint: allow(dead-pub, reason = "the unchecked execution path that the one-plan-path work (ROADMAP item 10) removes")
    pub fn unchecked(kernel: &'k ProtectedKernel) -> Self {
        PlanExecutor {
            kernel,
            check_budget: false,
        }
    }

    /// Executes `spec` with `input` bound to the spec's input node.
    ///
    /// # Failure semantics
    ///
    /// Every failure path leaves the kernel consistent: charges issued
    /// before the failure stand (they bought real noise draws), nothing
    /// after it is charged, and the reservation's unredeemed remainder
    /// is released — `budget_reserved()` returns to its pre-plan value.
    /// A panic unwinding out of the plan body (an exact-answer crash, a
    /// solver blow-up) is caught here and surfaced as
    /// [`EktError::ExecutionPanic`] *after* the reservation is dropped,
    /// so even a crashed plan never wedges the ledger.
    pub fn run(&self, spec: &PlanSpec, input: SourceVar) -> Result<ExecReport> {
        // Pre-accounting evaluates public matrices (MWEM's workload row
        // norms), so a malformed one panics here, before anything is
        // reserved.
        let cost = catch_unwind(|| spec.pre_account())
            .map_err(|payload| EktError::ExecutionPanic(panic_message(&*payload)))??;
        let path = self.kernel.stability_to_root(input);
        let reservation = if self.check_budget {
            Some(self.kernel.reserve_budget(cost.total * path)?)
        } else {
            None
        };
        let spent_before = self.kernel.budget_spent();
        let run = Run {
            kernel: self.kernel,
            spec,
            reservation,
            start: self.kernel.measurement_count(),
        };
        // AssertUnwindSafe rests on where a panic can happen. Operator
        // code never runs under the kernel's state lock: measurements,
        // partition selections and query selections compute on
        // snapshots taken under it, and the solvers run on the public
        // history. The lock guards only charges, noise draws, history
        // records and node registration, each acquisition's mutations are
        // transactional, and an unwind leaves the lock unpoisoned. So
        // after a caught panic the kernel `run` borrows is consistent,
        // and `run` itself is dropped below without being touched again.
        let outcome = catch_unwind(AssertUnwindSafe(|| run.execute(input)));
        let x_hat = match outcome {
            Ok(result) => result?,
            Err(payload) => {
                // Release the unredeemed remainder before reporting, so
                // the caller observes a clean ledger from the error
                // handler onwards.
                drop(run);
                return Err(EktError::ExecutionPanic(panic_message(&*payload)));
            }
        };
        let eps_charged = match &run.reservation {
            Some(res) => res.charged(),
            None => self.kernel.budget_spent() - spent_before,
        };
        Ok(ExecReport {
            x_hat,
            signature: spec.signature(),
            eps_pre_accounted: cost.total * path,
            eps_charged,
        })
    }
}

/// Whether split node `id` runs as one Kronecker measurement (EKTELO
/// Algorithm 5 → 6): its partition is a stripe partition over positive
/// sizes, exactly one shared-strategy batch measures its stripes, and no
/// other node reads them except selections sizing from the first. Every
/// stripe then gets the same strategy `S`, so the batch's rows are the
/// rows of `stripe_select(sizes, attr, S)` on the split's input, with the
/// same sensitivity `‖S‖₁` and the same ε charged at the input — the
/// split would charge ε to the first stripe and 0 to the rest through
/// its partition variable. Only the order of the noise draws differs.
/// A split that anything else reads (DAWA's `PD`, `TR`, `SG`, a second
/// batch) is materialized: the split form's per-stripe charges are what
/// pre-accounting replays.
fn lowers(spec: &PlanSpec, id: usize) -> bool {
    let NodeKind::Transform(TransformOp::Split { partition, .. }) = &spec.nodes[id] else {
        return false;
    };
    let positive = matches!(
        &spec.nodes[partition.id],
        NodeKind::Partition(PartitionOp::Stripe { sizes, .. }) if sizes.iter().all(|&s| s > 0)
    );
    let mut batches = 0;
    for node in &spec.nodes[id + 1..] {
        match node {
            NodeKind::Measure(MeasureOp::LaplaceBatch {
                inputs,
                strategies: StrategySource::Shared(_),
                ..
            }) if inputs.id == id => batches += 1,
            // A size-parameterized selection reads only the stripe length.
            NodeKind::Select(op) if op.domain().is_some() => {}
            other if other.refs().contains(&id) => return false,
            _ => {}
        }
    }
    positive && batches == 1
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted `String` — everything the codebase and
/// the fault-injection sites produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One in-flight execution.
struct Run<'a, 'k> {
    kernel: &'k ProtectedKernel,
    spec: &'a PlanSpec,
    reservation: Option<BudgetReservation<'k>>,
    /// Measurement-history index at session start; inference nodes see
    /// only this session's measurements.
    start: usize,
}

impl<'k> Run<'_, 'k> {
    /// The reservation every charging kernel call redeems against
    /// (`None` on the unchecked path — charges then compete for open
    /// budget like imperative plans).
    fn res(&self) -> Option<&BudgetReservation<'k>> {
        self.reservation.as_ref()
    }

    fn source(&self, vals: &[Value], id: usize) -> Result<SourceVar> {
        match &vals[id] {
            Value::Source(sv) => Ok(*sv),
            other => Err(type_err(id, "source", other)),
        }
    }

    fn sources<'v>(&self, vals: &'v [Value], id: usize) -> Result<&'v [SourceVar]> {
        match &vals[id] {
            Value::Sources(s) => Ok(s),
            other => Err(type_err(id, "source list", other)),
        }
    }

    fn domain_len(&self, vals: &[Value], domain: &SelectDomain) -> Result<usize> {
        let sv = match domain {
            SelectDomain::Source(r) => self.source(vals, r.id)?,
            SelectDomain::FirstOf(r) => match &vals[r.id] {
                // Every stripe has `sizes[attr]` cells.
                Value::LoweredSplit { sizes, attr, .. } => return Ok(sizes[*attr]),
                _ => *self
                    .sources(vals, r.id)?
                    .first()
                    .ok_or_else(|| EktError::InvalidPlan("empty source list".into()))?,
            },
        };
        self.kernel.vector_len(sv)
    }

    fn execute(&self, input: SourceVar) -> Result<Vec<f64>> {
        let kernel = self.kernel;
        let mut vals: Vec<Value> = Vec::with_capacity(self.spec.nodes.len());
        for (id, node) in self.spec.nodes.iter().enumerate() {
            let val = match node {
                NodeKind::Input => Value::Source(input),

                NodeKind::Partition(PartitionOp::Stripe { sizes, attr }) => Value::Stripes {
                    sizes: sizes.clone(),
                    attr: *attr,
                },
                NodeKind::Partition(PartitionOp::DawaEach { inputs, eps, opts }) => {
                    let svs = self.sources(&vals, inputs.id)?.to_vec();
                    Value::Partitions(dawa_partition_batch(kernel, &svs, *eps, opts, self.res())?)
                }

                NodeKind::Transform(TransformOp::Split { input, partition }) => {
                    let sv = self.source(&vals, input.id)?;
                    let (sizes, attr) = match &vals[partition.id] {
                        Value::Stripes { sizes, attr } => (sizes, *attr),
                        other => return Err(type_err(partition.id, "partition", other)),
                    };
                    if lowers(self.spec, id) {
                        Value::LoweredSplit {
                            input: sv,
                            sizes: sizes.clone(),
                            attr,
                        }
                    } else {
                        let p = stripe_partition(sizes, attr);
                        Value::Sources(kernel.split_by_partition(sv, &p)?)
                    }
                }
                NodeKind::Transform(TransformOp::ReduceEach { inputs, partitions }) => {
                    let svs = self.sources(&vals, inputs.id)?.to_vec();
                    let ps = match &vals[partitions.id] {
                        Value::Partitions(p) => p,
                        other => return Err(type_err(partitions.id, "partition list", other)),
                    };
                    if svs.len() != ps.len() {
                        return Err(EktError::InvalidPlan(format!(
                            "reduce-each over {} sources but {} partitions",
                            svs.len(),
                            ps.len()
                        )));
                    }
                    Value::Sources(
                        svs.iter()
                            .zip(ps)
                            .map(|(&sv, p)| kernel.reduce_by_partition(sv, p))
                            .collect::<Result<_>>()?,
                    )
                }
                NodeKind::Transform(TransformOp::Linear { input, matrix }) => {
                    let sv = self.source(&vals, input.id)?;
                    Value::Source(kernel.transform_linear(sv, matrix)?)
                }

                NodeKind::Select(op) => self.eval_select(&vals, op)?,

                NodeKind::Measure(MeasureOp::Laplace {
                    input,
                    strategy,
                    eps,
                }) => {
                    let sv = self.source(&vals, input.id)?;
                    let m = match &vals[strategy.id] {
                        Value::Strategy(m) => m,
                        other => return Err(type_err(strategy.id, "strategy", other)),
                    };
                    kernel.vector_laplace_batch_in(&[(sv, m, *eps)], self.res())?;
                    Value::None
                }
                NodeKind::Measure(MeasureOp::LaplaceBatch {
                    inputs,
                    strategies,
                    eps,
                }) => {
                    match strategies {
                        StrategySource::Shared(s) => {
                            let m = match &vals[s.id] {
                                Value::Strategy(m) => m,
                                other => return Err(type_err(s.id, "strategy", other)),
                            };
                            if let Value::LoweredSplit { input, sizes, attr } = &vals[inputs.id] {
                                // Every stripe's rows, in Kronecker order:
                                // one measurement of the split's input. The
                                // kernel checks the input against
                                // `∏ sizes` once the strategy fits a stripe.
                                if m.cols() != sizes[*attr] {
                                    return Err(EktError::ShapeMismatch {
                                        expected: sizes[*attr],
                                        found: m.cols(),
                                    });
                                }
                                let kron = stripe_select(sizes, *attr, |_| m.clone());
                                kernel.vector_laplace_batch_in(
                                    &[(*input, &kron, *eps)],
                                    self.res(),
                                )?;
                            } else {
                                let reqs: Vec<(SourceVar, &Matrix, f64)> = self
                                    .sources(&vals, inputs.id)?
                                    .iter()
                                    .map(|&sv| (sv, m, *eps))
                                    .collect();
                                kernel.vector_laplace_batch_in(&reqs, self.res())?;
                            }
                        }
                        StrategySource::PerSource(s) => {
                            let svs = self.sources(&vals, inputs.id)?;
                            let ms = match &vals[s.id] {
                                Value::Strategies(ms) => ms,
                                other => return Err(type_err(s.id, "strategy list", other)),
                            };
                            if svs.len() != ms.len() {
                                return Err(EktError::InvalidPlan(format!(
                                    "batch over {} sources but {} strategies",
                                    svs.len(),
                                    ms.len()
                                )));
                            }
                            let reqs: Vec<(SourceVar, &Matrix, f64)> =
                                svs.iter().zip(ms).map(|(&sv, m)| (sv, m, *eps)).collect();
                            kernel.vector_laplace_batch_in(&reqs, self.res())?;
                        }
                    }
                    Value::None
                }

                NodeKind::Infer(InferOp::LeastSquares { solver }) => Value::Estimate(
                    least_squares(&kernel.measurements_since(self.start), *solver),
                ),
                NodeKind::Infer(InferOp::Nnls) => Value::Estimate(non_negative_least_squares_opts(
                    &kernel.measurements_since(self.start),
                    &NnlsOptions::default(),
                )),

                NodeKind::AdaptiveMwem(op) => {
                    Value::Estimate(self.run_mwem_loop(&vals, op, input)?)
                }
            };
            vals.push(val);
        }

        match std::mem::replace(&mut vals[self.spec.output], Value::None) {
            Value::Estimate(x_hat) => Ok(x_hat),
            other => Err(type_err(self.spec.output, "estimate", &other)),
        }
    }

    fn eval_select(&self, vals: &[Value], op: &SelectOp) -> Result<Value> {
        Ok(match op {
            SelectOp::Identity { domain } => {
                Value::Strategy(selection::identity(self.domain_len(vals, domain)?))
            }
            SelectOp::Total { domain } => {
                Value::Strategy(selection::total(self.domain_len(vals, domain)?))
            }
            SelectOp::Privelet { domain } => {
                Value::Strategy(selection::privelet(self.domain_len(vals, domain)?))
            }
            SelectOp::H2 { domain } => {
                Value::Strategy(selection::h2(self.domain_len(vals, domain)?))
            }
            SelectOp::Hb { domain } => {
                Value::Strategy(selection::hb(self.domain_len(vals, domain)?))
            }
            SelectOp::GreedyH { domain, ranges } => {
                Value::Strategy(greedy_h(self.domain_len(vals, domain)?, ranges))
            }
            SelectOp::GreedyHEach {
                inputs,
                partitions,
                ranges,
            } => {
                let svs = self.sources(vals, inputs.id)?;
                let ps = match &vals[partitions.id] {
                    Value::Partitions(p) => p,
                    other => return Err(type_err(partitions.id, "partition list", other)),
                };
                // Pure public compute, one Greedy-H per stripe.
                let mut strategies = Vec::with_capacity(svs.len());
                for (&sv, p) in svs.iter().zip(ps) {
                    let groups = self.kernel.vector_len(sv)?;
                    let bounds = interval_partition_bounds(p);
                    strategies.push(greedy_h(groups, &map_ranges_to_buckets(ranges, &bounds)));
                }
                Value::Strategies(strategies)
            }
            SelectOp::Fixed { matrix, .. } => Value::Strategy(matrix.clone()),
        })
    }

    /// MWEM's adaptive loop — an exact port of the imperative
    /// `plan_mwem` body, with every round's charges redeemed from the
    /// plan reservation. Budget exhaustion inside the loop (only
    /// reachable without pre-accounting or under external drain)
    /// surfaces as the selection or measurement operator's typed error.
    fn run_mwem_loop(
        &self,
        vals: &[Value],
        op: &MwemLoopOp,
        session_input: SourceVar,
    ) -> Result<Vec<f64>> {
        let kernel = self.kernel;
        let x = self.source(vals, op.input.id)?;
        let n = kernel.vector_len(x)?;
        let mut x_hat = vec![op.total / n as f64; n];
        // MW restarts from the uniform estimate every round: its
        // normalized value per cell is computed once for the plan, and the
        // passes expand their result into `x_hat` in place.
        let mw_start = mw_uniform_start(n, op.total);
        // The selection state keeps the truth answers `W·x` while the
        // rounds' snapshots are the same source data; it is dropped, with
        // them, when the loop returns.
        let mut select = WorstApprox::new(&op.workload);
        // The column classes of the session's first `refined`
        // measurements, kept across rounds and refined by each round's new
        // queries only; MW starts uniform every round, so no key splits
        // them. `reducible` turns false for good once a query has a shape
        // the refinement does not take.
        let mut refinement: Option<ColumnRefinement> = None;
        let (mut refined, mut reducible) = (0, true);
        for round in 0..op.rounds {
            // SW: worst-approximated workload query (exponential
            // mechanism).
            let idx = select.select(kernel, x, &x_hat, 1.0, op.eps_select, self.res())?;
            // A `Range` workload's row is one interval, built as CSR
            // directly; augmentation, and every other workload, reads the
            // dense row.
            let strategy = match &op.workload {
                Matrix::Range(r) if !op.augment => {
                    let (lo, hi) = r.range(idx);
                    Matrix::sparse(CsrMatrix::interval_row(r.domain(), lo, hi))
                }
                workload => {
                    let row = workload.row(idx);
                    let selected = mwem_row_strategy(n, &row);
                    if op.augment {
                        mwem_augment_with_level(&selected, &row, n, round)
                    } else {
                        selected
                    }
                }
            };
            // LM: the strategy has sensitivity 1 by construction
            // (disjoint augmentation), so measuring costs eps_measure.
            kernel.vector_laplace_batch_in(&[(x, &strategy, op.eps_measure)], self.res())?;

            // Per-round inference over all session measurements so far.
            let measurements = kernel.measurements_since(self.start);
            match op.inference {
                MwemRoundInference::MultWeights => {
                    for m in &measurements[refined..] {
                        let r = refinement
                            .get_or_insert_with(|| ColumnRefinement::new(m.query.cols(), None));
                        reducible = reducible && r.refine(&m.query).is_some();
                    }
                    refined = measurements.len();
                    let classes = refinement
                        .as_ref()
                        .filter(|_| reducible)
                        .and_then(ColumnRefinement::classes);
                    mult_weights_inference(
                        &measurements,
                        op.total,
                        mw_start,
                        classes.as_ref(),
                        op.mw_iterations,
                        &mut x_hat,
                    );
                }
                MwemRoundInference::NnlsKnownTotal => {
                    let cols = measurements[0].query.cols();
                    let scale = relative_total_scale(&measurements);
                    let mut ms = measurements;
                    ms.push(known_total_measurement(
                        cols,
                        op.total,
                        session_input,
                        scale,
                    ));
                    x_hat = non_negative_least_squares_opts(
                        &ms,
                        &NnlsOptions {
                            max_iters: 600,
                            tol: 1e-7,
                        },
                    );
                }
            }
        }
        Ok(x_hat)
    }
}

/// The single-row strategy MWEM measures in a round: workload row `row`
/// as a `1 × n` sparse matrix.
pub fn mwem_row_strategy(n: usize, row: &[f64]) -> Matrix {
    assert_eq!(row.len(), n, "workload row length must equal the domain");
    Matrix::sparse(CsrMatrix::from_row(row))
}

/// MWEM variant b's augmentation: in round `r`, add all dyadic intervals
/// of length `2^r` that do not intersect the selected query's support.
/// The union still has L1 sensitivity 1 (disjoint supports), so the
/// measurement is free relative to the un-augmented plan.
// xlint: allow(dead-pub, reason = "the plans crate's MWEM tests pin its sensitivity at one")
pub fn mwem_augment_with_level(selected: &Matrix, row: &[f64], n: usize, round: usize) -> Matrix {
    let len = 1usize << round.min(62);
    if len > n {
        return selected.clone();
    }
    let mut extra = Vec::new();
    let mut lo = 0;
    while lo + len <= n {
        let hi = lo + len;
        let intersects = row[lo..hi].iter().any(|&v| v != 0.0);
        if !intersects {
            extra.push((lo, hi));
        }
        lo += len;
    }
    if extra.is_empty() {
        selected.clone()
    } else {
        Matrix::vstack(vec![selected.clone(), Matrix::range_queries(n, extra)])
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ops::graph::PlanBuilder;
    use crate::ops::inference::LsSolver;
    use crate::ops::partition::DawaOptions;

    fn identity_spec(eps: f64) -> PlanSpec {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let s = b.select_identity(x);
        b.measure_laplace(x, s, eps);
        let e = b.infer_least_squares(LsSolver::Iterative);
        b.finish(e)
    }

    #[test]
    fn executes_and_charges_exactly_the_preaccounted_budget() {
        let k = ProtectedKernel::init_from_vector(vec![10.0; 16], 1.0, 9);
        let spec = identity_spec(0.75);
        let report = PlanExecutor::new(&k).run(&spec, k.root()).unwrap();
        assert_eq!(report.x_hat.len(), 16);
        assert_eq!(report.eps_pre_accounted, report.eps_charged);
        assert_eq!(k.budget_spent(), 0.75);
        assert_eq!(k.budget_reserved(), 0.0, "reservation fully unlocked");
    }

    #[test]
    fn over_budget_spec_rejected_with_zero_history() {
        let k = ProtectedKernel::init_from_vector(vec![10.0; 16], 0.5, 9);
        let spec = identity_spec(0.75);
        let err = PlanExecutor::new(&k).run(&spec, k.root()).unwrap_err();
        assert!(matches!(err, EktError::BudgetExceeded { .. }));
        assert_eq!(k.measurement_count(), 0, "no kernel history entries");
        assert_eq!(k.budget_spent(), 0.0);
        assert_eq!(k.budget_reserved(), 0.0, "failed admission holds nothing");
    }

    #[test]
    fn unchecked_executor_hits_the_kernel_error_mid_plan() {
        let k = ProtectedKernel::init_from_vector(vec![10.0; 16], 0.5, 9);
        let spec = identity_spec(0.75);
        let err = PlanExecutor::unchecked(&k)
            .run(&spec, k.root())
            .unwrap_err();
        assert!(matches!(err, EktError::BudgetExceeded { .. }));
    }

    #[test]
    fn execution_panic_reports_the_panic_message() {
        // A hand-built product whose inner dimensions disagree (4 vs 5)
        // passes every shape check on its outer shape, then panics in
        // the engine when pre-accounting first evaluates it (the
        // workload's row norms), before anything is reserved.
        let workload = Matrix::Product(
            Arc::new(Matrix::from_rows(vec![vec![1.0; 5]; 3])),
            Arc::new(Matrix::ones(4, 16)),
        );
        let mut b = PlanBuilder::new();
        let x = b.input();
        let e = b.mwem_loop(MwemLoopOp {
            input: x,
            workload,
            rounds: 1,
            eps_select: 0.1,
            eps_measure: 0.1,
            augment: false,
            inference: MwemRoundInference::MultWeights,
            total: 160.0,
            mw_iterations: 5,
        });
        let spec = b.finish(e);
        let k = ProtectedKernel::init_from_vector(vec![10.0; 16], 1.0, 9);
        let err = PlanExecutor::new(&k).run(&spec, k.root()).unwrap_err();
        let EktError::ExecutionPanic(msg) = err else {
            panic!("expected ExecutionPanic, got {err:?}");
        };
        assert!(
            msg.contains("matvec dimension mismatch"),
            "panic text lost: {msg:?}"
        );
        assert_eq!(k.budget_reserved(), 0.0);
    }

    #[test]
    fn invalid_mwem_totals_are_rejected_before_any_charge() {
        let k = ProtectedKernel::init_from_vector(vec![10.0; 16], 1.0, 9);
        let mwem = |total, inference| {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let e = b.mwem_loop(MwemLoopOp {
                input: x,
                workload: Matrix::prefix(16),
                rounds: 2,
                eps_select: 0.1,
                eps_measure: 0.1,
                augment: false,
                inference,
                total,
                mw_iterations: 5,
            });
            b.finish(e)
        };
        let inferences = [
            MwemRoundInference::MultWeights,
            MwemRoundInference::NnlsKnownTotal,
        ];
        for total in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            for inference in inferences {
                let err = PlanExecutor::new(&k)
                    .run(&mwem(total, inference), k.root())
                    .unwrap_err();
                assert!(
                    matches!(err, EktError::InvalidArgument(_)),
                    "total {total} with {inference:?}: {err:?}"
                );
                assert_eq!(k.budget_spent(), 0.0, "total {total} was charged");
                assert_eq!(k.budget_reserved(), 0.0);
                assert_eq!(k.measurement_count(), 0, "total {total} measured");
            }
        }
        // The kernel is untouched: a valid loop runs and charges in full.
        for inference in inferences {
            let report = PlanExecutor::new(&k)
                .run(&mwem(160.0, inference), k.root())
                .unwrap();
            assert_eq!(report.eps_charged, report.eps_pre_accounted);
        }
        assert_eq!(k.measurement_count(), 4);
    }

    #[test]
    fn mwem_workload_with_a_zero_row_is_rejected_before_any_charge() {
        // Selecting the zero row used to fail the measurement after
        // earlier rounds had spent most of the budget.
        let zero_row = Matrix::vstack(vec![
            Matrix::range_queries(16, vec![(0, 4)]),
            Matrix::scaled(0.0, Matrix::total(16)),
        ]);
        let nan_row = Matrix::from_rows(vec![vec![1.0; 16], {
            let mut row = vec![0.0; 16];
            row[3] = f64::NAN;
            row
        }]);
        for (workload, augment) in [(zero_row, false), (zero_row_b(), true), (nan_row, false)] {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let e = b.mwem_loop(MwemLoopOp {
                input: x,
                workload,
                rounds: 10,
                eps_select: 0.05,
                eps_measure: 0.05,
                augment,
                inference: MwemRoundInference::MultWeights,
                total: 160.0,
                mw_iterations: 5,
            });
            let spec = b.finish(e);
            assert!(matches!(spec.pre_account(), Err(EktError::InvalidPlan(_))));
            for seed in 0..8 {
                let k = ProtectedKernel::init_from_vector(vec![10.0; 16], 1.0, seed);
                let err = PlanExecutor::new(&k).run(&spec, k.root()).unwrap_err();
                assert!(matches!(err, EktError::InvalidPlan(_)), "{err:?}");
                assert_eq!(k.budget_spent(), 0.0);
                assert_eq!(k.budget_reserved(), 0.0);
                assert_eq!(k.measurement_count(), 0);
            }
        }

        /// Variant b's shape: a sparse zero row stored explicitly.
        fn zero_row_b() -> Matrix {
            Matrix::vstack(vec![
                Matrix::prefix(16),
                Matrix::sparse(CsrMatrix::from_triplets(1, 16, &[(0, 2, 0.0)])),
            ])
        }
    }

    #[test]
    fn malformed_stripe_ranges_are_rejected_before_any_charge() {
        // DAWA-Striped on [32, 3, 2] at ε 0.8: stage 1 charges 0.2 before
        // the ranges are mapped onto each stripe's buckets. An empty
        // range used to panic there (a wrapped `hi - 1` in release), and
        // inverted or out-of-stripe ones ran.
        let spec = |ranges: &[(usize, usize)]| {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let p = b.partition_stripes(&[32, 3, 2], 0);
            let stripes = b.transform_split(x, p);
            let parts = b.partition_dawa_each(stripes, 0.2, DawaOptions::new(0.6));
            let reduced = b.transform_reduce_each(stripes, parts);
            let strats = b.select_greedy_h_each(reduced, parts, ranges);
            b.measure_laplace_batch_each(reduced, strats, 0.6);
            let e = b.infer_least_squares(LsSolver::Iterative);
            b.finish(e)
        };
        let x: Vec<f64> = (0..192).map(|i| (i % 7) as f64).collect();
        for ranges in [[(0, 0)], [(7, 3)], [(40, 50)]] {
            let k = ProtectedKernel::init_from_vector(x.clone(), 1.0, 3);
            let err = PlanExecutor::new(&k)
                .run(&spec(&ranges), k.root())
                .unwrap_err();
            assert!(
                matches!(err, EktError::InvalidPlan(_)),
                "{ranges:?}: {err:?}"
            );
            assert_eq!(k.budget_spent(), 0.0, "{ranges:?} was charged");
            assert_eq!(k.budget_reserved(), 0.0);
            assert_eq!(k.measurement_count(), 0);
        }
        // Ranges that end at the stripe's end are fine.
        let k = ProtectedKernel::init_from_vector(x, 1.0, 3);
        let report = PlanExecutor::new(&k)
            .run(&spec(&[(0, 32), (31, 32)]), k.root())
            .unwrap();
        assert_eq!(report.eps_charged, report.eps_pre_accounted);
    }

    #[test]
    fn mwem_row_strategy_equals_the_triplet_build() {
        let rows = [
            vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
            vec![-0.0, 2.5, 0.0, -3.0, 0.0, 1.0],
            vec![0.0; 6],
            vec![1.0; 6],
        ];
        for row in rows {
            let triplets: Vec<(usize, usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(j, &v)| (0, j, v))
                .collect();
            let Matrix::Sparse(built) = mwem_row_strategy(6, &row) else {
                panic!("the row strategy is sparse");
            };
            assert_eq!(*built, CsrMatrix::from_triplets(1, 6, &triplets));
        }
    }

    #[test]
    fn executor_matches_imperative_call_sequence_bitwise() {
        // The graph path and a hand-written imperative plan on equally
        // seeded kernels must draw identical noise.
        let imperative = {
            let k = ProtectedKernel::init_from_vector(vec![7.0; 8], 1.0, 42);
            k.vector_laplace(k.root(), &Matrix::identity(8), 1.0)
                .unwrap();
            least_squares(&k.measurements(), LsSolver::Iterative)
        };
        let graph = {
            let k = ProtectedKernel::init_from_vector(vec![7.0; 8], 1.0, 42);
            PlanExecutor::new(&k)
                .run(&identity_spec(1.0), k.root())
                .unwrap()
                .x_hat
        };
        assert_eq!(imperative, graph);
    }
}
