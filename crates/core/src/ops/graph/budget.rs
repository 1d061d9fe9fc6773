//! Static budget pre-accounting: replay the kernel's `Request` procedure
//! (paper Algorithm 2) over a *shadow* source tree derived from the spec
//! alone — no kernel, no data.
//!
//! Soundness rests on two facts the type system and node payloads pin
//! down statically:
//!
//! * **Structure is static.** Every transformation node's arity is known
//!   from the spec: a `Split` consumes a *static* partition (its group
//!   count is in the spec), `ReduceEach` is one child per input, and the
//!   adaptive MWEM loop declares its round count. Data-dependence is
//!   confined to *matrix contents* (which cells a DAWA bucket covers),
//!   never to how many sources exist or how often they are charged.
//! * **Charges are declared.** Every budget-consuming node carries its ε
//!   in the spec. The shadow replay applies the *same* floating-point
//!   arithmetic as `KernelState::request` — including the partition
//!   variable's max-difference rule — so the pre-accounted total equals
//!   the root budget the kernel will actually charge, bit for bit, when
//!   the plan runs on a source whose ancestry carries no prior
//!   parallel-composition credit (an upper bound otherwise).

use crate::kernel::{EktError, Result};

use super::{MeasureOp, NodeKind, PartitionOp, PlanSpec, SelectOp, TransformOp};

/// The outcome of [`PlanSpec::pre_account`]: the worst-case root ε.
#[derive(Clone, Debug)]
pub struct PlanCost {
    /// Worst-case total root ε the plan can charge (relative to the
    /// session input; equals the at-root cost for 1-stable inputs).
    pub total: f64,
}

/// Shadow of the kernel's source tree: parent links, stabilities, budget
/// trackers and the partition-dummy flag — exactly the state Algorithm 2
/// reads.
struct Shadow {
    parent: Vec<Option<usize>>,
    stability: Vec<f64>,
    budget: Vec<f64>,
    dummy: Vec<bool>,
}

impl Shadow {
    fn new() -> Self {
        // Node 0: the session input, treated as the accounting root.
        Shadow {
            parent: vec![None],
            stability: vec![1.0],
            budget: vec![0.0],
            dummy: vec![false],
        }
    }

    fn add(&mut self, parent: usize, stability: f64, dummy: bool) -> usize {
        self.parent.push(Some(parent));
        self.stability.push(stability);
        self.budget.push(0.0);
        self.dummy.push(dummy);
        self.parent.len() - 1
    }

    /// Replays `KernelState::request`; a charge passes no child.
    fn request(&mut self, sv: usize, sigma: f64, from_child: Option<usize>) {
        match self.parent[sv] {
            None => self.budget[sv] += sigma,
            Some(parent) => {
                if self.dummy[sv] {
                    // xlint: allow(panic-policy, reason = "mirror of KernelState::request: dummy nodes are only reached via the recursive call, which always passes Some(child)")
                    let child = from_child.expect("partition variable reached without child");
                    let r = (self.budget[child] + sigma - self.budget[sv]).max(0.0);
                    self.request(parent, r, Some(sv));
                    self.budget[sv] += r;
                } else {
                    let s = self.stability[sv];
                    self.request(parent, s * sigma, Some(sv));
                    self.budget[sv] += sigma;
                }
            }
        }
    }
}

/// What a spec node contributes to the shadow tree.
#[derive(Clone, Debug)]
enum ShadowVal {
    None,
    Source(usize),
    Sources(Vec<usize>),
}

fn positive_eps(eps: f64) -> Result<f64> {
    // `eps <= 0.0` alone would admit NaN (every comparison on NaN is
    // false), and a NaN declared budget poisons the whole reservation
    // ledger downstream — require a strictly positive *finite* value.
    if !eps.is_finite() || eps <= 0.0 {
        return Err(EktError::InvalidArgument(format!(
            "epsilon must be a positive finite number, got {eps}"
        )));
    }
    Ok(eps)
}

fn source(vals: &[ShadowVal], id: usize) -> Result<usize> {
    match &vals[id] {
        ShadowVal::Source(s) => Ok(*s),
        other => Err(EktError::InvalidPlan(format!(
            "node #{id} is not a source (found {other:?})"
        ))),
    }
}

fn sources(vals: &[ShadowVal], id: usize) -> Result<Vec<usize>> {
    match &vals[id] {
        ShadowVal::Sources(s) => Ok(s.clone()),
        other => Err(EktError::InvalidPlan(format!(
            "node #{id} is not a source list (found {other:?})"
        ))),
    }
}

/// The static group count of a partition node (what makes `Split` arity
/// pre-accountable).
fn static_groups(spec: &PlanSpec, partition: usize) -> Result<usize> {
    match &spec.nodes[partition] {
        NodeKind::Partition(PartitionOp::Stripe { sizes, attr }) => stripe_groups(sizes, *attr),
        other => Err(EktError::InvalidPlan(format!(
            "split consumes node #{partition}, which is not a static partition ({other:?})"
        ))),
    }
}

/// Validates a `Stripe(attr)` node; returns `max(1, ∏_{i≠attr} sizes[i])`.
/// The products are checked: a wrapped or beyond-`u32` (CSR column) count
/// would reach the executor as an absurd allocation or a CSR panic.
fn stripe_groups(sizes: &[usize], attr: usize) -> Result<usize> {
    if attr >= sizes.len() {
        return Err(EktError::InvalidPlan(format!(
            "stripe attribute {attr} out of range for {} attributes",
            sizes.len()
        )));
    }
    let product = |skip: usize| {
        let mut kept = sizes.iter().enumerate().filter(|&(i, _)| i != skip);
        kept.try_fold(1usize, |p, (_, &s)| {
            p.checked_mul(s).filter(|&p| p <= u32::MAX as usize)
        })
    };
    match (product(usize::MAX), product(attr)) {
        (Some(_), Some(groups)) => Ok(groups.max(1)),
        _ => Err(EktError::InvalidPlan(format!(
            "stripe domain {sizes:?} exceeds the CSR limit of {} cells",
            u32::MAX
        ))),
    }
}

/// The length of the stripes a `DawaEach` partition list was selected on,
/// when its inputs are a stripe split's children.
fn stripe_len(spec: &PlanSpec, partitions: usize) -> Option<usize> {
    let NodeKind::Partition(PartitionOp::DawaEach { inputs, .. }) = &spec.nodes[partitions] else {
        return None;
    };
    let NodeKind::Transform(TransformOp::Split { partition, .. }) = &spec.nodes[inputs.id] else {
        return None;
    };
    match &spec.nodes[partition.id] {
        NodeKind::Partition(PartitionOp::Stripe { sizes, attr }) => sizes.get(*attr).copied(),
        _ => None,
    }
}

/// Rejects specs whose node references do not point at strictly earlier
/// nodes of *this* spec (a `Ref` is a bare index — one taken from a
/// different builder, or a corrupted output index, must surface as a
/// typed error, not an out-of-bounds panic during the walk).
fn validate_refs(spec: &PlanSpec) -> Result<()> {
    for (here, node) in spec.nodes.iter().enumerate() {
        if let Some(id) = node.refs().into_iter().find(|&id| id >= here) {
            return Err(EktError::InvalidPlan(format!(
                "node #{here} references node #{id}, which is not an earlier node of this spec \
                 (was the Ref taken from a different builder?)"
            )));
        }
    }
    if spec.output >= spec.nodes.len() {
        return Err(EktError::InvalidPlan(format!(
            "output references node #{}, but the spec has {} nodes",
            spec.output,
            spec.nodes.len()
        )));
    }
    Ok(())
}

/// See [`PlanSpec::pre_account`].
pub(super) fn pre_account(spec: &PlanSpec) -> Result<PlanCost> {
    validate_refs(spec)?;
    let mut shadow = Shadow::new();
    let mut vals: Vec<ShadowVal> = Vec::with_capacity(spec.nodes.len());
    // Whether a measurement-producing node precedes the current one in
    // execution order: an Infer node fits over the session's measurement
    // history, and running it with an empty history is an execution-time
    // panic — reject such specs here, statically.
    let mut measured = false;

    for (id, node) in spec.nodes.iter().enumerate() {
        let val = match node {
            NodeKind::Input => ShadowVal::Source(0),
            NodeKind::Transform(TransformOp::Split { input, partition }) => {
                let src = source(&vals, input.id)?;
                let groups = static_groups(spec, partition.id)?;
                let dummy = shadow.add(src, 1.0, true);
                ShadowVal::Sources((0..groups).map(|_| shadow.add(dummy, 1.0, false)).collect())
            }
            NodeKind::Transform(TransformOp::ReduceEach { inputs, .. }) => {
                let srcs = sources(&vals, inputs.id)?;
                ShadowVal::Sources(
                    srcs.into_iter()
                        .map(|s| shadow.add(s, 1.0, false))
                        .collect(),
                )
            }
            NodeKind::Transform(TransformOp::Linear { input, matrix }) => {
                let src = source(&vals, input.id)?;
                // Declared ε values are validated elsewhere; the other
                // number entering the cost arithmetic is this stability
                // factor. A NaN/∞ entry in the transform matrix would
                // otherwise propagate into `PlanCost.total`, and a
                // costing service comparing `total <= budget` on NaN
                // gets a vacuously-false answer instead of an error.
                let stability = matrix.l1_sensitivity();
                if !stability.is_finite() {
                    return Err(EktError::InvalidPlan(format!(
                        "transform node #{id} has non-finite stability {stability}"
                    )));
                }
                ShadowVal::Source(shadow.add(src, stability, false))
            }
            NodeKind::Partition(PartitionOp::DawaEach { inputs, eps, .. }) => {
                let eps = positive_eps(*eps)?;
                for s in sources(&vals, inputs.id)? {
                    shadow.request(s, eps, None);
                }
                ShadowVal::None
            }
            NodeKind::Partition(PartitionOp::Stripe { sizes, attr }) => {
                // Validated here (not only when a Split consumes it) so a
                // malformed node surfaces as a typed error instead of an
                // execution-time panic in `stripe_partition`.
                stripe_groups(sizes, *attr)?;
                ShadowVal::None
            }
            NodeKind::Select(SelectOp::GreedyHEach {
                partitions, ranges, ..
            }) => {
                // Each range is mapped onto the buckets of its stripe's
                // partition, which needs it non-empty and inside the
                // stripe; the stripe length is known when the partitions
                // were selected on a stripe split.
                let len = stripe_len(spec, partitions.id);
                let outside =
                    |&&(lo, hi): &&(usize, usize)| lo >= hi || len.is_some_and(|n| hi > n);
                if let Some((lo, hi)) = ranges.iter().find(outside) {
                    return Err(EktError::InvalidPlan(format!(
                        "select node #{id} has the range [{lo}, {hi}), which is empty or \
                         outside its {} stripe",
                        len.map_or_else(|| "unsized".to_string(), |n| format!("{n}-cell"))
                    )));
                }
                ShadowVal::None
            }
            NodeKind::Select(_) => ShadowVal::None,
            NodeKind::Infer(_) => {
                // An Infer node fits the measurements recorded so far; a
                // spec where none can exist would panic at execution
                // ("inference with no measurements") — surface it as a
                // typed error before any kernel call instead.
                if !measured {
                    return Err(EktError::InvalidPlan(format!(
                        "inference node #{id} is not preceded by any measurement-producing \
                         node, so it would run over an empty measurement history"
                    )));
                }
                ShadowVal::None
            }
            NodeKind::Measure(MeasureOp::Laplace { input, eps, .. }) => {
                let eps = positive_eps(*eps)?;
                let src = source(&vals, input.id)?;
                shadow.request(src, eps, None);
                measured = true;
                ShadowVal::None
            }
            NodeKind::Measure(MeasureOp::LaplaceBatch {
                inputs,
                eps,
                strategies,
            }) => {
                let eps = positive_eps(*eps)?;
                // Type-level guarantee a strategy ref exists; nothing to
                // pre-account for it.
                let _ = strategies;
                let srcs = sources(&vals, inputs.id)?;
                // An empty batch records nothing, so it does not satisfy
                // a downstream Infer node's need for history.
                measured |= !srcs.is_empty();
                for s in srcs {
                    shadow.request(s, eps, None);
                }
                ShadowVal::None
            }
            NodeKind::AdaptiveMwem(op) => {
                // Validated unconditionally — a zero-round loop charges
                // nothing, but malformed declared budgets or an empty
                // workload must still surface as typed errors (the
                // "malformed specs are rejected statically" contract
                // does not depend on whether the node happens to run).
                positive_eps(op.eps_select)?;
                positive_eps(op.eps_measure)?;
                // The total seeds the uniform start `total / n` and is
                // the mass multiplicative weights normalizes to: a
                // non-positive one panics inside inference after the
                // first round is charged, and a NaN or ∞ one turns the
                // selection scores into NaN.
                if !op.total.is_finite() || op.total <= 0.0 {
                    return Err(EktError::InvalidArgument(format!(
                        "MWEM total must be a positive finite number, got {}",
                        op.total
                    )));
                }
                if op.workload.rows() == 0 {
                    return Err(EktError::InvalidArgument("empty workload".into()));
                }
                // A round measures the selected row alone. An all-zero row
                // (or one holding NaN) has zero (NaN) sensitivity, which
                // the measurement rejects only after the selection and the
                // earlier rounds spent their budget. The workload is
                // public, so reject the plan here: exactly those rows have
                // a zero or NaN L1 norm in `|W|·1`.
                let norms = op.workload.abs().matvec(&vec![1.0; op.workload.cols()]);
                if let Some(r) = norms.iter().position(|&s| s == 0.0 || s.is_nan()) {
                    return Err(EktError::InvalidPlan(format!(
                        "MWEM workload row {r} has L1 norm {}: measuring it would have zero \
                         or NaN sensitivity",
                        norms[r]
                    )));
                }
                let src = source(&vals, op.input.id)?;
                // A zero-round loop issues no measurements (it returns
                // the uniform estimate without consulting history).
                measured |= op.rounds > 0;
                for _ in 0..op.rounds {
                    // Declared per-round budgets: one selection charge,
                    // one measurement charge — Algorithm 2 order.
                    shadow.request(src, op.eps_select, None);
                    shadow.request(src, op.eps_measure, None);
                }
                ShadowVal::None
            }
        };
        vals.push(val);
    }

    Ok(PlanCost {
        // The root tracker after the replay IS the worst-case total —
        // same accumulation order as the kernel's root node will see.
        total: shadow.budget[0],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::graph::{MwemLoopOp, MwemRoundInference, PlanBuilder};
    use crate::ops::inference::LsSolver;
    use crate::ops::partition::DawaOptions;
    use ektelo_matrix::Matrix;

    #[test]
    fn sequential_measurements_add_up() {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let s1 = b.select_identity(x);
        b.measure_laplace(x, s1, 0.3);
        let s2 = b.select_total(x);
        b.measure_laplace(x, s2, 0.2);
        let e = b.infer_least_squares(LsSolver::Iterative);
        let cost = b.finish(e).pre_account().unwrap();
        assert!((cost.total - 0.5).abs() < 1e-15);
    }

    #[test]
    fn split_siblings_compose_in_parallel() {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let p = b.partition_stripes(&[4, 3, 2], 0);
        let stripes = b.transform_split(x, p);
        let s = b.select_hb_shared(stripes);
        b.measure_laplace_batch_shared(stripes, s, 0.7);
        let e = b.infer_least_squares(LsSolver::Iterative);
        let spec = b.finish(e);
        let cost = spec.pre_account().unwrap();
        // 6 stripes at 0.7 each cost 0.7 total under parallel
        // composition.
        assert_eq!(cost.total, 0.7);
    }

    #[test]
    fn stability_scales_cost() {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let doubled = b.transform_linear(x, Matrix::scaled(2.0, Matrix::identity(8)));
        let s = b.select_identity(doubled);
        b.measure_laplace(doubled, s, 0.25);
        let e = b.infer_least_squares(LsSolver::Iterative);
        let cost = b.finish(e).pre_account().unwrap();
        assert_eq!(cost.total, 0.5, "2-stable transform doubles the charge");
    }

    #[test]
    fn mwem_loop_uses_declared_round_budgets() {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let e = b.mwem_loop(MwemLoopOp {
            input: x,
            workload: Matrix::prefix(16),
            rounds: 5,
            eps_select: 0.1,
            eps_measure: 0.1,
            augment: false,
            inference: MwemRoundInference::MultWeights,
            total: 100.0,
            mw_iterations: 5,
        });
        let cost = b.finish(e).pre_account().unwrap();
        assert!((cost.total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dawa_then_measure_totals_both_stages() {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let p = b.partition_stripes(&[8, 2], 0);
        let stripes = b.transform_split(x, p);
        let parts = b.partition_dawa_each(stripes, 0.25, DawaOptions::new(0.75));
        let reduced = b.transform_reduce_each(stripes, parts);
        let strats = b.select_greedy_h_each(reduced, parts, &[]);
        b.measure_laplace_batch_each(reduced, strats, 0.75);
        let e = b.infer_least_squares(LsSolver::Iterative);
        let cost = b.finish(e).pre_account().unwrap();
        assert!((cost.total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_builder_refs_rejected_not_panicking() {
        // Refs are bare indices; one taken from a bigger spec and fed to
        // a smaller builder must surface as a typed error, not an
        // out-of-bounds panic — a plan-validating service sees arbitrary
        // specs.
        let mut big = PlanBuilder::new();
        let x = big.input();
        let s = big.select_identity(x);
        big.measure_laplace(x, s, 0.1);
        let e_far = big.infer_least_squares(LsSolver::Iterative); // id 3
        let small = PlanBuilder::new();
        let spec = small.finish(e_far); // output index out of range
        assert!(matches!(spec.pre_account(), Err(EktError::InvalidPlan(_))));

        // And a foreign *input* ref inside a node is caught the same way.
        let mut b1 = PlanBuilder::new();
        let x1 = b1.input();
        let s1 = b1.select_identity(x1);
        let far_strategy = {
            let mut b2 = PlanBuilder::new();
            let x2 = b2.input();
            let _ = b2.select_identity(x2);
            let _ = b2.select_identity(x2);
            b2.select_identity(x2) // id 3 — beyond b1's node count there
        };
        b1.measure_laplace(x1, far_strategy, 0.1);
        let _ = s1;
        let e = b1.infer_least_squares(LsSolver::Iterative);
        assert!(matches!(
            b1.finish(e).pre_account(),
            Err(EktError::InvalidPlan(_))
        ));
    }

    #[test]
    fn dangling_stripe_with_bad_attr_rejected_statically() {
        // A malformed Stripe node that no Split consumes must still be
        // caught by pre-accounting (typed error, not an executor panic).
        let mut b = PlanBuilder::new();
        let x = b.input();
        b.partition_stripes(&[4], 1); // attr out of range, never consumed
        let s = b.select_identity(x);
        b.measure_laplace(x, s, 0.1);
        let e = b.infer_least_squares(LsSolver::Iterative);
        assert!(matches!(
            b.finish(e).pre_account(),
            Err(EktError::InvalidPlan(_))
        ));
    }

    #[test]
    fn oversized_stripe_domain_rejected_statically() {
        // ∏ sizes = 2⁸¹ overflows usize; a wrapped product would reach the
        // executor as a bogus group count. Rejected both as a dangling
        // node and as a Split's partition.
        let huge = [1usize << 40, 1 << 40, 2];
        for split in [false, true] {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let p = b.partition_stripes(&huge, 0);
            if split {
                b.transform_split(x, p);
            }
            let s = b.select_identity(x);
            b.measure_laplace(x, s, 0.1);
            let e = b.infer_least_squares(LsSolver::Iterative);
            assert!(matches!(
                b.finish(e).pre_account(),
                Err(EktError::InvalidPlan(msg)) if msg.contains("CSR limit")
            ));
        }
        // Fits usize but not the u32 column index.
        assert!(stripe_groups(&[1 << 16, 1 << 16, 2], 2).is_err());
        assert_eq!(stripe_groups(&[357, 5, 7, 4, 2], 0).unwrap(), 280);
        assert_eq!(stripe_groups(&[5], 0).unwrap(), 1);
    }

    #[test]
    fn non_positive_epsilon_rejected_statically() {
        // Zero, NaN and ∞ all fail `eps <= 0.0`-style guards differently
        // (NaN fails every comparison), so each must be covered: a NaN
        // that reaches the reservation poisons budget enforcement.
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let s = b.select_identity(x);
            b.measure_laplace(x, s, bad);
            let e = b.infer_least_squares(LsSolver::Iterative);
            assert!(
                matches!(b.finish(e).pre_account(), Err(EktError::InvalidArgument(_))),
                "epsilon {bad} must be rejected statically"
            );
        }
    }

    #[test]
    fn non_finite_stability_rejected_statically() {
        // Declared ε values are validated; the transform stability is
        // the other number entering the cost arithmetic. An ∞ must not
        // reach `PlanCost.total`, and a NaN entry must not be skipped:
        // `[[NaN, 1], [5, 0]]` has a true stability of at least 5, and a
        // max-fold that ignored the NaN would pre-account it as 1.
        // `l1_sensitivity` propagates the NaN, so both are rejected.
        for m in [
            Matrix::scaled(f64::INFINITY, Matrix::identity(8)),
            Matrix::from_rows(vec![vec![f64::NAN, 1.0], vec![5.0, 0.0]]),
        ] {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let t = b.transform_linear(x, m);
            let s = b.select_identity(t);
            b.measure_laplace(t, s, 0.1);
            let e = b.infer_least_squares(LsSolver::Iterative);
            assert!(matches!(
                b.finish(e).pre_account(),
                Err(EktError::InvalidPlan(_))
            ));
        }
    }

    #[test]
    fn default_builder_is_equivalent_to_new() {
        // A derived Default would start with an empty node list, so
        // `input()`'s Ref(0) would alias the first operator pushed.
        let mut b = PlanBuilder::default();
        let x = b.input();
        let s = b.select_identity(x);
        b.measure_laplace(x, s, 0.2);
        let e = b.infer_least_squares(LsSolver::Iterative);
        let cost = b.finish(e).pre_account().unwrap();
        assert!((cost.total - 0.2).abs() < 1e-15);
    }

    #[test]
    fn inference_without_measurements_rejected_statically() {
        // A measurement-free spec used to pass pre-accounting (cost 0)
        // and then panic at execution inside the inference operator
        // ("inference with no measurements").
        let mut b = PlanBuilder::new();
        let _x = b.input();
        let e = b.infer_least_squares(LsSolver::Iterative);
        assert!(matches!(
            b.finish(e).pre_account(),
            Err(EktError::InvalidPlan(_))
        ));

        // An Infer node placed *before* the plan's only measure node is
        // equally invalid — execution order is node order.
        let mut b = PlanBuilder::new();
        let x = b.input();
        let e = b.infer_least_squares(LsSolver::Iterative);
        let s = b.select_identity(x);
        b.measure_laplace(x, s, 0.1);
        assert!(matches!(
            b.finish(e).pre_account(),
            Err(EktError::InvalidPlan(_))
        ));

        // A zero-round MWEM loop records no measurements, so it does not
        // license a downstream Infer node either.
        let mut b = PlanBuilder::new();
        let x = b.input();
        let _loop = b.mwem_loop(MwemLoopOp {
            input: x,
            workload: Matrix::prefix(16),
            rounds: 0,
            eps_select: 0.1,
            eps_measure: 0.1,
            augment: false,
            inference: MwemRoundInference::MultWeights,
            total: 100.0,
            mw_iterations: 5,
        });
        let e = b.infer_least_squares(LsSolver::Iterative);
        assert!(matches!(
            b.finish(e).pre_account(),
            Err(EktError::InvalidPlan(_))
        ));
    }

    #[test]
    fn zero_round_mwem_loop_is_still_validated() {
        // rounds == 0 charges nothing, but malformed declared budgets and
        // an empty workload must surface as typed errors regardless.
        let cases: [(f64, f64, Matrix); 4] = [
            (f64::NAN, 0.1, Matrix::prefix(16)),
            (0.1, -1.0, Matrix::prefix(16)),
            (0.1, f64::INFINITY, Matrix::prefix(16)),
            (0.1, 0.1, Matrix::range_queries(16, vec![])), // empty workload
        ];
        for (eps_select, eps_measure, workload) in cases {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let e = b.mwem_loop(MwemLoopOp {
                input: x,
                workload,
                rounds: 0,
                eps_select,
                eps_measure,
                augment: false,
                inference: MwemRoundInference::MultWeights,
                total: 100.0,
                mw_iterations: 5,
            });
            assert!(
                matches!(b.finish(e).pre_account(), Err(EktError::InvalidArgument(_))),
                "zero-round loop with eps_select={eps_select}, eps_measure={eps_measure} \
                 must still fail validation"
            );
        }
    }
}
