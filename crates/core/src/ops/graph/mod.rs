//! Plans as data: a typed operator-graph API (paper §3–§5).
//!
//! EKTELO's central claim is that DP computations should be *plans* —
//! inspectable compositions of vetted operators from five fixed classes
//! (Transformation, Query, Query selection, Partition selection,
//! Inference). A plan written as Rust that calls the kernel is opaque:
//! nothing can introspect, cost or validate it before it touches the
//! kernel. This module makes plans first-class data, and every vector
//! plan in `ektelo-plans` is built with it:
//!
//! * [`PlanSpec`] — a DAG of class-tagged operator nodes, built through
//!   the typed [`PlanBuilder`] (references are type-checked at compile
//!   time: a measure node cannot consume a partition output, a split can
//!   only consume a *static* partition whose arity is known up front).
//! * [`PlanSpec::pre_account`] — **static budget pre-accounting**: walks
//!   the spec and replays the kernel's `Request` algorithm (Algorithm 2)
//!   over a shadow source tree, computing the exact worst-case root ε the
//!   plan can charge — data-independent parts exactly, adaptive loops via
//!   their declared per-round budgets — *before any kernel call*.
//! * [`PlanExecutor`] — runs a spec against a
//!   [`crate::ProtectedKernel`] session: it pre-accounts, takes a
//!   [`crate::kernel::BudgetReservation`] for the
//!   whole plan (rejecting over-budget specs with zero kernel history
//!   entries), then executes node by node; every charge redeems its
//!   cost from the reservation atomically with the root-ledger update,
//!   so no other session can ever take an admitted plan's budget.
//! * [`PlanSpec::signature`] — renders the paper's Fig. 2 signature
//!   string (e.g. `I:( SW LM MW )`) from the graph, for logging and
//!   plan-catalogue comparison.
//!
//! ```
//! use ektelo_core::kernel::ProtectedKernel;
//! use ektelo_core::ops::graph::{PlanBuilder, PlanExecutor};
//! use ektelo_core::ops::inference::LsSolver;
//!
//! let mut b = PlanBuilder::new();
//! let x = b.input();
//! let s = b.select_identity(x);
//! b.measure_laplace(x, s, 1.0);
//! let e = b.infer_least_squares(LsSolver::Iterative);
//! let spec = b.finish(e);
//!
//! assert_eq!(spec.signature(), "SI LM LS");
//! assert_eq!(spec.pre_account().unwrap().total, 1.0);
//!
//! let k = ProtectedKernel::init_from_vector(vec![5.0; 8], 1.0, 3);
//! let report = PlanExecutor::new(&k).run(&spec, k.root()).unwrap();
//! assert_eq!(report.x_hat.len(), 8);
//! assert_eq!(report.eps_charged, 1.0);
//! ```

mod budget;
mod exec;

pub use budget::PlanCost;
pub use exec::mwem_row_strategy;
pub use exec::{ExecReport, PlanExecutor};

use std::marker::PhantomData;

use ektelo_matrix::Matrix;

use crate::kernel::Result;
use crate::ops::inference::LsSolver;
use crate::ops::partition::DawaOptions;

// ---------------------------------------------------------------------
// Operator classes and the `Operator` trait
// ---------------------------------------------------------------------

/// The paper's five operator classes (Fig. 1). Every node of a
/// [`PlanSpec`] is tagged with the class of the operator it applies, so
/// a service can validate plans structurally ("no Measure before the
/// budget check", "Infer nodes never touch the kernel") without running
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Transformations: derive new protected sources (Private).
    Transform,
    /// Query operators: measurements that consume budget
    /// (Private→Public).
    Measure,
    /// Query selection: choose *what* to measure.
    Select,
    /// Partition selection: choose *how to group* domain cells.
    Partition,
    /// Inference: derive estimates from recorded measurements (Public).
    Infer,
}

/// Common surface of every operator node: its class tag and its Fig. 2
/// signature token.
pub trait Operator {
    /// The operator class this node belongs to.
    fn class(&self) -> OpClass;
    /// The Fig. 2 signature token (e.g. `"SI"`, `"LM"`, `"PD"`).
    fn token(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// Typed node references
// ---------------------------------------------------------------------

/// A typed reference to the output of an earlier node in the spec being
/// built. The type parameter is a phantom tag ([`SourceTag`] etc.), so
/// the builder's methods only accept outputs of the right kind — the
/// "typed builder" of the operator-graph API.
pub struct Ref<T> {
    pub(crate) id: usize,
    _tag: PhantomData<fn() -> T>,
}

impl<T> Ref<T> {
    fn new(id: usize) -> Self {
        Ref {
            id,
            _tag: PhantomData,
        }
    }
}

impl<T> Clone for Ref<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Ref<T> {}
impl<T> std::fmt::Debug for Ref<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ref(#{})", self.id)
    }
}

/// Tag: a single protected vector source.
pub enum SourceTag {}
/// Tag: a list of protected vector sources (one per partition group).
pub enum SourceListTag {}
/// Tag: a single strategy matrix.
pub enum StrategyTag {}
/// Tag: a list of strategy matrices (one per source in a list).
pub enum StrategyListTag {}
/// Tag: a single (static, public) partition matrix.
pub enum PartitionTag {}
/// Tag: a list of partition matrices (data-adaptive, one per source).
pub enum PartitionListTag {}
/// Tag: a completed measurement (recorded in the kernel history).
pub enum MeasureTag {}
/// Tag: an estimate of the data vector.
pub enum EstimateTag {}

/// Reference to a protected source.
pub type SourceRef = Ref<SourceTag>;

impl SourceRef {
    /// The source as a list of one, for the element-wise operators
    /// (partition selection, reduce, per-source selection and the batched
    /// measurement), so a single-source plan uses the nodes a striped one
    /// does.
    pub fn as_list(self) -> SourceListRef {
        Ref::new(self.id)
    }
}

/// Reference to a list of protected sources.
pub type SourceListRef = Ref<SourceListTag>;
/// Reference to a strategy matrix.
pub type StrategyRef = Ref<StrategyTag>;
/// Reference to a list of strategy matrices.
pub type StrategyListRef = Ref<StrategyListTag>;
/// Reference to a static partition matrix.
pub type PartitionRef = Ref<PartitionTag>;
/// Reference to a list of partition matrices.
pub type PartitionListRef = Ref<PartitionListTag>;
/// Reference to a recorded measurement.
pub type MeasureRef = Ref<MeasureTag>;
/// Reference to an estimate.
pub type EstimateRef = Ref<EstimateTag>;

/// Where a batched measurement takes its strategies from.
#[derive(Clone, Copy, Debug)]
pub enum StrategySource {
    /// One strategy shared by every source (HB-Striped).
    Shared(StrategyRef),
    /// One strategy per source, in order (DAWA-Striped).
    PerSource(StrategyListRef),
}

// ---------------------------------------------------------------------
// Operator node payloads
// ---------------------------------------------------------------------

/// Transformation nodes (Private; tracked stability, no budget).
#[derive(Clone, Debug)]
pub enum TransformOp {
    /// `V-SplitByPartition` with a *static* partition: one child source
    /// per group, composing in parallel. Token `TP`.
    Split {
        /// Source to split.
        input: SourceRef,
        /// The static partition (its group count fixes the split arity
        /// at spec time — what makes pre-accounting exact).
        partition: PartitionRef,
    },
    /// `V-ReduceByPartition` applied element-wise: `outputs[i] =
    /// reduce(inputs[i], partitions[i])`. Token `TR`.
    ReduceEach {
        /// Sources to reduce.
        inputs: SourceListRef,
        /// One partition per source (e.g. DAWA's stage-1 outputs).
        partitions: PartitionListRef,
    },
    /// General linear transformation `x' = M x`; stability is the L1
    /// column norm of `M`, known statically. Token `TM`.
    Linear {
        /// Source to transform.
        input: SourceRef,
        /// The transformation matrix.
        matrix: Matrix,
    },
}

impl Operator for TransformOp {
    fn class(&self) -> OpClass {
        OpClass::Transform
    }
    fn token(&self) -> &'static str {
        match self {
            TransformOp::Split { .. } => "TP",
            TransformOp::ReduceEach { .. } => "TR",
            TransformOp::Linear { .. } => "TM",
        }
    }
}

/// Partition selection nodes.
#[derive(Clone, Debug)]
pub enum PartitionOp {
    /// The stripe partition of §9.2 (Public). Token `PS`.
    Stripe {
        /// Per-attribute domain sizes.
        sizes: Vec<usize>,
        /// The striped attribute.
        attr: usize,
    },
    /// AHP's data-adaptive partition, element-wise over a source list
    /// (Private→Public: charges `eps` per source). Token `PA`.
    AhpEach {
        /// Sources to partition (one AHP selection per source).
        inputs: SourceListRef,
        /// Budget charged to every source.
        eps: f64,
    },
    /// DAWA's data-adaptive stage-1 partition, element-wise over a
    /// source list (Private→Public: charges `eps` per source, composing
    /// in parallel across split siblings). Token `PD`.
    DawaEach {
        /// Sources to partition (one DAWA stage 1 per source).
        inputs: SourceListRef,
        /// Stage-1 budget charged to every source.
        eps: f64,
        /// DAWA options (stage-2 budget for the cost model, debias flag).
        opts: DawaOptions,
    },
}

impl Operator for PartitionOp {
    fn class(&self) -> OpClass {
        OpClass::Partition
    }
    fn token(&self) -> &'static str {
        match self {
            PartitionOp::Stripe { .. } => "PS",
            PartitionOp::AhpEach { .. } => "PA",
            PartitionOp::DawaEach { .. } => "PD",
        }
    }
}

/// Query selection nodes (all Public; the private selection of MWEM
/// lives inside [`MwemLoopOp`]).
#[derive(Clone, Debug)]
pub enum SelectOp {
    /// Identity strategy. Token `SI`.
    Identity {
        /// Sources whose (shared) domain the strategy covers.
        domain: SourceListRef,
    },
    /// Total (single sum) strategy. Token `ST`.
    Total {
        /// Sources whose (shared) domain the strategy covers.
        domain: SourceListRef,
    },
    /// Privelet / Haar wavelet strategy. Token `SP`.
    Privelet {
        /// Sources whose (shared) domain the strategy covers.
        domain: SourceListRef,
    },
    /// Hierarchical H2 strategy. Token `SH2`.
    H2 {
        /// Sources whose (shared) domain the strategy covers.
        domain: SourceListRef,
    },
    /// Hierarchical HB strategy (optimized branching). Token `SHB`.
    Hb {
        /// Sources whose (shared) domain the strategy covers.
        domain: SourceListRef,
    },
    /// Greedy-H strategy adapted to a range workload. Token `SG`.
    GreedyH {
        /// Sources whose (shared) domain the strategy covers.
        domain: SourceListRef,
        /// Range queries of interest (empty for uniform weights).
        ranges: Vec<(usize, usize)>,
    },
    /// Greedy-H element-wise over reduced sources: `strategy[i]` adapts
    /// to source `i`'s bucket count and to `ranges` mapped onto its
    /// partition's buckets. Token `SG`.
    GreedyHEach {
        /// Reduced sources (one strategy per entry).
        inputs: SourceListRef,
        /// The interval partitions the sources were reduced by.
        partitions: PartitionListRef,
        /// Ranges on the original per-stripe domain.
        ranges: Vec<(usize, usize)>,
    },
    /// AdaptiveGrid's second round: each block of the coarse grid that
    /// `coarse` measured is subdivided by its released noisy count, and
    /// the finer rectangles form the strategy (public post-processing of
    /// the answers). Token `SA`.
    AdaptiveGrid {
        /// The measurement of a coarse rectangle grid on one source.
        coarse: MeasureRef,
        /// The budget the finer rectangles will be measured with (it sizes
        /// each block's subdivision).
        eps: f64,
    },
    /// A pre-built strategy carried in the spec (HDMM's optimized
    /// output, Kronecker stripe strategies, …) with its own token.
    Fixed {
        /// The strategy matrix.
        matrix: Matrix,
        /// Signature token to render (e.g. `"SHD"`, `"SS"`).
        token: &'static str,
    },
}

impl SelectOp {
    /// The sources a size-parameterized selection reads its `n` from: the
    /// length of the first (a stripe split's children share one length,
    /// and a single source is a list of one).
    pub(crate) fn domain(&self) -> Option<&SourceListRef> {
        match self {
            SelectOp::Identity { domain }
            | SelectOp::Total { domain }
            | SelectOp::Privelet { domain }
            | SelectOp::H2 { domain }
            | SelectOp::Hb { domain }
            | SelectOp::GreedyH { domain, .. } => Some(domain),
            SelectOp::GreedyHEach { .. }
            | SelectOp::AdaptiveGrid { .. }
            | SelectOp::Fixed { .. } => None,
        }
    }
}

impl Operator for SelectOp {
    fn class(&self) -> OpClass {
        OpClass::Select
    }
    fn token(&self) -> &'static str {
        match self {
            SelectOp::Identity { .. } => "SI",
            SelectOp::Total { .. } => "ST",
            SelectOp::Privelet { .. } => "SP",
            SelectOp::H2 { .. } => "SH2",
            SelectOp::Hb { .. } => "SHB",
            SelectOp::GreedyH { .. } | SelectOp::GreedyHEach { .. } => "SG",
            SelectOp::AdaptiveGrid { .. } => "SA",
            SelectOp::Fixed { token, .. } => token,
        }
    }
}

/// Query (measurement) nodes — Private→Public, budget-consuming. A
/// node's value is the noisy answers the kernel released, one vector per
/// source, which later selection nodes may read.
#[derive(Clone, Debug)]
pub enum MeasureOp {
    /// Batched `Vector Laplace` over a source list (parallel composition
    /// across split siblings; bit-identical to a sequential loop). A
    /// single measurement is a batch of one. Token `LM`.
    LaplaceBatch {
        /// Sources to measure.
        inputs: SourceListRef,
        /// Shared or per-source strategies.
        strategies: StrategySource,
        /// Budget charged to every source.
        eps: f64,
    },
}

impl Operator for MeasureOp {
    fn class(&self) -> OpClass {
        OpClass::Measure
    }
    fn token(&self) -> &'static str {
        "LM"
    }
}

/// Inference nodes (Public). They consume the *session's* measurement
/// history — every measurement this plan execution recorded so far, the
/// kernel's `measurements_since(start)`.
#[derive(Clone, Debug)]
pub enum InferOp {
    /// Weighted least squares. Token `LS`.
    LeastSquares {
        /// The solver engine.
        solver: LsSolver,
    },
    /// Non-negative least squares. Token `NLS`.
    Nnls,
}

impl Operator for InferOp {
    fn class(&self) -> OpClass {
        OpClass::Infer
    }
    fn token(&self) -> &'static str {
        match self {
            InferOp::LeastSquares { .. } => "LS",
            InferOp::Nnls => "NLS",
        }
    }
}

/// Which inference operator closes each MWEM round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MwemRoundInference {
    /// Multiplicative weights (plans #7/#18). Token `MW`.
    MultWeights,
    /// NNLS with a high-confidence known total (plans #19/#20). Token
    /// `NLS`.
    NnlsKnownTotal,
}

/// MWEM's adaptive loop as a single graph node with **declared per-round
/// budgets**: each round privately selects the worst-approximated
/// workload query (`SW`, exponential mechanism, `eps_select` per round),
/// measures it (`LM`, `eps_measure` per round) and re-infers. The loop's
/// data-adaptivity is confined to *which* queries get measured — the
/// budget schedule is declared up front, which is what lets
/// [`PlanSpec::pre_account`] bound the loop exactly at
/// `rounds × (eps_select + eps_measure)`.
#[derive(Clone, Debug)]
pub struct MwemLoopOp {
    /// The source the loop selects from and measures.
    pub input: SourceRef,
    /// The analyst's workload (selection scores range over its rows).
    pub workload: Matrix,
    /// Number of rounds `T`.
    pub rounds: usize,
    /// Declared selection budget per round.
    pub eps_select: f64,
    /// Declared measurement budget per round.
    pub eps_measure: f64,
    /// Variant b: augment each round's query with that round's disjoint
    /// dyadic intervals (free under parallel composition).
    pub augment: bool,
    /// Per-round inference engine.
    pub inference: MwemRoundInference,
    /// Assumed (public) total number of records.
    pub total: f64,
    /// Multiplicative-weights passes per round.
    pub mw_iterations: usize,
}

// ---------------------------------------------------------------------
// The spec and its nodes
// ---------------------------------------------------------------------

/// One node of a [`PlanSpec`]: the session input, an operator from one
/// of the five classes, or an adaptive loop with declared budgets.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// The session's input source (node 0 of every spec).
    Input,
    /// A transformation node.
    Transform(TransformOp),
    /// A partition selection node.
    Partition(PartitionOp),
    /// A query selection node.
    Select(SelectOp),
    /// A measurement node.
    Measure(MeasureOp),
    /// An inference node.
    Infer(InferOp),
    /// MWEM's adaptive loop (composite; renders as `I:( … )`).
    AdaptiveMwem(MwemLoopOp),
}

impl NodeKind {
    /// The operator class of this node (`None` for the input node; the
    /// adaptive loop reports `Measure`, its budget-carrying aspect).
    pub fn class(&self) -> Option<OpClass> {
        match self {
            NodeKind::Input => None,
            NodeKind::Transform(op) => Some(op.class()),
            NodeKind::Partition(op) => Some(op.class()),
            NodeKind::Select(op) => Some(op.class()),
            NodeKind::Measure(op) => Some(op.class()),
            NodeKind::Infer(op) => Some(op.class()),
            NodeKind::AdaptiveMwem(_) => Some(OpClass::Measure),
        }
    }

    /// The earlier nodes this node reads, in field order.
    pub(crate) fn refs(&self) -> Vec<usize> {
        match self {
            NodeKind::Input
            | NodeKind::Infer(_)
            | NodeKind::Partition(PartitionOp::Stripe { .. }) => Vec::new(),
            NodeKind::Transform(TransformOp::Split { input, partition }) => {
                vec![input.id, partition.id]
            }
            NodeKind::Transform(TransformOp::ReduceEach { inputs, partitions })
            | NodeKind::Select(SelectOp::GreedyHEach {
                inputs, partitions, ..
            }) => vec![inputs.id, partitions.id],
            NodeKind::Transform(TransformOp::Linear { input, .. }) => vec![input.id],
            NodeKind::Partition(
                PartitionOp::AhpEach { inputs, .. } | PartitionOp::DawaEach { inputs, .. },
            ) => vec![inputs.id],
            NodeKind::Select(SelectOp::AdaptiveGrid { coarse, .. }) => vec![coarse.id],
            NodeKind::Select(op) => op.domain().map(|r| r.id).into_iter().collect(),
            NodeKind::Measure(MeasureOp::LaplaceBatch {
                inputs, strategies, ..
            }) => {
                let strategy = match strategies {
                    StrategySource::Shared(r) => r.id,
                    StrategySource::PerSource(r) => r.id,
                };
                vec![inputs.id, strategy]
            }
            NodeKind::AdaptiveMwem(op) => vec![op.input.id],
        }
    }

    /// Whether this node's value is a list with one entry per source
    /// (sources, partitions or strategies).
    fn is_list(&self) -> bool {
        matches!(
            self,
            NodeKind::Transform(TransformOp::Split { .. } | TransformOp::ReduceEach { .. })
                | NodeKind::Partition(PartitionOp::AhpEach { .. } | PartitionOp::DawaEach { .. })
                | NodeKind::Select(SelectOp::GreedyHEach { .. })
        )
    }
}

/// An inspectable, executable plan: a DAG of class-tagged operator
/// nodes. Build one with [`PlanBuilder`]; run it with [`PlanExecutor`].
///
/// A spec is pure data — it holds matrices, budgets and node wiring, but
/// no closures and no kernel handles — so a service can cost it
/// ([`PlanSpec::pre_account`]), log it ([`PlanSpec::signature`]), cache
/// it, or reject it before any protected data is touched.
#[derive(Clone, Debug)]
pub struct PlanSpec {
    pub(crate) nodes: Vec<NodeKind>,
    pub(crate) output: usize,
}

impl PlanSpec {
    /// Starts building a spec.
    pub fn builder() -> PlanBuilder {
        PlanBuilder::new()
    }

    /// The nodes of the plan, in execution order (inspection).
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// Static budget pre-accounting: the exact worst-case root ε this
    /// plan can charge, computed by replaying Algorithm 2 over a shadow
    /// source tree — without touching any kernel. Costs are relative to
    /// the session input (scale by
    /// [`crate::ProtectedKernel::stability_to_root`] for the root-level
    /// figure; the two coincide for 1-stable input chains, which is every
    /// plan in the catalogue).
    pub fn pre_account(&self) -> Result<PlanCost> {
        budget::pre_account(self)
    }

    /// Renders the paper's Fig. 2 signature string from the graph, e.g.
    /// `"SI LM LS"`, `"PS TP[ PD TR SG LM ] LS"`, `"I:( SW LM MW )"`.
    pub fn signature(&self) -> String {
        let mut out: Vec<String> = Vec::new();
        let mut bracket_open = false;
        for node in &self.nodes {
            // A node that reads a list runs element-wise over a split's
            // children, inside the `TP[ … ]` bracket.
            let striped = node
                .refs()
                .iter()
                .any(|&r| self.nodes.get(r).is_some_and(NodeKind::is_list));
            if bracket_open && !striped {
                out.push("]".into());
                bracket_open = false;
            }
            match node {
                NodeKind::Input => {}
                NodeKind::Transform(op @ TransformOp::Split { .. }) => {
                    out.push(format!("{}[", op.token()));
                    bracket_open = true;
                }
                NodeKind::Transform(op) => out.push(op.token().into()),
                NodeKind::Partition(op) => out.push(op.token().into()),
                NodeKind::Select(op) => out.push(op.token().into()),
                NodeKind::Measure(op) => out.push(op.token().into()),
                NodeKind::Infer(op) => out.push(op.token().into()),
                NodeKind::AdaptiveMwem(op) => {
                    let mut body = vec!["SW"];
                    if op.augment {
                        body.push("SH2");
                    }
                    body.push("LM");
                    body.push(match op.inference {
                        MwemRoundInference::MultWeights => "MW",
                        MwemRoundInference::NnlsKnownTotal => "NLS",
                    });
                    out.push(format!("I:( {} )", body.join(" ")));
                }
            }
        }
        if bracket_open {
            out.push("]".into());
        }
        // Join, then tidy the bracket spacing to the paper's style:
        // `TP[ PD … LM ]`.
        out.join(" ").replace("[ ]", "[]")
    }
}

// ---------------------------------------------------------------------
// The typed builder
// ---------------------------------------------------------------------

/// Builds a [`PlanSpec`] node by node. Every method appends one operator
/// node and returns a typed reference to its output; the type system
/// guarantees references are used where their kind fits (compile-time
/// plan validation — the runtime re-checks only what types cannot
/// express, like partition validity).
#[derive(Debug)]
pub struct PlanBuilder {
    nodes: Vec<NodeKind>,
}

/// Same as [`PlanBuilder::new`] — a derived `Default` would start with an
/// *empty* node list, breaking the "node 0 is the session input"
/// invariant every `input()` ref relies on.
impl Default for PlanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanBuilder {
    /// A fresh builder whose node 0 is the session input.
    pub fn new() -> Self {
        PlanBuilder {
            nodes: vec![NodeKind::Input],
        }
    }

    /// The session input source (the `SourceVar` handed to
    /// [`PlanExecutor::run`]).
    pub fn input(&self) -> SourceRef {
        Ref::new(0)
    }

    fn push<T>(&mut self, node: NodeKind) -> Ref<T> {
        self.nodes.push(node);
        Ref::new(self.nodes.len() - 1)
    }

    // --- Partition selection ---------------------------------------

    /// The stripe partition over `sizes` along `attr` (Public).
    pub fn partition_stripes(&mut self, sizes: &[usize], attr: usize) -> PartitionRef {
        self.push(NodeKind::Partition(PartitionOp::Stripe {
            sizes: sizes.to_vec(),
            attr,
        }))
    }

    /// AHP partition selection over every source in `inputs`, charging
    /// `eps` per source (Private→Public).
    pub fn partition_ahp_each(&mut self, inputs: SourceListRef, eps: f64) -> PartitionListRef {
        self.push(NodeKind::Partition(PartitionOp::AhpEach { inputs, eps }))
    }

    /// DAWA stage-1 partition selection over every source in `inputs`,
    /// charging `eps` per source (Private→Public).
    pub fn partition_dawa_each(
        &mut self,
        inputs: SourceListRef,
        eps: f64,
        opts: DawaOptions,
    ) -> PartitionListRef {
        self.push(NodeKind::Partition(PartitionOp::DawaEach {
            inputs,
            eps,
            opts,
        }))
    }

    // --- Transformations -------------------------------------------

    /// Splits `input` by a static partition into per-group sources
    /// (parallel composition across the groups).
    pub fn transform_split(&mut self, input: SourceRef, partition: PartitionRef) -> SourceListRef {
        self.push(NodeKind::Transform(TransformOp::Split { input, partition }))
    }

    /// Reduces every source by its matching partition.
    pub fn transform_reduce_each(
        &mut self,
        inputs: SourceListRef,
        partitions: PartitionListRef,
    ) -> SourceListRef {
        self.push(NodeKind::Transform(TransformOp::ReduceEach {
            inputs,
            partitions,
        }))
    }

    /// General linear transformation `x' = M x` (stability = L1 column
    /// norm of `M`, accounted statically).
    pub fn transform_linear(&mut self, input: SourceRef, matrix: Matrix) -> SourceRef {
        self.push(NodeKind::Transform(TransformOp::Linear { input, matrix }))
    }

    // --- Query selection -------------------------------------------

    /// Identity strategy over `input`'s domain.
    pub fn select_identity(&mut self, input: SourceRef) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::Identity {
            domain: input.as_list(),
        }))
    }

    /// Identity strategy over the (shared) domain of the sources in
    /// `inputs` — AHP's strategy on its reduced source.
    pub fn select_identity_shared(&mut self, inputs: SourceListRef) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::Identity { domain: inputs }))
    }

    /// Total strategy over `input`'s domain.
    pub fn select_total(&mut self, input: SourceRef) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::Total {
            domain: input.as_list(),
        }))
    }

    /// Privelet (wavelet) strategy over `input`'s domain.
    pub fn select_privelet(&mut self, input: SourceRef) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::Privelet {
            domain: input.as_list(),
        }))
    }

    /// H2 strategy over `input`'s domain.
    pub fn select_h2(&mut self, input: SourceRef) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::H2 {
            domain: input.as_list(),
        }))
    }

    /// HB strategy over `input`'s domain.
    pub fn select_hb(&mut self, input: SourceRef) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::Hb {
            domain: input.as_list(),
        }))
    }

    /// HB strategy over the (shared) domain of the sources in `inputs` —
    /// the per-stripe strategy of HB-Striped.
    pub fn select_hb_shared(&mut self, inputs: SourceListRef) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::Hb { domain: inputs }))
    }

    /// Greedy-H strategy over `input`'s domain, adapted to `ranges`.
    pub fn select_greedy_h(&mut self, input: SourceRef, ranges: &[(usize, usize)]) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::GreedyH {
            domain: input.as_list(),
            ranges: ranges.to_vec(),
        }))
    }

    /// Greedy-H per reduced source, with `ranges` mapped onto each
    /// source's partition buckets (DAWA-Striped's stage 2 selection).
    pub fn select_greedy_h_each(
        &mut self,
        inputs: SourceListRef,
        partitions: PartitionListRef,
        ranges: &[(usize, usize)],
    ) -> StrategyListRef {
        self.push(NodeKind::Select(SelectOp::GreedyHEach {
            inputs,
            partitions,
            ranges: ranges.to_vec(),
        }))
    }

    /// AdaptiveGrid's second-round strategy, from the released answers of
    /// `coarse` (a measurement of a fixed rectangle grid on one source);
    /// `eps` is the budget the result will be measured with.
    pub fn select_adaptive_grid(&mut self, coarse: MeasureRef, eps: f64) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::AdaptiveGrid { coarse, eps }))
    }

    /// A pre-built strategy carried in the spec, rendered with `token`
    /// (e.g. HDMM's optimized strategy as `"SHD"`).
    pub fn select_fixed(&mut self, matrix: Matrix, token: &'static str) -> StrategyRef {
        self.push(NodeKind::Select(SelectOp::Fixed { matrix, token }))
    }

    // --- Query (measurement) ---------------------------------------

    /// Measures `input` with `strategy` at `eps` (Vector Laplace): a
    /// shared-strategy batch of one.
    pub fn measure_laplace(
        &mut self,
        input: SourceRef,
        strategy: StrategyRef,
        eps: f64,
    ) -> MeasureRef {
        self.measure_laplace_batch_shared(input.as_list(), strategy, eps)
    }

    /// Measures every source in `inputs` with one shared strategy at
    /// `eps` (batched; parallel composition across split siblings).
    pub fn measure_laplace_batch_shared(
        &mut self,
        inputs: SourceListRef,
        strategy: StrategyRef,
        eps: f64,
    ) -> MeasureRef {
        self.push(NodeKind::Measure(MeasureOp::LaplaceBatch {
            inputs,
            strategies: StrategySource::Shared(strategy),
            eps,
        }))
    }

    /// Measures every source in `inputs` with its own strategy at `eps`.
    pub fn measure_laplace_batch_each(
        &mut self,
        inputs: SourceListRef,
        strategies: StrategyListRef,
        eps: f64,
    ) -> MeasureRef {
        self.push(NodeKind::Measure(MeasureOp::LaplaceBatch {
            inputs,
            strategies: StrategySource::PerSource(strategies),
            eps,
        }))
    }

    // --- Inference -------------------------------------------------

    /// Weighted least squares over the session's measurements.
    pub fn infer_least_squares(&mut self, solver: LsSolver) -> EstimateRef {
        self.push(NodeKind::Infer(InferOp::LeastSquares { solver }))
    }

    /// Non-negative least squares over the session's measurements.
    pub fn infer_nnls(&mut self) -> EstimateRef {
        self.push(NodeKind::Infer(InferOp::Nnls))
    }

    // --- Adaptive loop ---------------------------------------------

    /// MWEM's adaptive loop with declared per-round budgets; produces
    /// the final round's estimate.
    pub fn mwem_loop(&mut self, op: MwemLoopOp) -> EstimateRef {
        self.push(NodeKind::AdaptiveMwem(op))
    }

    /// Finalizes the spec with `output` as the plan's estimate.
    pub fn finish(self, output: EstimateRef) -> PlanSpec {
        PlanSpec {
            nodes: self.nodes,
            output: output.id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_for_baseline_shape() {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let s = b.select_hb(x);
        b.measure_laplace(x, s, 0.5);
        let e = b.infer_least_squares(LsSolver::Iterative);
        let spec = b.finish(e);
        assert_eq!(spec.signature(), "SHB LM LS");
        assert_eq!(spec.nodes().len(), 4);
        assert_eq!(spec.nodes()[1].class(), Some(OpClass::Select));
        assert_eq!(spec.nodes()[2].class(), Some(OpClass::Measure));
    }

    #[test]
    fn signature_for_striped_shape() {
        let mut b = PlanBuilder::new();
        let x = b.input();
        let p = b.partition_stripes(&[8, 3], 0);
        let stripes = b.transform_split(x, p);
        let s = b.select_hb_shared(stripes);
        b.measure_laplace_batch_shared(stripes, s, 1.0);
        let e = b.infer_least_squares(LsSolver::Iterative);
        let spec = b.finish(e);
        assert_eq!(spec.signature(), "PS TP[ SHB LM ] LS");
    }

    #[test]
    fn signature_for_mwem_variants() {
        let mk = |augment, inference| {
            let mut b = PlanBuilder::new();
            let x = b.input();
            let e = b.mwem_loop(MwemLoopOp {
                input: x,
                workload: Matrix::prefix(8),
                rounds: 3,
                eps_select: 0.1,
                eps_measure: 0.1,
                augment,
                inference,
                total: 100.0,
                mw_iterations: 10,
            });
            b.finish(e)
        };
        assert_eq!(
            mk(false, MwemRoundInference::MultWeights).signature(),
            "I:( SW LM MW )"
        );
        assert_eq!(
            mk(true, MwemRoundInference::NnlsKnownTotal).signature(),
            "I:( SW SH2 LM NLS )"
        );
    }
}
