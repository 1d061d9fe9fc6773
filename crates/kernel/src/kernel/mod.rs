//! The kernel's implementation: the source tree and its transformations,
//! the Laplace measurement path, the two privacy primitives and the
//! budget reservations (paper §4).

mod error;
mod noise;
mod select;
mod state;

pub use error::{EktError, Result};
pub use select::{Picker, WorstApproxScores};
pub use state::{charge, MeasuredQuery, SourceTree};

use std::borrow::Cow;
use std::sync::Arc;

use ektelo_data::{Predicate, Schema, Table};
use ektelo_matrix::{failpoints, CsrMatrix, IdleWorkspace, Matrix, Workspace};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use state::{
    checked_eps_total, validate_eps, KernelState, Node, NodeData, NonEmptyVector, SourceData,
};

/// An opaque handle to a protected data source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SourceVar(pub(crate) usize);

/// Idle arenas above this many bytes (32 MiB) are dropped on restore
/// instead of kept, so one huge batch cannot pin its peak arena for the
/// kernel's lifetime.
const IDLE_WORKSPACE_MAX_BYTES: usize = 32 << 20;

/// The protected kernel: owns the private data, the transformation graph,
/// the budget trackers and the privacy RNG. All methods take `&self`; the
/// state sits behind a mutex so plans can be ordinary single-threaded code
/// while concurrent sessions share one kernel.
pub struct ProtectedKernel {
    state: Mutex<KernelState>,
    /// The idle workspace of the batch measurement and the scored picks.
    ws_pool: IdleWorkspace,
}

impl ProtectedKernel {
    // ------------------------------------------------------------------
    // Initialization & metadata
    // ------------------------------------------------------------------

    /// Initializes the kernel with the protected `table`, a global privacy
    /// budget `eps_total`, and an RNG seed (determinism for experiments).
    pub fn init(table: Table, eps_total: f64, seed: u64) -> Self {
        Self::with_root(NodeData::Table(Arc::new(table)), None, eps_total, seed)
    }

    /// Convenience: initialize directly from a data vector (plans that skip
    /// the relational stage, e.g. the 1-D benchmark suite). The vector is
    /// its own vectorize base.
    pub fn init_from_vector(x: Vec<f64>, eps_total: f64, seed: u64) -> Self {
        let lineage = Some(Matrix::identity(x.len()));
        Self::with_root(NodeData::Vector(Arc::new(x)), lineage, eps_total, seed)
    }

    /// A kernel whose root holds `data`; a root with a `lineage` is a
    /// vector, its own vectorize base.
    fn with_root(data: NodeData, lineage: Option<Matrix>, eps_total: f64, seed: u64) -> Self {
        let mut st = KernelState {
            nodes: Vec::new(),
            eps_total: checked_eps_total(eps_total),
            reserved: 0.0,
            reservations: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            history: Vec::new(),
        };
        st.nodes.push(Node {
            data,
            parent: None,
            stability: 1.0,
            budget: 0.0,
            base: lineage.as_ref().map(|_| 0),
            lineage,
        });
        ProtectedKernel {
            state: Mutex::new(st),
            ws_pool: IdleWorkspace::default(),
        }
    }

    /// The root source variable.
    pub fn root(&self) -> SourceVar {
        SourceVar(0)
    }

    /// The global privacy budget.
    pub fn eps_total(&self) -> f64 {
        self.state.lock().eps_total
    }

    /// Root budget consumed so far (public: depends only on the sequence of
    /// operator calls, not on the data).
    pub fn budget_spent(&self) -> f64 {
        self.state.lock().spent()
    }

    /// Budget still available to a new charge or reservation at the
    /// root: total minus spent minus outstanding reservation holds (a
    /// charge sized by this figure is admissible; held budget belongs to
    /// already-admitted plans).
    pub fn budget_remaining(&self) -> f64 {
        let st = self.state.lock();
        (st.eps_total - st.spent() - st.reserved).max(0.0)
    }

    /// Root budget currently held by outstanding [`BudgetReservation`]s
    /// (public: reservations are made before any data is touched).
    pub fn budget_reserved(&self) -> f64 {
        self.state.lock().reserved
    }

    /// Number of live (unreleased) budget reservations. Failure-semantics
    /// observability: after a plan dies — typed error or caught panic —
    /// this must return to its prior value (no leaked holds).
    pub fn active_reservations(&self) -> usize {
        self.state.lock().active_reservations()
    }

    // ------------------------------------------------------------------
    // Budget reservation (plan-graph session admission)
    // ------------------------------------------------------------------

    /// Reserves `eps` of root budget for a pre-accounted plan, failing
    /// with [`EktError::BudgetExceeded`] — before any data access — if
    /// the budget already spent plus existing reservations cannot cover
    /// it. While the reservation is held, ordinary charges (from any
    /// session) only see `ε_tot − reserved`. The holder *redeems* its
    /// hold by issuing charges through the reservation (e.g.
    /// [`BudgetReservation::vector_laplace`], or the executor's
    /// reservation-threaded charging calls): the hold consumption and the
    /// root charge commit under **one** kernel state lock, so there is no
    /// window in which a concurrent session can observe — let alone steal
    /// — a released-but-not-yet-charged slice. Dropping the reservation
    /// releases its exact tracked remainder.
    ///
    /// The admission decision depends only on `eps`, prior charges and
    /// prior reservations — all data-independent — so rejecting leaks
    /// nothing (same argument as Algorithm 2's budget check).
    pub fn reserve_budget(&self, eps: f64) -> Result<BudgetReservation<'_>> {
        // Validation (NaN/∞ rejection) and the admission comparison both
        // live in `KernelState::reserve` — the reservation-side budget
        // chokepoint — so this wrapper only manages the lock and the
        // RAII handle.
        let id = self.state.lock().reserve(eps)?;
        Ok(BudgetReservation { kernel: self, id })
    }

    /// Resolves an optional reservation handle to its ledger slot,
    /// rejecting a handle minted by a different kernel (its slot id would
    /// index an unrelated slab and redeem someone else's hold).
    fn res_slot(&self, res: Option<&BudgetReservation<'_>>) -> Result<Option<usize>> {
        match res {
            None => Ok(None),
            Some(r) if std::ptr::eq(r.kernel, self) => Ok(Some(r.id)),
            Some(_) => Err(EktError::InvalidArgument(
                "budget reservation belongs to a different kernel".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Reusable workspaces (kernel-owned scratch for batch/operator calls)
    // ------------------------------------------------------------------

    /// Takes the kernel's idle [`Workspace`] (or a fresh one when it is
    /// out). Pair with [`ProtectedKernel::workspace_restore`]; used by the
    /// batched measurement path and the Worst-approx picks so repeated
    /// calls reuse one warm arena instead of rebuilding it.
    pub(crate) fn workspace_checkout(&self) -> Workspace {
        self.ws_pool.checkout()
    }

    /// Returns a workspace for the next checkout.
    pub(crate) fn workspace_restore(&self, ws: Workspace) {
        self.ws_pool.restore(ws, IDLE_WORKSPACE_MAX_BYTES);
    }

    /// Heap bytes pinned by the idle workspace's arena (0 when none is
    /// idle). At most 32 MiB: a bigger arena is dropped on restore.
    pub fn workspace_pool_resident_bytes(&self) -> usize {
        self.ws_pool.resident_bytes()
    }

    /// The product of stability factors along the transformation chain
    /// from `sv` up to the root (public metadata: stabilities derive from
    /// the sequence of operator calls, not the data). An upper bound on
    /// how much a unit of budget charged at `sv` can cost at the root —
    /// exact when no partition variable above `sv` carries prior sibling
    /// charges.
    pub fn stability_to_root(&self, sv: SourceVar) -> f64 {
        let st = self.state.lock();
        let mut s = 1.0;
        let mut node = sv.0;
        loop {
            s *= st.nodes[node].stability;
            match st.nodes[node].parent {
                Some(p) => node = p,
                None => break,
            }
        }
        s
    }

    /// The schema of a table source (public metadata).
    pub fn schema(&self, sv: SourceVar) -> Result<Schema> {
        let t: Arc<Table> = self.state.lock().snapshot(sv.0)?;
        Ok(t.schema().clone())
    }

    /// The length of a vector source. Public: domain sizes derive from the
    /// schema and from partitions, which are themselves public outputs.
    pub fn vector_len(&self, sv: SourceVar) -> Result<usize> {
        Ok(self.state.lock().snapshot::<Arc<Vec<f64>>>(sv.0)?.len())
    }

    // ------------------------------------------------------------------
    // Table transformations (Private; no budget, tracked stability)
    // ------------------------------------------------------------------
    //
    // Each one snapshots its input table under the lock, computes the
    // output outside it, and re-locks only to register the new node.

    /// `Where`: keeps rows satisfying `pred`. 1-stable (paper §5.1).
    pub fn transform_where(&self, sv: SourceVar, pred: &Predicate) -> Result<SourceVar> {
        let t: Arc<Table> = self.state.lock().snapshot(sv.0)?;
        Ok(self.add_table(sv, t.filter(pred), 1.0))
    }

    /// `Select`: projects onto the named attributes. 1-stable.
    pub fn transform_select(&self, sv: SourceVar, names: &[&str]) -> Result<SourceVar> {
        let t: Arc<Table> = self.state.lock().snapshot(sv.0)?;
        Ok(self.add_table(sv, t.select(names), 1.0))
    }

    /// `GroupBy`: distinct combinations of the named attributes. 2-stable.
    pub fn transform_group_by(&self, sv: SourceVar, names: &[&str]) -> Result<SourceVar> {
        let t: Arc<Table> = self.state.lock().snapshot(sv.0)?;
        Ok(self.add_table(sv, t.group_by(names), 2.0))
    }

    /// Registers `table`, derived from `parent` by a `stability`-stable
    /// transformation, as a new source.
    fn add_table(&self, parent: SourceVar, table: Table, stability: f64) -> SourceVar {
        let data = NodeData::Table(Arc::new(table));
        SourceVar(self.state.lock().add_node(Node {
            data,
            parent: Some(parent.0),
            stability,
            budget: 0.0,
            base: None,
            lineage: None,
        }))
    }

    // ------------------------------------------------------------------
    // Vectorization and vector transformations
    // ------------------------------------------------------------------

    /// `T-Vectorize`: turns a table source into its count vector over the
    /// full schema domain. 1-stable. The output becomes a *base* vector:
    /// downstream measurements are mapped back onto it for inference. It is
    /// the table's shared [`Table::count_vector`], counted once for all clones.
    pub fn vectorize(&self, sv: SourceVar) -> Result<SourceVar> {
        let t: Arc<Table> = self.state.lock().snapshot(sv.0)?;
        let x = t.count_vector();
        let lineage = Some(Matrix::identity(x.len()));
        let mut st = self.state.lock();
        let id = st.add_node(Node {
            data: NodeData::Vector(x),
            parent: Some(sv.0),
            stability: 1.0,
            budget: 0.0,
            base: None,
            lineage,
        });
        st.nodes[id].base = Some(id);
        Ok(SourceVar(id))
    }

    /// `V-ReduceByPartition`: `x' = P x` for a partition matrix `P`, one
    /// that puts every column in exactly one group with weight 1 (else
    /// [`EktError::InvalidPartition`]). 1-stable (paper §5.1).
    pub fn reduce_by_partition(&self, sv: SourceVar, p: &Matrix) -> Result<SourceVar> {
        partition_groups(p)?;
        self.transform_linear_unchecked(sv, p, 1.0)
    }

    /// General linear vector transformation `x' = M x`. Stability is the
    /// maximum L1 column norm of `M` (paper §5.1). A NaN or infinite
    /// stability (from a NaN or infinite entry of `M`) is rejected with
    /// [`EktError::InvalidArgument`] before any node is added.
    pub fn transform_linear(&self, sv: SourceVar, m: &Matrix) -> Result<SourceVar> {
        let stability = m.l1_sensitivity();
        if !stability.is_finite() {
            return Err(EktError::InvalidArgument(format!(
                "transform matrix has non-finite stability {stability}"
            )));
        }
        self.transform_linear_unchecked(sv, m, stability)
    }

    fn transform_linear_unchecked(
        &self,
        sv: SourceVar,
        m: &Matrix,
        stability: f64,
    ) -> Result<SourceVar> {
        let (x, base, lineage) = self.transform_input(sv, m.cols())?;
        let out = m.matvec(&x);
        let lineage = lineage.map(|l| Matrix::product(m.clone(), l));
        // The full node payload is built before re-locking, so the second
        // critical section is registration only.
        let data = NodeData::Vector(Arc::new(out));
        let mut st = self.state.lock();
        Ok(SourceVar(st.add_node(Node {
            data,
            parent: Some(sv.0),
            stability,
            budget: 0.0,
            base,
            lineage,
        })))
    }

    /// `V-SplitByPartition`: splits the vector into one child per group of
    /// the partition matrix `p` (checked as in
    /// [`ProtectedKernel::reduce_by_partition`]; cells in original order).
    /// Introduces the partition dummy node that makes sibling budget use
    /// compose in parallel — the engine behind the striped plans of §9.2.
    pub fn split_by_partition(&self, sv: SourceVar, p: &Matrix) -> Result<Vec<SourceVar>> {
        // Group g's cells are row g's column indices, ascending.
        let groups = partition_groups(p)?;
        let (x, base, parent_lineage) = self.transform_input(sv, p.cols())?;
        let n = x.len();
        let cells = |g: usize| &groups.indices()[groups.indptr()[g]..groups.indptr()[g + 1]];
        // Lineages first, then data: keeping each kind of allocation together
        // measured a lower peak RSS on the striped benchmark than interleaving.
        let lineages: Vec<Option<Matrix>> = (0..groups.rows())
            .map(|g| {
                let l = parent_lineage.as_ref()?;
                let selector = Matrix::sparse(CsrMatrix::selector(n, cells(g)));
                Some(Matrix::product(selector, l.clone()))
            })
            .collect();
        let children: Vec<_> = lineages
            .into_iter()
            .enumerate()
            .map(|(g, lineage)| {
                let data: Vec<f64> = cells(g).iter().map(|&c| x[c as usize]).collect();
                (NodeData::Vector(Arc::new(data)), lineage)
            })
            .collect();
        let mut out = Vec::with_capacity(children.len());
        // Commit under one lock acquisition: registration only, every
        // payload was built above.
        let mut st = self.state.lock();
        let dummy = st.add_node(Node {
            data: NodeData::PartitionDummy,
            parent: Some(sv.0),
            stability: 1.0,
            budget: 0.0,
            base,
            lineage: None,
        });
        for (data, lineage) in children {
            // xlint: allow(lock-discipline, reason = "out is pre-allocated to the group count before the lock, so this push is a pointer write that never reallocates")
            out.push(SourceVar(st.add_node(Node {
                data,
                parent: Some(dummy),
                stability: 1.0,
                budget: 0.0,
                base,
                lineage,
            })));
        }
        Ok(out)
    }

    /// The input of a vector transform by a matrix with `cols` columns:
    /// source `sv`'s data, vectorize base and lineage, snapshotted under
    /// one short lock (a refcount bump and a structural clone). Node data
    /// is immutable and nodes are never removed, so the snapshot stays
    /// valid after the lock is released and the transform computes
    /// outside it.
    fn transform_input(&self, sv: SourceVar, cols: usize) -> Result<TransformInput> {
        let st = self.state.lock();
        let x: Arc<Vec<f64>> = st.snapshot(sv.0)?;
        if cols != x.len() {
            return Err(EktError::ShapeMismatch {
                expected: x.len(),
                found: cols,
            });
        }
        // xlint: allow(lock-discipline, reason = "structural Matrix clone (shared representation) taken while snapshotting; the node's lineage is only readable under the lock")
        Ok((x, st.nodes[sv.0].base, st.nodes[sv.0].lineage.clone()))
    }

    // ------------------------------------------------------------------
    // Query operators (Private→Public; consume budget)
    // ------------------------------------------------------------------

    /// `Vector Laplace` (paper §5.2): answers the query set `M` on vector
    /// source `sv` with noise scale `‖M‖₁ / ε` per answer, charging ε to
    /// the source (Algorithm 2 scales it through the lineage). The
    /// measurement is recorded for inference. A batch of one: see
    /// [`ProtectedKernel::vector_laplace_batch`] for the phases and the
    /// failure semantics.
    pub fn vector_laplace(&self, sv: SourceVar, m: &Matrix, eps: f64) -> Result<Vec<f64>> {
        self.vector_laplace_batch_in(&[(sv, m, eps)], None)
            .map(sole_answer)
    }

    /// Batched `Vector Laplace`: answers one query set per source, exactly
    /// as a sequential loop of [`ProtectedKernel::vector_laplace`] calls
    /// would — same budget charges, same measurement history, and **the
    /// same noise draws in the same order**, so the answers are
    /// bit-identical to the sequential loop. This is the kernel's one
    /// Laplace measurement path (a single measurement is a batch of one).
    /// Only the charges, the noise draws and the history records run
    /// under the state lock; the sensitivities, which depend only on the
    /// public matrices, are computed before it, and the exact (pre-noise)
    /// answers, which depend only on the data and not on the privacy RNG,
    /// after the snapshot. This is the engine behind the striped plans of
    /// §9.2: hundreds of per-stripe measurements that share one workspace
    /// and one evaluation plan per strategy shape.
    ///
    /// A matrix whose sensitivity is zero, NaN or infinite is rejected
    /// with [`EktError::InvalidArgument`] before anything is charged.
    ///
    /// Failure semantics: requests are validated and charged in order; if
    /// request `k` fails, requests `0..k` have been charged and recorded
    /// (matching the sequential loop) and `k..` have not. A *panic* in the
    /// exact-answer phase (exercised by the `kernel::batch_exact`
    /// failpoint) unwinds out of this call with **zero** charges issued
    /// and zero history recorded: the charging phase never ran, and the
    /// kernel's state mutex is not held, so it does not poison and
    /// subsequent sessions proceed against an exactly-conserved ledger.
    pub fn vector_laplace_batch(
        &self,
        reqs: &[(SourceVar, &Matrix, f64)],
    ) -> Result<Vec<Vec<f64>>> {
        self.vector_laplace_batch_in(reqs, None).map(owned_answers)
    }

    /// [`ProtectedKernel::vector_laplace_batch`] with every charge
    /// attributed to (and redeemed from) `res` when given. Each request's
    /// answers are one buffer, shared with its history record: the exact
    /// answers are computed into it before the lock and the noise is added
    /// in place under it, so recording a measurement copies nothing.
    pub fn vector_laplace_batch_in(
        &self,
        reqs: &[(SourceVar, &Matrix, f64)],
        res: Option<&BudgetReservation<'_>>,
    ) -> Result<Vec<Arc<[f64]>>> {
        let res = self.res_slot(res)?;
        // Phase 0 (public, no lock): each request's sensitivity, a pure
        // function of its public matrix. A zero, NaN or infinite
        // sensitivity becomes the request's error here, before any charge
        // and before a NaN scale could reach `noise::fill_laplace`.
        let sensitivities: Vec<Result<f64>> = reqs
            .iter()
            .map(|&(_, m, _)| measurement_sensitivity(m.l1_sensitivity()))
            .collect();

        // Phase 1 (no privacy side effects): snapshot each source vector —
        // a refcount bump, not a deep clone; node data is immutable, so the
        // snapshot stays valid after the lock is dropped. A request's
        // errors surface in the order the checks name them (ε, source,
        // shape, sensitivity), and only if phase 3 reaches the request,
        // mirroring the sequential loop.
        let snapshots: Vec<Snapshot> = {
            let st = self.state.lock();
            reqs.iter()
                .zip(sensitivities)
                .map(|(&(sv, m, eps), sensitivity)| {
                    validate_eps(eps)?;
                    let x: Arc<Vec<f64>> = st.snapshot(sv.0)?;
                    if m.cols() != x.len() {
                        return Err(EktError::ShapeMismatch {
                            expected: x.len(),
                            found: m.cols(),
                        });
                    }
                    Ok((x, sensitivity?))
                })
                // xlint: allow(lock-discipline, reason = "snapshot phase: one result vec sized by the request list, filled with refcount bumps — the sources are only readable under the lock")
                .collect()
        };

        // Phase 2 (pure compute, outside the lock): the exact answers,
        // in request order, through the kernel's idle workspace, so
        // same-shaped stripe strategies share a single evaluation plan and
        // the next batch finds the arena warm.
        let mut exacts: Vec<Option<Arc<[f64]>>> = vec![None; snapshots.len()];
        let mut ws = self.workspace_checkout();
        fill_exact_answers(reqs, &snapshots, &mut exacts, &mut ws);
        self.workspace_restore(ws);

        // Phase 3 (sequential, under the lock): charge budgets, draw noise
        // in request order, record history — the privacy-ordered section.
        // The output vec is sized before the lock so the pushes below are
        // pointer writes.
        let mut out = Vec::with_capacity(reqs.len());
        let mut st = self.state.lock();
        for ((&(sv, m, eps), snap), exact) in reqs.iter().zip(snapshots).zip(exacts) {
            // Mid-stripe failpoint: a batch dying between stripes must
            // leave exactly the sequential loop's prefix semantics behind.
            if failpoints::triggered("kernel::batch_stripe") {
                return Err(EktError::FaultInjected("kernel::batch_stripe"));
            }
            let (_, sensitivity) = snap?;
            st.request(sv.0, eps, res)?;
            let scale = sensitivity / eps;
            // xlint: allow(panic-policy, reason = "phase invariant: phase 2 fills the exact answer for every request whose snapshot was Ok, and the `snap?` above already propagated the Err case")
            let mut answers = exact.expect("valid request has an exact answer");
            // Phase 2 holds the only handle, so `make_mut` never clones:
            // the noise lands in the exact answers' own buffer, a stack
            // block of draws at a time.
            let mut draws = [0.0; noise::LAPLACE_BLOCK];
            for chunk in Arc::make_mut(&mut answers).chunks_mut(draws.len()) {
                let draws = &mut draws[..chunk.len()];
                noise::fill_laplace(&mut st.rng, scale, draws);
                for (v, &e) in chunk.iter_mut().zip(draws.iter()) {
                    *v += e;
                }
            }
            if let (Some(base), Some(lineage)) =
                // xlint: allow(lock-discipline, reason = "structural Matrix clone (shared representation); the node's lineage is only readable under the lock")
                (st.nodes[sv.0].base, st.nodes[sv.0].lineage.clone())
            {
                let effective = match &lineage {
                    // xlint: allow(lock-discipline, reason = "structural Matrix clone (shared representation) for the recorded effective query")
                    Matrix::Identity { .. } => m.clone(),
                    // xlint: allow(lock-discipline, reason = "structural Matrix clones (shared representation) composing the recorded effective query")
                    _ => Matrix::product(m.clone(), lineage),
                };
                // xlint: allow(lock-discipline, reason = "the measurement record must append atomically with the charge and the noise draws; splitting the lock would let a concurrent session interleave between charge and history")
                st.history.push(MeasuredQuery {
                    base: SourceVar(base),
                    query: effective,
                    answers: Arc::clone(&answers),
                    noise_scale: scale,
                });
            }
            // xlint: allow(lock-discipline, reason = "out is pre-allocated to the request count before the lock, so this push is a pointer write that never reallocates")
            out.push(answers);
        }
        Ok(out)
    }

    /// `NoisyCount` (paper §5.2): the table cardinality plus
    /// `Laplace(1/ε)` noise.
    pub fn noisy_count(&self, sv: SourceVar, eps: f64) -> Result<f64> {
        validate_eps(eps)?;
        let count = self.count(sv)?;
        let mut st = self.state.lock();
        st.request(sv.0, eps, None)?;
        let mut draw = [0.0];
        noise::fill_laplace(&mut st.rng, 1.0 / eps, &mut draw);
        Ok(count + draw[0])
    }

    /// The exact count behind the noisy counts: a table's row count, or a
    /// vector's sum, summed after the lock is released.
    fn count(&self, sv: SourceVar) -> Result<f64> {
        let v = match &self.state.lock().nodes[sv.0].data {
            NodeData::Table(t) => return Ok(t.num_rows() as f64),
            NodeData::Vector(v) => Arc::clone(v),
            NodeData::PartitionDummy => {
                return Err(EktError::WrongSourceType { expected: "table" })
            }
        };
        Ok(v.iter().sum())
    }

    // ------------------------------------------------------------------
    // Measurement history (for Public inference operators)
    // ------------------------------------------------------------------

    /// All measurements recorded so far (cheap clones: matrices share
    /// structure).
    pub fn measurements(&self) -> Vec<MeasuredQuery> {
        // xlint: allow(lock-discipline, reason = "snapshot-for-return: the history is the protected record and must be copied under the lock; matrix payloads share structure")
        self.state.lock().history.clone()
    }

    /// Number of measurements recorded so far. Plans snapshot this before
    /// their measurement phase and pass the index to
    /// [`ProtectedKernel::measurements_since`] so that inference uses only
    /// their own measurements (useful when several plans share a kernel).
    pub fn measurement_count(&self) -> usize {
        self.state.lock().history.len()
    }

    /// The measurements recorded at or after history index `start`.
    pub fn measurements_since(&self, start: usize) -> Vec<MeasuredQuery> {
        let st = self.state.lock();
        // xlint: allow(lock-discipline, reason = "snapshot-for-return: the history is the protected record and must be copied under the lock; matrix payloads share structure")
        st.history[start.min(st.history.len())..].to_vec()
    }

    // ------------------------------------------------------------------
    // The two privacy primitives of the Private→Public operators
    // ------------------------------------------------------------------
    //
    // The paper's trust model: only the kernel needs a privacy review.
    // The Private→Public operators reach the data through exactly two
    // primitives, both built on `charge_and_snapshot`:
    //
    // * `noisy_histograms` releases a Laplace-noised copy of vector
    //   sources. AHP and DAWA stage 1 cluster or segment that copy, which
    //   is post-processing.
    // * `exponential_selection` hands the caller a `Picker` over a
    //   snapshot it cannot read. Worst-approx and PrivBayes select drive
    //   it; their scores, sensitivities and per-pick ε run in `select`.
    //
    // Caller code runs only after the state lock is released, and only
    // these two methods call `charge_and_snapshot` and `substream_seed`.

    /// Noisy-histogram release: for each request `(sv, ε)`, the vector
    /// source `sv` plus i.i.d. `Laplace(1/ε)` noise per cell, handed to
    /// `release` in request order; returns what `release` returned for
    /// each. One buffer holds every request's noisy copy in turn, so a
    /// batch over many stripes allocates it once.
    ///
    /// The charges, the snapshots and the draw of one substream base run
    /// under one lock (see `charge_and_snapshot`), which also rejects an
    /// empty source with [`EktError::InvalidArgument`] and a non-vector one
    /// with [`EktError::WrongSourceType`] before anything is charged.
    /// Request `i`'s noise then comes from substream `i` of that base,
    /// outside the lock. The histogram has sensitivity 1, so scale `1/ε`
    /// is ε-DP for the source, and Algorithm 2 charges the root through
    /// the source's stability.
    pub fn noisy_histograms<T>(
        &self,
        reqs: &[(SourceVar, f64)],
        res: Option<&BudgetReservation<'_>>,
        mut release: impl FnMut(&[f64]) -> T,
    ) -> Result<Vec<T>> {
        let (base, snaps) = self.charge_and_snapshot::<NonEmptyVector>(reqs, res)?;
        let mut out = Vec::with_capacity(snaps.len());
        let mut noisy = Vec::new();
        for (i, (NonEmptyVector(x), &(_, eps))) in snaps.iter().zip(reqs).enumerate() {
            let mut rng = StdRng::seed_from_u64(substream_seed(base, i as u64));
            noisy.clear();
            noisy.resize(x.len(), 0.0);
            noise::fill_laplace(&mut rng, 1.0 / eps, &mut noisy);
            for (e, &v) in noisy.iter_mut().zip(x.iter()) {
                *e += v;
            }
            out.push(release(&noisy));
        }
        Ok(out)
    }

    /// Exponential-mechanism selection: charges `eps` to source `sv`
    /// (through `charge_and_snapshot`, which rejects a source that is not
    /// a `D`, a vector or a table, before the charge), then runs `select`
    /// with a [`Picker`] over the snapshot on substream 0 of the drawn
    /// base, outside the lock. The picker splits `eps` evenly over
    /// `picks` scored picks and refuses more, so what `select` releases is
    /// `eps`-DP whatever it does; a zero `picks` is rejected with
    /// [`EktError::InvalidArgument`] before the charge.
    pub fn exponential_selection<D: SourceData, T>(
        &self,
        sv: SourceVar,
        eps: f64,
        picks: usize,
        res: Option<&BudgetReservation<'_>>,
        select: impl FnOnce(&mut Picker<'_, D>) -> T,
    ) -> Result<T> {
        if picks == 0 {
            return Err(EktError::InvalidArgument(
                "a selection declares at least one pick".into(),
            ));
        }
        let (base, snaps) = self.charge_and_snapshot::<D>(&[(sv, eps)], res)?;
        Ok(select(&mut Picker {
            rng: StdRng::seed_from_u64(substream_seed(base, 0)),
            source: &snaps[0],
            kernel: self,
            eps: eps / picks as f64,
            picks,
        }))
    }

    /// Charge + snapshot for the two primitives. Under **one** lock
    /// acquisition it checks every source's type, charges every
    /// `(source, ε)` request in order through Algorithm 2, takes a
    /// refcount snapshot of each source (a vector or a table, as `D`
    /// says) and draws one `u64` from the privacy stream. That draw is the
    /// base of the primitives' counter-based substreams: request `i`'s
    /// draws come from `StdRng::seed_from_u64(substream_seed(base, i))`
    /// after the lock is released, so no operator code runs under the
    /// lock and a panicking operator leaves it unpoisoned.
    ///
    /// Failure semantics: a non-positive ε or a wrong source type anywhere
    /// in the batch is rejected before the first charge. If request `k`'s
    /// charge fails, requests `0..k` have been charged, as `k` sequential
    /// operator calls would leave behind. On any failure no randomness has
    /// been consumed: the base is drawn only after every charge succeeded.
    fn charge_and_snapshot<D: SourceData>(
        &self,
        reqs: &[(SourceVar, f64)],
        res: Option<&BudgetReservation<'_>>,
    ) -> Result<(u64, Vec<D>)> {
        let res = self.res_slot(res)?;
        for &(_, eps) in reqs {
            validate_eps(eps)?;
        }
        // Sized before the lock so the pushes below are pointer writes.
        let mut snaps = Vec::with_capacity(reqs.len());
        let mut st = self.state.lock();
        for &(sv, _) in reqs {
            // xlint: allow(lock-discipline, reason = "snaps is pre-allocated to the request count before the lock, so this push is a pointer write (refcount bump payload) that never reallocates")
            snaps.push(st.snapshot(sv.0)?);
        }
        for &(sv, eps) in reqs {
            // Mid-stripe failpoint for the charge+snapshot form: same
            // prefix semantics as `vector_laplace_batch`'s site.
            if failpoints::triggered("kernel::batch_stripe") {
                return Err(EktError::FaultInjected("kernel::batch_stripe"));
            }
            st.request(sv.0, eps, res)?;
        }
        let base: u64 = st.rng.random();
        Ok((base, snaps))
    }
}

/// The seed of substream `counter` under `base`: SplitMix64 of
/// `base + counter·γ`, the same finalizer the rand shim uses for seed
/// expansion, so substreams are as well mixed as top-level seeds. A pure
/// function of (base, counter): a primitive's draws depend only on the
/// base `charge_and_snapshot` returned and the request's index.
fn substream_seed(base: u64, counter: u64) -> u64 {
    let mut z = base.wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hold on root budget granted by [`ProtectedKernel::reserve_budget`].
///
/// While held, the reserved amount is subtracted from the budget visible
/// to ordinary charges (the root case of Algorithm 2). The holder redeems
/// its hold by charging *through* the reservation — e.g.
/// [`BudgetReservation::vector_laplace`] — which consumes the hold and
/// commits the root charge atomically under one kernel state lock.
/// A charge larger than the remaining hold redeems the whole hold and
/// competes for open budget with the excess; a failed charge consumes
/// nothing. The per-reservation ledger ([`BudgetReservation::charged`])
/// is what `ExecReport::eps_charged` reports: a true per-plan figure,
/// meaningful even when concurrent sessions share the kernel.
///
/// Dropping the reservation releases its exact tracked remainder back
/// into the open budget (never a sentinel value — the remainder lives in
/// the kernel's ledger, and the release is idempotent).
pub struct BudgetReservation<'k> {
    kernel: &'k ProtectedKernel,
    /// Slot index into the kernel state's reservation slab.
    id: usize,
}

impl BudgetReservation<'_> {
    /// Budget still held by this reservation.
    pub fn remaining(&self) -> f64 {
        self.kernel.state.lock().reservation_remaining(self.id)
    }

    /// Total root budget charged through this reservation so far (the
    /// per-plan ledger).
    pub fn charged(&self) -> f64 {
        self.kernel.state.lock().reservation_charged(self.id)
    }

    /// [`ProtectedKernel::vector_laplace`] with the charge redeemed from
    /// this reservation's hold (atomically with the root charge).
    pub fn vector_laplace(&self, sv: SourceVar, m: &Matrix, eps: f64) -> Result<Vec<f64>> {
        self.kernel
            .vector_laplace_batch_in(&[(sv, m, eps)], Some(self))
            .map(sole_answer)
    }

    /// [`ProtectedKernel::vector_laplace_batch`] with every charge
    /// redeemed from this reservation's hold.
    pub fn vector_laplace_batch(
        &self,
        reqs: &[(SourceVar, &Matrix, f64)],
    ) -> Result<Vec<Vec<f64>>> {
        self.kernel
            .vector_laplace_batch_in(reqs, Some(self))
            .map(owned_answers)
    }
}

impl Drop for BudgetReservation<'_> {
    fn drop(&mut self) {
        // Releases the exact tracked remainder (slot -> None, aggregate
        // decremented by the entry's held value) — no sentinel passes
        // through ledger arithmetic, and a reservation consumed to zero
        // releases exactly nothing.
        self.kernel.state.lock().release_entry(self.id);
    }
}

/// A vector transform's input: data, vectorize base and lineage.
type TransformInput = (Arc<Vec<f64>>, Option<usize>, Option<Matrix>);

/// A zero-copy data snapshot paired with the query's sensitivity
/// (phase-1 output of [`ProtectedKernel::vector_laplace_batch`]).
type Snapshot = Result<(Arc<Vec<f64>>, f64)>;

/// Checks a measurement matrix's L1 sensitivity: zero means no query
/// touches the data, and a NaN or infinite value cannot calibrate noise
/// (a NaN entry would otherwise hide the true sensitivity, see
/// [`Matrix::l1_sensitivity`]).
fn measurement_sensitivity(s: f64) -> Result<f64> {
    if s == 0.0 {
        return Err(EktError::InvalidArgument(
            "measurement matrix has zero sensitivity (no queries touch the data)".into(),
        ));
    }
    if !s.is_finite() {
        return Err(EktError::InvalidArgument(format!(
            "measurement matrix has non-finite sensitivity {s}"
        )));
    }
    Ok(s)
}

/// The groups of the partition matrix `p`, one CSR row per group: the
/// check `reduce_by_partition` and `split_by_partition` share. Every
/// column must lie in exactly one group, with weight exactly 1: then a
/// reduction is 1-stable and the children of a split read disjoint cells,
/// so they compose in parallel.
fn partition_groups(p: &Matrix) -> Result<Cow<'_, CsrMatrix>> {
    let groups = match p {
        Matrix::Sparse(s) => Cow::Borrowed(&**s),
        other => Cow::Owned(other.to_sparse()),
    };
    let mut seen = vec![false; p.cols()];
    for (&c, &v) in groups.indices().iter().zip(groups.values()) {
        if v != 1.0 || std::mem::replace(&mut seen[c as usize], true) {
            return Err(EktError::InvalidPartition(format!(
                "column {c} is not in exactly one group with weight 1"
            )));
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(c) => Err(EktError::InvalidPartition(format!(
            "column {c} is in no group"
        ))),
        None => Ok(groups),
    }
}

/// The answers of a batch of one, copied out of the shared buffer. A
/// batch that returns `Ok` answers every request, so the vector holds
/// exactly one entry.
fn sole_answer(answers: Vec<Arc<[f64]>>) -> Vec<f64> {
    answers.first().map(|a| a.to_vec()).unwrap_or_default()
}

/// Every request's answers, copied out of the shared buffers for the
/// public API (after the kernel lock is released).
fn owned_answers(answers: Vec<Arc<[f64]>>) -> Vec<Vec<f64>> {
    answers.iter().map(|a| a.to_vec()).collect()
}

/// Fills the exact (pre-noise) answer for every valid request slot:
/// `exacts[i] = reqs[i].matrix · snapshots[i].vector`, each in a buffer of
/// its own that phase 3 adds the noise to and records. One reused
/// [`Workspace`] means same-shaped strategies (every stripe of
/// HB-Striped) plan once. The caller checks the workspace out of the
/// kernel's pool and restores it afterwards, so *across* batch calls the
/// arena and plan fast path stay warm too — a second call with the same
/// strategies allocates no scratch at all.
fn fill_exact_answers(
    reqs: &[(SourceVar, &Matrix, f64)],
    snapshots: &[Snapshot],
    exacts: &mut [Option<Arc<[f64]>>],
    ws: &mut Workspace,
) {
    for (e, (&(_, m, _), snap)) in exacts.iter_mut().zip(reqs.iter().zip(snapshots)) {
        if let Ok((x, _)) = snap {
            // Injected crash in the exact-answer phase: it unwinds before
            // any charge is issued.
            failpoints::panic_if("kernel::batch_exact");
            // One allocation: a length-exact iterator collects straight
            // into the shared buffer.
            let mut out: Arc<[f64]> = std::iter::repeat_n(0.0, m.rows()).collect();
            m.matvec_into(x, Arc::make_mut(&mut out), ws);
            *e = Some(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ektelo_matrix::partition_from_labels;

    /// Test oracle: `a` on a kernel from `make` and `b` on a twin from
    /// `make` return the same value, spend the same budget and leave the
    /// kernel stream at the same place.
    pub(crate) fn assert_twins<T: PartialEq + std::fmt::Debug>(
        make: impl Fn() -> ProtectedKernel,
        a: impl FnOnce(&ProtectedKernel) -> T,
        b: impl FnOnce(&ProtectedKernel) -> T,
    ) {
        let (k1, k2) = (make(), make());
        assert_eq!(a(&k1), b(&k2));
        assert_eq!(k1.budget_spent(), k2.budget_spent());
        let next = |k: &ProtectedKernel| k.noisy_count(k.root(), 1e-3).unwrap();
        assert_eq!(next(&k1), next(&k2), "the kernel stream diverged");
    }

    fn simple_kernel(eps: f64) -> ProtectedKernel {
        let schema = Schema::from_sizes(&[("v", 8)]);
        let rows: Vec<Vec<u32>> = (0..16).map(|i| vec![i % 8]).collect();
        ProtectedKernel::init(Table::from_rows(schema, &rows), eps, 11)
    }

    #[test]
    fn end_to_end_measurement_and_history() {
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        assert_eq!(k.vector_len(x).unwrap(), 8);
        let y = k.vector_laplace(x, &Matrix::identity(8), 0.5).unwrap();
        assert_eq!(y.len(), 8);
        let h = k.measurements();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].noise_scale, 2.0); // sens 1 / eps 0.5
        assert!((k.budget_spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn budget_exhaustion_is_an_error_not_a_panic() {
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        k.vector_laplace(x, &Matrix::identity(8), 1.0).unwrap();
        let err = k.vector_laplace(x, &Matrix::identity(8), 0.2).unwrap_err();
        assert!(matches!(err, EktError::BudgetExceeded { .. }));
    }

    #[test]
    fn sensitivity_is_auto_calibrated() {
        // Prefix has sensitivity n = 8, so the noise scale must be 8/ε.
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        k.vector_laplace(x, &Matrix::prefix(8), 1.0).unwrap();
        assert_eq!(k.measurements()[0].noise_scale, 8.0);
    }

    #[test]
    fn reduce_by_partition_tracks_lineage() {
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        let p = partition_from_labels(2, &[0, 0, 0, 0, 1, 1, 1, 1]);
        let xr = k.reduce_by_partition(x, &p).unwrap();
        assert_eq!(k.vector_len(xr).unwrap(), 2);
        k.vector_laplace(xr, &Matrix::identity(2), 0.5).unwrap();
        let h = k.measurements();
        // Effective query over the base domain is I₂·P = P.
        assert_eq!(h[0].query.shape(), (2, 8));
        let q = h[0].query.to_dense();
        assert_eq!(q.row_slice(0), &[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn split_by_partition_gets_parallel_composition() {
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        let p = partition_from_labels(4, &[0, 0, 1, 1, 2, 2, 3, 3]);
        let parts = k.split_by_partition(x, &p).unwrap();
        assert_eq!(parts.len(), 4);
        for &part in &parts {
            k.vector_laplace(part, &Matrix::identity(2), 0.8).unwrap();
        }
        // Four sibling measurements at ε = 0.8 cost 0.8 total.
        assert!((k.budget_spent() - 0.8).abs() < 1e-12);
        // All four recorded measurements map back to the 8-cell base.
        for m in k.measurements() {
            assert_eq!(m.query.cols(), 8);
        }
    }

    /// The group path the CSR walk replaced: materialize the partition,
    /// collect every row's cells, build each selector from triplets.
    fn groups_by_materializing(p: &Matrix) -> Vec<Vec<usize>> {
        let sp = p.to_sparse();
        (0..sp.rows())
            .map(|g| sp.row_entries(g).map(|(c, _)| c).collect())
            .collect()
    }

    fn selector_by_triplets(n: usize, cells: &[usize]) -> Matrix {
        let t: Vec<(usize, usize, f64)> = cells
            .iter()
            .enumerate()
            .map(|(r, &c)| (r, c, 1.0))
            .collect();
        Matrix::sparse(CsrMatrix::from_triplets(cells.len(), n, &t))
    }

    #[test]
    fn split_children_match_the_group_path() {
        let n = 120;
        // The stripes of attribute 1 of a 6 × 5 × 4 domain.
        let stripes = ektelo_matrix::strided_partition(6, 5, 4);
        // Groups 0..5 with group 2 never used.
        let with_empty: Vec<usize> = (0..n)
            .map(|j| match (j * 7) % 5 {
                2 => 0,
                g => g,
            })
            .collect();
        let dense: Vec<Vec<f64>> = (0..3)
            .map(|g| (0..n).map(|j| f64::from(u8::from(j % 3 == g))).collect())
            .collect();
        let halves = partition_from_labels(2, &(0..n).map(|j| j / 60).collect::<Vec<_>>());
        for p in [
            stripes,
            partition_from_labels(6, &with_empty),
            Matrix::identity(n),
            Matrix::from_rows(dense),
        ] {
            let groups = groups_by_materializing(&p);
            let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64).collect();
            let probe: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
            // Split the root (identity lineage) and a reduced-then-expanded
            // node (a real lineage product).
            let k = ProtectedKernel::init_from_vector(x.clone(), 1.0, 3);
            let lifted = Matrix::product(halves.transpose(), halves.clone());
            let source = k.transform_linear(k.root(), &lifted).unwrap();
            for sv in [k.root(), source] {
                let (parent_x, parent_lineage) = {
                    let st = k.state.lock();
                    (
                        st.snapshot::<Arc<Vec<f64>>>(sv.0).unwrap(),
                        st.nodes[sv.0].lineage.clone().unwrap(),
                    )
                };
                let before = k.state.lock().nodes.len();
                let parts = k.split_by_partition(sv, &p).unwrap();
                let st = k.state.lock();
                assert_eq!(st.nodes.len(), before + 1 + groups.len());
                assert_eq!(parts.len(), groups.len());
                for (&part, cells) in parts.iter().zip(&groups) {
                    let want: Vec<f64> = cells.iter().map(|&c| parent_x[c]).collect();
                    assert_eq!(*st.snapshot::<Arc<Vec<f64>>>(part.0).unwrap(), want);
                    let old =
                        Matrix::product(selector_by_triplets(n, cells), parent_lineage.clone());
                    let lineage = st.nodes[part.0].lineage.as_ref().unwrap();
                    assert_eq!(lineage.matvec(&probe), old.matvec(&probe));
                    assert_eq!(lineage.to_sparse(), old.to_sparse());
                }
            }
            // Siblings compose in parallel: one ε per split, not per child.
            let k = ProtectedKernel::init_from_vector(x, 1.0, 3);
            let parts = k.split_by_partition(k.root(), &p).unwrap();
            for (&part, cells) in parts.iter().zip(&groups) {
                if !cells.is_empty() {
                    k.vector_laplace(part, &Matrix::identity(cells.len()), 0.5)
                        .unwrap();
                }
            }
            assert!((k.budget_spent() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_non_partition_matrices() {
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        assert!(matches!(
            k.reduce_by_partition(x, &Matrix::prefix(8)),
            Err(EktError::InvalidPartition(_))
        ));
    }

    #[test]
    fn general_linear_transform_scales_stability() {
        // M = 2·P doubles the budget cost downstream.
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        let m = Matrix::scaled(2.0, Matrix::identity(8));
        let x2 = k.transform_linear(x, &m).unwrap();
        k.vector_laplace(x2, &Matrix::identity(8), 0.25).unwrap();
        assert!((k.budget_spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn where_then_vectorize() {
        let k = simple_kernel(1.0);
        let filtered = k
            .transform_where(k.root(), &Predicate::range("v", 0, 4))
            .unwrap();
        let x = k.vectorize(filtered).unwrap();
        assert_eq!(k.vector_len(x).unwrap(), 8);
        // Sum of a filtered vectorization = noisy count of matching rows.
        let y = k.vector_laplace(x, &Matrix::total(8), 1.0).unwrap();
        assert!((y[0] - 8.0).abs() < 20.0); // 8 matching rows ± noise
    }

    #[test]
    fn noisy_count_on_table_and_vector() {
        let k = simple_kernel(2.0);
        let c = k.noisy_count(k.root(), 1.0).unwrap();
        assert!((c - 16.0).abs() < 25.0);
        let x = k.vectorize(k.root()).unwrap();
        let c2 = k.noisy_count(x, 0.5).unwrap();
        assert!((c2 - 16.0).abs() < 40.0);
        assert!((k.budget_spent() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn init_rejects_an_infinite_budget() {
        let schema = Schema::from_sizes(&[("v", 2)]);
        ProtectedKernel::init(Table::from_rows(schema, &[vec![0]]), f64::INFINITY, 0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn init_rejects_a_nan_budget() {
        let schema = Schema::from_sizes(&[("v", 2)]);
        ProtectedKernel::init(Table::from_rows(schema, &[vec![0]]), f64::NAN, 0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn init_from_vector_rejects_an_infinite_budget() {
        ProtectedKernel::init_from_vector(vec![1.0], f64::INFINITY, 0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn init_from_vector_rejects_a_nan_budget() {
        ProtectedKernel::init_from_vector(vec![1.0], f64::NAN, 0);
    }

    /// The noisy histogram's noise has the Laplace(1/ε) calibration its
    /// privacy proof assumes, per request of a batch: over 24,000 cells of
    /// the root and of a `reduce_by_partition` child, each at its own ε,
    /// the sample mean of `noisy − x` is within five standard errors of 0
    /// and the sample variance within five standard errors of `2/ε²` (the
    /// standard errors taken from the sample's own second and fourth
    /// moments). The root is charged each request's ε times its source's
    /// stability to the root.
    #[test]
    fn noisy_histogram_noise_is_laplace_at_one_over_eps() {
        let n = 48_000;
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64).collect();
        let pairs = partition_from_labels(n / 2, &(0..n).map(|i| i / 2).collect::<Vec<_>>());
        let reduced = pairs.matvec(&x);
        for (seed, eps_root, eps_child) in [(1, 0.5, 2.0), (2, 1.0, 0.25), (3, 4.0, 1.0)] {
            let k = ProtectedKernel::init_from_vector(x.clone(), 10.0, seed);
            let child = k.reduce_by_partition(k.root(), &pairs).unwrap();
            let reqs = [(k.root(), eps_root), (child, eps_child)];
            let noise = k
                .noisy_histograms(&reqs, None, |noisy| noisy.to_vec())
                .unwrap();
            for ((noisy, exact), &(_, eps)) in noise.iter().zip([&x, &reduced]).zip(&reqs) {
                let m = noisy.len() as f64;
                assert!(m >= 20_000.0);
                let e: Vec<f64> = noisy.iter().zip(exact.iter()).map(|(a, b)| a - b).collect();
                let mean = e.iter().sum::<f64>() / m;
                let var = e.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (m - 1.0);
                let m4 = e.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / m;
                let (mean_se, var_se) = ((var / m).sqrt(), ((m4 - var * var) / m).sqrt());
                let want = 2.0 / (eps * eps);
                assert!(
                    mean.abs() <= 5.0 * mean_se,
                    "ε {eps}: mean {mean} ± {mean_se}"
                );
                assert!(
                    (var - want).abs() <= 5.0 * var_se,
                    "ε {eps}: variance {var} ± {var_se}, want {want}"
                );
            }
            let charged: f64 = reqs
                .iter()
                .map(|&(sv, eps)| eps * k.stability_to_root(sv))
                .sum();
            assert_eq!(k.budget_spent(), charged);
        }
    }

    /// Reference for the noisy histograms: the privileged steps inlined —
    /// one charge and snapshot, then per request its counter-based
    /// substream and the noise drawn here.
    fn noisy_histograms_by_hand(k: &ProtectedKernel, reqs: &[(SourceVar, f64)]) -> Vec<Vec<f64>> {
        let (base, snaps) = k.charge_and_snapshot::<Arc<Vec<f64>>>(reqs, None).unwrap();
        let noisy = snaps
            .iter()
            .zip(reqs)
            .enumerate()
            .map(|(i, (x, &(_, eps)))| {
                let mut rng = StdRng::seed_from_u64(substream_seed(base, i as u64));
                let mut noisy = vec![0.0; x.len()];
                noise::fill_laplace(&mut rng, 1.0 / eps, &mut noisy);
                for (e, &v) in noisy.iter_mut().zip(x.iter()) {
                    *e += v;
                }
                noisy
            });
        noisy.collect()
    }

    /// The release AHP selects on (one source) and the one DAWA-Striped's
    /// batch selects on (stripes of unequal length, so the reused buffer
    /// shrinks and grows) are the reference's, bit for bit, at several
    /// seeds and budgets: same charges, same draws, same stream position
    /// after. This pins the substream protocol, the two partition
    /// selections' noise contract.
    #[test]
    fn noisy_histograms_are_the_private_steps() {
        let x: Vec<f64> = (0..96).map(|i| ((i * 13) % 7) as f64 * 20.0).collect();
        let labels: Vec<usize> = (0..96).map(|i| [0, 1, 1, 2, 3, 3][i / 16]).collect();
        let p = partition_from_labels(4, &labels);
        for (seed, eps) in [(31, 0.5), (32, 0.05), (42, 2.0)] {
            let root = |k: &ProtectedKernel| vec![(k.root(), eps)];
            let stripes = |k: &ProtectedKernel| {
                let parts = k.split_by_partition(k.root(), &p).unwrap();
                parts.into_iter().map(|s| (s, eps)).collect::<Vec<_>>()
            };
            for reqs in [&root as &dyn Fn(&ProtectedKernel) -> _, &stripes] {
                assert_twins(
                    || ProtectedKernel::init_from_vector(x.clone(), 10.0, seed),
                    |k| k.noisy_histograms(&reqs(k), None, |n| n.to_vec()).unwrap(),
                    |k| noisy_histograms_by_hand(k, &reqs(k)),
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let k = simple_kernel(1.0);
            let x = k.vectorize(k.root()).unwrap();
            k.vector_laplace(x, &Matrix::identity(8), 1.0).unwrap()
        };
        assert_eq!(run(), run());
    }

    /// Reference for the batch: one measurement with the charge, the
    /// exact answer by `Matrix::matvec`, the noise draws in order and the
    /// history record all under one state lock.
    fn sequential_oracle(k: &ProtectedKernel, sv: SourceVar, m: &Matrix, eps: f64) -> Vec<f64> {
        let sensitivity = m.l1_sensitivity();
        let mut st = k.state.lock();
        st.request(sv.0, eps, None).unwrap();
        let scale = sensitivity / eps;
        let exact = m.matvec(&st.snapshot::<Arc<Vec<f64>>>(sv.0).unwrap());
        let answers: Vec<f64> = exact
            .into_iter()
            .map(|v| v + noise::laplace(&mut st.rng, scale))
            .collect();
        if let (Some(base), Some(lineage)) = (st.nodes[sv.0].base, st.nodes[sv.0].lineage.clone()) {
            let effective = match &lineage {
                Matrix::Identity { .. } => m.clone(),
                _ => Matrix::product(m.clone(), lineage),
            };
            st.history.push(MeasuredQuery {
                base: SourceVar(base),
                query: effective,
                answers: answers.as_slice().into(),
                noise_scale: scale,
            });
        }
        answers
    }

    /// Splits an `n`-cell vector into `stripes` equal stripes, measures
    /// every stripe with `strategy` through the oracle on one kernel and
    /// through one batch on an identically seeded twin, and asserts the
    /// two agree bit for bit: answers, charges and history.
    fn assert_batch_matches_oracle(n: usize, stripes: usize, strategy: &Matrix) {
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64).collect();
        let labels: Vec<usize> = (0..n).map(|i| i * stripes / n).collect();
        let p = partition_from_labels(stripes, &labels);

        let k1 = ProtectedKernel::init_from_vector(x.clone(), 1.0, 11);
        let parts1 = k1.split_by_partition(k1.root(), &p).unwrap();
        let seq: Vec<Vec<f64>> = parts1
            .iter()
            .map(|&s| sequential_oracle(&k1, s, strategy, 0.5))
            .collect();

        let k2 = ProtectedKernel::init_from_vector(x, 1.0, 11);
        let parts2 = k2.split_by_partition(k2.root(), &p).unwrap();
        let reqs: Vec<(SourceVar, &Matrix, f64)> =
            parts2.iter().map(|&s| (s, strategy, 0.5)).collect();
        let batch = k2.vector_laplace_batch(&reqs).unwrap();

        assert_eq!(seq, batch, "batch must reproduce the sequential draws");
        assert_eq!(k1.budget_spent(), k2.budget_spent());
        let h1 = k1.measurements();
        let h2 = k2.measurements();
        assert_eq!(h1.len(), h2.len());
        for (a, b) in h1.iter().zip(&h2) {
            assert_eq!(a.answers, b.answers);
            assert_eq!(a.noise_scale, b.noise_scale);
            assert_eq!(a.base, b.base);
            assert_eq!(a.query.to_sparse(), b.query.to_sparse());
        }
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_loop() {
        let small = Matrix::vstack(vec![Matrix::identity(2), Matrix::total(2)]);
        assert_batch_matches_oracle(8, 4, &small);
        // 8192 cells over 4 stripes.
        let stripe = 2048;
        let wide = Matrix::vstack(vec![Matrix::identity(stripe), Matrix::prefix(stripe)]);
        assert_batch_matches_oracle(4 * stripe, 4, &wide);
    }

    #[test]
    fn single_measurement_is_a_batch_of_one() {
        // Both public single-measurement entry points agree with the
        // oracle bit for bit, on an identity and a non-identity lineage.
        let run = |oracle: bool| {
            let k = simple_kernel(2.0);
            let x = k.vectorize(k.root()).unwrap();
            let p = partition_from_labels(2, &[0, 0, 0, 0, 1, 1, 1, 1]);
            let xr = k.reduce_by_partition(x, &p).unwrap();
            let out = if oracle {
                vec![
                    sequential_oracle(&k, x, &Matrix::prefix(8), 0.5),
                    sequential_oracle(&k, xr, &Matrix::identity(2), 0.5),
                ]
            } else {
                let res = k.reserve_budget(0.5).unwrap();
                vec![
                    k.vector_laplace(x, &Matrix::prefix(8), 0.5).unwrap(),
                    res.vector_laplace(xr, &Matrix::identity(2), 0.5).unwrap(),
                ]
            };
            let h: Vec<(Vec<f64>, f64)> = k
                .measurements()
                .into_iter()
                .map(|m| (m.answers.to_vec(), m.noise_scale))
                .collect();
            (out, h, k.budget_spent())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn batch_failure_matches_sequential_prefix_semantics() {
        let k = simple_kernel(1.0);
        let x = k.vectorize(k.root()).unwrap();
        let p = partition_from_labels(2, &[0, 0, 0, 0, 1, 1, 1, 1]);
        let parts = k.split_by_partition(x, &p).unwrap();
        let good = Matrix::identity(4);
        let bad = Matrix::identity(7); // wrong width for a 4-cell stripe
        let reqs = vec![(parts[0], &good, 0.5), (parts[1], &bad, 0.5)];
        let err = k.vector_laplace_batch(&reqs).unwrap_err();
        assert!(matches!(err, EktError::ShapeMismatch { .. }));
        // The first request went through before the failure, like the
        // sequential loop.
        assert_eq!(k.measurements().len(), 1);
        assert!((k.budget_spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn init_from_vector_measures_directly() {
        let k = ProtectedKernel::init_from_vector(vec![5.0, 3.0, 2.0], 1.0, 3);
        let y = k.vector_laplace(k.root(), &Matrix::total(3), 1.0).unwrap();
        assert!((y[0] - 10.0).abs() < 15.0);
    }

    /// The idle slot keeps one workspace of at most the bound: a
    /// checkout takes it back warm, a second checkout while it is out
    /// gets a fresh one, the restore that finds the slot taken drops its
    /// workspace, and an arena over the bound is never kept.
    #[test]
    fn idle_slot_keeps_one_workspace_within_the_bound() {
        let pool = IdleWorkspace::default();
        let mut warm = pool.checkout();
        warm.reserve(64);
        pool.restore(warm, 1024);
        let bytes = pool.resident_bytes();
        assert!(bytes >= 64 * std::mem::size_of::<f64>());

        let first = pool.checkout();
        assert_eq!(first.capacity(), 64, "the idle workspace comes back warm");
        assert_eq!(pool.resident_bytes(), 0);
        let second = pool.checkout();
        assert_eq!(second.capacity(), 0, "the slot was empty: a fresh one");
        pool.restore(first, 1024);
        pool.restore(second, 1024);
        assert_eq!(pool.resident_bytes(), bytes, "the slot holds one workspace");

        let mut big = Workspace::default();
        big.reserve(1024 / std::mem::size_of::<f64>() + 1);
        let _ = pool.checkout();
        pool.restore(big, 1024);
        assert_eq!(
            pool.resident_bytes(),
            0,
            "an arena over the bound is dropped"
        );
    }
}
