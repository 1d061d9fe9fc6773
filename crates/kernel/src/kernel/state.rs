//! Kernel state: the data-source environment, transformation graph,
//! stability tracker and the budget `Request` algorithm (paper §4.4 and
//! Algorithm 2), whose charge propagation the plan pre-accountant shares.

use std::sync::Arc;

use ektelo_data::Table;
use ektelo_matrix::{failpoints, Matrix};
use rand::rngs::StdRng;

use super::error::{EktError, Result};

/// Tolerance for budget admission comparisons: guards against accumulated
/// floating-point drift when a plan spends exactly its whole budget in
/// several steps. Shared by [`KernelState::request`] (charges) and
/// [`KernelState::reserve`] (plan-graph admission) so the two chokepoints
/// can never drift apart.
const EPS_TOL: f64 = 1e-9;

/// Validates an operator-supplied privacy cost: strictly positive and
/// finite, or `InvalidArgument`. Every vetted operator in
/// [`super::ProtectedKernel`] funnels its `eps` argument through here
/// before touching any data, so NaN/∞/non-positive costs are rejected
/// up front — in particular *before* a batched call issues any of its
/// charges, instead of mid-batch when [`KernelState::request`] would
/// catch the bad entry after earlier entries already spent budget.
pub(crate) fn validate_eps(eps: f64) -> Result<()> {
    // `eps <= 0.0` alone would let NaN through (all NaN comparisons are
    // false); the finiteness check in front is what rejects it.
    if !eps.is_finite() || eps <= 0.0 {
        return Err(EktError::InvalidArgument(format!(
            "non-positive epsilon {eps}"
        )));
    }
    Ok(())
}

/// Validates a global privacy budget at kernel construction time and
/// passes it through. Construction takes a trusted curator-supplied
/// budget, so a bad value is a programming error (panic), not a runtime
/// `Result` — but the comparison still lives here in the budget
/// chokepoint module, not at the call sites. The budget must be finite
/// as well as positive: `+∞` passes `> 0`, and no admission would ever
/// refuse after it; NaN fails every comparison.
pub(crate) fn checked_eps_total(eps_total: f64) -> f64 {
    assert!(
        eps_total.is_finite() && eps_total > 0.0,
        "privacy budget must be positive and finite, got {eps_total}"
    );
    eps_total
}

/// What a transformation-graph node holds.
///
/// Table and vector payloads are `Arc`-shared: node data is immutable
/// once added (transformations only derive *new* nodes), so every
/// operator that reads data snapshots it under the kernel lock with a
/// refcount bump and computes on it after the lock is released.
#[derive(Debug)]
pub enum NodeData {
    /// A relational table (immutable, shareable by refcount).
    Table(Arc<Table>),
    /// A data vector (immutable, shareable by refcount).
    Vector(Arc<Vec<f64>>),
    /// The dummy source introduced by a partition transformation
    /// (paper §4.4: "a partition transformation introduces a special dummy
    /// data source variable").
    PartitionDummy,
}

/// A node of the transformation graph.
#[derive(Debug)]
pub(crate) struct Node {
    pub data: NodeData,
    pub parent: Option<usize>,
    /// Stability factor of the transformation that derived this node from
    /// its parent (paper Def. 3.4); 1 for the root.
    pub stability: f64,
    /// Budget consumption tracker `B(sv)` (paper §4.4).
    pub budget: f64,
    /// For vector nodes: the node id of the vectorize output this vector
    /// descends from (inference maps measurements back onto that base).
    pub base: Option<usize>,
    /// For vector nodes: the linear map from the base vector to this one.
    pub lineage: Option<Matrix>,
}

/// A measurement recorded by a query operator, already mapped onto the base
/// vector's domain (paper §5.5, "Defining inference under vector
/// transformations").
#[derive(Clone, Debug)]
pub struct MeasuredQuery {
    /// The vectorize-output node this measurement refers to.
    pub base: super::SourceVar,
    /// The effective query matrix over the base domain (`M · lineage`).
    pub query: Matrix,
    /// The noisy answers: shared and immutable. The kernel adds the noise
    /// to the exact answers in place and records that one buffer, so the
    /// history, `measurements_since` and the executor hold the same
    /// answers without copying them; cloning a record bumps a refcount.
    pub answers: Arc<[f64]>,
    /// The Laplace scale of the noise added to each answer.
    pub noise_scale: f64,
}

/// Ledger entry for one outstanding [`super::BudgetReservation`]: the root
/// budget it still holds, and the charges redeemed against it so far (the
/// per-plan ledger behind `ExecReport::eps_charged`). Mutated only inside
/// this module — xlint's budget-chokepoint rule pins `held`/`charged`
/// mutations to `state.rs` exactly like the root trackers.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReservationEntry {
    /// Root budget still held (shrinks as charges redeem it).
    pub held: f64,
    /// Total root budget charged through this reservation.
    pub charged: f64,
}

/// The protected kernel's mutable state (`S_kernel` in the paper's proof).
pub(crate) struct KernelState {
    pub nodes: Vec<Node>,
    pub eps_total: f64,
    /// Root budget currently held by outstanding [`super::BudgetReservation`]s
    /// (the sum of every live entry's `held`). Reserved budget is invisible
    /// to ordinary requests: the root case of [`KernelState::request`] only
    /// admits unattributed charges into `eps_total - reserved`. A charge
    /// issued *with* a reservation redeems its own hold and the admission
    /// check credits that hold back atomically — reservation consumption
    /// and the root charge commit under one state lock, so a concurrent
    /// session can never observe (or steal) a half-released slice.
    pub reserved: f64,
    /// Slab of live reservation entries, indexed by the id stored in
    /// [`super::BudgetReservation`]. Released slots are `None` and reused.
    pub reservations: Vec<Option<ReservationEntry>>,
    pub rng: StdRng,
    pub history: Vec<MeasuredQuery>,
}

impl KernelState {
    /// Root budget consumed so far.
    pub fn spent(&self) -> f64 {
        self.nodes[0].budget
    }

    /// The budget `Request` procedure (paper Algorithm 2): [`charge`] over
    /// the source tree, with the root admitting its share. `res`
    /// attributes the charge to a live reservation slot: the root then
    /// *redeems* the charge from that reservation's hold — hold
    /// consumption and the root charge commit atomically under the one
    /// state lock, which is what makes an admitted plan's budget
    /// unstealable by concurrent sessions. Returns `Ok(())` and updates
    /// trackers if the request fits; returns a typed error (leaving all
    /// trackers untouched) otherwise.
    pub fn request(&mut self, sv: usize, sigma: f64, res: Option<usize>) -> Result<()> {
        charge(self, sv, sigma, |st, root, sigma| {
            st.charge_root(root, sigma, res)
        })
    }

    /// Algorithm 2's root case: the only place the ledger's root tracker
    /// moves, so the charging-class failpoints live here, *before* any
    /// mutation: an injected fault is a clean typed rejection,
    /// indistinguishable from an admission failure as far as the ledger
    /// is concerned.
    fn charge_root(&mut self, root: usize, sigma: f64, res: Option<usize>) -> Result<()> {
        let site = if res.is_some() {
            "state::redeem"
        } else {
            "state::charge"
        };
        if failpoints::triggered(site) {
            return Err(EktError::FaultInjected(site));
        }
        // A reservation-attributed charge redeems its own hold first; only
        // the part not covered by the hold competes for unreserved budget.
        let take = res.map_or(0.0, |id| {
            sigma.min(self.reservations[id].map_or(0.0, |e| e.held))
        });
        let avail = self.eps_total - (self.reserved - take);
        let b = self.nodes[root].budget;
        if b + sigma > avail * (1.0 + EPS_TOL) + EPS_TOL {
            return Err(EktError::BudgetExceeded {
                requested: sigma,
                remaining: (avail - b).max(0.0),
            });
        }
        if let Some(entry) = res.and_then(|id| self.reservations[id].as_mut()) {
            // `take ≤ held` exactly, so the hold never goes negative; the
            // aggregate is clamped because it sums many entries and may
            // carry last-ulp drift.
            entry.held -= take;
            entry.charged += sigma;
            self.reserved = (self.reserved - take).max(0.0);
        }
        self.nodes[root].budget += sigma;
        Ok(())
    }

    /// Admits a budget reservation of `eps` at the root and returns its
    /// slot id, or rejects it with all trackers untouched. This is the
    /// reservation-side admission chokepoint (the charge side is
    /// [`KernelState::request`]): it owns the only mutation that grows
    /// [`KernelState::reserved`].
    ///
    /// NaN must be rejected explicitly: `eps < 0.0` and the admission
    /// comparison below are both false for NaN, so a NaN reservation
    /// would be admitted and set `reserved = NaN` — after which every
    /// root availability check (`eps_total − NaN`) is vacuously
    /// satisfied and ALL charges from every session get through. An
    /// infinite reservation can never be covered either.
    pub fn reserve(&mut self, eps: f64) -> Result<usize> {
        // Admission-class failpoint: fires before any mutation, so an
        // injected fault is a clean typed rejection.
        if failpoints::triggered("state::reserve") {
            return Err(EktError::FaultInjected("state::reserve"));
        }
        if !eps.is_finite() || eps < 0.0 {
            return Err(EktError::InvalidArgument(format!(
                "reservation must be a non-negative finite number, got {eps}"
            )));
        }
        let committed = self.spent() + self.reserved;
        if committed + eps > self.eps_total * (1.0 + EPS_TOL) + EPS_TOL {
            return Err(EktError::BudgetExceeded {
                requested: eps,
                remaining: (self.eps_total - committed).max(0.0),
            });
        }
        self.reserved += eps;
        let entry = ReservationEntry {
            held: eps,
            charged: 0.0,
        };
        // Reuse a released slot so long-lived sessions don't grow the slab.
        let id = match self.reservations.iter().position(Option::is_none) {
            Some(i) => {
                self.reservations[i] = Some(entry);
                i
            }
            None => {
                self.reservations.push(Some(entry));
                self.reservations.len() - 1
            }
        };
        Ok(id)
    }

    /// Releases reservation slot `id`: its exact tracked remainder flows
    /// back into the charge-visible budget and the slot becomes reusable.
    /// This is the only mutation (besides redemption in
    /// [`KernelState::request`]) that shrinks [`KernelState::reserved`].
    /// Idempotent — a second release of the same slot finds `None` and
    /// does nothing, so the ledger can never be credited twice.
    pub fn release_entry(&mut self, id: usize) {
        if let Some(entry) = self.reservations[id].take() {
            // The exact remainder, never a sentinel: the aggregate floor
            // only absorbs last-ulp drift between the sum-of-entries and
            // the running aggregate.
            self.reserved = (self.reserved - entry.held).max(0.0);
            // With no live holds the aggregate is zero by definition;
            // snapping here discards the last-ulp dust that concurrent
            // sessions' interleaved add/sub orderings can leave behind,
            // so `reserved == 0.0` holds exactly whenever the slab is
            // empty.
            if self.reservations.iter().all(Option::is_none) {
                self.reserved = 0.0;
            }
        }
    }

    /// Root budget still held by reservation slot `id` (0 once released).
    pub fn reservation_remaining(&self, id: usize) -> f64 {
        self.reservations
            .get(id)
            .and_then(|s| s.as_ref())
            .map_or(0.0, |e| e.held)
    }

    /// Total root budget charged through reservation slot `id` so far.
    pub fn reservation_charged(&self, id: usize) -> f64 {
        self.reservations
            .get(id)
            .and_then(|s| s.as_ref())
            .map_or(0.0, |e| e.charged)
    }

    /// Number of live (unreleased) reservation slots.
    pub fn active_reservations(&self) -> usize {
        self.reservations.iter().filter(|s| s.is_some()).count()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// A zero-copy snapshot of source `sv` as payload type `D` (a
    /// refcount bump, valid after the kernel lock is released), or
    /// `WrongSourceType` when the node holds another kind of data.
    pub fn snapshot<D: SourceData>(&self, sv: usize) -> Result<D> {
        D::of(&self.nodes[sv].data)
    }
}

impl SourceTree for KernelState {
    fn parent(&self, sv: usize) -> Option<usize> {
        self.nodes[sv].parent
    }

    fn stability(&self, sv: usize) -> f64 {
        self.nodes[sv].stability
    }

    fn is_partition_variable(&self, sv: usize) -> bool {
        matches!(self.nodes[sv].data, NodeData::PartitionDummy)
    }

    fn budget(&mut self, sv: usize) -> &mut f64 {
        &mut self.nodes[sv].budget
    }
}

/// What Algorithm 2 reads and moves of a source tree: parent links,
/// stabilities, the partition variables and the budget trackers `B(sv)`.
/// The kernel's state is one such tree; the plan pre-accountant's shadow
/// of a spec is the other, so both charge by the one rule, [`charge`].
pub trait SourceTree {
    /// The parent of node `sv`; `None` at the root.
    fn parent(&self, sv: usize) -> Option<usize>;
    /// The stability of the transformation that derived `sv` (paper
    /// Def. 3.4).
    fn stability(&self, sv: usize) -> f64;
    /// Whether `sv` is the partition variable a split introduces.
    fn is_partition_variable(&self, sv: usize) -> bool;
    /// The budget tracker `B(sv)` (paper §4.4).
    fn budget(&mut self, sv: usize) -> &mut f64;
}

/// The charge propagation of the budget `Request` procedure (paper
/// Algorithm 2): a charge of `sigma` at `sv` moves up the tree, scaled by
/// each ordinary node's stability; a partition variable passes on only
/// what its child's new total exceeds its own (the max-difference rule
/// that makes siblings compose in parallel). `charge_root(tree, root,
/// cost)` admits or refuses the root's cost; the trackers below the root
/// move only after it succeeds, so a refused or invalid charge (a NaN,
/// infinite or negative cost at any level) leaves every tracker as it
/// was.
pub fn charge<T: SourceTree + ?Sized>(
    tree: &mut T,
    sv: usize,
    sigma: f64,
    charge_root: impl FnOnce(&mut T, usize, f64) -> Result<()>,
) -> Result<()> {
    propagate(tree, sv, sigma, None, charge_root)
}

/// [`charge`] at `sv`, reached from `from_child` (the child a partition
/// variable's rule reads).
fn propagate<T: SourceTree + ?Sized>(
    tree: &mut T,
    sv: usize,
    sigma: f64,
    from_child: Option<usize>,
    charge_root: impl FnOnce(&mut T, usize, f64) -> Result<()>,
) -> Result<()> {
    // All comparisons on NaN are false, so a NaN sigma would sail past
    // the admission check and poison the trackers (after which every
    // later check is vacuously satisfied). The check runs at every level,
    // so a non-finite stability product is caught at the parent too.
    if !sigma.is_finite() || sigma < 0.0 {
        return Err(EktError::InvalidArgument(format!(
            "budget request must be a non-negative finite number, got {sigma}"
        )));
    }
    let Some(parent) = tree.parent(sv) else {
        return charge_root(tree, sv, sigma);
    };
    let (passed, own) = if tree.is_partition_variable(sv) {
        let child =
            // xlint: allow(panic-policy, reason = "unreachable from public API: partition-dummy SourceVars are never handed to callers, so a dummy is only reached by the recursive call which always passes Some(child)")
            from_child.expect("partition variable reached without child context");
        let r = (*tree.budget(child) + sigma - *tree.budget(sv)).max(0.0);
        (r, r)
    } else {
        (tree.stability(sv) * sigma, sigma)
    };
    propagate(tree, parent, passed, Some(sv), charge_root)?;
    *tree.budget(sv) += own;
    Ok(())
}

/// A source payload an operator can snapshot: a refcount bump of a
/// node's immutable data, valid after the kernel lock is released.
pub trait SourceData: Sized {
    /// The snapshot of `data`, or `WrongSourceType`.
    fn of(data: &NodeData) -> Result<Self>;
}

impl SourceData for Arc<Vec<f64>> {
    fn of(data: &NodeData) -> Result<Self> {
        match data {
            NodeData::Vector(v) => Ok(Arc::clone(v)),
            _ => Err(EktError::WrongSourceType { expected: "vector" }),
        }
    }
}

/// A vector source with at least one cell: the snapshot the noisy
/// histogram releases. An empty source is rejected before anything is
/// charged, since the operators that group its cells would panic on it
/// after the charge.
pub struct NonEmptyVector(pub Arc<Vec<f64>>);

impl SourceData for NonEmptyVector {
    fn of(data: &NodeData) -> Result<Self> {
        let v: Arc<Vec<f64>> = SourceData::of(data)?;
        if v.is_empty() {
            return Err(EktError::InvalidArgument(
                "cannot release a histogram of an empty vector source".into(),
            ));
        }
        Ok(NonEmptyVector(v))
    }
}

impl SourceData for Arc<Table> {
    fn of(data: &NodeData) -> Result<Self> {
        match data {
            NodeData::Table(t) => Ok(Arc::clone(t)),
            _ => Err(EktError::WrongSourceType { expected: "table" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn state(eps: f64) -> KernelState {
        let mut s = KernelState {
            nodes: Vec::new(),
            eps_total: eps,
            reserved: 0.0,
            reservations: Vec::new(),
            rng: StdRng::seed_from_u64(0),
            history: Vec::new(),
        };
        s.add_node(Node {
            data: NodeData::Vector(Arc::new(vec![0.0; 4])),
            parent: None,
            stability: 1.0,
            budget: 0.0,
            base: Some(0),
            lineage: Some(Matrix::identity(4)),
        });
        s
    }

    fn add_child(s: &mut KernelState, parent: usize, stability: f64) -> usize {
        s.add_node(Node {
            data: NodeData::Vector(Arc::new(vec![0.0; 4])),
            parent: Some(parent),
            stability,
            budget: 0.0,
            base: Some(0),
            lineage: None,
        })
    }

    fn add_partition(s: &mut KernelState, parent: usize, k: usize) -> (usize, Vec<usize>) {
        let dummy = s.add_node(Node {
            data: NodeData::PartitionDummy,
            parent: Some(parent),
            stability: 1.0,
            budget: 0.0,
            base: Some(0),
            lineage: None,
        });
        let children = (0..k).map(|_| add_child(s, dummy, 1.0)).collect();
        (dummy, children)
    }

    #[test]
    fn non_finite_or_negative_requests_rejected_with_trackers_untouched() {
        // NaN fails every comparison, so without an explicit guard a NaN
        // charge would pass the admission check and poison the root
        // tracker — making all later checks vacuously true.
        let mut s = state(1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1] {
            assert!(matches!(
                s.request(0, bad, None),
                Err(EktError::InvalidArgument(_))
            ));
        }
        assert_eq!(s.spent(), 0.0);
        // The guard also covers charges routed through derived sources
        // (the check recurses with the request).
        let c = add_child(&mut s, 0, 2.0);
        assert!(matches!(
            s.request(c, f64::NAN, None),
            Err(EktError::InvalidArgument(_))
        ));
        assert_eq!(s.spent(), 0.0);
        // Enforcement still works after the rejected requests.
        assert!(s.request(0, 1.0, None).is_ok());
        assert!(s.request(0, 0.1, None).is_err());
    }

    #[test]
    fn sequential_composition_adds_up() {
        let mut s = state(1.0);
        assert!(s.request(0, 0.5, None).is_ok());
        assert!(s.request(0, 0.5, None).is_ok());
        assert!(s.request(0, 0.1, None).is_err());
        assert_eq!(s.spent(), 1.0);
    }

    #[test]
    fn stability_scales_cost() {
        let mut s = state(1.0);
        let c = add_child(&mut s, 0, 2.0); // e.g. a GroupBy output
        assert!(s.request(c, 0.4, None).is_ok());
        assert_eq!(s.spent(), 0.8);
        assert!(
            s.request(c, 0.2, None).is_err(),
            "0.2·2 = 0.4 > remaining 0.2"
        );
    }

    #[test]
    fn parallel_composition_is_free_across_siblings() {
        let mut s = state(1.0);
        let (_, kids) = add_partition(&mut s, 0, 3);
        for &k in &kids {
            assert!(s.request(k, 0.6, None).is_ok());
        }
        // All three siblings asked for 0.6, but the root is charged the max.
        assert!((s.spent() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn repeated_queries_on_one_child_accumulate() {
        let mut s = state(1.0);
        let (_, kids) = add_partition(&mut s, 0, 2);
        assert!(s.request(kids[0], 0.4, None).is_ok());
        assert!(s.request(kids[0], 0.4, None).is_ok());
        assert!((s.spent() - 0.8).abs() < 1e-12);
        // The sibling can still query up to 0.8 for free…
        assert!(s.request(kids[1], 0.8, None).is_ok());
        assert!((s.spent() - 0.8).abs() < 1e-12);
        // …but going beyond the current max costs the difference.
        assert!(s.request(kids[1], 0.2, None).is_ok());
        assert!((s.spent() - 1.0).abs() < 1e-12);
        assert!(s.request(kids[0], 0.3, None).is_err());
    }

    #[test]
    fn nested_partitions_compose() {
        let mut s = state(1.0);
        let (_, outer) = add_partition(&mut s, 0, 2);
        let (_, inner0) = add_partition(&mut s, outer[0], 2);
        let (_, inner1) = add_partition(&mut s, outer[1], 2);
        // Query every leaf at 0.5: all shares collapse to 0.5 at the root.
        for &leaf in inner0.iter().chain(&inner1) {
            assert!(s.request(leaf, 0.5, None).is_ok());
        }
        assert!((s.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_request_leaves_root_tracker_unchanged() {
        let mut s = state(1.0);
        let c = add_child(&mut s, 0, 1.0);
        assert!(s.request(c, 0.9, None).is_ok());
        let before = s.spent();
        assert!(s.request(c, 0.5, None).is_err());
        assert_eq!(s.spent(), before);
    }

    #[test]
    fn validate_eps_rejects_nan_and_non_positive() {
        // The NaN case is the point: `eps <= 0.0` call-site guards let
        // NaN through, so batched operators would charge earlier entries
        // before `request` caught the bad one mid-batch.
        for bad in [f64::NAN, 0.0, -0.0, -1.0] {
            assert!(matches!(
                validate_eps(bad),
                Err(EktError::InvalidArgument(_))
            ));
        }
        assert!(matches!(
            validate_eps(f64::INFINITY),
            Err(EktError::InvalidArgument(_))
        ));
        assert!(validate_eps(1e-12).is_ok());
    }

    #[test]
    fn reserve_rejects_non_finite_and_over_budget_with_trackers_untouched() {
        let mut s = state(1.0);
        for bad in [f64::NAN, f64::INFINITY, -0.1] {
            assert!(matches!(s.reserve(bad), Err(EktError::InvalidArgument(_))));
        }
        assert!(matches!(
            s.reserve(1.5),
            Err(EktError::BudgetExceeded { .. })
        ));
        assert_eq!(s.reserved, 0.0);
        assert_eq!(s.active_reservations(), 0);
        // Admitted reservations shrink what unattributed requests can see…
        let id = s.reserve(0.6).unwrap();
        assert!(s.request(0, 0.5, None).is_err());
        // …and releasing restores it; a double release credits nothing.
        s.release_entry(id);
        s.release_entry(id);
        assert_eq!(s.reserved, 0.0);
        assert_eq!(s.active_reservations(), 0);
        assert!(s.request(0, 0.5, None).is_ok());
    }

    #[test]
    fn redemption_consumes_the_callers_own_hold_atomically() {
        let mut s = state(1.0);
        let id = s.reserve(0.6).unwrap();
        // Attributed charges are admitted *through* the hold — the same
        // charge that an unattributed session is refused.
        assert!(s.request(0, 0.5, Some(id)).is_ok());
        assert!((s.reservation_remaining(id) - 0.1).abs() < 1e-15);
        assert!((s.reservation_charged(id) - 0.5).abs() < 1e-15);
        assert!((s.reserved - 0.1).abs() < 1e-15);
        // The hold still shields its remainder from other sessions…
        assert!(s.request(0, 0.45, None).is_err());
        // …while the holder can spend past its hold into open budget.
        assert!(s.request(0, 0.3, Some(id)).is_ok());
        assert_eq!(s.reservation_remaining(id), 0.0);
        assert!((s.reservation_charged(id) - 0.8).abs() < 1e-15);
        assert!((s.spent() - 0.8).abs() < 1e-15);
        s.release_entry(id);
        assert_eq!(s.reserved, 0.0);
    }

    #[test]
    fn failed_redemption_leaves_reservation_and_root_untouched() {
        let mut s = state(1.0);
        let id = s.reserve(0.4).unwrap();
        // Even crediting the full 0.4 hold back, 1.1 exceeds the 1.0
        // total — the rejection must leave every tracker untouched.
        assert!(matches!(
            s.request(0, 1.1, Some(id)),
            Err(EktError::BudgetExceeded { .. })
        ));
        assert_eq!(s.spent(), 0.0);
        assert!((s.reservation_remaining(id) - 0.4).abs() < 1e-15);
        assert_eq!(s.reservation_charged(id), 0.0);
        assert!((s.reserved - 0.4).abs() < 1e-15);
    }

    #[test]
    fn redemption_attributes_charges_through_derived_sources() {
        let mut s = state(1.0);
        let c = add_child(&mut s, 0, 2.0);
        let id = s.reserve(0.8).unwrap();
        // Stability scales the root cost; the *root* cost redeems the hold.
        assert!(s.request(c, 0.4, Some(id)).is_ok());
        assert_eq!(s.reservation_remaining(id), 0.0);
        assert!((s.reservation_charged(id) - 0.8).abs() < 1e-15);
        assert!((s.spent() - 0.8).abs() < 1e-15);
    }

    #[test]
    fn released_slots_are_reused() {
        let mut s = state(1.0);
        let a = s.reserve(0.2).unwrap();
        let b = s.reserve(0.2).unwrap();
        assert_ne!(a, b);
        s.release_entry(a);
        let c = s.reserve(0.2).unwrap();
        assert_eq!(c, a, "released slot is reused");
        assert_eq!(s.active_reservations(), 2);
        s.release_entry(b);
        s.release_entry(c);
        assert_eq!(s.active_reservations(), 0);
        assert_eq!(s.reserved, 0.0);
    }

    #[test]
    fn exact_full_budget_is_allowed() {
        let mut s = state(0.3);
        for _ in 0..3 {
            assert!(s.request(0, 0.1, None).is_ok());
        }
        assert!(s.request(0, 1e-6, None).is_err());
    }
}
