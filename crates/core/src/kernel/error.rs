//! Kernel error type.
//!
//! Budget exhaustion is an *expected* outcome, not a panic: the paper notes
//! the decision to reject a request never depends on the private state, so
//! returning an error leaks nothing (§4.3).

use std::fmt;

/// Errors surfaced by the protected kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum EktError {
    /// A Private→Public operator asked for more budget than remains.
    /// (The amounts are in root-scaled units; both are data-independent.)
    BudgetExceeded {
        /// Budget the request would consume at the root.
        requested: f64,
        /// Budget still available at the root.
        remaining: f64,
    },
    /// A table operation was applied to a vector source (or vice versa).
    WrongSourceType {
        /// What the operator needed ("table" or "vector").
        expected: &'static str,
    },
    /// A matrix passed as a partition is not a valid partition matrix.
    InvalidPartition(String),
    /// An operator received inputs of inconsistent dimensions.
    ShapeMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension found.
        found: usize,
    },
    /// Any other invalid argument (empty workload, non-positive ε, …).
    InvalidArgument(String),
    /// A plan spec failed validation or execution-time typing (operator
    /// graph API): a node referenced a value of the wrong kind, or the
    /// spec declared an impossible configuration. Data-independent by
    /// construction — specs are public objects.
    InvalidPlan(String),
    /// A deterministic fault-injection site fired (non-default
    /// `failpoints` feature with an armed schedule; never constructed
    /// otherwise). Carries the site name. Data-independent: the schedule
    /// is operator-supplied and sites key on call counts, not data.
    FaultInjected(&'static str),
    /// Plan execution died from a panic (an exact-answer crash, a solver
    /// blow-up) that the executor caught and converted after releasing
    /// the plan's budget reservation. Carries the panic payload when it
    /// was a string. The ledger is consistent: charges issued before the
    /// panic stand, nothing after it was charged, and no holds leak.
    ExecutionPanic(String),
}

impl fmt::Display for EktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EktError::BudgetExceeded {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exceeded: request costs {requested} at the root but only \
                 {remaining} remains"
            ),
            EktError::WrongSourceType { expected } => {
                write!(f, "operator requires a {expected} source")
            }
            EktError::InvalidPartition(msg) => write!(f, "invalid partition matrix: {msg}"),
            EktError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            EktError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            EktError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EktError::FaultInjected(site) => {
                write!(f, "injected fault at failpoint {site}")
            }
            EktError::ExecutionPanic(msg) => {
                write!(f, "plan execution panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for EktError {}

/// Kernel result alias.
pub type Result<T> = std::result::Result<T, EktError>;
