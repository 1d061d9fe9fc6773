#![deny(missing_docs)]
//! # ektelo-data
//!
//! The relational substrate under EKTELO (paper §3 and §5.1).
//!
//! EKTELO's input is a single-relation table `T(A₁, …, A_ℓ)` with discrete
//! (or discretized) attributes. Plans apply *table transformations*
//! (`Where`, `Select`, `SplitByPartition`, `GroupBy`) and then vectorize
//! the result into the count vector `x` on which every later operator
//! works. This crate provides:
//!
//! * [`schema`] — attributes, schemas and the row-major cell encoding;
//! * [`table`] — a columnar table with the PINQ-style transformations;
//! * [`codes`] — a column's codes at the narrowest width its domain needs;
//! * [`predicate`] — condition formulas `ϕ` for `Where` (paper Def. 3.1);
//! * [`vectorize()`] — `T-Vectorize`: table → data vector (paper §5.1);
//! * [`generators`] — synthetic datasets standing in for the paper's
//!   evaluation data (DPBench 1-D suite, CPS Census, Credit Default —
//!   each generator module documents its substitution rationale);
//! * [`workloads`] — the workload matrices used across the evaluation.

pub mod codes;
pub mod generators;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod vectorize;
pub mod workloads;

pub use codes::Codes;
pub use predicate::Predicate;
pub use schema::{Attribute, Schema};
pub use table::{RowAppender, Table};
pub use vectorize::vectorize;
