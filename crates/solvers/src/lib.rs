#![deny(missing_docs)]
//! # ektelo-solvers
//!
//! Numerical solvers backing EKTELO's inference operators (paper §7.6,
//! "Implementing inference").
//!
//! The paper's key observation is that *every* inference method it needs —
//! ordinary least squares, non-negative least squares, and multiplicative
//! weights — can be implemented with only two primitive matrix methods:
//! matrix–vector product and transpose matrix–vector product. Combined with
//! implicit matrices this gives `O(k · Time(M))` inference, which is what
//! Fig. 5 measures. This crate provides:
//!
//! * [`lsqr()`] — Paige–Saunders LSQR, the default iterative least-squares
//!   solver (the paper uses the closely related LSMR; both are Golub–Kahan
//!   Krylov methods on the normal equations — the [`lsqr` module
//!   docs](mod@crate::lsqr) give the substitution note). Block-separable
//!   systems, such as the striped plans' stacked measurements, are solved
//!   one column component at a time, and a component that is a weighted
//!   interval hierarchy (optionally behind a partition) is solved exactly
//!   by the tree pass instead of iterating;
//! * [`tree_least_squares`] — the tree-based least squares of Hay et al.
//!   (2010): the exact `O(nodes)` minimum-norm solution for a weighted
//!   interval hierarchy, the specialised inference of Fig. 5;
//! * [`nnls()`] — FISTA-accelerated projected gradient for least squares with
//!   a non-negativity constraint (the paper uses L-BFGS-B; same primitive
//!   footprint and the same constrained optimum);
//! * [`mult_weights`] — the multiplicative-weights update rule of MWEM;
//! * [`cholesky`] — dense Cholesky factorization for *direct* least squares
//!   (the `O(n³)` baseline of Fig. 5);
//! * [`power`] — power iteration for spectral-norm (step-size) estimates.

pub mod cholesky;
pub mod lsqr;
pub mod mw;
pub mod nnls;
pub mod power;
pub mod tree;
pub mod util;

pub use cholesky::{cholesky_factor, cholesky_solve, direct_least_squares};
pub use lsqr::{lsqr, LsqrOptions, LsqrResult};
pub use mw::{mult_weights, MwOptions};
pub use nnls::{nnls, NnlsOptions};
pub use power::spectral_norm_estimate;
pub use tree::tree_least_squares;
