//! Synthetic dataset generators.
//!
//! The paper evaluates on datasets we cannot redistribute (DPBench's
//! collection, a March-2000 CPS Census extract, and the UCI Credit-Default
//! data). Each generator here produces a synthetic stand-in matching the
//! schema, scale, and the *distributional features that drive
//! data-dependent algorithms* — sparsity, skew, clustering, and attribute
//! correlation. Each submodule's documentation names the dataset it stands
//! in for, the features it reproduces, and why those are the features the
//! corresponding experiment measures.
//!
//! All generators are deterministic given a seed.

mod census;
mod credit;
mod shapes;

pub use census::{census_cps_sized, CENSUS_DOMAIN, CENSUS_ROWS};
pub use credit::{credit_default, credit_default_sized, CREDIT_PREDICTOR_DOMAIN, CREDIT_ROWS};
pub use shapes::{dpbench_suite, gauss_blobs_2d, shape_1d, Shape1D, DPBENCH_SHAPES};
