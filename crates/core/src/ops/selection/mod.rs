//! Query selection operators (paper §5.3).
//!
//! A query selection operator outputs a set of linear queries in matrix
//! form — the *strategy* handed to `Vector Laplace`. Most are Public (they
//! depend only on domain size or workload); [`worst_approx`] and
//! [`privbayes_select`] consult the private data and are Private→Public.

mod greedy_h;
mod grids;
mod hdmm;
mod hier;
mod privbayes;
mod stripe;
mod worst_approx;

pub use greedy_h::greedy_h;
pub use grids::{adaptive_grid_round2, quad_tree, uniform_grid, uniform_grid_size};
pub use hdmm::{hdmm_1d, hdmm_kron, HdmmOptions};
pub use hier::{h2, hb};
pub use privbayes::{privbayes_select, BayesNet, Clique};
pub use stripe::stripe_select;
pub use worst_approx::worst_approx;
pub(crate) use worst_approx::WorstApprox;

use ektelo_matrix::Matrix;

/// The Identity strategy (measure every cell).
pub fn identity(n: usize) -> Matrix {
    Matrix::identity(n)
}

/// The Total strategy (single sum query).
pub fn total(n: usize) -> Matrix {
    Matrix::total(n)
}

/// The Privelet strategy: Haar wavelet coefficients (paper Plan #2).
pub fn privelet(n: usize) -> Matrix {
    Matrix::wavelet(n)
}

/// The Prefix strategy (used as the *workload* in the CDF example).
pub fn prefix(n: usize) -> Matrix {
    Matrix::prefix(n)
}
