#![deny(missing_docs)]
//! # ektelo-kernel
//!
//! The protected kernel (paper §4): everything EKTELO's privacy proof
//! reads, in one crate, so that the compiler keeps the private data in.
//!
//! The kernel is initialized with one protected table and a global budget
//! `ε_tot`. Plans hold only [`SourceVar`] handles; the actual tables and
//! vectors never leave the kernel. Transformations derive new sources and
//! record their stability; query operators draw calibrated noise and charge
//! the budget through Algorithm 2 ([`charge`], which the plan
//! pre-accountant replays over its shadow of a plan). The Private→Public
//! operators reach the data through two primitives: a noisy-histogram
//! release ([`ProtectedKernel::noisy_histograms`]) and an
//! exponential-mechanism selection
//! ([`ProtectedKernel::exponential_selection`]), whose [`Picker`] runs the
//! two data-dependent scores (Worst-approx and PrivBayes) inside this
//! crate. The implementation is the private module `kernel`, whose public
//! items are re-exported here; the noise samplers, the charge-and-snapshot
//! step and the substreams are private items of it: no code outside the
//! crate can name them, and no caller ever holds a snapshot of private
//! data.
//!
//! The public route compiles:
//!
//! ```
//! use std::sync::Arc;
//! use ektelo_kernel::{Picker, ProtectedKernel, WorstApproxScores};
//! use ektelo_matrix::Matrix;
//!
//! let k = ProtectedKernel::init_from_vector(vec![3.0, 0.0, 5.0], 4.0, 7);
//! let noisy = k
//!     .noisy_histograms(&[(k.root(), 1.0)], None, |noisy| noisy.to_vec())
//!     .unwrap();
//! assert_eq!(noisy[0].len(), 3);
//! let w = Matrix::identity(3);
//! let mut scores = WorstApproxScores::new(&w);
//! let pick = k
//!     .exponential_selection(k.root(), 1.0, 1, None, |p: &mut Picker<'_, Arc<Vec<f64>>>| {
//!         p.pick_worst_approx(&mut scores, &[1.0; 3])
//!     })
//!     .unwrap()
//!     .unwrap();
//! assert!(pick < 3);
//! ```
//!
//! The samplers cannot be named from outside the crate:
//!
//! ```compile_fail,E0603
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut noise = [0.0; 4];
//! ektelo_kernel::kernel::noise::fill_laplace(&mut rng, 1.0, &mut noise);
//! ```
//!
//! nor can the step that charges and snapshots a source:
//!
//! ```compile_fail,E0624
//! use std::sync::Arc;
//! let k = ektelo_kernel::ProtectedKernel::init_from_vector(vec![3.0], 4.0, 7);
//! let _ = k.charge_and_snapshot::<Arc<Vec<f64>>>(&[(k.root(), 1.0)], None);
//! ```
//!
//! nor the substreams the primitives draw from:
//!
//! ```compile_fail,E0603
//! let _ = ektelo_kernel::kernel::substream_seed(1, 0);
//! ```
//!
//! and a picker does not hand out its snapshot:
//!
//! ```compile_fail,E0616
//! use std::sync::Arc;
//! use ektelo_kernel::{Picker, ProtectedKernel};
//! let k = ProtectedKernel::init_from_vector(vec![3.0], 4.0, 7);
//! let _ = k.exponential_selection(k.root(), 1.0, 1, None, |p: &mut Picker<'_, Arc<Vec<f64>>>| {
//!     p.source.to_vec()
//! });
//! ```

mod kernel;

pub use kernel::{
    charge, BudgetReservation, EktError, MeasuredQuery, Picker, ProtectedKernel, Result,
    SourceTree, SourceVar, WorstApproxScores,
};
