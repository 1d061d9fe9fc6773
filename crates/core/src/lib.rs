#![deny(missing_docs)]
//! # ektelo-core
//!
//! The EKTELO operator library, plan graph and inference (paper §5, §8),
//! over the protected kernel of the `ektelo-kernel` crate, re-exported
//! here as [`kernel`].
//!
//! ## Architecture
//!
//! EKTELO splits execution into an untrusted **client space** — where plans
//! (arbitrary Rust code) run — and a **protected kernel** that encloses the
//! private data. Plans interact with the kernel only through *operators*:
//!
//! * **Private** operators ([`ProtectedKernel::transform_where`],
//!   [`ProtectedKernel::vectorize`], …) ask the kernel to derive new data
//!   sources; they return only an opaque [`SourceVar`] handle.
//! * **Private→Public** operators ([`ProtectedKernel::vector_laplace`],
//!   [`ProtectedKernel::noisy_count`], the data-adaptive partition/query
//!   selection operators in [`ops`]) return information about the data and
//!   therefore consume privacy budget, enforced by the kernel's `Request`
//!   algorithm (paper Algorithm 2).
//! * **Public** operators (workload construction, inference in
//!   [`ops::inference`]) never touch the kernel.
//!
//! The kernel crate holds everything the privacy proof reads (§6.3); the
//! operators here reach private data only through its public methods, so
//! the compiler, not a review of this crate, keeps the data in.
//!
//! The kernel tracks, per data source: its *transformation lineage*, its
//! *stability* (paper Def. 3.4), and its *budget consumption*; the special
//! partition-variable accounting makes parallel composition automatic
//! (sibling subplans share, rather than sum, their budget — the key to the
//! striped and grid plans).
//!
//! Any plan built from these operators satisfies ε-differential privacy
//! with ε = the budget the kernel was initialized with (paper Theorem 4.1).
//!
//! ```
//! use ektelo_core::kernel::ProtectedKernel;
//! use ektelo_data::{Schema, Table};
//! use ektelo_matrix::Matrix;
//!
//! let schema = Schema::from_sizes(&[("age", 8)]);
//! let table = Table::from_rows(schema, &[vec![1], vec![1], vec![5]]);
//! let kernel = ProtectedKernel::init(table, 1.0, 42);
//! let x = kernel.vectorize(kernel.root()).unwrap();
//! let y = kernel
//!     .vector_laplace(x, &Matrix::identity(8), 1.0)
//!     .unwrap();
//! assert_eq!(y.len(), 8);
//! // The budget is now exhausted: further measurement fails.
//! assert!(kernel.vector_laplace(x, &Matrix::identity(8), 0.1).is_err());
//! ```

pub mod ops;

pub use ektelo_kernel as kernel;
pub use kernel::{EktError, MeasuredQuery, ProtectedKernel, SourceVar};
