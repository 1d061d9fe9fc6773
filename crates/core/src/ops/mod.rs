//! The EKTELO operator library (paper §5 and Fig. 1).
//!
//! Operators are grouped into the paper's five classes:
//!
//! * **Transformations** — kernel methods (`transform_*`, `vectorize`,
//!   `reduce_by_partition`, `split_by_partition`) on
//!   [`crate::ProtectedKernel`];
//! * **Query** — `vector_laplace` / `noisy_count` kernel methods;
//! * **Query selection** — [`selection`]: strategies that pick *what* to
//!   measure (Identity, Total, Privelet, H2, HB, Greedy-H, QuadTree,
//!   UniformGrid, AdaptiveGrid, HDMM, Stripe, Worst-approx,
//!   PrivBayes select);
//! * **Partition selection** — [`partition`]: operators that compute a
//!   partition matrix for the reduce/split transformations (AHP, DAWA,
//!   Marginal, Stripe, Workload-based);
//! * **Inference** — [`inference`]: Public operators deriving consistent
//!   estimates from the recorded measurements (LS, NNLS, MW,
//!   Thresholding).
//!
//! Operators that *consult the private data* (AHP, DAWA, Worst-approx,
//! PrivBayes select) are Private→Public: they take the kernel and an ε and
//! charge the budget before touching anything private. Everything else is
//! Public and works on public inputs only.

pub mod graph;
pub mod inference;
pub mod partition;
pub mod selection;
