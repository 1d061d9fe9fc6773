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

#[cfg(test)]
pub(crate) mod tests {
    use crate::ProtectedKernel;

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
}
