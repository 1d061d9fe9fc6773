//! Gate for kernel-owned workspace reuse: `vector_laplace_batch` and
//! scratch-hungry vetted operators such as `worst_approx` check the
//! kernel's idle `Workspace` out instead of building a fresh one per
//! call, so repeated calls pay zero arena setup.
//!
//! A call checks out exactly one workspace, evaluates every request
//! through it and restores it, so after a call the kernel holds one warm
//! workspace, and identical later calls leave its arena exactly as large
//! (`workspace_pool_resident_bytes`). Arenas over the kernel's 32 MiB
//! bound are dropped on restore; the unit test
//! `idle_slot_keeps_one_workspace_within_the_bound` pins that with a
//! small bound.

use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_matrix::{partition_from_labels, Matrix};

/// Cells per stripe.
const STRIPE: usize = 1 << 12;
const STRIPES: usize = 8;

fn striped_kernel() -> (ProtectedKernel, Vec<SourceVar>) {
    let n = STRIPE * STRIPES;
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let k = ProtectedKernel::init_from_vector(x, 1000.0, 23);
    let labels: Vec<usize> = (0..n).map(|i| i / STRIPE).collect();
    let p = partition_from_labels(STRIPES, &labels);
    let stripes = k.split_by_partition(k.root(), &p).unwrap();
    (k, stripes)
}

#[test]
fn batch_calls_reuse_kernel_owned_workspaces() {
    let (k, stripes) = striped_kernel();
    // A scratch-bearing strategy (range queries need a prefix-sum
    // buffer), so workspace reuse actually carries a warm arena between
    // calls.
    let strategy = Matrix::range_queries(STRIPE, vec![(0, STRIPE / 2), (STRIPE / 4, STRIPE)]);
    let reqs: Vec<(SourceVar, &Matrix, f64)> =
        stripes.iter().map(|&s| (s, &strategy, 0.01)).collect();

    assert_eq!(
        k.workspace_pool_resident_bytes(),
        0,
        "no idle workspace yet"
    );
    k.vector_laplace_batch(&reqs).unwrap();
    let warm = k.workspace_pool_resident_bytes();
    assert!(warm > 0, "the batch must leave its warm workspace idle");

    for _ in 0..5 {
        k.vector_laplace_batch(&reqs).unwrap();
        assert_eq!(
            k.workspace_pool_resident_bytes(),
            warm,
            "identical batch calls must reuse the idle workspace's arena"
        );
    }
}

/// The bound is generous: a modest batch keeps its workspace at full
/// size, so steady-state reuse pays zero arena regrowth.
#[test]
fn default_budget_keeps_modest_arenas_resident() {
    let (k, stripes) = striped_kernel();
    // A product strategy over 2^12-cell stripes needs a 2^12-scalar
    // intermediate (32 KiB).
    let strategy = Matrix::product(Matrix::prefix(STRIPE), Matrix::wavelet(STRIPE));
    let reqs: Vec<(SourceVar, &Matrix, f64)> =
        stripes.iter().map(|&s| (s, &strategy, 0.01)).collect();
    k.vector_laplace_batch(&reqs).unwrap();
    let resident = k.workspace_pool_resident_bytes();
    assert!(
        resident >= STRIPE * std::mem::size_of::<f64>(),
        "the full arena must stay resident, got {resident} bytes"
    );
    for _ in 0..3 {
        k.vector_laplace_batch(&reqs).unwrap();
        assert_eq!(
            k.workspace_pool_resident_bytes(),
            resident,
            "identical batches must neither grow nor drop the idle arena"
        );
    }
}

#[test]
fn worst_approx_reuses_the_pooled_workspace() {
    use ektelo_core::ops::selection::worst_approx;
    let k = ProtectedKernel::init_from_vector(vec![3.0; 256], 10.0, 5);
    let w = Matrix::range_queries(256, vec![(0, 128), (64, 256)]);
    let x_hat = vec![3.0; 256];
    worst_approx(&k, k.root(), &w, &x_hat, 1.0, 0.1, None).unwrap();
    let warm = k.workspace_pool_resident_bytes();
    assert!(warm > 0, "the call must leave its warm workspace idle");
    for _ in 0..4 {
        worst_approx(&k, k.root(), &w, &x_hat, 1.0, 0.1, None).unwrap();
        assert_eq!(
            k.workspace_pool_resident_bytes(),
            warm,
            "MWEM-style repeated selection shares one warm workspace"
        );
    }
}
