//! Gate for kernel-owned workspace reuse (ROADMAP PR-3 open item):
//! `vector_laplace_batch` and scratch-hungry vetted operators must check
//! warm `Workspace`s out of the kernel's pool instead of building a
//! fresh one per call, so repeated batch calls pay zero arena setup.
//!
//! The observable: the pool's idle count stabilizes after the first call
//! and never grows on subsequent identical calls. A regression that
//! creates fresh workspaces (instead of popping pooled ones) keeps
//! pushing new entries on restore, so the count climbs call after call.
//!
//! Since ISSUE 5 the pool is additionally **byte-bounded**: arenas grow
//! monotonically to the largest requirement seen, so without a bound one
//! huge batch would pin up to 32 maximum-sized arenas for the kernel's
//! lifetime. Restores over the budget shrink the workspace first
//! (`Workspace::shed_to`), keeping its plan fast path; the second half of
//! this suite gates exactly that.
//!
//! A batch checks out exactly one workspace, evaluates every request
//! through it and restores it afterwards, so the idle count after a batch
//! is exactly one, and the next batch gets the same warm workspace back.

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
    // A scratch-bearing strategy (Prefix needs a running-sum buffer), so
    // workspace reuse actually carries a warm arena between calls.
    let strategy = Matrix::prefix(STRIPE);
    let reqs: Vec<(SourceVar, &Matrix, f64)> =
        stripes.iter().map(|&s| (s, &strategy, 0.01)).collect();

    assert_eq!(k.workspace_pool_len(), 0, "pool starts empty");
    k.vector_laplace_batch(&reqs).unwrap();
    let warm = k.workspace_pool_len();
    assert_eq!(
        warm, 1,
        "the batch must return its one workspace to the pool"
    );

    for _ in 0..5 {
        k.vector_laplace_batch(&reqs).unwrap();
        assert_eq!(
            k.workspace_pool_len(),
            warm,
            "identical batch calls must reuse the pooled workspaces, not create more"
        );
    }
}

/// One huge batch must not pin its peak arenas forever: with a small
/// byte budget configured, the pool's idle residency stays under the
/// budget after a scratch-heavy batch — and later batches still reuse
/// the pooled (shed) workspaces rather than minting new ones.
#[test]
fn pool_residency_stays_under_the_byte_budget() {
    let (k, stripes) = striped_kernel();
    // 64 KiB budget: far below what the batch's workspaces want (a
    // product strategy over 2^12-cell stripes needs a 2^12-scalar
    // intermediate per workspace — 32 KiB each).
    let budget = 64 * 1024;
    k.set_workspace_pool_max_bytes(budget);
    let strategy = Matrix::product(Matrix::prefix(STRIPE), Matrix::wavelet(STRIPE));
    let reqs: Vec<(SourceVar, &Matrix, f64)> =
        stripes.iter().map(|&s| (s, &strategy, 0.01)).collect();

    k.vector_laplace_batch(&reqs).unwrap();
    let warm = k.workspace_pool_len();
    assert!(warm >= 1, "the batch must still pool its workspaces");
    assert!(
        k.workspace_pool_resident_bytes() <= budget,
        "idle pool holds {} bytes, budget is {budget}",
        k.workspace_pool_resident_bytes()
    );

    for _ in 0..3 {
        k.vector_laplace_batch(&reqs).unwrap();
        assert_eq!(
            k.workspace_pool_len(),
            warm,
            "shed workspaces must still be reused, not replaced"
        );
        assert!(
            k.workspace_pool_resident_bytes() <= budget,
            "budget must hold across repeated batches"
        );
    }

    // Tightening the budget re-fits the idle inventory immediately.
    k.set_workspace_pool_max_bytes(1024);
    assert!(k.workspace_pool_resident_bytes() <= 1024);
    // And the pool still serves (empty-but-warm) workspaces afterwards.
    k.vector_laplace_batch(&reqs).unwrap();
    assert!(k.workspace_pool_resident_bytes() <= 1024);
}

/// The default budget is generous: a modest batch pools its workspaces
/// at full size (no shedding), so steady-state reuse pays zero arena
/// regrowth — the original PR-4 guarantee, unchanged.
#[test]
fn default_budget_keeps_modest_arenas_resident() {
    let (k, stripes) = striped_kernel();
    let strategy = Matrix::product(Matrix::prefix(STRIPE), Matrix::wavelet(STRIPE));
    let reqs: Vec<(SourceVar, &Matrix, f64)> =
        stripes.iter().map(|&s| (s, &strategy, 0.01)).collect();
    k.vector_laplace_batch(&reqs).unwrap();
    let resident = k.workspace_pool_resident_bytes();
    assert!(
        resident > 0,
        "modest arenas must stay resident under the default budget"
    );
    for _ in 0..3 {
        k.vector_laplace_batch(&reqs).unwrap();
        assert_eq!(
            k.workspace_pool_resident_bytes(),
            resident,
            "identical batches must neither grow nor shed the inventory"
        );
    }
}

#[test]
fn worst_approx_reuses_the_pooled_workspace() {
    use ektelo_core::ops::selection::worst_approx;
    let k = ProtectedKernel::init_from_vector(vec![3.0; 256], 10.0, 5);
    let w = Matrix::prefix(256);
    let x_hat = vec![3.0; 256];
    worst_approx(&k, k.root(), &w, &x_hat, 1.0, 0.1, None).unwrap();
    assert_eq!(k.workspace_pool_len(), 1);
    for _ in 0..4 {
        worst_approx(&k, k.root(), &w, &x_hat, 1.0, 0.1, None).unwrap();
        assert_eq!(
            k.workspace_pool_len(),
            1,
            "MWEM-style repeated selection shares one warm workspace"
        );
    }
}
