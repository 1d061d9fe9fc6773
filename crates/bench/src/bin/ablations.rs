//! Ablation benches for four design choices of this reproduction:
//!
//! 1. **DAWA cost debiasing** — subtracting the stage-1 noise variance
//!    from bucket deviation costs vs the naive biased cost;
//!
//! 2. **Known-total conditioning** — a measurement-relative pseudo-noise
//!    scale vs an absolutely tiny one (the 10⁶× row-weight trap);
//!
//! 3. **Greedy-H workload weighting** — level weights from the workload's
//!    greedy decomposition vs a plain H2;
//!
//! 4. **LS solver choice** — LSQR vs direct on a mid-size system.
//!
//! Run: `cargo run --release -p ektelo-bench --bin ablations`

use ektelo_bench::{mean, time_it};
use ektelo_core::kernel::ProtectedKernel;
use ektelo_core::ops::inference::{least_squares, non_negative_least_squares, LsSolver};
use ektelo_core::ops::partition::{dawa_partition, DawaOptions};
use ektelo_core::ops::selection::{greedy_h, h2};
use ektelo_core::MeasuredQuery;
use ektelo_data::generators::{shape_1d, Shape1D};
use ektelo_data::workloads::random_range;
use ektelo_matrix::Matrix;
use ektelo_plans::util::kernel_for_histogram;

fn rmse(a: &[f64], b: &[f64]) -> f64 {
    (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
}

fn main() {
    ablation_dawa_debias();
    ablation_known_total_scale();
    ablation_greedy_weights();
    ablation_solver_choice();
}

/// DAWA debiasing: without it, noisy uniform regions look heterogeneous
/// and the DP splits everything; buckets ≈ cells and the partition buys
/// nothing.
fn ablation_dawa_debias() {
    println!("\n[1] DAWA bucket-cost debiasing (n=512, sparse data, eps=0.02)");
    let x = shape_1d(Shape1D::DenseRegion, 512, 500_000.0, 6);
    let eps = 0.02;
    for (label, debias) in [("debiased (default)", true), ("naive (ablation)", false)] {
        let mut buckets = Vec::new();
        let mut errs = Vec::new();
        for seed in 0..5 {
            let (k, root) = kernel_for_histogram(&x, eps, seed);
            let p = dawa_partition(
                &k,
                root,
                eps / 4.0,
                &DawaOptions {
                    eps_stage2: 0.75 * eps,
                    debias,
                },
            )
            .unwrap();
            buckets.push(p.rows() as f64);
            let red = k.reduce_by_partition(root, &p).unwrap();
            let g = k.vector_len(red).unwrap();
            k.vector_laplace(red, &Matrix::identity(g), 0.75 * eps)
                .unwrap();
            let xh = least_squares(&k.measurements(), LsSolver::Iterative);
            errs.push(rmse(&x, &xh));
        }
        println!(
            "  {label:<22} buckets {:>7.1}   rmse {:>9.1}",
            mean(&buckets),
            mean(&errs)
        );
    }
}

/// Known-total pseudo-measurement: a 1e-6 noise scale gives the total
/// row a million-fold weight and stalls FISTA; the relative scale keeps
/// the system well-conditioned.
fn ablation_known_total_scale() {
    println!("\n[2] known-total conditioning for NNLS (n=1024, 30 range measurements)");
    let n = 1024;
    let x = shape_1d(Shape1D::Clustered, n, 100_000.0, 3);
    let total: f64 = x.iter().sum();
    let k = ProtectedKernel::init_from_vector(x.clone(), 1.0, 5);
    let w = random_range(n, 30, 7);
    k.vector_laplace(k.root(), &w, 1.0).unwrap();
    let base = k.measurements();
    for (label, scale) in [
        ("relative scale (default)", base[0].noise_scale / 10.0),
        ("absolute 1e-6 (ablation)", 1e-6),
    ] {
        let mut ms = base.clone();
        ms.push(MeasuredQuery {
            base: k.root(),
            query: Matrix::total(n),
            answers: [total].into(),
            noise_scale: scale,
        });
        let (xh, secs) = time_it(|| non_negative_least_squares(&ms));
        let est_total: f64 = xh.iter().sum();
        let wq = w.matvec(&x);
        let we = w.matvec(&xh);
        println!(
            "  {label:<26} workload rmse {:>9.1}   |total err| {:>9.1}   ({:.2}s)",
            rmse(&wq, &we),
            (est_total - total).abs(),
            secs
        );
    }
}

/// Greedy-H level weighting vs uniform H2, on a workload concentrated
/// at one scale (all queries of width ~32).
fn ablation_greedy_weights() {
    println!("\n[3] Greedy-H workload weighting vs plain H2 (n=1024, width-32 ranges)");
    let n = 1024;
    let x = shape_1d(Shape1D::Bimodal, n, 200_000.0, 4);
    let ranges: Vec<(usize, usize)> = (0..200)
        .map(|i| ((i * 5) % (n - 32), (i * 5) % (n - 32) + 32))
        .collect();
    let w = Matrix::range_queries(n, ranges.clone());
    let truth = w.matvec(&x);
    let eps = 0.1;
    for (label, strategy) in [
        ("greedy-h (workload)", greedy_h(n, &ranges)),
        ("h2 (uniform)", h2(n)),
    ] {
        let mut errs = Vec::new();
        for seed in 0..5 {
            let (k, root) = kernel_for_histogram(&x, eps, seed);
            k.vector_laplace(root, &strategy, eps).unwrap();
            let xh = least_squares(&k.measurements(), LsSolver::Iterative);
            errs.push(rmse(&truth, &w.matvec(&xh)));
        }
        println!("  {label:<22} workload rmse {:>9.1}", mean(&errs));
    }
}

/// Solver choice on one mid-size hierarchical system.
fn ablation_solver_choice() {
    println!("\n[4] LS solver choice (H2 over n=2048)");
    let n = 2048;
    let x = shape_1d(Shape1D::Gaussian, n, 1e6, 2);
    let (k, root) = kernel_for_histogram(&x, 1.0, 3);
    k.vector_laplace(root, &h2(n), 1.0).unwrap();
    let ms = k.measurements();
    for (label, solver) in [
        ("LSQR (default)", LsSolver::Iterative),
        ("direct Cholesky", LsSolver::Direct),
    ] {
        let (xh, secs) = time_it(|| least_squares(&ms, solver));
        println!(
            "  {label:<18} rmse {:>8.2}   time {:>8.3}s",
            rmse(&x, &xh),
            secs
        );
    }
}
