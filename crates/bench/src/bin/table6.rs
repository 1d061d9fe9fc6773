//! Regenerates **Table 6**: error and runtime improvements from
//! workload-based domain reduction (paper §10.3, Algorithm 4 / §8).
//!
//! For AHP (128×128), DAWA (4096), Identity (256×256) and HB (4096) with a
//! small-range RandomRange workload, each algorithm runs on the original
//! domain and on the losslessly reduced domain; we report error and
//! runtime factors (original / reduced — > 1 means reduction helped).
//!
//! The reduced variants are straightforward operator recombinations: the
//! data-adaptive partition selectors run on a group-size-normalized *view*
//! of the reduced vector (so "similar counts" means similar per-cell
//! densities), while measurements take the raw reduced counts — exactly
//! the kind of re-plumbing EKTELO plans are built for.
//!
//! Run: `cargo run --release -p ektelo-bench --bin table6 [--full]`

use ektelo_bench::{full_mode, mean, time_it};
use ektelo_core::kernel::{ProtectedKernel, SourceVar};
use ektelo_core::ops::inference::{least_squares, LsSolver};
use ektelo_core::ops::partition::{ahp_partition, dawa_partition, workload_reduction, DawaOptions};
use ektelo_core::ops::selection::{greedy_h, hb};
use ektelo_data::generators::{gauss_blobs_2d, shape_1d, Shape1D};
use ektelo_data::workloads::{random_range_2d, random_range_small};
use ektelo_matrix::Matrix;
use ektelo_plans::baseline::{plan_hb, plan_identity};
use ektelo_plans::data_aware::{plan_ahp, plan_dawa};
use ektelo_plans::util::kernel_for_histogram;

/// Workload RMSE of the estimate.
fn werr(w: &Matrix, x: &[f64], xh: &[f64]) -> f64 {
    let t = w.matvec(x);
    let e = w.matvec(xh);
    (t.iter()
        .zip(&e)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / t.len() as f64)
        .sqrt()
}

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Ahp,
    Dawa,
    Identity,
    Hb,
}

/// The plan on the reduced source: partition selectors look at the
/// size-normalized view, measurements use raw reduced counts, and the
/// final least squares maps everything back to the full domain via the
/// kernel's lineage.
fn run_reduced(k: &ProtectedKernel, red: SourceVar, algo: Algo, p: &Matrix, eps: f64) -> Vec<f64> {
    let start = k.measurement_count();
    let groups = p.rows();
    match algo {
        Algo::Identity => {
            k.vector_laplace(red, &Matrix::identity(groups), eps)
                .expect("measure");
        }
        Algo::Hb => {
            k.vector_laplace(red, &hb(groups), eps).expect("measure");
        }
        Algo::Ahp | Algo::Dawa => {
            let sizes = p.abs_row_sums();
            let norm = Matrix::diagonal(sizes.iter().map(|&s| 1.0 / s).collect());
            let norm_view = k.transform_linear(red, &norm).expect("normalize");
            if algo == Algo::Ahp {
                let p2 = ahp_partition(k, norm_view, eps / 2.0).expect("ahp partition");
                let red2 = k.reduce_by_partition(red, &p2).expect("reduce2");
                k.vector_laplace(red2, &Matrix::identity(p2.rows()), eps / 2.0)
                    .expect("measure");
            } else {
                let p2 = dawa_partition(k, norm_view, eps / 4.0, &DawaOptions::new(0.75 * eps))
                    .expect("dawa partition");
                let red2 = k.reduce_by_partition(red, &p2).expect("reduce2");
                k.vector_laplace(red2, &greedy_h(p2.rows(), &[]), 0.75 * eps)
                    .expect("measure");
            }
        }
    }
    least_squares(&k.measurements_since(start), LsSolver::Iterative)
}

fn main() {
    let full = full_mode();
    let trials = if full { 5 } else { 3 };
    let eps = 0.1;

    struct Case {
        name: &'static str,
        algo: Algo,
        x: Vec<f64>,
        w: Matrix,
    }
    let cases: Vec<Case> = vec![
        Case {
            name: "AHP (128,128)",
            algo: Algo::Ahp,
            x: gauss_blobs_2d(128, 128, 4, 500_000.0, 1),
            w: random_range_2d(128, 128, 200, 2),
        },
        Case {
            // Dense query set: the workload distinguishes nearly every
            // cell, so the reduction is mild — matching the paper's
            // near-neutral DAWA factors.
            name: "DAWA 4096",
            algo: Algo::Dawa,
            x: shape_1d(Shape1D::Clustered, 4096, 500_000.0, 3),
            w: random_range_small(4096, 1000, 64, 4),
        },
        Case {
            name: "Identity (256,256)",
            algo: Algo::Identity,
            x: gauss_blobs_2d(256, 256, 4, 500_000.0, 5),
            w: random_range_2d(256, 256, 200, 6),
        },
        Case {
            name: "HB 4096",
            algo: Algo::Hb,
            x: shape_1d(Shape1D::Bimodal, 4096, 500_000.0, 7),
            w: random_range_small(4096, 200, 64, 8),
        },
    ];

    println!(
        "\nTable 6: workload-based domain reduction (W = RandomRange, small ranges, eps={eps})"
    );
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "Algorithm", "n -> p", "err(orig)", "t(orig)", "err(red)", "t(red)", "errX", "timeX"
    );

    for case in &cases {
        let n = case.x.len();
        let (p, w_reduced) = workload_reduction(&case.w, 99);
        let reduced_n = p.rows();

        let mut e_orig = Vec::new();
        let mut t_orig = Vec::new();
        let mut e_red = Vec::new();
        let mut t_red = Vec::new();
        for seed in 0..trials {
            // Original domain.
            let (k, root) = kernel_for_histogram(&case.x, eps, 300 + seed);
            let (out, secs) = time_it(|| {
                match case.algo {
                    Algo::Ahp => plan_ahp(&k, root, eps),
                    Algo::Dawa => plan_dawa(&k, root, &case.w, eps),
                    Algo::Identity => plan_identity(&k, root, eps),
                    Algo::Hb => plan_hb(&k, root, eps),
                }
                .expect("plan")
            });
            e_orig.push(werr(&case.w, &case.x, &out.x_hat));
            t_orig.push(secs);

            // Reduced domain.
            let (k, root) = kernel_for_histogram(&case.x, eps, 300 + seed);
            let (x_hat, secs) = time_it(|| {
                let red = k.reduce_by_partition(root, &p).expect("reduce");
                run_reduced(&k, red, case.algo, &p, eps)
            });
            e_red.push(werr(&case.w, &case.x, &x_hat));
            t_red.push(secs);
        }
        let (eo, to, er, tr) = (mean(&e_orig), mean(&t_orig), mean(&e_red), mean(&t_red));
        let _ = &w_reduced;
        println!(
            "{:<20} {:>5}->{:<6} {:>12.2} {:>11.3}s {:>12.2} {:>11.3}s {:>8.2} {:>8.2}",
            case.name,
            n,
            reduced_n,
            eo,
            to,
            er,
            tr,
            eo / er,
            to / tr
        );
    }
    println!(
        "\n(Paper factors — error/runtime: AHP 1.29/5.36, DAWA 0.99/0.92, \
              Identity 2.89/0.73, HB 1.34/0.62. Shape: reduction helps error almost \
              universally; the paper's AHP runtime gain comes from its quadratic \
              clustering step, which our sort-based AHP implementation does not have.)"
    );
}
