//! Regenerates **Fig. 4**: end-to-end plan runtime under dense / sparse /
//! implicit measurement-matrix representations, as domain size grows
//! (paper §10.2.1).
//!
//! Fig. 4a sweeps 1-D and 2-D plans over square domains; Fig. 4b sweeps
//! the multi-dimensional census plans. Representations are *lossless*
//! conversions of the same logical strategy (`Matrix::with_repr`), so
//! accuracy is identical and only time/space change — the paper's point.
//! Cells print `-` when a representation is skipped (its materialization
//! alone would exhaust memory or the time budget, mirroring the paper's
//! truncated curves).
//!
//! Run: `cargo run --release -p ektelo-bench --bin fig4 [--full]`

use std::time::Duration;

use ektelo_bench::{fmt_secs, full_mode, rebin_census_income, time_it, SweepGuard};
use ektelo_core::kernel::ProtectedKernel;
use ektelo_core::ops::inference::{least_squares, LsSolver};
use ektelo_core::ops::partition::{ahp_partition, dawa_partition, DawaOptions};
use ektelo_core::ops::selection::{
    greedy_h, h2, hb, hdmm_1d, quad_tree, stripe_select, uniform_grid, uniform_grid_size,
};
use ektelo_data::generators::{census_cps_sized, gauss_blobs_2d, shape_1d, Shape1D};
use ektelo_data::workloads::random_range;
use ektelo_matrix::{Matrix, Repr};
use ektelo_plans::privbayes::plan_privbayes_ls;
use ektelo_plans::striped::{plan_dawa_striped, plan_hb_striped};
use ektelo_plans::util::kernel_for_histogram;

const REPRS: [(Repr, &str); 3] = [
    (Repr::Dense, "dense"),
    (Repr::Sparse, "sparse"),
    (Repr::Implicit, "implicit"),
];

/// Whether materializing an `m×n` strategy in this representation is
/// feasible on a laptop-class budget.
fn feasible(repr: Repr, rows: usize, cols: usize, nnz_estimate: usize) -> bool {
    match repr {
        Repr::Dense => rows.saturating_mul(cols) <= 64_000_000, // ~512 MB
        Repr::Sparse => nnz_estimate <= 50_000_000,
        Repr::Implicit => true,
    }
}

/// Generic select→measure→infer plan under a forced representation.
fn run_select_measure_infer(x: &[f64], strategy: &Matrix, repr: Repr, eps: f64) -> Option<f64> {
    let nnz = strategy.to_sparse_nnz_estimate();
    if !feasible(repr, strategy.rows(), strategy.cols(), nnz) {
        return None;
    }
    let (k, root) = kernel_for_histogram(x, eps, 1);
    let (_, secs) = time_it(|| {
        let forced = strategy.with_repr(repr);
        let start = k.measurement_count();
        k.vector_laplace(root, &forced, eps).expect("measure");
        least_squares(&k.measurements_since(start), LsSolver::Iterative)
    });
    Some(secs)
}

trait NnzEstimate {
    fn to_sparse_nnz_estimate(&self) -> usize;
}

impl NnzEstimate for Matrix {
    fn to_sparse_nnz_estimate(&self) -> usize {
        // Cheap overestimate from row L1 structure: sum of row supports.
        self.abs_row_sums()
            .iter()
            .map(|&r| r.max(1.0) as usize)
            .sum()
    }
}

fn main() {
    let full = full_mode();
    let eps = 0.1;
    // 4^5 .. 4^9 cells by default (paper: 4^7 .. 4^13).
    let exps: Vec<u32> = if full {
        vec![5, 6, 7, 8, 9, 10, 11]
    } else {
        vec![5, 6, 7, 8]
    };

    println!("\nFig. 4a: plan runtime by measurement-matrix representation");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "plan", "domain", "dense", "sparse", "implicit"
    );

    type StrategyBuilder = Box<dyn Fn(usize, (usize, usize), &[f64]) -> Matrix>;
    let static_plans: Vec<(&str, bool, StrategyBuilder)> = vec![
        ("Identity", false, Box::new(|n, _, _| Matrix::identity(n))),
        ("Uniform", false, Box::new(|n, _, _| Matrix::total(n))),
        ("Privelet", false, Box::new(|n, _, _| Matrix::wavelet(n))),
        ("H2", false, Box::new(|n, _, _| h2(n))),
        ("HB", false, Box::new(|n, _, _| hb(n))),
        ("QuadTree", true, Box::new(|_, (r, c), _| quad_tree(r, c))),
        (
            "UniformGrid",
            true,
            Box::new(move |_, (r, c), x| {
                let total: f64 = x.iter().sum();
                uniform_grid(r, c, uniform_grid_size(r, c, total, 0.1))
            }),
        ),
        (
            "Greedy-H",
            false,
            Box::new(|n, _, _| {
                let w = random_range(n, 128, 3);
                let ranges: Vec<(usize, usize)> = match &w {
                    Matrix::Range(r) => r.ranges().collect(),
                    _ => vec![],
                };
                greedy_h(n, &ranges)
            }),
        ),
        (
            "HDMM",
            false,
            Box::new(|n, _, _| hdmm_1d(&Matrix::prefix(n))),
        ),
    ];

    for (name, is_2d, builder) in &static_plans {
        for &e in &exps {
            let n = 4usize.pow(e);
            let side = (n as f64).sqrt() as usize;
            let shape = (side, side);
            let x = if *is_2d {
                gauss_blobs_2d(side, side, 4, 1e6, 2)
            } else {
                shape_1d(Shape1D::Bimodal, n, 1e6, 2)
            };
            let strategy = builder(n, shape, &x);
            print!("{name:<14} {n:>10}");
            for (repr, _) in REPRS {
                match run_select_measure_infer(&x, &strategy, repr, eps) {
                    Some(secs) => print!(" {:>12}", fmt_secs(secs)),
                    None => print!(" {:>12}", "-"),
                }
            }
            println!();
        }
    }

    // Data-dependent plans: the partition stage is untouched (it has no
    // big matrices); the measurement stage representation is forced. The
    // timed work runs on the partition the private selection draws, so
    // each cell prints that partition's group count beside its time: a
    // change to the noise stream moves the count, a speed change does not.
    println!("\nFig. 4a (data-dependent plans; time [partition groups])");
    println!(
        "{:<14} {:>10} {:>18} {:>18} {:>18}",
        "plan", "domain", "dense", "sparse", "implicit"
    );
    let cell = |secs: Option<f64>, groups: usize| {
        let time = secs.map_or_else(|| "-".to_string(), fmt_secs);
        print!(" {:>18}", format!("{time} [{groups}]"));
    };
    for &e in &exps {
        let n = 4usize.pow(e);
        let x = shape_1d(Shape1D::Clustered, n, 1e6, 4);
        // AHP
        print!("{:<14} {n:>10}", "AHP");
        for (repr, _) in REPRS {
            let (k, root) = kernel_for_histogram(&x, eps, 5);
            let p = ahp_partition(&k, root, eps / 2.0).expect("ahp");
            let groups = p.rows();
            if !feasible(repr, groups, groups, groups) {
                cell(None, groups);
                continue;
            }
            let (_, secs) = time_it(|| {
                let red = k.reduce_by_partition(root, &p).expect("reduce");
                let start = k.measurement_count();
                let strat = Matrix::identity(groups).with_repr(repr);
                k.vector_laplace(red, &strat, eps / 2.0).expect("measure");
                least_squares(&k.measurements_since(start), LsSolver::Iterative)
            });
            cell(Some(secs), groups);
        }
        println!();
        // DAWA
        print!("{:<14} {n:>10}", "DAWA");
        for (repr, _) in REPRS {
            let (k, root) = kernel_for_histogram(&x, eps, 6);
            let p =
                dawa_partition(&k, root, eps / 4.0, &DawaOptions::new(eps * 0.75)).expect("dawa");
            let groups = p.rows();
            let strat = greedy_h(groups, &[]);
            if !feasible(repr, strat.rows(), groups, strat.to_sparse_nnz_estimate()) {
                cell(None, groups);
                continue;
            }
            let (_, secs) = time_it(|| {
                let red = k.reduce_by_partition(root, &p).expect("reduce");
                let start = k.measurement_count();
                k.vector_laplace(red, &strat.with_repr(repr), eps * 0.75)
                    .expect("measure");
                least_squares(&k.measurements_since(start), LsSolver::Iterative)
            });
            cell(Some(secs), groups);
        }
        println!();
    }

    // ------------------------------------------------------------------
    // Fig. 4b: multi-dimensional census plans.
    // ------------------------------------------------------------------
    println!("\nFig. 4b: multi-dimensional plan runtime (census-like domains)");
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>12}",
        "plan", "domain", "basic-sparse", "sparse", "implicit"
    );
    let income_bins: Vec<usize> = if full {
        vec![36, 357, 3_571, 35_714, 357_142]
    } else {
        vec![36, 357, 3_571]
    };
    let base_table = census_cps_sized(49_436, 7);
    let mut guard = SweepGuard::new(Duration::from_secs(if full { 600 } else { 60 }));
    for &bins in &income_bins {
        let table = rebin_census_income(&base_table, bins);
        let sizes = table.schema().sizes();
        let domain: usize = sizes.iter().product();

        // HB-Striped (kernel-split) and DAWA-Striped: implicit only (their
        // per-stripe matrices are small; representation forcing is not the
        // bottleneck — included for the runtime curve).
        for (name, run) in [
            ("HB-Striped", 0usize),
            ("DAWA-Striped", 1usize),
            ("PrivBayesLS", 2usize),
        ] {
            let k = ProtectedKernel::init(table.clone(), eps, 11);
            let secs = guard.run(|| match run {
                0 => {
                    let x = k.vectorize(k.root()).unwrap();
                    plan_hb_striped(&k, x, &sizes, 0, eps).map(|_| ()).unwrap();
                }
                1 => {
                    let x = k.vectorize(k.root()).unwrap();
                    plan_dawa_striped(&k, x, &sizes, 0, &[], eps, 0.25)
                        .map(|_| ())
                        .unwrap();
                }
                _ => {
                    plan_privbayes_ls(&k, k.root(), eps).map(|_| ()).unwrap();
                }
            });
            match secs {
                Some(s) => {
                    println!(
                        "{name:<18} {domain:>10} {:>12} {:>12} {:>12}",
                        "-",
                        "-",
                        fmt_secs(s)
                    )
                }
                None => println!(
                    "{name:<18} {domain:>10} {:>12} {:>12} {:>12}",
                    "-", "-", "-"
                ),
            }
        }

        // HB-Striped_kron under three physical forms of the same logical
        // matrix: "basic sparse" = the whole Kronecker product materialized
        // over the full domain (the paper's comparison point); "sparse" =
        // Kronecker structure kept, HB factor materialized to CSR;
        // "implicit" = fully implicit.
        let x_vec = ektelo_data::vectorize(&table);
        let implicit = stripe_select(&sizes, 0, hb);
        let factor_sparse = stripe_select(&sizes, 0, |n| Matrix::sparse(hb(n).to_sparse()));
        let nnz = implicit.to_sparse_nnz_estimate();
        print!("{:<18} {domain:>10}", "HB-Striped_kron");
        // basic sparse
        if nnz <= 50_000_000 {
            match run_select_measure_infer(&x_vec, &implicit, Repr::Sparse, eps) {
                Some(s) => print!(" {:>12}", fmt_secs(s)),
                None => print!(" {:>12}", "-"),
            }
        } else {
            print!(" {:>12}", "-");
        }
        // kron with sparse factors
        match run_select_measure_infer(&x_vec, &factor_sparse, Repr::Implicit, eps) {
            Some(s) => print!(" {:>12}", fmt_secs(s)),
            None => print!(" {:>12}", "-"),
        }
        // fully implicit
        match run_select_measure_infer(&x_vec, &implicit, Repr::Implicit, eps) {
            Some(s) => print!(" {:>12}", fmt_secs(s)),
            None => print!(" {:>12}", "-"),
        }
        println!();
    }
    println!(
        "\n(Paper shape: implicit scales ~1000x beyond dense for hierarchical/grid plans; \
              kron-structured plans reach 10x larger domains than split-based ones.)"
    );
}
