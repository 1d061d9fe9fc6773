//! Regenerates **Fig. 5**: scalability of inference (paper §10.2.2).
//!
//! For binary hierarchical (H2) measurements over growing domains, times
//! least-squares and NNLS inference across solver (direct vs iterative) ×
//! representation (dense vs sparse vs implicit), plus the specialized
//! tree-based LS of Hay et al. (`tree_least_squares`, the exact pass
//! `lsqr` also runs on hierarchical striped components). Cells print `-`
//! where a configuration is infeasible (the paper's curves stop at the
//! same walls: dense ~10³·⁵, sparse ~10⁶·⁵).
//!
//! Run: `cargo run --release -p ektelo-bench --bin fig5 [--full]`

use ektelo_bench::{fmt_secs, full_mode, time_it};
use ektelo_core::ops::inference::{
    least_squares, non_negative_least_squares, tree_least_squares, LsSolver,
};
use ektelo_core::ops::selection::h2;
use ektelo_core::MeasuredQuery;
use ektelo_core::{ProtectedKernel, SourceVar};
use ektelo_data::generators::{shape_1d, Shape1D};
use ektelo_matrix::{Matrix, Repr};

fn h2_measurement(n: usize, repr: Repr) -> MeasuredQuery {
    let x = shape_1d(Shape1D::Gaussian, n, 1e6, 3);
    let k = ProtectedKernel::init_from_vector(x, 1.0, 9);
    let strategy = h2(n).with_repr(repr);
    k.vector_laplace(k.root(), &strategy, 1.0).expect("measure");
    k.measurements().remove(0)
}

fn measured(base: SourceVar, query: Matrix, answers: Vec<f64>, scale: f64) -> MeasuredQuery {
    MeasuredQuery {
        base,
        query,
        answers: answers.into(),
        noise_scale: scale,
    }
}

fn main() {
    let full = full_mode();
    let domains: Vec<usize> = if full {
        vec![1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 24]
    } else {
        vec![1 << 10, 1 << 13, 1 << 16, 1 << 18]
    };

    println!("\nFig. 5: inference runtime for H2 measurements");
    println!(
        "{:<24} {}",
        "method",
        domains
            .iter()
            .map(|n| format!("{n:>12}"))
            .collect::<String>()
    );

    type Method = (&'static str, Box<dyn Fn(usize) -> Option<f64>>);
    let methods: Vec<Method> = vec![
        (
            "LS  dense + direct",
            Box::new(|n| {
                if n > 2048 {
                    return None;
                }
                let m = h2_measurement(n, Repr::Dense);
                Some(time_it(|| least_squares(std::slice::from_ref(&m), LsSolver::Direct)).1)
            }),
        ),
        (
            "LS  dense + iterative",
            Box::new(|n| {
                if n > 8192 {
                    return None;
                }
                let m = h2_measurement(n, Repr::Dense);
                Some(time_it(|| least_squares(std::slice::from_ref(&m), LsSolver::Iterative)).1)
            }),
        ),
        (
            "LS  sparse + iterative",
            Box::new(|n| {
                if n > 4_000_000 {
                    return None;
                }
                let m = h2_measurement(n, Repr::Sparse);
                Some(time_it(|| least_squares(std::slice::from_ref(&m), LsSolver::Iterative)).1)
            }),
        ),
        (
            "LS  implicit + iterative",
            Box::new(|n| {
                let m = h2_measurement(n, Repr::Implicit);
                Some(time_it(|| least_squares(std::slice::from_ref(&m), LsSolver::Iterative)).1)
            }),
        ),
        (
            "NNLS dense + iterative",
            Box::new(|n| {
                if n > 4096 {
                    return None;
                }
                let m = h2_measurement(n, Repr::Dense);
                Some(time_it(|| non_negative_least_squares(std::slice::from_ref(&m))).1)
            }),
        ),
        (
            "NNLS sparse + iterative",
            Box::new(|n| {
                if n > 2_000_000 {
                    return None;
                }
                let m = h2_measurement(n, Repr::Sparse);
                Some(time_it(|| non_negative_least_squares(std::slice::from_ref(&m))).1)
            }),
        ),
        (
            "NNLS implicit + iterative",
            Box::new(|n| {
                let m = h2_measurement(n, Repr::Implicit);
                Some(time_it(|| non_negative_least_squares(std::slice::from_ref(&m))).1)
            }),
        ),
        (
            "LS  tree-based (custom)",
            Box::new(|n| {
                let m = h2_measurement(n, Repr::Implicit);
                Some(time_it(|| tree_least_squares(std::slice::from_ref(&m))).1)
            }),
        ),
    ];
    // Silence the unused helper warning in case method sets change.
    let _ = measured;

    for (name, run) in &methods {
        print!("{name:<24}");
        for &n in &domains {
            match run(n) {
                Some(secs) => print!(" {:>11}", fmt_secs(secs)),
                None => print!(" {:>11}", "-"),
            }
        }
        println!();
    }
    println!(
        "\n(Timings exclude data generation/measurement where possible; matrix \
              materialization is part of the representation cost and is included.\n \
              Paper shape: iterative+sparse reaches ~1000x larger domains than direct+dense; \
              implicit extends another ~100x; tree-based is fastest but single-purpose.)"
    );
}
