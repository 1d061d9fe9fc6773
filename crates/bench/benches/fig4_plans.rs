//! Criterion version of the Fig. 4 plan-runtime comparison at fixed,
//! bench-friendly sizes: the same logical plan under dense / sparse /
//! implicit measurement matrices. (The full domain sweep lives in the
//! `fig4` binary; criterion gives statistically robust per-point numbers.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ektelo_core::ops::inference::{least_squares, LsSolver};
use ektelo_core::ops::selection::{h2, hb, stripe_select};
use ektelo_data::generators::{shape_1d, Shape1D};
use ektelo_data::workloads::random_range;
use ektelo_matrix::{Matrix, Repr};
use ektelo_plans::mwem::{plan_mwem, MwemOptions};
use ektelo_plans::striped::plan_dawa_striped;
use ektelo_plans::util::kernel_for_histogram;
use std::hint::black_box;

fn run_plan(x: &[f64], strategy: &Matrix, eps: f64) -> Vec<f64> {
    let (k, root) = kernel_for_histogram(x, eps, 5);
    let start = k.measurement_count();
    k.vector_laplace(root, strategy, eps).expect("measure");
    least_squares(&k.measurements_since(start), LsSolver::Iterative)
}

fn bench_h2_representations(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_h2_plan");
    group.sample_size(10);
    let n = 4096;
    let x = shape_1d(Shape1D::Bimodal, n, 1e6, 2);
    let implicit = h2(n);
    for (name, repr) in [
        ("dense", Repr::Dense),
        ("sparse", Repr::Sparse),
        ("implicit", Repr::Implicit),
    ] {
        let strategy = implicit.with_repr(repr);
        group.bench_with_input(BenchmarkId::new("repr", name), &strategy, |b, s| {
            b.iter(|| black_box(run_plan(&x, s, 0.1)))
        });
    }
    group.finish();
}

fn bench_striped_kron(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_striped_kron");
    group.sample_size(10);
    // Small census-like domain: 357 × 5 × 7 × 4 × 2 = 99,960 cells.
    let sizes = [357usize, 5, 7, 4, 2];
    let n: usize = sizes.iter().product();
    let x = shape_1d(Shape1D::IncomeLike, n, 49_436.0, 3);
    let implicit = stripe_select(&sizes, 0, hb);
    let factor_sparse = stripe_select(&sizes, 0, |m| Matrix::sparse(hb(m).to_sparse()));
    let basic_sparse = implicit.with_repr(Repr::Sparse);
    for (name, strategy) in [
        ("implicit", &implicit),
        ("kron_sparse_factor", &factor_sparse),
        ("basic_sparse", &basic_sparse),
    ] {
        group.bench_with_input(BenchmarkId::new("form", name), strategy, |b, s| {
            b.iter(|| black_box(run_plan(&x, s, 0.1)))
        });
    }
    group.finish();
}

/// A whole DAWA-Striped request (fresh kernel, stage-1 partitions,
/// per-stripe Greedy-H, measurement, least squares) on the end-to-end
/// benchmark's two shapes, keyed by cell count: the sessions' `[32, 3, 2]`
/// (6 stripes) and `striped_dawa`'s `[64, 5, 7, 4, 2]` (280 stripes).
/// Its cost is per-stripe bookkeeping, so it tracks the allocation gate of
/// `crates/plans/tests/alloc_dawa_striped.rs` in time.
fn bench_dawa_striped(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_dawa_striped");
    group.sample_size(10);
    let shapes: [(&[usize], (usize, usize), f64); 2] = [
        (&[32, 3, 2], (0, 16), 0.8),
        (&[64, 5, 7, 4, 2], (0, 32), 0.1),
    ];
    for (sizes, range, eps) in shapes {
        let n: usize = sizes.iter().product();
        let x = shape_1d(Shape1D::IncomeLike, n, 10_000.0, 3);
        group.bench_with_input(BenchmarkId::new("fig4_dawa_striped", n), &x, |b, x| {
            b.iter(|| {
                let (k, root) = kernel_for_histogram(x, eps, 5);
                let out = plan_dawa_striped(&k, root, sizes, 0, &[range], eps, 0.25);
                black_box(out.expect("DAWA-Striped runs within its budget").x_hat)
            })
        });
    }
    group.finish();
}

/// A whole MWEM request (fresh kernel, every round's selection,
/// measurement and MW inference) on the end-to-end benchmark's two MWEM
/// shapes, keyed by cell count: `mwem`'s 4,096 cells with 500
/// `random_range` queries, 20 rounds of 30 passes, and the sessions' MWEM
/// step, a 192-cell prefix workload, 2 rounds of 8 passes. Most of a
/// round's cost is per-round set-up, so it tracks the allocation gate of
/// `crates/plans/tests/alloc_mwem.rs` in time.
fn bench_mwem(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_mwem");
    group.sample_size(10);
    let n = 4096;
    let mwem_x = shape_1d(Shape1D::IncomeLike, n, 100_000.0, 1);
    let sessions_x: Vec<f64> = (0..192).map(|i| ((i * 31) % 23) as f64 + 1.0).collect();
    let shapes = [
        (mwem_x, random_range(n, 500, 1), 0.1, 20, 30),
        (sessions_x, Matrix::prefix(192), 0.8, 2, 8),
    ];
    for (x, workload, eps, rounds, mw_iterations) in shapes {
        let opts = MwemOptions {
            rounds,
            total: x.iter().sum(),
            mw_iterations,
        };
        group.bench_with_input(BenchmarkId::new("fig4_mwem", x.len()), &x, |b, x| {
            b.iter(|| {
                let (k, root) = kernel_for_histogram(x, eps, 5);
                let out = plan_mwem(&k, root, &workload, eps, &opts);
                black_box(out.expect("MWEM runs within its budget").x_hat)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_h2_representations,
    bench_striped_kron,
    bench_dawa_striped,
    bench_mwem
);
criterion_main!(benches);
