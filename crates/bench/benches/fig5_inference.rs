//! Criterion version of the Fig. 5 inference-scalability comparison at
//! fixed sizes: least-squares engines (direct vs iterative) across matrix
//! representations, plus tree-based inference and NNLS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ektelo_core::ops::inference::{
    least_squares, non_negative_least_squares, tree_least_squares, LsSolver,
};
use ektelo_core::ops::selection::{h2, hb, stripe_select};
use ektelo_core::{MeasuredQuery, ProtectedKernel};
use ektelo_data::generators::{shape_1d, Shape1D};
use ektelo_matrix::{partition_from_labels, ColumnRefinement, CsrMatrix, Matrix, Repr, Workspace};
use ektelo_solvers::{lsqr, mult_weights, LsqrOptions, MwOptions};
use std::hint::black_box;
use std::sync::Arc;

fn h2_measurement(n: usize, repr: Repr) -> MeasuredQuery {
    let x = shape_1d(Shape1D::Gaussian, n, 1e6, 3);
    let k = ProtectedKernel::init_from_vector(x, 1.0, 9);
    k.vector_laplace(k.root(), &h2(n).with_repr(repr), 1.0)
        .expect("measure");
    k.measurements().remove(0)
}

fn bench_ls_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_ls");
    group.sample_size(10);

    // Direct dense is the small-domain baseline.
    let m_dense_small = h2_measurement(1024, Repr::Dense);
    group.bench_function(BenchmarkId::new("dense_direct", 1024), |b| {
        b.iter(|| {
            black_box(least_squares(
                std::slice::from_ref(&m_dense_small),
                LsSolver::Direct,
            ))
        })
    });
    group.bench_function(BenchmarkId::new("dense_iterative", 1024), |b| {
        b.iter(|| {
            black_box(least_squares(
                std::slice::from_ref(&m_dense_small),
                LsSolver::Iterative,
            ))
        })
    });

    // Iterative at a larger domain: sparse vs implicit.
    let n = 1 << 16;
    let m_sparse = h2_measurement(n, Repr::Sparse);
    let m_implicit = h2_measurement(n, Repr::Implicit);
    group.bench_function(BenchmarkId::new("sparse_iterative", n), |b| {
        b.iter(|| {
            black_box(least_squares(
                std::slice::from_ref(&m_sparse),
                LsSolver::Iterative,
            ))
        })
    });
    group.bench_function(BenchmarkId::new("implicit_iterative", n), |b| {
        b.iter(|| {
            black_box(least_squares(
                std::slice::from_ref(&m_implicit),
                LsSolver::Iterative,
            ))
        })
    });

    // The striped plans' stacked system: 280 interleaved stripes of 64
    // cells, each measured through its reduce∘split lineage
    // `Scaled(w, Product(S, Product(P, Sel)))`. `lsqr` splits it into one
    // column component per stripe, and each stripe's nested ranges are a
    // hierarchy, so the exact tree pass solves it.
    let (a, y) = striped_union(280, 64);
    let opts = LsqrOptions::default();
    group.bench_function(BenchmarkId::new("striped_union_lsqr", a.cols()), |b| {
        b.iter(|| black_box(lsqr(&a, &y, &opts).x[0]))
    });
    // Plan #16's system on the 99,960-cell census domain: one scaled
    // `HB(357) ⊗ I₄ ⊗ I₇ ⊗ I₁₀` measurement, which `lsqr` solves exactly
    // with one tree pass run on the 280 fibers along the HB mode in
    // row panels of at most 64 fibers. HB-Striped (Plan #15) runs as
    // this measurement too.
    let rhs = |m: usize| -> Vec<f64> { (0..m).map(|i| ((i * 7919) % 101) as f64 - 20.0).collect() };
    let a = Matrix::scaled(0.5, stripe_select(&[357, 4, 7, 10], 0, hb));
    let y = rhs(a.rows());
    group.bench_function(BenchmarkId::new("kron_exact", a.cols()), |b| {
        b.iter(|| black_box(lsqr(&a, &y, &opts).x[0]))
    });
    // Two hierarchy modes on the same 99,960 cells, `HB(357) ⊗ HB(280)`:
    // the last mode's fibers are contiguous, so its pass runs one fiber
    // per tile; the HB(357) pass then runs on tiles of 64 of its 280
    // fibers, and the residual takes the product `A x`.
    let a = Matrix::scaled(0.5, Matrix::kron(hb(357), hb(280)));
    let y = rhs(a.rows());
    group.bench_function(BenchmarkId::new("kron_exact_2hier", a.cols()), |b| {
        b.iter(|| black_box(lsqr(&a, &y, &opts).x[0]))
    });
    group.finish();
}

/// A `stripes × width`-cell selector-lineage union: stripe `s` holds
/// cells `s, s + stripes, …`, reduced by a partition merging cell pairs
/// and measured with unit plus nested ranges over the reduced domain.
fn striped_union(stripes: usize, width: usize) -> (Matrix, Vec<f64>) {
    let n = stripes * width;
    let groups = width / 2;
    let labels: Vec<usize> = (0..width).map(|i| i / 2).collect();
    let blocks = (0..stripes)
        .map(|s| {
            let cells: Vec<usize> = (0..width).map(|i| s + i * stripes).collect();
            let lineage = Matrix::product(
                partition_from_labels(groups, &labels),
                Matrix::select_rows(n, &cells),
            );
            let nested = (0..groups.trailing_zeros())
                .flat_map(|l| {
                    let len = groups >> l;
                    (0..1 << l).map(move |j| (j * len, (j + 1) * len))
                })
                .collect();
            let strategy = Matrix::vstack(vec![
                Matrix::range_queries(groups, (0..groups).map(|i| (i, i + 1)).collect()),
                Matrix::scaled(0.5, Matrix::range_queries(groups, nested)),
            ]);
            Matrix::scaled(
                1.0 + (s % 7) as f64 * 0.1,
                Matrix::product(strategy, lineage),
            )
        })
        .collect();
    let a = Matrix::vstack(blocks);
    let y = (0..a.rows())
        .map(|i| ((i * 7919) % 101) as f64 - 20.0)
        .collect();
    (a, y)
}

fn bench_nnls_and_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_nnls_tree");
    group.sample_size(10);
    let n = 1 << 14;
    let m_implicit = h2_measurement(n, Repr::Implicit);
    group.bench_function(BenchmarkId::new("nnls_implicit", n), |b| {
        b.iter(|| {
            black_box(non_negative_least_squares(std::slice::from_ref(
                &m_implicit,
            )))
        })
    });
    group.bench_function(BenchmarkId::new("tree_based", n), |b| {
        b.iter(|| black_box(tree_least_squares(std::slice::from_ref(&m_implicit))))
    });
    group.finish();
}

/// Multiplicative weights on MWEM's last round: 20 one-row measurements
/// of a range query each, as one-row sparse blocks over 4096 cells, and
/// 30 passes. `mult_weights` runs them over the columns' classes (at most
/// 41 here), not over every cell. `column_classes_history` times the
/// class refinement of that history on its own, from scratch;
/// `column_classes_refine` times what MWEM's loop does instead in its
/// last round: refine the kept state of the first 19 rows by the 20th
/// and build the classes (the state is cloned per call, which is part of
/// the time).
fn bench_mult_weights(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_mw");
    group.sample_size(20);
    let n = 4096;
    let x = shape_1d(Shape1D::IncomeLike, n, 1e5, 3);
    let rows: Vec<Matrix> = (0..20)
        .map(|r| {
            let lo = (r * 1543) % (n - 64);
            let hi = lo + 64 + (r * 977) % (n - 64 - lo);
            let ones: Vec<(usize, usize, f64)> = (lo..hi).map(|c| (0, c, 1.0)).collect();
            Matrix::sparse(CsrMatrix::from_triplets(1, n, &ones))
        })
        .collect();
    let mut kept = ColumnRefinement::new(n, None);
    kept.refine(&Matrix::vstack(rows[..19].to_vec())).unwrap();
    let last = rows[19].clone();
    let m = Matrix::vstack(rows);
    let y: Vec<f64> = m
        .matvec(&x)
        .iter()
        .enumerate()
        .map(|(i, v)| v + ((i * 7919) % 101) as f64 - 50.0)
        .collect();
    let total: f64 = x.iter().sum();
    let x0 = vec![total / n as f64; n];
    let opts = MwOptions {
        iterations: 30,
        total,
    };
    group.bench_function(BenchmarkId::new("mw_mwem_union", n), |b| {
        b.iter(|| black_box(mult_weights(&m, &y, &x0, &opts)[0]))
    });
    // The class refinement alone, as `mult_weights` calls it: keyed by
    // the uniform start, over the whole 20-row history.
    group.bench_function(BenchmarkId::new("column_classes_history", n), |b| {
        b.iter(|| black_box(m.column_classes_by(&x0).map(|c| c.sizes.len())))
    });
    group.bench_function(BenchmarkId::new("column_classes_refine", n), |b| {
        b.iter(|| {
            let mut r = kept.clone();
            r.refine(&last).unwrap();
            black_box(r.classes().map(|c| c.sizes.len()))
        })
    });
    group.finish();
}

/// The engine-level before/after underlying Fig. 5's iterative numbers:
/// one solver-iteration worth of H2-strategy products (`A·v` then `Aᵀ·u`)
/// through the allocating wrappers versus a reused [`Workspace`].
fn bench_solver_iteration_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_iteration_products");
    group.sample_size(30);
    let n = 1usize << 16;
    let strategy = h2(n);
    let (rows, cols) = strategy.shape();
    let v: Vec<f64> = (0..cols).map(|i| (i % 11) as f64).collect();
    let u: Vec<f64> = (0..rows).map(|i| (i % 7) as f64).collect();

    group.bench_function(BenchmarkId::new("allocating", n), |b| {
        b.iter(|| {
            let av = strategy.matvec(&v);
            let atu = strategy.rmatvec(&u);
            black_box((av[0], atu[0]))
        })
    });

    let mut ws = Workspace::for_matrix(&strategy);
    let mut av = vec![0.0; rows];
    let mut atu = vec![0.0; cols];
    group.bench_function(BenchmarkId::new("workspace", n), |b| {
        b.iter(|| {
            strategy.matvec_into(&v, &mut av, &mut ws);
            strategy.rmatvec_into(&u, &mut atu, &mut ws);
            black_box((av[0], atu[0]))
        })
    });

    // Cached-plan entries (ISSUE 2): the workspace path above is now
    // plan-cached; price the cache by forcing a planning pass per
    // iteration pair, and measure a lineage-shaped system (a measurement
    // query composed with an 8-deep transformation lineage — the shape
    // `stack_measurements` hands the solvers) where the chain plan's
    // ping-pong buffers shrink the working set.
    group.bench_function(BenchmarkId::new("workspace_replan", n), |b| {
        b.iter(|| {
            // Clearing only the workspace fast path would still hit the
            // process-wide cache (ISSUE 3); clear both to price a replan.
            ektelo_matrix::plan_cache_clear();
            ws.invalidate_plans();
            strategy.matvec_into(&v, &mut av, &mut ws);
            strategy.rmatvec_into(&u, &mut atu, &mut ws);
            black_box((av[0], atu[0]))
        })
    });

    let mut lineage =
        ektelo_matrix::Matrix::diagonal((0..n).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect());
    for k in 0..8 {
        let next = match k % 3 {
            0 => ektelo_matrix::Matrix::prefix(n),
            1 => ektelo_matrix::Matrix::diagonal(
                (0..n).map(|i| 1.0 - (i % 5) as f64 * 0.1).collect(),
            ),
            _ => ektelo_matrix::Matrix::suffix(n),
        };
        lineage = ektelo_matrix::Matrix::Product(Arc::new(next), Arc::new(lineage));
    }
    let system = ektelo_matrix::Matrix::product(h2(n), lineage);
    let mut lws = Workspace::for_matrix(&system);
    let su: Vec<f64> = (0..system.rows()).map(|i| (i % 13) as f64).collect();
    let mut sav = vec![0.0; system.rows()];
    let mut satu = vec![0.0; system.cols()];
    // NOT a regression signal relative to `workspace` above, and NOT a
    // cold cache: `lws` is warm and reused, so every iteration runs the
    // cached chain plan with zero planning work (ISSUE 6 investigated the
    // ~3× gap). The entry measures a genuinely larger system — H2
    // composed with a 9-factor lineage, so each iteration pair evaluates
    // ten O(n) factors in each direction versus `workspace`'s bare H2.
    // Intended behavior: prices a realistic `stack_measurements` lineage,
    // not the cache. Compare against `workspace_replan` for cache cost.
    group.bench_function(BenchmarkId::new("lineage_cached_plan", n), |b| {
        b.iter(|| {
            system.matvec_into(&v, &mut sav, &mut lws);
            system.rmatvec_into(&su, &mut satu, &mut lws);
            black_box((sav[0], satu[0]))
        })
    });
    group.finish();
}

/// ISSUE 3 zero-copy measurement benches. `vector_laplace_batch` now
/// snapshots source vectors by `Arc` refcount bump (PR 2 deep-cloned each
/// one to escape the kernel lock) and memoizes the shared strategy's
/// sensitivity per batch. `exact_answers/*` isolates the snapshot policy
/// itself: the same per-stripe matvecs with and without a data-sized copy
/// in front, which is precisely the allocation the `Arc` node
/// representation removed from the measurement path.
fn bench_batched_measurement(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_batched_measurement");
    group.sample_size(20);

    let stripes = 64usize;
    let width = 1usize << 10;
    let n = stripes * width;

    // End-to-end: one batched call measuring every stripe of a striped
    // kernel (counts budget, draws noise, records history — the real
    // measurement path). A huge budget keeps thousands of timed calls
    // valid.
    let x = shape_1d(Shape1D::Gaussian, n, 1e6, 5);
    let k = ProtectedKernel::init_from_vector(x, 1e9, 11);
    let labels: Vec<usize> = (0..n).map(|i| i / width).collect();
    let p = ektelo_matrix::partition_from_labels(stripes, &labels);
    let parts = k.split_by_partition(k.root(), &p).expect("split");
    let strategy = h2(width);
    let reqs: Vec<(ektelo_core::SourceVar, &ektelo_matrix::Matrix, f64)> =
        parts.iter().map(|&s| (s, &strategy, 1e-4)).collect();
    group.bench_function(
        BenchmarkId::new("vector_laplace_batch/arc_snapshot", n),
        |b| b.iter(|| black_box(k.vector_laplace_batch(&reqs).expect("batch").len())),
    );

    // Isolated snapshot policy: per-stripe exact answers with a deep copy
    // in front (the PR 2 behavior) vs straight off the shared slice.
    let data: Vec<Vec<f64>> = (0..stripes)
        .map(|s| (0..width).map(|i| ((s * width + i) % 17) as f64).collect())
        .collect();
    let mut ws = Workspace::for_matrix(&strategy);
    let mut out = vec![0.0; strategy.rows()];
    group.bench_function(BenchmarkId::new("exact_answers/deep_clone", n), |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for stripe in &data {
                let snapshot = stripe.to_vec(); // what Arc nodes removed
                strategy.matvec_into(&snapshot, &mut out, &mut ws);
                acc += out[0];
            }
            black_box(acc)
        })
    });
    group.bench_function(BenchmarkId::new("exact_answers/zero_copy", n), |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for stripe in &data {
                strategy.matvec_into(stripe, &mut out, &mut ws);
                acc += out[0];
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ls_engines,
    bench_nnls_and_tree,
    bench_mult_weights,
    bench_solver_iteration_products,
    bench_batched_measurement
);
criterion_main!(benches);
