//! Criterion micro-benchmarks validating the complexity claims of paper
//! Tables 2 and 3: matrix–vector products of the core implicit matrices
//! against their sparse and dense materializations, and of composed
//! (Kronecker) matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ektelo_core::kernel::ProtectedKernel;
use ektelo_core::ops::inference::scaled_per_query_l2_error;
use ektelo_core::ops::partition::stripe_partition;
use ektelo_core::ops::selection::{hb, stripe_select};
use ektelo_matrix::{Matrix, Repr, Workspace};
use std::hint::black_box;
use std::sync::Arc;

fn bench_core_matrices(c: &mut Criterion) {
    let mut group = c.benchmark_group("matvec_core");
    group.sample_size(20);

    for &n in &[1usize << 10, 1 << 14] {
        let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
        for (name, m) in [
            ("identity", Matrix::identity(n)),
            ("prefix", Matrix::prefix(n)),
            ("wavelet", Matrix::wavelet(n)),
            (
                "range_dyadic",
                Matrix::range_queries(
                    n,
                    (0..n / 2).map(|i| (2 * i, 2 * i + 2)).collect::<Vec<_>>(),
                ),
            ),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/implicit"), n),
                &m,
                |b, m| b.iter(|| black_box(m.matvec(&x))),
            );
            // Sparse comparison (Table 2's right columns). Dense is only
            // feasible at the small size.
            let sparse = m.with_repr(Repr::Sparse);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/sparse"), n),
                &sparse,
                |b, m| b.iter(|| black_box(m.matvec(&x))),
            );
            if n <= 1 << 10 {
                let dense = m.with_repr(Repr::Dense);
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}/dense"), n),
                    &dense,
                    |b, m| b.iter(|| black_box(m.matvec(&x))),
                );
            }
        }
    }
    group.finish();
}

fn bench_kron(c: &mut Criterion) {
    let mut group = c.benchmark_group("matvec_kron");
    group.sample_size(20);
    // A census-like marginal strategy: I ⊗ Total ⊗ I (Table 3 composition).
    for &side in &[32usize, 128] {
        let m = Matrix::kron_list(vec![
            Matrix::identity(side),
            Matrix::total(8),
            Matrix::identity(side),
        ]);
        let n = m.cols();
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        group.bench_with_input(BenchmarkId::new("marginal/implicit", n), &m, |b, m| {
            b.iter(|| black_box(m.matvec(&x)))
        });
        let sparse = m.with_repr(Repr::Sparse);
        group.bench_with_input(BenchmarkId::new("marginal/sparse", n), &sparse, |b, m| {
            b.iter(|| black_box(m.matvec(&x)))
        });
    }
    // The 5-factor census `Prefix(Income)` workload (257,040 × 99,960)
    // into a warm workspace: one panel-kernel pass per mode.
    let census = ektelo_data::workloads::census_prefix_income(&[357, 5, 7, 4, 2]);
    let x: Vec<f64> = (0..census.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
    let y: Vec<f64> = (0..census.rows()).map(|i| (i % 5) as f64 - 2.0).collect();
    let mut ws = Workspace::for_matrix(&census);
    let mut out = vec![0.0; census.rows()];
    let mut back = vec![0.0; census.cols()];
    let id = |dir| BenchmarkId::new(format!("census_prefix_income/{}", census.cols()), dir);
    group.bench_function(id("matvec_into"), |b| {
        b.iter(|| census.matvec_into(black_box(&x), &mut out, &mut ws))
    });
    group.bench_function(id("rmatvec_into"), |b| {
        b.iter(|| census.rmatvec_into(black_box(&y), &mut back, &mut ws))
    });
    black_box((&out, &back));
    group.finish();
}

fn bench_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensitivity");
    group.sample_size(20);
    let n = 1 << 14;
    for (name, m) in [
        ("wavelet", Matrix::wavelet(n)),
        (
            "h2_union",
            Matrix::vstack(vec![Matrix::identity(n), Matrix::wavelet(n)]),
        ),
        (
            "kron",
            Matrix::kron(Matrix::prefix(128), Matrix::wavelet(128)),
        ),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(m.l1_sensitivity())));
    }
    // HB-Striped's strategy over the 99,960-cell census domain: closed
    // form, one pass over HB(357)'s columns rather than the domain's.
    let stripe = stripe_select(&[357, 5, 7, 4, 2], 0, hb);
    group.bench_function(BenchmarkId::new("stripe_kron", stripe.cols()), |b| {
        b.iter(|| black_box(stripe.l1_sensitivity()))
    });
    group.finish();
}

/// The Table 5 error check on the census `Prefix(Income)` workload
/// (257,040 × 99,960): `Prefix` applied once along the income mode, then
/// the rest of the workload streamed over its 357 row panels.
fn bench_scaled_error(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaled_error");
    group.sample_size(20);
    let census = ektelo_data::workloads::census_prefix_income(&[357, 5, 7, 4, 2]);
    let n = census.cols();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let x_hat: Vec<f64> = (0..n)
        .map(|i| (i % 7) as f64 + (i % 3) as f64 - 1.0)
        .collect();
    group.bench_function(BenchmarkId::new("census_prefix_income", n), |b| {
        b.iter(|| black_box(scaled_per_query_l2_error(&census, &x, &x_hat, 1000.0)))
    });
    group.finish();
}

/// The seed repository's evaluation strategy, reconstructed as a reference
/// "before": every combinator node allocates a fresh `Vec` per call
/// (`Product` its intermediate, `Range` its prefix array, the wrapper its
/// output), exactly as the pre-workspace engine did. Leaves evaluate
/// through the current kernels (leaves need no scratch, so this isolates
/// the per-node allocation cost being benchmarked).
fn seed_engine_matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; m.rows()];
    seed_engine_matvec_into(m, x, &mut out);
    out
}

fn seed_engine_matvec_into(m: &Matrix, x: &[f64], out: &mut [f64]) {
    match m {
        Matrix::Union(blocks) => {
            let mut offset = 0;
            for b in blocks.iter() {
                let rows = b.rows();
                seed_engine_matvec_into(b, x, &mut out[offset..offset + rows]);
                offset += rows;
            }
        }
        Matrix::Product(a, b) => {
            let t = seed_engine_matvec(b, x);
            seed_engine_matvec_into(a, &t, out);
        }
        Matrix::Scaled(c, a) => {
            seed_engine_matvec_into(a, x, out);
            for o in out.iter_mut() {
                *o *= c;
            }
        }
        Matrix::Range(r) => r.matvec_into(x, out), // allocates its prefix array
        other => other.matvec_into(x, out, &mut Workspace::new()),
    }
}

/// PR 1's workspace engine, reconstructed for product-chain shapes: the
/// nested recursion carved **one intermediate per `Product`** off a
/// pre-sized arena (`matvec_scratch`), so a k-product lineage dragged k
/// live n-buffers through every call. PR 2's chain plan ping-pongs two.
/// Leaf kernels are identical to the library's, so the delta isolates the
/// buffer-assignment change.
fn pr1_engine_matvec(m: &Matrix, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
    match m {
        Matrix::Product(a, b) => {
            let (t, rest) = scratch.split_at_mut(b.rows());
            pr1_engine_matvec(b, x, t, rest);
            pr1_engine_matvec(a, t, out, rest);
        }
        Matrix::Diagonal(d) => {
            for ((o, &di), &xi) in out.iter_mut().zip(d.iter()).zip(x) {
                *o = di * xi;
            }
        }
        Matrix::Prefix { .. } => {
            let mut acc = 0.0;
            for (o, &xi) in out.iter_mut().zip(x) {
                acc += xi;
                *o = acc;
            }
        }
        Matrix::Suffix { .. } => {
            let mut acc = 0.0;
            for (o, &xi) in out.iter_mut().rev().zip(x.iter().rev()) {
                acc += xi;
                *o = acc;
            }
        }
        other => panic!("pr1 engine reconstruction covers lineage shapes only, got {other:?}"),
    }
}

/// The allocation-free engine claim (paper §7 / ISSUE 1 acceptance): a
/// combinator tree at n = 2^16 evaluated three ways — the seed engine
/// (fresh `Vec` at every combinator node), the current allocating wrapper
/// (one fresh arena per call), and `matvec_into` with a pre-planned
/// reusable [`Workspace`].
fn bench_workspace_reuse(c: &mut Criterion) {
    let n = 1usize << 16;
    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();

    // Shape 1 — "striped": the union-of-narrow-product-blocks shape the
    // striped and marginal plans produce (hundreds of blocks, little work
    // per block). This is where the seed engine's per-node allocations
    // dominated the actual arithmetic.
    let stripes = 1024;
    let width = n / stripes;
    let striped = Matrix::vstack(
        (0..stripes)
            .map(|s| {
                let idx: Vec<usize> = (s * width..(s + 1) * width).collect();
                Matrix::product(Matrix::wavelet(width), Matrix::select_rows(n, &idx))
            })
            .collect(),
    );

    // Shape 2 — "lineage": a transformation-lineage product chain
    // (alternating reweightings and hierarchical transforms), the shape
    // every kernel-transformed source drags through inference. Each node
    // is cheap relative to the O(n) buffer the seed engine allocated and
    // zeroed for it, so this is where the workspace engine pays off most
    // (≥2x is the ISSUE 1 acceptance bar).
    let mut lineage = Matrix::diagonal((0..n).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect());
    for k in 0..8 {
        let next = match k % 3 {
            0 => Matrix::prefix(n),
            1 => Matrix::diagonal((0..n).map(|i| 1.0 - (i % 5) as f64 * 0.1).collect()),
            _ => Matrix::suffix(n),
        };
        lineage = Matrix::Product(Arc::new(next), Arc::new(lineage));
    }

    // Shape 3 — "deep_chain": few large combinator nodes over hierarchical
    // strategies; compute-bound, so the gain here is modest by design.
    let chain = Matrix::vstack(vec![
        Matrix::product(
            Matrix::prefix(n),
            Matrix::product(Matrix::wavelet(n), Matrix::suffix(n)),
        ),
        Matrix::scaled(0.5, Matrix::wavelet(n)),
        Matrix::range_queries(n, (0..n / 2).map(|i| (2 * i, 2 * i + 2)).collect()),
    ]);

    let mut group = c.benchmark_group("matvec_tree_workspace");
    group.sample_size(30);
    for (shape, tree) in [
        ("striped", &striped),
        ("lineage", &lineage),
        ("deep_chain", &chain),
    ] {
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}/seed_engine"), n),
            tree,
            |b, m| b.iter(|| black_box(seed_engine_matvec(m, &x))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}/allocating"), n),
            tree,
            |b, m| b.iter(|| black_box(m.matvec(&x))),
        );
        let mut ws = Workspace::for_matrix(tree);
        let mut out = vec![0.0; tree.rows()];
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}/workspace"), n),
            tree,
            |b, m| {
                b.iter(|| {
                    m.matvec_into(&x, &mut out, &mut ws);
                    black_box(out[0])
                })
            },
        );
        // PR 1 engine reference on the lineage shape (same run, same
        // machine — the honest before/after for the ISSUE 2 acceptance:
        // cached-plan matvec vs the one-intermediate-per-product engine).
        if shape == "lineage" {
            let mut pr1_scratch = vec![0.0; tree.matvec_scratch()];
            group.bench_with_input(
                BenchmarkId::new(format!("{shape}/pr1_workspace_engine"), n),
                tree,
                |b, m| {
                    b.iter(|| {
                        pr1_engine_matvec(m, &x, &mut out, &mut pr1_scratch);
                        black_box(out[0])
                    })
                },
            );
        }
        // Explicit cached-plan entry (ISSUE 2): identical to `workspace`
        // now that plans are memoized, named separately so the cross-PR
        // trajectory can track the planned engine from this PR onward.
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}/cached_plan"), n),
            tree,
            |b, m| {
                b.iter(|| {
                    m.matvec_into(&x, &mut out, &mut ws);
                    black_box(out[0])
                })
            },
        );
        // The anti-benchmark: force a planning pass on every call to
        // price what the cache removes from solver inner loops. Since
        // ISSUE 3 the plans live in a process-wide cache, so pricing a
        // replan takes clearing both the global cache and the workspace
        // fast path.
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}/replan_every_call"), n),
            tree,
            |b, m| {
                b.iter(|| {
                    ektelo_matrix::plan_cache_clear();
                    ws.invalidate_plans();
                    m.matvec_into(&x, &mut out, &mut ws);
                    black_box(out[0])
                })
            },
        );
        // Transpose direction exercises the scatter-add path.
        let y: Vec<f64> = (0..tree.rows()).map(|i| (i % 5) as f64).collect();
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}/allocating_t"), n),
            tree,
            |b, m| b.iter(|| black_box(m.rmatvec(&y))),
        );
        let mut back = vec![0.0; n];
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}/workspace_t"), n),
            tree,
            |b, m| {
                b.iter(|| {
                    m.rmatvec_into(&y, &mut back, &mut ws);
                    black_box(back[0])
                })
            },
        );
    }
    group.finish();
}

/// Transpose/scatter-direction benches: a striped union through one
/// planned `rmatvec_into`, against the same scatter driven block by block
/// (`serial_blocks`), and a large Kronecker.
fn bench_parallel_rmatvec(c: &mut Criterion) {
    let n = 1usize << 16;
    let stripes = 64;
    let width = n / stripes;
    let blocks: Vec<Matrix> = (0..stripes)
        .map(|s| {
            let idx: Vec<usize> = (s * width..(s + 1) * width).collect();
            Matrix::product(Matrix::wavelet(width), Matrix::select_rows(n, &idx))
        })
        .collect();
    let union = Matrix::vstack(blocks.clone());
    let y: Vec<f64> = (0..union.rows()).map(|i| (i % 7) as f64 - 3.0).collect();

    let mut group = c.benchmark_group("parallel_rmatvec");
    group.sample_size(30);

    let mut ws = Workspace::for_matrix(&union);
    let mut back = vec![0.0; n];
    group.bench_with_input(
        BenchmarkId::new("union_striped/rmatvec_into", n),
        &union,
        |b, m| {
            b.iter(|| {
                m.rmatvec_into(&y, &mut back, &mut ws);
                black_box(back[0])
            })
        },
    );
    // Reference: scatter block by block through the same planned engine.
    let mut block_ws: Vec<Workspace> = blocks.iter().map(Workspace::for_matrix).collect();
    group.bench_function(BenchmarkId::new("union_striped/serial_blocks", n), |b| {
        b.iter(|| {
            back.fill(0.0);
            let mut offset = 0;
            for (blk, ws) in blocks.iter().zip(block_ws.iter_mut()) {
                let rows = blk.rows();
                blk.rmatvec_add(&y[offset..offset + rows], &mut back, ws);
                offset += rows;
            }
            black_box(back[0])
        })
    });

    let kron = Matrix::kron(Matrix::prefix(256), Matrix::wavelet(256));
    let ky: Vec<f64> = (0..kron.rows()).map(|i| (i % 11) as f64 - 5.0).collect();
    let mut kws = Workspace::for_matrix(&kron);
    let mut kback = vec![0.0; kron.cols()];
    group.bench_with_input(
        BenchmarkId::new("kron_256x256/rmatvec_into", kron.cols()),
        &kron,
        |b, m| {
            b.iter(|| {
                m.rmatvec_into(&ky, &mut kback, &mut kws);
                black_box(kback[0])
            })
        },
    );
    group.finish();
}

/// The process-wide plan cache on MWEM-shaped loops. `mwem_round_loop`
/// rebuilds a growing stacked union every round (each round's spine is a
/// brand-new shape sharing all-but-one block with the previous round) and
/// evaluates it once, so each round is one planning step plus one
/// product; the cache serves every block and lineage factor from earlier
/// rounds, so only the new spine is assembled. `round_robin_9_shapes` rotates nine strategy shapes through
/// one workspace, whose single-entry fast path misses on every call, so
/// each lookup is served by the shared map. Each gets a `replan_baseline`
/// twin that clears the cache and the fast path before every round (or
/// every call of the rotation), pricing exactly what the cache removes.
fn bench_plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_cache");
    group.sample_size(30);
    let n = 1usize << 12;
    let rounds = 16;
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();

    // One measurement block per round, shaped like what MWEM inference
    // actually stacks: the selected query row composed with the source's
    // transformation lineage — a product chain whose factors (not just
    // the block) the cache shares across rounds. Payloads differ per
    // round, shapes don't.
    let lineage = Matrix::diagonal((0..n).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect());
    let rows: Vec<Matrix> = (0..rounds)
        .map(|r| {
            let triplets: Vec<(usize, usize, f64)> =
                (r * 32..r * 32 + 24).map(|j| (0, j, 1.0)).collect();
            Matrix::product(
                Matrix::sparse(ektelo_matrix::CsrMatrix::from_triplets(1, n, &triplets)),
                lineage.clone(),
            )
        })
        .collect();

    let run_round_loop = |replan: bool| {
        let mut ws = Workspace::new();
        let mut blocks: Vec<Matrix> = Vec::new();
        let mut acc = 0.0;
        for row in &rows {
            if replan {
                ektelo_matrix::plan_cache_clear();
                ws.invalidate_plans();
            }
            blocks.push(row.clone());
            let system = Matrix::vstack(blocks.clone());
            let mut out = vec![0.0; system.rows()];
            system.matvec_into(&x, &mut out, &mut ws);
            acc += out[0];
        }
        acc
    };
    group.bench_function(BenchmarkId::new("mwem_round_loop/global_cache", n), |b| {
        b.iter(|| black_box(run_round_loop(false)))
    });
    group.bench_function(
        BenchmarkId::new("mwem_round_loop/replan_baseline", n),
        |b| b.iter(|| black_box(run_round_loop(true))),
    );

    // 9 shapes through one workspace: the old cap-8 LRU rebuilt on every
    // call once the rotation wrapped.
    let shapes: Vec<Matrix> = (1..=9)
        .map(|k| {
            Matrix::vstack(vec![
                Matrix::wavelet(n),
                Matrix::range_queries(n, (0..k * 32).map(|i| (i, i + 2)).collect::<Vec<_>>()),
            ])
        })
        .collect();
    let mut outs: Vec<Vec<f64>> = shapes.iter().map(|m| vec![0.0; m.rows()]).collect();
    let mut run_rotation = |replan: bool| {
        let mut ws = Workspace::new();
        let mut acc = 0.0;
        for _ in 0..3 {
            for (m, out) in shapes.iter().zip(&mut outs) {
                if replan {
                    ektelo_matrix::plan_cache_clear();
                    ws.invalidate_plans();
                }
                m.matvec_into(&x, out, &mut ws);
                acc += out[0];
            }
        }
        acc
    };
    group.bench_function(
        BenchmarkId::new("round_robin_9_shapes/global_cache", n),
        |b| b.iter(|| black_box(run_rotation(false))),
    );
    group.bench_function(
        BenchmarkId::new("round_robin_9_shapes/replan_baseline", n),
        |b| b.iter(|| black_box(run_rotation(true))),
    );
    group.finish();
}

/// Kronecker fiber-walk data movement, measured both ways in one run:
/// a column-at-a-time walk against the `KRON_PANEL`-wide
/// `gather_panel`/`scatter_panel` pair the engine uses; then the `Range`
/// panel kernel that replaced the walk for interval factors.
fn bench_kron_panel(c: &mut Criterion) {
    use ektelo_matrix::kernels;
    let mut group = c.benchmark_group("kron_fiber_walk");
    group.sample_size(40);
    let rows = 256usize;
    let stride = 256usize;
    let t: Vec<f64> = (0..rows * stride).map(|i| (i % 17) as f64).collect();
    let mut panel = vec![0.0; kernels::KRON_PANEL * rows];
    let mut outm = vec![0.0; rows * stride];
    group.bench_function(BenchmarkId::new("kron_panel/column_walk", rows), |bch| {
        bch.iter(|| {
            for q in 0..stride {
                let j = q % kernels::KRON_PANEL;
                for i in 0..rows {
                    panel[j * rows + i] = t[i * stride + q];
                }
                for i in 0..rows {
                    outm[i * stride + q] = panel[j * rows + i];
                }
            }
            black_box(outm[0])
        })
    });
    group.bench_function(BenchmarkId::new("kron_panel/gather_panel", rows), |bch| {
        bch.iter(|| {
            let mut q = 0;
            while q + kernels::KRON_PANEL <= stride {
                kernels::gather_panel(&t, stride, q, rows, &mut panel);
                kernels::scatter_panel(&panel, rows, &mut outm, stride, q);
                q += kernels::KRON_PANEL;
            }
            black_box(outm[0])
        })
    });
    // HB-Striped's lowered measurement `HB(357) ⊗ I₂₈₀` on the 99,960-cell
    // census domain, both directions into a warm workspace: the `Range`
    // panel takes prefix sums down the 357 rows in 64-column tiles.
    let kron = Matrix::kron(hb(357), Matrix::identity(280));
    let x: Vec<f64> = (0..kron.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
    let y: Vec<f64> = (0..kron.rows()).map(|i| (i % 5) as f64 - 2.0).collect();
    let mut ws = Workspace::for_matrix(&kron);
    let mut out = vec![0.0; kron.rows()];
    let mut back = vec![0.0; kron.cols()];
    group.bench_function(BenchmarkId::new("kron_panel/range", kron.cols()), |bch| {
        bch.iter(|| {
            kron.matvec_into(black_box(&x), &mut out, &mut ws);
            kron.rmatvec_into(black_box(&y), &mut back, &mut ws);
            black_box(out[0] + back[0])
        })
    });
    group.finish();
}

/// The stripe transforms of HB-Striped (paper §9.2, Algorithm 5) on the
/// 357×5×7×4×2 census domain: build the 280-group stripe partition along
/// the first attribute, then split the data vector by it (children,
/// selectors and lineage). Every sample adds 281 nodes to one kernel.
fn bench_stripe_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("stripe_transforms");
    group.sample_size(20);
    let sizes = [357usize, 5, 7, 4, 2];
    let n: usize = sizes.iter().product();
    let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let kernel = ProtectedKernel::init_from_vector(x, 1.0, 1);
    group.bench_function(BenchmarkId::new("stripe_split", n), |b| {
        b.iter(|| {
            let p = stripe_partition(&sizes, 0);
            black_box(kernel.split_by_partition(kernel.root(), &p).unwrap())
        })
    });
    group.finish();
}

// `bench_workspace_reuse` must run first: the seed engine's dominant cost
// is mmap/munmap churn on its large per-node temporaries (glibc unmaps
// >128 KiB frees while the dynamic mmap threshold is cold — exactly the
// state a fresh solver process is in). Benches that run earlier warm the
// threshold and mask that cost.
criterion_group!(
    benches,
    bench_workspace_reuse,
    bench_parallel_rmatvec,
    bench_plan_cache,
    bench_core_matrices,
    bench_kron,
    bench_sensitivity,
    bench_scaled_error,
    bench_kron_panel,
    bench_stripe_split
);
criterion_main!(benches);
