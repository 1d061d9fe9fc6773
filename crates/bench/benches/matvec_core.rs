//! Criterion micro-benchmarks validating the complexity claims of paper
//! Tables 2 and 3: matrix–vector products of the core implicit matrices
//! against their sparse and dense materializations, and of composed
//! (Kronecker) matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ektelo_matrix::{pool, Matrix, Repr, Workspace};
use std::hint::black_box;

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
            for b in blocks {
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
        lineage = Matrix::Product(Box::new(next), Box::new(lineage));
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

/// Transpose/scatter-direction benches for the threaded engine: a striped
/// union (per-worker accumulators with deterministic merge) and a large
/// Kronecker (row- then column-chunked stages). Under
/// `EKTELO_POOL_WORKERS=1` these measure the serial planned engine; the
/// `serial_blocks` reference is computed per block (below the work
/// threshold) so it stays single-threaded at every pool size.
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
    // Serial reference: scatter block by block through the same planned
    // engine (each block is below the parallel threshold).
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

/// ISSUE 3 headline benches: the process-wide plan cache on MWEM-shaped
/// loops. `mwem_round_loop` rebuilds a growing stacked union every round
/// (each round's spine is a brand-new shape sharing all-but-one block
/// with the previous round) and runs a few solver-ish product iterations;
/// `round_robin_9_shapes` rotates one more strategy shape than the old
/// per-workspace cap-8 LRU could hold — the eviction pathology that used
/// to rebuild plans on every single call. Each gets a `replan_baseline`
/// twin that clears the plan cache where the PR 2 engine would have
/// missed, pricing exactly what the global cache removes.
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
            let mut back = vec![0.0; system.cols()];
            for _ in 0..2 {
                system.matvec_into(&x, &mut out, &mut ws);
                system.rmatvec_into(&out, &mut back, &mut ws);
            }
            acc += back[0];
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

/// Arena-pool benches: warm threaded evaluation drawing worker
/// scratch/accumulators/panels from the workspace pool (under
/// `EKTELO_POOL_WORKERS=1` they measure the serial planned engine — still
/// pool-free by construction). Tracked against the `parallel_rmatvec`
/// entries, whose workers once allocated per call.
fn bench_arena_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_pool");
    group.sample_size(30);

    let n = 1usize << 16;
    let stripes = 64;
    let width = n / stripes;
    let union = Matrix::vstack(
        (0..stripes)
            .map(|s| {
                let idx: Vec<usize> = (s * width..(s + 1) * width).collect();
                Matrix::product(Matrix::wavelet(width), Matrix::select_rows(n, &idx))
            })
            .collect(),
    );
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
    let y: Vec<f64> = (0..union.rows()).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut ws = Workspace::for_matrix(&union);
    let mut out = vec![0.0; union.rows()];
    let mut back = vec![0.0; union.cols()];
    group.bench_function(BenchmarkId::new("union_striped_fwd/pooled", n), |b| {
        b.iter(|| {
            union.matvec_into(&x, &mut out, &mut ws);
            black_box(out[0])
        })
    });
    group.bench_function(BenchmarkId::new("union_striped_scatter/pooled", n), |b| {
        b.iter(|| {
            union.rmatvec_into(&y, &mut back, &mut ws);
            black_box(back[0])
        })
    });

    let kron = Matrix::kron(Matrix::prefix(256), Matrix::wavelet(256));
    let ky: Vec<f64> = (0..kron.rows()).map(|i| (i % 11) as f64 - 5.0).collect();
    let mut kws = Workspace::for_matrix(&kron);
    let mut kback = vec![0.0; kron.cols()];
    group.bench_function(
        BenchmarkId::new("kron_256x256_scatter/pooled", kron.cols()),
        |b| {
            b.iter(|| {
                kron.rmatvec_into(&ky, &mut kback, &mut kws);
                black_box(kback[0])
            })
        },
    );
    group.finish();
}

/// ISSUE 5 headline benches: the persistent pool executor vs per-region
/// `std::thread::scope` on **identical chunked work**. Both arms run the
/// same fixed chunk partition with the same pre-built per-chunk
/// workspaces; the only difference is the dispatch harness — fresh OS
/// threads per region (what every threaded path paid before this PR)
/// versus parked pool workers with preallocated job slots (what they pay
/// now). `small_union` (n = 4096) is the regime the spawn tax dominated;
/// `large_union` (n = 65536) pins that pooling costs nothing when
/// compute dominates. `dispatch_only` isolates the raw per-region
/// harness cost on near-empty jobs.
fn bench_pool_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_executor");
    group.sample_size(30);
    const NCHUNKS: usize = 4;

    // Raw dispatch cost: NCHUNKS jobs of ~256 flops each.
    let data: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
    let mut sums = [0.0f64; NCHUNKS];
    group.bench_function("dispatch_only/scoped_spawn", |b| {
        b.iter(|| {
            // xlint: allow(determinism-thread, reason = "intentional baseline arm: measures OS thread spawn/join cost against the pool executor; never computes engine results")
            std::thread::scope(|s| {
                for slot in sums.iter_mut() {
                    let d = &data;
                    s.spawn(move || *slot = d.iter().sum());
                }
            });
            black_box(sums[0])
        })
    });
    group.bench_function("dispatch_only/pooled", |b| {
        b.iter(|| {
            ektelo_matrix::pool::scope(|s| {
                for slot in sums.iter_mut() {
                    let d = &data;
                    s.spawn(move || *slot = d.iter().sum());
                }
            });
            black_box(sums[0])
        })
    });

    for (label, n, blocks) in [
        // 8 wavelet blocks over a small domain: per-call compute is tens
        // of µs, so ~40µs of thread spawn/join is the dominant cost.
        ("small_union", 1usize << 12, {
            let n = 1usize << 12;
            (0..8).map(|_| Matrix::wavelet(n)).collect::<Vec<_>>()
        }),
        // The arena_pool striped shape at n = 2^16: compute-bound.
        ("large_union", 1usize << 16, {
            let n = 1usize << 16;
            let stripes = 64;
            let width = n / stripes;
            (0..stripes)
                .map(|s| {
                    let idx: Vec<usize> = (s * width..(s + 1) * width).collect();
                    Matrix::product(Matrix::wavelet(width), Matrix::select_rows(n, &idx))
                })
                .collect::<Vec<_>>()
        }),
    ] {
        let rows_per_block = blocks[0].rows();
        let bpc = blocks.len().div_ceil(NCHUNKS);
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        let mut out = vec![0.0; blocks.len() * rows_per_block];
        let mut chunk_ws: Vec<Workspace> = (0..NCHUNKS)
            .map(|_| Workspace::for_matrix(&blocks[0]))
            .collect();
        // Warm plans and arenas in every chunk workspace.
        for (bchunk, ws) in blocks.chunks(bpc).zip(chunk_ws.iter_mut()) {
            let mut tmp = vec![0.0; rows_per_block];
            for blk in bchunk {
                blk.matvec_into(&x, &mut tmp, ws);
            }
        }
        group.bench_function(BenchmarkId::new(format!("{label}/scoped_spawn"), n), |b| {
            b.iter(|| {
                // xlint: allow(determinism-thread, reason = "intentional baseline arm: same chunk geometry as the pool path, timed on fresh OS threads for comparison; results are discarded")
                std::thread::scope(|s| {
                    for ((bchunk, ochunk), ws) in blocks
                        .chunks(bpc)
                        .zip(out.chunks_mut(bpc * rows_per_block))
                        .zip(chunk_ws.iter_mut())
                    {
                        let x = &x;
                        s.spawn(move || {
                            for (blk, ospan) in bchunk.iter().zip(ochunk.chunks_mut(rows_per_block))
                            {
                                blk.matvec_into(x, ospan, ws);
                            }
                        });
                    }
                });
                black_box(out[0])
            })
        });
        group.bench_function(BenchmarkId::new(format!("{label}/pooled"), n), |b| {
            b.iter(|| {
                ektelo_matrix::pool::scope(|s| {
                    for ((bchunk, ochunk), ws) in blocks
                        .chunks(bpc)
                        .zip(out.chunks_mut(bpc * rows_per_block))
                        .zip(chunk_ws.iter_mut())
                    {
                        let x = &x;
                        s.spawn(move || {
                            for (blk, ospan) in bchunk.iter().zip(ochunk.chunks_mut(rows_per_block))
                            {
                                blk.matvec_into(x, ospan, ws);
                            }
                        });
                    }
                });
                black_box(out[0])
            })
        });
    }
    group.finish();
}

/// ISSUE 6 kernel micro-benches: scalar-vs-simd pairs measured in the same
/// run (same-run reference entries, following the `pr1_workspace_engine`
/// precedent). Both kernel modules are always compiled, so the pairs are
/// honest in every build — the `simd` feature only selects which leg the
/// engine paths call.
fn bench_simd_kernels(c: &mut Criterion) {
    use ektelo_matrix::kernels;
    let mut group = c.benchmark_group("simd_kernels");
    group.sample_size(40);
    let n = 1usize << 16;
    let a: Vec<f64> = (0..n)
        .map(|i| ((i * 37) % 19) as f64 * 0.31 - 2.7)
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 53) % 23) as f64 * 0.17 - 1.9)
        .collect();

    // dot: the scalar sum is a sequential dependency chain the optimizer
    // must not reassociate, so this pair shows the full lane-width win.
    group.bench_function(BenchmarkId::new("dot_scalar", n), |bch| {
        bch.iter(|| black_box(kernels::scalar::dot(black_box(&a), black_box(&b))))
    });
    group.bench_function(BenchmarkId::new("dot_simd", n), |bch| {
        bch.iter(|| black_box(kernels::simd::dot(black_box(&a), black_box(&b))))
    });

    let mut y = vec![0.0; n];
    group.bench_function(BenchmarkId::new("axpy_scalar", n), |bch| {
        bch.iter(|| {
            kernels::scalar::axpy(&mut y, 1.0009, black_box(&a));
            black_box(y[0])
        })
    });
    y.fill(0.0);
    group.bench_function(BenchmarkId::new("axpy_simd", n), |bch| {
        bch.iter(|| {
            kernels::simd::axpy(&mut y, 1.0009, black_box(&a));
            black_box(y[0])
        })
    });

    // scatter_add = the Union transpose merge (`add_assign`).
    y.fill(0.0);
    group.bench_function(BenchmarkId::new("scatter_add_scalar", n), |bch| {
        bch.iter(|| {
            kernels::scalar::add_assign(&mut y, black_box(&b));
            black_box(y[0])
        })
    });
    y.fill(0.0);
    group.bench_function(BenchmarkId::new("scatter_add_simd", n), |bch| {
        bch.iter(|| {
            kernels::simd::add_assign(&mut y, black_box(&b));
            black_box(y[0])
        })
    });

    // Kron stage-2 data movement: KRON_PANEL-wide gather/scatter panels
    // vs the column-at-a-time walk the scalar leg performs.
    let rows = 256usize;
    let stride = 256usize;
    let t: Vec<f64> = (0..rows * stride).map(|i| (i % 17) as f64).collect();
    let mut panel = vec![0.0; kernels::KRON_PANEL * rows];
    let mut outm = vec![0.0; rows * stride];
    group.bench_function(BenchmarkId::new("kron_panel_scalar", rows), |bch| {
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
    group.bench_function(BenchmarkId::new("kron_panel_simd", rows), |bch| {
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
    group.finish();
}

/// ISSUE 10 service-concurrency bench: N independent sessions, each
/// executing a mixed plan sequence (HB-Striped, DAWA-Striped, MWEM) on
/// its own equally-sized kernel, all contending for the one shared
/// process pool. Measured before the scheduler was built (the ISSUE's
/// "measure first" gate) and kept as the standing baseline arm:
///
/// * `linear_scan` — what a naive service does today: one OS thread per
///   session, every session's parallel regions hammering the pool's
///   linear slot scan with inline fallback. At N sessions this pays N
///   thread spawns per batch plus scheduler thrash, and a long session
///   can monopolize the workers it wins.
/// * `bucketed` — sessions become typed work packets on the two-tier
///   scheduler (`pool::bucket`): per-worker deques absorb the burst,
///   idle workers steal, and round-robin release keeps sessions fair.
///   No OS threads are created per batch.
///
/// The acceptance bar: `bucketed` no worse at N=1, measurably faster at
/// N ≥ 16.
fn bench_many_sessions_contention(c: &mut Criterion) {
    use ektelo_plans::mwem::{plan_mwem, MwemOptions};
    use ektelo_plans::striped::{plan_dawa_striped, plan_hb_striped};
    use ektelo_plans::util::kernel_for_histogram;

    let mut group = c.benchmark_group("many_sessions_contention");
    group.sample_size(10);

    let sizes = [32usize, 3, 2];
    let n: usize = sizes.iter().product();
    let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 + 1.0).collect();
    let eps = 0.8;
    let workload = Matrix::prefix(n);
    let opts = MwemOptions {
        rounds: 2,
        total: x.iter().sum(),
        mw_iterations: 8,
    };

    // One session's plan mix. Fresh kernels per run (seeded per session)
    // so sessions are independent; the checksum keeps the work honest.
    let run_session = |session: u64| -> f64 {
        let (k, root) = kernel_for_histogram(&x, eps, 100 + session);
        let mut acc: f64 = plan_hb_striped(&k, root, &sizes, 0, eps)
            .unwrap()
            .x_hat
            .iter()
            .sum();
        let (k, root) = kernel_for_histogram(&x, eps, 200 + session);
        acc += plan_dawa_striped(&k, root, &sizes, 0, &[(0, 16)], eps, 0.25)
            .unwrap()
            .x_hat
            .iter()
            .sum::<f64>();
        let (k, root) = kernel_for_histogram(&x, eps, 300 + session);
        acc += plan_mwem(&k, root, &workload, eps, &opts)
            .unwrap()
            .x_hat
            .iter()
            .sum::<f64>();
        acc
    };

    for &nsessions in &[1usize, 4, 16, 64] {
        let mut acc = vec![0.0f64; nsessions];
        group.bench_function(BenchmarkId::new("linear_scan", nsessions), |b| {
            b.iter(|| {
                // xlint: allow(determinism-thread, reason = "intentional baseline arm: one OS thread per session is what a service without the bucketed scheduler pays; results are checksummed and discarded")
                std::thread::scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        let run_session = &run_session;
                        s.spawn(move || *slot = run_session(i as u64));
                    }
                });
                black_box(acc[0])
            })
        });

        // The bucketed arm: each session's HB and DAWA plans are Measure
        // packets (independent kernels, free to run concurrently), its
        // MWEM plan an Infer packet the open condition holds back until
        // the session's measurements finish. No OS threads per batch —
        // packets ride the persistent pool's per-worker deques, and the
        // round-robin release keeps N sessions fair.
        let mut out = vec![0.0f64; nsessions * 3];
        group.bench_function(BenchmarkId::new("bucketed", nsessions), |b| {
            b.iter(|| {
                let mut set = pool::bucket::SessionSet::new();
                {
                    let mut slots = out.iter_mut();
                    let (x, sizes, workload, opts) = (&x, &sizes, &workload, &opts);
                    for i in 0..nsessions {
                        let session = i as u64;
                        let sid = set.session();
                        let hb = slots.next().unwrap();
                        set.submit(sid, pool::bucket::Stage::Measure, move || {
                            let (k, root) = kernel_for_histogram(x, eps, 100 + session);
                            *hb = plan_hb_striped(&k, root, sizes, 0, eps)
                                .unwrap()
                                .x_hat
                                .iter()
                                .sum();
                        });
                        let dawa = slots.next().unwrap();
                        set.submit(sid, pool::bucket::Stage::Measure, move || {
                            let (k, root) = kernel_for_histogram(x, eps, 200 + session);
                            *dawa = plan_dawa_striped(&k, root, sizes, 0, &[(0, 16)], eps, 0.25)
                                .unwrap()
                                .x_hat
                                .iter()
                                .sum();
                        });
                        let mwem = slots.next().unwrap();
                        set.submit(sid, pool::bucket::Stage::Infer, move || {
                            let (k, root) = kernel_for_histogram(x, eps, 300 + session);
                            *mwem = plan_mwem(&k, root, workload, eps, opts)
                                .unwrap()
                                .x_hat
                                .iter()
                                .sum();
                        });
                    }
                }
                set.run();
                black_box(out[0])
            })
        });
    }
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
    bench_arena_pool,
    bench_pool_executor,
    bench_many_sessions_contention,
    bench_core_matrices,
    bench_kron,
    bench_sensitivity,
    bench_simd_kernels
);
criterion_main!(benches);
