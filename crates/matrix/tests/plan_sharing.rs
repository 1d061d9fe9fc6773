//! Process-wide plan-cache regression suite (ISSUE 3 tentpole + the
//! plan-LRU-pathology satellite).
//!
//! This file runs as its own process, so — unlike the in-crate unit tests,
//! which execute concurrently with every other unit test — the global
//! counters (`plan_builds`, `plan_cache_stats`) can be asserted *exactly*
//! here. A mutex still serializes the `#[test]` fns in this file against
//! each other.

use ektelo_matrix::{plan_builds, plan_cache_stats, CsrMatrix, Matrix, Workspace};

static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A 1×n measurement row like the ones MWEM's `sparse_row` records: the
/// payload differs per round, the *shape* (and therefore the plan) does
/// not.
fn measurement_row(n: usize, support: std::ops::Range<usize>) -> Matrix {
    let triplets: Vec<(usize, usize, f64)> = support.map(|j| (0, j, 1.0)).collect();
    Matrix::sparse(CsrMatrix::from_triplets(1, n, &triplets))
}

/// The acceptance criterion of ISSUE 3: an MWEM-style round loop stacks a
/// growing `Union` of measurement rows — a *new spine shape every round* —
/// yet after round 1 the planning-pass counter stays exactly flat, because
/// every block plan is shared from the previous rounds and spine
/// reassembly is not a tree walk.
#[test]
fn mwem_round_loop_plan_builds_stay_flat_after_round_one() {
    let _serial = serialized();
    let n = 256;
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
    let mut ws = Workspace::new();
    let mut blocks: Vec<Matrix> = Vec::new();
    let mut builds_after_round_1 = 0;
    for round in 0..10 {
        // Each round selects a different query (different payload/support,
        // same 1×n shape) and re-stacks the whole system, exactly like
        // per-round MWEM inference.
        blocks.push(measurement_row(n, (round * 16)..(round * 16 + 8)));
        let system = Matrix::vstack(blocks.clone());
        let mut out = vec![0.0; system.rows()];
        let mut back = vec![0.0; system.cols()];
        // A couple of solver-ish iterations per round.
        for _ in 0..3 {
            system.matvec_into(&x, &mut out, &mut ws);
            system.rmatvec_into(&out, &mut back, &mut ws);
        }
        if round == 0 {
            builds_after_round_1 = plan_builds();
        }
    }
    assert_eq!(
        plan_builds(),
        builds_after_round_1,
        "rounds 2..10 must reuse every block plan: spine reassembly only"
    );
}

/// The PR-2 eviction pathology (ROADMAP open item): more shapes than the
/// old per-workspace cap-8 LRU, round-robined through one workspace,
/// rebuilt plans on every call. With the process-wide cache this must be
/// all hits: `plan_builds()` stays flat after the first rotation.
#[test]
fn nine_plus_shapes_round_robin_is_all_hits_after_first_rotation() {
    let _serial = serialized();
    let n = 512;
    // 9 structurally distinct strategies (what a plan sweep rotates).
    let shapes: Vec<Matrix> = (1..=9)
        .map(|k| {
            Matrix::vstack(vec![
                Matrix::prefix(n),
                Matrix::range_queries(n, (0..k * 8).map(|i| (i, i + 2)).collect::<Vec<_>>()),
            ])
        })
        .collect();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let mut ws = Workspace::new();
    let mut outs: Vec<Vec<f64>> = shapes.iter().map(|m| vec![0.0; m.rows()]).collect();
    for (m, out) in shapes.iter().zip(&mut outs) {
        m.matvec_into(&x, out, &mut ws);
    }
    let after_first_rotation = plan_builds();
    for _ in 0..5 {
        for (m, out) in shapes.iter().zip(&mut outs) {
            m.matvec_into(&x, out, &mut ws);
        }
    }
    assert_eq!(
        plan_builds(),
        after_first_rotation,
        "round-robined shapes must stay resident in the process-wide cache"
    );
}

/// Cross-workspace and cross-thread sharing observed through the public
/// stats: one miss process-wide, everything else hits (the `Arc::ptr_eq`
/// variant lives in the crate's unit tests, where `EvalPlan` is visible).
#[test]
fn cross_workspace_and_cross_thread_lookups_build_once() {
    let _serial = serialized();
    let m = Matrix::vstack(vec![
        Matrix::product(Matrix::prefix(640), Matrix::wavelet(640)),
        Matrix::identity(640),
    ]);
    let before = plan_cache_stats();
    let x: Vec<f64> = (0..m.cols()).map(|i| i as f64 * 0.5).collect();
    let expect = m.matvec(&x); // first sighting: builds the plans
    let built = plan_cache_stats().misses - before.misses;
    // Root spine + two distinct blocks (product chain caches its factors
    // too) — what matters is that the *next* evaluations add zero.
    assert!(built >= 3);
    let after_first = plan_cache_stats();
    let mut threads = vec![None; 4];
    // xlint: allow(determinism-thread, reason = "test: plan sharing must hold across real OS threads, so each lookup runs on its own")
    std::thread::scope(|s| {
        for id in threads.iter_mut() {
            let m = m.clone();
            let x = &x;
            let expect = &expect;
            s.spawn(move || {
                *id = Some(std::thread::current().id());
                let mut ws = Workspace::new();
                let mut out = vec![0.0; m.rows()];
                m.matvec_into(x, &mut out, &mut ws);
                assert_eq!(&out, expect);
                assert_eq!(ws.plan_cache_builds(), 0, "thread must share the plan");
            });
        }
    });
    let ids: Vec<_> = threads.into_iter().flatten().collect();
    assert!(
        ids.len() == 4 && ids.iter().any(|&id| id != ids[0]),
        "the lookups must run on several OS threads"
    );
    let mut ws2 = Workspace::new();
    let mut out = vec![0.0; m.rows()];
    m.matvec_into(&x, &mut out, &mut ws2);
    assert_eq!(ws2.plan_cache_builds(), 0);
    assert_eq!(
        plan_cache_stats().misses,
        after_first.misses,
        "four threads and a fresh workspace must add zero plan builds"
    );
}
