//! Property tests for the in-place evaluation engine: on randomly
//! generated combinator trees, `matvec_into` / `rmatvec_into` with a
//! shared [`Workspace`] must produce **bit-identical** results to the
//! allocating `matvec` / `rmatvec` wrappers (they are required to be thin
//! wrappers, so even the floating-point operation order must agree), and
//! `rmatvec_add` must accumulate exactly `rmatvec`'s output.

use ektelo_matrix::{Matrix, Workspace};
use proptest::prelude::*;

/// Random combinator trees over a fixed column count so compositions
/// typecheck: implicit leaves, ranges, diagonals, then unions / products /
/// scalings / transposes stacked `depth` levels deep.
fn arb_tree(cols: usize, depth: u32) -> BoxedStrategy<Matrix> {
    let leaf = prop_oneof![
        Just(Matrix::identity(cols)),
        Just(Matrix::prefix(cols)),
        Just(Matrix::suffix(cols)),
        Just(Matrix::wavelet(cols)),
        (1usize..=3).prop_map(move |m| Matrix::ones(m, cols)),
        prop::collection::vec((0usize..cols, 1usize..=cols), 1..6).prop_map(move |pairs| {
            let ranges: Vec<(usize, usize)> = pairs
                .into_iter()
                .map(|(lo, len)| (lo.min(cols - 1), (lo + len).clamp(lo + 1, cols).min(cols)))
                .filter(|&(lo, hi)| lo < hi)
                .collect();
            if ranges.is_empty() {
                Matrix::total(cols)
            } else {
                Matrix::range_queries(cols, ranges)
            }
        }),
        prop::collection::vec(-2.0f64..2.0, cols).prop_map(Matrix::diagonal),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arb_tree(cols, depth - 1);
    prop_oneof![
        leaf,
        prop::collection::vec(arb_tree(cols, depth - 1), 1..4).prop_map(Matrix::vstack),
        (inner.clone(), -2.0f64..2.0).prop_map(|(m, c)| Matrix::scaled(c, m)),
        // Square sub-expressions can be composed and transposed without
        // breaking the column invariant.
        (inner.clone(), inner.clone()).prop_map(|(a, b)| {
            if a.cols() == a.rows() && b.rows() == b.cols() {
                Matrix::product(a, b)
            } else {
                a
            }
        }),
        inner.prop_map(|m| if m.rows() == m.cols() {
            m.transpose()
        } else {
            m
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// matvec_into bit-matches the allocating matvec on random trees.
    #[test]
    fn matvec_into_bit_matches(
        m in arb_tree(7, 3),
        x in prop::collection::vec(-4.0f64..4.0, 7),
    ) {
        let expect = m.matvec(&x);
        let mut ws = Workspace::for_matrix(&m);
        let mut got = vec![0.0; m.rows()];
        m.matvec_into(&x, &mut got, &mut ws);
        prop_assert_eq!(&got, &expect, "matvec_into diverged on {:?}", m);
        // A second evaluation through the same (now warm) workspace must
        // not be affected by scratch contents left behind by the first.
        m.matvec_into(&x, &mut got, &mut ws);
        prop_assert_eq!(&got, &expect, "warm-workspace re-evaluation diverged");
    }

    /// rmatvec_into bit-matches the allocating rmatvec on random trees.
    #[test]
    fn rmatvec_into_bit_matches(m in arb_tree(7, 3)) {
        let y: Vec<f64> = (0..m.rows()).map(|i| (i as f64) * 0.37 - 1.0).collect();
        let expect = m.rmatvec(&y);
        let mut ws = Workspace::for_matrix(&m);
        let mut got = vec![0.0; m.cols()];
        m.rmatvec_into(&y, &mut got, &mut ws);
        prop_assert_eq!(&got, &expect, "rmatvec_into diverged on {:?}", m);
        m.rmatvec_into(&y, &mut got, &mut ws);
        prop_assert_eq!(&got, &expect, "warm-workspace re-evaluation diverged");
    }

    /// rmatvec_add accumulates exactly rmatvec's output on top of the
    /// existing contents.
    #[test]
    fn rmatvec_add_accumulates_exactly(m in arb_tree(6, 2)) {
        let y: Vec<f64> = (0..m.rows()).map(|i| (i as f64) - 2.0).collect();
        let direct = m.rmatvec(&y);
        let mut ws = Workspace::new();
        let mut acc = vec![3.0; m.cols()];
        m.rmatvec_add(&y, &mut acc, &mut ws);
        for (a, d) in acc.iter().zip(&direct) {
            prop_assert!((a - (d + 3.0)).abs() < 1e-12, "rmatvec_add mismatch on {:?}", m);
        }
    }

    /// One shared workspace serves different matrices and both directions
    /// without cross-contamination.
    #[test]
    fn workspace_shared_across_matrices(
        a in arb_tree(6, 2),
        b in arb_tree(6, 2),
        x in prop::collection::vec(-3.0f64..3.0, 6),
    ) {
        let mut ws = Workspace::new();
        let mut out_a = vec![0.0; a.rows()];
        let mut out_b = vec![0.0; b.rows()];
        a.matvec_into(&x, &mut out_a, &mut ws);
        b.matvec_into(&x, &mut out_b, &mut ws);
        prop_assert_eq!(&out_a, &a.matvec(&x));
        prop_assert_eq!(&out_b, &b.matvec(&x));
        // Interleave directions.
        let ya: Vec<f64> = (0..a.rows()).map(|i| i as f64 * 0.5).collect();
        let mut back = vec![0.0; a.cols()];
        a.rmatvec_into(&ya, &mut back, &mut ws);
        prop_assert_eq!(&back, &a.rmatvec(&ya));
    }

    /// Kronecker products (which reshape through the workspace most
    /// aggressively) bit-match on random dense factors.
    #[test]
    fn kron_into_bit_matches(
        av in prop::collection::vec(-2.0f64..2.0, 6),
        bv in prop::collection::vec(-2.0f64..2.0, 6),
    ) {
        let a = Matrix::from_rows(av.chunks(3).map(<[f64]>::to_vec).collect());
        let b = Matrix::from_rows(bv.chunks(2).map(<[f64]>::to_vec).collect());
        let k = Matrix::kron(a, b);
        let x: Vec<f64> = (0..k.cols()).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let expect = k.matvec(&x);
        let mut ws = Workspace::for_matrix(&k);
        let mut got = vec![0.0; k.rows()];
        k.matvec_into(&x, &mut got, &mut ws);
        prop_assert_eq!(&got, &expect);

        let y: Vec<f64> = (0..k.rows()).map(|i| (i as f64) * 0.7).collect();
        let expect_t = k.rmatvec(&y);
        let mut got_t = vec![0.0; k.cols()];
        k.rmatvec_into(&y, &mut got_t, &mut ws);
        prop_assert_eq!(&got_t, &expect_t);
    }
}

// ---------------------------------------------------------------------
// N-ary Kronecker evaluation
// ---------------------------------------------------------------------

/// A deterministic value stream for building factors from a seed (the
/// proptest stand-in has no dependent strategies).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// Mostly small signed values, with exact zeros of both signs so the
    /// zero-skipping scatter kernels are exercised.
    fn value(&mut self) -> f64 {
        match self.next() % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => (self.next() % 2001) as f64 / 250.0 - 4.0,
        }
    }

    fn values(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.value()).collect()
    }
}

fn dense_factor(rng: &mut Lcg, rows: usize, cols: usize) -> Matrix {
    Matrix::from_rows((0..rows).map(|_| rng.values(cols)).collect())
}

/// Builds factor `kind` over `n` columns: every panel-kernel leaf kind
/// (and unions/scalings of them) plus the fiber-walk fallbacks
/// (`Wavelet`, `Range`, `Product`, `Transpose`, a union with a wavelet
/// block).
fn kron_factor(kind: usize, n: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = Lcg(seed);
    let tot_id = || Matrix::vstack(vec![Matrix::total(n), Matrix::identity(n)]);
    match kind {
        0 => Matrix::identity(n),
        1 => Matrix::ones(m, n),
        2 => Matrix::total(n),
        3 => Matrix::prefix(n),
        4 => Matrix::suffix(n),
        5 => Matrix::diagonal(rng.values(n)),
        6 => dense_factor(&mut rng, m, n),
        7 => Matrix::sparse(dense_factor(&mut rng, m + 1, n).to_sparse()),
        8 => Matrix::scaled(rng.value() + 0.5, Matrix::prefix(n)),
        9 => tot_id(),
        10 => Matrix::vstack(vec![
            Matrix::scaled(-1.5, Matrix::identity(n)),
            Matrix::ones(m, n),
            Matrix::prefix(n),
            Matrix::suffix(n),
            Matrix::diagonal(rng.values(n)),
            dense_factor(&mut rng, m, n),
            Matrix::scaled(
                0.75,
                Matrix::sparse(dense_factor(&mut rng, m, n).to_sparse()),
            ),
            Matrix::scaled(2.0, dense_factor(&mut rng, 1, n)),
        ]),
        11 => Matrix::scaled(-0.5, tot_id()),
        12 => Matrix::wavelet(n),
        13 => Matrix::range_queries(n, vec![(0, n), (n / 2, n), (0, n.div_ceil(2))]),
        14 => Matrix::product(Matrix::prefix(n), Matrix::wavelet(n)),
        15 => Matrix::Transpose(Box::new(Matrix::wavelet(n))),
        _ => Matrix::vstack(vec![Matrix::wavelet(n), Matrix::total(n)]),
    }
}

const KRON_KINDS: usize = 17;

/// Nests `fs` into a Kronecker tree: `split` picks each split point
/// (`None`: right-nested, like `Matrix::kron_list`).
fn nest(fs: &[Matrix], split: &mut dyn FnMut(usize) -> usize) -> Matrix {
    if fs.len() == 1 {
        return fs[0].clone();
    }
    let at = split(fs.len());
    Matrix::kron(nest(&fs[..at], split), nest(&fs[at..], split))
}

fn nestings(fs: &[Matrix], seed: u64) -> [Matrix; 3] {
    let mut rng = Lcg(seed);
    [
        nest(fs, &mut |_| 1),
        nest(fs, &mut |len| len - 1),
        nest(fs, &mut |len| 1 + (rng.next() as usize) % (len - 1)),
    ]
}

/// The binary vec-trick recursion (`kron_matvec` in the crate, the
/// unplanned reference engine), written against the public API: non-
/// Kronecker factors go through their own `matvec`, which runs the same
/// leaf kernels, so this reproduces the reference arithmetic exactly.
fn reference_matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    let Matrix::Kronecker(a, b) = m else {
        return m.matvec(x);
    };
    let (ma, na) = a.shape();
    let (mb, nb) = b.shape();
    let t: Vec<f64> = (0..na)
        .flat_map(|i| reference_matvec(b, &x[i * nb..(i + 1) * nb]))
        .collect();
    let mut out = vec![0.0; ma * mb];
    for q in 0..mb {
        let col: Vec<f64> = (0..na).map(|i| t[i * mb + q]).collect();
        for (p, v) in reference_matvec(a, &col).into_iter().enumerate() {
            out[p * mb + q] = v;
        }
    }
    out
}

/// Transpose-direction mirror of [`reference_matvec`] (`kron_rmatvec`).
fn reference_rmatvec(m: &Matrix, y: &[f64]) -> Vec<f64> {
    let Matrix::Kronecker(a, b) = m else {
        return m.rmatvec(y);
    };
    let (ma, na) = a.shape();
    let (mb, nb) = b.shape();
    let t: Vec<f64> = (0..ma)
        .flat_map(|p| reference_rmatvec(b, &y[p * mb..(p + 1) * mb]))
        .collect();
    let mut out = vec![0.0; na * nb];
    for j in 0..nb {
        let col: Vec<f64> = (0..ma).map(|p| t[p * nb + j]).collect();
        for (i, v) in reference_rmatvec(a, &col).into_iter().enumerate() {
            out[i * nb + j] = v;
        }
    }
    out
}

/// The dense Kronecker product of the factors' materializations.
fn dense_kron(fs: &[Matrix]) -> Vec<Vec<f64>> {
    let mut acc = vec![vec![1.0]];
    for f in fs {
        let d = f.to_dense();
        let mut next = vec![vec![0.0; acc[0].len() * d.cols()]; acc.len() * d.rows()];
        for (i, arow) in acc.iter().enumerate() {
            for p in 0..d.rows() {
                let frow = d.row_slice(p);
                let nrow = &mut next[i * d.rows() + p];
                for (j, &av) in arow.iter().enumerate() {
                    for (q, &fv) in frow.iter().enumerate() {
                        nrow[j * d.cols() + q] = av * fv;
                    }
                }
            }
        }
        acc = next;
    }
    acc
}

/// `got` agrees with the dense product `rows · v` to 1e-12 relative to
/// each entry's absolute-value scale.
fn assert_dense(got: &[f64], rows: &[Vec<f64>], v: &[f64], what: &str) {
    for (i, row) in rows.iter().enumerate() {
        let exact: f64 = row.iter().zip(v).map(|(a, b)| a * b).sum();
        let scale: f64 = row.iter().zip(v).map(|(a, b)| (a * b).abs()).sum();
        assert!(
            (got[i] - exact).abs() <= 1e-12 * scale + 1e-300,
            "{what}: entry {i} is {} vs dense {exact}",
            got[i]
        );
    }
}

/// Bit-equality with the reference engine: the panel kernels run each
/// vector kernel's operation sequence, so no entry may differ by rounding.
fn assert_reference(got: &[f64], want: &[f64], what: &str) {
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {i}: {g} vs {w}");
    }
}

fn transpose(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    (0..rows[0].len())
        .map(|j| rows.iter().map(|r| r[j]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random Kroneckers of 2–5 factors over every panel leaf kind and
    /// every fallback kind, nested right, left and mixed: all three
    /// directions agree with dense materialization, with the reference
    /// engine, and bit for bit across nestings.
    #[test]
    fn nary_kron_matches_dense_reference_and_every_nesting(
        specs in prop::collection::vec((0usize..KRON_KINDS, 1usize..=3, 1usize..=3, 0u64..u64::MAX), 2..=5),
        seed in 0u64..u64::MAX,
    ) {
        let mut fs: Vec<Matrix> = specs
            .iter()
            .map(|&(kind, n, m, s)| kron_factor(kind, n, m, s))
            .collect();
        // Keep the dense oracle small: drop trailing factors past ~10^5
        // dense entries (at least two factors always remain).
        while fs.len() > 2 && fs.iter().map(|f| f.rows() * f.cols()).product::<usize>() > 100_000 {
            fs.pop();
        }
        let dense = dense_kron(&fs);
        let dense_t = transpose(&dense);
        let mut rng = Lcg(seed);
        let trees = nestings(&fs, seed);
        let (rows, cols) = trees[0].shape();
        // Some inputs are all negative zeros: a sum's sign of zero then
        // depends on the accumulator's initial value.
        let zeros = seed % 4 == 0;
        let x = if zeros { vec![-0.0; cols] } else { rng.values(cols) };
        let y = if zeros { vec![-0.0; rows] } else { rng.values(rows) };
        let acc0 = rng.values(cols);
        let want_mv = reference_matvec(&trees[0], &x);
        let want_rmv = reference_rmatvec(&trees[0], &y);
        let mut results: Vec<[Vec<f64>; 3]> = Vec::new();
        for k in &trees {
            let mut ws = Workspace::for_matrix(k);
            let mut mv = vec![0.0; rows];
            k.matvec_into(&x, &mut mv, &mut ws);
            let mut rmv = vec![0.0; cols];
            k.rmatvec_into(&y, &mut rmv, &mut ws);
            let mut rmva = acc0.clone();
            k.rmatvec_add(&y, &mut rmva, &mut ws);

            assert_dense(&mv, &dense, &x, "matvec_into");
            assert_dense(&rmv, &dense_t, &y, "rmatvec_into");
            assert_reference(&mv, &want_mv, "matvec_into vs reference");
            assert_reference(&rmv, &want_rmv, "rmatvec_into vs reference");
            // rmatvec_add accumulates the reference's dense temporary.
            let want_add: Vec<f64> = acc0.iter().zip(&want_rmv).map(|(a, r)| a + r).collect();
            assert_reference(&rmva, &want_add, "rmatvec_add vs reference");
            results.push([mv, rmv, rmva]);
        }
        for r in &results[1..] {
            for (got, want) in r.iter().zip(&results[0]) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got), bits(want), "nestings disagree");
            }
        }
    }
}

/// A Kronecker large enough that every mode clears the parallel
/// threshold: the prefix mode splits by column ranges, the others by
/// blocks, and the wavelet and range modes run the fiber walk in pool
/// chunks. Results must match the reference engine bit for bit at
/// whatever pool size the suite runs under, and stay bit-identical on a
/// warm re-run.
#[test]
fn threaded_nary_kron_matches_reference() {
    let fs = vec![
        Matrix::prefix(40),
        Matrix::wavelet(12),
        Matrix::vstack(vec![Matrix::total(6), Matrix::identity(6)]),
        Matrix::range_queries(9, vec![(0, 9), (2, 5), (4, 9), (1, 2)]),
        Matrix::scaled(
            0.5,
            Matrix::sparse(dense_factor(&mut Lcg(7), 3, 4).to_sparse()),
        ),
    ];
    let k = Matrix::kron_list(fs);
    let mut rng = Lcg(11);
    let x = rng.values(k.cols());
    let y = rng.values(k.rows());
    let mut ws = Workspace::for_matrix(&k);
    let mut mv = vec![0.0; k.rows()];
    let mut rmv = vec![0.0; k.cols()];
    k.matvec_into(&x, &mut mv, &mut ws);
    k.rmatvec_into(&y, &mut rmv, &mut ws);
    assert_reference(&mv, &reference_matvec(&k, &x), "threaded matvec");
    assert_reference(&rmv, &reference_rmatvec(&k, &y), "threaded rmatvec");
    let (mv0, rmv0) = (mv.clone(), rmv.clone());
    k.matvec_into(&x, &mut mv, &mut ws);
    k.rmatvec_into(&y, &mut rmv, &mut ws);
    assert_eq!(mv, mv0, "warm re-run changed the matvec");
    assert_eq!(rmv, rmv0, "warm re-run changed the rmatvec");
}
