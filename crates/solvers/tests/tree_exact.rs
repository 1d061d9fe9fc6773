//! The exact tree pass against dense least squares.
//!
//! `lsqr` solves every column component that is a weighted interval
//! hierarchy, optionally behind a partition, with the two-pass tree
//! solve (`tree_least_squares`) instead of the LSQR loop. These tests pin
//! that the pass returns the minimum-norm least-squares solution on
//! random hierarchies, partitions and striped unions, and that every
//! shape it cannot decide exactly returns `None` and takes LSQR.

use ektelo_matrix::{CsrMatrix, Matrix};
use ektelo_solvers::{direct_least_squares, lsqr, tree_least_squares, LsqrOptions};
use proptest::prelude::*;

/// SplitMix64: a small deterministic generator for the random systems.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A weight in ±[0.25, 2.25).
    fn weight(&mut self) -> f64 {
        let w = 0.25 + 2.0 * self.unit();
        if self.below(5) == 0 {
            -w
        } else {
            w
        }
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn tight() -> LsqrOptions {
    LsqrOptions {
        max_iters: 5000,
        atol: 1e-15,
    }
}

fn rel_err(x: &[f64], reference: &[f64]) -> f64 {
    let diff: f64 = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let norm: f64 = reference.iter().map(|v| v * v).sum();
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

fn random_rhs(rng: &mut Rng, m: usize) -> Vec<f64> {
    (0..m).map(|_| 100.0 * rng.unit() - 20.0).collect()
}

/// The intervals of a random laminar hierarchy over `[0, p)` with their
/// depths: each node splits into 2 to `max_branch` children at random
/// cut points, internal nodes other than the singletons are sometimes
/// left out (so some trees are forests), and all singletons are present.
fn random_intervals(rng: &mut Rng, p: usize, max_branch: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut stack = vec![(0, p, 0)];
    while let Some((lo, hi, depth)) = stack.pop() {
        let len = hi - lo;
        if len == 1 || rng.below(5) != 0 {
            out.push((lo, hi, depth));
        }
        if len == 1 {
            continue;
        }
        let branch = 2 + rng.below(max_branch.min(len) - 1);
        let mut cuts: Vec<usize> = (lo + 1..hi).collect();
        rng.shuffle(&mut cuts);
        cuts.truncate(branch - 1);
        cuts.sort_unstable();
        let mut start = lo;
        for end in cuts.into_iter().chain([hi]) {
            stack.push((start, end, depth + 1));
            start = end;
        }
    }
    out
}

/// A weighted interval strategy over `p` cells from `intervals`: one
/// scaled `Range` block per depth (per-level weights), or one per
/// interval (per-node weights), stacked in a random order.
fn weighted_strategy(rng: &mut Rng, p: usize, intervals: &[(usize, usize, usize)]) -> Matrix {
    let mut blocks: Vec<Matrix> = if rng.below(2) == 0 {
        let depth = intervals.iter().map(|iv| iv.2).max().unwrap_or(0);
        (0..=depth)
            .filter_map(|d| {
                let level: Vec<(usize, usize)> = intervals
                    .iter()
                    .filter(|iv| iv.2 == d)
                    .map(|iv| (iv.0, iv.1))
                    .collect();
                (!level.is_empty())
                    .then(|| Matrix::scaled(rng.weight(), Matrix::range_queries(p, level)))
            })
            .collect()
    } else {
        intervals
            .iter()
            .map(|iv| Matrix::scaled(rng.weight(), Matrix::range_queries(p, vec![(iv.0, iv.1)])))
            .collect()
    };
    rng.shuffle(&mut blocks);
    Matrix::vstack(blocks)
}

/// A random contiguous grouping of `p` groups over `k ≥ p` columns, with
/// the columns between some groups left in no group. Returns the `p × k`
/// matrix and each column's group.
fn random_grouping(rng: &mut Rng, p: usize, k: usize) -> (Matrix, Vec<Option<usize>>) {
    let mut group_of = vec![None; k];
    let spare = k - p;
    // Distribute the spare columns between group growth and gaps.
    let mut extra = vec![0usize; 2 * p];
    for _ in 0..spare {
        extra[rng.below(2 * p)] += 1;
    }
    let mut col = 0;
    let mut triplets = Vec::new();
    for g in 0..p {
        col += extra[2 * g];
        for _ in 0..1 + extra[2 * g + 1] {
            group_of[col] = Some(g);
            triplets.push((g, col, 1.0));
            col += 1;
        }
    }
    debug_assert_eq!(col, k);
    (
        Matrix::sparse(CsrMatrix::from_triplets(p, k, &triplets)),
        group_of,
    )
}

/// `Pᵀ D⁻¹ z`: each group's value spread evenly over its columns.
fn expand(z: &[f64], group_of: &[Option<usize>]) -> Vec<f64> {
    let mut sizes = vec![0usize; z.len()];
    for g in group_of.iter().flatten() {
        sizes[*g] += 1;
    }
    group_of
        .iter()
        .map(|g| g.map_or(0.0, |g| z[g] / sizes[g] as f64))
        .collect()
}

/// One random hierarchy system `c · S` or `c · S · P`, with the
/// minimum-norm reference from dense least squares on the full-rank
/// `c · S`, expanded through `Pᵀ D⁻¹`.
fn random_hierarchy_system(rng: &mut Rng, grouped: bool) -> (Matrix, Vec<f64>, Vec<f64>) {
    let p = 1 + rng.below(24);
    let max_branch = 2 + rng.below(5);
    let intervals = random_intervals(rng, p, max_branch);
    let cs = Matrix::scaled(0.5 + rng.unit(), weighted_strategy(rng, p, &intervals));
    let b = random_rhs(rng, cs.rows());
    let z = direct_least_squares(&cs, &b);
    if !grouped {
        return (cs, b, z);
    }
    let k = p + rng.below(p + 3);
    let (part, group_of) = random_grouping(rng, p, k);
    let Matrix::Scaled(c, s) = cs else {
        unreachable!("scaled above")
    };
    let a = Matrix::scaled(c, Matrix::product(*s, part));
    (a, b, expand(&z, &group_of))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random laminar hierarchies — uneven splits, branching 2..=6,
    /// per-level or per-node weights, some internal nodes missing — with
    /// and without a contiguous partition that leaves columns unmeasured.
    #[test]
    fn tree_pass_is_the_min_norm_least_squares_solution(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        for grouped in [false, true] {
            let (a, b, reference) = random_hierarchy_system(&mut rng, grouped);
            let r = tree_least_squares(&a, &b);
            prop_assert!(r.is_some(), "seed {}: a hierarchy was rejected", seed);
            let r = r.unwrap();
            let err = rel_err(&r.x, &reference);
            prop_assert!(err < 1e-10, "seed {} grouped {}: relative error {:e}", seed, grouped, err);
            prop_assert_eq!(r.iterations, 0);
            // The reported residual is the residual of the returned x.
            let res: f64 = a.matvec(&r.x).iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum();
            prop_assert!((r.residual_norm - res.sqrt()).abs() <= 1e-9 * (1.0 + res.sqrt()));
        }
    }

    /// Interleaved stripes, each a hierarchy (with or without a
    /// partition) or a crossing-interval strategy that must take LSQR:
    /// `lsqr` matches dense least squares on every stripe, and counts
    /// LSQR steps only for the non-hierarchical ones.
    #[test]
    fn striped_unions_mix_exact_and_lsqr_components(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let stripes = 2 + rng.below(5);
        let systems: Vec<(bool, Matrix, Vec<f64>, Vec<f64>)> = (0..stripes)
            .map(|_| {
                if rng.below(3) == 0 {
                    let (a, b, reference) = crossing_system(&mut rng);
                    (false, a, b, reference)
                } else {
                    let grouped = rng.below(2) == 0;
                    let (a, b, reference) = random_hierarchy_system(&mut rng, grouped);
                    (true, a, b, reference)
                }
            })
            .collect();
        let width = systems.iter().map(|s| s.1.cols()).max().unwrap();
        let n = stripes * width;
        let mut blocks = Vec::new();
        let mut rhs = Vec::new();
        for (s, (_, a, b, _)) in systems.iter().enumerate() {
            let cells: Vec<usize> = (0..a.cols()).map(|i| s + i * stripes).collect();
            blocks.push(Matrix::product(a.clone(), Matrix::select_rows(n, &cells)));
            rhs.extend_from_slice(b);
        }
        let union = Matrix::vstack(blocks);
        prop_assert_eq!(union.column_components().map(|c| c.len()), Some(stripes));
        let r = lsqr(&union, &rhs, &tight());
        let any_lsqr = systems.iter().any(|s| !s.0);
        prop_assert_eq!(r.iterations > 0, any_lsqr, "seed {}", seed);
        for (s, (exact, a, _, reference)) in systems.iter().enumerate() {
            let x: Vec<f64> = (0..a.cols()).map(|i| r.x[s + i * stripes]).collect();
            let err = rel_err(&x, reference);
            let bound = if *exact { 1e-10 } else { 1e-7 };
            prop_assert!(err < bound, "seed {} stripe {}: relative error {:e}", seed, s, err);
        }
    }
}

/// A full-rank strategy whose intervals cross: singletons plus `[0, 2)`
/// and `[1, 3)`. Not a hierarchy, so LSQR solves it.
fn crossing_system(rng: &mut Rng) -> (Matrix, Vec<f64>, Vec<f64>) {
    let p = 3 + rng.below(8);
    let mut iv: Vec<(usize, usize)> = (0..p).map(|i| (i, i + 1)).collect();
    iv.extend([(0, 2), (1, 3)]);
    let a = Matrix::scaled(0.5 + rng.unit(), Matrix::range_queries(p, iv));
    let b = random_rhs(rng, a.rows());
    let reference = direct_least_squares(&a, &b);
    (a, b, reference)
}

/// Units plus `extra` over 4 cells.
fn with_units(extra: &[(usize, usize)]) -> Matrix {
    let mut iv: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
    iv.extend_from_slice(extra);
    Matrix::range_queries(4, iv)
}

/// Shapes the pass cannot decide exactly: it returns `None`, and inside
/// a striped union the component runs the LSQR loop.
#[test]
fn rejected_shapes_take_lsqr() {
    let groups = |t: &[(usize, usize, f64)]| Matrix::sparse(CsrMatrix::from_triplets(4, 5, t));
    let partition_ok = [
        (0, 0, 1.0),
        (1, 1, 1.0),
        (2, 2, 1.0),
        (3, 3, 1.0),
        (3, 4, 1.0),
    ];
    let mut not_01 = partition_ok;
    not_01[1].2 = 2.0;
    let mut overlapping = partition_ok;
    overlapping[4] = (2, 3, 1.0);
    let cases: Vec<(&str, Matrix)> = vec![
        ("crossing", with_units(&[(0, 2), (1, 3)])),
        (
            "missing singleton",
            Matrix::range_queries(4, vec![(0, 4), (0, 1), (1, 2), (2, 4)]),
        ),
        ("duplicate", with_units(&[(0, 4), (0, 4)])),
        ("duplicate singleton", with_units(&[(2, 3)])),
        (
            "weight 0",
            Matrix::vstack(vec![
                Matrix::scaled(0.0, Matrix::range_queries(4, vec![(0, 4)])),
                with_units(&[]),
            ]),
        ),
        (
            "partition not 0/1",
            Matrix::product(with_units(&[(0, 4)]), groups(&not_01)),
        ),
        (
            "overlapping groups",
            Matrix::product(with_units(&[(0, 4)]), groups(&overlapping)),
        ),
    ];
    // The valid counterparts are accepted.
    assert!(tree_least_squares(&with_units(&[(0, 4)]), &[1.0; 5]).is_some());
    assert!(tree_least_squares(
        &Matrix::product(with_units(&[(0, 4)]), groups(&partition_ok)),
        &[1.0; 5]
    )
    .is_some());

    let hierarchy = Matrix::range_queries(3, vec![(0, 3), (0, 1), (1, 2), (2, 3)]);
    for (name, a) in cases {
        let mut rng = Rng(a.rows() as u64);
        let b = random_rhs(&mut rng, a.rows());
        assert!(tree_least_squares(&a, &b).is_none(), "{name}: not rejected");
        // Stacked next to a hierarchy stripe, the rejected stripe runs
        // the LSQR loop and still gets its least-squares solution.
        let n = a.cols() + 3;
        let union = Matrix::vstack(vec![
            Matrix::product(
                a.clone(),
                Matrix::select_rows(n, &(0..a.cols()).collect::<Vec<_>>()),
            ),
            Matrix::product(
                hierarchy.clone(),
                Matrix::select_rows(n, &[n - 3, n - 2, n - 1]),
            ),
        ]);
        let mut rhs = b.clone();
        rhs.extend(random_rhs(&mut rng, 4));
        let r = lsqr(&union, &rhs, &tight());
        assert!(r.iterations > 0, "{name}: did not take LSQR");
        let whole = lsqr(
            &Matrix::Transpose(Box::new(union.transpose())),
            &rhs,
            &tight(),
        );
        let err = rel_err(&r.x, &whole.x);
        assert!(err < 1e-7, "{name}: relative error {err:e}");
    }

    for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let a = Matrix::scaled(w, with_units(&[(0, 4)]));
        assert!(tree_least_squares(&a, &[1.0; 5]).is_none(), "weight {w}");
        let one_step = LsqrOptions {
            max_iters: 1,
            atol: 0.0,
        };
        let union = Matrix::vstack(vec![
            Matrix::product(a, Matrix::select_rows(7, &[0, 1, 2, 3])),
            Matrix::product(hierarchy.clone(), Matrix::select_rows(7, &[4, 5, 6])),
        ]);
        assert_eq!(
            lsqr(&union, &[1.0; 9], &one_step).iterations,
            1,
            "weight {w}"
        );
    }
}
