//! DawaPartition: DAWA's stage-1 partition (Li et al. 2014; paper §5.4,
//! Plan #9). Private→Public.
//!
//! DAWA finds a partition of the 1-D domain into *contiguous buckets* that
//! minimizes (approximately) total reconstruction error: within-bucket
//! deviation (uniformity error) plus per-bucket noise. As in the original,
//! candidate buckets are restricted to lengths that are powers of two, and
//! the best segmentation is found by dynamic programming in
//! `O(n log n)`.
//!
//! Faithfulness note: DAWA perturbs interval *costs*; we spend the stage-1
//! budget on the kernel's noisy histogram (its noisy-histogram release,
//! which draws the noise) and compute exact costs on it. Everything in
//! this module is post-processing of that release, so it has the same
//! ε₁-DP guarantee and the same adaptive behaviour, and it needs no
//! privacy review of its own. We use the squared-deviation bucket cost
//! `Σ(x̃ᵢ − mean)² + 2/ε₂²` — the expected *squared* error of a uniform
//! bucket under stage-2 Laplace noise — rather than DAWA's L1 variant; the
//! minimizing segmentations agree on uniform-vs-varied regions.

use ektelo_matrix::{partition_from_labels, Matrix};

use crate::kernel::{BudgetReservation, ProtectedKernel, Result, SourceVar};

/// Options for [`dawa_partition`].
#[derive(Clone, Debug)]
pub struct DawaOptions {
    /// The stage-2 budget the plan intends to spend on measuring bucket
    /// counts; sets the per-bucket noise penalty `2/ε₂²`.
    pub eps_stage2: f64,
    /// Subtract the stage-1 noise variance from bucket deviation costs
    /// (on by default; off reproduces the naive always-split behaviour —
    /// the `ablations` bench measures the difference).
    pub debias: bool,
}

impl DawaOptions {
    /// Standard options for a given stage-2 budget.
    pub fn new(eps_stage2: f64) -> Self {
        DawaOptions {
            eps_stage2,
            debias: true,
        }
    }
}

/// Computes DAWA's contiguous-bucket partition of the 1-D vector source
/// `sv`, spending `eps` (the plan's stage-1 share): a batch of one, see
/// [`dawa_partition_batch`]. An empty source is rejected with
/// `InvalidArgument` before anything is charged.
pub fn dawa_partition(
    kernel: &ProtectedKernel,
    sv: SourceVar,
    eps: f64,
    opts: &DawaOptions,
) -> Result<Matrix> {
    // A batch that returns `Ok` holds one partition per source.
    dawa_partition_batch(kernel, &[sv], eps, opts, None).map(|mut parts| parts.swap_remove(0))
}

/// Batched stage-1 partition selection over many disjoint sources (the
/// stripes of DAWA-Striped): one noisy-histogram release charges every
/// stripe in stripe order, and stripe `i`'s histogram, drawn from the
/// release's substream `i`, is segmented outside the kernel lock.
/// Budget-wise this is a loop of single-stripe selections: same charges,
/// same order, same parallel composition across sibling stripes; each
/// stripe's histogram gets fresh Laplace noise at scale `1/ε`. An empty
/// source is rejected with `InvalidArgument`, and a non-vector one with
/// `WrongSourceType`, before anything is charged.
pub fn dawa_partition_batch(
    kernel: &ProtectedKernel,
    svs: &[SourceVar],
    eps: f64,
    opts: &DawaOptions,
    res: Option<&BudgetReservation<'_>>,
) -> Result<Vec<Matrix>> {
    let reqs: Vec<(SourceVar, f64)> = svs.iter().map(|&s| (s, eps)).collect();
    // The buffers serve every stripe.
    let mut scratch = Segmentation::default();
    kernel.noisy_histograms(&reqs, res, |noisy| {
        partition_one_stripe(noisy, eps, opts, &mut scratch)
    })
}

/// Stage-1 selection for one stripe from its noisy histogram, released at
/// `eps` — a pure function of its arguments (`scratch` only lends
/// buffers).
fn partition_one_stripe(
    noisy: &[f64],
    eps: f64,
    opts: &DawaOptions,
    scratch: &mut Segmentation,
) -> Matrix {
    let eps2 = opts.eps_stage2.max(f64::MIN_POSITIVE);
    // Debias the deviation cost by the stage-1 noise variance so that
    // truly-uniform regions (whose *noisy* deviation is pure noise) cost ~0
    // and merge; DAWA's cost estimates are debiased the same way.
    let noise_var = if opts.debias { 2.0 / (eps * eps) } else { 0.0 };
    let groups = scratch.segment(noisy, 2.0 / (eps2 * eps2), noise_var);
    partition_from_labels(groups, &scratch.labels)
}

/// The buffers of DAWA's segmentation DP, reused from stripe to stripe.
#[derive(Default)]
struct Segmentation {
    /// Prefix sums of `x` and `x²`, interleaved: entry `i` holds the sums
    /// over `x[..i]`.
    prefix: Vec<(f64, f64)>,
    /// Per prefix end: the cheapest cost of segmenting `x[..end]`, and
    /// where its last bucket starts.
    best: Vec<(f64, usize)>,
    /// Each cell's bucket, the result.
    labels: Vec<usize>,
}

impl Segmentation {
    /// Optimal segmentation of `x` into power-of-two-length buckets by
    /// DP, into `self.labels`; returns the bucket count.
    /// `penalty` is the per-bucket cost and `noise_var` the per-cell
    /// variance already present in the input (subtracted from the
    /// deviation estimate, clamped at zero).
    fn segment(&mut self, x: &[f64], penalty: f64, noise_var: f64) -> usize {
        let n = x.len();
        assert!(n > 0, "cannot segment an empty vector");
        // Prefix sums of x and x² for O(1) bucket deviation costs.
        let prefix = &mut self.prefix;
        prefix.clear();
        prefix.push((0.0, 0.0));
        let (mut s1, mut s2) = (0.0, 0.0);
        for &v in x {
            s1 += v;
            s2 += v * v;
            prefix.push((s1, s2));
        }
        let best = &mut self.best;
        best.clear();
        best.push((0.0, 0));
        for end in 1..=n {
            let (e1, e2) = prefix[end];
            let (mut cheapest, mut from) = (f64::INFINITY, 0);
            let mut len = 1usize;
            while len <= end {
                let start = end - len;
                let (b1, b2) = prefix[start];
                let len_f = len as f64;
                let sum = e1 - b1;
                let sq = e2 - b2;
                // Σ(x−mean)² = Σx² − (Σx)²/len, debiased by the
                // (len−1)·σ² the input noise contributes in expectation.
                let dev = sq - sum * sum / len_f - (len_f - 1.0) * noise_var;
                let c = best[start].0 + (dev.max(0.0) + penalty);
                // A select, not a branch: the comparison is data-dependent
                // and mispredicts often.
                let better = c < cheapest;
                cheapest = if better { c } else { cheapest };
                from = if better { start } else { from };
                if len > end / 2 && len < end {
                    // Next doubling would overshoot; also allow the full
                    // prefix as a bucket (non-power length) for
                    // completeness near the boundary.
                    len = end;
                } else {
                    len *= 2;
                }
            }
            best.push((cheapest, from));
        }
        // Walk the cuts back from `n` twice: once to count the buckets,
        // once to label each one's cells.
        let mut buckets = 0;
        let mut pos = n;
        while pos > 0 {
            buckets += 1;
            pos = best[pos].1;
        }
        let labels = &mut self.labels;
        labels.clear();
        labels.resize(n, 0);
        let (mut pos, mut g) = (n, buckets);
        while pos > 0 {
            g -= 1;
            let start = best[pos].1;
            labels[start..pos].fill(g);
            pos = start;
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The segmentation of `x` with fresh buffers, checking that the
    /// returned bucket count is the last label's successor.
    fn segment(x: &[f64], penalty: f64, noise_var: f64) -> Vec<usize> {
        let mut s = Segmentation::default();
        let buckets = s.segment(x, penalty, noise_var);
        assert_eq!(s.labels.last().map(|&l| l + 1), Some(buckets));
        s.labels
    }

    /// The DP as first written, kept as the oracle: fresh vectors, a cost
    /// closure, a branch on every improvement and a list of cuts per call.
    fn segment_oracle(x: &[f64], penalty: f64, noise_var: f64) -> Vec<usize> {
        let n = x.len();
        let mut s1 = vec![0.0; n + 1];
        let mut s2 = vec![0.0; n + 1];
        for (i, &v) in x.iter().enumerate() {
            s1[i + 1] = s1[i] + v;
            s2[i + 1] = s2[i] + v * v;
        }
        let cost = |lo: usize, hi: usize| -> f64 {
            let len = (hi - lo) as f64;
            let sum = s1[hi] - s1[lo];
            let sq = s2[hi] - s2[lo];
            let dev = sq - sum * sum / len - (len - 1.0) * noise_var;
            dev.max(0.0) + penalty
        };
        let mut best = vec![f64::INFINITY; n + 1];
        let mut back = vec![0usize; n + 1];
        best[0] = 0.0;
        for end in 1..=n {
            let mut len = 1usize;
            while len <= end {
                let start = end - len;
                let c = best[start] + cost(start, end);
                if c < best[end] {
                    best[end] = c;
                    back[end] = start;
                }
                if len > end / 2 && len < end {
                    len = end;
                } else {
                    len *= 2;
                }
            }
        }
        let mut cuts = Vec::new();
        let mut pos = n;
        while pos > 0 {
            cuts.push((back[pos], pos));
            pos = back[pos];
        }
        cuts.reverse();
        let mut labels = vec![0usize; n];
        for (g, &(lo, hi)) in cuts.iter().enumerate() {
            for l in labels.iter_mut().take(hi).skip(lo) {
                *l = g;
            }
        }
        labels
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The DP returns exactly the oracle's labels: on continuous
        /// values, on small integers and constant runs (whose bucket costs
        /// tie exactly, so the first candidate must win as before), with
        /// zero, huge and random penalties and noise variances. One set of
        /// buffers serves a longer input first, so stale entries would
        /// show.
        #[test]
        fn segmentation_matches_the_oracle(
            cells in prop::collection::vec((0u32..4, -50.0f64..50.0), 1..=300),
            kind in 0u32..3,
            penalty in (0u32..4, 0.0f64..200.0),
            noise_var in (0u32..3, 0.0f64..100.0),
        ) {
            let x: Vec<f64> = cells
                .iter()
                .map(|&(k, v)| match kind {
                    0 => v,
                    1 => f64::from(k),
                    _ => 3.0,
                })
                .collect();
            let penalty = match penalty.0 {
                0 => 0.0,
                1 => 1e9,
                _ => penalty.1,
            };
            let noise_var = if noise_var.0 == 0 { 0.0 } else { noise_var.1 };
            let longer: Vec<f64> = x.iter().rev().chain(&x).map(|v| v * 1.5).collect();
            let mut scratch = Segmentation::default();
            for input in [&longer, &x] {
                let buckets = scratch.segment(input, penalty, noise_var);
                let want = segment_oracle(input, penalty, noise_var);
                prop_assert_eq!(&scratch.labels, &want);
                prop_assert_eq!(Some(buckets), want.last().map(|&l| l + 1));
            }
        }
    }

    #[test]
    fn segmentation_labels_are_contiguous_and_increasing() {
        let x = vec![1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 2.0];
        let labels = segment(&x, 0.5, 0.0);
        for w in labels.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1, "labels {labels:?}");
        }
        assert_eq!(labels[0], 0);
    }

    #[test]
    fn uniform_region_merges_varied_region_splits() {
        let mut x = vec![5.0; 32];
        for (i, v) in x.iter_mut().enumerate().skip(16) {
            *v = (i * 97 % 41) as f64; // erratic second half
        }
        let labels = segment(&x, 1.0, 0.0);
        let buckets_first: std::collections::HashSet<usize> =
            labels[..16].iter().copied().collect();
        let buckets_second: std::collections::HashSet<usize> =
            labels[16..].iter().copied().collect();
        assert!(
            buckets_first.len() < buckets_second.len(),
            "uniform half {buckets_first:?} vs varied half {buckets_second:?}"
        );
    }

    #[test]
    fn huge_penalty_collapses_to_one_bucket() {
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let labels = segment(&x, 1e9, 0.0);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn zero_penalty_splits_everything() {
        let x: Vec<f64> = (0..8).map(|i| (i * i) as f64).collect();
        let labels = segment(&x, 0.0, 0.0);
        // With no per-bucket cost, singleton buckets are optimal.
        assert_eq!(labels, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// The batch segments each stripe's release as a fresh single-stripe
    /// selection would, bit for bit: on a twin, the kernel's release of
    /// every stripe (its own tests pin the release to its private steps),
    /// each segmented with fresh buffers. Stripes of unequal length, so
    /// the batch's reused buffers shrink and grow.
    #[test]
    fn batch_is_bit_identical_to_sequential_substream_loop() {
        let x: Vec<f64> = (0..96)
            .map(|i| {
                if (i / 24) % 2 == 0 {
                    5.0
                } else {
                    (i * 37 % 29) as f64
                }
            })
            .collect();
        let labels: Vec<usize> = (0..96).map(|i| [0, 1, 1, 2, 3, 3][i / 16]).collect();
        let p = partition_from_labels(4, &labels);
        let stripes = |k: &ProtectedKernel| k.split_by_partition(k.root(), &p).unwrap();
        let sparse = |parts: Vec<Matrix>| parts.iter().map(Matrix::to_sparse).collect::<Vec<_>>();
        for (seed, eps, debias) in [(42, 0.5, true), (43, 2.0, true), (44, 0.5, false)] {
            let opts = DawaOptions {
                debias,
                ..DawaOptions::new(0.5)
            };
            crate::ops::tests::assert_twins(
                || ProtectedKernel::init_from_vector(x.clone(), 10.0, seed),
                |k| sparse(dawa_partition_batch(k, &stripes(k), eps, &opts, None).unwrap()),
                |k| {
                    let reqs: Vec<(SourceVar, f64)> =
                        stripes(k).iter().map(|&s| (s, eps)).collect();
                    let fresh = |noisy: &[f64]| {
                        partition_one_stripe(noisy, eps, &opts, &mut Segmentation::default())
                    };
                    sparse(k.noisy_histograms(&reqs, None, fresh).unwrap())
                },
            );
        }
    }

    /// A failing batch leaves the kernel as a sequential loop of
    /// single-stripe selections would: a wrong source type anywhere in
    /// the batch charges nothing, a budget failure at request `k`
    /// charges the requests before `k`, and **no privacy randomness is
    /// consumed** either way (the substream base is drawn only after
    /// every charge succeeded).
    #[test]
    fn failed_batch_charges_prefix_and_consumes_no_randomness() {
        use crate::kernel::EktError;
        use ektelo_data::{Schema, Table};
        let seed = 23;
        let make = || {
            let schema = Schema::from_sizes(&[("v", 8)]);
            let rows: Vec<Vec<u32>> = (0..32).map(|i| vec![i % 8]).collect();
            let k = ProtectedKernel::init(Table::from_rows(schema, &rows), 10.0, seed);
            let x = k.vectorize(k.root()).unwrap();
            (k, x)
        };
        let opts = DawaOptions::new(0.5);

        // Kernel A: a batch whose second source is a table, not a
        // vector; then one whose second charge exceeds the budget; then
        // a successful one.
        let (ka, xa) = make();
        let err = dawa_partition_batch(&ka, &[xa, ka.root()], 0.25, &opts, None).unwrap_err();
        assert!(matches!(err, EktError::WrongSourceType { .. }));
        assert_eq!(
            ka.budget_spent(),
            0.0,
            "the type check precedes every charge"
        );
        let err = dawa_partition_batch(&ka, &[xa, xa], 6.0, &opts, None).unwrap_err();
        assert!(matches!(err, EktError::BudgetExceeded { .. }));
        assert_eq!(
            ka.budget_spent(),
            6.0,
            "the request before the failure stands"
        );
        let parts_a = dawa_partition_batch(&ka, &[xa], 0.25, &opts, None).unwrap();

        // Kernel B: only the successful batch. Identical seed, identical
        // draws — the failed attempts must not have advanced the stream.
        let (kb, xb) = make();
        let parts_b = dawa_partition_batch(&kb, &[xb], 0.25, &opts, None).unwrap();
        assert_eq!(parts_a.len(), parts_b.len());
        for (a, b) in parts_a.iter().zip(&parts_b) {
            assert_eq!(a.shape(), b.shape());
            let (da, db) = (a.to_dense(), b.to_dense());
            for r in 0..a.rows() {
                assert_eq!(da.row_slice(r), db.row_slice(r));
            }
        }
    }

    /// `dawa_partition` is the batch of one: the same partition, charge
    /// and kernel stream position as `dawa_partition_batch(&[sv])[0]` on
    /// an identically seeded kernel.
    #[test]
    fn single_selection_is_the_batch_of_one() {
        let x: Vec<f64> = (0..40)
            .map(|i| if i < 24 { 4.0 } else { (i % 9) as f64 })
            .collect();
        let opts = DawaOptions::new(0.5);
        crate::ops::tests::assert_twins(
            || ProtectedKernel::init_from_vector(x.clone(), 2.0, 17),
            |k| vec![dawa_partition(k, k.root(), 0.5, &opts).unwrap().to_sparse()],
            |k| {
                let batch = dawa_partition_batch(k, &[k.root()], 0.5, &opts, None).unwrap();
                batch.iter().map(Matrix::to_sparse).collect()
            },
        );
    }

    #[test]
    fn batch_charges_with_parallel_composition_and_is_deterministic() {
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64 * 3.0).collect();
        let run = || {
            let k = ProtectedKernel::init_from_vector(x.clone(), 2.0, 9);
            let p = ektelo_matrix::partition_from_labels(
                2,
                &(0..64).map(|i| i / 32).collect::<Vec<_>>(),
            );
            let stripes = k.split_by_partition(k.root(), &p).unwrap();
            let parts =
                dawa_partition_batch(&k, &stripes, 0.75, &DawaOptions::new(0.5), None).unwrap();
            // Sibling stripes compose in parallel: one ε charge at the root.
            assert!((k.budget_spent() - 0.75).abs() < 1e-12);
            parts
                .iter()
                .map(|m| (m.rows(), m.cols()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "batch must be deterministic given the seed");
    }

    #[test]
    fn kernel_integration_produces_partition_and_charges() {
        let x: Vec<f64> = (0..64).map(|i| if i < 32 { 10.0 } else { 50.0 }).collect();
        let k = ProtectedKernel::init_from_vector(x, 2.0, 3);
        let p = dawa_partition(&k, k.root(), 1.0, &DawaOptions::new(1.0)).unwrap();
        assert!(p.is_partition());
        assert_eq!(p.cols(), 64);
        assert!((k.budget_spent() - 1.0).abs() < 1e-12);
        // The partition should be far coarser than singletons.
        assert!(p.rows() < 40, "got {} buckets", p.rows());
    }
}
