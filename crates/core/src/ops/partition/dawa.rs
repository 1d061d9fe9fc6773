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
//! budget on a noisy histogram and compute exact costs on it, which has
//! the same ε₁-DP guarantee (post-processing) and the same adaptive
//! behaviour. We use the squared-deviation bucket cost
//! `Σ(x̃ᵢ − mean)² + 2/ε₂²` — the expected *squared* error of a uniform
//! bucket under stage-2 Laplace noise — rather than DAWA's L1 variant; the
//! minimizing segmentations agree on uniform-vs-varied regions.

use ektelo_matrix::{partition_from_labels, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernel::noise::laplace;
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
/// `sv`, spending `eps` (the plan's stage-1 share). An empty source is
/// rejected with `InvalidArgument` before anything is charged.
pub fn dawa_partition(
    kernel: &ProtectedKernel,
    sv: SourceVar,
    eps: f64,
    opts: &DawaOptions,
) -> Result<Matrix> {
    super::reject_empty_source(kernel, sv)?;
    kernel.charge(sv, eps)?;
    let eps2 = opts.eps_stage2.max(f64::MIN_POSITIVE);
    kernel.with_vector(sv, move |x, rng| {
        let noisy: Vec<f64> = x.iter().map(|&v| v + laplace(rng, 1.0 / eps)).collect();
        // Debias the deviation cost by the stage-1 noise variance so that
        // truly-uniform regions (whose *noisy* deviation is pure noise)
        // cost ~0 and merge; DAWA's cost estimates are debiased the same
        // way.
        let noise_var = if opts.debias { 2.0 / (eps * eps) } else { 0.0 };
        let labels = segment(&noisy, 2.0 / (eps2 * eps2), noise_var);
        let groups = labels.iter().max().map_or(1, |&m| m + 1);
        partition_from_labels(groups, &labels)
    })
}

/// Batched stage-1 partition selection over many disjoint sources (the
/// stripes of DAWA-Striped), with **counter-based per-stripe RNG
/// substreams**.
///
/// A sequential loop of [`dawa_partition`] calls draws its per-cell
/// Laplace noise from the kernel's single privacy stream under the state
/// lock. This batch form charges every stripe in stripe order and then
/// draws **one** base value from the kernel stream (all under one lock
/// acquisition); stripe `i` derives its own substream seed as
/// `splitmix64(base, i)` — a pure function of (base, counter) — and runs
/// the noisy-histogram + segmentation computation on an independent RNG,
/// outside the lock. Each stripe's output is therefore a pure function of
/// its snapshot, the base and its index (pinned by a regression test).
/// Budget-wise this is exactly the sequential loop: same charges, same
/// order, same parallel composition across sibling stripes. Any empty
/// source is rejected with `InvalidArgument` before anything is charged.
///
/// Privacy: each stripe's noisy histogram uses fresh independent Laplace
/// draws at scale `1/ε`, exactly as [`dawa_partition`]; only *which*
/// deterministic stream supplies the underlying uniforms changes, and
/// the substream seeds derive from the kernel's seeded stream, so whole-
/// experiment reproducibility is preserved.
pub fn dawa_partition_batch(
    kernel: &ProtectedKernel,
    svs: &[SourceVar],
    eps: f64,
    opts: &DawaOptions,
    res: Option<&BudgetReservation<'_>>,
) -> Result<Vec<Matrix>> {
    for &sv in svs {
        super::reject_empty_source(kernel, sv)?;
    }
    let reqs: Vec<(SourceVar, f64)> = svs.iter().map(|&s| (s, eps)).collect();
    let (base, snaps) = kernel.charge_and_snapshot_batch(&reqs, res)?;
    // Stripe `i` from substream `i`.
    Ok(snaps
        .iter()
        .enumerate()
        .map(|(i, x)| partition_one_stripe(x, substream_seed(base, i as u64), eps, opts))
        .collect())
}

/// SplitMix64 of `base + counter` — the counter-based substream seed
/// derivation (same finalizer the rand shim uses for seed expansion, so
/// substreams are as well-mixed as top-level seeds).
fn substream_seed(base: u64, counter: u64) -> u64 {
    let mut z = base.wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stage-1 selection for one stripe from its snapshot and substream seed —
/// a pure function of its arguments.
fn partition_one_stripe(x: &[f64], seed: u64, eps: f64, opts: &DawaOptions) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let eps2 = opts.eps_stage2.max(f64::MIN_POSITIVE);
    let noisy: Vec<f64> = x
        .iter()
        .map(|&v| v + laplace(&mut rng, 1.0 / eps))
        .collect();
    let noise_var = if opts.debias { 2.0 / (eps * eps) } else { 0.0 };
    let labels = segment(&noisy, 2.0 / (eps2 * eps2), noise_var);
    let groups = labels.iter().max().map_or(1, |&m| m + 1);
    partition_from_labels(groups, &labels)
}

/// Optimal segmentation into power-of-two-length buckets by DP.
/// `penalty` is the per-bucket cost and `noise_var` the per-cell variance
/// already present in `x` (subtracted from the deviation estimate, clamped
/// at zero). Exposed for direct testing.
pub(crate) fn segment(x: &[f64], penalty: f64, noise_var: f64) -> Vec<usize> {
    let n = x.len();
    assert!(n > 0, "cannot segment an empty vector");
    // Prefix sums of x and x² for O(1) bucket deviation costs.
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
        // Σ(x−mean)² = Σx² − (Σx)²/len, debiased by the (len−1)·σ² the
        // input noise contributes in expectation.
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
                // Next doubling would overshoot; also allow the full
                // prefix as a bucket (non-power length) for completeness
                // near the boundary.
                len = end;
            } else {
                len *= 2;
            }
        }
    }
    // Walk back to produce labels.
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The batch must be **bit-identical** to an explicit sequential loop
    /// over the same counter-based substreams — charge order, base draw,
    /// per-stripe partitions and total budget all agree. This pins the
    /// substream protocol, which is DAWA-Striped's noise contract.
    #[test]
    fn batch_is_bit_identical_to_sequential_substream_loop() {
        use ektelo_matrix::partition_from_labels as labels_p;
        let make = || {
            let x: Vec<f64> = (0..96)
                .map(|i| {
                    if (i / 24) % 2 == 0 {
                        5.0
                    } else {
                        (i * 37 % 29) as f64
                    }
                })
                .collect();
            let k = ProtectedKernel::init_from_vector(x, 10.0, 42);
            let p = labels_p(4, &(0..96).map(|i| i / 24).collect::<Vec<_>>());
            let stripes = k.split_by_partition(k.root(), &p).unwrap();
            (k, stripes)
        };
        let opts = DawaOptions::new(0.5);

        let (k1, stripes1) = make();
        let batch = dawa_partition_batch(&k1, &stripes1, 0.5, &opts, None).unwrap();

        let (k2, stripes2) = make();
        let reqs: Vec<(SourceVar, f64)> = stripes2.iter().map(|&s| (s, 0.5)).collect();
        let (base, snaps) = k2.charge_and_snapshot_batch(&reqs, None).unwrap();
        let seq: Vec<Matrix> = snaps
            .iter()
            .enumerate()
            .map(|(i, x)| partition_one_stripe(x, substream_seed(base, i as u64), 0.5, &opts))
            .collect();

        assert_eq!(k1.budget_spent(), k2.budget_spent());
        assert_eq!(batch.len(), seq.len());
        for (a, b) in batch.iter().zip(&seq) {
            assert_eq!(a.shape(), b.shape(), "partition shapes diverged");
            let (da, db) = (a.to_dense(), b.to_dense());
            for r in 0..a.rows() {
                assert_eq!(
                    da.row_slice(r),
                    db.row_slice(r),
                    "batch diverged from the sequential substream loop"
                );
            }
        }
    }

    /// Code-review regression: a failing request in the batch must leave
    /// the kernel exactly as a sequential charge-then-use loop would —
    /// requests up to and including the failing one charged, and **no
    /// privacy randomness consumed** (the substream base is drawn only
    /// after every request succeeded).
    #[test]
    fn failed_batch_charges_prefix_and_consumes_no_randomness() {
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

        // Kernel A: a failing batch (second source is a table, not a
        // vector), then a successful one.
        let (ka, xa) = make();
        let err = dawa_partition_batch(&ka, &[xa, ka.root()], 0.25, &opts, None).unwrap_err();
        assert!(matches!(
            err,
            crate::kernel::EktError::WrongSourceType { .. }
        ));
        // Both the vector charge and the failing source's charge landed
        // (the sequential loop charges before it touches the data).
        assert!((ka.budget_spent() - 0.5).abs() < 1e-12);
        let parts_a = dawa_partition_batch(&ka, &[xa], 0.25, &opts, None).unwrap();

        // Kernel B: only the successful batch. Identical seed, identical
        // draws — the failed attempt must not have advanced the stream.
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
