//! Cross-crate privacy invariants (paper Theorem 4.1 and Algorithm 2),
//! exercised through the public façade with randomized operator sequences.

use ektelo::core::kernel::{EktError, ProtectedKernel};
use ektelo::core::ops::partition::{ahp_partition, dawa_partition, DawaOptions};
use ektelo::matrix::{partition_from_labels, Matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No sequence of measurements can push root budget past ε_tot.
    #[test]
    fn budget_never_exceeds_total(
        eps_tot in 0.1f64..4.0,
        requests in prop::collection::vec(0.01f64..1.0, 1..20),
        seed in 0u64..1000,
    ) {
        let k = ProtectedKernel::init_from_vector(vec![1.0; 16], eps_tot, seed);
        for eps in requests {
            let _ = k.vector_laplace(k.root(), &Matrix::identity(16), eps);
            prop_assert!(k.budget_spent() <= eps_tot + 1e-9);
        }
    }

    /// A rejected request leaves the trackers untouched and later smaller
    /// requests still succeed.
    #[test]
    fn rejection_is_side_effect_free(seed in 0u64..1000) {
        let k = ProtectedKernel::init_from_vector(vec![2.0; 8], 1.0, seed);
        k.vector_laplace(k.root(), &Matrix::identity(8), 0.7).unwrap();
        let before = k.budget_spent();
        let err = k.vector_laplace(k.root(), &Matrix::identity(8), 0.5).unwrap_err();
        let is_budget_error = matches!(err, EktError::BudgetExceeded { .. });
        prop_assert!(is_budget_error);
        prop_assert_eq!(k.budget_spent(), before);
        k.vector_laplace(k.root(), &Matrix::identity(8), 0.3).unwrap();
        prop_assert!((k.budget_spent() - 1.0).abs() < 1e-9);
    }

    /// Parallel composition: measuring every partition child at ε charges
    /// the root exactly ε, for any partition of the domain.
    #[test]
    fn parallel_composition_over_random_partitions(
        labels in prop::collection::vec(0usize..5, 10..40),
        eps in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let groups = labels.iter().max().unwrap() + 1;
        let n = labels.len();
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let k = ProtectedKernel::init_from_vector(x, 1.0, seed);
        let p = partition_from_labels(groups, &labels);
        let parts = k.split_by_partition(k.root(), &p).unwrap();
        let mut measured_any = false;
        for part in parts {
            let len = k.vector_len(part).unwrap();
            if len == 0 {
                continue; // random labels may leave a group empty
            }
            k.vector_laplace(part, &Matrix::identity(len), eps).unwrap();
            measured_any = true;
        }
        prop_assert!(measured_any);
        prop_assert!((k.budget_spent() - eps).abs() < 1e-9);
    }

    /// Sequential composition through a chain of 1-stable transforms
    /// charges exactly the sum of the requests.
    #[test]
    fn sequential_composition_through_reductions(
        eps_list in prop::collection::vec(0.05f64..0.2, 1..4),
        seed in 0u64..1000,
    ) {
        let total: f64 = eps_list.iter().sum();
        let k = ProtectedKernel::init_from_vector(vec![3.0; 12], total + 0.01, seed);
        let p = partition_from_labels(3, &[0,0,0,0,1,1,1,1,2,2,2,2]);
        let red = k.reduce_by_partition(k.root(), &p).unwrap();
        for eps in &eps_list {
            k.vector_laplace(red, &Matrix::identity(3), *eps).unwrap();
        }
        prop_assert!((k.budget_spent() - total).abs() < 1e-9);
    }

    /// Data-adaptive partition operators charge exactly their ε and return
    /// valid partitions, for arbitrary data.
    #[test]
    fn private_partition_ops_charge_exactly(
        data in prop::collection::vec(0.0f64..200.0, 16..64),
        seed in 0u64..1000,
    ) {
        let n = data.len();
        let k = ProtectedKernel::init_from_vector(data, 1.0, seed);
        let p1 = ahp_partition(&k, k.root(), 0.25).unwrap();
        prop_assert!(p1.is_partition());
        prop_assert_eq!(p1.cols(), n);
        let p2 = dawa_partition(&k, k.root(), 0.25, &DawaOptions::new(0.5)).unwrap();
        prop_assert!(p2.is_partition());
        prop_assert!((k.budget_spent() - 0.5).abs() < 1e-9);
    }

    /// Noise scales with transformation stability: measuring through a
    /// c-stable linear map costs c·ε at the root.
    #[test]
    fn stability_scales_budget(c in 1.0f64..4.0, seed in 0u64..1000) {
        let k = ProtectedKernel::init_from_vector(vec![1.0; 8], 10.0, seed);
        let m = Matrix::scaled(c, Matrix::identity(8));
        let t = k.transform_linear(k.root(), &m).unwrap();
        k.vector_laplace(t, &Matrix::identity(8), 1.0).unwrap();
        prop_assert!((k.budget_spent() - c).abs() < 1e-9);
    }
}

/// The same plan under the same seed yields identical outputs (determinism
/// is load-bearing for the experiment harness).
#[test]
fn determinism_end_to_end() {
    let run = || {
        let k = ProtectedKernel::init_from_vector(vec![5.0; 32], 1.0, 77);
        let p = dawa_partition(&k, k.root(), 0.25, &DawaOptions::new(0.75)).unwrap();
        let red = k.reduce_by_partition(k.root(), &p).unwrap();
        let len = k.vector_len(red).unwrap();
        k.vector_laplace(red, &Matrix::identity(len), 0.75).unwrap()
    };
    assert_eq!(run(), run());
}

/// Empirical ε check on the end-to-end mechanism: the probability ratio of
/// any noisy-count outcome between neighboring databases stays within
/// exp(ε) (coarse histogram test; catches gross calibration bugs).
#[test]
fn empirical_privacy_of_noisy_count() {
    let eps = 0.5;
    let trials = 60_000;
    let sample = |count: f64, seed_base: u64| -> Vec<f64> {
        (0..trials)
            .map(|i| {
                let k = ProtectedKernel::init_from_vector(vec![count], 1.0, seed_base + i);
                k.noisy_count(k.root(), eps).unwrap()
            })
            .collect()
    };
    let a = sample(100.0, 0);
    let b = sample(101.0, 1_000_000);
    // Bucket outcomes; compare log-ratios where both buckets are populated.
    let bucket = |v: f64| ((v - 95.0).clamp(0.0, 12.0)) as usize;
    let mut ha = [0.0f64; 13];
    let mut hb = [0.0f64; 13];
    for v in a {
        ha[bucket(v)] += 1.0;
    }
    for v in b {
        hb[bucket(v)] += 1.0;
    }
    for i in 0..13 {
        if ha[i] > 500.0 && hb[i] > 500.0 {
            let ratio = (ha[i] / hb[i]).ln().abs();
            assert!(
                ratio <= eps + 0.15,
                "bucket {i}: log ratio {ratio} exceeds eps {eps} (+slack)"
            );
        }
    }
}
