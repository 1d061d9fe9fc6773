//! Failure injection: every kernel error path fires cleanly, without
//! corrupting state, and never leaks data through the error itself.

use ektelo_core::kernel::{EktError, ProtectedKernel};
use ektelo_core::ops::partition::{
    ahp_partition, dawa_partition, dawa_partition_batch, AhpOptions, DawaOptions,
};
use ektelo_core::ops::selection::worst_approx;
use ektelo_data::{Predicate, Schema, Table};
use ektelo_matrix::Matrix;

fn table_kernel() -> ProtectedKernel {
    let schema = Schema::from_sizes(&[("v", 4)]);
    let rows: Vec<Vec<u32>> = (0..8).map(|i| vec![i % 4]).collect();
    ProtectedKernel::init(Table::from_rows(schema, &rows), 1.0, 5)
}

#[test]
fn table_ops_on_vector_sources_fail() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
    assert!(matches!(
        k.transform_where(k.root(), &Predicate::True),
        Err(EktError::WrongSourceType { expected: "table" })
    ));
    assert!(matches!(
        k.transform_select(k.root(), &["v"]),
        Err(EktError::WrongSourceType { .. })
    ));
    assert!(matches!(
        k.schema(k.root()),
        Err(EktError::WrongSourceType { .. })
    ));
}

#[test]
fn vector_ops_on_table_sources_fail() {
    let k = table_kernel();
    assert!(matches!(
        k.vector_laplace(k.root(), &Matrix::identity(4), 0.1),
        Err(EktError::WrongSourceType { expected: "vector" })
    ));
    assert!(matches!(
        k.vector_len(k.root()),
        Err(EktError::WrongSourceType { .. })
    ));
    assert!(matches!(
        k.reduce_by_partition(k.root(), &Matrix::identity(4)),
        Err(EktError::WrongSourceType { .. })
    ));
}

#[test]
fn shape_mismatches_are_reported_with_dimensions() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
    match k.vector_laplace(k.root(), &Matrix::identity(5), 0.1) {
        Err(EktError::ShapeMismatch { expected, found }) => {
            assert_eq!((expected, found), (4, 5));
        }
        other => panic!("expected shape mismatch, got {other:?}"),
    }
}

#[test]
fn non_positive_epsilon_rejected_everywhere() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
    for eps in [0.0, -0.5] {
        assert!(matches!(
            k.vector_laplace(k.root(), &Matrix::identity(4), eps),
            Err(EktError::InvalidArgument(_))
        ));
        assert!(matches!(
            k.noisy_count(k.root(), eps),
            Err(EktError::InvalidArgument(_))
        ));
        assert!(ahp_partition(&k, k.root(), eps, &AhpOptions::default()).is_err());
        assert!(dawa_partition(&k, k.root(), eps, &DawaOptions::new(0.1)).is_err());
    }
    // Nothing above should have consumed any budget.
    assert_eq!(k.budget_spent(), 0.0);
}

#[test]
fn zero_sensitivity_strategy_rejected() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
    let zero = Matrix::sparse(ektelo_matrix::CsrMatrix::zeros(2, 4));
    assert!(matches!(
        k.vector_laplace(k.root(), &zero, 0.5),
        Err(EktError::InvalidArgument(_))
    ));
    assert_eq!(k.budget_spent(), 0.0);
}

#[test]
fn invalid_partition_rejected_by_both_partition_ops() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
    // Wavelet has negative entries; prefix has overlapping support.
    for bad in [Matrix::wavelet(4), Matrix::prefix(4)] {
        assert!(matches!(
            k.reduce_by_partition(k.root(), &bad),
            Err(EktError::InvalidPartition(_))
        ));
        assert!(matches!(
            k.split_by_partition(k.root(), &bad),
            Err(EktError::InvalidPartition(_))
        ));
    }
}

/// An empty vector source — split off by a partition with an empty
/// group, or built directly — is rejected by every data-adaptive
/// partition selection before anything is charged, and the kernel stays
/// usable: selecting on it would panic under the state lock and poison
/// every later kernel call.
#[test]
fn empty_source_partition_selection_rejected_before_charging() {
    let k = ProtectedKernel::init_from_vector(vec![1.0, 2.0, 3.0], 1.0, 0);
    let p = ektelo_matrix::partition_from_labels(3, &[0, 0, 2]);
    let parts = k.split_by_partition(k.root(), &p).unwrap();
    let empty = parts[1];
    assert_eq!(k.vector_len(empty).unwrap(), 0);
    let k0 = ProtectedKernel::init_from_vector(vec![], 1.0, 0);
    for (k, empty, sibling) in [(&k, empty, Some(parts[0])), (&k0, k0.root(), None)] {
        assert!(matches!(
            ahp_partition(k, empty, 0.1, &AhpOptions::default()),
            Err(EktError::InvalidArgument(_))
        ));
        assert!(matches!(
            dawa_partition(k, empty, 0.1, &DawaOptions::new(0.1)),
            Err(EktError::InvalidArgument(_))
        ));
        let batch: Vec<_> = sibling.into_iter().chain([empty]).collect();
        assert!(matches!(
            dawa_partition_batch(k, &batch, 0.1, &DawaOptions::new(0.1), None),
            Err(EktError::InvalidArgument(_))
        ));
        assert_eq!(k.budget_spent(), 0.0, "a rejected selection charged");
        assert_eq!(k.budget_reserved(), 0.0);
    }
    // The kernel is still usable: the non-empty stripe partitions and
    // measures normally.
    let sel = dawa_partition(&k, parts[0], 0.1, &DawaOptions::new(0.1)).unwrap();
    assert_eq!(sel.cols(), 2);
    k.vector_laplace(k.root(), &Matrix::identity(3), 0.5)
        .unwrap();
    assert!((k.budget_spent() - 0.6).abs() < 1e-12);
}

#[test]
fn worst_approx_on_empty_workload_fails() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
    let empty = Matrix::sparse(ektelo_matrix::CsrMatrix::zeros(0, 4));
    assert!(worst_approx(&k, k.root(), &empty, &[0.0; 4], 1.0, 0.1, None).is_err());
}

#[test]
fn worst_approx_rejects_bad_public_input_before_charging() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 1.0, 0);
    let w = Matrix::identity(4);
    for sens in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            matches!(
                worst_approx(&k, k.root(), &w, &[0.0; 4], sens, 0.1, None),
                Err(EktError::InvalidArgument(_))
            ),
            "score sensitivity {sens} must be rejected"
        );
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let x_hat = [0.0, bad, 0.0, 0.0];
        assert!(
            matches!(
                worst_approx(&k, k.root(), &w, &x_hat, 1.0, 0.1, None),
                Err(EktError::InvalidArgument(_))
            ),
            "x_hat entry {bad} must be rejected"
        );
    }
    assert_eq!(k.budget_spent(), 0.0, "a rejected call must charge nothing");
    // The state lock is not poisoned: the kernel still answers.
    k.vector_laplace(k.root(), &Matrix::identity(4), 0.5)
        .unwrap();
    assert_eq!(k.budget_spent(), 0.5);
}

/// A workload whose width fits `x_hat` but not the source is rejected
/// before charging. Unchecked, the truth evaluation asserted on the
/// length under the kernel's state lock and poisoned every later call.
#[test]
fn worst_approx_rejects_a_workload_too_narrow_for_the_source() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 8], 1.0, 0);
    assert!(matches!(
        worst_approx(
            &k,
            k.root(),
            &Matrix::identity(4),
            &[0.0; 4],
            1.0,
            0.25,
            None
        ),
        Err(EktError::ShapeMismatch {
            expected: 8,
            found: 4
        })
    ));
    assert_eq!(k.budget_spent(), 0.0, "a rejected call must charge nothing");
    // The state lock is not poisoned: the kernel still answers.
    let w = Matrix::identity(8);
    worst_approx(&k, k.root(), &w, &[0.0; 8], 1.0, 0.25, None).unwrap();
    assert_eq!(k.budget_spent(), 0.25);
}

#[test]
fn errors_are_displayable_and_stable() {
    // Error messages are part of the public API surface (plans report
    // them); keep them informative.
    let e = EktError::BudgetExceeded {
        requested: 0.5,
        remaining: 0.25,
    };
    let s = format!("{e}");
    assert!(s.contains("0.5") && s.contains("0.25"), "{s}");
    let e = EktError::ShapeMismatch {
        expected: 4,
        found: 5,
    };
    assert!(format!("{e}").contains("expected 4"));
}

#[test]
fn failed_measurement_leaves_history_clean() {
    let k = ProtectedKernel::init_from_vector(vec![1.0; 4], 0.5, 0);
    k.vector_laplace(k.root(), &Matrix::identity(4), 0.5)
        .unwrap();
    assert_eq!(k.measurement_count(), 1);
    // Over budget: must not append to the history.
    let _ = k.vector_laplace(k.root(), &Matrix::identity(4), 0.5);
    assert_eq!(k.measurement_count(), 1);
}

#[test]
fn deep_transformation_chains_stay_consistent() {
    // A chain of reductions: budgets propagate through every hop and the
    // lineage still maps back to the base.
    let k = ProtectedKernel::init_from_vector((0..32).map(|i| i as f64).collect(), 1.0, 0);
    let p1 = ektelo_matrix::partition_from_labels(16, &(0..32).map(|i| i / 2).collect::<Vec<_>>());
    let p2 = ektelo_matrix::partition_from_labels(4, &(0..16).map(|i| i / 4).collect::<Vec<_>>());
    let r1 = k.reduce_by_partition(k.root(), &p1).unwrap();
    let r2 = k.reduce_by_partition(r1, &p2).unwrap();
    k.vector_laplace(r2, &Matrix::identity(4), 0.5).unwrap();
    assert!((k.budget_spent() - 0.5).abs() < 1e-12);
    let m = &k.measurements()[0];
    assert_eq!(
        m.query.cols(),
        32,
        "lineage must map back to the 32-cell base"
    );
    // The effective query sums blocks of 8 original cells.
    let row0 = m.query.row(0);
    assert_eq!(row0.iter().sum::<f64>(), 8.0);
}

#[test]
fn split_then_reduce_composes() {
    let k = ProtectedKernel::init_from_vector(vec![2.0; 12], 1.0, 0);
    let split =
        ektelo_matrix::partition_from_labels(2, &(0..12).map(|i| i / 6).collect::<Vec<_>>());
    let parts = k.split_by_partition(k.root(), &split).unwrap();
    let inner = ektelo_matrix::partition_from_labels(2, &(0..6).map(|i| i / 3).collect::<Vec<_>>());
    for part in parts {
        let red = k.reduce_by_partition(part, &inner).unwrap();
        k.vector_laplace(red, &Matrix::identity(2), 0.8).unwrap();
    }
    // Parallel composition across the split: total cost 0.8.
    assert!((k.budget_spent() - 0.8).abs() < 1e-12);
}

/// Measurement matrices whose sensitivity cannot calibrate noise: a NaN
/// entry beside a 5 (skipping the NaN would report sensitivity 1 and
/// draw noise 5× too small), and an infinite scale.
fn uncalibratable_matrices() -> Vec<(&'static str, Matrix)> {
    vec![
        (
            "NaN entry",
            Matrix::from_rows(vec![vec![f64::NAN, 1.0], vec![5.0, 0.0]]),
        ),
        ("NaN scale", Matrix::scaled(f64::NAN, Matrix::identity(2))),
        (
            "∞ scale",
            Matrix::scaled(f64::INFINITY, Matrix::identity(2)),
        ),
    ]
}

#[test]
fn non_finite_sensitivity_rejected_before_charging() {
    let k = ProtectedKernel::init_from_vector(vec![3.0, 4.0], 1.0, 0);
    for (what, m) in uncalibratable_matrices() {
        assert!(
            matches!(
                k.vector_laplace(k.root(), &m, 0.5),
                Err(EktError::InvalidArgument(_))
            ),
            "{what}: vector_laplace must reject"
        );
        let good = Matrix::identity(2);
        assert!(
            matches!(
                k.vector_laplace_batch(&[(k.root(), &m, 0.5), (k.root(), &good, 0.5)]),
                Err(EktError::InvalidArgument(_))
            ),
            "{what}: vector_laplace_batch must reject"
        );
        let res = k.reserve_budget(0.5).unwrap();
        assert!(
            matches!(
                res.vector_laplace(k.root(), &m, 0.5),
                Err(EktError::InvalidArgument(_))
            ),
            "{what}: a reservation's vector_laplace must reject"
        );
        assert_eq!(res.charged(), 0.0, "{what}: nothing redeemed");
    }
    assert_eq!(k.budget_spent(), 0.0, "a rejected call must charge nothing");
    assert_eq!(k.measurement_count(), 0);
    // The state lock is not poisoned: the kernel still answers.
    k.vector_laplace(k.root(), &Matrix::identity(2), 0.5)
        .unwrap();
    assert_eq!(k.budget_spent(), 0.5);
    assert_eq!(k.measurement_count(), 1);
}

#[test]
fn non_finite_transform_stability_rejected() {
    let k = ProtectedKernel::init_from_vector(vec![3.0, 4.0], 1.0, 0);
    for (what, m) in uncalibratable_matrices() {
        assert!(
            matches!(
                k.transform_linear(k.root(), &m),
                Err(EktError::InvalidArgument(_))
            ),
            "{what}: transform_linear must reject"
        );
    }
    assert_eq!(k.budget_spent(), 0.0);
    // A finite transform still works, and charges through its stability.
    let doubled = k
        .transform_linear(k.root(), &Matrix::scaled(2.0, Matrix::identity(2)))
        .unwrap();
    k.vector_laplace(doubled, &Matrix::identity(2), 0.25)
        .unwrap();
    assert_eq!(k.budget_spent(), 0.5);
}
