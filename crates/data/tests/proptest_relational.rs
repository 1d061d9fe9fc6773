//! Property tests for the relational substrate: the dualities between
//! predicates, tables, vectorization, and linear queries (paper §3's
//! declarative-vs-vector equivalence, Def. 3.1/3.2).

use ektelo_data::{vectorize, Predicate, Schema, Table};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

fn arb_schema() -> impl Strategy<Value = Schema> {
    (2usize..5, 2usize..5, 1usize..4)
        .prop_map(|(a, b, c)| Schema::from_sizes(&[("a", a), ("b", b), ("c", c)]))
}

fn arb_table(schema: Schema, max_rows: usize) -> impl Strategy<Value = Table> {
    let sizes = schema.sizes();
    prop::collection::vec(prop::collection::vec(0u32..16, sizes.len()), 0..max_rows).prop_map(
        move |raw| {
            let mut t = Table::empty(schema.clone());
            for mut row in raw {
                for (v, &s) in row.iter_mut().zip(&sizes) {
                    *v %= s as u32;
                }
                t.push_row(&row);
            }
            t
        },
    )
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        (0u32..4).prop_map(|v| Predicate::eq("a", v % 2)),
        (0u32..3, 1u32..3).prop_map(|(lo, w)| Predicate::range("b", lo.min(1), lo.min(1) + w)),
        prop::collection::vec(0u32..3, 1..3).prop_map(|vs| Predicate::is_in("c", vs)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.and(y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.or(y)),
            inner.prop_map(|x| x.not()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Paper Def. 3.1 ≡ Def. 3.2: counting rows matching φ equals the dot
    /// product of φ's indicator vector with the vectorized table.
    #[test]
    fn declarative_equals_vector_form(
        schema in arb_schema(),
        pred in arb_predicate(),
    ) {
        let table = {
            // Deterministic table derived from the schema (keeps the
            // proptest space on predicates).
            let mut t = Table::empty(schema.clone());
            let sizes = schema.sizes();
            for i in 0..60u32 {
                let row: Vec<u32> = sizes
                    .iter()
                    .enumerate()
                    .map(|(k, &s)| ((i as usize * (k + 3)) % s) as u32)
                    .collect();
                t.push_row(&row);
            }
            t
        };
        // Clamp predicate values into the schema's domains by evaluation —
        // eval panics never; out-of-range constants simply never match.
        let declarative = table.filter(&pred).num_rows() as f64;
        let x = vectorize(&table);
        let q = pred.indicator(&schema);
        let vectorized: f64 = q.iter().zip(&x).map(|(a, b)| a * b).sum();
        prop_assert_eq!(declarative, vectorized);
    }

    /// Filtering preserves schema and never grows the table.
    #[test]
    fn filter_monotone(
        schema in arb_schema(),
        pred in arb_predicate(),
    ) {
        let table_strategy = arb_table(schema.clone(), 40);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let table = table_strategy.new_tree(&mut runner).unwrap().current();
        let f = table.filter(&pred);
        prop_assert!(f.num_rows() <= table.num_rows());
        prop_assert_eq!(f.schema(), table.schema());
        // Filter is idempotent.
        prop_assert_eq!(f.filter(&pred).num_rows(), f.num_rows());
    }

    /// select keeps row counts and reorders columns consistently.
    #[test]
    fn select_preserves_rows(schema in arb_schema()) {
        let table_strategy = arb_table(schema, 30);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let table = table_strategy.new_tree(&mut runner).unwrap().current();
        let s = table.select(&["c", "a"]);
        prop_assert_eq!(s.num_rows(), table.num_rows());
        for i in 0..table.num_rows() {
            let orig = table.row(i);
            let proj = s.row(i);
            prop_assert_eq!(proj[0], orig[2]);
            prop_assert_eq!(proj[1], orig[0]);
        }
    }

    /// Vectorize: L1 mass equals cardinality; filter + vectorize equals
    /// masking the vectorized table.
    #[test]
    fn vectorize_mass_and_masking(
        schema in arb_schema(),
        pred in arb_predicate(),
    ) {
        let table_strategy = arb_table(schema.clone(), 50);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let table = table_strategy.new_tree(&mut runner).unwrap().current();
        let x = vectorize(&table);
        prop_assert_eq!(x.iter().sum::<f64>(), table.num_rows() as f64);
        let filtered = vectorize(&table.filter(&pred));
        let mask = pred.indicator(&schema);
        for ((f, m), v) in filtered.iter().zip(&mask).zip(&x) {
            prop_assert_eq!(*f, m * v, "filtered vectorization must equal masked vectorization");
        }
    }

    /// cell_index/cell_coords are inverse bijections over the domain.
    #[test]
    fn cell_encoding_bijective(schema in arb_schema()) {
        for idx in 0..schema.domain_size() {
            let coords = schema.cell_coords(idx);
            prop_assert_eq!(schema.cell_index(&coords), idx);
        }
    }
}
