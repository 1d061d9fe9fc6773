//! Property tests for the relational substrate: the dualities between
//! predicates, tables, vectorization, and linear queries (paper §3's
//! declarative-vs-vector equivalence, Def. 3.1/3.2).

use std::sync::Arc;

use ektelo_data::{vectorize, Codes, Predicate, Schema, Table};
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

/// One step of a table history: on the table it picks, or deriving a
/// new table from it.
#[derive(Clone, Debug)]
enum Step {
    Clone,
    Push(Vec<u32>),
    Append(Vec<Vec<u32>>),
    Select,
    Filter(u32),
    CountVector,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let row = || prop::collection::vec(0u32..16, 3);
    prop_oneof![
        Just(Step::Clone),
        row().prop_map(Step::Push),
        prop::collection::vec(row(), 0..4).prop_map(Step::Append),
        Just(Step::Select),
        (0u32..4).prop_map(Step::Filter),
        Just(Step::CountVector),
    ]
}

/// `raw` cut to `t`'s arity, each value folded into its domain.
fn fit(t: &Table, raw: &[u32]) -> Vec<u32> {
    raw.iter()
        .zip(t.schema().sizes())
        .map(|(&v, s)| v % s as u32)
        .collect()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The shared count vector tracks every write: after any history of
    /// clones, pushes, appends, selections and filters, each table's
    /// `count_vector` equals `vectorize` bit for bit, and a table that
    /// was not written keeps the very vector it handed out, whatever was
    /// pushed to the tables it shares columns with.
    #[test]
    fn count_vector_tracks_every_write(
        schema in arb_schema(),
        steps in prop::collection::vec((arb_step(), 0usize..8), 1..24),
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let first = arb_table(schema, 20).new_tree(&mut runner).unwrap().current();
        let mut tables = vec![first];
        // The vector each table's slot held when last asked, until a write.
        let mut held: Vec<Option<Arc<Vec<f64>>>> = vec![None];
        for (step, pick) in steps {
            let i = pick % tables.len();
            match step {
                Step::Clone => {
                    tables.push(tables[i].clone());
                    held.push(held[i].clone());
                }
                Step::Push(raw) => {
                    let row = fit(&tables[i], &raw);
                    tables[i].push_row(&row);
                    held[i] = None;
                }
                Step::Append(rows) => {
                    let rows: Vec<Vec<u32>> = rows.iter().map(|r| fit(&tables[i], r)).collect();
                    let mut out = tables[i].appender();
                    for row in &rows {
                        out.push(row);
                    }
                    held[i] = None;
                }
                Step::Select => {
                    tables.push(tables[i].select(&["c", "a"]));
                    held.push(None);
                }
                Step::Filter(v) => {
                    tables.push(tables[i].filter(&Predicate::eq("a", v)));
                    held.push(None);
                }
                Step::CountVector => held[i] = Some(tables[i].count_vector()),
            }
            for (t, h) in tables.iter().zip(&held) {
                if let Some(h) = h {
                    prop_assert!(Arc::ptr_eq(h, &t.count_vector()), "a table lost its vector");
                    prop_assert_eq!(bits(h), bits(&vectorize(t)));
                }
            }
        }
        for t in &tables {
            prop_assert_eq!(bits(&t.count_vector()), bits(&vectorize(t)));
        }
    }

    /// Columns at each width boundary: an attribute of 1, 255, 256, 257,
    /// 65,536 or 65,537 values stores its codes in 1, 1, 1, 2, 2 and 4
    /// bytes, and every code, the largest included, reads back unchanged
    /// through `row`, `select`, `filter`, `group_by`, `map_column` and
    /// `vectorize`.
    #[test]
    fn codes_round_trip_at_width_boundaries(
        pick in 0usize..6,
        raw in prop::collection::vec(0u32..u32::MAX, 0..40),
    ) {
        let (size, width) = [(1, 1), (255, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)][pick];
        let top = size as u32 - 1;
        let mut input = vec![vec![top, 1], vec![0, 0]];
        input.extend(raw.iter().map(|&x| vec![x % size as u32, x & 1]));
        let schema = Schema::from_sizes(&[("v", size), ("w", 2)]);
        let t = Table::from_rows(schema.clone(), &input);
        let stored = match t.column("v") {
            Codes::U8(_) => 1,
            Codes::U16(_) => 2,
            Codes::U32(_) => 4,
        };
        prop_assert_eq!(stored, width);
        let rows = |t: &Table| (0..t.num_rows()).map(|i| t.row(i)).collect::<Vec<_>>();
        prop_assert_eq!(rows(&t), input.clone());
        let swapped: Vec<Vec<u32>> = input.iter().map(|r| vec![r[1], r[0]]).collect();
        prop_assert_eq!(rows(&t.select(&["w", "v"])), swapped);

        let upper = Predicate::range("v", top / 2, top + 1);
        let kept: Vec<Vec<u32>> = input.iter().filter(|r| r[0] >= top / 2).cloned().collect();
        prop_assert_eq!(rows(&t.filter(&upper)), kept);

        let mut distinct: Vec<Vec<u32>> = Vec::new();
        for r in &input {
            if !distinct.contains(&vec![r[0]]) {
                distinct.push(vec![r[0]]);
            }
        }
        prop_assert_eq!(rows(&t.group_by(&["v"])), distinct);

        let flipped = t.map_column("v", size, |v| top - v);
        prop_assert_eq!(flipped.column("v").get(0), 0);
        let back = flipped.map_column("v", size, |v| top - v);
        prop_assert_eq!(back.column("v"), t.column("v"));

        let mut counts = vec![0.0; schema.domain_size()];
        for r in &input {
            counts[schema.cell_index(r)] += 1.0;
        }
        prop_assert_eq!(bits(&vectorize(&t)), bits(&counts));
    }

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
