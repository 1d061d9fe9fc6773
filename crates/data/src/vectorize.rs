//! `T-Vectorize`: table → count vector (paper §5.1).
//!
//! The output has one cell per element of the schema's domain product;
//! cell `i` holds the number of rows whose attribute combination encodes to
//! `i`. This is a 1-stable transformation: adding or removing one row
//! changes the vector's L1 norm by exactly one.

use crate::table::Table;

/// Hard cap on materialized vector size (cells): vectors are dense `f64`,
/// so 2³⁰ cells ≈ 8 GiB. Plans reduce the domain (via `Select` or
/// partition reductions) before vectorizing when the raw product is larger.
pub const MAX_VECTOR_CELLS: usize = 1 << 30;

/// Vectorizes `table` over its full schema domain.
pub fn vectorize(table: &Table) -> Vec<f64> {
    let schema = table.schema();
    let n = schema.domain_size();
    assert!(
        n <= MAX_VECTOR_CELLS,
        "domain of {n} cells exceeds the vectorization cap; Select fewer attributes first"
    );
    let mut x = vec![0.0; n];
    // Cell indices of a block of rows, accumulated column by column in
    // `Schema::cell_index`'s mixed-radix order (first attribute most
    // significant), one loop per column at its stored width; no per-row
    // allocation.
    let mut cells = [0usize; BLOCK];
    let rows = table.num_rows();
    for start in (0..rows).step_by(BLOCK) {
        let cells = &mut cells[..BLOCK.min(rows - start)];
        cells.fill(0);
        for (col, attr) in table.columns().iter().zip(schema.attributes()) {
            col.fold_cells(start, cells, attr.size());
        }
        for &c in cells.iter() {
            x[c] += 1.0;
        }
    }
    x
}

/// Rows per block of cell indices in [`vectorize`].
const BLOCK: usize = 256;

/// The row-at-a-time count: one `Table::row` and one
/// `Schema::cell_index` per row.
#[cfg(test)]
fn vectorize_by_rows(table: &Table) -> Vec<f64> {
    let schema = table.schema();
    let mut x = vec![0.0; schema.domain_size()];
    for i in 0..table.num_rows() {
        x[schema.cell_index(&table.row(i))] += 1.0;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use proptest::prelude::*;

    proptest! {
        /// Random schemas of 1–4 attributes and tables of up to 700 rows
        /// (several blocks, a partial last one): the column-wise count
        /// equals the row-wise one bit for bit.
        #[test]
        fn columnwise_counts_match_rowwise(
            sizes in prop::collection::vec(1usize..6, 1..=4),
            rows in 0usize..700,
            seed in 0u64..u64::MAX,
        ) {
            let names = ["a", "b", "c", "d"];
            let attrs: Vec<(&str, usize)> = names.iter().copied().zip(sizes.iter().copied()).collect();
            let mut t = Table::empty(Schema::from_sizes(&attrs));
            let mut state = seed;
            for _ in 0..rows {
                let row: Vec<u32> = sizes
                    .iter()
                    .map(|&s| {
                        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                        ((state >> 33) % s as u64) as u32
                    })
                    .collect();
                t.push_row(&row);
            }
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(vectorize(&t)), bits(vectorize_by_rows(&t)));
        }
    }

    #[test]
    fn counts_rows_per_cell() {
        let schema = Schema::from_sizes(&[("a", 2), ("b", 2)]);
        let t = Table::from_rows(schema, &[vec![0, 0], vec![0, 0], vec![1, 1], vec![0, 1]]);
        assert_eq!(vectorize(&t), vec![2.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn l1_norm_equals_row_count() {
        let schema = Schema::from_sizes(&[("a", 3)]);
        let t = Table::from_rows(schema, &[vec![0], vec![2], vec![2]]);
        let x = vectorize(&t);
        assert_eq!(x.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn empty_table_gives_zero_vector() {
        let schema = Schema::from_sizes(&[("a", 4)]);
        let t = Table::empty(schema);
        assert_eq!(vectorize(&t), vec![0.0; 4]);
    }
}
