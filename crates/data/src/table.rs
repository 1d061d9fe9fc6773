//! Columnar tables and the PINQ-style table transformations (paper §5.1).
//!
//! Stabilities (paper §5.1): `Where` and `Select` are 1-stable,
//! `SplitByPartition` is 1-stable (rows land in exactly one part),
//! `GroupBy` is 2-stable. The kernel in `ektelo-core` tracks these; the
//! operations themselves are ordinary relational code and live here so
//! they can be tested without any privacy machinery.

use crate::predicate::Predicate;
use crate::schema::Schema;

/// A single-relation table in columnar form. Values are attribute codes
/// (`0..attribute.size()`).
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    /// One `Vec<u32>` per attribute, all of equal length.
    columns: Vec<Vec<u32>>,
}

impl Table {
    /// An empty table over `schema`.
    pub fn empty(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.arity()];
        Table { schema, columns }
    }

    /// Builds a table from rows; validates every value against the schema.
    pub fn from_rows(schema: Schema, rows: &[Vec<u32>]) -> Self {
        let mut t = Table::empty(schema);
        for row in rows {
            t.push_row(row);
        }
        t
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.schema.arity(), "row arity mismatch");
        for ((col, &v), attr) in self
            .columns
            .iter_mut()
            .zip(row)
            .zip(self.schema.attributes())
        {
            assert!(
                (v as usize) < attr.size(),
                "value {v} out of domain for attribute '{}'",
                attr.name()
            );
            col.push(v);
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Row `i` as an owned vector.
    pub fn row(&self, i: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c[i]).collect()
    }

    /// Column for attribute `name`.
    pub fn column(&self, name: &str) -> &[u32] {
        &self.columns[self.schema.require(name)]
    }

    /// `Where`: keeps rows satisfying `pred`. 1-stable.
    pub fn filter(&self, pred: &Predicate) -> Table {
        let mut out = Table::empty(self.schema.clone());
        let mut row = vec![0u32; self.schema.arity()];
        for i in 0..self.num_rows() {
            for (slot, col) in row.iter_mut().zip(&self.columns) {
                *slot = col[i];
            }
            if pred.eval(&self.schema, &row) {
                out.push_row(&row);
            }
        }
        out
    }

    /// `Select`: projects onto the named attributes (in the given order).
    /// 1-stable.
    pub fn select(&self, names: &[&str]) -> Table {
        let schema = self.schema.project(names);
        let columns = names
            .iter()
            .map(|n| self.columns[self.schema.require(n)].clone())
            .collect();
        Table { schema, columns }
    }

    /// `GroupBy`: one output row per distinct combination of the named
    /// attributes. 2-stable (adding/removing one input row changes at most
    /// one group's presence plus one group's contents — see PINQ).
    pub fn group_by(&self, names: &[&str]) -> Table {
        let projected = self.select(names);
        let mut seen = std::collections::HashSet::new();
        let mut out = Table::empty(projected.schema.clone());
        for i in 0..projected.num_rows() {
            let row = projected.row(i);
            if seen.insert(row.clone()) {
                out.push_row(&row);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let schema = Schema::from_sizes(&[("age", 5), ("sex", 2), ("salary", 4)]);
        Table::from_rows(
            schema,
            &[
                vec![0, 0, 1],
                vec![1, 1, 2],
                vec![2, 1, 3],
                vec![2, 0, 0],
                vec![4, 1, 2],
            ],
        )
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = sample();
        let f = t.filter(&Predicate::eq("sex", 1));
        assert_eq!(f.num_rows(), 3);
        assert!(f.column("sex").iter().all(|&v| v == 1));
    }

    #[test]
    fn select_projects_and_reorders() {
        let t = sample();
        let s = t.select(&["salary", "age"]);
        assert_eq!(s.schema().arity(), 2);
        assert_eq!(s.row(1), vec![2, 1]);
    }

    #[test]
    fn group_by_distinct() {
        let t = sample();
        let g = t.group_by(&["sex"]);
        assert_eq!(g.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_value_rejected() {
        let schema = Schema::from_sizes(&[("a", 2)]);
        Table::from_rows(schema, &[vec![2]]);
    }
}
