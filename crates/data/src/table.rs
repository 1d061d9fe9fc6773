//! Columnar tables and the PINQ-style table transformations (paper §5.1).
//!
//! Stabilities (paper §5.1): `Where` and `Select` are 1-stable,
//! `SplitByPartition` is 1-stable (rows land in exactly one part),
//! `GroupBy` is 2-stable. The kernel in `ektelo-core` tracks these; the
//! operations themselves are ordinary relational code and live here so
//! they can be tested without any privacy machinery.
//!
//! **Storage widths.** A table holds each column as [`Codes`]: the
//! attribute's codes at the narrowest integer width that holds its domain
//! (`u8` up to 256 values, `u16` up to 65,536, else `u32`). Rows go in and
//! come out as `u32` values; only the storage is narrow. The census table's
//! five attributes (income rebinned to 64 or 357 bins, then 5, 7, 4 and 2
//! values) take 5 or 6 bytes a row instead of 20. `from_rows`, the
//! generators and `map_column` build columns of exact capacity through
//! [`RowAppender::reserve`] or a sized collect. `Where` and `GroupBy`
//! read and append rows one at a time, as `u32` values, so their output
//! columns grow by doubling.
//!
//! **Shared columns.** A table holds each column as a shared, immutable
//! `Arc<Codes>`, so many analyses can start from one source table
//! without copying it (the protected kernel wraps one table per
//! analysis). [`Table::clone`] and [`Table::select`] copy no column, only
//! the schema and one reference per column. [`Table::push_row`] copies on
//! write: it copies a column only when another table still shares it, so
//! appending to a clone never changes the table it was cloned from, nor a
//! kernel that holds that table. A [`RowAppender`] makes that check once
//! for many rows, so a loop that builds a table pays no per-row check.
//! [`Table::map_column`] recodes one column into a new attribute size and
//! shares every other column.
//!
//! **A shared count vector.** [`Table::count_vector`] computes the
//! table's `T-Vectorize` output once and keeps it in a slot that every
//! clone shares, so many kernels built from one source table hold one
//! vector between them. The vector lives as long as any clone of the
//! table, or any kernel holding it. Every table made by a constructor or
//! a transformation (`empty`, `select`, `filter`, `group_by`,
//! `map_column`) starts with an empty slot. [`Table::push_row`] and
//! [`Table::appender`] empty the table's slot before they write, taking a
//! fresh one when a clone shares it, so a clone never sees a stale vector
//! and a vector already handed out never changes.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::codes::Codes;
use crate::predicate::Predicate;
use crate::schema::{Attribute, Schema};
use crate::vectorize::vectorize;

/// A single-relation table in columnar form. Values are attribute codes
/// (`0..attribute.size()`), stored at their domain's width. Cloning
/// shares the columns and the count vector (see the module docs).
#[derive(Clone)]
pub struct Table {
    schema: Schema,
    /// One shared column per attribute, all of equal length.
    columns: Vec<Arc<Codes>>,
    /// The count vector once computed, shared by every clone.
    counts: Arc<OnceLock<Arc<Vec<f64>>>>,
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("columns", &self.columns)
            .finish_non_exhaustive()
    }
}

impl Table {
    /// An empty table over `schema`.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| Arc::new(Codes::with_capacity(a.size(), 0)))
            .collect();
        Table::from_columns(schema, columns)
    }

    /// A table over shared `columns`, with an empty count-vector slot.
    fn from_columns(schema: Schema, columns: Vec<Arc<Codes>>) -> Self {
        Table {
            schema,
            columns,
            counts: Arc::default(),
        }
    }

    /// Builds a table from rows; validates every value against the schema.
    pub fn from_rows(schema: Schema, rows: &[Vec<u32>]) -> Self {
        let mut t = Table::empty(schema);
        let mut out = t.appender();
        out.reserve(rows.len());
        for row in rows {
            out.push(row);
        }
        t
    }

    /// Appends one row, validated against the schema. A column another
    /// table shares is copied first (copy on write), so no other table
    /// sees the row.
    pub fn push_row(&mut self, row: &[u32]) {
        check_row(&self.schema, row);
        self.clear_counts();
        for (col, &v) in self.columns.iter_mut().zip(row) {
            Arc::make_mut(col).push(v);
        }
    }

    /// A writer that appends many rows: it copies each column another
    /// table shares once, when made, and then pushes straight into the
    /// columns.
    pub fn appender(&mut self) -> RowAppender<'_> {
        self.clear_counts();
        RowAppender {
            schema: &self.schema,
            columns: self.columns.iter_mut().map(Arc::make_mut).collect(),
        }
    }

    /// Empties this table's count-vector slot before a write: in place
    /// when no clone shares the slot, else by taking a fresh one.
    fn clear_counts(&mut self) {
        match Arc::get_mut(&mut self.counts) {
            Some(slot) => drop(slot.take()),
            None => self.counts = Arc::default(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// The table's count vector (`T-Vectorize`, [`vectorize`]), computed
    /// on the first call and shared with every clone (see the module
    /// docs): later calls, on this table or a clone, bump a refcount.
    pub fn count_vector(&self) -> Arc<Vec<f64>> {
        Arc::clone(self.counts.get_or_init(|| Arc::new(vectorize(self))))
    }

    /// Row `i` as an owned vector.
    pub fn row(&self, i: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Every column, in schema order.
    pub(crate) fn columns(&self) -> &[Arc<Codes>] {
        &self.columns
    }

    /// The codes of attribute `name`, one per row.
    pub fn column(&self, name: &str) -> &Codes {
        &self.columns[self.schema.require(name)]
    }

    /// `Where`: keeps rows satisfying `pred`. 1-stable.
    pub fn filter(&self, pred: &Predicate) -> Table {
        let mut out = Table::empty(self.schema.clone());
        let mut kept = out.appender();
        let mut row = vec![0u32; self.schema.arity()];
        for i in 0..self.num_rows() {
            for (slot, col) in row.iter_mut().zip(&self.columns) {
                *slot = col.get(i);
            }
            if pred.eval(&self.schema, &row) {
                kept.push(&row);
            }
        }
        out
    }

    /// `Select`: projects onto the named attributes (in the given order).
    /// 1-stable. The result shares the selected columns with `self`.
    pub fn select(&self, names: &[&str]) -> Table {
        let schema = self.schema.project(names);
        let columns = names
            .iter()
            .map(|n| Arc::clone(&self.columns[self.schema.require(n)]))
            .collect();
        Table::from_columns(schema, columns)
    }

    /// Recodes attribute `name` through `f` into an attribute of `size`
    /// values, keeping its name and place. Only that column is computed,
    /// at the new size's width; the result shares every other column with
    /// `self`. Panics if `f` maps a value to `size` or beyond.
    pub fn map_column(&self, name: &str, size: usize, f: impl Fn(u32) -> u32) -> Table {
        let idx = self.schema.require(name);
        let mut attrs = self.schema.attributes().to_vec();
        attrs[idx] = Attribute::new(name, size);
        let mapped = Codes::collect(
            size,
            self.columns[idx].iter().map(|v| {
                let m = f(v);
                assert!(
                    (m as usize) < size,
                    "value {m} out of domain for attribute '{name}'"
                );
                m
            }),
        );
        let mut columns = self.columns.clone();
        columns[idx] = Arc::new(mapped);
        Table::from_columns(Schema::new(attrs), columns)
    }

    /// `GroupBy`: one output row per distinct combination of the named
    /// attributes. 2-stable (adding/removing one input row changes at most
    /// one group's presence plus one group's contents — see PINQ).
    pub fn group_by(&self, names: &[&str]) -> Table {
        let projected = self.select(names);
        let mut seen = std::collections::HashSet::new();
        let mut out = Table::empty(projected.schema.clone());
        let mut groups = out.appender();
        for i in 0..projected.num_rows() {
            let row = projected.row(i);
            if seen.insert(row.clone()) {
                groups.push(&row);
            }
        }
        out
    }
}

/// Appends rows to one table, holding each of its columns uniquely
/// ([`Table::appender`]).
pub struct RowAppender<'a> {
    schema: &'a Schema,
    columns: Vec<&'a mut Codes>,
}

impl RowAppender<'_> {
    /// Makes room for `rows` more rows, exactly, so a table built to a
    /// known size carries no growth slack.
    pub fn reserve(&mut self, rows: usize) {
        for col in &mut self.columns {
            col.reserve(rows);
        }
    }

    /// Appends one row, validated against the schema.
    pub fn push(&mut self, row: &[u32]) {
        check_row(self.schema, row);
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }
}

/// Panics unless `row` has the schema's arity and every value lies in
/// its attribute's domain.
fn check_row(schema: &Schema, row: &[u32]) {
    assert_eq!(row.len(), schema.arity(), "row arity mismatch");
    for (&v, attr) in row.iter().zip(schema.attributes()) {
        assert!(
            (v as usize) < attr.size(),
            "value {v} out of domain for attribute '{}'",
            attr.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(c: &Codes) -> Vec<u32> {
        c.iter().collect()
    }

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
        assert!(f.column("sex").iter().all(|v| v == 1));
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
    fn clone_and_select_share_columns() {
        let t = sample();
        let c = t.clone();
        let s = t.select(&["salary", "age"]);
        for (a, b) in t.columns().iter().zip(c.columns()) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert!(Arc::ptr_eq(&s.columns()[0], &t.columns()[2]));
        assert!(Arc::ptr_eq(&s.columns()[1], &t.columns()[0]));
    }

    #[test]
    fn push_row_to_a_clone_copies_on_write() {
        let t = sample();
        let before: Vec<Vec<u32>> = (0..t.num_rows()).map(|i| t.row(i)).collect();
        let mut c = t.clone();
        c.push_row(&[3, 0, 1]);
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.row(5), vec![3, 0, 1]);
        // The original keeps its rows and its row count.
        assert_eq!(t.num_rows(), 5);
        assert_eq!(
            (0..t.num_rows()).map(|i| t.row(i)).collect::<Vec<_>>(),
            before
        );
        // The clone now owns its columns; the original's stay unshared.
        for (a, b) in t.columns().iter().zip(c.columns()) {
            assert!(!Arc::ptr_eq(a, b));
            assert_eq!(Arc::strong_count(a), 1);
        }
        // A projection of the original is untouched by the clone's row too.
        let mut s = t.select(&["sex"]);
        s.push_row(&[1]);
        assert_eq!(values(t.column("sex")), [0, 1, 1, 0, 1]);
        assert_eq!(values(s.column("sex")), [0, 1, 1, 0, 1, 1]);
    }

    #[test]
    fn appender_on_a_clone_copies_on_write() {
        let t = sample();
        let mut c = t.clone();
        let mut rows = c.appender();
        rows.push(&[3, 0, 1]);
        rows.push(&[4, 1, 3]);
        assert_eq!(c.num_rows(), 7);
        assert_eq!(c.row(6), vec![4, 1, 3]);
        assert_eq!(t.num_rows(), 5);
        assert_eq!(values(t.column("age")), [0, 1, 2, 2, 4]);
    }

    #[test]
    fn push_row_to_an_unshared_table_appends_in_place() {
        let mut t = sample();
        let ptrs: Vec<*const Codes> = t.columns().iter().map(Arc::as_ptr).collect();
        t.push_row(&[1, 0, 0]);
        let after: Vec<*const Codes> = t.columns().iter().map(Arc::as_ptr).collect();
        assert_eq!(ptrs, after);
    }

    #[test]
    fn clones_share_one_count_vector() {
        let t = sample();
        let c = t.clone();
        let x = t.count_vector();
        assert_eq!(*x, vectorize(&t));
        assert!(Arc::ptr_eq(&x, &c.count_vector()));
        assert!(Arc::ptr_eq(&x, &t.clone().count_vector()));
        // Debug shows the data, not the cached vector.
        assert!(!format!("{t:?}").contains("counts"));
    }

    #[test]
    fn writes_replace_the_count_vector() {
        let mut t = sample();
        let c = t.clone();
        let x = c.count_vector();
        t.push_row(&[3, 0, 1]);
        let y = t.count_vector();
        assert!(!Arc::ptr_eq(&x, &y));
        assert_eq!(*y, vectorize(&t));
        // The clone, and the vector it handed out, are unchanged.
        assert!(Arc::ptr_eq(&x, &c.count_vector()));
        assert_eq!(*x, vectorize(&c));
        // An unshared table empties its own slot; a held vector survives.
        let held = y.to_vec();
        t.appender().push(&[4, 1, 3]);
        assert_eq!(*t.count_vector(), vectorize(&t));
        assert_eq!(*y, held);
    }

    #[test]
    fn map_column_recodes_one_column_and_shares_the_rest() {
        let t = sample();
        let m = t.map_column("age", 3, |v| v / 2);
        assert_eq!(m.schema().sizes(), vec![3, 2, 4]);
        assert_eq!(m.schema().attributes()[0].name(), "age");
        assert_eq!(values(m.column("age")), [0, 0, 1, 1, 2]);
        assert!(Arc::ptr_eq(&m.columns()[1], &t.columns()[1]));
        assert!(Arc::ptr_eq(&m.columns()[2], &t.columns()[2]));
        let by_rows = Table::from_rows(
            m.schema().clone(),
            &(0..t.num_rows())
                .map(|i| {
                    let mut row = t.row(i);
                    row[0] /= 2;
                    row
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(vectorize(&m), vectorize(&by_rows));
    }

    #[test]
    #[should_panic(expected = "out of domain for attribute 'age'")]
    fn map_column_rejects_values_beyond_the_new_size() {
        sample().map_column("age", 2, |v| v / 2);
    }

    fn rows(t: &Table) -> Vec<Vec<u32>> {
        (0..t.num_rows()).map(|i| t.row(i)).collect()
    }

    /// `rows` pseudo-random rows over `a`, `b` and `c` of the given sizes
    /// (deterministic in `seed`). Values are drawn from `0..12` and folded
    /// into each domain, so small predicate constants match on every
    /// width.
    fn random_table(sizes: [usize; 3], rows: usize, seed: u64) -> Table {
        let schema = Schema::from_sizes(&[("a", sizes[0]), ("b", sizes[1]), ("c", sizes[2])]);
        let mut state = seed;
        let mut next = |size: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % 12) as u32 % size as u32
        };
        let raw: Vec<Vec<u32>> = (0..rows)
            .map(|_| sizes.iter().map(|&s| next(s)).collect())
            .collect();
        Table::from_rows(schema, &raw)
    }

    #[test]
    fn filter_short_circuits_like_eval() {
        // `eval` never reads the second operand of a decided `Or`/`And`, so
        // a missing attribute there is not looked up; nor is it on an empty
        // table.
        let t = sample();
        let all = t.filter(&Predicate::True.or(Predicate::eq("missing", 0)));
        assert_eq!(rows(&all), rows(&t));
        let none = t.filter(&Predicate::eq("sex", 9).and(Predicate::eq("missing", 0)));
        assert_eq!(none.num_rows(), 0);
        let empty = Table::empty(t.schema().clone()).filter(&Predicate::eq("missing", 0));
        assert_eq!(empty.num_rows(), 0);
    }

    #[test]
    fn group_by_over_a_domain_wider_than_usize() {
        // 2⁹⁰ combinations: grouping keys rows by their values, never by a
        // cell index, so the product of the sizes may overflow.
        let big = 1usize << 30;
        let schema = Schema::from_sizes(&[("a", big), ("b", big), ("c", big)]);
        let top = big as u32 - 1;
        let t = Table::from_rows(schema, &[vec![7, 1, top], vec![0, 0, 0], vec![7, 1, top]]);
        let g = t.group_by(&["a", "b", "c"]);
        assert_eq!(rows(&g), [vec![7, 1, top], vec![0, 0, 0]]);
    }

    #[test]
    fn built_columns_have_exact_capacity() {
        let t = random_table([3, 300, 70_000], 1000, 7);
        let m = t.map_column("c", 4, |v| v % 4);
        for table in [&t, &m] {
            for col in table.columns() {
                let cap = match &**col {
                    Codes::U8(c) => c.capacity(),
                    Codes::U16(c) => c.capacity(),
                    Codes::U32(c) => c.capacity(),
                };
                assert_eq!(cap, table.num_rows());
            }
        }
        assert!(matches!(*m.columns()[2], Codes::U8(_)));
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_value_rejected() {
        let schema = Schema::from_sizes(&[("a", 2)]);
        Table::from_rows(schema, &[vec![2]]);
    }
}
