//! Column classes: the lossless domain reduction of paper §8.
//!
//! Cells whose columns of a measurement matrix are identical are
//! indistinguishable to every query in it, so they can be merged into
//! one cell of a reduced domain (Prop. 8.3 / Thm. 8.4: `x' = P x`).
//! [`Matrix::column_classes`] finds those groups of identical columns
//! and returns the matrix over one representative column per group.
//!
//! The classes come from partition refinement over **segments**, the
//! maximal runs of columns that no row boundary cuts. Each row is first
//! classified by one scan of its stored entries: an *interval* holds one
//! value on a contiguous run of columns (a range, or a sparse row whose
//! stored entries share one bit pattern on contiguous columns, as MWEM's
//! one-row strategies of ones do), an *empty* row holds no non-zero
//! entry, and a *scattered* row is anything else. The cut points are the
//! ends of the intervals and both sides of every scattered entry, so the
//! columns of a segment agree on every row. All segments start in one
//! class; an interval splits the classes of the segments it spans by
//! counting, and a scattered row sorts its entries to split by value. A
//! column key (MWEM's start vector) also cuts wherever its bit pattern
//! changes, so the key split and the numbering by first column run per
//! segment too, and the labels are expanded to columns once, at the end.
//! A history of `t` intervals under a uniform key therefore refines over
//! at most `2t + 1` segments, whatever their length, instead of touching
//! a label per stored entry.

use crate::{CsrMatrix, Matrix, RangeQueries};

/// The classes of identical columns of a matrix, with the matrix reduced
/// to one representative column per class.
#[derive(Clone, Debug)]
pub struct ColumnClasses {
    /// The class of each column. Classes are numbered in order of their
    /// first column, so `labels[0] == 0` and a new class number is always
    /// the largest so far plus one.
    pub labels: Vec<u32>,
    /// The number of columns in each class; they sum to the parent's
    /// column count.
    pub sizes: Vec<usize>,
    /// The parent's rows over the classes: column `k` is the parent's
    /// column at the first member of class `k`, which every member
    /// shares. A [`Matrix::Sparse`] of shape `rows × sizes.len()`.
    pub matrix: Matrix,
}

impl Matrix {
    /// Groups the columns of `self` into classes of identical columns.
    ///
    /// Applies to a [`Matrix::Sparse`] or [`Matrix::Range`] leaf,
    /// optionally under [`Matrix::Scaled`], and to a [`Matrix::Union`] of
    /// such blocks — the shapes of MWEM's measurement history. Explicit
    /// zero entries count as absent.
    ///
    /// One sequential pass reads every stored entry to classify the
    /// rows. With `t` interval rows, `q` non-zero entries in scattered
    /// rows and `s ≤ 2(t + q) + 1` segments (plus one per change of the
    /// key in [`Matrix::column_classes_by`]), the refinement then costs
    /// `O((t + q) log(t + q) + t·s + n)` time, and `O(n + s + rows)`
    /// memory beyond the reduced matrix.
    ///
    /// Returns `None` for any other shape, for a sparse row whose column
    /// indices are not strictly increasing, and when every column is its
    /// own class.
    ///
    /// ```
    /// use ektelo_matrix::Matrix;
    ///
    /// // Two range queries over 6 cells: [0, 4) and [2, 6).
    /// let a = Matrix::range_queries(6, vec![(0, 4), (2, 6)]);
    /// let c = a.column_classes().unwrap();
    /// assert_eq!(c.labels, vec![0, 0, 1, 1, 2, 2]);
    /// assert_eq!(c.sizes, vec![2, 2, 2]);
    /// let u = [1.0, 10.0, 100.0];
    /// assert_eq!(c.matrix.matvec(&u), vec![11.0, 110.0]);
    /// ```
    // xlint: allow(dead-pub, reason = "documented entry point of the column-class analysis (doctest); the solvers' tests use it")
    pub fn column_classes(&self) -> Option<ColumnClasses> {
        self.classes_keyed(None)
    }

    /// [`Matrix::column_classes`] with every class split further by the
    /// bit pattern of `key` (one entry per column), so members of a class
    /// also agree exactly on `key`. Returns `None` where
    /// [`Matrix::column_classes`] does, and when the split leaves every
    /// column in its own class. The key adds one `O(n)` scan that cuts a
    /// segment wherever the key's bit pattern changes; a key that is then
    /// constant on every class, as a uniform start is, adds no sort.
    pub fn column_classes_by(&self, key: &[f64]) -> Option<ColumnClasses> {
        assert_eq!(key.len(), self.cols(), "column key length mismatch");
        self.classes_keyed(Some(key))
    }

    fn classes_keyed(&self, key: Option<&[f64]>) -> Option<ColumnClasses> {
        let mut leaves = Vec::new();
        collect_leaves(self, 1.0, &mut leaves)?;
        let n = self.cols();
        let mut rows = Vec::with_capacity(self.rows());
        for leaf in &leaves {
            leaf.classify(&mut rows)?;
        }

        // Segment `s` is the columns `cuts[s]..cuts[s + 1]`. The key cuts
        // wherever its bit pattern changes, so it is constant on every
        // segment too.
        let mut cuts = vec![0, n];
        for row in &rows {
            match *row {
                Row::Interval { lo, hi, .. } => cuts.extend([lo, hi]),
                Row::Scattered(row) => cuts.extend(row.nonzeros().flat_map(|(c, _)| [c, c + 1])),
                Row::Empty => {}
            }
        }
        if let Some(key) = key {
            cuts.extend((1..n).filter(|&c| key[c].to_bits() != key[c - 1].to_bits()));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let segment = |c: usize| cuts.partition_point(|&x| x < c);

        let mut refiner = Refiner::new(cuts.len() - 1);
        for row in &rows {
            match *row {
                Row::Interval { lo, hi, .. } => refiner.split_uniform(segment(lo)..segment(hi)),
                Row::Scattered(row) => {
                    refiner.scratch.clear();
                    let labels = &refiner.labels;
                    refiner.scratch.extend(row.nonzeros().map(|(c, v)| {
                        let s = segment(c);
                        (labels[s], v.to_bits(), s as u32)
                    }));
                    refiner.split_sorted();
                }
                Row::Empty => {}
            }
        }
        if let Some(key) = key {
            refiner.split_by_key(|s| key[cuts[s]]);
        }
        if refiner.sizes.len() == n {
            return None;
        }
        let (labels, sizes, reps) = refiner.canonical(&cuts, n);
        let matrix = Matrix::sparse(reduced_rows(&rows, &labels, &reps));
        Some(ColumnClasses {
            labels,
            sizes,
            matrix,
        })
    }
}

/// A block of a supported shape, with the product of the scales above it.
enum Leaf<'a> {
    Sparse(f64, &'a CsrMatrix),
    Range(f64, &'a RangeQueries),
}

/// Flattens `m` into its leaves in row order, or `None` for an
/// unsupported shape.
fn collect_leaves<'a>(m: &'a Matrix, scale: f64, out: &mut Vec<Leaf<'a>>) -> Option<()> {
    match m {
        Matrix::Sparse(s) => out.push(Leaf::Sparse(scale, s)),
        Matrix::Range(r) => out.push(Leaf::Range(scale, r)),
        Matrix::Scaled(c, a) => collect_leaves(a, scale * c, out)?,
        Matrix::Union(blocks) => {
            for b in blocks {
                collect_leaves(b, scale, out)?;
            }
        }
        _ => return None,
    }
    Some(())
}

impl<'a> Leaf<'a> {
    /// Appends the kind of each of the leaf's rows to `out`. `None` when
    /// a sparse row's columns are not strictly increasing.
    fn classify(&self, out: &mut Vec<Row<'a>>) -> Option<()> {
        match *self {
            Leaf::Range(scale, q) => out.extend((0..q.num_queries()).map(|r| {
                if scale == 0.0 {
                    Row::Empty
                } else {
                    let (lo, hi) = q.range(r);
                    Row::Interval {
                        lo,
                        hi,
                        value: scale,
                    }
                }
            })),
            Leaf::Sparse(scale, s) => {
                for r in 0..s.rows() {
                    let span = s.indptr()[r]..s.indptr()[r + 1];
                    let row = SparseRow {
                        scale,
                        cols: &s.indices()[span.clone()],
                        values: &s.values()[span],
                    };
                    out.push(row.classify()?);
                }
            }
        }
        Some(())
    }
}

/// What refinement needs to know about one row.
#[derive(Clone, Copy)]
enum Row<'a> {
    /// No non-zero entry.
    Empty,
    /// `value` on each column of `lo..hi`, zero elsewhere.
    Interval { lo: usize, hi: usize, value: f64 },
    /// Any other row, refined and reduced entry by entry.
    Scattered(SparseRow<'a>),
}

/// A stored sparse row under the product of the scales above it.
#[derive(Clone, Copy)]
struct SparseRow<'a> {
    scale: f64,
    cols: &'a [u32],
    values: &'a [f64],
}

impl<'a> SparseRow<'a> {
    /// The scaled non-zero entries as `(column, value)`.
    fn nonzeros(self) -> impl Iterator<Item = (usize, f64)> + 'a {
        let scale = self.scale;
        self.cols
            .iter()
            .zip(self.values)
            .map(move |(&c, &v)| (c as usize, scale * v))
            .filter(|&(_, v)| v != 0.0)
    }

    /// The row's kind, or `None` when its columns do not ascend strictly.
    ///
    /// One branch-free pass over the stored entries checks the column
    /// order and whether the entries hold one bit pattern on contiguous
    /// columns, as MWEM's rows of ones do; such a row is an interval, or
    /// empty when its value scales to zero. Every other row is scattered,
    /// and its entries that scale to zero are dropped where it is read.
    /// A scattered row whose non-zero entries happen to form an interval
    /// refines and reduces exactly as the interval would, over more
    /// segments.
    fn classify(self) -> Option<Row<'a>> {
        let (Some(&lo), Some(&v0)) = (self.cols.first(), self.values.first()) else {
            return Some(Row::Empty);
        };
        let bits = v0.to_bits();
        let (mut ascending, mut interval) = (true, true);
        for ((&a, &b), &v) in self.cols.iter().zip(&self.cols[1..]).zip(&self.values[1..]) {
            ascending &= a < b;
            interval &= (b == a.wrapping_add(1)) & (v.to_bits() == bits);
        }
        if !ascending {
            return None;
        }
        let value = self.scale * v0;
        Some(if !interval {
            Row::Scattered(self)
        } else if value == 0.0 {
            Row::Empty
        } else {
            Row::Interval {
                lo: lo as usize,
                hi: lo as usize + self.cols.len(),
                value,
            }
        })
    }
}

/// The rows over the classes with representative columns `reps`: an
/// interval holds its value on the run of classes whose representatives
/// fall inside it, and a scattered row keeps its entries in
/// representative columns. Both come out in ascending class order,
/// because classes are numbered by first column.
fn reduced_rows(rows: &[Row], labels: &[u32], reps: &[u32]) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    let mut indices = Vec::new();
    let mut data = Vec::new();
    indptr.push(0);
    for row in rows {
        match *row {
            Row::Interval { lo, hi, value } => {
                let first = reps.partition_point(|&c| (c as usize) < lo);
                let end = reps.partition_point(|&c| (c as usize) < hi);
                indices.extend(first as u32..end as u32);
                data.resize(indices.len(), value);
            }
            Row::Scattered(row) => {
                for (c, v) in row.nonzeros() {
                    let k = labels[c];
                    if reps[k as usize] as usize == c {
                        indices.push(k);
                        data.push(v);
                    }
                }
            }
            Row::Empty => {}
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(reps.len(), indptr, indices, data)
}

/// Partition refinement state: a label per segment, a size per class in
/// segments, and scratch for one row.
struct Refiner {
    labels: Vec<u32>,
    sizes: Vec<usize>,
    /// One row's entries as `(label, value bits, segment)`: a scattered
    /// row's segments, or the key's.
    scratch: Vec<(u32, u64, u32)>,
    /// Per class: segments the current row touches, then the class they
    /// move to. Zero between rows.
    count: Vec<u32>,
    target: Vec<u32>,
    touched: Vec<u32>,
}

impl Refiner {
    /// All `segments` segments in one class.
    fn new(segments: usize) -> Self {
        Refiner {
            labels: vec![0; segments],
            sizes: if segments == 0 {
                Vec::new()
            } else {
                vec![segments]
            },
            scratch: Vec::new(),
            count: vec![0; segments],
            target: vec![0; segments],
            touched: Vec::new(),
        }
    }

    /// Splits every class by whether `segments` (distinct segments
    /// sharing one value) touch each member: the touched part of a class the row
    /// covers only partly becomes a new class.
    fn split_uniform(&mut self, segments: impl Iterator<Item = usize> + Clone) {
        for c in segments.clone() {
            let l = self.labels[c] as usize;
            if self.count[l] == 0 {
                self.touched.push(l as u32);
            }
            self.count[l] += 1;
        }
        for &l in &self.touched {
            let l = l as usize;
            let k = self.count[l] as usize;
            self.count[l] = 0;
            self.target[l] = if k == self.sizes[l] {
                l as u32
            } else {
                self.sizes[l] -= k;
                self.sizes.push(k);
                (self.sizes.len() - 1) as u32
            };
        }
        self.touched.clear();
        for c in segments {
            self.labels[c] = self.target[self.labels[c] as usize];
        }
    }

    /// Splits every class the scratch row touches by value. A class the
    /// row covers entirely keeps its label for its first value group;
    /// every other group becomes a new class.
    fn split_sorted(&mut self) {
        let Refiner {
            labels,
            sizes,
            scratch,
            ..
        } = self;
        scratch.sort_unstable();
        for class in scratch.chunk_by(|a, b| a.0 == b.0) {
            let label = class[0].0 as usize;
            let mut keep = class.len() == sizes[label];
            for group in class.chunk_by(|a, b| a.1 == b.1) {
                if keep {
                    keep = false;
                    continue;
                }
                let new = sizes.len() as u32;
                sizes.push(group.len());
                sizes[label] -= group.len();
                for &(_, _, c) in group {
                    labels[c as usize] = new;
                }
            }
        }
    }

    /// Splits the classes by the bit pattern of `key(segment)`. A key that
    /// is already constant on every class — a uniform start vector —
    /// costs one pass and no sort.
    fn split_by_key(&mut self, key: impl Fn(usize) -> f64) {
        let mut first: Vec<Option<u64>> = vec![None; self.sizes.len()];
        let constant = self.labels.iter().enumerate().all(|(s, &l)| {
            let bits = key(s).to_bits();
            *first[l as usize].get_or_insert(bits) == bits
        });
        if constant {
            return;
        }
        self.scratch.clear();
        self.scratch.extend(
            self.labels
                .iter()
                .enumerate()
                .map(|(s, &l)| (l, key(s).to_bits(), s as u32)),
        );
        self.split_sorted();
    }

    /// Renumbers the classes by first column and expands them to the `n`
    /// columns, segment `s` standing for the columns `cuts[s]..cuts[s + 1]`.
    /// Returns the column labels, the class sizes in columns and each
    /// class's first column.
    fn canonical(self, cuts: &[usize], n: usize) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
        let mut renumber = vec![u32::MAX; self.sizes.len()];
        let mut sizes = Vec::with_capacity(self.sizes.len());
        let mut reps = Vec::with_capacity(self.sizes.len());
        let mut labels = Vec::with_capacity(n);
        for (&l, span) in self.labels.iter().zip(cuts.windows(2)) {
            let k = &mut renumber[l as usize];
            if *k == u32::MAX {
                *k = reps.len() as u32;
                reps.push(span[0] as u32);
                sizes.push(0);
            }
            let len = span[1] - span[0];
            sizes[*k as usize] += len;
            labels.resize(labels.len() + len, *k);
        }
        (labels, sizes, reps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Union[Scaled(2, Sparse), Range]` over 8 cells: the sparse row
    /// puts 1 on cells 0..4 and 3 on cells 4, 5; the range counts 2..6.
    fn union() -> Matrix {
        let sparse = CsrMatrix::from_triplets(
            1,
            8,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (0, 4, 3.0),
                (0, 5, 3.0),
                (0, 6, 0.0),
            ],
        );
        Matrix::vstack(vec![
            Matrix::scaled(2.0, Matrix::sparse(sparse)),
            Matrix::range_queries(8, vec![(2, 6)]),
        ])
    }

    #[test]
    fn labels_sizes_and_representatives_of_a_union() {
        let a = union();
        let c = a.column_classes().unwrap();
        // {0, 1}: (2, 0); {2, 3}: (2, 1); {4, 5}: (6, 1); {6, 7}: untouched.
        assert_eq!(c.labels, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(c.sizes, vec![2, 2, 2, 2]);
        assert_eq!(c.matrix.shape(), (2, 4));
        let d = c.matrix.to_dense();
        assert_eq!(d.row_slice(0), &[2.0, 2.0, 6.0, 0.0]);
        assert_eq!(d.row_slice(1), &[0.0, 1.0, 1.0, 0.0]);
        // Every member's column equals its class's representative.
        let full = a.to_dense();
        for (j, &l) in c.labels.iter().enumerate() {
            for r in 0..a.rows() {
                assert_eq!(full.get(r, j), d.get(r, l as usize));
            }
        }
    }

    #[test]
    fn explicit_zeros_count_as_absent() {
        // `map` keeps stored entries that become zero.
        let s = CsrMatrix::from_triplets(1, 4, &[(0, 0, 1.0), (0, 1, 2.0)]).map(|v| v - 2.0);
        assert_eq!(s.nnz(), 2);
        let c = Matrix::sparse(s).column_classes().unwrap();
        assert_eq!(c.labels, vec![0, 1, 1, 1]);
        assert_eq!(c.sizes, vec![1, 3]);
        let zero_scale = Matrix::scaled(0.0, union());
        assert_eq!(zero_scale.column_classes().unwrap().sizes, vec![8]);
    }

    #[test]
    fn other_shapes_and_distinct_columns_return_none() {
        assert!(Matrix::prefix(4).column_classes().is_none());
        assert!(Matrix::kron(Matrix::total(2), Matrix::total(2))
            .column_classes()
            .is_none());
        assert!(
            Matrix::product(Matrix::total(2), Matrix::select_rows(4, &[0, 1]))
                .column_classes()
                .is_none()
        );
        assert!(Matrix::from_rows(vec![vec![1.0, 1.0]])
            .column_classes()
            .is_none());
        let with_dense = Matrix::vstack(vec![union(), Matrix::total(8)]);
        assert!(with_dense.column_classes().is_none());
        // p == n: every column its own class.
        assert!(Matrix::sparse(CsrMatrix::identity(5))
            .column_classes()
            .is_none());
        assert!(Matrix::range_queries(3, vec![(0, 1), (0, 2)])
            .column_classes()
            .is_none());
    }

    #[test]
    fn unsorted_sparse_rows_are_unsupported() {
        // One row storing column 1 twice.
        let dup = || [(0, 1, 1.0), (0, 1, 2.0)].into_iter();
        let a = Matrix::sparse(CsrMatrix::bucket_rows(1, 4, dup));
        assert!(a.column_classes().is_none());
    }

    #[test]
    fn labels_are_deterministic_and_numbered_by_first_column() {
        // Rows listed in a different order refine in a different order
        // but give the same canonical labels.
        let rows = [(0, 5), (3, 8), (1, 2), (6, 7)];
        let forward = Matrix::range_queries(8, rows.to_vec());
        let backward = Matrix::range_queries(8, rows.iter().rev().copied().collect());
        let f = forward.column_classes().unwrap();
        let b = backward.column_classes().unwrap();
        assert_eq!(f.labels, b.labels);
        assert_eq!(f.sizes, b.sizes);
        assert_eq!(f.labels, vec![0, 1, 0, 2, 2, 3, 4, 3]);
        let again = forward.column_classes().unwrap();
        assert_eq!(f.labels, again.labels);
    }

    #[test]
    fn key_split_refines_only_where_the_key_differs() {
        let a = Matrix::range_queries(6, vec![(0, 3)]);
        let plain = a.column_classes().unwrap();
        let keyed = a.column_classes_by(&[0.5; 6]).unwrap();
        assert_eq!(plain.labels, keyed.labels);
        let split = a
            .column_classes_by(&[0.5, 0.5, 1.0, 2.0, 2.0, 2.0])
            .unwrap();
        assert_eq!(split.labels, vec![0, 0, 1, 2, 2, 2]);
        assert_eq!(split.sizes, vec![2, 1, 3]);
        assert_eq!(split.matrix.to_dense().row_slice(0), &[1.0, 1.0, 0.0]);
        // Signed zeros differ in bits, so they split too.
        let signed = a.column_classes_by(&[0.0, -0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(signed.unwrap().labels, vec![0, 1, 0, 2, 2, 2]);
        assert!(a
            .column_classes_by(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .is_none());
    }
}
