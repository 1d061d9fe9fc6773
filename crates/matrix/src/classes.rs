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
//!
//! The refinement is incremental, and this is its only form: a
//! [`ColumnRefinement`] holds the cuts, the labels and the classified
//! rows, and refining it by more rows adds their cuts (a segment they cut
//! into splits into pieces of its class) and splits by those rows alone.
//! [`Matrix::column_classes`] refines an empty state by every row; MWEM
//! keeps one state across its rounds and refines it by each round's new
//! rows.

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
    /// zero entries count as absent. This is a [`ColumnRefinement`] of no
    /// rows refined by every row of `self`.
    ///
    /// One sequential pass reads every stored entry to classify the
    /// rows. With `t` interval rows, `q` non-zero entries in scattered
    /// rows and `s ≤ 2(t + q) + 1` segments (plus one per change of the
    /// key in [`Matrix::column_classes_by`]), the refinement then costs
    /// `O((t + q) log(t + q) + t·s + n)` time, and `O(n + s + rows + q)`
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
        self.classes_keyed(Some(key))
    }

    fn classes_keyed(&self, key: Option<&[f64]>) -> Option<ColumnClasses> {
        let mut refinement = ColumnRefinement::new(self.cols(), key);
        refinement.refine(self)?;
        refinement.classes()
    }
}

/// The column classes of a stack of rows that grows: the state of the
/// partition refinement behind [`Matrix::column_classes`], kept so that
/// more rows refine it further without reading the earlier ones again.
///
/// MWEM measures a few rows a round and runs multiplicative weights over
/// the classes of everything measured so far. Keeping one refinement
/// across the rounds and refining it by each round's new rows costs the
/// new rows' entries plus the segments, where building the classes of
/// the whole history afresh reads every stored entry of it every round.
/// The classes after any sequence of [`ColumnRefinement::refine`] calls
/// are those of the rows stacked in the same order, bit for bit: the
/// partition does not depend on the order rows split it in, and the
/// labels are numbered by first column.
///
/// ```
/// use ektelo_matrix::{ColumnRefinement, Matrix};
///
/// let mut r = ColumnRefinement::new(6, None);
/// r.refine(&Matrix::range_queries(6, vec![(0, 4)])).unwrap();
/// r.refine(&Matrix::range_queries(6, vec![(2, 6)])).unwrap();
/// let both = Matrix::range_queries(6, vec![(0, 4), (2, 6)]);
/// assert_eq!(r.classes().unwrap().labels, both.column_classes().unwrap().labels);
/// ```
#[derive(Clone, Debug)]
pub struct ColumnRefinement {
    /// Segment `s` is the columns `cuts[s]..cuts[s + 1]`; the first cut is
    /// 0 and the last is the column count.
    cuts: Vec<usize>,
    refiner: Refiner,
    /// Every row refined so far, in order.
    rows: Vec<Row>,
    /// The non-zero entries of the scattered rows, as `(column, value)`.
    entries: Vec<(u32, f64)>,
}

impl ColumnRefinement {
    /// The classes of `n` columns and no rows: one class, split by the
    /// bit pattern of `key` (one entry per column) when given.
    pub fn new(n: usize, key: Option<&[f64]>) -> Self {
        // The key cuts wherever its bit pattern changes, so it is constant
        // on every segment, and every later segment lies inside one of
        // these.
        let mut cuts = vec![0];
        if let Some(key) = key {
            assert_eq!(key.len(), n, "column key length mismatch");
            cuts.extend((1..n).filter(|&c| key[c].to_bits() != key[c - 1].to_bits()));
        }
        if n > 0 {
            cuts.push(n);
        }
        let mut refiner = Refiner::new(cuts.len() - 1);
        if let Some(key) = key {
            refiner.split_by_key(|s| key[cuts[s]]);
        }
        ColumnRefinement {
            cuts,
            refiner,
            rows: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Splits the classes by every row of `m`, appended after the rows
    /// refined so far. `m` takes the shapes [`Matrix::column_classes`]
    /// does; for any other shape, or a sparse row whose column indices
    /// are not strictly increasing, returns `None` and leaves the state
    /// as it was.
    pub fn refine(&mut self, m: &Matrix) -> Option<()> {
        assert_eq!(m.cols(), self.cols(), "refinement column count mismatch");
        let mut leaves = Vec::new();
        collect_leaves(m, 1.0, &mut leaves)?;
        let (first, stored) = (self.rows.len(), self.entries.len());
        for leaf in &leaves {
            if leaf.classify(&mut self.rows, &mut self.entries).is_none() {
                self.rows.truncate(first);
                self.entries.truncate(stored);
                return None;
            }
        }

        // The new rows' cuts: interval ends and both sides of every
        // scattered entry.
        let mut fresh = Vec::new();
        for row in &self.rows[first..] {
            match *row {
                Row::Interval { lo, hi, .. } => fresh.extend([lo, hi]),
                Row::Scattered { start, end } => fresh.extend(
                    self.entries[start..end]
                        .iter()
                        .flat_map(|&(c, _)| [c as usize, c as usize + 1]),
                ),
                Row::Empty => {}
            }
        }
        self.cut(fresh);

        let ColumnRefinement {
            cuts,
            refiner,
            rows,
            entries,
        } = self;
        let segment = |c: usize| cuts.partition_point(|&x| x < c);
        for row in &rows[first..] {
            match *row {
                Row::Interval { lo, hi, .. } => refiner.split_uniform(segment(lo)..segment(hi)),
                Row::Scattered { start, end } => {
                    refiner.scratch.clear();
                    let labels = &refiner.labels;
                    refiner
                        .scratch
                        .extend(entries[start..end].iter().map(|&(c, v)| {
                            let s = segment(c as usize);
                            (labels[s], v.to_bits(), s as u32)
                        }));
                    refiner.split_sorted();
                }
                Row::Empty => {}
            }
        }
        Some(())
    }

    /// The classes of every row refined so far, with those rows reduced to
    /// one representative column per class, or `None` when every column
    /// is its own class. Costs `O(s + n)` plus the reduced rows.
    pub fn classes(&self) -> Option<ColumnClasses> {
        let n = self.cols();
        if self.refiner.sizes.len() == n {
            return None;
        }
        let (labels, sizes, reps) = self.refiner.canonical(&self.cuts, n);
        let matrix = Matrix::sparse(self.reduced_rows(&labels, &reps));
        Some(ColumnClasses {
            labels,
            sizes,
            matrix,
        })
    }

    fn cols(&self) -> usize {
        self.cuts[self.cuts.len() - 1]
    }

    /// Adds the cuts `fresh` (in any order, repeats allowed). A segment a
    /// new cut falls inside splits into pieces that keep its class: no
    /// earlier row and no key cut separates them.
    fn cut(&mut self, mut fresh: Vec<usize>) {
        fresh.sort_unstable();
        fresh.dedup();
        let mut fresh = fresh.into_iter().peekable();
        let old = std::mem::take(&mut self.cuts);
        let Refiner { labels, sizes, .. } = &mut self.refiner;
        let old_labels = std::mem::take(labels);
        let mut cuts = Vec::with_capacity(old.len() + fresh.len());
        labels.reserve(old_labels.len() + fresh.len());
        for (span, &l) in old.windows(2).zip(&old_labels) {
            cuts.push(span[0]);
            labels.push(l);
            while fresh.next_if(|&c| c <= span[0]).is_some() {}
            while let Some(c) = fresh.next_if(|&c| c < span[1]) {
                cuts.push(c);
                labels.push(l);
                sizes[l as usize] += 1;
            }
        }
        cuts.push(old[old.len() - 1]);
        self.cuts = cuts;
        self.refiner.grow(self.refiner.labels.len());
    }

    /// The rows over the classes with representative columns `reps`: an
    /// interval holds its value on the run of classes whose
    /// representatives fall inside it, and a scattered row keeps its
    /// entries in representative columns. Both come out in ascending
    /// class order, because classes are numbered by first column.
    fn reduced_rows(&self, labels: &[u32], reps: &[u32]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.rows.len() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for row in &self.rows {
            match *row {
                Row::Interval { lo, hi, value } => {
                    let first = reps.partition_point(|&c| (c as usize) < lo);
                    let end = reps.partition_point(|&c| (c as usize) < hi);
                    indices.extend(first as u32..end as u32);
                    data.resize(indices.len(), value);
                }
                Row::Scattered { start, end } => {
                    for &(c, v) in &self.entries[start..end] {
                        let k = labels[c as usize];
                        if reps[k as usize] == c {
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
            for b in blocks.iter() {
                collect_leaves(b, scale, out)?;
            }
        }
        _ => return None,
    }
    Some(())
}

impl Leaf<'_> {
    /// Appends the kind of each of the leaf's rows to `rows`, and the
    /// non-zero entries of its scattered rows to `entries`. `None` when a
    /// sparse row's columns are not strictly increasing.
    fn classify(&self, rows: &mut Vec<Row>, entries: &mut Vec<(u32, f64)>) -> Option<()> {
        match *self {
            Leaf::Range(scale, q) => rows.extend((0..q.num_queries()).map(|r| {
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
                    let cols = &s.indices()[span.clone()];
                    let values = &s.values()[span];
                    rows.push(classify_sparse_row(scale, cols, values, entries)?);
                }
            }
        }
        Some(())
    }
}

/// What refinement needs to know about one row.
#[derive(Clone, Copy, Debug)]
enum Row {
    /// No non-zero entry.
    Empty,
    /// `value` on each column of `lo..hi`, zero elsewhere.
    Interval { lo: usize, hi: usize, value: f64 },
    /// Any other row, refined and reduced entry by entry: its non-zero
    /// entries are `entries[start..end]` of the refinement.
    Scattered { start: usize, end: usize },
}

/// The kind of the sparse row with stored entries `cols`/`values` under
/// the product `scale` of the scales above it, or `None` when its columns
/// do not ascend strictly.
///
/// One branch-free pass over the stored entries checks the column order
/// and whether the entries hold one bit pattern on contiguous columns, as
/// MWEM's rows of ones do; such a row is an interval, or empty when its
/// value scales to zero. Every other row is scattered: its scaled
/// non-zero entries are appended to `entries`. A scattered row whose
/// non-zero entries happen to form an interval refines and reduces
/// exactly as the interval would, over more segments.
fn classify_sparse_row(
    scale: f64,
    cols: &[u32],
    values: &[f64],
    entries: &mut Vec<(u32, f64)>,
) -> Option<Row> {
    let (Some(&lo), Some(&v0)) = (cols.first(), values.first()) else {
        return Some(Row::Empty);
    };
    let bits = v0.to_bits();
    let (mut ascending, mut interval) = (true, true);
    for ((&a, &b), &v) in cols.iter().zip(&cols[1..]).zip(&values[1..]) {
        ascending &= a < b;
        interval &= (b == a.wrapping_add(1)) & (v.to_bits() == bits);
    }
    if !ascending {
        return None;
    }
    let value = scale * v0;
    Some(if !interval {
        let start = entries.len();
        entries.extend(
            cols.iter()
                .zip(values)
                .map(|(&c, &v)| (c, scale * v))
                .filter(|&(_, v)| v != 0.0),
        );
        Row::Scattered {
            start,
            end: entries.len(),
        }
    } else if value == 0.0 {
        Row::Empty
    } else {
        Row::Interval {
            lo: lo as usize,
            hi: lo as usize + cols.len(),
            value,
        }
    })
}

/// Partition refinement state: a label per segment, a size per class in
/// segments, and scratch for one row.
#[derive(Clone, Debug)]
struct Refiner {
    labels: Vec<u32>,
    sizes: Vec<usize>,
    /// One row's entries as `(label, value bits, segment)`: a scattered
    /// row's segments, or the key's.
    scratch: Vec<(u32, u64, u32)>,
    /// Per class: segments the current row touches, then the class they
    /// move to. Zero between rows; as long as the segment count, which
    /// bounds the class count.
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

    /// Sizes the per-class scratch for `segments` segments.
    fn grow(&mut self, segments: usize) {
        self.count.resize(segments, 0);
        self.target.resize(segments, 0);
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
    fn canonical(&self, cuts: &[usize], n: usize) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
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
