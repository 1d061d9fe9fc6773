//! Column classes: the lossless domain reduction of paper §8.
//!
//! Cells whose columns of a measurement matrix are identical are
//! indistinguishable to every query in it, so they can be merged into
//! one cell of a reduced domain (Prop. 8.3 / Thm. 8.4: `x' = P x`).
//! [`Matrix::column_classes`] finds those groups of identical columns
//! and returns the matrix over one representative column per group.
//!
//! The classes come from partition refinement over the rows: all columns
//! start in one class, and each row splits every class it touches by the
//! row's value in each member column. Refinement holds one label per
//! column and one row's entries at a time — never a per-column
//! signature. A row holding one value (a range, or MWEM's rows of ones)
//! splits by counting; only rows with several values are sorted.

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
    /// zero entries count as absent. Runs in `O(Σ nnz · log(row nnz) + n)`
    /// time (a range row counts its length as its `nnz`) and
    /// `O(n + classes + max row nnz)` memory.
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
    pub fn column_classes(&self) -> Option<ColumnClasses> {
        self.classes_keyed(None)
    }

    /// [`Matrix::column_classes`] with every class split further by the
    /// bit pattern of `key` (one entry per column), so members of a class
    /// also agree exactly on `key`. Returns `None` where
    /// [`Matrix::column_classes`] does, and when the split leaves every
    /// column in its own class.
    pub fn column_classes_by(&self, key: &[f64]) -> Option<ColumnClasses> {
        assert_eq!(key.len(), self.cols(), "column key length mismatch");
        self.classes_keyed(Some(key))
    }

    fn classes_keyed(&self, key: Option<&[f64]>) -> Option<ColumnClasses> {
        let mut leaves = Vec::new();
        collect_leaves(self, 1.0, &mut leaves)?;
        let n = self.cols();
        let mut refiner = Refiner::new(n);
        for leaf in &leaves {
            for r in 0..leaf.rows() {
                leaf.refine(r, &mut refiner)?;
            }
        }
        if let Some(key) = key {
            refiner.split_by_key(key);
        }
        if refiner.sizes.len() == n {
            return None;
        }
        let (labels, sizes, reps) = refiner.canonical();

        let mut triplets = Vec::new();
        let mut row = 0;
        for leaf in &leaves {
            for r in 0..leaf.rows() {
                leaf.reduced_row(r, row, &labels, &reps, &mut triplets);
                row += 1;
            }
        }
        let matrix = Matrix::sparse(CsrMatrix::from_triplets(row, sizes.len(), &triplets));
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

impl Leaf<'_> {
    fn rows(&self) -> usize {
        match self {
            Leaf::Sparse(_, s) => s.rows(),
            Leaf::Range(_, r) => r.num_queries(),
        }
    }

    /// Row `r` of a sparse leaf: its columns and unscaled values.
    fn sparse_row(s: &CsrMatrix, r: usize) -> (&[u32], &[f64]) {
        let span = s.indptr()[r]..s.indptr()[r + 1];
        (&s.indices()[span.clone()], &s.values()[span])
    }

    /// Refines `refiner`'s classes by row `r`. `None` when a sparse row's
    /// columns are not strictly increasing.
    fn refine(&self, r: usize, refiner: &mut Refiner) -> Option<()> {
        match *self {
            Leaf::Range(scale, q) => {
                if scale != 0.0 {
                    let (lo, hi) = q.range(r);
                    refiner.split_uniform(lo..hi);
                }
            }
            Leaf::Sparse(scale, s) => {
                let (cols, values) = Self::sparse_row(s, r);
                if cols.windows(2).any(|w| w[0] >= w[1]) {
                    return None;
                }
                let nonzero = cols
                    .iter()
                    .zip(values)
                    .map(move |(&c, &v)| (c, scale * v))
                    .filter(|&(_, v)| v != 0.0);
                let mut bits = nonzero.clone().map(|(_, v)| v.to_bits());
                let first = bits.next();
                if bits.all(|b| Some(b) == first) {
                    // One value (MWEM's rows of ones): no sort needed.
                    refiner.split_uniform(nonzero.map(|(c, _)| c as usize));
                } else {
                    refiner.scratch.clear();
                    let labels = &refiner.labels;
                    refiner
                        .scratch
                        .extend(nonzero.map(|(c, v)| (labels[c as usize], v.to_bits(), c)));
                    refiner.split_sorted();
                }
            }
        }
        Some(())
    }

    /// Appends row `r`'s entries in the representative columns `reps` as
    /// `(row, class, value)` triplets.
    fn reduced_row(
        &self,
        r: usize,
        row: usize,
        labels: &[u32],
        reps: &[u32],
        out: &mut Vec<(usize, usize, f64)>,
    ) {
        match *self {
            Leaf::Range(scale, q) => {
                // Representatives ascend, so those inside the range are
                // one run of classes.
                let (lo, hi) = q.range(r);
                let first = reps.partition_point(|&c| (c as usize) < lo);
                let end = reps.partition_point(|&c| (c as usize) < hi);
                out.extend((first..end).map(|k| (row, k, scale)));
            }
            Leaf::Sparse(scale, s) => {
                let (cols, values) = Self::sparse_row(s, r);
                for (&c, &v) in cols.iter().zip(values) {
                    let k = labels[c as usize] as usize;
                    if reps[k] == c {
                        out.push((row, k, scale * v));
                    }
                }
            }
        }
    }
}

/// Partition refinement state: a label per column, a size per class, and
/// scratch for one row.
struct Refiner {
    labels: Vec<u32>,
    sizes: Vec<usize>,
    /// A multi-valued row's entries as `(label, value bits, column)`.
    scratch: Vec<(u32, u64, u32)>,
    /// Per class: columns the current row touches, then the class they
    /// move to. Zero between rows.
    count: Vec<u32>,
    target: Vec<u32>,
    touched: Vec<u32>,
}

impl Refiner {
    fn new(n: usize) -> Self {
        Refiner {
            labels: vec![0; n],
            sizes: if n == 0 { Vec::new() } else { vec![n] },
            scratch: Vec::new(),
            count: vec![0; n],
            target: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Splits every class by whether `cols` (distinct columns sharing one
    /// value) touch each member: the touched part of a class the row
    /// covers only partly becomes a new class.
    fn split_uniform(&mut self, cols: impl Iterator<Item = usize> + Clone) {
        for c in cols.clone() {
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
        for c in cols {
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

    /// Splits the classes by the bit pattern of `key`. A key that is
    /// already constant on every class — a uniform start vector — costs
    /// one pass and no sort.
    fn split_by_key(&mut self, key: &[f64]) {
        let mut first: Vec<Option<u64>> = vec![None; self.sizes.len()];
        let constant = self.labels.iter().zip(key).all(|(&l, v)| {
            let seen = first[l as usize].get_or_insert(v.to_bits());
            *seen == v.to_bits()
        });
        if constant {
            return;
        }
        self.scratch.clear();
        self.scratch.extend(
            key.iter()
                .zip(&self.labels)
                .enumerate()
                .map(|(c, (v, &l))| (l, v.to_bits(), c as u32)),
        );
        self.split_sorted();
    }

    /// Renumbers the classes by first column. Returns the labels, the
    /// sizes and each class's first column.
    fn canonical(self) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
        let mut renumber = vec![u32::MAX; self.sizes.len()];
        let mut sizes = Vec::with_capacity(self.sizes.len());
        let mut reps = Vec::with_capacity(self.sizes.len());
        let mut labels = self.labels;
        for (c, l) in labels.iter_mut().enumerate() {
            let k = &mut renumber[*l as usize];
            if *k == u32::MAX {
                *k = reps.len() as u32;
                reps.push(c as u32);
                sizes.push(self.sizes[*l as usize]);
            }
            *l = *k;
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
