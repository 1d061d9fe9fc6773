//! One table column's attribute codes, stored at the narrowest integer
//! width that holds the attribute's domain.
//!
//! An attribute of `size` values has codes `0..size`. [`Codes`] keeps
//! them as `u8` when `size ≤ 256`, as `u16` when `size ≤ 65,536` and as
//! `u32` otherwise, and widens every code it hands out to `u32`. The loops
//! that scan a whole column (the cell indices of `vectorize` and a
//! consuming pass over [`Codes::iter`], as `map_column` makes) choose the
//! width once, outside the loop.

/// A column of attribute codes at the narrowest width that holds its
/// attribute's domain (see the module docs). Columns of one attribute
/// size share a width, so they compare equal when their codes are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Codes {
    /// Codes of an attribute of at most 256 values.
    U8(Vec<u8>),
    /// Codes of an attribute of at most 65,536 values.
    U16(Vec<u16>),
    /// Codes of a larger attribute.
    U32(Vec<u32>),
}

/// Runs `$body` with `$v` bound to the column's vector, whatever its width.
macro_rules! each_width {
    ($codes:expr, $v:ident => $body:expr) => {
        match $codes {
            Codes::U8($v) => $body,
            Codes::U16($v) => $body,
            Codes::U32($v) => $body,
        }
    };
}

impl Codes {
    /// An empty column for an attribute of `size` values, with room for
    /// `rows` codes.
    pub(crate) fn with_capacity(size: usize, rows: usize) -> Codes {
        if size <= 1 << 8 {
            Codes::U8(Vec::with_capacity(rows))
        } else if size <= 1 << 16 {
            Codes::U16(Vec::with_capacity(rows))
        } else {
            Codes::U32(Vec::with_capacity(rows))
        }
    }

    /// The column of an attribute of `size` values holding `values`, with
    /// exact capacity when the iterator knows its length. Every value must
    /// lie in `0..size`.
    pub(crate) fn collect(size: usize, values: impl Iterator<Item = u32>) -> Codes {
        let mut out = Codes::with_capacity(size, values.size_hint().0);
        match &mut out {
            Codes::U8(c) => c.extend(values.map(|v| v as u8)),
            Codes::U16(c) => c.extend(values.map(|v| v as u16)),
            Codes::U32(c) => c.extend(values),
        }
        out
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        each_width!(self, c => c.len())
    }

    /// Whether the column holds no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code `i`. Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Codes::U8(c) => c[i].into(),
            Codes::U16(c) => c[i].into(),
            Codes::U32(c) => c[i],
        }
    }

    /// Every code, in row order. Two of the three chained parts are
    /// empty, so a consuming loop (`collect`, `for_each`, `fold`) runs one
    /// tight loop over the stored width.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (narrow, mid, wide): (&[u8], &[u16], &[u32]) = match self {
            Codes::U8(c) => (c, &[], &[]),
            Codes::U16(c) => (&[], c, &[]),
            Codes::U32(c) => (&[], &[], c),
        };
        narrow
            .iter()
            .map(|&v| u32::from(v))
            .chain(mid.iter().map(|&v| u32::from(v)))
            .chain(wide.iter().copied())
    }

    /// Appends code `v`, which the caller has checked against the
    /// attribute's domain.
    pub(crate) fn push(&mut self, v: u32) {
        match self {
            Codes::U8(c) => c.push(v as u8),
            Codes::U16(c) => c.push(v as u16),
            Codes::U32(c) => c.push(v),
        }
    }

    /// Room for `rows` more codes, exactly.
    pub(crate) fn reserve(&mut self, rows: usize) {
        each_width!(self, c => c.reserve_exact(rows))
    }

    /// Folds the codes of rows `start..start + cells.len()` into mixed-radix
    /// cell indices: `cell = cell · size + code` for an attribute of
    /// `size` values.
    pub(crate) fn fold_cells(&self, start: usize, cells: &mut [usize], size: usize) {
        fn fold<T: Copy + Into<u32>>(codes: &[T], cells: &mut [usize], size: usize) {
            for (c, &v) in cells.iter_mut().zip(codes) {
                *c = *c * size + v.into() as usize;
            }
        }
        let rows = start..start + cells.len();
        each_width!(self, c => fold(&c[rows], cells, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_follows_the_domain_size() {
        let widths = [1, 256, 257, 65_536, 65_537].map(|s| match Codes::with_capacity(s, 0) {
            Codes::U8(_) => 1,
            Codes::U16(_) => 2,
            Codes::U32(_) => 4,
        });
        assert_eq!(widths, [1, 1, 2, 2, 4]);
    }

    #[test]
    fn reads_widen_every_width() {
        for size in [256, 65_536, 65_537] {
            let top = size as u32 - 1;
            let c = Codes::collect(size, [0, top, 7].into_iter());
            assert_eq!(c.len(), 3);
            assert_eq!(c.get(1), top);
            assert_eq!(c.iter().collect::<Vec<_>>(), vec![0, top, 7]);
            let mut cells = [1usize; 2];
            c.fold_cells(1, &mut cells, size);
            assert_eq!(cells, [size + top as usize, size + 7]);
        }
    }
}
