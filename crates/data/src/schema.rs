//! Schemas: attribute metadata and the row-major cell encoding.
//!
//! Every attribute is discrete with values coded `0..size`. The vectorized
//! domain is the cartesian product of attribute domains; cell indices use
//! row-major order with the *first* attribute most significant, matching
//! the Kronecker conventions of `ektelo-matrix` (`A ⊗ B` pairs attribute
//! order with index order).

use std::sync::Arc;

/// A discrete attribute: a name plus domain size (values are `0..size`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    size: usize,
}

impl Attribute {
    /// Creates an attribute with `size` possible values.
    pub fn new(name: impl Into<String>, size: usize) -> Self {
        let name = name.into();
        assert!(size > 0, "attribute '{name}' must have a positive domain");
        Attribute { name, size }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of distinct values.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// An ordered list of attributes defining a relation's shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    attrs: Arc<Vec<Attribute>>,
}

impl Schema {
    /// Builds a schema; attribute names must be unique.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        for i in 0..attrs.len() {
            for j in (i + 1)..attrs.len() {
                assert_ne!(
                    attrs[i].name(),
                    attrs[j].name(),
                    "duplicate attribute name '{}'",
                    attrs[i].name()
                );
            }
        }
        Schema {
            attrs: Arc::new(attrs),
        }
    }

    /// Convenience constructor from `(name, size)` pairs.
    pub fn from_sizes(pairs: &[(&str, usize)]) -> Self {
        Schema::new(pairs.iter().map(|&(n, s)| Attribute::new(n, s)).collect())
    }

    /// The attributes in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Per-attribute domain sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.attrs.iter().map(Attribute::size).collect()
    }

    /// The full vectorized domain size (product of attribute domains).
    /// Panics on overflow — such a domain cannot be vectorized anyway.
    pub fn domain_size(&self) -> usize {
        self.attrs.iter().fold(1usize, |acc, a| {
            acc.checked_mul(a.size()).expect("domain size overflow")
        })
    }

    /// Index of the attribute named `name`; panics with a clear message
    /// when the schema has none.
    pub fn require(&self, name: &str) -> usize {
        self.attrs
            .iter()
            .position(|a| a.name() == name)
            .unwrap_or_else(|| panic!("schema has no attribute named '{name}'"))
    }

    /// Maps an attribute-value row to its row-major cell index.
    // xlint: allow(dead-pub, reason = "the cell encoding every count vector uses (vectorize computes it column by column; stripe labels and cell_coords invert it); the crate's tests pin both against it")
    pub fn cell_index(&self, row: &[u32]) -> usize {
        assert_eq!(row.len(), self.arity(), "row arity mismatch");
        let mut idx = 0usize;
        for (a, &v) in self.attrs.iter().zip(row) {
            debug_assert!(
                (v as usize) < a.size(),
                "value {v} out of domain for attribute '{}'",
                a.name()
            );
            idx = idx * a.size() + v as usize;
        }
        idx
    }

    /// Inverse of [`Schema::cell_index`].
    pub fn cell_coords(&self, mut idx: usize) -> Vec<u32> {
        let mut coords = vec![0u32; self.arity()];
        for (slot, a) in coords.iter_mut().zip(self.attrs.iter()).rev() {
            *slot = (idx % a.size()) as u32;
            idx /= a.size();
        }
        debug_assert_eq!(idx, 0, "cell index out of range");
        coords
    }

    /// The schema restricted to the named attributes (in the given order).
    pub fn project(&self, names: &[&str]) -> Schema {
        let attrs = names
            .iter()
            .map(|n| self.attrs[self.require(n)].clone())
            .collect();
        Schema::new(attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::from_sizes(&[("a", 2), ("b", 3), ("c", 4)])
    }

    #[test]
    fn domain_size_is_product() {
        assert_eq!(abc().domain_size(), 24);
    }

    #[test]
    fn cell_index_roundtrip() {
        let s = abc();
        for idx in 0..s.domain_size() {
            let coords = s.cell_coords(idx);
            assert_eq!(s.cell_index(&coords), idx);
        }
    }

    #[test]
    fn first_attribute_is_most_significant() {
        let s = abc();
        assert_eq!(s.cell_index(&[0, 0, 0]), 0);
        assert_eq!(s.cell_index(&[0, 0, 1]), 1);
        assert_eq!(s.cell_index(&[0, 1, 0]), 4);
        assert_eq!(s.cell_index(&[1, 0, 0]), 12);
    }

    #[test]
    fn projection_keeps_order_given() {
        let s = abc().project(&["c", "a"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.attributes()[0].name(), "c");
        assert_eq!(s.domain_size(), 8);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_names_rejected() {
        Schema::from_sizes(&[("a", 2), ("a", 3)]);
    }

    #[test]
    #[should_panic(expected = "no attribute named")]
    fn missing_attribute_panics() {
        abc().require("zzz");
    }
}
