//! Condition formulas `ϕ` over table rows (paper Definition 3.1).
//!
//! A predicate evaluates on one tuple; `Where` keeps tuples where it holds.
//! Predicates also evaluate on *domain cells*, which is how linear-query
//! coefficient vectors are derived from declarative conditions
//! (paper Def. 3.2: `qᵢ = c₁ϕ₁(i) + … + c_kϕ_k(i)`).

use crate::schema::Schema;

/// A boolean condition over a single row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `attr == value`.
    Eq(String, u32),
    /// `attr ∈ values`.
    In(String, Vec<u32>),
    /// `lo ≤ attr < hi` (half-open, mirroring range queries).
    Range(String, u32, u32),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attr == value`.
    pub fn eq(attr: impl Into<String>, value: u32) -> Self {
        Predicate::Eq(attr.into(), value)
    }

    /// `lo ≤ attr < hi`.
    pub fn range(attr: impl Into<String>, lo: u32, hi: u32) -> Self {
        assert!(lo < hi, "empty predicate range [{lo}, {hi})");
        Predicate::Range(attr.into(), lo, hi)
    }

    /// `attr ∈ values`.
    // xlint: allow(dead-pub, reason = "predicate language of the Where transform; proptest_relational.rs generates it")
    pub fn is_in(attr: impl Into<String>, values: Vec<u32>) -> Self {
        Predicate::In(attr.into(), values)
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    // xlint: allow(dead-pub, reason = "predicate language of the Where transform; proptest_relational.rs generates it")
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    // xlint: allow(dead-pub, reason = "predicate language of the Where transform; proptest_relational.rs generates it")
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates on a row laid out according to `schema`.
    pub fn eval(&self, schema: &Schema, row: &[u32]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(attr, v) => row[schema.require(attr)] == *v,
            Predicate::In(attr, vs) => vs.contains(&row[schema.require(attr)]),
            Predicate::Range(attr, lo, hi) => {
                let v = row[schema.require(attr)];
                *lo <= v && v < *hi
            }
            Predicate::And(a, b) => a.eval(schema, row) && b.eval(schema, row),
            Predicate::Or(a, b) => a.eval(schema, row) || b.eval(schema, row),
            Predicate::Not(a) => !a.eval(schema, row),
        }
    }

    /// The 0/1 coefficient vector of this condition over the vectorized
    /// domain of `schema` (paper Def. 3.2). `O(domain)` — intended for
    /// moderate domains or testing; large-domain plans use the implicit
    /// workload constructors instead.
    // xlint: allow(dead-pub, reason = "a predicate's cell mask; proptest_relational.rs checks Where against it")
    pub fn indicator(&self, schema: &Schema) -> Vec<f64> {
        let n = schema.domain_size();
        let mut out = vec![0.0; n];
        for (i, o) in out.iter_mut().enumerate() {
            if self.eval(schema, &schema.cell_coords(i)) {
                *o = 1.0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_sizes(&[("age", 10), ("sex", 2)])
    }

    #[test]
    fn eq_and_range() {
        let s = schema();
        let p = Predicate::eq("sex", 1).and(Predicate::range("age", 3, 7));
        assert!(p.eval(&s, &[3, 1]));
        assert!(p.eval(&s, &[6, 1]));
        assert!(!p.eval(&s, &[7, 1]));
        assert!(!p.eval(&s, &[4, 0]));
    }

    #[test]
    fn or_not_in() {
        let s = schema();
        let p = Predicate::is_in("age", vec![1, 5]).or(Predicate::eq("sex", 0).not());
        assert!(p.eval(&s, &[1, 0]));
        assert!(p.eval(&s, &[2, 1]));
        assert!(!p.eval(&s, &[2, 0]));
    }

    #[test]
    fn indicator_counts_match() {
        let s = schema();
        let p = Predicate::range("age", 0, 5);
        let ind = p.indicator(&s);
        let total: f64 = ind.iter().sum();
        assert_eq!(total, 10.0); // 5 ages × 2 sexes
    }

    #[test]
    fn true_matches_everything() {
        let s = schema();
        assert_eq!(Predicate::True.indicator(&s).iter().sum::<f64>(), 20.0);
    }

    #[test]
    #[should_panic(expected = "empty predicate range")]
    fn empty_range_rejected() {
        Predicate::range("age", 4, 4);
    }
}
