//! CPS-Census-like synthetic data (paper §9.2 / Table 5 substitution).
//!
//! The paper uses a March-2000 Current Population Survey extract:
//! 49,436 heads-of-household with income (5000 uniform bins over
//! (0, 750 000)), age (5 uniform bins over (0, 100)), marital status (7),
//! race (4) and gender (2) — a 1.4M-cell domain. We generate the same
//! schema and cardinality with a correlated joint distribution: log-normal
//! income whose location shifts with age and gender, marital status
//! dependent on age, and mild race/income interaction. Data-dependent
//! plans (DAWA-Striped, AHP) exploit exactly this kind of
//! correlation/sparsity structure.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::schema::Schema;
use crate::table::Table;

/// Number of rows, matching the paper's CPS extract.
pub const CENSUS_ROWS: usize = 49_436;

/// Full vectorized domain: 5000 × 5 × 7 × 4 × 2 = 1,400,000 cells.
pub const CENSUS_DOMAIN: usize = 5000 * 5 * 7 * 4 * 2;

/// The census schema: `[income, age, marital, race, gender]`.
fn census_schema() -> Schema {
    Schema::from_sizes(&[
        ("income", 5000),
        ("age", 5),
        ("marital", 7),
        ("race", 4),
        ("gender", 2),
    ])
}

/// Generates a synthetic CPS table of `rows` rows (deterministic in
/// `seed`); [`CENSUS_ROWS`] gives the paper's size, and scalability
/// sweeps shrink it to keep bench times reasonable.
pub fn census_cps_sized(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xce9505);
    let schema = census_schema();
    let mut table = Table::empty(schema);

    for _ in 0..rows {
        let gender = rng.random_range(0..2u32);
        // Age buckets of 20 years; working-age skew.
        let age = sample_categorical(&mut rng, &[0.08, 0.27, 0.30, 0.22, 0.13]);
        // Marital status depends on age bucket.
        let marital = match age {
            0 => sample_categorical(&mut rng, &[0.75, 0.15, 0.02, 0.02, 0.02, 0.02, 0.02]),
            1 => sample_categorical(&mut rng, &[0.35, 0.45, 0.08, 0.05, 0.03, 0.02, 0.02]),
            2 => sample_categorical(&mut rng, &[0.15, 0.55, 0.12, 0.08, 0.05, 0.03, 0.02]),
            3 => sample_categorical(&mut rng, &[0.08, 0.55, 0.12, 0.10, 0.08, 0.04, 0.03]),
            _ => sample_categorical(&mut rng, &[0.05, 0.45, 0.08, 0.08, 0.28, 0.03, 0.03]),
        };
        let race = sample_categorical(&mut rng, &[0.72, 0.13, 0.10, 0.05]);

        // Log-normal income; location rises with age (experience), shifts
        // with gender, small race interaction. Units: dollars, capped at
        // 750k then binned into 5000 uniform bins of $150.
        let base = 10.1
            + 0.18 * age as f64
            + if gender == 0 { 0.12 } else { 0.0 }
            + match race {
                0 => 0.05,
                1 => -0.05,
                _ => 0.0,
            };
        let sigma = 0.75;
        let z = gaussian(&mut rng);
        let income_dollars = (base + sigma * z).exp().min(749_999.0);
        let income_bin = (income_dollars / 150.0) as u32;

        table.push_row(&[income_bin.min(4999), age, marital, race, gender]);
    }
    table
}

fn sample_categorical(rng: &mut StdRng, probs: &[f64]) -> u32 {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i as u32;
        }
    }
    (probs.len() - 1) as u32
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectorize::vectorize;

    #[test]
    fn matches_paper_cardinality_and_domain() {
        let t = census_cps_sized(2000, 0);
        assert_eq!(t.schema().domain_size(), CENSUS_DOMAIN);
        assert_eq!(t.num_rows(), 2000);
    }

    #[test]
    fn is_deterministic() {
        let a = census_cps_sized(500, 9);
        let b = census_cps_sized(500, 9);
        for i in 0..a.num_rows() {
            assert_eq!(a.row(i), b.row(i));
        }
    }

    #[test]
    fn income_correlates_with_age() {
        let t = census_cps_sized(20_000, 1);
        let income = t.column("income");
        let age = t.column("age");
        let mean_income = |bucket: u32| {
            let vals: Vec<f64> = income
                .iter()
                .zip(age)
                .filter(|&(_, &a)| a == bucket)
                .map(|(&i, _)| i as f64)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            mean_income(4) > mean_income(0) * 1.3,
            "older cohort should earn visibly more"
        );
    }

    #[test]
    fn projection_vectorizes_small_domains() {
        let t = census_cps_sized(1000, 2);
        let small = t.select(&["age", "gender"]);
        let x = vectorize(&small);
        assert_eq!(x.len(), 10);
        assert_eq!(x.iter().sum::<f64>(), 1000.0);
    }

    #[test]
    fn marital_depends_on_age() {
        let t = census_cps_sized(20_000, 3);
        let age = t.column("age");
        let marital = t.column("marital");
        let never_married_rate = |bucket: u32| {
            let (mut num, mut den) = (0.0, 0.0);
            for (&a, &m) in age.iter().zip(marital) {
                if a == bucket {
                    den += 1.0;
                    if m == 0 {
                        num += 1.0;
                    }
                }
            }
            num / den
        };
        assert!(never_married_rate(0) > never_married_rate(3) + 0.2);
    }
}
