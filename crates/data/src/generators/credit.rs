//! Credit-Default-like synthetic data (paper §9.3 / Fig. 3 substitution).
//!
//! The paper's Naive-Bayes case study uses the UCI "default of credit card
//! clients" data (Yeh & Lien 2009): 30k tuples, a binary `default` label,
//! and predictive variables X3–X6 with a combined domain of 17,248 =
//! 7 × 4 × 56 × 11. We synthesize the same shape with a logistic
//! ground-truth model: the label depends on the predictors through a
//! linear score, so an unperturbed Naive-Bayes classifier achieves
//! AUC well above chance and DP noise degrades it smoothly as ε falls —
//! the ordering Fig. 3 measures.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::schema::Schema;
use crate::table::Table;

/// Number of rows, matching the UCI dataset.
pub const CREDIT_ROWS: usize = 30_000;

/// Combined domain of the four predictors: 7 × 4 × 56 × 11 = 17,248.
pub const CREDIT_PREDICTOR_DOMAIN: usize = 7 * 4 * 56 * 11;

/// Schema: binary label `default` plus predictors
/// `x3` (education, 7), `x4` (marriage, 4), `x5` (age bins, 56),
/// `x6` (repayment status, 11).
fn credit_schema() -> Schema {
    Schema::from_sizes(&[("default", 2), ("x3", 7), ("x4", 4), ("x5", 56), ("x6", 11)])
}

/// Generates the synthetic credit table (deterministic in `seed`).
pub fn credit_default(seed: u64) -> Table {
    credit_default_sized(CREDIT_ROWS, seed)
}

/// Like [`credit_default`] but with a custom row count.
pub fn credit_default_sized(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ed17);
    let schema = credit_schema();
    let mut table = Table::empty(schema);

    for _ in 0..rows {
        let x3 = sample_categorical(&mut rng, &[0.35, 0.30, 0.20, 0.08, 0.04, 0.02, 0.01]);
        let x4 = sample_categorical(&mut rng, &[0.45, 0.45, 0.08, 0.02]);
        // Age 21..77 → 56 bins, triangular-ish.
        let x5 = {
            let a: f64 = rng.random();
            let b: f64 = rng.random();
            (((a + b) / 2.0) * 56.0) as u32
        };
        // Repayment status −2..8 coded as 0..11; most clients pay on time.
        let x6 = sample_categorical(
            &mut rng,
            &[
                0.12, 0.10, 0.45, 0.18, 0.07, 0.04, 0.02, 0.01, 0.005, 0.003, 0.002,
            ],
        );

        // Logistic ground truth: repayment delays dominate, education and
        // marriage contribute mildly, age has a weak quadratic effect.
        let delay = x6 as f64 - 2.0; // 0 ≈ "paid duly"
        let score = -1.9 + 0.85 * delay.max(0.0) + 0.12 * (x3 as f64 - 1.0)
            - 0.10 * ((x4 == 1) as u32 as f64)
            + 0.0006 * (x5 as f64 - 28.0).powi(2);
        let p = 1.0 / (1.0 + (-score).exp());
        let default = u32::from(rng.random::<f64>() < p);

        table.push_row(&[default, x3.min(6), x4, x5.min(55), x6.min(10)]);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let t = credit_default_sized(5000, 0);
        assert_eq!(t.num_rows(), 5000);
        let predictors = t.schema().project(&["x3", "x4", "x5", "x6"]);
        assert_eq!(predictors.domain_size(), CREDIT_PREDICTOR_DOMAIN);
    }

    #[test]
    fn label_rate_is_plausible() {
        let t = credit_default_sized(30_000, 1);
        let rate = t.column("default").iter().map(|&v| v as f64).sum::<f64>() / t.num_rows() as f64;
        // UCI data has ~22% default rate; accept a broad band.
        assert!(rate > 0.10 && rate < 0.40, "default rate {rate}");
    }

    #[test]
    fn label_is_predictable_from_x6() {
        let t = credit_default_sized(30_000, 2);
        let label = t.column("default");
        let x6 = t.column("x6");
        let rate_given = |delayed: bool| {
            let (mut num, mut den) = (0.0, 0.0);
            for (&l, &v) in label.iter().zip(x6) {
                if (v >= 4) == delayed {
                    den += 1.0;
                    num += l as f64;
                }
            }
            num / den
        };
        assert!(
            rate_given(true) > rate_given(false) + 0.2,
            "delayed payers must default more: {} vs {}",
            rate_given(true),
            rate_given(false)
        );
    }

    #[test]
    fn deterministic() {
        let a = credit_default_sized(100, 5);
        let b = credit_default_sized(100, 5);
        for i in 0..100 {
            assert_eq!(a.row(i), b.row(i));
        }
    }
}
