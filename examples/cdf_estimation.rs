//! The paper's running example (Algorithm 1): a differentially-private
//! empirical CDF of salary for males in their 30s.
//!
//! Demonstrates the full operator vocabulary: table transformations
//! (Where, Select), vectorization, data-adaptive partition selection
//! (AHP), domain reduction, calibrated measurement, and NNLS inference —
//! all under one privacy budget enforced by the kernel.
//!
//! Run: `cargo run --release --example cdf_estimation`

use ektelo::core::kernel::ProtectedKernel;
use ektelo::data::{Predicate, Schema, Table};
use ektelo::plans::cdf::cdf_estimator;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    // Synthesize the paper's example schema [age, sex, salary] with salary
    // correlated with age; salary is discretized into 64 bands.
    let mut rng = StdRng::seed_from_u64(7);
    let schema = Schema::from_sizes(&[("age", 100), ("sex", 2), ("salary", 64)]);
    let mut table = Table::empty(schema);
    for _ in 0..30_000 {
        let age = rng.random_range(18..90u32);
        let sex = rng.random_range(0..2u32);
        let salary = ((age.min(60) / 3) + rng.random_range(0..24u32)).min(63);
        table.push_row(&[age, sex, salary]);
    }

    // True CDF for comparison (the analyst cannot see this!).
    let pred = Predicate::eq("sex", 0).and(Predicate::range("age", 30, 40));
    let group = table.filter(&pred);
    let mut true_cdf = vec![0.0f64; 64];
    for s in group.column("salary").iter() {
        for c in true_cdf.iter_mut().skip(s as usize) {
            *c += 1.0;
        }
    }

    let kernel = ProtectedKernel::init(table, 1.0, 2024);
    let cdf = cdf_estimator(&kernel, kernel.root(), &pred, "salary", 1.0).expect("plan");

    println!("private CDF of salary (males in their 30s), eps = 1.0");
    println!("{:>8} {:>12} {:>12}", "band", "true", "private");
    for band in (7..64).step_by(8) {
        println!("{band:>8} {:>12.0} {:>12.1}", true_cdf[band], cdf[band]);
    }
    let max_err = true_cdf
        .iter()
        .zip(&cdf)
        .map(|(t, e)| (t - e).abs())
        .fold(0.0f64, f64::max);
    println!(
        "\nmax absolute CDF error: {max_err:.1} of {} group members",
        group.num_rows()
    );
    println!(
        "budget spent: {:.2} (cap {:.2})",
        kernel.budget_spent(),
        kernel.eps_total()
    );
}
