//! The census case study (paper §9.2) in miniature: answering a workload
//! of income-prefix tabulations over a multi-dimensional domain with the
//! striped plans, and comparing against the Identity baseline.
//!
//! Also shows off the implicit-matrix machinery: the workload below has
//! hundreds of thousands of queries over a six-figure domain yet stores
//! no scalars at all (paper Example 7.3).
//!
//! Run: `cargo run --release --example census_workload`

use ektelo::core::kernel::ProtectedKernel;
use ektelo::data::generators::census_cps_sized;
use ektelo::data::workloads::census_prefix_income;
use ektelo::data::Table;
use ektelo::plans::baseline::plan_identity;
use ektelo::plans::striped::{plan_dawa_striped, plan_hb_striped_kron};

/// Coarsen income so the example runs in seconds (500 bins instead of
/// 5000; the full-scale run lives in `ektelo-bench --bin table5`).
fn rebin(t: &Table, bins: usize) -> Table {
    let factor = t.schema().sizes()[0].div_ceil(bins);
    t.map_column("income", bins, |v| {
        (v as usize / factor).min(bins - 1) as u32
    })
}

fn main() {
    let table = rebin(&census_cps_sized(49_436, 7), 500);
    let sizes = table.schema().sizes();
    let domain: usize = sizes.iter().product();
    let x_true = ektelo::data::vectorize(&table);

    // The Census Bureau-style workload: every income-prefix count broken
    // down by any combination of fixed/any demographic attributes.
    let workload = census_prefix_income(&sizes);
    println!(
        "domain: {domain} cells; workload: {} queries stored in {} scalars",
        workload.rows(),
        workload.stored_scalars()
    );

    let eps = 0.5;
    let err = |x_hat: &[f64]| {
        let t = workload.matvec(&x_true);
        let e = workload.matvec(x_hat);
        (t.iter()
            .zip(&e)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / t.len() as f64)
            .sqrt()
    };

    // Identity baseline.
    let k = ProtectedKernel::init(table.clone(), eps, 1);
    let x = k.vectorize(k.root()).expect("vectorize");
    let id = plan_identity(&k, x, eps).expect("identity plan");
    println!("Identity      per-query RMSE: {:>8.2}", err(&id.x_hat));

    // HB-Striped (Kronecker form): hierarchical income measurements per
    // demographic stripe, expressed as one implicit matrix.
    let k = ProtectedKernel::init(table.clone(), eps, 2);
    let x = k.vectorize(k.root()).expect("vectorize");
    let hbk = plan_hb_striped_kron(&k, x, &sizes, 0, eps).expect("hb striped kron");
    println!("HB-Striped(k) per-query RMSE: {:>8.2}", err(&hbk.x_hat));

    // DAWA-Striped: each stripe gets its own data-adaptive bucketing —
    // parallel composition makes all 280 stripes cost one ε.
    let k = ProtectedKernel::init(table, eps, 3);
    let x = k.vectorize(k.root()).expect("vectorize");
    let ranges: Vec<(usize, usize)> = (1..=10).map(|i| (0, i * sizes[0] / 10)).collect();
    let dawa = plan_dawa_striped(&k, x, &sizes, 0, &ranges, eps, 0.25).expect("dawa striped");
    println!("DAWA-Striped  per-query RMSE: {:>8.2}", err(&dawa.x_hat));
    println!(
        "\nbudget spent by the last plan: {:.3} (cap {eps})",
        k.budget_spent()
    );
}
