//! Regenerates **Table 5**: census-workload error of Identity, PrivBayes,
//! PrivBayesLS, HB-Striped and DAWA-Striped (paper §10.1.2).
//!
//! Domain: income(5000) × age(5) × marital(7) × race(4) × gender(2)
//! = 1.4M cells; workloads: Identity, all 2-way marginals, Prefix(Income).
//! Reduced mode shrinks the income domain (500 bins → 140k cells) so the
//! binary finishes in a couple of minutes; `--full` runs the paper's
//! 1.4M-cell domain.
//!
//! Run: `cargo run --release -p ektelo-bench --bin table5 [--full]`

use ektelo_bench::{full_mode, rebin_census_income, time_it};
use ektelo_core::ops::inference::scaled_per_query_l2_error;
use ektelo_core::ProtectedKernel;
use ektelo_data::generators::census_cps_sized;
use ektelo_data::workloads::{all_k_way_marginals, census_prefix_income};
use ektelo_matrix::Matrix;
use ektelo_plans::baseline::plan_identity;
use ektelo_plans::privbayes::{plan_privbayes, plan_privbayes_ls};
use ektelo_plans::striped::{plan_dawa_striped, plan_hb_striped};

fn main() {
    let full = full_mode();
    let (income_bins, rows) = if full { (5000, 49_436) } else { (500, 49_436) };
    let eps = 0.1;
    let table = {
        let t = census_cps_sized(rows, 7);
        if full {
            t
        } else {
            rebin_census_income(&t, income_bins)
        }
    };
    let sizes = table.schema().sizes();
    let domain: usize = sizes.iter().product();
    let x_true = ektelo_data::vectorize(&table);
    // The error scale: the number of records.
    let records = x_true.iter().sum::<f64>().max(1.0);
    eprintln!("census domain: {domain} cells, {rows} records");

    let workloads: Vec<(&str, Matrix)> = vec![
        ("Identity", Matrix::identity(domain)),
        ("2-way Marg.", all_k_way_marginals(&sizes, 2)),
        ("Prefix(Income)", census_prefix_income(&sizes)),
    ];

    // Prefix(Income) along each stripe: the ranges that steer every
    // stripe's Greedy-H in DAWA-Striped.
    let income_prefixes: Vec<(usize, usize)> = (1..=sizes[0]).map(|i| (0, i)).collect();

    // Each algorithm runs once per seed; errors are averaged.
    let trials = if full { 3 } else { 2 };
    let algos: Vec<&str> = vec![
        "Identity",
        "PrivBayes",
        "PrivBayesLS",
        "Hb-Striped",
        "Dawa-Striped",
    ];
    let mut results: Vec<Vec<f64>> = vec![vec![0.0; workloads.len()]; algos.len()];
    let mut times: Vec<f64> = vec![0.0; algos.len()];

    for seed in 0..trials {
        for (a, name) in algos.iter().enumerate() {
            let k = ProtectedKernel::init(table.clone(), eps, 100 + seed);
            let (x_hat, secs) = time_it(|| match *name {
                "Identity" => {
                    let x = k.vectorize(k.root()).unwrap();
                    plan_identity(&k, x, eps).unwrap().x_hat
                }
                "PrivBayes" => plan_privbayes(&k, k.root(), eps).unwrap().x_hat,
                "PrivBayesLS" => plan_privbayes_ls(&k, k.root(), eps).unwrap().x_hat,
                "Hb-Striped" => {
                    let x = k.vectorize(k.root()).unwrap();
                    plan_hb_striped(&k, x, &sizes, 0, eps).unwrap().x_hat
                }
                "Dawa-Striped" => {
                    let x = k.vectorize(k.root()).unwrap();
                    plan_dawa_striped(&k, x, &sizes, 0, &income_prefixes, eps, 0.25)
                        .unwrap()
                        .x_hat
                }
                _ => unreachable!(),
            });
            times[a] += secs;
            for (wi, (_, w)) in workloads.iter().enumerate() {
                results[a][wi] +=
                    scaled_per_query_l2_error(w, &x_true, &x_hat, records) / trials as f64;
            }
            eprintln!("  seed {seed}: {name} done ({secs:.1}s)");
        }
    }

    println!("\nTable 5: Census workload error (domain {domain}, eps={eps}, x1e-7 scale)");
    print!("{:<14}", "Algorithm");
    for (wn, _) in &workloads {
        print!(" {wn:>16}");
    }
    println!("  {:>9}", "runtime");
    for (a, name) in algos.iter().enumerate() {
        print!("{name:<14}");
        for r in &results[a] {
            print!(" {:>16.2}", r * 1e7);
        }
        println!("  {:>8.1}s", times[a] / trials as f64);
    }
    println!("\n(Paper, x1e-7, 1.4M domain: Identity 241.8/12.04/18.97, PrivBayes 769.3/65.31/28.70, \
              PrivbayesLS 58.6/13.29/36.81, Hb-Striped 703.1/21.91/4.13, Dawa-Striped 34.3/1.96/2.50. \
              Shape to check: Dawa-Striped best overall; PrivBayesLS improves PrivBayes on the \
              first two workloads; striped plans dominate Prefix(Income).)");
}
