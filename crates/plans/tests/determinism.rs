//! Run-to-run bit-identity of full plans: the striped, MWEM and
//! Kronecker-strategy plans (plan #16 HB-Striped_kron and HDMM's
//! `OPT_⊗`), run end to end twice on equally seeded kernels, must produce
//! **bit-identical** estimates.
//!
//! Why this must hold: evaluation is single-threaded and every reduction
//! runs in one fixed order, privacy randomness is drawn sequentially in
//! request order under the kernel lock, and DAWA's stage-1 stripes use
//! counter-based substreams. A regression in any of those invariants
//! shows up here as a diverging bit.

use ektelo_plans::baseline::plan_hdmm_kron;
use ektelo_plans::mwem::{plan_mwem, plan_mwem_variant_b, MwemOptions};
use ektelo_plans::striped::{plan_dawa_striped, plan_hb_striped, plan_hb_striped_kron};
use ektelo_plans::util::kernel_for_histogram;

/// Runs the full plan family on freshly seeded kernels and returns every
/// estimate, concatenated. Bit-equality of this vector across runs is the
/// acceptance bar — no tolerance.
fn run_plan_family() -> Vec<f64> {
    let sizes = [64usize, 3, 2];
    let n: usize = sizes.iter().product();
    let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 + 1.0).collect();
    let eps = 0.8;
    let mut all = Vec::new();

    let (k, root) = kernel_for_histogram(&x, eps, 41);
    all.extend(plan_hb_striped(&k, root, &sizes, 0, eps).unwrap().x_hat);

    let (k, root) = kernel_for_histogram(&x, eps, 42);
    all.extend(
        plan_dawa_striped(&k, root, &sizes, 0, &[(0, 32)], eps, 0.25)
            .unwrap()
            .x_hat,
    );

    let w = ektelo_matrix::Matrix::prefix(n);
    let opts = MwemOptions {
        rounds: 4,
        total: x.iter().sum(),
        mw_iterations: 15,
    };
    let (k, root) = kernel_for_histogram(&x, eps, 43);
    all.extend(plan_mwem(&k, root, &w, eps, &opts).unwrap().x_hat);

    let (k, root) = kernel_for_histogram(&x, eps, 44);
    all.extend(plan_mwem_variant_b(&k, root, &w, eps, &opts).unwrap().x_hat);

    // Multi-factor Kronecker strategies: the HB mode runs the `Range`
    // panel and the exact Kronecker solve, the HDMM factors the fiber walk
    // and LSQR.
    let sizes = [64usize, 16, 8];
    let n: usize = sizes.iter().product();
    let x: Vec<f64> = (0..n).map(|i| ((i * 17) % 29) as f64 + 1.0).collect();
    let (k, root) = kernel_for_histogram(&x, eps, 45);
    all.extend(
        plan_hb_striped_kron(&k, root, &sizes, 0, eps)
            .unwrap()
            .x_hat,
    );

    // HDMM's per-factor optimization dominates its cost, so it gets a
    // smaller domain.
    let sizes = [24usize, 16, 4];
    let n: usize = sizes.iter().product();
    let factors = [
        ektelo_matrix::Matrix::prefix(sizes[0]),
        ektelo_matrix::Matrix::vstack(vec![
            ektelo_matrix::Matrix::total(sizes[1]),
            ektelo_matrix::Matrix::identity(sizes[1]),
        ]),
        ektelo_matrix::Matrix::prefix(sizes[2]),
    ];
    let (k, root) = kernel_for_histogram(&x[..n], eps, 46);
    all.extend(plan_hdmm_kron(&k, root, &factors, eps).unwrap().x_hat);

    all
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = run_plan_family();
    assert!(
        a.iter().all(|v| v.is_finite()),
        "plans must produce finite estimates"
    );
    let b = run_plan_family();
    assert!(a == b, "seeded plans must be deterministic run-to-run");
}

/// FNV-1a over the little-endian bytes of every value, the digest the
/// end-to-end benchmark reports as `x_hat_digest`.
fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Plain MWEM and variant b on the `mwem` benchmark shape (4096
/// income-like cells, 500 random ranges, 20 rounds of 30 passes, ε 0.1)
/// at one kernel seed. The digests were recorded before the per-round
/// work moved to closed-form rows, one-row sensitivity and column
/// classes kept across rounds; any of those changing a bit of `x̂`
/// fails here.
#[test]
fn mwem_estimates_match_their_recorded_digests() {
    use ektelo_data::generators::{shape_1d, Shape1D};
    use ektelo_data::workloads::random_range;

    let n = 4096;
    let x = shape_1d(Shape1D::IncomeLike, n, 100_000.0, 1);
    let w = random_range(n, 500, 1);
    let opts = MwemOptions {
        rounds: 20,
        total: x.iter().sum(),
        mw_iterations: 30,
    };
    let (k, root) = kernel_for_histogram(&x, 0.1, 7);
    let plain = plan_mwem(&k, root, &w, 0.1, &opts).unwrap().x_hat;
    let (k, root) = kernel_for_histogram(&x, 0.1, 7);
    let b = plan_mwem_variant_b(&k, root, &w, 0.1, &opts).unwrap().x_hat;
    assert_eq!(
        [digest(&plain), digest(&b)],
        [PLAIN_DIGEST, VARIANT_B_DIGEST],
        "MWEM estimates changed"
    );
}

/// `x_hat` digests of [`mwem_estimates_match_their_recorded_digests`].
const PLAIN_DIGEST: u64 = 0xd3fb0b88fe8b0d04;
const VARIANT_B_DIGEST: u64 = 0x57b546d832c94b1e;
