//! The four workloads: their inputs (all derived from `--seed`), one
//! request each through the public plan entry points, and the output
//! checks that run after every request, outside the latency timer.
//!
//! Every request builds fresh kernels seeded from the workload seed and
//! the request index, so request `i` of a run is reproducible on its own:
//! the end-of-run replay and the traced run both re-execute requests by
//! index and compare outputs bit for bit.
//!
//! The datasets and query sets are fixed (generated from `DATA_SEED`);
//! `--seed` draws the noise, as the paper's experiments repeat noisy
//! trials on fixed datasets. Different seeds therefore give the same
//! work and the same expected error, so seed-to-seed differences in a
//! metric are noise to be averaged, not a change of input.

use std::time::Instant;

use ektelo_core::kernel::Result;
use ektelo_core::ops::inference::scaled_per_query_l2_error;
use ektelo_core::{EktError, ProtectedKernel, SourceVar};
use ektelo_data::generators::{census_cps_sized, shape_1d, Shape1D};
use ektelo_data::workloads::{census_prefix_income, random_range};
use ektelo_data::Table;
use ektelo_matrix::Matrix;
use ektelo_plans::mwem::{plan_mwem, MwemOptions};
use ektelo_plans::striped::{plan_dawa_striped, plan_hb_striped};

/// Seed of the synthetic datasets and query sets.
const DATA_SEED: u64 = 1;
/// Rows of the synthetic census table (the paper's CPS extract size).
const CENSUS_ROWS: usize = 49_436;
/// ε of the striped plans (the paper's Table 5 setting).
const STRIPED_EPS: f64 = 0.1;
/// Income bins for HB-Striped: 357 × 5 × 7 × 4 × 2 = 99,960 cells.
const HB_INCOME_BINS: usize = 357;
/// Income bins for DAWA-Striped: 64 × 5 × 7 × 4 × 2 = 17,920 cells.
const DAWA_INCOME_BINS: usize = 64;
/// DAWA's stage-1 budget share.
pub(crate) const DAWA_RHO: f64 = 0.25;
/// The striped attribute (income) is attribute 0 of every domain here.
pub(crate) const STRIPE_ATTR: usize = 0;
const DAWA_RANGES: &[(usize, usize)] = &[(0, 32)];

const MWEM_CELLS: usize = 4096;
const MWEM_QUERIES: usize = 500;
const MWEM_SCALE: f64 = 100_000.0;
const MWEM_EPS: f64 = 0.1;
const MWEM_ROUNDS: usize = 20;
const MWEM_ITERATIONS: usize = 30;

/// The 192-cell histogram shape of the `many_sessions_contention` bench.
const SESSION_SIZES: &[usize] = &[32, 3, 2];
const SESSION_EPS: f64 = 0.8;
const SESSION_RANGES: &[(usize, usize)] = &[(0, 16)];
const SESSION_MWEM_ROUNDS: usize = 2;
const SESSION_MWEM_ITERATIONS: usize = 8;
/// Every `REJECT_EVERY`-th session's MWEM plan asks for twice the ε its
/// kernel holds, so the admission check must reject it.
const REJECT_EVERY: u64 = 20;

/// Request indices at or above this are warm-up requests, so warm-up
/// never reuses the kernel seeds of timed requests.
const WARMUP_BASE: u64 = 1 << 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    StripedHb,
    StripedDawa,
    Mwem,
    SessionsSmall,
}

pub const ALL: [Kind; 4] = [
    Kind::StripedHb,
    Kind::StripedDawa,
    Kind::Mwem,
    Kind::SessionsSmall,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::StripedHb => "striped_hb",
            Kind::StripedDawa => "striped_dawa",
            Kind::Mwem => "mwem",
            Kind::SessionsSmall => "sessions_small",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop client threads. A fixed number, never read from the
    /// machine: only the pool may size itself from the hardware.
    pub fn clients(self) -> usize {
        match self {
            Kind::SessionsSmall => 2,
            _ => 1,
        }
    }

    /// Timed requests per client of an untraced run of 20 s, about that
    /// long on a 2-vCPU machine. Other run lengths scale the count in
    /// proportion; it never depends on how fast the build runs.
    pub fn timed_requests(self) -> u64 {
        match self {
            Kind::StripedHb => 600,
            Kind::StripedDawa => 150,
            Kind::Mwem => 500,
            Kind::SessionsSmall => 25_000,
        }
    }

    /// Warm-up requests per client before timing starts.
    fn warmups(self) -> u64 {
        match self {
            Kind::StripedHb | Kind::Mwem => 10,
            Kind::StripedDawa => 5,
            Kind::SessionsSmall => 200,
        }
    }
}

/// A workload's generated inputs.
pub struct Prepared {
    pub kind: Kind,
    seed: u64,
    /// The census table the striped kernels are built from.
    pub(crate) table: Option<Table>,
    /// Attribute sizes of the striped domains.
    pub(crate) sizes: Vec<usize>,
    /// The true data vector over the plan's domain.
    pub(crate) truth: Vec<f64>,
    /// The query set the scaled error is measured on.
    query_set: Matrix,
    /// The MWEM plan's workload (`random_range` for `mwem`, `prefix` for
    /// the sessions' MWEM step).
    pub(crate) mwem_workload: Matrix,
    pub(crate) mwem_opts: MwemOptions,
    records: f64,
}

impl Prepared {
    /// Generates the workload's inputs; `seed` seeds the kernels.
    pub fn generate(kind: Kind, seed: u64) -> Prepared {
        let total = |x: &[f64]| x.iter().sum::<f64>();
        match kind {
            Kind::StripedHb | Kind::StripedDawa => {
                let bins = if kind == Kind::StripedHb {
                    HB_INCOME_BINS
                } else {
                    DAWA_INCOME_BINS
                };
                let table = ektelo_bench::rebin_census_income(
                    &census_cps_sized(CENSUS_ROWS, DATA_SEED),
                    bins,
                );
                let sizes = table.schema().sizes();
                let truth = ektelo_data::vectorize(&table);
                Prepared {
                    kind,
                    seed,
                    query_set: census_prefix_income(&sizes),
                    records: total(&truth),
                    table: Some(table),
                    sizes,
                    truth,
                    mwem_workload: Matrix::identity(1),
                    mwem_opts: MwemOptions::default(),
                }
            }
            Kind::Mwem => {
                let truth = shape_1d(Shape1D::IncomeLike, MWEM_CELLS, MWEM_SCALE, DATA_SEED);
                let workload = random_range(MWEM_CELLS, MWEM_QUERIES, DATA_SEED);
                Prepared {
                    kind,
                    seed,
                    table: None,
                    sizes: vec![MWEM_CELLS],
                    records: total(&truth),
                    mwem_opts: MwemOptions {
                        rounds: MWEM_ROUNDS,
                        total: total(&truth),
                        mw_iterations: MWEM_ITERATIONS,
                    },
                    truth,
                    query_set: workload.clone(),
                    mwem_workload: workload,
                }
            }
            Kind::SessionsSmall => {
                let n: usize = SESSION_SIZES.iter().product();
                // The contention bench's histogram.
                let truth: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 + 1.0).collect();
                Prepared {
                    kind,
                    seed,
                    table: None,
                    sizes: SESSION_SIZES.to_vec(),
                    records: total(&truth),
                    mwem_opts: MwemOptions {
                        rounds: SESSION_MWEM_ROUNDS,
                        total: total(&truth),
                        mw_iterations: SESSION_MWEM_ITERATIONS,
                    },
                    truth,
                    query_set: Matrix::prefix(n),
                    mwem_workload: Matrix::prefix(n),
                }
            }
        }
    }

    /// Generates the inputs and runs the warm-up requests: the set-up a
    /// user pays before the first timed request.
    pub fn set_up(kind: Kind, seed: u64) -> Setup {
        let start = Instant::now();
        let prep = Prepared::generate(kind, seed);
        let requests = kind.warmups() * kind.clients() as u64;
        let mut failed = 0;
        let mut failures = Vec::new();
        for i in 0..requests {
            let checked = prep.check(&prep.execute(WARMUP_BASE + i));
            failed += u64::from(!checked.failures.is_empty());
            failures.extend(checked.failures);
        }
        Setup {
            prep,
            seconds: start.elapsed().as_secs_f64(),
            requests,
            failed,
            failures,
        }
    }

    /// The striped plans' ε, or the per-plan ε of the 1-D workloads.
    pub(crate) fn eps(&self) -> f64 {
        match self.kind {
            Kind::StripedHb | Kind::StripedDawa => STRIPED_EPS,
            Kind::Mwem => MWEM_EPS,
            Kind::SessionsSmall => SESSION_EPS,
        }
    }

    /// The income ranges steering DAWA-Striped's Greedy-H selection.
    pub(crate) fn dawa_ranges(&self) -> &'static [(usize, usize)] {
        match self.kind {
            Kind::SessionsSmall => SESSION_RANGES,
            _ => DAWA_RANGES,
        }
    }

    /// Whether session `idx`'s MWEM plan is the over-budget one.
    pub(crate) fn rejects(&self, idx: u64) -> bool {
        self.kind == Kind::SessionsSmall && idx % REJECT_EVERY == REJECT_EVERY - 1
    }

    /// Kernel seed of plan `plan` of request `idx`.
    pub(crate) fn kernel_seed(&self, idx: u64, plan: u64) -> u64 {
        mix(mix(self.seed, self.kind as u64 + 1), idx * 4 + plan)
    }

    /// A fresh kernel over the census table, vectorized (striped plans).
    pub(crate) fn census_kernel(&self, seed: u64) -> (ProtectedKernel, Result<SourceVar>) {
        let table = self.table.clone().expect("striped workloads carry a table");
        let kernel = ProtectedKernel::init(table, self.eps(), seed);
        let x = kernel.vectorize(kernel.root());
        (kernel, x)
    }

    /// Runs request `idx` through the public plan entry points. Only the
    /// kernel construction and the plans are timed.
    pub fn execute(&self, idx: u64) -> Executed {
        let eps = self.eps();
        let start = Instant::now();
        let plans = match self.kind {
            Kind::StripedHb => {
                let (kernel, x) = self.census_kernel(self.kernel_seed(idx, 0));
                let result = x.and_then(|x| {
                    plan_hb_striped(&kernel, x, &self.sizes, STRIPE_ATTR, eps).map(|o| o.x_hat)
                });
                vec![PlanRun::new(kernel, result, eps, false)]
            }
            Kind::StripedDawa => {
                let (kernel, x) = self.census_kernel(self.kernel_seed(idx, 0));
                let result = x.and_then(|x| {
                    plan_dawa_striped(
                        &kernel,
                        x,
                        &self.sizes,
                        STRIPE_ATTR,
                        self.dawa_ranges(),
                        eps,
                        DAWA_RHO,
                    )
                    .map(|o| o.x_hat)
                });
                vec![PlanRun::new(kernel, result, eps, false)]
            }
            Kind::Mwem => {
                let kernel = self.vector_kernel(self.kernel_seed(idx, 0));
                let result = plan_mwem(
                    &kernel,
                    kernel.root(),
                    &self.mwem_workload,
                    eps,
                    &self.mwem_opts,
                )
                .map(|o| o.x_hat);
                vec![PlanRun::new(kernel, result, eps, false)]
            }
            Kind::SessionsSmall => {
                let hb = self.vector_kernel(self.kernel_seed(idx, 0));
                let hb_out = plan_hb_striped(&hb, hb.root(), SESSION_SIZES, STRIPE_ATTR, eps)
                    .map(|o| o.x_hat);
                let dawa = self.vector_kernel(self.kernel_seed(idx, 1));
                let dawa_out = plan_dawa_striped(
                    &dawa,
                    dawa.root(),
                    SESSION_SIZES,
                    STRIPE_ATTR,
                    self.dawa_ranges(),
                    eps,
                    DAWA_RHO,
                )
                .map(|o| o.x_hat);
                let mwem = self.vector_kernel(self.kernel_seed(idx, 2));
                let reject = self.rejects(idx);
                let mwem_eps = if reject { 2.0 * eps } else { eps };
                let mwem_out = plan_mwem(
                    &mwem,
                    mwem.root(),
                    &self.mwem_workload,
                    mwem_eps,
                    &self.mwem_opts,
                )
                .map(|o| o.x_hat);
                vec![
                    PlanRun::new(hb, hb_out, eps, false),
                    PlanRun::new(dawa, dawa_out, eps, false),
                    PlanRun::new(mwem, mwem_out, eps, reject),
                ]
            }
        };
        Executed {
            latency_s: start.elapsed().as_secs_f64(),
            plans,
        }
    }

    /// A fresh kernel over the 1-D histogram (its root is the plan input).
    pub(crate) fn vector_kernel(&self, seed: u64) -> ProtectedKernel {
        ProtectedKernel::init_from_vector(self.truth.clone(), self.eps(), seed)
    }

    /// Checks one request's outputs and ledger, and scores its accuracy.
    pub fn check(&self, done: &Executed) -> Checked {
        let mut failures = Vec::new();
        let mut errors = Vec::new();
        let n = self.truth.len();
        let name = self.kind.name();
        for run in &done.plans {
            let k = &run.kernel;
            if k.budget_reserved() != 0.0 || k.active_reservations() != 0 {
                failures.push(format!(
                    "{name}: ledger holds {} in {} reservations after the plan",
                    k.budget_reserved(),
                    k.active_reservations()
                ));
            }
            match (&run.result, run.expect_reject) {
                (Err(EktError::BudgetExceeded { .. }), true) => {
                    if k.measurement_count() != 0 || k.budget_spent() != 0.0 {
                        failures.push(format!(
                            "{name}: rejected plan left {} measurements and spent {}",
                            k.measurement_count(),
                            k.budget_spent()
                        ));
                    }
                }
                (Ok(_), true) => failures.push(format!("{name}: over-budget plan was admitted")),
                (Err(e), _) => failures.push(format!("{name}: plan failed: {e}")),
                (Ok(x_hat), false) => {
                    if x_hat.len() != n || !x_hat.iter().all(|v| v.is_finite()) {
                        failures.push(format!(
                            "{name}: x_hat has length {} (want {n}) or non-finite entries",
                            x_hat.len()
                        ));
                        continue;
                    }
                    if (k.budget_spent() - run.eps).abs() > 1e-9 {
                        failures.push(format!(
                            "{name}: spent ε {} for a plan of ε {}",
                            k.budget_spent(),
                            run.eps
                        ));
                    }
                    errors.push(scaled_per_query_l2_error(
                        &self.query_set,
                        &self.truth,
                        x_hat,
                        self.records,
                    ));
                }
            }
        }
        // A session's error is the mean over its three plans; sessions
        // whose MWEM step was rejected are not scored.
        let error = (failures.is_empty() && errors.len() == done.plans.len())
            .then(|| errors.iter().sum::<f64>() / errors.len() as f64);
        Checked { failures, error }
    }
}

/// A finished set-up: the inputs, its duration, and its warm-up requests.
pub struct Setup {
    pub prep: Prepared,
    pub seconds: f64,
    pub requests: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// One plan of a request: its kernel (kept for the ledger checks) and
/// the plan's estimate or error.
pub struct PlanRun {
    pub kernel: ProtectedKernel,
    pub result: Result<Vec<f64>>,
    /// The ε the plan spends when admitted.
    pub eps: f64,
    /// Whether the kernel must reject this plan as over budget.
    pub expect_reject: bool,
}

impl PlanRun {
    pub fn new(
        kernel: ProtectedKernel,
        result: Result<Vec<f64>>,
        eps: f64,
        expect_reject: bool,
    ) -> PlanRun {
        PlanRun {
            kernel,
            result,
            eps,
            expect_reject,
        }
    }
}

/// One executed request.
pub struct Executed {
    pub latency_s: f64,
    pub plans: Vec<PlanRun>,
}

impl Executed {
    /// The request's estimates, in plan order (`None` for a rejected or
    /// failed plan) — what replays compare bit for bit.
    pub fn outputs(&self) -> Vec<Option<Vec<f64>>> {
        self.plans
            .iter()
            .map(|p| p.result.as_ref().ok().cloned())
            .collect()
    }
}

/// The result of checking one request.
pub struct Checked {
    pub failures: Vec<String>,
    /// Scaled per-query L2 error (Table 5 metric), when scored.
    pub error: Option<f64>,
}

/// SplitMix64 of `a + b·φ`: derives independent seeds from (seed, index).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of a request's estimates.
pub fn digest(outputs: &[Option<Vec<f64>>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in outputs.iter().flatten().flatten() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
