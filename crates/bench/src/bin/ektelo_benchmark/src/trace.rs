//! The traced run: each request replays, call for call, the public
//! operations `PlanExecutor::run` issues for its spec, with a span around
//! each call. Spans live in memory and are written out at the end.
//!
//! The decomposition reproduces the executor's output bit for bit for the
//! same kernel seed (the run reports this as `trace.matches_untraced`).
//! If the executor changes, the decomposition describes the old program;
//! the run then warns instead of failing.

use std::time::Instant;

use ektelo_core::kernel::{BudgetReservation, Result};
use ektelo_core::ops::graph::{
    mwem_row_strategy, MwemLoopOp, MwemRoundInference, PlanBuilder, PlanSpec,
};
use ektelo_core::ops::inference::{stack_measurements, LsSolver};
use ektelo_core::ops::partition::{
    dawa_partition_batch, interval_partition_bounds, map_ranges_to_buckets, stripe_partition,
    DawaOptions,
};
use ektelo_core::ops::selection::{greedy_h, hb, worst_approx};
use ektelo_core::{EktError, MeasuredQuery, ProtectedKernel, SourceVar};
use ektelo_matrix::{pool, Matrix};
use ektelo_plans::util::split_budget;
use ektelo_solvers::{lsqr, mult_weights, LsqrOptions, MwOptions};

use crate::json::Json;
use crate::workloads::{Executed, Kind, PlanRun, Prepared, DAWA_RHO, STRIPE_ATTR};

/// The per-layer time buckets; each span name maps to exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    GraphBuild,
    GraphPreAccount,
    KernelAdmit,
    KernelInit,
    KernelTransform,
    KernelMeasure,
    KernelHistory,
    Select,
    WorstApprox,
    Partition,
    InferStack,
    InferSolve,
}

pub const LAYERS: usize = 12;

impl Layer {
    fn of(span: &str) -> Option<Layer> {
        Some(match span {
            "graph.build" | "graph.signature" => Layer::GraphBuild,
            "graph.pre_account" => Layer::GraphPreAccount,
            "kernel.admit" | "kernel.release" => Layer::KernelAdmit,
            "kernel.init" => Layer::KernelInit,
            "kernel.split_by_partition" | "kernel.reduce_by_partition" => Layer::KernelTransform,
            "kernel.vector_laplace" | "kernel.vector_laplace_batch" => Layer::KernelMeasure,
            "kernel.measurements_since" => Layer::KernelHistory,
            "select.hb" | "select.greedy_h" | "select.mwem_row_strategy" => Layer::Select,
            "select.worst_approx" => Layer::WorstApprox,
            "partition.stripe" | "partition.dawa_batch" => Layer::Partition,
            "infer.stack" => Layer::InferStack,
            "infer.lsqr" | "infer.mult_weights" => Layer::InferSolve,
            _ => return None,
        })
    }
}

/// One span: a named interval on the run's clock, the span that caused
/// it, and the request it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder for one request (one thread).
pub struct Tracer {
    origin: Instant,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(origin: Instant, request: u64) -> Tracer {
        Tracer {
            origin,
            request,
            spans: Vec::with_capacity(64),
            open: Vec::with_capacity(4),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Counts gathered at the layer boundaries of one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub measure_calls: u64,
    pub measure_rows: u64,
    pub solver_iterations: u64,
    pub workspace_pool_bytes: u64,
}

/// What a traced request recorded.
pub struct RequestTrace {
    pub spans: Vec<Span>,
    pub counts: Counts,
}

impl RequestTrace {
    /// Seconds spent in each layer during this request.
    pub fn layer_seconds(&self) -> [f64; LAYERS] {
        let mut out = [0.0; LAYERS];
        for s in &self.spans {
            if let Some(layer) = Layer::of(s.name) {
                out[layer as usize] += (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
        }
        out
    }

    /// Request time covered by no layer span.
    pub fn unattributed_seconds(&self) -> f64 {
        let request = self
            .spans
            .iter()
            .find(|s| s.parent.is_none())
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9);
        request - self.layer_seconds().iter().sum::<f64>()
    }
}

/// Runs request `idx` as the traced decomposition. Returns the same
/// [`Executed`] the untraced path returns, plus the trace.
pub fn execute_traced(prep: &Prepared, idx: u64, origin: Instant) -> (Executed, RequestTrace) {
    let mut tr = Tracer::new(origin, idx);
    let mut counts = Counts::default();
    let eps = prep.eps();
    let start = Instant::now();
    tr.begin("request");
    let plans = match prep.kind {
        Kind::StripedHb | Kind::StripedDawa => {
            let seed = prep.kernel_seed(idx, 0);
            let (kernel, x) = tr.leaf("kernel.init", || prep.census_kernel(seed));
            let result = x.and_then(|x| {
                if prep.kind == Kind::StripedHb {
                    hb_striped(&mut tr, &mut counts, &kernel, x, prep, eps)
                } else {
                    dawa_striped(&mut tr, &mut counts, &kernel, x, prep, eps)
                }
            });
            vec![PlanRun::new(kernel, result, eps, false)]
        }
        Kind::Mwem => {
            let kernel = tr.leaf("kernel.init", || {
                prep.vector_kernel(prep.kernel_seed(idx, 0))
            });
            let result = mwem(&mut tr, &mut counts, &kernel, prep, eps);
            vec![PlanRun::new(kernel, result, eps, false)]
        }
        Kind::SessionsSmall => {
            let hb_kernel = tr.leaf("kernel.init", || {
                prep.vector_kernel(prep.kernel_seed(idx, 0))
            });
            let root = hb_kernel.root();
            let hb_out = hb_striped(&mut tr, &mut counts, &hb_kernel, root, prep, eps);
            let dawa_kernel = tr.leaf("kernel.init", || {
                prep.vector_kernel(prep.kernel_seed(idx, 1))
            });
            let root = dawa_kernel.root();
            let dawa_out = dawa_striped(&mut tr, &mut counts, &dawa_kernel, root, prep, eps);
            let mwem_kernel = tr.leaf("kernel.init", || {
                prep.vector_kernel(prep.kernel_seed(idx, 2))
            });
            let reject = prep.rejects(idx);
            let mwem_eps = if reject { 2.0 * eps } else { eps };
            let mwem_out = mwem(&mut tr, &mut counts, &mwem_kernel, prep, mwem_eps);
            vec![
                PlanRun::new(hb_kernel, hb_out, eps, false),
                PlanRun::new(dawa_kernel, dawa_out, eps, false),
                PlanRun::new(mwem_kernel, mwem_out, eps, reject),
            ]
        }
    };
    tr.end();
    let latency_s = start.elapsed().as_secs_f64();
    counts.workspace_pool_bytes = plans
        .iter()
        .map(|p| p.kernel.workspace_pool_resident_bytes() as u64)
        .sum();
    (
        Executed { latency_s, plans },
        RequestTrace {
            spans: tr.spans,
            counts,
        },
    )
}

/// The executor's admission step: pre-account, scale through the input's
/// stability, reserve; then snapshot the history start.
fn admit<'k>(
    tr: &mut Tracer,
    kernel: &'k ProtectedKernel,
    input: SourceVar,
    spec: &PlanSpec,
) -> Result<(BudgetReservation<'k>, usize, f64)> {
    let cost = tr.leaf("graph.pre_account", || spec.pre_account())?;
    tr.leaf("kernel.admit", || {
        let eps = cost.total * kernel.stability_to_root(input);
        let res = kernel.reserve_budget(eps)?;
        // The executor reads the ledger here too; the span times its calls.
        let _spent_before = kernel.budget_spent();
        Ok((res, kernel.measurement_count(), eps))
    })
}

/// The executor's epilogue: render the signature, read the plan's ledger
/// and release the reservation. A charged ε that differs from the
/// pre-accounted one means the decomposition has drifted from the
/// executor, and fails the request.
fn release(
    tr: &mut Tracer,
    spec: &PlanSpec,
    res: BudgetReservation<'_>,
    pre_accounted: f64,
) -> Result<()> {
    tr.leaf("graph.signature", || spec.signature());
    let charged = tr.leaf("kernel.release", || {
        let charged = res.charged();
        drop(res);
        charged
    });
    if charged.to_bits() == pre_accounted.to_bits() {
        Ok(())
    } else {
        Err(EktError::InvalidPlan(format!(
            "charged ε {charged} differs from the pre-accounted {pre_accounted}"
        )))
    }
}

fn measured_batch(
    tr: &mut Tracer,
    counts: &mut Counts,
    res: &BudgetReservation<'_>,
    reqs: &[(SourceVar, &Matrix, f64)],
) -> Result<()> {
    let answers = tr.leaf("kernel.vector_laplace_batch", || {
        res.vector_laplace_batch(reqs)
    })?;
    counts.measure_calls += 1;
    counts.measure_rows += answers.iter().map(|a| a.len() as u64).sum::<u64>();
    Ok(())
}

/// `least_squares(.., LsSolver::Iterative)`, split into stack and solve.
fn least_squares(tr: &mut Tracer, counts: &mut Counts, ms: &[MeasuredQuery]) -> Vec<f64> {
    let (m, y) = tr.leaf("infer.stack", || stack_measurements(ms));
    let solved = tr.leaf("infer.lsqr", || lsqr(&m, &y, &LsqrOptions::default()));
    counts.solver_iterations += solved.iterations as u64;
    solved.x
}

/// HB-Striped: `PS TP[ SHB LM ] LS`.
fn hb_striped(
    tr: &mut Tracer,
    counts: &mut Counts,
    kernel: &ProtectedKernel,
    x: SourceVar,
    prep: &Prepared,
    eps: f64,
) -> Result<Vec<f64>> {
    let (sizes, attr) = (&prep.sizes, STRIPE_ATTR);
    let spec = tr.leaf("graph.build", || {
        let mut b = PlanBuilder::new();
        let input = b.input();
        let p = b.partition_stripes(sizes, attr);
        let stripes = b.transform_split(input, p);
        let s = b.select_hb_shared(stripes);
        b.measure_laplace_batch_shared(stripes, s, eps);
        let e = b.infer_least_squares(LsSolver::Iterative);
        b.finish(e)
    });
    let (res, start, pre_accounted) = admit(tr, kernel, x, &spec)?;
    let p = tr.leaf("partition.stripe", || stripe_partition(sizes, attr));
    let stripes = tr.leaf("kernel.split_by_partition", || {
        kernel.split_by_partition(x, &p)
    })?;
    let strategy = tr.leaf("select.hb", || -> Result<Matrix> {
        let first = stripes
            .first()
            .ok_or_else(|| EktError::InvalidPlan("empty source list".into()))?;
        Ok(hb(kernel.vector_len(*first)?))
    })?;
    let reqs: Vec<(SourceVar, &Matrix, f64)> =
        stripes.iter().map(|&sv| (sv, &strategy, eps)).collect();
    measured_batch(tr, counts, &res, &reqs)?;
    let ms = tr.leaf("kernel.measurements_since", || {
        kernel.measurements_since(start)
    });
    let x_hat = least_squares(tr, counts, &ms);
    release(tr, &spec, res, pre_accounted)?;
    Ok(x_hat)
}

/// DAWA-Striped: `PS TP[ PD TR SG LM ] LS`.
fn dawa_striped(
    tr: &mut Tracer,
    counts: &mut Counts,
    kernel: &ProtectedKernel,
    x: SourceVar,
    prep: &Prepared,
    eps: f64,
) -> Result<Vec<f64>> {
    let (sizes, attr, ranges) = (&prep.sizes, STRIPE_ATTR, prep.dawa_ranges());
    let shares = split_budget(eps, &[DAWA_RHO, 1.0 - DAWA_RHO]);
    let spec = tr.leaf("graph.build", || {
        let mut b = PlanBuilder::new();
        let input = b.input();
        let p = b.partition_stripes(sizes, attr);
        let stripes = b.transform_split(input, p);
        let parts = b.partition_dawa_each(stripes, shares[0], DawaOptions::new(shares[1]));
        let reduced = b.transform_reduce_each(stripes, parts);
        let strats = b.select_greedy_h_each(reduced, parts, ranges);
        b.measure_laplace_batch_each(reduced, strats, shares[1]);
        let e = b.infer_least_squares(LsSolver::Iterative);
        b.finish(e)
    });
    let (res, start, pre_accounted) = admit(tr, kernel, x, &spec)?;
    let p = tr.leaf("partition.stripe", || stripe_partition(sizes, attr));
    let stripes = tr.leaf("kernel.split_by_partition", || {
        kernel.split_by_partition(x, &p)
    })?;
    let parts = tr.leaf("partition.dawa_batch", || {
        dawa_partition_batch(
            kernel,
            &stripes,
            shares[0],
            &DawaOptions::new(shares[1]),
            Some(&res),
        )
    })?;
    let reduced = tr.leaf("kernel.reduce_by_partition", || {
        stripes
            .iter()
            .zip(&parts)
            .map(|(&sv, p)| kernel.reduce_by_partition(sv, p))
            .collect::<Result<Vec<_>>>()
    })?;
    let strategies = tr.leaf("select.greedy_h", || -> Result<Vec<Matrix>> {
        let mut inputs = Vec::with_capacity(reduced.len());
        for (&sv, p) in reduced.iter().zip(&parts) {
            let groups = kernel.vector_len(sv)?;
            let bounds = interval_partition_bounds(p);
            inputs.push((groups, map_ranges_to_buckets(ranges, &bounds)));
        }
        Ok(greedy_strategies(&inputs))
    })?;
    let reqs: Vec<(SourceVar, &Matrix, f64)> = reduced
        .iter()
        .zip(&strategies)
        .map(|(&sv, m)| (sv, m, shares[1]))
        .collect();
    measured_batch(tr, counts, &res, &reqs)?;
    let ms = tr.leaf("kernel.measurements_since", || {
        kernel.measurements_since(start)
    });
    let x_hat = least_squares(tr, counts, &ms);
    release(tr, &spec, res, pre_accounted)?;
    Ok(x_hat)
}

/// The executor's per-stripe Greedy-H build under the `parallel` feature:
/// chunks of stripes on the pool, chunk geometry from the process
/// constant. `greedy_h` is pure, so the strategies are the same for any
/// chunking; the chunking is kept so the span times what the executor
/// runs.
fn greedy_strategies(inputs: &[(usize, Vec<(usize, usize)>)]) -> Vec<Matrix> {
    let nthreads = pool::configured_parallelism();
    if inputs.len() < 2 || nthreads < 2 {
        return inputs.iter().map(|(g, r)| greedy_h(*g, r)).collect();
    }
    let chunk = inputs.len().div_ceil(nthreads);
    let mut out = vec![Matrix::identity(1); inputs.len()];
    pool::scope(|s| {
        for (ochunk, ichunk) in out.chunks_mut(chunk).zip(inputs.chunks(chunk)) {
            s.spawn(move || {
                for (slot, (groups, ranges)) in ochunk.iter_mut().zip(ichunk) {
                    *slot = greedy_h(*groups, ranges);
                }
            });
        }
    });
    out
}

/// MWEM: `I:( SW LM MW )`, one span per call of every round.
fn mwem(
    tr: &mut Tracer,
    counts: &mut Counts,
    kernel: &ProtectedKernel,
    prep: &Prepared,
    eps: f64,
) -> Result<Vec<f64>> {
    let (workload, opts) = (&prep.mwem_workload, &prep.mwem_opts);
    let t = opts.rounds.max(1) as f64;
    let (eps_select, eps_measure) = (eps / (2.0 * t), eps / (2.0 * t));
    let spec = tr.leaf("graph.build", || {
        let mut b = PlanBuilder::new();
        let input = b.input();
        let e = b.mwem_loop(MwemLoopOp {
            input,
            workload: workload.clone(),
            rounds: opts.rounds,
            eps_select,
            eps_measure,
            augment: false,
            inference: MwemRoundInference::MultWeights,
            total: opts.total,
            mw_iterations: opts.mw_iterations,
        });
        b.finish(e)
    });
    let x = kernel.root();
    let (res, start, pre_accounted) = admit(tr, kernel, x, &spec)?;
    let n = kernel.vector_len(x)?;
    let mut x_hat = vec![opts.total / n as f64; n];
    for _ in 0..opts.rounds {
        let idx = tr.leaf("select.worst_approx", || {
            worst_approx(kernel, x, workload, &x_hat, 1.0, eps_select, Some(&res))
        })?;
        let strategy = tr.leaf("select.mwem_row_strategy", || {
            mwem_row_strategy(n, &workload.row(idx))
        });
        let answers = tr.leaf("kernel.vector_laplace", || {
            res.vector_laplace(x, &strategy, eps_measure)
        })?;
        counts.measure_calls += 1;
        counts.measure_rows += answers.len() as u64;
        let ms = tr.leaf("kernel.measurements_since", || {
            kernel.measurements_since(start)
        });
        // `mult_weights_inference`, split into stack and solve.
        let (m, y, x0) = tr.leaf("infer.stack", || {
            let m = Matrix::vstack(ms.iter().map(|m| m.query.clone()).collect());
            let y: Vec<f64> = ms.iter().flat_map(|m| m.answers.iter().copied()).collect();
            (m, y, vec![opts.total / n as f64; n])
        });
        x_hat = tr.leaf("infer.mult_weights", || {
            mult_weights(
                &m,
                &y,
                &x0,
                &MwOptions {
                    iterations: opts.mw_iterations,
                    total: opts.total,
                },
            )
        });
        counts.solver_iterations += opts.mw_iterations as u64;
    }
    release(tr, &spec, res, pre_accounted)?;
    Ok(x_hat)
}

/// Spans as the trace file stores them.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
                    .with("request", s.request)
            })
            .collect(),
    )
}
