//! One benchmark run: a workload, a seed, a time budget, and either the
//! end-to-end leg (tracing off) or the traced per-layer leg.

use crate::ceilings::{self, Ceilings};
use crate::drive::{self, Failure, PointRun, ServedJob};
use crate::gate::{self, Observables, REL_TOL};
use crate::heap;
use crate::inputs::{Inputs, Job, Scale, Workload};
use crate::json;
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::provenance::Provenance;
use dace_omen::comm::tiling_for_ranks;
use dace_omen::core::{CommPlan, ExecutorKind, RayonExecutor, Simulation, SimulationConfig};
use dace_omen::device::DeviceStructure;
use dace_omen::perf::{dace_volume_with, omen_volume, SimParams};
use dace_omen::serve::JobMetrics;
use dace_omen::trace::{self, span, Counter, SpanRecord, TraceSnapshot};
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer leg.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// No operation failed and every self-check held.
    pub correct: bool,
    /// Operations attempted (bias points solved and checked).
    pub attempted: u64,
    /// Operations that failed or disagreed with the reference.
    pub failed: u64,
    /// Why, for each failure and failed self-check.
    pub failures: Vec<String>,
    /// End-to-end or per-layer metrics, by leg.
    pub metrics: MetricSet,
    /// What the run was measured on.
    pub provenance: Provenance,
    /// Chrome-trace JSON of the traced leg.
    pub chrome_trace: Option<String>,
}

/// Set-up repetitions before each operation and after the last
/// (`setup_s` is the median of all of them), and device builds of the
/// traced leg.
const SETUP_REPS: usize = 20;

/// Executes one run.
pub fn run(opts: &RunOptions) -> Outcome {
    // The timed legs never run with the registry armed; the traced leg
    // arms it explicitly around its own calls only.
    trace::disarm();
    let inputs = Inputs::generate(opts.workload, opts.seed, opts.scale);
    let mut tally = Tally::default();
    let (metrics, chrome_trace) = if opts.trace {
        let (m, t) = per_layer_leg(opts.seconds, &inputs, &mut tally);
        (m, Some(t))
    } else {
        (end_to_end_leg(opts.seconds, &inputs, &mut tally), None)
    };
    trace::disarm();
    Outcome {
        correct: tally.failed == 0 && tally.messages.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.messages,
        metrics,
        provenance: Provenance::collect(&inputs, opts.trace),
        chrome_trace,
    }
}

/// Attempted and failed operations, plus failed self-checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn op(&mut self, result: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = result {
            self.failed += 1;
            self.messages.push(f.to_string());
        }
    }

    fn ops_failed(&mut self, n: usize, f: &Failure) {
        self.attempted += n as u64;
        self.failed += n as u64;
        self.messages.push(f.to_string());
    }

    fn self_check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.messages.push(e);
        }
    }
}

/// Reference observables of the run's inputs.
enum Reference {
    Point(Observables),
    Sweep(Vec<Observables>),
}

impl Reference {
    /// The reference of `inputs`; a reference that fails is a failed
    /// self-check, and every operation checked against it fails too.
    fn compute(inputs: &Inputs, tally: &mut Tally) -> Option<Reference> {
        let reference = match &inputs.job {
            Job::Point(cfg) => gate::reference_point(cfg, None).map(|r| Reference::Point(r.0)),
            Job::Sweep(spec) => gate::reference_sweep(spec).map(Reference::Sweep),
        };
        match reference {
            Ok(r) => Some(r),
            Err(f) => {
                tally.self_check(Err(format!("reference: {f}")));
                None
            }
        }
    }

    /// The reference of point `i` of the job.
    fn point(&self, i: usize) -> Option<&Observables> {
        match self {
            Reference::Point(o) => (i == 0).then_some(o),
            Reference::Sweep(v) => v.get(i),
        }
    }
}

/// Checks every point of one operation against the reference.
fn check_points(
    tally: &mut Tally,
    reference: &Option<Reference>,
    expected: usize,
    got: &[&Observables],
) {
    for i in 0..expected {
        let result = match (got.get(i), reference.as_ref().and_then(|r| r.point(i))) {
            (Some(g), Some(want)) => gate::check(g, want, REL_TOL),
            (None, _) => Err(Failure::Job(format!("point {i} missing from the result"))),
            (_, None) => Err(Failure::Mismatch(format!("no reference for point {i}"))),
        };
        tally.op(result);
    }
}

/// One timed operation of the workload.
enum Op {
    Point(PointRun),
    Sweep(ServedJob),
}

impl Op {
    fn solve_s(&self) -> f64 {
        match self {
            Op::Point(r) => r.solve_s,
            Op::Sweep(j) => j.solve_s,
        }
    }

    fn born_iters(&self) -> f64 {
        match self {
            Op::Point(r) => r.observables.iterations as f64,
            Op::Sweep(j) => f64::from(j.metrics.born_iterations),
        }
    }
}

/// How a single-point workload drives its bias point.
type PointDriver = fn(&SimulationConfig) -> Result<PointRun, Failure>;

/// The solver's own loop: [`drive::run_point`].
const SOLVER_LOOP: PointDriver = drive::run_point;

/// The benchmark's split loop, cold: [`drive::solve_point`].
const SPLIT_LOOP: PointDriver = |cfg| drive::solve_point(cfg, None).map(|(run, _sim)| run);

/// Runs the workload's operation once and checks it; a bias point runs
/// through `point`, a sweep through the sweep service.
fn operate(
    inputs: &Inputs,
    reference: &Option<Reference>,
    point: PointDriver,
    tally: &mut Tally,
) -> Option<Op> {
    match &inputs.job {
        Job::Point(cfg) => match point(cfg) {
            Ok(run) => {
                check_points(tally, reference, 1, &[&run.observables]);
                Some(Op::Point(run))
            }
            Err(f) => {
                tally.ops_failed(1, &f);
                None
            }
        },
        Job::Sweep(spec) => match drive::serve_sweep(spec) {
            Ok(job) => {
                let got: Vec<&Observables> = job.points.iter().collect();
                check_points(tally, reference, spec.len(), &got);
                Some(Op::Sweep(job))
            }
            Err(f) => {
                tally.ops_failed(spec.len(), &f);
                None
            }
        },
    }
}

fn points_per_op(inputs: &Inputs) -> usize {
    match &inputs.job {
        Job::Point(_) => 1,
        Job::Sweep(spec) => spec.len(),
    }
}

/// Time from the configuration to the first Born iteration, repeated:
/// `Simulation::new` (with the plan kernel installed on a distributed
/// run); a sweep also starts its server.
fn measure_setup(inputs: &Inputs, tally: &mut Tally) -> Vec<f64> {
    let mut out = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (built, server) = match &inputs.job {
            Job::Point(cfg) => (drive::build(cfg), None),
            Job::Sweep(spec) => {
                let server = dace_omen::serve::SweepServer::start(drive::server_config());
                (drive::build(&spec.config_for(0)), Some(server))
            }
        };
        let dt = t0.elapsed().as_secs_f64();
        drop(server);
        match built {
            Ok(_) => out.push(dt),
            Err(f) => tally.self_check(Err(format!("set-up failed: {f}"))),
        }
    }
    out
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A run whose metrics could not all be measured is not correct; its
    /// unmeasured metrics read 0.
    pub fn json_line(&self) -> String {
        let (correct, entries) = match self.metrics.entries() {
            Ok(e) => (self.correct, e),
            Err(_) => (false, self.metrics.entries_lossy()),
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            correct,
            self.attempted,
            self.failed,
            json::metrics(&entries)
        )
    }

    /// The full record written beside the trace: provenance, failures
    /// and the result line's fields.
    pub fn record_json(&self) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| json::string(f)).collect();
        format!(
            "{{\"provenance\":{},\"failures\":[{}],\"result\":{}}}\n",
            self.provenance.to_json(),
            failures.join(","),
            self.json_line()
        )
    }
}

/// Stops starting operations once the next would overrun the budget;
/// the first always runs.
struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    fn start(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    fn room_for(&self, next_s: f64) -> bool {
        self.start.elapsed().as_secs_f64() + next_s <= self.seconds
    }
}

fn end_to_end_leg(seconds: f64, inputs: &Inputs, tally: &mut Tally) -> MetricSet {
    let mut m = MetricSet::new(END_TO_END);
    let reference = Reference::compute(inputs, tally);
    // Set-up takes milliseconds: its samples are spread over the run so
    // that one burst of interference does not decide the median.
    let mut setup = Vec::new();
    heap::reset_peak();
    let budget = Budget::start(seconds);
    let mut solves = Vec::new();
    let mut iter_walls = Vec::new();
    let mut born = Vec::new();
    loop {
        setup.extend(measure_setup(inputs, tally));
        let t0 = Instant::now();
        if let Some(op) = operate(inputs, &reference, SOLVER_LOOP, tally) {
            solves.push(op.solve_s());
            born.push(op.born_iters());
            // `Simulation::run` and the service report no per-iteration
            // times: an iteration is the solve after set-up over its
            // iterations (a sweep's set-ups run inside its job).
            iter_walls.push(match &op {
                Op::Point(run) => (run.solve_s - run.setup_s) / op.born_iters(),
                Op::Sweep(job) => job.solve_s / op.born_iters(),
            });
        }
        if !budget.room_for(t0.elapsed().as_secs_f64()) {
            break;
        }
    }
    setup.extend(measure_setup(inputs, tally));
    let solve_s = median(&solves);
    m.set("setup_s", median(&setup));
    m.set("solve_s", solve_s);
    m.set("iter_s", median(&iter_walls));
    m.set("born_iters", median(&born));
    m.set("points_per_s", points_per_op(inputs) as f64 / solve_s);
    m.set("peak_heap_mib", heap::peak_mib());
    m.set(
        "ok_frac",
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    m
}

/// Everything the traced leg collected.
#[derive(Default)]
struct TracedData {
    /// Benchmark-driven bias points (for a sweep, the direct chain).
    runs: Vec<PointRun>,
    /// Served sweep jobs run while armed.
    jobs: Vec<JobMetrics>,
    /// Traced over untraced wall of each operation pair.
    overhead: Vec<f64>,
}

fn per_layer_leg(seconds: f64, inputs: &Inputs, tally: &mut Tally) -> (MetricSet, String) {
    let cfg0 = inputs.configs().remove(0);
    let device = DeviceStructure::build(cfg0.device.clone());
    let ceil = ceilings::measure(
        device.block_size_el(),
        device.block_size_ph(),
        cfg0.device.norb,
        cfg0.ne,
    );
    let reference = Reference::compute(inputs, tally);

    trace::reset();
    trace::arm();
    for _ in 0..SETUP_REPS {
        let _s = span!("bench.device_build");
        std::hint::black_box(DeviceStructure::build(cfg0.device.clone()));
    }
    trace::disarm();

    let budget = Budget::start(seconds);
    let mut data = TracedData::default();
    let traced_op = |tally: &mut Tally| {
        trace::arm();
        let op = operate(inputs, &reference, SPLIT_LOOP, tally);
        trace::disarm();
        op
    };
    for pair in 0.. {
        let t0 = Instant::now();
        // Each side of a pair runs first in turn, so that warm-up or
        // drift within the pair does not bias the overhead one way.
        let (plain, traced) = if pair % 2 == 0 {
            let plain = operate(inputs, &reference, SPLIT_LOOP, tally);
            (plain, traced_op(tally))
        } else {
            let traced = traced_op(tally);
            (operate(inputs, &reference, SPLIT_LOOP, tally), traced)
        };
        if let Job::Sweep(spec) = &inputs.job {
            trace::arm();
            match drive::chain(spec, drive::solve_point) {
                Ok(chain) => {
                    let got: Vec<&Observables> = chain.iter().map(|r| &r.observables).collect();
                    check_points(tally, &reference, spec.len(), &got);
                    data.runs.extend(chain);
                }
                Err(f) => tally.ops_failed(spec.len(), &f),
            }
            trace::disarm();
        }
        if let (Some(p), Some(t)) = (&plain, &traced) {
            data.overhead.push(t.solve_s() / p.solve_s());
        }
        match traced {
            Some(Op::Point(run)) => data.runs.push(run),
            Some(Op::Sweep(job)) => data.jobs.push(job.metrics),
            None => {}
        }
        if !budget.room_for(t0.elapsed().as_secs_f64()) {
            break;
        }
    }
    let snap = trace::snapshot();
    let m = layer_metrics(&cfg0, &ceil, &snap, &data, tally);
    let chrome = dace_omen::trace::chrome_trace_json(&bench_only(&snap));
    tally.self_check(
        dace_omen::trace::validate_chrome_trace(&chrome)
            .map(|_| ())
            .map_err(|e| format!("chrome trace invalid: {e}")),
    );
    (m, chrome)
}

/// The snapshot with only the benchmark's own spans (the solver's
/// phase windows and counters stay).
fn bench_only(snap: &TraceSnapshot) -> TraceSnapshot {
    TraceSnapshot {
        spans: snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("bench."))
            .cloned()
            .collect(),
        ..snap.clone()
    }
}

/// One iteration's spans: the iteration and the two calls inside it.
struct IterSpans {
    iter_s: f64,
    gf_s: f64,
    finish_s: f64,
}

/// Pairs each `bench.born_iteration` span with the `bench.gf_phase` and
/// `bench.finish_iteration` spans it encloses. The layer-sum check: both
/// calls lie inside the iteration, in order, without overlap, so
/// iteration = GF + SSE + mixing + residual with every term
/// non-negative.
fn iteration_spans(snap: &TraceSnapshot) -> Result<Vec<IterSpans>, String> {
    let named = |name: &str| -> Vec<&SpanRecord> {
        let mut v: Vec<&SpanRecord> = snap.spans.iter().filter(|s| s.name == name).collect();
        v.sort_by_key(|s| s.start_ns);
        v
    };
    let (its, gfs, fins) = (
        named("bench.born_iteration"),
        named("bench.gf_phase"),
        named("bench.finish_iteration"),
    );
    if its.len() != gfs.len() || its.len() != fins.len() {
        return Err(format!(
            "layer sum: {} iteration spans, {} gf_phase, {} finish_iteration",
            its.len(),
            gfs.len(),
            fins.len()
        ));
    }
    let end = |s: &SpanRecord| s.start_ns + s.dur_ns;
    its.iter()
        .zip(gfs.iter().zip(&fins))
        .map(|(i, (g, f))| {
            let nested = i.tid == g.tid
                && i.tid == f.tid
                && i.start_ns <= g.start_ns
                && end(g) <= f.start_ns
                && end(f) <= end(i);
            if nested {
                Ok(IterSpans {
                    iter_s: i.dur_ns as f64 * 1e-9,
                    gf_s: g.dur_ns as f64 * 1e-9,
                    finish_s: f.dur_ns as f64 * 1e-9,
                })
            } else {
                Err(
                    "layer sum: gf_phase/finish_iteration spans not nested in their iteration"
                        .into(),
                )
            }
        })
        .collect()
}

fn layer_metrics(
    cfg: &SimulationConfig,
    ceil: &Ceilings,
    snap: &TraceSnapshot,
    data: &TracedData,
    tally: &mut Tally,
) -> MetricSet {
    let mut m = MetricSet::new(PER_LAYER);
    let nproc = crate::nproc() as f64;
    let samples: Vec<_> = data.runs.iter().flat_map(|r| &r.iters).collect();
    let spans = match iteration_spans(snap) {
        Ok(s) if s.len() == samples.len() => s,
        Ok(s) => {
            tally.self_check(Err(format!(
                "layer sum: {} iteration spans for {} iterations",
                s.len(),
                samples.len()
            )));
            Vec::new()
        }
        Err(e) => {
            tally.self_check(Err(e));
            Vec::new()
        }
    };
    let n = samples.len().max(1) as f64;
    let sum_iter: f64 = spans.iter().map(|s| s.iter_s).sum();
    let sum_gf: f64 = spans.iter().map(|s| s.gf_s).sum();
    let sum_sse: f64 = samples.iter().map(|s| s.sse_s).sum();
    let mix: Vec<f64> = spans
        .iter()
        .zip(&samples)
        .map(|(sp, s)| sp.finish_s - s.sse_s)
        .collect();
    if mix.iter().any(|&v| v < -1e-6) {
        tally.self_check(Err(
            "layer sum: SSE time exceeds its finish_iteration span".into()
        ));
    }
    let residual: f64 = spans.iter().map(|s| s.iter_s - s.gf_s - s.finish_s).sum();

    let device_builds: Vec<f64> = snap
        .spans
        .iter()
        .filter(|s| s.name == "bench.device_build")
        .map(|s| s.dur_ns as f64 * 1e-9)
        .collect();
    m.set("device.build_s", median(&device_builds));
    m.set(
        "core.gf_phase_s",
        median(&spans.iter().map(|s| s.gf_s).collect::<Vec<_>>()),
    );
    m.set(
        "core.finish_s",
        median(&spans.iter().map(|s| s.finish_s).collect::<Vec<_>>()),
    );
    m.set("core.mix_s", median(&mix));
    m.set("core.residual_frac", ratio(residual, sum_iter));

    // GF layer (omen-rgf through the point executor).
    let gf_points = (cfg.nk * cfg.ne + cfg.nk * cfg.nw) as f64;
    let cpu = |k: usize| median(&samples.iter().map(|s| s.gf_cpu_s[k]).collect::<Vec<_>>());
    let cpu_total: f64 = samples.iter().map(|s| s.gf_cpu_s.iter().sum::<f64>()).sum();
    m.set("rgf.points_per_s", ratio(gf_points * n, sum_gf));
    m.set("rgf.spec_cpu_s", cpu(0));
    m.set("rgf.bc_cpu_s", cpu(1));
    m.set("rgf.rgf_cpu_s", cpu(2));
    m.set(
        "rgf.par_eff",
        ratio(cpu_total, sum_gf * gf_threads(cfg) as f64),
    );
    let (hits, lookups) =
        data.runs
            .iter()
            .filter_map(|r| r.bc)
            .fold((0u64, 0u64), |(h, l), (e, p)| {
                (
                    h + e.hits + p.hits,
                    l + e.hits + e.misses + p.hits + p.misses,
                )
            });
    m.set("rgf.bc_hit_rate", ratio(hits as f64, lookups as f64));
    let counted = |c: Counter, finish: bool| -> f64 {
        samples
            .iter()
            .map(|s| {
                let d = if finish {
                    &s.finish_counters
                } else {
                    &s.gf_counters
                };
                d[c.index()] as f64
            })
            .sum()
    };
    let gf_flops = counted(Counter::GemmFlops, false) + counted(Counter::SbsmmFlops, false);
    let gf_gflops = ratio(gf_flops, sum_gf) * 1e-9;
    m.set("gf.gflops", gf_gflops);
    m.set("gf.ceiling_frac", ratio(gf_gflops, ceil.gemm_el * nproc));

    // SSE layer (omen-sse kernel, or the omen-comm plan kernel).
    let sse_flops: f64 = samples.iter().map(|s| s.sse_flops as f64).sum();
    let sse_gflops = ratio(sse_flops, sum_sse) * 1e-9;
    m.set(
        "sse.phase_s",
        median(&samples.iter().map(|s| s.sse_s).collect::<Vec<_>>()),
    );
    m.set("sse.share", ratio(sum_sse, sum_iter));
    m.set("sse.gflops", sse_gflops);
    m.set("sse.ceiling_frac", ratio(sse_gflops, ceil.sbsmm * nproc));

    // Kernel layer (omen-linalg): counts per Born iteration.
    let per_iter = |c: Counter| (counted(c, false) + counted(c, true)) / n;
    m.set("linalg.gemm_calls", per_iter(Counter::GemmCalls));
    m.set("linalg.sbsmm_calls", per_iter(Counter::SbsmmCalls));
    m.set("linalg.bytes_packed", per_iter(Counter::BytesPacked));
    m.set("linalg.gemm_ceiling_gflops", ceil.gemm_el);
    m.set("linalg.gemm_ph_ceiling_gflops", ceil.gemm_ph);
    m.set("linalg.sbsmm_ceiling_gflops", ceil.sbsmm);

    // Exchange layer (omen-comm): exact ledger counts.
    let ledgers: Vec<(u64, u64)> = data
        .runs
        .iter()
        .flat_map(|r| r.ledgers.iter().copied())
        .collect();
    let nl = ledgers.len().max(1) as f64;
    let bytes = ledgers.iter().map(|l| l.0 as f64).sum::<f64>() / nl;
    let msgs = ledgers.iter().map(|l| l.1 as f64).sum::<f64>() / nl;
    let comm_s: f64 = snap
        .phases
        .iter()
        .filter(|p| p.name.starts_with("comm_"))
        .map(|p| p.dur_ns as f64 * 1e-9)
        .sum();
    m.set("comm.bytes_per_iter", bytes);
    m.set("comm.msgs_per_iter", msgs);
    m.set(
        "comm.model_ratio",
        if ledgers.is_empty() {
            0.0
        } else {
            ratio(bytes, model_bytes(cfg))
        },
    );
    m.set("comm.plan_frac", ratio(comm_s, sum_iter));

    // Sweep service (omen-serve): the traced jobs' own accounting.
    let jobs = data.jobs.len().max(1) as f64;
    let job_sum = |f: fn(&JobMetrics) -> f64| data.jobs.iter().map(f).sum::<f64>() / jobs;
    m.set("serve.warm_points", job_sum(|j| f64::from(j.warm_points)));
    m.set("serve.cache_hit_rate", job_sum(|j| j.cache_hit_rate()));
    m.set(
        "serve.iters_saved",
        job_sum(|j| f64::from(j.iterations_saved)),
    );
    m.set("serve.retries", job_sum(|j| f64::from(j.retries)));
    m.set(
        "serve.cold_fallbacks",
        job_sum(|j| f64::from(j.cold_fallbacks)),
    );

    m.set("trace.overhead_frac", median(&data.overhead) - 1.0);
    m
}

/// The §6.1.2 volume model of the configured plan at the live device.
fn model_bytes(cfg: &SimulationConfig) -> f64 {
    let ExecutorKind::Distributed { ranks } = cfg.executor else {
        return 0.0;
    };
    let Ok(sim) = Simulation::new(cfg.clone()) else {
        return 0.0;
    };
    let prob = sim.sse_problem();
    let params = SimParams {
        na: prob.na(),
        nb: prob.device.max_neighbors(),
        norb: prob.norb(),
        n3d: 3,
        nk: prob.nk,
        nq: prob.nq,
        ne: prob.ne,
        nw: prob.nw,
        bnum: prob.device.bnum(),
        bc_block_ops: 1.0,
    };
    match cfg.comm_plan {
        CommPlan::Omen => omen_volume(&params, ranks),
        CommPlan::Dace => match tiling_for_ranks(params.na, params.ne, ranks) {
            Some(t) => dace_volume_with(&params, t.ta, t.te),
            None => 0.0,
        },
    }
}

/// Worker threads of the GF phase under `cfg`'s executor.
fn gf_threads(cfg: &SimulationConfig) -> usize {
    match cfg.executor {
        ExecutorKind::Serial => 1,
        ExecutorKind::Rayon { threads } => RayonExecutor::new(threads).effective_threads(),
        ExecutorKind::Distributed { ranks } | ExecutorKind::Partitioned { ranks } => ranks,
        ExecutorKind::Dag { .. } => crate::nproc(),
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of `v` (mean of the middle pair for even lengths); NaN when
/// empty, which the metric set reports as unmeasured.
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}
