//! The benchmark's own calls into the solver.
//!
//! Every layer is timed from outside, through public entry points. The
//! end-to-end leg runs a bias point as a user does (`Simulation::new`,
//! then `Simulation::run`) and a sweep through the sweep server's submit
//! and wait. The traced leg splits each Born iteration into its
//! `Simulation::gf_phase` and `Simulation::finish_iteration` calls, each
//! inside a `bench.*` span, which records only while the trace registry
//! is armed.

use crate::gate::Observables;
use dace_omen::comm::VolumeLedger;
use dace_omen::core::{
    BoundaryCacheStats, DriverError, ExecutorKind, PlanKernel, Simulation, SimulationConfig,
    WarmStartData,
};
use dace_omen::serve::{JobMetrics, ServerConfig, SweepServer, SweepSpec};
use dace_omen::trace::{self, span, NCOUNTERS};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Why an operation produced no usable result.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// The configuration was rejected.
    Config(String),
    /// The solver returned a typed error.
    Driver(DriverError),
    /// The sweep service failed or refused the job.
    Job(String),
    /// The result disagrees with the reference.
    Mismatch(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Config(e) => write!(f, "configuration rejected: {e}"),
            Failure::Driver(e) => write!(f, "driver error: {e}"),
            Failure::Job(e) => write!(f, "sweep job failed: {e}"),
            Failure::Mismatch(e) => write!(f, "wrong result: {e}"),
        }
    }
}

/// Per-ledger handle of the plan kernel a distributed run installs.
pub type LedgerSink = Arc<Mutex<Vec<VolumeLedger>>>;

/// One Born iteration as the benchmark saw it.
#[derive(Clone, Debug)]
pub struct IterSample {
    /// Wall clock of the whole iteration.
    pub wall_s: f64,
    /// `IterationRecord::sse_seconds`.
    pub sse_s: f64,
    /// `IterationRecord::sse_flops`.
    pub sse_flops: u64,
    /// `GfPhaseOutput::times` (CPU seconds summed over workers):
    /// specialization, boundary conditions, RGF.
    pub gf_cpu_s: [f64; 3],
    /// Trace-counter increments across the `gf_phase` call (all zero
    /// while the registry is disarmed).
    pub gf_counters: [u64; NCOUNTERS],
    /// Trace-counter increments across the `finish_iteration` call.
    pub finish_counters: [u64; NCOUNTERS],
}

/// One converged bias point.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// Converged observables.
    pub observables: Observables,
    /// Every iteration, in order, as the split loop of [`solve_point`]
    /// saw it (empty from [`run_point`]).
    pub iters: Vec<IterSample>,
    /// Boundary-cache counters `(electron, phonon)` at convergence.
    pub bc: Option<(BoundaryCacheStats, BoundaryCacheStats)>,
    /// Configuration to the first Born iteration.
    pub setup_s: f64,
    /// Configuration to converged result, set-up included.
    pub solve_s: f64,
    /// `(bytes, calls)` of each iteration's plan-kernel ledger, on a
    /// distributed run.
    pub ledgers: Vec<(u64, u64)>,
}

/// Builds the simulation the way the workload runs it. A distributed
/// configuration gets a fresh plan kernel whose ledger sink the
/// benchmark keeps.
pub fn build(cfg: &SimulationConfig) -> Result<(Simulation, Option<LedgerSink>), Failure> {
    let mut sim = Simulation::new(cfg.clone()).map_err(|e| Failure::Config(e.to_string()))?;
    let sink = match cfg.executor {
        ExecutorKind::Distributed { ranks } => {
            let kernel = PlanKernel::new(cfg.comm_plan, ranks);
            let sink = kernel.ledger_sink();
            sim.set_kernel(Box::new(kernel));
            Some(sink)
        }
        _ => None,
    };
    Ok((sim, sink))
}

/// Runs one bias point the way a user of the solver does: [`build`], then
/// `Simulation::run` (the driver's own Born loop, with its interruption
/// checks and warm-divergence watchdog), timed together.
pub fn run_point(cfg: &SimulationConfig) -> Result<PointRun, Failure> {
    let t0 = Instant::now();
    let (mut sim, sink) = build(cfg)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let result = sim.run().map_err(Failure::Driver)?;
    let solve_s = t0.elapsed().as_secs_f64();
    let last = result
        .records
        .last()
        .ok_or_else(|| Failure::Mismatch("the solver ran no iteration".into()))?;
    Ok(PointRun {
        observables: Observables {
            current: last.current,
            profile: last.current_profile.clone(),
            iterations: result.records.len(),
        },
        iters: Vec::new(),
        bc: sim.boundary_stats(),
        setup_s,
        solve_s,
        ledgers: ledger_totals(sink),
    })
}

/// Runs one bias point to convergence through the benchmark's own Born
/// loop, split at the phase boundary (the termination rule of
/// `Simulation::run`), warm-started from `warm` when given (with the
/// sweep axis's `changes_boundaries` flag). Returns the converged
/// simulation too, for its warm-start state.
pub fn solve_point(
    cfg: &SimulationConfig,
    warm: Option<(&WarmStartData, bool)>,
) -> Result<(PointRun, Simulation), Failure> {
    let _solve = span!("bench.solve_point");
    let t0 = Instant::now();
    let (mut sim, sink) = {
        let _s = span!("bench.setup");
        build(cfg)?
    };
    if let Some((data, boundary_changed)) = warm {
        sim.warm_start_with(data, boundary_changed)
            .map_err(|e| Failure::Config(e.to_string()))?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut iters = Vec::new();
    let mut last = None;
    let mut converged = false;
    while sim.iterations_done() < cfg.max_iterations {
        let _it = span!("bench.born_iteration");
        let t_it = Instant::now();
        let c0 = trace::counters();
        let gf = {
            let _s = span!("bench.gf_phase");
            sim.gf_phase()
        };
        let c1 = trace::counters();
        let gf_cpu_s = [
            gf.times.specialization.as_secs_f64(),
            gf.times.boundary.as_secs_f64(),
            gf.times.rgf.as_secs_f64(),
        ];
        let (rec, _spectral) = {
            let _s = span!("bench.finish_iteration");
            sim.finish_iteration(gf)
        };
        let c2 = trace::counters();
        iters.push(IterSample {
            wall_s: t_it.elapsed().as_secs_f64(),
            sse_s: rec.sse_seconds,
            sse_flops: rec.sse_flops,
            gf_cpu_s,
            gf_counters: delta(&c0, &c1),
            finish_counters: delta(&c1, &c2),
        });
        if !rec.current.is_finite() {
            return Err(Failure::Driver(DriverError::NonFinite {
                iteration: rec.iteration,
            }));
        }
        converged = rec.rel_change < cfg.tolerance && rec.iteration > 0;
        last = Some(rec);
        if converged {
            break;
        }
    }
    let rec = last.expect("max_iterations >= 1 is validated");
    if !converged {
        return Err(Failure::Driver(DriverError::Unconverged {
            iterations: sim.iterations_done(),
            rel_change: rec.rel_change,
        }));
    }
    let solve_s = t0.elapsed().as_secs_f64();
    let run = PointRun {
        observables: Observables {
            current: rec.current,
            profile: rec.current_profile,
            iterations: iters.len(),
        },
        iters,
        bc: sim.boundary_stats(),
        setup_s,
        solve_s,
        ledgers: ledger_totals(sink),
    };
    Ok((run, sim))
}

/// Runs `spec`'s points in order through `solve`, each warm-started from
/// the previous point's converged simulation, as the sweep service does
/// for monotonic values with one worker.
pub fn chain<T>(
    spec: &SweepSpec,
    mut solve: impl FnMut(
        &SimulationConfig,
        Option<(&WarmStartData, bool)>,
    ) -> Result<(T, Simulation), Failure>,
) -> Result<Vec<T>, Failure> {
    let mut out = Vec::with_capacity(spec.len());
    let mut donor: Option<WarmStartData> = None;
    for i in 0..spec.len() {
        let warm = donor.as_ref().map(|d| (d, spec.axis.changes_boundaries()));
        let (point, sim) = solve(&spec.config_for(i), warm)?;
        donor = Some(sim.warm_start_data());
        out.push(point);
    }
    Ok(out)
}

/// One sweep job through the sweep service.
#[derive(Clone, Debug)]
pub struct ServedJob {
    /// Per-point observables (the service reports no current profile).
    pub points: Vec<Observables>,
    /// The job's own accounting.
    pub metrics: JobMetrics,
    /// Submit to result.
    pub solve_s: f64,
}

/// The service configuration of the sweep workload: one worker, so the
/// points of a job run in order and each warm-starts from its
/// predecessor; the solver inside parallelizes over the cores.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// Submits `spec` to a fresh server and waits for the result. A fresh
/// server per job keeps every job cold at its first point.
pub fn serve_sweep(spec: &SweepSpec) -> Result<ServedJob, Failure> {
    let server = SweepServer::start(server_config());
    let _job = span!("bench.sweep_job");
    let t0 = Instant::now();
    let handle = server
        .submit(spec.clone())
        .map_err(|e| Failure::Job(format!("{e:?}")))?;
    let result = handle.wait().map_err(|e| Failure::Job(format!("{e:?}")))?;
    let solve_s = t0.elapsed().as_secs_f64();
    let points = result
        .points
        .iter()
        .map(|p| Observables {
            current: p.current,
            profile: Vec::new(),
            iterations: p.iterations as usize,
        })
        .collect();
    Ok(ServedJob {
        points,
        metrics: result.metrics,
        solve_s,
    })
}

/// `(bytes, calls)` of each ledger the plan kernel deposited.
fn ledger_totals(sink: Option<LedgerSink>) -> Vec<(u64, u64)> {
    sink.map(|s| {
        let ledgers = s.lock().expect("ledger sink lock");
        ledgers
            .iter()
            .map(|l| (l.total_bytes(), l.total_calls()))
            .collect()
    })
    .unwrap_or_default()
}

fn delta(a: &[u64; NCOUNTERS], b: &[u64; NCOUNTERS]) -> [u64; NCOUNTERS] {
    std::array::from_fn(|i| b[i].saturating_sub(a[i]))
}
