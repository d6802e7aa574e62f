//! Workload inputs generated from the seed.
//!
//! The seed chooses one of [`VARIANTS`] bias points (or bias windows) on
//! a fixed grid; the solver receives only the resulting
//! [`SimulationConfig`]s. Each grid sits inside a bias range where every
//! variant converges in the same number of Born iterations, so seeds
//! change the inputs without changing the amount of work, and the
//! spread between seeds measures the machine rather than the physics.

use dace_omen::core::{CommPlan, ExecutorKind, KernelVariant, SimulationConfig};
use dace_omen::serve::sweep::fnv1a;
use dace_omen::serve::{linspace, SweepAxis, SweepSpec};
use omen_fault::splitmix64;

/// Distinct inputs a seed can select per workload.
pub const VARIANTS: u64 = 16;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One cold bias point on the demo device, SSE-bound.
    BornDemo,
    /// A warm-started drain-bias sweep through the sweep service,
    /// GF-bound.
    BiasSweep,
    /// One bias point rank-decomposed over the DaCe exchange plan.
    BornDistributed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BornDemo,
        Workload::BiasSweep,
        Workload::BornDistributed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BornDemo => "born_demo",
            Workload::BiasSweep => "bias_sweep",
            Workload::BornDistributed => "born_distributed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the real workloads, or the shrunken smoke mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The workloads as specified (seconds per solve).
    Full,
    /// The `tiny` device with small grids (well under a second per solve).
    Tiny,
}

/// What one operation of a workload solves.
#[derive(Clone, Debug)]
pub enum Job {
    /// One self-consistent bias point.
    Point(SimulationConfig),
    /// One sweep job of several bias points.
    Sweep(SweepSpec),
}

/// The generated inputs of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// Which grid entry the seed chose.
    pub variant: u64,
    /// The generated job.
    pub job: Job,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        // splitmix64 spreads consecutive seeds over the grid.
        let variant = splitmix64(seed) % VARIANTS;
        let step = variant as f64;
        let job = match (workload, scale) {
            // Demo device, nk 3 / ne 48 / nw 3: SSE takes about two
            // thirds of each iteration. Every μ_S of the grid,
            // [0.2525, 0.26] eV, converges in 8 Born iterations (last
            // relative change 2e-6..4e-5 against the 1e-4 tolerance,
            // the one before above 1e-3).
            (Workload::BornDemo, Scale::Full) => {
                let mut cfg = point_config(SimulationConfig::demo());
                cfg.mu_source = 0.2525 + 0.0005 * step;
                Job::Point(cfg)
            }
            // Demo device with one momentum and one phonon frequency but
            // a fine energy grid: RGF and boundary conditions dominate.
            // Eight points 0.2 eV wide. Every window start of the grid,
            // [0.201, 0.204] eV, converges in 27 Born iterations, split
            // [6, 2, 3, 3, 3, 3, 4, 3] over the points (starts 0.2005
            // and 0.2045..0.2075 take 28).
            (Workload::BiasSweep, Scale::Full) => {
                let mut base = point_config(SimulationConfig::demo());
                base.nk = 1;
                base.ne = 96;
                base.nw = 1;
                let lo = 0.201 + 0.0002 * step;
                Job::Sweep(SweepSpec::new(
                    base,
                    SweepAxis::Bias,
                    linspace(lo, lo + 0.2, 8),
                ))
            }
            // Demo device, nk 2 / ne 32 / nw 2 over 2 ranks: the SSE
            // phase is the DaCe four-alltoall exchange. Every μ_S of the
            // grid, [0.27, 0.2775] eV, converges in 9 Born iterations
            // (last relative change below 5e-5, the one before above
            // 2.6e-4).
            (Workload::BornDistributed, Scale::Full) => {
                let mut cfg = distributed_config(SimulationConfig::demo());
                cfg.nk = 2;
                cfg.ne = 32;
                cfg.nw = 2;
                cfg.mu_source = 0.27 + 0.0005 * step;
                Job::Point(cfg)
            }
            (Workload::BornDemo, Scale::Tiny) => {
                let mut cfg = point_config(SimulationConfig::tiny());
                cfg.mu_source = 0.29 + 0.001 * step;
                Job::Point(cfg)
            }
            (Workload::BiasSweep, Scale::Tiny) => {
                let mut base = point_config(SimulationConfig::tiny());
                base.nk = 1;
                base.nw = 1;
                let lo = 0.20 + 0.001 * step;
                Job::Sweep(SweepSpec::new(
                    base,
                    SweepAxis::Bias,
                    linspace(lo, lo + 0.1, 3),
                ))
            }
            (Workload::BornDistributed, Scale::Tiny) => {
                let mut cfg = distributed_config(SimulationConfig::tiny());
                cfg.mu_source = 0.29 + 0.001 * step;
                Job::Point(cfg)
            }
        };
        Inputs {
            workload,
            seed,
            variant,
            job,
        }
    }

    /// Every configuration the job solves, in order.
    pub fn configs(&self) -> Vec<SimulationConfig> {
        match &self.job {
            Job::Point(cfg) => vec![cfg.clone()],
            Job::Sweep(spec) => (0..spec.len()).map(|i| spec.config_for(i)).collect(),
        }
    }

    /// FNV-1a fingerprint over every generated configuration.
    pub fn fingerprint(&self) -> u64 {
        let text: String = self.configs().iter().map(|c| format!("{c:?}")).collect();
        fnv1a(text.as_bytes())
    }
}

/// Transformed SSE kernel on all cores; a point that misses the
/// tolerance before the iteration cap is an error, not a result.
fn point_config(base: SimulationConfig) -> SimulationConfig {
    SimulationConfig {
        kernel: KernelVariant::Transformed,
        executor: ExecutorKind::Rayon { threads: 0 },
        require_convergence: true,
        ..base
    }
}

fn distributed_config(base: SimulationConfig) -> SimulationConfig {
    SimulationConfig {
        executor: ExecutorKind::Distributed { ranks: 2 },
        comm_plan: CommPlan::Dace,
        require_convergence: true,
        ..base
    }
}
