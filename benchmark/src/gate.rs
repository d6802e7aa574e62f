//! The correctness gate: every result against reference observables
//! produced by the serial executor on the same generated inputs.
//!
//! The reference runs through `Simulation::run`, the solver's own Born
//! loop, so the gate also checks that the traced leg's split loop
//! terminates where the solver's does.

use crate::drive::Failure;
use dace_omen::core::{ExecutorKind, PlanKernel, Simulation, SimulationConfig, WarmStartData};
use dace_omen::serve::SweepSpec;

/// Largest relative deviation from the reference the gate accepts.
///
/// Zero: the thread-parallel GF engine folds point contributions in
/// global order, so it is bitwise equal to the serial engine, and the
/// distributed engine is bitwise equal to the serial engine running the
/// same plan kernel. Any deviation is a change in the arithmetic.
pub const REL_TOL: f64 = 0.0;

/// The observables the gate compares.
#[derive(Clone, Debug, PartialEq)]
pub struct Observables {
    /// Converged mid-device current.
    pub current: f64,
    /// Current through every slab interface (empty where the producer
    /// does not expose it, as for points solved by the sweep service).
    pub profile: Vec<f64>,
    /// Born iterations to convergence.
    pub iterations: usize,
}

/// Checks `got` against `want`: same iteration count, current and (when
/// `got` has one) the per-interface profile within `tol` relative.
pub fn check(got: &Observables, want: &Observables, tol: f64) -> Result<(), Failure> {
    let close = |a: f64, b: f64| (a - b).abs() <= tol * b.abs();
    if got.iterations != want.iterations {
        return Err(Failure::Mismatch(format!(
            "{} Born iterations, reference {}",
            got.iterations, want.iterations
        )));
    }
    if !close(got.current, want.current) {
        return Err(Failure::Mismatch(format!(
            "current {:e}, reference {:e}",
            got.current, want.current
        )));
    }
    if got.profile.is_empty() {
        return Ok(());
    }
    if got.profile.len() != want.profile.len() {
        return Err(Failure::Mismatch(format!(
            "{} profile entries, reference {}",
            got.profile.len(),
            want.profile.len()
        )));
    }
    match got
        .profile
        .iter()
        .zip(&want.profile)
        .position(|(&a, &b)| !close(a, b))
    {
        Some(i) => Err(Failure::Mismatch(format!(
            "interface {i} current {:e}, reference {:e}",
            got.profile[i], want.profile[i]
        ))),
        None => Ok(()),
    }
}

/// Reference of one bias point: the serial executor; a distributed
/// configuration keeps its plan kernel.
pub fn reference_point(
    cfg: &SimulationConfig,
    warm: Option<(&WarmStartData, bool)>,
) -> Result<(Observables, Simulation), Failure> {
    let serial = SimulationConfig {
        executor: ExecutorKind::Serial,
        ..cfg.clone()
    };
    let mut sim = Simulation::new(serial).map_err(|e| Failure::Config(e.to_string()))?;
    if let ExecutorKind::Distributed { ranks } = cfg.executor {
        sim.set_kernel(Box::new(PlanKernel::new(cfg.comm_plan, ranks)));
    }
    if let Some((data, boundary_changed)) = warm {
        sim.warm_start_with(data, boundary_changed)
            .map_err(|e| Failure::Config(e.to_string()))?;
    }
    let run = sim.run().map_err(Failure::Driver)?;
    let last = run
        .records
        .last()
        .ok_or_else(|| Failure::Mismatch("reference ran no iteration".into()))?;
    let obs = Observables {
        current: last.current,
        profile: last.current_profile.clone(),
        iterations: run.records.len(),
    };
    Ok((obs, sim))
}

/// Reference of a sweep: its points in order, each warm-started from the
/// previous converged state.
pub fn reference_sweep(spec: &SweepSpec) -> Result<Vec<Observables>, Failure> {
    crate::drive::chain(spec, reference_point)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> Observables {
        Observables {
            current: 0.25,
            profile: vec![0.25, 0.2500001, 0.2499999],
            iterations: 8,
        }
    }

    #[test]
    fn identical_observables_pass() {
        assert_eq!(check(&obs(), &obs(), REL_TOL), Ok(()));
    }

    #[test]
    fn one_ulp_on_the_current_is_rejected() {
        let mut want = obs();
        want.current = f64::from_bits(want.current.to_bits() + 1);
        assert!(matches!(
            check(&obs(), &want, REL_TOL),
            Err(Failure::Mismatch(_))
        ));
    }

    #[test]
    fn profile_iterations_and_nan_are_checked() {
        let mut want = obs();
        want.profile[2] *= 1.0 + 1e-15;
        assert!(check(&obs(), &want, REL_TOL).is_err());
        let mut want = obs();
        want.iterations += 1;
        assert!(check(&obs(), &want, REL_TOL).is_err());
        let mut got = obs();
        got.current = f64::NAN;
        assert!(check(&got, &obs(), REL_TOL).is_err());
    }
}
