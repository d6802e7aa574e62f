//! The metric registry: every name the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! smoke test holds the two in step.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// What a user of the solver sees, measured with tracing off.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("solve_s", "s"),
    m("iter_s", "s"),
    m("born_iters", "count"),
    m("points_per_s", "1/s"),
    m("peak_heap_mib", "MiB"),
    m("ok_frac", "frac"),
];

/// Per-crate layer metrics, from the traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    m("device.build_s", "s"),
    m("core.gf_phase_s", "s"),
    m("core.finish_s", "s"),
    m("core.mix_s", "s"),
    m("core.residual_frac", "frac"),
    m("rgf.points_per_s", "1/s"),
    m("rgf.spec_cpu_s", "s"),
    m("rgf.bc_cpu_s", "s"),
    m("rgf.rgf_cpu_s", "s"),
    m("rgf.par_eff", "frac"),
    m("rgf.bc_hit_rate", "frac"),
    m("gf.gflops", "GFLOP/s"),
    m("gf.ceiling_frac", "frac"),
    m("sse.phase_s", "s"),
    m("sse.share", "frac"),
    m("sse.gflops", "GFLOP/s"),
    m("sse.ceiling_frac", "frac"),
    m("linalg.gemm_calls", "count"),
    m("linalg.sbsmm_calls", "count"),
    m("linalg.bytes_packed", "B"),
    m("linalg.gemm_ceiling_gflops", "GFLOP/s"),
    m("linalg.gemm_ph_ceiling_gflops", "GFLOP/s"),
    m("linalg.sbsmm_ceiling_gflops", "GFLOP/s"),
    m("comm.bytes_per_iter", "B"),
    m("comm.msgs_per_iter", "count"),
    m("comm.model_ratio", "ratio"),
    m("comm.plan_frac", "frac"),
    m("serve.warm_points", "count"),
    m("serve.cache_hit_rate", "frac"),
    m("serve.iters_saved", "count"),
    m("serve.retries", "count"),
    m("serve.cold_fallbacks", "count"),
    m("trace.overhead_frac", "frac"),
];

/// Values of one registry, filled by name.
#[derive(Clone, Debug)]
pub struct MetricSet {
    specs: &'static [MetricSpec],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// An empty set over `specs`.
    pub fn new(specs: &'static [MetricSpec]) -> MetricSet {
        MetricSet {
            specs,
            values: BTreeMap::new(),
        }
    }

    /// Records `name`.
    ///
    /// # Panics
    /// Panics on a name outside the registry: that is a bug in the
    /// benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.specs.iter().any(|s| s.name == name),
            "metric {name} is not in the registry"
        );
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.values.insert(name, value + 0.0);
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(spec, value)` in registry order; `Err` names the first metric
    /// that was never recorded or is not a finite number.
    pub fn entries(&self) -> Result<Vec<(MetricSpec, f64)>, String> {
        self.specs
            .iter()
            .map(|s| match self.values.get(s.name) {
                Some(v) if v.is_finite() => Ok((*s, *v)),
                Some(v) => Err(format!("metric {} is not finite ({v})", s.name)),
                None => Err(format!("metric {} was not measured", s.name)),
            })
            .collect()
    }

    /// [`MetricSet::entries`] with every unmeasured or non-finite value
    /// reported as 0 (the output of a run that failed).
    pub fn entries_lossy(&self) -> Vec<(MetricSpec, f64)> {
        self.specs
            .iter()
            .map(|s| {
                let v = self.values.get(s.name).copied().unwrap_or(0.0);
                (*s, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }
}
