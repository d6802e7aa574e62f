//! End-to-end and per-layer benchmark of the dace-omen Born loop.
//!
//! One command runs a named workload from a seed for a time budget,
//! checks every result against a serial reference, and prints every
//! metric with its unit; the last line of its output is one JSON object.
//! See `README.md` beside this crate for the workloads and for which
//! layer metric should move which end-to-end metric.

pub mod ceilings;
pub mod drive;
pub mod gate;
pub mod heap;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod provenance;
pub mod run;

pub use inputs::{Inputs, Job, Scale, Workload};
pub use run::{run, Outcome, RunOptions};

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
