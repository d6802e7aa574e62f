//! The distributed Born loop: the same self-consistent simulation run
//! serially and under `ExecutorKind::Distributed { ranks }`, where rank
//! threads own contiguous partitions of the (kz, E) grid and every SSE
//! phase executes one of the paper's two communication schemes across
//! the in-process [`Transport`] seam — OMEN's round-based replication
//! or the data-centric four-alltoall redistribution.
//!
//! Prints per-plan: the converged current (and its deviation from the
//! serial reference), the measured communication volume per Born
//! iteration from the live [`VolumeLedger`]s, and the §6.1.2 model
//! volume the measurement is validated against in CI
//! (`table45_comm --execute` + `perf_check`).
//!
//! Run with: `cargo run --release --example distributed_sweep`

use dace_omen::core::{
    CommPlan, ExecutorKind, PlanKernel, Simulation, SimulationConfig, SimulationResult,
};
use dace_omen::perf::{dace_volume_with, omen_volume, SimParams};

const RANKS: usize = 4;

fn config() -> SimulationConfig {
    SimulationConfig::demo()
        .into_builder()
        .max_iterations(5)
        .config()
        .clone()
}

fn main() {
    let mut serial_sim = Simulation::new(config()).expect("valid configuration");
    println!(
        "FinFET demo: {} atoms, Nkz={} NE={} Nω={}",
        serial_sim.device.num_atoms(),
        serial_sim.config().nk,
        serial_sim.config().ne,
        serial_sim.config().nw
    );
    // The analytic volume models, evaluated at the live device.
    let params = {
        let prob = serial_sim.sse_problem();
        SimParams {
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
        }
    };
    let serial = serial_sim.run().expect("serial reference");
    println!(
        "serial reference: I = {:.6e} after {} Born iterations\n",
        serial.current(),
        serial.records.len()
    );

    for plan in [CommPlan::Omen, CommPlan::Dace] {
        let (result, per_iter) = run_distributed(plan);
        let model = match plan {
            CommPlan::Omen => omen_volume(&params, RANKS),
            CommPlan::Dace => {
                let t = dace_omen::comm::tiling_for_ranks(params.na, params.ne, RANKS)
                    .expect("demo device fits a 4-rank tiling");
                dace_volume_with(&params, t.ta, t.te)
            }
        };
        let rel = ((result.current() - serial.current()) / serial.current()).abs();
        let why = match plan {
            CommPlan::Omen => "cross-schedule reassociation only",
            CommPlan::Dace => "tiles run the transformed kernel: bitwise",
        };
        println!("{} plan on {RANKS} in-process ranks:", plan.name());
        println!(
            "  I = {:.6e}  ({rel:.2e} relative to serial — {why})",
            result.current()
        );
        println!(
            "  exchange: {} B/Born iteration measured, model {:.0} B ({:.3}x)\n",
            per_iter,
            model,
            per_iter as f64 / model
        );
    }
    println!("(the distributed engine is bitwise-identical to a serial run of the same");
    println!(" plan kernel — pinned by tests/integration_executors.rs across ranks 1/2/4)");
}

/// One distributed run, keeping the plan kernel's ledger sink so the
/// per-iteration volumes can be read back.
fn run_distributed(plan: CommPlan) -> (SimulationResult, u64) {
    let mut cfg = config();
    cfg.executor = ExecutorKind::Distributed { ranks: RANKS };
    cfg.comm_plan = plan;
    let mut sim = Simulation::new(cfg).expect("valid distributed configuration");
    let kernel = PlanKernel::new(plan, RANKS);
    let sink = kernel.ledger_sink();
    sim.set_kernel(Box::new(kernel));
    let result = sim.run().expect("distributed run");
    let ledgers = sink.lock().expect("ledger sink").clone();
    assert!(!ledgers.is_empty(), "one ledger per Born iteration");
    let bytes: Vec<u64> = ledgers.iter().map(|l| l.total_bytes()).collect();
    assert!(
        bytes.windows(2).all(|w| w[0] == w[1]),
        "plan volume is deterministic per iteration"
    );
    (result, bytes[0])
}
