//! The command refuses to measure while a hook is armed from the
//! environment, and prints no result line when it does.

use std::process::Command;

fn bench(env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_born-bench"));
    cmd.args([
        "--workload",
        "born_demo",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    for var in ["OMEN_FAULT_SEED", "OMEN_FAULT_RATE", "OMEN_TRACE"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("the benchmark binary starts")
}

fn assert_refused(env: &[(&str, &str)], hook: &str) {
    let out = bench(env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{env:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{env:?} printed a result");
    assert!(
        stderr.contains("refusing to run") && stderr.contains(hook),
        "{stderr}"
    );
}

#[test]
fn a_fault_seed_of_zero_still_arms_the_plan_and_is_refused() {
    assert_refused(&[("OMEN_FAULT_SEED", "0")], "OMEN_FAULT_SEED");
    assert_refused(&[("OMEN_FAULT_SEED", "7")], "OMEN_FAULT_SEED");
}

#[test]
fn an_armed_trace_registry_is_refused() {
    assert_refused(&[("OMEN_TRACE", "1")], "OMEN_TRACE");
}
