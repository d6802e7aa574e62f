//! What a result was measured on: revision, host, dispatch tier, inputs
//! and the arming of the trace and fault hooks.

use crate::inputs::Inputs;
use crate::json;
use dace_omen::trace;
use std::path::Path;
use std::process::Command;

/// The hooks this process's environment arms, each as its own crate
/// reads it: the fault plan (`omen_fault::active`, which any
/// `OMEN_FAULT_SEED` arms, `0` included) and the trace registry
/// (`omen_trace::armed`, which reads `OMEN_TRACE` at its first call). A
/// timed run refuses to start under either: fault injection changes the
/// work, and an armed trace registry adds its overhead to every
/// end-to-end number. Call it before anything arms or disarms the
/// registry.
pub fn armed_from_env() -> Vec<&'static str> {
    let mut armed = Vec::new();
    if omen_fault::active() {
        armed.push("OMEN_FAULT_SEED");
    }
    if trace::armed() {
        armed.push("OMEN_TRACE");
    }
    armed
}

/// The provenance record of one run.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working directory, when it is a
    /// git checkout.
    pub git_rev: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// The SIMD tier the packed kernels dispatch to.
    pub simd_tier: &'static str,
    /// Whether `OMEN_FORCE_SCALAR` pins the portable kernels.
    pub force_scalar: bool,
    /// Workload name.
    pub workload: &'static str,
    /// The seed and the grid entry it chose.
    pub seed: u64,
    /// Grid entry chosen by the seed.
    pub variant: u64,
    /// FNV-1a over the generated configurations.
    pub config_fingerprint: u64,
    /// Whether the run armed the trace registry for its traced leg.
    pub trace_armed: bool,
    /// Whether the fault plan is armed.
    pub fault_armed: bool,
}

impl Provenance {
    /// Collects the record for `inputs`.
    pub fn collect(inputs: &Inputs, trace_armed: bool) -> Provenance {
        let force_scalar =
            std::env::var_os("OMEN_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty());
        Provenance {
            git_rev: git_rev(),
            nproc: crate::nproc(),
            simd_tier: simd_tier(force_scalar),
            force_scalar,
            workload: inputs.workload.name(),
            seed: inputs.seed,
            variant: inputs.variant,
            config_fingerprint: inputs.fingerprint(),
            trace_armed,
            fault_armed: omen_fault::active(),
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\":{},\"nproc\":{},\"simd_tier\":{},\"force_scalar\":{},\"workload\":{},\"seed\":{},\"variant\":{},\"config_fingerprint\":\"{:016x}\",\"trace_armed\":{},\"fault_armed\":{}}}",
            json::string(&self.git_rev),
            self.nproc,
            json::string(self.simd_tier),
            self.force_scalar,
            json::string(self.workload),
            self.seed,
            self.variant,
            self.config_fingerprint,
            self.trace_armed,
            self.fault_armed,
        )
    }
}

/// The revision of the working directory. Only a directory that is
/// itself a checkout is asked, so a source tree without `.git` never
/// reports the revision of some enclosing repository.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The packed kernels' dispatch rule: AVX2+FMA when the CPU has both and
/// `OMEN_FORCE_SCALAR` is not set, the portable kernel otherwise.
fn simd_tier(force_scalar: bool) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if !force_scalar
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
    }
    let _ = force_scalar;
    "portable"
}
