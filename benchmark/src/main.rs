//! `born-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>]`
//!
//! Prints every metric with its unit, the provenance and any failure,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--out` it also writes the full record
//! (and the chrome trace of a traced run) into that directory.

use born_bench::provenance::armed_from_env;
use born_bench::{run, RunOptions, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: born-bench --workload <born_demo|bias_sweep|born_distributed> \
--seed <u64> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    opts: RunOptions,
    out: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        opts: RunOptions {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::Full,
        },
        out,
    })
}

fn main() -> ExitCode {
    // First, before the run arms or disarms the trace registry.
    let armed = armed_from_env();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !armed.is_empty() {
        eprintln!(
            "refusing to run: {} armed from the environment (unset to measure)",
            armed.join(", ")
        );
        return ExitCode::from(2);
    }
    let opts = args.opts;
    let outcome = run(&opts);

    println!(
        "# {} seed {} ({} s, trace {})",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# provenance {}", outcome.provenance.to_json());
    for (spec, v) in outcome.metrics.entries_lossy() {
        println!("{:<32} {:>16.6} {}", spec.name, v, spec.unit);
    }
    println!(
        "{:<32} {:>16.6} frac",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_artifacts(dir, &opts, &outcome) {
            eprintln!("cannot write artifacts to {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}

fn write_artifacts(
    dir: &std::path::Path,
    opts: &RunOptions,
    outcome: &born_bench::Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    std::fs::write(dir.join(format!("{stem}.json")), outcome.record_json())?;
    if let Some(trace) = &outcome.chrome_trace {
        let path = dir.join(format!("{stem}.chrome.json"));
        std::fs::write(&path, trace)?;
        println!("# chrome trace {}", path.display());
    }
    Ok(())
}
