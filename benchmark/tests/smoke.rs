//! The shrunken mode: every workload on the `tiny` device, both legs.

use born_bench::drive::{solve_point, Failure};
use born_bench::gate::{check, reference_point, REL_TOL};
use born_bench::metrics::{END_TO_END, PER_LAYER};
use born_bench::{run, Inputs, Job, RunOptions, Scale, Workload};
use std::sync::Mutex;

/// The trace registry is process-global: runs must not overlap.
static REGISTRY: Mutex<()> = Mutex::new(());

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let _g = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&RunOptions {
                workload,
                seed: 3,
                seconds: 0.1,
                trace,
                scale: Scale::Tiny,
            });
            let what = format!("{} trace {trace}", workload.name());
            assert!(outcome.correct, "{what}: {:?}", outcome.failures);
            assert!(outcome.attempted >= 1 && outcome.failed == 0, "{what}");
            let registry = if trace { PER_LAYER } else { END_TO_END };
            let entries = outcome.metrics.entries().expect("every metric measured");
            assert_eq!(entries.len(), registry.len(), "{what}");
            let line = outcome.json_line();
            assert!(line.starts_with("{\"correct\":true,"), "{what}: {line}");
            for spec in registry {
                let field = format!("\"{}\":{{\"value\":", spec.name);
                let at = line
                    .find(&field)
                    .unwrap_or_else(|| panic!("{what}: no {field}"));
                let unit = format!("\"unit\":\"{}\"}}", spec.unit);
                assert!(
                    line[at..].contains(&unit),
                    "{what}: {} lacks {unit}",
                    spec.name
                );
            }
            for spec in END_TO_END.iter().filter(|_| !trace) {
                let v = outcome.metrics.get(spec.name).unwrap();
                assert!(v > 0.0, "{what}: end-to-end {} reads {v}", spec.name);
            }
            if trace {
                let chrome = outcome.chrome_trace.as_deref().expect("traced leg exports");
                let stats = dace_omen::trace::validate_chrome_trace(chrome).expect("valid trace");
                assert!(stats.spans_named("bench.gf_phase") > 0, "{what}");
                assert_eq!(
                    stats.spans_named("gf_electrons"),
                    0,
                    "{what}: solver span kept"
                );
            }
        }
    }
}

#[test]
fn comm_counts_repeat_exactly() {
    let _g = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let opts = RunOptions {
        workload: Workload::BornDistributed,
        seed: 5,
        seconds: 0.1,
        trace: true,
        scale: Scale::Tiny,
    };
    let (a, b) = (run(&opts), run(&opts));
    for name in [
        "comm.bytes_per_iter",
        "comm.msgs_per_iter",
        "comm.model_ratio",
    ] {
        let (x, y) = (a.metrics.get(name).unwrap(), b.metrics.get(name).unwrap());
        assert!(x > 0.0 && x == y, "{name}: {x} then {y}");
    }
}

#[test]
fn the_gate_rejects_a_perturbed_reference() {
    let _g = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for workload in [Workload::BornDemo, Workload::BornDistributed] {
        let Job::Point(cfg) = Inputs::generate(workload, 11, Scale::Tiny).job else {
            unreachable!("single-point workload")
        };
        let (want, _) = reference_point(&cfg, None).expect("reference converges");
        let (got, _) = solve_point(&cfg, None).expect("benchmark loop converges");
        assert_eq!(check(&got.observables, &want, REL_TOL), Ok(()));

        let mut off = want.clone();
        off.current = f64::from_bits(off.current.to_bits() + 1);
        assert!(matches!(
            check(&got.observables, &off, REL_TOL),
            Err(Failure::Mismatch(_))
        ));
        let mut off = want.clone();
        let last = off.profile.len() - 1;
        off.profile[last] *= 1.0 + 1e-12;
        assert!(check(&got.observables, &off, REL_TOL).is_err());
        let mut off = want;
        off.iterations += 1;
        assert!(check(&got.observables, &off, REL_TOL).is_err());
    }
}

#[test]
fn benchmark_json_lists_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{}\"", spec.name)))
            .unwrap_or_else(|| panic!("{} missing", spec.name));
        assert!(
            line.contains(&format!("\"unit\": \"{}\"", spec.unit)),
            "{} unit",
            spec.name
        );
    }
    let metric_lines = text.lines().filter(|l| l.contains("\"unit\":")).count();
    assert_eq!(metric_lines, END_TO_END.len() + PER_LAYER.len());
}
