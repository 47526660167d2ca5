//! Drift and determinism checks for the benchmark itself:
//!
//! * `BENCHMARK.json` lists exactly the workloads and metrics (names,
//!   units, directions) the program emits;
//! * every workload, run through its library entry point on tiny inputs,
//!   finishes without a failed operation;
//! * two probes with the same seed produce identical deterministic counts.

use std::process::Command;

use dfdbg_benchmark::hostclock::HostClock;
use dfdbg_benchmark::workloads::{self, Budget};
use dfdbg_benchmark::{
    json, probe, trace::Tracer, ResultLine, Scale, END_TO_END, PER_LAYER, WORKLOADS,
};

fn benchmark_json() -> json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &json::Value, key: &str, field: &str) -> Vec<String> {
    doc.get(key)
        .and_then(json::Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(json::Value::as_str)
                .unwrap_or_else(|| panic!("a `{key}` entry lacks `{field}`"))
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_what_the_program_emits() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "workloads", "name"), WORKLOADS);
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        let units: Vec<&str> = specs.iter().map(|s| s.unit).collect();
        let better: Vec<&str> = specs.iter().map(|s| s.better.label()).collect();
        assert_eq!(listed(&doc, key, "name"), names, "{key} names");
        assert_eq!(listed(&doc, key, "unit"), units, "{key} units");
        assert_eq!(listed(&doc, key, "better"), better, "{key} directions");
    }

    // The binary's result line carries exactly the end-to-end metrics.
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "remote",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = ResultLine::parse(stdout.lines().last().expect("a result line")).unwrap();
    assert!(line.correct && line.failed == 0 && line.attempted >= 1);
    let emitted: Vec<(String, String)> = line
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect();
    assert_eq!(emitted, want);
    assert!(line.metrics.iter().all(|m| m.value > 0.0), "{stdout}");
}

#[test]
fn every_workload_runs_tiny_without_failures() {
    for w in WORKLOADS {
        let mut run =
            workloads::start(w, 11, Scale::Tiny, 1).unwrap_or_else(|e| panic!("{w}: {e}"));
        let m = run.measure(Budget::Turns(30), &mut Tracer::off());
        assert_eq!(run.warmup.failed, 0, "{w} warm-up: {:?}", run.warmup.errors);
        assert_eq!(m.failed, 0, "{w}: {:?}", m.errors);
        assert_eq!(m.attempted, 30);
    }
}

#[test]
fn probe_counts_repeat_exactly_for_a_seed() {
    let mut clock = HostClock::default();
    let a = probe::run(5, Scale::Tiny, &mut clock).expect("probe runs");
    let b = probe::run(5, Scale::Tiny, &mut clock).expect("probe runs again");
    for spec in PER_LAYER {
        if spec.name == "bench.trace_overhead_pct" {
            continue; // measured by traced workload runs, not the probe
        }
        let (x, y) = (a.get(spec.name), b.get(spec.name));
        assert!(x.is_some(), "the probe did not measure {}", spec.name);
        if spec.unit == "count" {
            assert_eq!(x, y, "{} differs between runs with one seed", spec.name);
        }
    }
    assert!(a["p2012.cycles"] > 0.0 && a["core.stops"] > 0.0);
}
