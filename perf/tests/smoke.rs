//! Every workload at tiny sizes, traced and untraced: each emits every
//! declared metric and passes every correctness check.

use std::path::PathBuf;

use paydemand_perf::spec::{self, MetricSpec};
use paydemand_perf::{run, Outcome, Sizes, Workload};

fn run_tiny(workload: Workload, traced: bool) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke");
    let outcome = run(workload, 7, &Sizes::tiny(), traced, &out_dir)
        .unwrap_or_else(|e| panic!("{} (traced {traced}) could not run: {e}", workload.name()));
    assert!(
        outcome.correct(),
        "{} (traced {traced}) failed checks: {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted > 0, "{} attempted nothing", workload.name());
    let specs: &[MetricSpec] = if traced { spec::PER_LAYER } else { spec::END_TO_END };
    let names: Vec<&str> = outcome.metrics.keys().map(String::as_str).collect();
    let declared: Vec<&str> = specs.iter().map(|m| m.name).collect();
    let mut sorted = declared.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "{} (traced {traced}) metric names", workload.name());
    let line = outcome.json_line(specs);
    for name in declared {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing from {line}");
    }
    assert_eq!(outcome.trace_json.is_some(), traced);
    outcome
}

fn smoke(workload: Workload) {
    let untraced = run_tiny(workload, false);
    let traced = run_tiny(workload, true);
    assert_eq!(
        untraced.checksum,
        traced.checksum,
        "{}: tracing changed the results",
        workload.name()
    );
    for m in spec::END_TO_END {
        assert!(untraced.metrics[m.name] > 0.0, "{} {} is not positive", workload.name(), m.name);
    }
}

#[test]
fn paper_smoke() {
    smoke(Workload::Paper);
}

#[test]
fn city_smoke() {
    smoke(Workload::City);
}

#[test]
fn ingest_smoke() {
    smoke(Workload::Ingest);
}

#[test]
fn tick_smoke() {
    smoke(Workload::Tick);
}

#[test]
fn benchmark_json_matches_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bounds = spec::parse_bounds(&text).expect("BENCHMARK.json parses");
    assert_eq!(text, spec::render_benchmark(&bounds), "BENCHMARK.json drifted from spec.rs");
    for m in spec::END_TO_END {
        let bound = bounds[m.name];
        assert!(bound > 0.0 && bound <= spec::MAX_BOUND, "{} bound {bound}", m.name);
        assert!(bound <= bounds["setup_s"], "setup_s must have the largest bound");
    }
    assert!(spec::PER_LAYER.len() <= 128);
}
