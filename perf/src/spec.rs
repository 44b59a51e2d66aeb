//! The benchmark's declared metrics and workloads, and `BENCHMARK.json`.
//!
//! These tables are the one source of truth: `perf calibrate` renders
//! `BENCHMARK.json` from them (adding measured bounds), and the tests
//! check the committed file still agrees with them.

use std::collections::BTreeMap;

use paydemand_obs::{parse_json, JsonValue};

use crate::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, coverage).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, as printed in results.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher }
}

/// Metrics a user of the system sees, reported by every workload of an
/// untraced run, times at the reference pace (`pace.rs`). What
/// "operation" means per workload is in `README.md`.
pub const END_TO_END: &[MetricSpec] = &[
    lower("setup_s", "s"),
    lower("latency_ms_p50", "ms"),
    higher("throughput_per_s", "1/s"),
    lower("recovery_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of single layers, reported by every workload of a traced
/// run. Times (`ms`, as measured) are kept to what every workload runs:
/// its operation, the engine round and the checkpoint. A `*_share` is a
/// layer's time as a fraction of its parent's — an engine phase of
/// `engine.round_ms`, anything else of `bench.op_ms` — and reads 0 on a
/// workload whose benchmark code never calls that layer.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("bench.op_ms", "ms"),
    lower("bench.op_ms_p90", "ms"),
    higher("bench.ops", "count"),
    lower("bench.slowdown", "x"),
    higher("bench.coverage_frac", "frac"),
    lower("bench.trace_overhead_frac", "frac"),
    lower("engine.round_ms", "ms"),
    lower("neighbors.count_share", "frac"),
    lower("incentive.price_share", "frac"),
    higher("incentive.cache_hit_frac", "frac"),
    lower("selection.solve_share", "frac"),
    lower("selection.solves", "count"),
    lower("selection.states_per_solve", "count"),
    lower("platform.settle_share", "frac"),
    lower("mobility.move_share", "frac"),
    lower("engine.other_share", "frac"),
    lower("checkpoint.encode_ms", "ms"),
    lower("checkpoint.write_ms", "ms"),
    lower("checkpoint.resume_ms", "ms"),
    lower("checkpoint.bytes", "B"),
    lower("events.decode_share", "frac"),
    lower("wal.append_share", "frac"),
    lower("wal.barrier_share", "frac"),
    lower("engine.enqueue_share", "frac"),
    lower("engine.step_share", "frac"),
    lower("trace.take_share", "frac"),
    lower("trace.decode_share", "frac"),
    lower("lineage.join_share", "frac"),
    lower("lineage.append_share", "frac"),
    lower("wal.compact_share", "frac"),
    lower("wal.scan_share", "frac"),
    lower("ingest.validate_share", "frac"),
    lower("ingest.enqueue_share", "frac"),
    lower("ingest.wait_share", "frac"),
    lower("ingest.read_ratio", "ratio"),
    lower("loadgen.late_frac", "frac"),
    higher("wal.events_per_fsync", "count"),
    lower("wal.bytes", "B"),
    lower("lineage.bytes", "B"),
    lower("trace.journal_bytes", "B"),
];

/// Why each workload is in the benchmark (one line each).
#[must_use]
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::Paper => {
            "the paper's own sweep of small complete runs; per-user selection is ~90% of the \
             time, so a selection change shows here and a demand change must not"
        }
        Workload::City => {
            "1M wandering users: demand is recounted over every user each round, the only \
             workload where neighbour counting, movement and per-user bookkeeping dominate"
        }
        Workload::Ingest => {
            "open-loop client visits (a 200-event POST, then a read) on a tiny engine: the serve \
             layers (http, events, wal, queue) dominate, and a write gain that costs reads shows"
        }
        Workload::Tick => {
            "durable daemon ticks over a 50k-user engine: WAL barrier, checkpoint, journal, \
             lineage and compaction per tick, then crash recovery"
        }
    }
}

/// The benchmark command: builds the package from source and runs one
/// workload (whoever runs it appends `--workload … --seed … --seconds …
/// --trace …`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
    "run",
];

/// Seconds one run measures for (the default `--seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The largest regression bound `BENCHMARK.json` may hold.
pub const MAX_BOUND: f64 = 0.25;

/// Renders `BENCHMARK.json` with the given end-to-end bounds (metric
/// name → share of the parent's median).
#[must_use]
pub fn render_benchmark(bounds: &BTreeMap<String, f64>) -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), why(*w)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let bound = bounds.get(m.name).copied().unwrap_or(MAX_BOUND);
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message when the document is not JSON or lacks a bound.
pub fn parse_bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for entry in list {
        let name = entry.get("name").and_then(JsonValue::as_str).ok_or("metric without name")?;
        let bound = entry
            .get("bound")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {name} has no bound"))?;
        bounds.insert(name.to_owned(), bound);
    }
    Ok(bounds)
}
