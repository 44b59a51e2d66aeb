//! `perf`: the paydemand end-to-end benchmark.
//!
//! ```sh
//! # one workload (the form BENCHMARK.json's command uses):
//! cargo run --release --manifest-path perf/Cargo.toml -- run --workload city --seed 7 --trace 0
//! # every workload, untraced then traced, each in its own process:
//! cargo run --release --manifest-path perf/Cargo.toml -- all --seed 7
//! # R runs per workload each way; writes BENCHMARK.json and perf/calibration.json:
//! cargo run --release --manifest-path perf/Cargo.toml -- calibrate --seed 7 --runs 10
//! ```
//!
//! Run from the repository root. A run prints its checksum line and
//! then, as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; it writes scratch state and
//! traces under `.bench_out/`. It exits 1 when a correctness check
//! fails and 2 when it cannot run at all.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use paydemand_obs::{parse_json, JsonValue};
use paydemand_perf::spec::{self, MetricSpec};
use paydemand_perf::{stats, Sizes, Workload};

const USAGE: &str = "usage:
  perf run --workload NAME --seed N [--seconds S] [--trace 0|1]
  perf all --seed N [--seconds S]
  perf calibrate --seed N [--seconds S] [--runs R]
workloads: paper, city, ingest, tick";

/// Where runs keep scratch state, traces and result files.
const OUT_DIR: &str = ".bench_out";

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    traced: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        runs: 5,
    };
    let mut seed = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.seconds == 0 || args.runs < 2 {
        return Err("--seconds must be positive and --runs at least 2".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "run" => {
            let workload = args.workload.ok_or("run needs --workload")?;
            run(workload, args.seed, args.seconds, args.traced)
        }
        "all" => all(args.seed, args.seconds),
        "calibrate" => calibrate(args.seed, args.seconds, args.runs),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process; `Ok(correct)`.
fn run(workload: Workload, seed: u64, seconds: u32, traced: bool) -> Result<bool, String> {
    let out_dir = Path::new(OUT_DIR);
    let outcome =
        paydemand_perf::run(workload, seed, &Sizes::for_seconds(seconds), traced, out_dir)?;
    let specs = if traced { spec::PER_LAYER } else { spec::END_TO_END };
    let mode = if traced { "traced" } else { "untraced" };
    for failure in &outcome.failures {
        eprintln!("perf: {} check failed: {failure}", workload.name());
    }
    for m in specs {
        if let Some(value) = outcome.metrics.get(m.name) {
            eprintln!("perf: {:<8} {:<28} {value:>14.4} {}", workload.name(), m.name, m.unit);
        }
    }
    let line = outcome.json_line(specs);
    let result = out_dir.join(format!("{}.{mode}.json", workload.name()));
    std::fs::write(&result, format!("{line}\n"))
        .map_err(|e| format!("writing {}: {e}", result.display()))?;
    if let Some(trace) = &outcome.trace_json {
        let path = out_dir.join(format!("{}.trace.json", workload.name()));
        std::fs::write(&path, trace).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("checksum {:016x}", outcome.checksum);
    println!("{line}");
    Ok(outcome.correct())
}

/// One child run's parsed result.
struct ChildResult {
    correct: bool,
    checksum: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process, so its peak RSS is its own.
fn child(workload: Workload, seed: u64, seconds: u32, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or(format!("{} child printed no result", workload.name()))?;
    let checksum = lines
        .find_map(|l| l.strip_prefix("checksum "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or(0);
    let doc = parse_json(last).map_err(|e| format!("{} child result: {e}", workload.name()))?;
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or(format!("{} child result has no metrics", workload.name()))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let correct =
        matches!(doc.get("correct"), Some(JsonValue::Bool(true))) && output.status.success();
    Ok(ChildResult { correct, checksum, metrics })
}

fn print_table(workload: Workload, specs: &[MetricSpec], result: &ChildResult) {
    for m in specs {
        let value = result.metrics.get(m.name).map_or("missing".to_owned(), |v| format!("{v:.4}"));
        println!(
            "{:<8} {:<28} {value:>14} {:<6} ({} is better)",
            workload.name(),
            m.name,
            m.unit,
            m.better.label()
        );
    }
}

/// Every workload untraced then traced; `Ok(every check passed)`.
fn all(seed: u64, seconds: u32) -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        let untraced = child(workload, seed, seconds, false)?;
        let traced = child(workload, seed, seconds, true)?;
        print_table(workload, spec::END_TO_END, &untraced);
        print_table(workload, spec::PER_LAYER, &traced);
        ok &= untraced.correct && traced.correct;
        if untraced.checksum != traced.checksum {
            println!(
                "{:<8} checksum differs between untraced ({:016x}) and traced ({:016x}) runs",
                workload.name(),
                untraced.checksum,
                traced.checksum
            );
            ok = false;
        }
    }
    println!("{}", if ok { "all checks passed" } else { "CHECKS FAILED" });
    Ok(ok)
}

/// `runs` untraced and traced runs per workload, one seed each, the
/// workloads taken in turn: writes every metric's median and quartiles
/// to `perf/calibration.json` and the end-to-end bounds to
/// `BENCHMARK.json`. `Ok(false)` when a check failed or an end-to-end
/// metric is too noisy for any bound `BENCHMARK.json` may hold; those
/// metric–workload pairs are listed as `unresolved`.
fn calibrate(seed: u64, seconds: u32, runs: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut samples: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    // Round-robin over the workloads, so a slow stretch of the machine
    // lands on every workload instead of on one.
    for run in 0..runs {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let result = child(workload, seed + run as u64, seconds, traced)?;
                ok &= result.correct;
                for (name, value) in result.metrics {
                    samples.entry((workload.name(), name)).or_default().push(value);
                }
            }
        }
    }
    let mut bounds: BTreeMap<String, f64> =
        spec::END_TO_END.iter().map(|m| (m.name.to_owned(), MIN_BOUND)).collect();
    let mut unresolved = Vec::new();
    let mut sections = Vec::new();
    for workload in Workload::ALL {
        let mut entries = Vec::new();
        for ((_, name), values) in samples.iter().filter(|((w, _), _)| *w == workload.name()) {
            let median = stats::median(values);
            let [q1, _, q3] = stats::quartiles(values).unwrap_or([median; 3]);
            let spread = stats::relative_iqr(values).unwrap_or(0.0);
            if let Some(bound) = bounds.get_mut(name) {
                let needed = SPREADS_PER_BOUND * spread;
                if needed > spec::MAX_BOUND {
                    println!(
                        "{} {name}: relative IQR {spread:.3} needs a bound of {needed:.2}, over \
                         the {} BENCHMARK.json allows: unresolved",
                        workload.name(),
                        spec::MAX_BOUND
                    );
                    unresolved.push(format!("\"{}.{name}\"", workload.name()));
                }
                *bound = bound.max(needed);
            }
            entries.push(format!(
                "      \"{name}\": {{\"median\": {median:?}, \"q1\": {q1:?}, \"q3\": {q3:?}, \"rel_iqr\": {spread:?}}}"
            ));
        }
        sections.push(format!("    \"{}\": {{\n{}\n    }}", workload.name(), entries.join(",\n")));
    }
    for (name, bound) in &mut bounds {
        // Set-up time gets the largest bound, so that work moved into
        // set-up shows without set-up noise failing a change.
        *bound =
            if name == "setup_s" { spec::MAX_BOUND } else { round_up(*bound).min(spec::MAX_BOUND) };
    }
    let calibration = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"runs\": {runs},\n  \
         \"spreads_per_bound\": {SPREADS_PER_BOUND:?},\n  \"unresolved\": [{}],\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        unresolved.join(", "),
        sections.join(",\n")
    );
    write("perf/calibration.json", &calibration)?;
    write("BENCHMARK.json", &spec::render_benchmark(&bounds))?;
    for (name, bound) in &bounds {
        println!("bound {name:<20} {bound}");
    }
    Ok(ok && unresolved.is_empty())
}

/// The smallest regression bound calibration sets.
const MIN_BOUND: f64 = 0.05;
/// A bound is this many run-to-run spreads (relative IQR), so the
/// metric's noise alone does not reach it.
const SPREADS_PER_BOUND: f64 = 3.0;

/// `bound` rounded up to the next 0.01.
fn round_up(bound: f64) -> f64 {
    (bound * 100.0).ceil() / 100.0
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}
