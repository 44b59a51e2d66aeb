//! Command implementations: run the engine, aggregate, print.

use std::path::Path;

use paydemand_obs::{evaluate_series, render_table, AlertRule, Recorder, TimeSeries};
use paydemand_sim::stats::Summary;
use paydemand_sim::{frame, metrics, runner, Engine, MechanismKind, SimError, SimulationResult};

use crate::args::Options;

/// What a completed command wants the process to exit with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// All clear.
    Clean,
    /// `--alerts-fatal` was set and this many rules fired.
    AlertsFired(usize),
}

/// Upper bound on retained round samples, so an enormous sweep cannot
/// hold every snapshot in memory (the ring evicts oldest and counts
/// the drops, which the JSON export and the alert table report).
const TIMESERIES_CAP: usize = 100_000;

/// Span events kept for `--trace-events` (drops are counted too).
const TRACE_EVENT_CAP: usize = 1 << 16;

/// One metric row of the output table.
struct MetricRow {
    name: &'static str,
    unit: &'static str,
    extract: fn(&SimulationResult) -> f64,
}

const METRICS: &[MetricRow] = &[
    MetricRow { name: "coverage", unit: "%", extract: |r| 100.0 * metrics::coverage(r) },
    MetricRow { name: "completeness", unit: "%", extract: |r| 100.0 * metrics::completeness(r) },
    MetricRow {
        name: "on-time completion",
        unit: "%",
        extract: |r| 100.0 * metrics::on_time_completion_rate(r),
    },
    MetricRow { name: "avg measurements", unit: "", extract: metrics::average_measurements },
    MetricRow { name: "variance", unit: "", extract: metrics::measurement_variance },
    MetricRow {
        name: "reward / measurement",
        unit: "$",
        extract: metrics::average_reward_per_measurement,
    },
    MetricRow { name: "total paid", unit: "$", extract: |r| r.total_paid },
    MetricRow { name: "gini (balance)", unit: "", extract: metrics::measurement_gini },
    MetricRow {
        name: "map RMSE",
        unit: "",
        extract: |r| metrics::estimation_rmse(r).unwrap_or(f64::NAN),
    },
];

/// `paydemand run`: one mechanism, metrics with 95% CIs.
pub fn run(options: &Options) -> Result<RunStatus, SimError> {
    if options.checkpoint_every.is_some() || options.resume_from.is_some() {
        return run_checkpointed(options);
    }
    let threads = options.threads.unwrap_or_else(default_threads);
    println!(
        "mechanism {} | selector {} | {} users | {} tasks | {} rounds | {} reps",
        options.scenario.mechanism.label(),
        options.scenario.selector.label(),
        options.scenario.users,
        options.scenario.tasks,
        options.scenario.max_rounds,
        options.reps,
    );
    let recorder = make_recorder(options, options.reps);
    let results = runner::run_repetitions_parallel_recorded(
        &options.scenario,
        options.reps,
        threads,
        &recorder,
    )?;
    println!("{:-<52}", "");
    for row in METRICS {
        let summary = Summary::of(&runner::collect_metric(&results, row.extract));
        println!(
            "{:<26} {:>10.3} ±{:<8.3} {}",
            row.name,
            summary.mean,
            summary.ci95_half_width(),
            row.unit
        );
    }
    if let Some(path) = &options.trace_out {
        write_trace(options, &results[0], path)?;
    }
    finish_metrics(options, &recorder)
}

/// `--trace-out`: re-run repetition 0 with the decision journal
/// enabled, replay-verify the journal against the live repetition-0
/// result (bitwise — prices, payments, completions), then write it to
/// disk. The traced re-run reproduces repetition 0 exactly because the
/// sink never touches the RNG or the clock. It records nowhere: it is
/// a check, not a repetition, so the run's metrics and series count
/// only the repetitions.
fn write_trace(options: &Options, rep0: &SimulationResult, path: &str) -> Result<(), SimError> {
    let scenario = options.scenario.clone().with_seed(runner::rep_seed(options.scenario.seed, 0));
    let (_, journal) = paydemand_sim::engine::run_traced(&scenario, &Recorder::disabled())?;
    paydemand_sim::replay::verify(&journal, rep0).map_err(SimError::from)?;
    std::fs::write(path, &journal)
        .map_err(|e| SimError::Io(format!("writing --trace-out {path}: {e}")))?;
    println!(
        "trace: wrote {} bytes of replay-verified decision journal (rep 0) -> {path}",
        journal.len()
    );
    Ok(())
}

/// The single-repetition checkpointed/resumed variant of `run`: drives
/// the resumable [`Engine`] round by round, writing a checkpoint every
/// `--checkpoint-every` rounds, and/or starting from `--resume` bytes.
/// The scenario runs under its own seed (no per-repetition reseeding),
/// so a resumed run reproduces the uninterrupted one exactly.
fn run_checkpointed(options: &Options) -> Result<RunStatus, SimError> {
    let recorder = make_recorder(options, 1);
    let mut engine = match &options.resume_from {
        Some(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| SimError::Io(format!("reading --resume {path}: {e}")))?;
            let engine = Engine::resume(&options.scenario, &bytes, &recorder)?;
            println!(
                "resumed {} at round {} ({} rounds already done)",
                path,
                engine.next_round(),
                engine.rounds_run(),
            );
            engine
        }
        None => Engine::new(&options.scenario, &recorder)?,
    };
    println!(
        "mechanism {} | selector {} | {} users | {} tasks | {} rounds | checkpointed run",
        options.scenario.mechanism.label(),
        options.scenario.selector.label(),
        options.scenario.users,
        options.scenario.tasks,
        options.scenario.max_rounds,
    );
    let mut rounds_this_session = 0u32;
    while engine.step_round()? {
        rounds_this_session += 1;
        if let (Some(every), Some(path)) = (options.checkpoint_every, &options.checkpoint_file) {
            if rounds_this_session.is_multiple_of(every) && !engine.is_finished() {
                write_checkpoint(&engine, path)?;
                println!("checkpointed after round {} -> {path}", engine.next_round() - 1);
            }
        }
    }
    let result = engine.finish()?;
    println!("{:-<52}", "");
    for row in METRICS {
        println!("{:<26} {:>10.3} {}", row.name, (row.extract)(&result), row.unit);
    }
    finish_metrics(options, &recorder)
}

/// Writes checkpoint bytes via a synced sibling temp file + rename, so
/// a crash mid-write never leaves a truncated checkpoint behind.
fn write_checkpoint(engine: &Engine, path: &str) -> Result<(), SimError> {
    let bytes = engine.checkpoint()?;
    frame::write_atomic(Path::new(path), &bytes, true)
        .map_err(|e| SimError::Io(format!("writing --checkpoint-file {path}: {e}")))
}

/// `paydemand compare`: the three paper mechanisms side by side on
/// identical workloads.
pub fn compare(options: &Options) -> Result<RunStatus, SimError> {
    let threads = options.threads.unwrap_or_else(default_threads);
    println!(
        "selector {} | {} users | {} tasks | {} rounds | {} reps",
        options.scenario.selector.label(),
        options.scenario.users,
        options.scenario.tasks,
        options.scenario.max_rounds,
        options.reps,
    );
    let lineup = MechanismKind::paper_lineup();
    let recorder = make_recorder(options, lineup.len().saturating_mul(options.reps));
    let mut columns = Vec::new();
    for mechanism in lineup {
        let scenario = options.scenario.clone().with_mechanism(mechanism);
        let results =
            runner::run_repetitions_parallel_recorded(&scenario, options.reps, threads, &recorder)?;
        columns.push((mechanism.label(), results));
    }
    print!("{:<26}", "");
    for (label, _) in &columns {
        print!("{label:>16}");
    }
    println!();
    println!("{:-<74}", "");
    for row in METRICS {
        print!("{:<26}", format!("{}{}", row.name, unit_suffix(row.unit)));
        for (_, results) in &columns {
            let summary = Summary::of(&runner::collect_metric(results, row.extract));
            print!("{:>16.3}", summary.mean);
        }
        println!();
    }
    finish_metrics(options, &recorder)
}

/// An enabled recorder when any metrics flag asked for one, else the
/// inert no-op. Telemetry flags (`--timeseries-out`, `--alerts-fatal`,
/// `--profile`) additionally attach a per-round time series, which the
/// alert rules are evaluated over, with room for every round of the
/// `engines` runs that record into it (up to [`TIMESERIES_CAP`]);
/// `--trace-events` switches the span log on.
fn make_recorder(options: &Options, engines: usize) -> Recorder {
    if !options.recording() {
        return Recorder::disabled();
    }
    let recorder = Recorder::enabled();
    if options.alloc_profile {
        recorder.enable_alloc_profile();
    }
    if options.telemetry() {
        let rounds = (options.scenario.max_rounds as usize).max(1);
        let capacity = engines.saturating_mul(rounds).clamp(1, TIMESERIES_CAP);
        recorder.attach_timeseries(&TimeSeries::with_capacity(capacity));
    }
    if options.trace_events_out.is_some() {
        recorder.enable_trace_events(TRACE_EVENT_CAP);
    }
    recorder
}

/// Writes `--metrics-out` / `--timeseries-out` / `--trace-events`,
/// prints the `--profile` summary and evaluates the default alert rules
/// over the run's time series when `--profile` or `--alerts-fatal` asks.
fn finish_metrics(options: &Options, recorder: &Recorder) -> Result<RunStatus, SimError> {
    if !options.recording() {
        return Ok(RunStatus::Clean);
    }
    let snapshot = recorder.snapshot();
    if let Some(path) = &options.metrics_out {
        let payload =
            if path.ends_with(".json") { snapshot.to_json() } else { snapshot.to_prometheus() };
        std::fs::write(path, payload)
            .map_err(|e| SimError::Io(format!("writing --metrics-out {path}: {e}")))?;
    }
    if let Some(path) = &options.timeseries_out {
        let series = recorder.timeseries();
        let payload = if path.ends_with(".csv") { series.to_csv() } else { series.to_json() };
        std::fs::write(path, payload)
            .map_err(|e| SimError::Io(format!("writing --timeseries-out {path}: {e}")))?;
        println!("timeseries: wrote {} round samples -> {path}", series.len());
    }
    if let Some(path) = &options.trace_events_out {
        let log = recorder
            .span_log()
            .ok_or_else(|| SimError::Io("--trace-events: span log was never enabled".into()))?;
        std::fs::write(path, log.to_trace_json())
            .map_err(|e| SimError::Io(format!("writing --trace-events {path}: {e}")))?;
        println!(
            "trace-events: wrote Perfetto-compatible span trace ({} events dropped) -> {path}",
            log.dropped()
        );
    }
    if !options.profile && !options.alerts_fatal {
        return Ok(RunStatus::Clean);
    }
    let series = recorder.timeseries();
    let samples = series.samples();
    let rules = AlertRule::defaults();
    let events = evaluate_series(&rules, &samples);
    if options.profile {
        eprint!("{}", snapshot.profile_table());
        eprint!("{}", render_table(&rules, samples.len(), series.dropped(), &events));
    }
    Ok(if options.alerts_fatal && !events.is_empty() {
        RunStatus::AlertsFired(events.len())
    } else {
        RunStatus::Clean
    })
}

fn unit_suffix(unit: &str) -> String {
    if unit.is_empty() {
        String::new()
    } else {
        format!(" ({unit})")
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse, Command};

    fn options(cmd: &str) -> Options {
        let argv: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
        match parse(&argv).unwrap() {
            Command::Run(o) | Command::Compare(o) => o,
            Command::Help
            | Command::Serve(_)
            | Command::Trace(_)
            | Command::Lineage(_)
            | Command::Alerts(_)
            | Command::Profile(_) => {
                panic!("expected a command")
            }
        }
    }

    #[test]
    fn run_executes_small_scenario() {
        let opts = options("run --users 10 --tasks 5 --rounds 3 --reps 2 --selector greedy");
        run(&opts).unwrap();
    }

    /// The sample and eviction counts of a series saved by `--timeseries-out`.
    fn saved_rounds(path: &Path) -> (usize, u64) {
        let series = TimeSeries::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        (series.len(), series.dropped())
    }

    #[test]
    fn compare_executes_small_scenario() {
        let series =
            std::env::temp_dir().join(format!("paydemand-compare-{}.json", std::process::id()));
        let opts = options(&format!(
            "compare --users 10 --tasks 5 --rounds 3 --reps 2 --selector greedy --timeseries-out {}",
            series.display()
        ));
        compare(&opts).unwrap();
        // The ring the alert reports read keeps every mechanism's rounds.
        assert_eq!(saved_rounds(&series), (3 * 2 * 3, 0));
    }

    #[test]
    fn run_with_profile_writes_metrics() {
        let dir = std::env::temp_dir().join("paydemand-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("m.json");
        let prom = dir.join("m.prom");
        let opts = options(&format!(
            "run --users 10 --tasks 5 --rounds 3 --reps 2 --selector greedy \
             --profile --metrics-out {}",
            json.display()
        ));
        run(&opts).unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        for family in [
            "round_phase_seconds",
            "cell_sweep_full_sweeps_total",
            "selector_solve_seconds",
            "runner_jobs_total",
        ] {
            assert!(body.contains(family), "missing {family} in JSON metrics: {body}");
        }
        let opts = options(&format!(
            "run --users 10 --tasks 5 --rounds 3 --reps 2 --selector greedy --metrics-out {}",
            prom.display()
        ));
        run(&opts).unwrap();
        let body = std::fs::read_to_string(&prom).unwrap();
        assert!(body.contains("# TYPE round_phase_seconds summary"), "{body}");
        assert!(body.contains("engine_runs_total 2"), "{body}");
    }

    #[test]
    fn run_with_faults_executes() {
        let opts = options(
            "run --users 12 --tasks 5 --rounds 3 --reps 2 --selector greedy \
             --faults dropout:0.2,drop-upload:0.1,outage:0.2 --fault-seed 3",
        );
        run(&opts).unwrap();
        let opts = options(
            "compare --users 12 --tasks 5 --rounds 3 --reps 2 --selector greedy \
             --faults gps:20",
        );
        compare(&opts).unwrap();
    }

    #[test]
    fn checkpoint_and_resume_round_trip_through_files() {
        let dir = std::env::temp_dir().join("paydemand-cli-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("run.ck");
        let base = "run --users 12 --tasks 5 --rounds 4 --reps 1 --selector greedy --seed 77";
        // A checkpointed run writes the file and completes.
        let opts =
            options(&format!("{base} --checkpoint-every 2 --checkpoint-file {}", ck.display()));
        run(&opts).unwrap();
        assert!(ck.exists(), "checkpoint file was written");
        // Resuming from it completes the same scenario without error
        // (byte-identity of the results is pinned by tests/chaos.rs).
        let opts = options(&format!("{base} --resume {}", ck.display()));
        run(&opts).unwrap();
        // A missing file is an I/O error, not a panic.
        let opts = options(&format!("{base} --resume {}/absent.ck", dir.display()));
        assert!(matches!(run(&opts), Err(SimError::Io(_))));
        // A mismatched scenario is refused.
        let opts = options(&format!(
            "run --users 13 --tasks 5 --rounds 4 --reps 1 --selector greedy --seed 77 --resume {}",
            ck.display()
        ));
        assert!(matches!(run(&opts), Err(SimError::Checkpoint { .. })));
    }

    #[test]
    fn run_with_trace_out_writes_a_verified_journal() {
        let dir = std::env::temp_dir().join("paydemand-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (path, series, prom) = (dir.join("run.trace"), dir.join("ts.json"), dir.join("m.prom"));
        let opts = options(&format!(
            "run --users 10 --tasks 5 --rounds 3 --reps 2 --selector greedy --trace-out {} \
             --timeseries-out {} --metrics-out {}",
            path.display(),
            series.display(),
            prom.display()
        ));
        run(&opts).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let summary = paydemand_sim::replay::audit(&bytes).unwrap();
        assert_eq!(summary.rounds, 3);
        assert!(summary.measurements > 0);
        // The verifying re-run of repetition 0 records nowhere: the
        // series and the counters hold the two repetitions alone.
        assert_eq!(saved_rounds(&series), (2 * 3, 0));
        let metrics = std::fs::read_to_string(&prom).unwrap();
        for line in ["engine_runs_total 2", "engine_rounds_total 6"] {
            assert!(metrics.lines().any(|l| l == line), "missing `{line}` in {metrics}");
        }
    }

    #[test]
    fn metric_table_is_complete() {
        assert!(METRICS.len() >= 8);
        let names: std::collections::HashSet<_> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), METRICS.len(), "duplicate metric names");
    }
}
