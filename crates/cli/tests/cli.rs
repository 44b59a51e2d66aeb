//! The `paydemand` binary's exit contract: what reaches stdout and
//! stderr, and the exit code, for help, a bad command line and a run.

use std::process::{Command, Output};

fn paydemand(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paydemand"))
        .args(args.split_whitespace())
        .output()
        .expect("the paydemand binary runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

#[test]
fn help_exits_zero_with_the_usage_on_stdout() {
    let out = paydemand("--help");
    assert_eq!(out.status.code(), Some(0));
    let stdout = text(&out.stdout);
    assert!(stdout.starts_with("paydemand — "), "{stdout}");
    assert!(stdout.contains("USAGE:") && stdout.contains("--users N"), "{stdout}");
    assert!(out.stderr.is_empty(), "{}", text(&out.stderr));
}

#[test]
fn a_bad_flag_exits_one_with_the_error_then_the_usage_on_stderr() {
    let out = paydemand("run --bogus");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
    let stderr = text(&out.stderr);
    assert!(stderr.starts_with("unknown flag `--bogus` for `run`\n\npaydemand — "), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn a_small_run_exits_zero_with_the_metrics_table() {
    let out = paydemand("run --users 10 --tasks 5 --rounds 2 --reps 1 --selector greedy");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("mechanism on-demand | selector greedy | 10 users | 5 tasks | 2 rounds | 1 reps")
    );
    assert_eq!(lines.next(), Some("-".repeat(52).as_str()));
    let metrics: Vec<&str> =
        lines.map(|line| line.split("  ").next().unwrap_or_default()).collect();
    for metric in ["coverage", "completeness", "total paid", "map RMSE"] {
        assert!(metrics.contains(&metric), "no `{metric}` row in:\n{stdout}");
    }
}

/// A run's `--alerts-fatal` count and `--profile` alert table are what
/// `paydemand alerts` reports over the series the run saved, also when
/// two threads interleave their rounds in that series.
#[test]
fn a_run_and_the_replay_of_its_series_report_the_same_firings() {
    let dir = std::env::temp_dir().join(format!("paydemand-cli-alerts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let series = dir.join("ts.json");
    let run = paydemand(&format!(
        "run --users 100 --tasks 10 --rounds 10 --reps 40 --selector greedy --budget 500 \
         --faults straggler:0.05:3:1 --fault-seed 2 --threads 2 \
         --profile --alerts-fatal --timeseries-out {}",
        series.display()
    ));
    assert_eq!(run.status.code(), Some(1), "{}", text(&run.stderr));
    let replay = paydemand(&format!("alerts {} --fatal", series.display()));
    assert_eq!(replay.status.code(), Some(1), "{}", text(&replay.stderr));
    let table = text(&replay.stdout);
    let fired: usize = table
        .lines()
        .last()
        .and_then(|count| count.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count line in:\n{table}"));
    let stderr = text(&run.stderr);
    assert!(stderr.contains(table), "the run's table differs from the replay's:\n{stderr}");
    let verdict = format!("error: {fired} alert rule(s) fired (--alerts-fatal)\n");
    assert!(stderr.ends_with(&verdict), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
