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
