//! Bench regression gate: fails when a fresh `BENCH_scaling.json`
//! regresses >25% against the committed baseline in any arm.
//!
//! ```sh
//! cargo run --release -p paydemand-bench --bin gate -- BASELINE FRESH
//! ```
//!
//! Prints one verdict line per arm, reports the trace-journal overhead
//! when the fresh document carries one, and exits non-zero on any
//! regression, missing arm, or identity violation.

use std::process::ExitCode;

use paydemand_bench::gate::{
    compare, parse, phase_deltas, BenchDoc, TELEMETRY_OVERHEAD_TARGET, TRACE_OVERHEAD_TARGET,
};

/// On a wall-clock failure, attribute it: print how each per-phase
/// metric moved between the two documents for every regressed arm.
fn attribute_regressions(baseline: &BenchDoc, fresh: &BenchDoc, regressed: &[String]) {
    for key in regressed {
        let deltas = phase_deltas(baseline, fresh, key);
        if !deltas.is_empty() {
            println!("gate: phase attribution for {key}:");
            for line in deltas {
                println!("gate:   {line}");
            }
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: gate BASELINE.json FRESH.json");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Ok(text),
        Err(e) => {
            eprintln!("{path}: {e}");
            Err(())
        }
    };
    let Ok(baseline_text) = read(&baseline_path) else { return ExitCode::FAILURE };
    let Ok(fresh_text) = read(&fresh_path) else { return ExitCode::FAILURE };
    let (baseline, fresh) = match (parse(&baseline_text), parse(&fresh_text)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) => {
            eprintln!("{baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        (_, Err(e)) => {
            eprintln!("{fresh_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (verdicts, failures) = compare(&baseline, &fresh);
    println!("{:<28} {:>12} {:>12} {:>9}  verdict", "arm", "baseline s", "fresh s", "ratio");
    for v in &verdicts {
        println!(
            "{:<28} {:>12.6} {:>12.6} {:>9.3}  {}",
            v.key,
            v.baseline,
            v.fresh,
            v.fresh / v.baseline,
            if v.regressed { "REGRESSED" } else { "ok" },
        );
    }
    if let Some(overhead) = fresh.trace_overhead {
        let note = if overhead > TRACE_OVERHEAD_TARGET {
            format!(" (above the {:.0}% target)", 100.0 * TRACE_OVERHEAD_TARGET)
        } else {
            String::new()
        };
        println!("trace-journal overhead: {:+.1}%{note}", 100.0 * overhead);
    }
    if let Some(overhead) = fresh.telemetry_overhead {
        let note = if overhead > TELEMETRY_OVERHEAD_TARGET {
            format!(" (WARNING: above the {:.0}% target)", 100.0 * TELEMETRY_OVERHEAD_TARGET)
        } else {
            String::new()
        };
        println!("live-telemetry overhead: {:+.1}%{note}", 100.0 * overhead);
    }
    if failures.is_empty() {
        println!("gate: ok ({} arms compared)", verdicts.len());
        ExitCode::SUCCESS
    } else {
        let regressed: Vec<String> =
            verdicts.iter().filter(|v| v.regressed).map(|v| v.key.clone()).collect();
        attribute_regressions(&baseline, &fresh, &regressed);
        for failure in &failures {
            eprintln!("gate: {failure}");
        }
        ExitCode::FAILURE
    }
}
