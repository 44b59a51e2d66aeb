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
    compare, parse, phase_deltas, BenchDoc, PROFILING_OVERHEAD_TARGET, TELEMETRY_OVERHEAD_TARGET,
    TRACE_OVERHEAD_TARGET,
};
use paydemand_bench::scaling::{profile_arm, Arm, Config};

/// Rounds for the post-failure attribution profile of a regressed arm:
/// enough for the sampler to land, few enough to stay cheap even on
/// the naive arm.
const ATTRIBUTION_ROUNDS: u32 = 3;
/// Sampling rate for the attribution profile; well above the default
/// 99 Hz because the arm only runs for a few rounds.
const ATTRIBUTION_HZ: u32 = 499;

/// On a wall-clock failure, attribute it: print per-phase deltas from
/// the two documents, then re-run the first regressed arm under the
/// sampling profiler and print where the fresh build actually spends
/// its time.
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
    // One fresh capture for the first regressed arm whose key parses.
    let Some((key, cfg, arm)) = regressed.iter().find_map(|key| {
        let (point, label) = key.split_once(':')?;
        let (users, tasks) = point.split_once('x')?;
        let cfg = Config {
            rounds: ATTRIBUTION_ROUNDS,
            ..Config::at(users.parse().ok()?, tasks.parse().ok()?)
        };
        Some((key, cfg, Arm::from_label(label)?))
    }) else {
        return;
    };
    println!(
        "gate: profiling regressed arm {key} ({} rounds at {ATTRIBUTION_HZ} Hz) ...",
        ATTRIBUTION_ROUNDS
    );
    let profile = profile_arm(&cfg, arm, ATTRIBUTION_HZ);
    if profile.is_empty() {
        println!("gate:   (run too short for samples; see the phase deltas above)");
        return;
    }
    for stack in profile.top_stacks(5) {
        println!(
            "gate:   {:>6} samples (~{:.3}s)  {}",
            stack.samples,
            profile.seconds_for(stack.samples),
            stack.folded_name()
        );
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
    if let Some(overhead) = fresh.profiling_overhead {
        let note = if overhead > PROFILING_OVERHEAD_TARGET {
            format!(" (WARNING: above the {:.0}% target)", 100.0 * PROFILING_OVERHEAD_TARGET)
        } else {
            String::new()
        };
        println!("sampling-profiler overhead: {:+.1}%{note}", 100.0 * overhead);
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
