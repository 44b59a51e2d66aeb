//! Round-loop scaling benchmark: emits `BENCH_scaling.json`.
//!
//! ```sh
//! cargo run --release -p paydemand-bench --bin scaling -- [OUT_PATH]
//! ```
//!
//! Sweeps users ∈ {100, 1k, 10k, 50k} × tasks ∈ {100, 1k}, plus two
//! demand-wall points at 250k and 1M users × 1k tasks (fewer rounds —
//! the naive reference arm is O(n·m) per round), and times the
//! platform's per-round work (Eq. 5 neighbour counting + demand
//! pricing) under two arms: the naive pairwise scan and the production
//! cell-centric sweep. Outputs are cross-checked for bitwise identity
//! before any timing is reported; see `paydemand_bench::scaling`.

use paydemand_bench::scaling::{
    measure_telemetry_overhead, measure_trace_overhead, run_point, to_json_doc, Config,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out_path = "BENCH_scaling.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`").into());
        }
        out_path = arg;
    }
    let users_axis = [100usize, 1_000, 10_000, 50_000];
    let tasks_axis = [100usize, 1_000];

    let mut configs = Vec::new();
    for &tasks in &tasks_axis {
        for &users in &users_axis {
            configs.push(Config::at(users, tasks));
        }
    }
    // Demand-wall points: the naive arm still runs (it is the bitwise
    // reference), so fewer rounds keep its O(n·m) cost bounded. The
    // 100k point doubles as the allocation gate's zero-alloc threshold.
    configs.push(Config { rounds: 5, ..Config::at(100_000, 1_000) });
    configs.push(Config { rounds: 3, ..Config::at(250_000, 1_000) });
    configs.push(Config { rounds: 2, ..Config::at(1_000_000, 1_000) });

    let mut points = Vec::new();
    for cfg in &configs {
        eprintln!("scaling: {} users x {} tasks, {} rounds ...", cfg.users, cfg.tasks, cfg.rounds);
        let point = run_point(cfg);
        for arm in &point.arms {
            eprintln!(
                "  {:<16} {:>10.4} s  (demand {:.4} s = {:.1} ms/round, pricing {:.4} s, \
                 {} delta rounds, {} full sweeps)",
                arm.arm.label(),
                arm.seconds,
                arm.demand_seconds,
                1000.0 * arm.demand_seconds / f64::from(cfg.rounds.max(1)),
                arm.pricing_seconds,
                arm.delta_rounds,
                arm.rebuilds,
            );
            eprintln!(
                "  {:<16} {:>12.0} alloc B/round, {:>8.1} allocs/round \
                 (demand {:.1}), peak live {} B",
                "",
                arm.alloc_bytes_per_round,
                arm.allocs_per_round,
                arm.demand_allocs_per_round,
                arm.peak_live_bytes,
            );
        }
        if !point.identical {
            eprintln!("  ERROR: arms disagree at this point!");
        }
        points.push(point);
    }

    eprintln!("scaling: trace overhead on the 10k-user engine arm ...");
    let trace = measure_trace_overhead(10_000, 100, 8, 3);
    eprintln!(
        "  plain {:.4} s, traced {:.4} s ({:+.1}%), journal {} bytes, identical: {}",
        trace.plain_seconds,
        trace.traced_seconds,
        100.0 * trace.overhead_fraction(),
        trace.journal_bytes,
        trace.identical,
    );

    eprintln!("scaling: telemetry overhead on the 10k-user engine arm ...");
    let telemetry = measure_telemetry_overhead(10_000, 100, 8, 3);
    eprintln!(
        "  plain {:.4} s, telemetry {:.4} s ({:+.1}%), {} round samples, \
         {} span events, identical: {}",
        telemetry.plain_seconds,
        telemetry.telemetry_seconds,
        100.0 * telemetry.overhead_fraction(),
        telemetry.round_samples,
        telemetry.span_events,
        telemetry.identical,
    );

    let json = to_json_doc(&points, Some(&trace), Some(&telemetry));
    std::fs::write(&out_path, &json)?;
    eprintln!("wrote {out_path}");

    if points.iter().any(|p| !p.identical) {
        return Err("arms produced different outputs; timings invalid".into());
    }
    if !trace.identical {
        return Err("trace-enabled run diverged from the plain run".into());
    }
    if !telemetry.identical {
        return Err("telemetry-enabled run diverged from the plain run".into());
    }
    Ok(())
}
