//! City-scale stress test: 200 tasks, 1000 users, 10 km × 10 km.
//!
//! The paper's evaluation stops at 20 tasks / 140 users. The *uncapped*
//! exact DP cannot even represent a 200-task round (bitmask width), but
//! the polynomial selectors can — this is the regime §V-B's greedy
//! exists for — and so can the candidate-capped DP. One repetition of
//! each, with timing, followed by a per-phase memory table from the
//! tracking allocator.
//!
//! ```sh
//! cargo run --release --example large_scale
//! ```

use std::time::Instant;

use paydemand::geo::placement::Placement;
use paydemand::obs::alloc::{self, AllocPhase};
use paydemand::obs::Recorder;
use paydemand::sim::{engine, metrics, MechanismKind, Scenario, SelectorKind};

#[allow(clippy::cast_precision_loss)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = Scenario {
        area_side: 10_000.0,
        tasks: 200,
        required_per_task: 10,
        users: 1000,
        deadline_range: (5, 15),
        max_rounds: 15,
        reward_budget: 5000.0,
        user_placement: Placement::Clustered { clusters: 8, sigma: 800.0 },
        mechanism: MechanismKind::OnDemand,
        ..Scenario::paper_default()
    }
    .with_seed(77);

    println!("large scale: 200 tasks x 10 measurements, 1000 users, 10 km x 10 km");
    println!("{:-<76}", "");
    println!(
        "{:<14} {:>10} {:>10} {:>14} {:>10} {:>12}",
        "selector", "time", "coverage", "completeness", "variance", "reward/meas"
    );

    for selector in [
        SelectorKind::Greedy,
        SelectorKind::GreedyTwoOpt,
        SelectorKind::Insertion,
        // The capped DP still works at scale: it pre-filters to the 14
        // nearest reachable candidates per user.
        SelectorKind::Dp { candidate_cap: Some(14) },
    ] {
        let scenario = base.clone().with_selector(selector);
        let t = Instant::now();
        let r = engine::run(&scenario)?;
        println!(
            "{:<14} {:>9.2?} {:>9.1}% {:>13.1}% {:>10.2} {:>11.3}$",
            selector.label(),
            t.elapsed(),
            100.0 * r.coverage(),
            100.0 * metrics::completeness(&r),
            metrics::measurement_variance(&r),
            metrics::average_reward_per_measurement(&r),
        );
    }

    println!("{:-<76}", "");
    println!("All selectors sustain 1000 users x 15 rounds in well under a second.");
    println!("The candidate-capped DP is even *fastest* here: its pre-filter looks");
    println!("at 14 nearby tasks per user while the heuristics scan all 200 — and");
    println!("its optimal routes also finish more tasks for less money.");

    // Re-run the capped DP with allocator profiling on (results are
    // bit-identical — tests/memory.rs) and show where the bytes go.
    let recorder = Recorder::enabled();
    recorder.enable_alloc_profile();
    let rounds = base.max_rounds.max(1);
    let before = alloc::snapshot_phases();
    engine::run_recorded(
        &base.clone().with_selector(SelectorKind::Dp { candidate_cap: Some(14) }),
        &recorder,
    )?;
    let after = alloc::snapshot_phases();

    println!();
    println!("per-phase heap traffic, capped DP run ({rounds} rounds):");
    println!("{:-<76}", "");
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>16}",
        "phase", "allocs", "bytes", "bytes/round", "peak live bytes"
    );
    for phase in AllocPhase::ALL {
        let (cur, prev) = (&after[phase as usize], &before[phase as usize]);
        let allocs = cur.allocs.saturating_sub(prev.allocs);
        let bytes = cur.bytes_allocated.saturating_sub(prev.bytes_allocated);
        if allocs == 0 && phase != AllocPhase::Untagged {
            continue;
        }
        println!(
            "{:<12} {:>12} {:>14} {:>14.1} {:>16}",
            phase.label(),
            allocs,
            bytes,
            bytes as f64 / f64::from(rounds),
            cur.peak_live_bytes.max(0),
        );
    }
    println!("{:-<76}", "");
    println!("Selection dominates the allocation profile (per-user DP tables);");
    println!("demand reuses the cell sweep's buffers and pricing allocates only");
    println!("its reward list, so their per-round traffic stays flat as rounds");
    println!("accumulate.");
    Ok(())
}
