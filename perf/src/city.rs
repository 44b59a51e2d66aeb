//! `city`: one large population — 1M users × 1k tasks, R = 200 m,
//! users wander for 60 s between rounds, greedy selection, and a
//! dropout rate leaving about 100 selecting users per round. φ and the
//! budget are large enough that no task completes and no payment is
//! refused, so every round recounts demand over every user. One
//! operation is one round.

use std::path::Path;
use std::time::Instant;

use paydemand_obs::Recorder;
use paydemand_sim::{Engine, Scenario, SelectorKind, UserMotion};

use crate::pace::{Elasticity, Pace};
use crate::{derive_seed, ms, stats, Layers, Outcome, Sizes};

/// A round slows as fast as the pace kernel's chase.
pub(crate) const ELASTICITY: Elasticity = Elasticity { chase: 1.0, alu: 0.0 };

/// Users expected to select tasks in each round.
const SELECTING_USERS: f64 = 100.0;
/// Rounds an untraced twin runs to check tracing changes no result.
const TWIN_ROUNDS: u32 = 2;
/// Pace samples taken before each round, set-up and recovery.
const PACE_SAMPLES: usize = 3;

fn scenario(sizes: &Sizes, seed: u64) -> Scenario {
    let city = &sizes.city;
    let mut s = Scenario::paper_default()
        .with_users(city.users)
        .with_tasks(city.tasks)
        .with_neighbor_radius(200.0)
        .with_selector(SelectorKind::Greedy)
        .with_max_rounds(city.rounds.max(TWIN_ROUNDS))
        .with_seed(derive_seed(seed, 0));
    s.user_motion = UserMotion::Wander { seconds: 60.0 };
    s.dropout_rate = (1.0 - SELECTING_USERS / city.users as f64).max(0.0);
    s.required_per_task = 100_000;
    s.reward_budget = 1e9;
    s
}

pub(crate) fn run(
    sizes: &Sizes,
    seed: u64,
    layers: &Layers,
    pace: &mut Pace,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scenario = scenario(sizes, seed);

    // Each set-up's engine is dropped before the next is built, so
    // large set-ups never coexist.
    let mut setups = Vec::with_capacity(sizes.setups);
    let mut engine = None;
    for _ in 0..sizes.setups.max(1) {
        drop(engine.take());
        pace.samples(PACE_SAMPLES);
        let start = Instant::now();
        engine = Some(Engine::new(&scenario, layers.recorder()).map_err(|e| e.to_string())?);
        setups.push((start, start.elapsed().as_secs_f64()));
    }
    let mut engine = engine.ok_or("no set-up ran")?;

    let mut walls = Vec::with_capacity(sizes.city.rounds as usize);
    let mut paid_after_twin = None;
    for round in 1..=sizes.city.rounds {
        pace.samples(PACE_SAMPLES);
        out.attempted += 1;
        let start = Instant::now();
        let stepped = engine.step_round();
        let wall = start.elapsed();
        match stepped {
            Ok(true) => walls.push((start, ms(wall))),
            Ok(false) => {
                out.failed += 1;
                out.failures.push(format!("round {round} did not run"));
            }
            Err(e) => return Err(format!("round {round}: {e}")),
        }
        out.fold(engine.total_paid().to_bits());
        if round == TWIN_ROUNDS {
            paid_after_twin = Some(engine.total_paid());
        }
    }
    let measured: u32 =
        engine.task_statuses().map_err(|e| e.to_string())?.iter().map(|t| t.received).sum();
    let paid = engine.total_paid();
    out.check(measured > 0 && paid > 0.0 && paid <= scenario.reward_budget, || {
        format!("{measured} measurements, {paid} paid of {}", scenario.reward_budget)
    });

    let snapshot = layers.recorder().snapshot();
    let recoveries = recovery(sizes, &scenario, engine, layers, pace, scratch, &mut out)?;
    pace.samples(PACE_SAMPLES);
    let rounds_ms = pace.paced_all(&walls);
    out.set("setup_s", stats::median(&pace.paced_all(&setups)));
    out.set("latency_ms_p50", stats::median(&rounds_ms));
    out.set(
        "throughput_per_s",
        crate::ratio(rounds_ms.len() as f64, rounds_ms.iter().sum::<f64>() * 1e-3),
    );
    out.set("recovery_ms", stats::median(&pace.paced_all(&recoveries)));

    if layers.traced() {
        // The untraced twin starts once the traced engine is gone, so
        // the two never share memory, and both first rounds run on a
        // warm allocator.
        let (twin_paid, twin_ms) = twin(&scenario)?;
        out.check(paid_after_twin.map(f64::to_bits) == Some(twin_paid.to_bits()), || {
            format!("tracing changed total_paid after round {TWIN_ROUNDS}: {paid_after_twin:?} vs {twin_paid}")
        });
        let walls_ms: Vec<f64> = walls.iter().map(|&(_, ms)| ms).collect();
        let traced_ms: f64 = walls_ms.iter().take(TWIN_ROUNDS as usize).sum();
        out.set("bench.trace_overhead_frac", crate::ratio(traced_ms, twin_ms) - 1.0);
        let phases_s = crate::engine_layers(&snapshot, &mut out);
        crate::check_coverage(
            &mut out,
            phases_s,
            walls_ms.iter().sum::<f64>() * 1e-3,
            "engine.other (shuffle, dropout draws, per-user round vectors)",
        );
        crate::op_layers(&mut out, &walls_ms, pace);
        crate::not_called(&mut out, crate::DAEMON_LAYERS);
    }
    Ok(out)
}

/// Runs the first rounds untraced: their payments and total wall.
fn twin(scenario: &Scenario) -> Result<(f64, f64), String> {
    let mut engine = Engine::new(scenario, &Recorder::disabled()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for _ in 0..TWIN_ROUNDS {
        engine.step_round().map_err(|e| e.to_string())?;
    }
    Ok((engine.total_paid(), ms(start.elapsed())))
}

/// Recovery: checkpoint the city after its last round, land it on
/// disk, drop the engine, then read the file back and resume it,
/// `sizes.recoveries` times: when each recovery started and what it
/// took, ms. Each resumed engine must stand exactly where the original
/// stopped.
fn recovery(
    sizes: &Sizes,
    scenario: &Scenario,
    engine: Engine,
    layers: &Layers,
    pace: &mut Pace,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<Vec<(Instant, f64)>, String> {
    let (next_round, paid) = (engine.next_round(), engine.total_paid());
    let start = Instant::now();
    let bytes =
        layers.time("checkpoint.encode", || engine.checkpoint()).map_err(|e| e.to_string())?;
    out.set("checkpoint.encode_ms", ms(start.elapsed()));
    drop(engine);
    let path = scratch.join("city.ck");
    let start = Instant::now();
    layers.time("checkpoint.write", || crate::write_atomic(&path, &bytes))?;
    out.set("checkpoint.write_ms", ms(start.elapsed()));
    out.set("checkpoint.bytes", bytes.len() as f64);
    drop(bytes);

    let disabled = Recorder::disabled();
    let (mut recoveries, mut resumes_ms) = (Vec::new(), Vec::new());
    let mut resumed = None;
    for _ in 0..sizes.recoveries.max(1) {
        drop(resumed.take());
        pace.samples(PACE_SAMPLES);
        let _span = layers.span("recovery");
        let start = Instant::now();
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let resume_start = Instant::now();
        resumed = Some(Engine::resume(scenario, &bytes, &disabled).map_err(|e| e.to_string())?);
        resumes_ms.push(ms(resume_start.elapsed()));
        recoveries.push((start, ms(start.elapsed())));
    }
    let resumed = resumed.ok_or("no recovery ran")?;
    out.set("checkpoint.resume_ms", stats::median(&resumes_ms));
    out.check(
        resumed.next_round() == next_round && resumed.total_paid().to_bits() == paid.to_bits(),
        || {
            format!(
                "resumed city at round {} with {} paid, want round {next_round} with {paid}",
                resumed.next_round(),
                resumed.total_paid()
            )
        },
    );
    Ok(recoveries)
}
