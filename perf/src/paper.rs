//! `paper`: the paper's §VI sweep — `Scenario::paper_default()` (20
//! tasks, φ = 20, DP capped at 14 candidates, 15 rounds) at each user
//! count, once per derived seed, as complete simulations in a closed
//! loop. One operation is one whole simulation.

use std::path::Path;
use std::time::Instant;

use paydemand_obs::Recorder;
use paydemand_sim::{Engine, MechanismKind, Scenario, SelectorKind, SimulationResult};

use crate::pace::{Elasticity, Pace};
use crate::{derive_seed, ms, stats, Layers, Outcome, Sizes};

/// A simulation slows faster than the pace kernel's chase (see
/// `pace.rs`): its DP tables and per-user vectors live in the caches a
/// neighbour evicts.
pub(crate) const ELASTICITY: Elasticity = Elasticity { chase: 1.5, alu: 0.0 };

/// Every this-many-th simulation of a traced run is repeated untraced,
/// to check tracing changes no result and to measure its overhead.
const TWIN_EVERY: usize = 5;
/// Simulations between two samples of the pace kernel.
const PACE_EVERY: usize = 4;
/// Resumes per recovery a run reports: a resume takes well under a
/// millisecond, so many are spread through the timed loop.
const RESUMES_PER_RECOVERY: usize = 20;

pub(crate) fn run(
    sizes: &Sizes,
    seed: u64,
    layers: &Layers,
    pace: &mut Pace,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up is repeated through the timed loop (the first one before
    // it), so that its median samples the whole run.
    pace.samples(2);
    let start = Instant::now();
    let sweep = setup(sizes, seed, &mut out)?;
    let mut setups_s = vec![(start, start.elapsed().as_secs_f64())];
    let setup_every = sweep.len().div_ceil(sizes.setups.max(1)).max(1);

    let mut recovery = Recovery::prepare(sizes, seed, scratch, &mut out)?;
    let resume_every = (sweep.len() / (sizes.recoveries * RESUMES_PER_RECOVERY)).max(1);

    let mut walls = Vec::with_capacity(sweep.len());
    let mut rounds = 0usize;
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for (i, scenario) in sweep.iter().enumerate() {
        if i % PACE_EVERY == 0 {
            pace.sample();
        }
        if i > 0 && i % setup_every == 0 {
            let start = Instant::now();
            setup(sizes, seed, &mut out)?;
            setups_s.push((start, start.elapsed().as_secs_f64()));
        }
        out.attempted += 1;
        let start = Instant::now();
        let result = layers.time("sim", || simulate(scenario, layers));
        let wall = start.elapsed();
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("{} users, seed {}: {e}", scenario.users, scenario.seed));
                continue;
            }
        };
        walls.push((start, ms(wall)));
        rounds += result.rounds.len();
        check_result(&mut out, scenario, &result);
        out.fold(result.total_paid.to_bits());
        if layers.traced() && i % TWIN_EVERY == 0 {
            let start = Instant::now();
            let twin = simulate(scenario, &Layers::new(false))?;
            untraced_s += start.elapsed().as_secs_f64();
            traced_s += wall.as_secs_f64();
            out.check(twin.total_paid.to_bits() == result.total_paid.to_bits(), || {
                format!(
                    "tracing changed total_paid for {} users, seed {}",
                    scenario.users, scenario.seed
                )
            });
        }
        if i % resume_every == 0 {
            recovery.measure(layers)?;
        }
    }
    pace.samples(2);
    let paced_ms = pace.paced_all(&walls);
    out.set("setup_s", stats::median(&pace.paced_all(&setups_s)));
    out.set("latency_ms_p50", stats::median(&paced_ms));
    out.set("throughput_per_s", crate::ratio(rounds as f64, paced_ms.iter().sum::<f64>() * 1e-3));
    recovery.finish(pace, &mut out)?;

    if layers.traced() {
        let walls_ms: Vec<f64> = walls.iter().map(|&(_, ms)| ms).collect();
        let total_s = walls_ms.iter().sum::<f64>() * 1e-3;
        let snapshot = layers.recorder().snapshot();
        let phases_s = crate::engine_layers(&snapshot, &mut out);
        let build_s =
            layers.seconds(&snapshot, "engine.build") + layers.seconds(&snapshot, "engine.finish");
        crate::check_coverage(
            &mut out,
            phases_s + build_s,
            total_s,
            "engine.other (shuffle, availability filtering, per-user round vectors)",
        );
        crate::op_layers(&mut out, &walls_ms, pace);
        out.set("bench.trace_overhead_frac", crate::ratio(traced_s, untraced_s) - 1.0);
        crate::not_called(&mut out, crate::DAEMON_LAYERS);
    }
    Ok(out)
}

/// The set-up before the timed loop: derive the sweep, reproduce the
/// golden run (a mismatch is a failed check), and warm the engine on
/// the sweep's largest point.
fn setup(sizes: &Sizes, seed: u64, out: &mut Outcome) -> Result<Vec<Scenario>, String> {
    let sweep = scenarios(sizes, seed);
    if let Some(failure) = golden()? {
        out.failures.push(failure);
    }
    let users = sizes.paper.users.iter().copied().max().unwrap_or(100);
    let warm = simulate(&Scenario::paper_default().with_users(users), &Layers::new(false))?;
    std::hint::black_box(warm.total_paid);
    Ok(sweep)
}

/// The seed-0xD5EED golden run (30 users, 10 tasks, 8 rounds): 197
/// measurements, 81 of them in round 1, 721.0 paid, full coverage.
/// Returns what moved, if anything did.
fn golden() -> Result<Option<String>, String> {
    let scenario = Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(8)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0xD5EED);
    let result = simulate(&scenario, &Layers::new(false))?;
    let round1: u32 = result.rounds.first().map_or(0, |r| r.new_measurements.iter().sum());
    let found = (result.total_measurements(), round1, result.total_paid, result.coverage());
    let golden =
        found.0 == 197 && found.1 == 81 && (found.2 - 721.0).abs() < 1e-9 && found.3 == 1.0;
    Ok((!golden).then(|| {
        format!("golden run moved: (measurements, round 1, paid, coverage) = {found:?}, want (197, 81, 721.0, 1.0)")
    }))
}

/// The sweep: user counts interleaved within each seed, so slow drift
/// in the machine spreads over every point.
fn scenarios(sizes: &Sizes, seed: u64) -> Vec<Scenario> {
    let mut sweep = Vec::with_capacity(sizes.paper.users.len() * sizes.paper.seeds);
    for _ in 0..sizes.paper.seeds {
        for &users in &sizes.paper.users {
            let seed = derive_seed(seed, sweep.len() as u64);
            sweep.push(Scenario::paper_default().with_users(users).with_seed(seed));
        }
    }
    sweep
}

/// One complete simulation, with the engine reporting to `layers`.
fn simulate(scenario: &Scenario, layers: &Layers) -> Result<SimulationResult, String> {
    let mut engine = layers
        .time("engine.build", || Engine::new(scenario, layers.recorder()))
        .map_err(|e| e.to_string())?;
    while engine.step_round().map_err(|e| e.to_string())? {}
    layers.time("engine.finish", || engine.finish()).map_err(|e| e.to_string())
}

/// Payments stay within the budget, no task exceeds φ, every round ran.
fn check_result(out: &mut Outcome, scenario: &Scenario, result: &SimulationResult) {
    let within_budget = result.total_paid <= scenario.reward_budget + 1e-9;
    let capped = result.received.iter().all(|&r| r <= scenario.required_per_task);
    let all_rounds = result.rounds.len() == scenario.max_rounds as usize;
    out.check(within_budget && capped && all_rounds, || {
        format!(
            "{} users, seed {}: paid {} of {}, measurements capped {capped}, {} of {} rounds",
            scenario.users,
            scenario.seed,
            result.total_paid,
            scenario.reward_budget,
            result.rounds.len(),
            scenario.max_rounds
        )
    });
}

/// Recovery of a 100-user engine checkpointed halfway through its run
/// and landed on disk: read back and resumed, timed.
struct Recovery {
    scenario: Scenario,
    path: std::path::PathBuf,
    /// The checkpointed engine, left to run on uninterrupted.
    engine: Engine,
    /// The last resumed engine.
    resumed: Option<Engine>,
    /// When each recovery started and what it took, ms.
    walls: Vec<(Instant, f64)>,
}

impl Recovery {
    /// Checkpoints and lands the engine, reporting the checkpoint layers
    /// (each the median of many calls: a paper-sized checkpoint takes
    /// well under a millisecond).
    fn prepare(
        sizes: &Sizes,
        seed: u64,
        scratch: &Path,
        out: &mut Outcome,
    ) -> Result<Self, String> {
        let scenario =
            Scenario::paper_default().with_users(100).with_seed(derive_seed(seed, u64::MAX));
        let disabled = Recorder::disabled();
        let mut engine = Engine::new(&scenario, &disabled).map_err(|e| e.to_string())?;
        for _ in 0..scenario.max_rounds / 2 {
            engine.step_round().map_err(|e| e.to_string())?;
        }
        let reps = sizes.recoveries * RESUMES_PER_RECOVERY;
        let (encode_s, bytes) =
            crate::median_of(reps, || engine.checkpoint().map_err(|e| e.to_string()))?;
        let path = scratch.join("paper.ck");
        let (write_s, ()) =
            crate::median_of(sizes.recoveries, || crate::write_atomic(&path, &bytes))?;
        let (resume_s, _) = crate::median_of(reps, || {
            Engine::resume(&scenario, &bytes, &disabled).map_err(|e| e.to_string())
        })?;
        out.set("checkpoint.encode_ms", encode_s * 1e3);
        out.set("checkpoint.write_ms", write_s * 1e3);
        out.set("checkpoint.resume_ms", resume_s * 1e3);
        out.set("checkpoint.bytes", bytes.len() as f64);
        Ok(Recovery { scenario, path, engine, resumed: None, walls: Vec::new() })
    }

    /// Reads the checkpoint back and resumes it.
    fn measure(&mut self, layers: &Layers) -> Result<(), String> {
        let _span = layers.span("recovery");
        let start = Instant::now();
        let bytes = std::fs::read(&self.path)
            .map_err(|e| format!("reading {}: {e}", self.path.display()))?;
        let resumed = Engine::resume(&self.scenario, &bytes, &Recorder::disabled())
            .map_err(|e| e.to_string())?;
        self.walls.push((start, ms(start.elapsed())));
        self.resumed = Some(resumed);
        Ok(())
    }

    /// Reports the recovery time; the resumed engine must finish with the
    /// uninterrupted run's payments.
    fn finish(mut self, pace: &Pace, out: &mut Outcome) -> Result<(), String> {
        out.set("recovery_ms", stats::median(&pace.paced_all(&self.walls)));
        let mut resumed = self.resumed.take().ok_or("no recovery was measured")?;
        self.engine.run_to_completion().map_err(|e| e.to_string())?;
        resumed.run_to_completion().map_err(|e| e.to_string())?;
        let (want, got) = (self.engine.total_paid(), resumed.total_paid());
        out.check(got.to_bits() == want.to_bits(), || {
            format!("resumed run paid {got} where the uninterrupted run paid {want}")
        });
        Ok(())
    }
}
