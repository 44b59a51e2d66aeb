//! The round-loop scaling harness: how the cost of a platform round
//! (Eq. 5 neighbour counting + demand pricing) scales with the user and
//! task population, for the production cell sweep and the naive
//! reference.
//!
//! Every arm runs the *same* synthetic workload — identical task
//! locations, identical per-round user movements, identical progress
//! evolution — and the harness checks the arms produce identical
//! neighbour counts and bit-identical rewards before reporting any
//! timing. A speed-up that changed the answer would be reported as
//! `identical: false` and is a bug.
//!
//! The binary (`src/bin/scaling.rs`) sweeps users ∈ {100, 1k, 10k, 50k}
//! × tasks ∈ {100, 1k} and writes machine-readable `BENCH_scaling.json`;
//! this module holds the reusable harness so the test suite can run a
//! miniature configuration.

use std::time::Instant;

use paydemand_core::demand::TaskObservation;
use paydemand_core::neighbors::naive_counts;
use paydemand_core::{CellSweepCounter, DemandIndicator, DemandLevels, RewardSchedule};
use paydemand_geo::{Point, Rect};
use paydemand_obs::alloc::{self, AllocPhase};
use paydemand_obs::{Recorder, Span};
use rand::{Rng, SeedableRng};

/// One scaling point: population sizes plus workload shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of mobile users `n`.
    pub users: usize,
    /// Number of sensing tasks `m`.
    pub tasks: usize,
    /// Simulated platform rounds.
    pub rounds: u32,
    /// Fraction of users that move between rounds.
    pub move_fraction: f64,
    /// Neighbour radius `R` (metres).
    pub radius: f64,
    /// Side of the square area (metres).
    pub area_side: f64,
    /// Master seed; the whole workload derives from it.
    pub seed: u64,
}

impl Config {
    /// The harness defaults at a given population point: 8 rounds, 10%
    /// of users moving per round, `R = 200 m` in a 3 km square.
    #[must_use]
    pub fn at(users: usize, tasks: usize) -> Self {
        Config {
            users,
            tasks,
            rounds: 8,
            move_fraction: 0.1,
            radius: 200.0,
            area_side: 3000.0,
            seed: 0x5CA1E,
        }
    }
}

/// How one arm computes the round loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `O(n·m)` pairwise scan.
    Naive,
    /// Cell-centric sweep ([`CellSweepCounter`]): the platform's
    /// production path.
    Cell,
}

impl Arm {
    /// All arms, slowest reference first.
    pub const ALL: [Arm; 2] = [Arm::Naive, Arm::Cell];

    /// Stable machine-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Arm::Naive => "naive",
            Arm::Cell => "cell",
        }
    }
}

/// One arm's timing and output fingerprint at one point.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Which arm ran.
    pub arm: Arm,
    /// Wall-clock seconds for all rounds (excludes workload generation).
    pub seconds: f64,
    /// Order-sensitive checksum over every round's neighbour counts.
    pub counts_checksum: u64,
    /// Checksum over the bits of every round's rewards.
    pub rewards_checksum: u64,
    /// Seconds spent counting neighbours (the demand sub-phase).
    pub demand_seconds: f64,
    /// Seconds spent computing demands and rewards (the pricing
    /// sub-phase).
    pub pricing_seconds: f64,
    /// Cell sweep: rounds served by batched delta updates.
    pub delta_rounds: u64,
    /// Cell sweep: full sweeps (reported as `rebuilds`).
    pub rebuilds: u64,
    /// Heap bytes allocated per round, averaged over the whole run
    /// (all phases, this arm's profiled window).
    pub alloc_bytes_per_round: f64,
    /// Heap allocations per round, averaged over the whole run.
    pub allocs_per_round: f64,
    /// Peak additional live bytes during the run (sum of per-phase
    /// high-water marks above the pre-run live level).
    pub peak_live_bytes: u64,
    /// Demand-phase allocations per round in steady state — rounds
    /// after the warmup (the priming full pass plus the first delta
    /// round, which grows reusable scratch to its steady capacity);
    /// `0` when fewer than 3 rounds ran. The cell arm pins this at
    /// exactly zero.
    pub demand_allocs_per_round: f64,
}

/// All arms at one (users, tasks) point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The configuration that ran.
    pub config: Config,
    /// Per-arm results, in [`Arm::ALL`] order.
    pub arms: Vec<ArmResult>,
    /// Whether every arm produced identical counts and bit-identical
    /// rewards. Timings are meaningless when this is false.
    pub identical: bool,
}

/// The synthetic workload all arms share: fixed tasks, per-round user
/// movements, and a deterministic progress schedule.
struct SharedWorkload {
    area: Rect,
    task_locations: Vec<Point>,
    initial_users: Vec<Point>,
    /// `moves[r]` = the `(user, new_location)` updates before round `r+1`.
    moves: Vec<Vec<(usize, Point)>>,
    deadlines: Vec<u32>,
    required: Vec<u32>,
}

fn generate_workload(cfg: &Config) -> SharedWorkload {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let area = Rect::square(cfg.area_side).expect("valid area");
    let task_locations: Vec<Point> =
        (0..cfg.tasks).map(|_| area.sample_uniform(&mut rng)).collect();
    let initial_users: Vec<Point> = (0..cfg.users).map(|_| area.sample_uniform(&mut rng)).collect();
    let movers = ((cfg.users as f64) * cfg.move_fraction).ceil() as usize;
    let moves: Vec<Vec<(usize, Point)>> = (0..cfg.rounds)
        .map(|_| {
            (0..movers.min(cfg.users))
                .map(|_| (rng.gen_range(0..cfg.users), area.sample_uniform(&mut rng)))
                .collect()
        })
        .collect();
    let deadlines: Vec<u32> =
        (0..cfg.tasks).map(|_| rng.gen_range(5..=15u32) + cfg.rounds).collect();
    let required: Vec<u32> = (0..cfg.tasks).map(|_| rng.gen_range(10..=30u32)).collect();
    SharedWorkload { area, task_locations, initial_users, moves, deadlines, required }
}

fn fold(checksum: u64, value: u64) -> u64 {
    // FNV-1a style: order-sensitive, cheap, stable.
    (checksum ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Runs one arm over the shared workload, returning timing + checksums.
#[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
fn run_arm(cfg: &Config, w: &SharedWorkload, arm: Arm) -> ArmResult {
    let indicator = DemandIndicator::paper_default();
    let total_required: u64 = w.required.iter().map(|&r| u64::from(r)).sum();
    // Budget scaled with the workload at the paper's ratio (B = 1000
    // for Σφ = 400) so Eq. 9 stays feasible at every population size.
    let schedule = RewardSchedule::from_budget(
        2.5 * total_required.max(1) as f64,
        total_required.max(1),
        0.5,
        DemandLevels::paper_default(),
    )
    .expect("paper-ratio schedule");

    let mut users = w.initial_users.clone();
    let mut received: Vec<u32> = vec![0; cfg.tasks];
    let mut cell = CellSweepCounter::new(w.area, cfg.radius, w.task_locations.clone());
    let mut counts_checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut rewards_checksum = counts_checksum;

    // Per-arm recorder: phase breakdown and sweep counters ride along
    // with the wall-clock totals in BENCH_scaling.json. The allocator
    // stats are process-global, so the profiled window is held
    // exclusively — arms (and concurrent tests) serialize here. The
    // guard is declared before the recorder so the recorder's drop
    // (which releases the tracking refcount) runs first.
    let _profile_window = alloc::exclusive_profile();
    let recorder = Recorder::enabled();
    recorder.enable_alloc_profile();
    alloc::reset_peaks();
    let alloc_start = alloc::snapshot_phases();
    let mut demand_allocs_primed = 0u64;
    let phase_demand = recorder.histogram_with("round_phase_seconds", "phase", "demand");
    let phase_pricing = recorder.histogram_with("round_phase_seconds", "phase", "pricing");
    cell.set_recorder(&recorder);

    let started = Instant::now();
    // Reused across rounds (clear + copy) so the counting arms' own
    // output handling allocates nothing once the capacity is warm —
    // required for the cell arm's zero-allocation steady state.
    let mut counts: Vec<usize> = Vec::new();
    for round in 1..=cfg.rounds {
        for &(user, location) in &w.moves[(round - 1) as usize] {
            users[user] = location;
        }
        let demand_tag = recorder.alloc_phase(AllocPhase::Demand);
        let demand_span = Span::on(&phase_demand);
        match arm {
            Arm::Naive => counts = naive_counts(&w.task_locations, &users, cfg.radius),
            Arm::Cell => {
                counts.clear();
                counts.extend_from_slice(cell.counts(&users).expect("users in area"));
            }
        }
        drop(demand_span);
        drop(demand_tag);
        if round <= 2 {
            // Warmup ends after round 2: round 1 is the priming full
            // sweep, round 2 the first delta round, which grows the
            // reusable scratch buffers to their steady capacity.
            demand_allocs_primed = alloc::phase_totals(AllocPhase::Demand).allocs;
        }
        let pricing_tag = recorder.alloc_phase(AllocPhase::Pricing);
        let pricing_span = Span::on(&phase_pricing);
        let max_neighbors = counts.iter().copied().max().unwrap_or(0);
        for (task, &count) in counts.iter().enumerate() {
            counts_checksum = fold(counts_checksum, count as u64);
            let obs = TaskObservation {
                deadline: w.deadlines[task],
                required: w.required[task],
                received: received[task],
                neighbors: count,
            };
            let demand = indicator.normalized_demand(&obs, round, max_neighbors);
            let reward = schedule.reward_for_demand(demand);
            rewards_checksum = fold(rewards_checksum, reward.to_bits());
        }
        drop(pricing_span);
        drop(pricing_tag);
        // Deterministic progress: tasks near users fill up faster. Same
        // counts across arms → same progress across arms.
        for (task, &count) in counts.iter().enumerate() {
            let gain = (count as u32).min(3);
            received[task] = (received[task] + gain).min(w.required[task]);
        }
    }
    let seconds = started.elapsed().as_secs_f64();

    let alloc_end = alloc::snapshot_phases();
    let demand_allocs_end = alloc_end[AllocPhase::Demand as usize].allocs;
    let mut bytes_allocated = 0u64;
    let mut allocs = 0u64;
    let mut peak_live_bytes = 0u64;
    for (end, start) in alloc_end.iter().zip(&alloc_start) {
        bytes_allocated += end.bytes_allocated.saturating_sub(start.bytes_allocated);
        allocs += end.allocs.saturating_sub(start.allocs);
        // Peaks were rebaselined to live at the window start, so the
        // per-phase rise above the pre-run live level is exact.
        peak_live_bytes += end.peak_live_bytes.saturating_sub(start.live_bytes).max(0) as u64;
    }
    let rounds = f64::from(cfg.rounds.max(1));
    let steady_rounds = f64::from(cfg.rounds.saturating_sub(2));
    let demand_allocs_per_round = if steady_rounds > 0.0 {
        demand_allocs_end.saturating_sub(demand_allocs_primed) as f64 / steady_rounds
    } else {
        0.0
    };

    let snapshot = recorder.snapshot();
    let phase_seconds = |phase: &str| {
        snapshot
            .histogram_snapshot("round_phase_seconds", Some(("phase", phase)))
            .map_or(0.0, |h| h.sum as f64 / 1e9)
    };
    let counter = |name: &str| snapshot.counter_value(name, None).unwrap_or(0);
    let delta_rounds = counter("cell_sweep_delta_rounds_total");
    let rebuilds = counter("cell_sweep_full_sweeps_total");
    ArmResult {
        arm,
        seconds,
        counts_checksum,
        rewards_checksum,
        demand_seconds: phase_seconds("demand"),
        pricing_seconds: phase_seconds("pricing"),
        delta_rounds,
        rebuilds,
        alloc_bytes_per_round: bytes_allocated as f64 / rounds,
        allocs_per_round: allocs as f64 / rounds,
        peak_live_bytes,
        demand_allocs_per_round,
    }
}

/// Runs every arm at one point and cross-checks their outputs.
#[must_use]
pub fn run_point(cfg: &Config) -> PointResult {
    let workload = generate_workload(cfg);
    let arms: Vec<ArmResult> = Arm::ALL.iter().map(|&arm| run_arm(cfg, &workload, arm)).collect();
    let identical = arms.windows(2).all(|pair| {
        pair[0].counts_checksum == pair[1].counts_checksum
            && pair[0].rewards_checksum == pair[1].rewards_checksum
    });
    PointResult { config: cfg.clone(), arms, identical }
}

/// Decision-journal overhead at one population point: the same engine
/// scenario run plain and with the trace sink enabled, interleaved
/// best-of-N so both arms see the same cache state. `identical` pins
/// the observability promise — the traced run must produce the same
/// `SimulationResult` bit-for-bit.
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Users in the measured scenario.
    pub users: usize,
    /// Tasks in the measured scenario.
    pub tasks: usize,
    /// Rounds the scenario runs.
    pub rounds: u32,
    /// Best wall-clock seconds for the plain run.
    pub plain_seconds: f64,
    /// Best wall-clock seconds for the traced run.
    pub traced_seconds: f64,
    /// Size of the emitted journal in bytes.
    pub journal_bytes: usize,
    /// Whether the traced result matched the plain result exactly.
    pub identical: bool,
}

impl TraceOverhead {
    /// Relative slowdown of the traced run (`0.1` = 10% slower).
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.plain_seconds > 0.0 {
            self.traced_seconds / self.plain_seconds - 1.0
        } else {
            0.0
        }
    }
}

/// Measures trace-journal overhead on a full engine run at the given
/// population, interleaving `iterations` plain/traced pairs and keeping
/// the best time of each arm.
#[must_use]
pub fn measure_trace_overhead(
    users: usize,
    tasks: usize,
    rounds: u32,
    iterations: usize,
) -> TraceOverhead {
    use paydemand_sim::{engine, MechanismKind, Scenario, SelectorKind};

    let mut scenario = Scenario::paper_default()
        .with_users(users)
        .with_tasks(tasks)
        .with_max_rounds(rounds)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0x0B5E_11E0);
    // Keep Eq. 9 feasible at every population: budget at the paper's
    // ratio of 2.5 × Σφ.
    scenario.reward_budget = 2.5 * (tasks as f64) * f64::from(scenario.required_per_task);

    let recorder = Recorder::disabled();
    let mut plain_seconds = f64::INFINITY;
    let mut traced_seconds = f64::INFINITY;
    let mut journal_bytes = 0usize;
    let mut identical = true;
    for _ in 0..iterations.max(1) {
        let started = Instant::now();
        let plain = engine::run(&scenario).expect("plain run");
        plain_seconds = plain_seconds.min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let (traced, journal) = engine::run_traced(&scenario, &recorder).expect("traced run");
        traced_seconds = traced_seconds.min(started.elapsed().as_secs_f64());

        journal_bytes = journal.len();
        identical &= traced == plain;
    }
    TraceOverhead { users, tasks, rounds, plain_seconds, traced_seconds, journal_bytes, identical }
}

/// Live-telemetry overhead at one population point: the same engine
/// scenario run plain and with the full telemetry stack attached
/// (per-round time-series snapshots, default alert rules, span
/// tracing), interleaved best-of-N. `identical` pins the observability
/// promise — the telemetry run must produce the same
/// `SimulationResult` bit-for-bit.
#[derive(Debug, Clone)]
pub struct TelemetryOverhead {
    /// Users in the measured scenario.
    pub users: usize,
    /// Tasks in the measured scenario.
    pub tasks: usize,
    /// Rounds the scenario runs.
    pub rounds: u32,
    /// Best wall-clock seconds for the plain run.
    pub plain_seconds: f64,
    /// Best wall-clock seconds with the telemetry stack attached.
    pub telemetry_seconds: f64,
    /// Round snapshots captured by the time series in one run.
    pub round_samples: usize,
    /// Span events captured by the trace log in one run.
    pub span_events: usize,
    /// Whether the telemetry result matched the plain result exactly.
    pub identical: bool,
}

impl TelemetryOverhead {
    /// Relative slowdown of the telemetry run (`0.1` = 10% slower).
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.plain_seconds > 0.0 {
            self.telemetry_seconds / self.plain_seconds - 1.0
        } else {
            0.0
        }
    }
}

/// Measures live-telemetry overhead on a full engine run at the given
/// population, interleaving `iterations` plain/telemetry pairs and
/// keeping the best time of each arm.
#[must_use]
pub fn measure_telemetry_overhead(
    users: usize,
    tasks: usize,
    rounds: u32,
    iterations: usize,
) -> TelemetryOverhead {
    use paydemand_obs::{Alerts, TimeSeries};
    use paydemand_sim::{engine, MechanismKind, Scenario, SelectorKind};

    let mut scenario = Scenario::paper_default()
        .with_users(users)
        .with_tasks(tasks)
        .with_max_rounds(rounds)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0x0B5E_11E0);
    scenario.reward_budget = 2.5 * (tasks as f64) * f64::from(scenario.required_per_task);

    let mut plain_seconds = f64::INFINITY;
    let mut telemetry_seconds = f64::INFINITY;
    let mut round_samples = 0usize;
    let mut span_events = 0usize;
    let mut identical = true;
    for _ in 0..iterations.max(1) {
        let started = Instant::now();
        let plain = engine::run(&scenario).expect("plain run");
        plain_seconds = plain_seconds.min(started.elapsed().as_secs_f64());

        let recorder = Recorder::enabled();
        recorder.attach_timeseries(&TimeSeries::with_capacity(rounds as usize + 1));
        recorder.attach_alerts(&Alerts::with_defaults());
        recorder.enable_trace_events(1 << 16);
        let started = Instant::now();
        let instrumented = engine::run_recorded(&scenario, &recorder).expect("telemetry run");
        telemetry_seconds = telemetry_seconds.min(started.elapsed().as_secs_f64());

        round_samples = recorder.timeseries().len();
        span_events = recorder.span_log().map_or(0, |log| log.events().len());
        identical &= instrumented == plain;
    }
    TelemetryOverhead {
        users,
        tasks,
        rounds,
        plain_seconds,
        telemetry_seconds,
        round_samples,
        span_events,
        identical,
    }
}

/// Serialises points as the `BENCH_scaling.json` document (no external
/// JSON dependency; the format is flat enough to emit by hand).
#[must_use]
pub fn to_json(points: &[PointResult]) -> String {
    to_json_doc(points, None, None)
}

/// [`to_json`] plus an optional top-level `"trace"` overhead object.
#[must_use]
pub fn to_json_full(points: &[PointResult], trace: Option<&TraceOverhead>) -> String {
    to_json_doc(points, trace, None)
}

/// [`to_json`] plus optional top-level `"trace"` and `"telemetry"`
/// overhead objects (each a single line, so the gate's line-oriented
/// parser reads them directly).
#[must_use]
pub fn to_json_doc(
    points: &[PointResult],
    trace: Option<&TraceOverhead>,
    telemetry: Option<&TelemetryOverhead>,
) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"round_loop_scaling\",\n");
    if let Some(t) = telemetry {
        out.push_str(&format!(
            "  \"telemetry\": {{\"users\": {}, \"tasks\": {}, \"rounds\": {}, \
             \"plain_seconds\": {:.6}, \"telemetry_seconds\": {:.6}, \
             \"overhead_fraction\": {:.4}, \"round_samples\": {}, \"span_events\": {}, \
             \"identical\": {}}},\n",
            t.users,
            t.tasks,
            t.rounds,
            t.plain_seconds,
            t.telemetry_seconds,
            t.overhead_fraction(),
            t.round_samples,
            t.span_events,
            t.identical,
        ));
    }
    if let Some(t) = trace {
        out.push_str(&format!(
            "  \"trace\": {{\"users\": {}, \"tasks\": {}, \"rounds\": {}, \
             \"plain_seconds\": {:.6}, \"traced_seconds\": {:.6}, \
             \"overhead_fraction\": {:.4}, \"journal_bytes\": {}, \"identical\": {}}},\n",
            t.users,
            t.tasks,
            t.rounds,
            t.plain_seconds,
            t.traced_seconds,
            t.overhead_fraction(),
            t.journal_bytes,
            t.identical,
        ));
    }
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"users\": {}, \"tasks\": {}, \"rounds\": {}, \"radius_m\": {}, \
             \"move_fraction\": {}, \"identical\": {}, \"arms\": [",
            p.config.users,
            p.config.tasks,
            p.config.rounds,
            p.config.radius,
            p.config.move_fraction,
            p.identical,
        ));
        for (j, a) in p.arms.iter().enumerate() {
            out.push_str(&format!(
                "{{\"arm\": \"{}\", \"seconds\": {:.6}, \"demand_seconds\": {:.6}, \
                 \"demand_ms_per_round\": {:.3}, \"pricing_seconds\": {:.6}, \
                 \"delta_rounds\": {}, \"rebuilds\": {}, \
                 \"alloc_bytes_per_round\": {:.1}, \"allocs_per_round\": {:.1}, \
                 \"peak_live_bytes\": {}, \"demand_allocs_per_round\": {:.1}}}",
                a.arm.label(),
                a.seconds,
                a.demand_seconds,
                1000.0 * a.demand_seconds / f64::from(p.config.rounds.max(1)),
                a.pricing_seconds,
                a.delta_rounds,
                a.rebuilds,
                a.alloc_bytes_per_round,
                a.allocs_per_round,
                a.peak_live_bytes,
                a.demand_allocs_per_round,
            ));
            if j + 1 < p.arms.len() {
                out.push_str(", ");
            }
        }
        out.push_str("]}");
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config { rounds: 4, ..Config::at(300, 25) }
    }

    #[test]
    fn all_arms_agree_on_outputs() {
        let point = run_point(&tiny());
        assert!(point.identical, "arms disagreed: {point:?}");
        assert_eq!(point.arms.len(), 2);
        assert!(point.arms.iter().all(|a| a.seconds >= 0.0));
        for a in &point.arms {
            // The phases partition (most of) the measured loop.
            assert!(a.demand_seconds >= 0.0 && a.pricing_seconds >= 0.0);
            assert!(a.demand_seconds + a.pricing_seconds <= a.seconds + 1e-3, "{a:?}");
            match a.arm {
                Arm::Cell => {
                    assert_eq!(a.rebuilds, 1, "one priming full sweep: {a:?}");
                    assert_eq!(u64::from(tiny().rounds) - 1, a.delta_rounds, "{a:?}");
                }
                Arm::Naive => {
                    assert_eq!(a.delta_rounds, 0);
                    assert_eq!(a.rebuilds, 0);
                }
            }
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // zero is exact: an integer count divided by rounds
    fn arms_report_alloc_metrics() {
        let point = run_point(&tiny());
        for a in &point.arms {
            assert!(a.alloc_bytes_per_round >= 0.0, "{a:?}");
            assert!(a.allocs_per_round > 0.0, "every arm allocates at least once: {a:?}");
            assert!(a.demand_allocs_per_round >= 0.0, "{a:?}");
        }
        // The naive arm allocates its output vector from scratch each
        // round; the cell arm's steady-state demand phase must not
        // allocate at all once its scratch capacity is warm.
        let naive = point.arms.iter().find(|a| a.arm == Arm::Naive).unwrap();
        assert!(naive.demand_allocs_per_round >= 1.0, "{naive:?}");
        let cell = point.arms.iter().find(|a| a.arm == Arm::Cell).unwrap();
        assert!(
            cell.demand_allocs_per_round == 0.0,
            "cell arm demand phase allocated in steady state: {cell:?}"
        );
        let json = to_json(&[point]);
        for field in [
            "alloc_bytes_per_round",
            "allocs_per_round",
            "peak_live_bytes",
            "demand_allocs_per_round",
        ] {
            assert!(json.contains(field), "{field} missing from JSON");
        }
    }

    #[test]
    fn different_seeds_change_the_workload() {
        let a = run_point(&tiny());
        let b = run_point(&Config { seed: 999, ..tiny() });
        assert_ne!(a.arms[0].counts_checksum, b.arms[0].counts_checksum);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let points = vec![run_point(&tiny())];
        let json = to_json(&points);
        assert!(json.contains("\"benchmark\": \"round_loop_scaling\""));
        assert!(json.contains("\"users\": 300"));
        assert!(json.contains("\"identical\": true"));
        for arm in Arm::ALL {
            assert!(json.contains(arm.label()), "{}", arm.label());
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn trace_overhead_preserves_results_and_serialises() {
        let t = measure_trace_overhead(30, 8, 4, 1);
        assert!(t.identical, "tracing changed the simulation: {t:?}");
        assert!(t.journal_bytes > 0);
        assert!(t.plain_seconds > 0.0 && t.traced_seconds > 0.0);
        let json = to_json_full(&[run_point(&tiny())], Some(&t));
        assert!(json.contains("\"trace\": {\"users\": 30"));
        assert!(json.contains("\"overhead_fraction\""));
        assert!(json.contains("\"identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Without a trace section the document is unchanged in shape.
        assert!(!to_json(&[run_point(&tiny())]).contains("\"trace\""));
    }

    #[test]
    fn telemetry_overhead_preserves_results_and_serialises() {
        let t = measure_telemetry_overhead(30, 8, 4, 1);
        assert!(t.identical, "telemetry changed the simulation: {t:?}");
        assert_eq!(t.round_samples, 4, "one snapshot per round");
        assert!(t.span_events > 0, "engine spans reached the trace log");
        assert!(t.plain_seconds > 0.0 && t.telemetry_seconds > 0.0);
        let trace = measure_trace_overhead(30, 8, 4, 1);
        let json = to_json_doc(&[run_point(&tiny())], Some(&trace), Some(&t));
        assert!(json.contains("\"telemetry\": {\"users\": 30"));
        assert!(json.contains("\"round_samples\": 4"));
        assert!(json.contains("\"trace\": {\"users\": 30"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The telemetry section is a single line for the gate's parser.
        let line = json.lines().find(|l| l.contains("\"telemetry\":")).unwrap();
        assert!(line.contains("\"overhead_fraction\"") && line.contains("\"identical\""));
        // Without the section the document is unchanged in shape.
        assert!(!to_json(&[run_point(&tiny())]).contains("\"telemetry\""));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Arm::Naive.label(), "naive");
        assert_eq!(Arm::Cell.label(), "cell");
    }
}
