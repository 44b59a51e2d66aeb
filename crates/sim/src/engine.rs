//! The simulation engine: the round loop of the paper's Fig. 1.
//!
//! Each sensing round:
//! 1. the platform counts every task's neighbouring users and publishes
//!    incomplete tasks with mechanism-priced rewards;
//! 2. users — visited in a fresh random order, since the WST mode has
//!    no coordination — each solve their selection problem against the
//!    tasks *still available to them* (incomplete right now, never
//!    contributed by them before), travel, measure, upload and get paid;
//! 3. the platform closes the round; users move per the scenario's
//!    [`UserMotion`].
//!
//! Processing users sequentially against live availability keeps
//! measurements capped at `φ_i` and every performed task paid, which is
//! the only reading of the paper under which its Fig. 8(a) measurement
//! counts stay ≤ φ (see EXPERIMENTS.md, "Assumptions").
//!
//! The loop is exposed two ways:
//!
//! * the one-shot [`run`]/[`run_recorded`] functions, unchanged from the
//!   original engine;
//! * the resumable [`Engine`], which steps one round at a time, can
//!   [`Engine::checkpoint`] its complete state at any round boundary and
//!   [`Engine::resume`] it later byte-identically, and executes the
//!   scenario's [`FaultPlan`](paydemand_faults::FaultPlan) if one is
//!   attached.
//!
//! # Fault semantics
//!
//! Fault decisions ride the injector's own RNG stream, never the main
//! one, so a scenario with no plan (or an all-zero-rate plan) is bitwise
//! identical to the plain engine. When faults do fire the engine
//! degrades instead of failing:
//!
//! * a demand-recompute outage re-posts the previous round's prices
//!   ([`paydemand_core::Platform::publish_round_stale`]);
//! * a budget shock tightens the spend cap to the surviving fraction of
//!   the *remaining* budget — settled payments always stand;
//! * dropped uploads cost the user travel but are never paid (their
//!   round profit can go negative — the user could not know);
//! * straggler uploads enter a retry queue with capped exponential
//!   backoff and are settled at the reward current on their delivery
//!   round (zero if the task is withheld then), or abandoned once the
//!   task completes or the retry budget runs out.

use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use paydemand_core::incentive::{
    FixedIncentive, HybridIncentive, IncentiveMechanism, OnDemandIncentive, ProportionalIncentive,
    SteeredIncentive,
};
use paydemand_core::selection::{SelectionOutcome, SelectionProblem, SolveStats};
use paydemand_core::{CoreError, Platform, PublishedTask, TaskId, UserId};
use paydemand_faults::{FaultInjector, RoundFaults, UploadFate};
use paydemand_geo::mobility::RandomWaypoint;
use paydemand_geo::network::RoadNetwork;
use paydemand_geo::{Point, PositionStore, Rect};
use paydemand_obs::{Alerts, AllocPhase, Counter, Gauge, Histogram, Recorder, TimeSeries};
use paydemand_routing::CostMatrix;

use crate::contributions::Contributions;
use crate::trace::{self, TraceEvent, TraceSink};
use crate::{
    metrics, MechanismKind, Scenario, SelectorKind, SimError, TravelModel, UserMotion, Workload,
};

/// Per-run travel-cost context: holds the street network, if any, and
/// builds the selection problem for each user against the scenario's
/// travel model.
#[derive(Debug)]
pub(crate) struct TravelContext {
    model: TravelModel,
    network: Option<RoadNetwork>,
}

impl TravelContext {
    pub(crate) fn euclidean() -> Self {
        TravelContext { model: TravelModel::Euclidean, network: None }
    }

    pub(crate) fn for_scenario(
        scenario: &Scenario,
        area: Rect,
        rng: &mut StdRng,
    ) -> Result<Self, SimError> {
        let network = match scenario.travel {
            TravelModel::StreetGrid { cols, rows, closure } => Some(
                RoadNetwork::degraded_grid(area, cols, rows, closure, rng)
                    .map_err(paydemand_core::CoreError::from)?,
            ),
            _ => None,
        };
        Ok(TravelContext { model: scenario.travel, network })
    }

    /// Travel distance between two points under the model. Errors (an
    /// engine-invariant violation, not a panic) if the street network
    /// was never built for a street-grid model.
    fn distance(&self, a: Point, b: Point) -> Result<f64, SimError> {
        match self.model {
            TravelModel::Euclidean => Ok(a.distance(b)),
            TravelModel::Manhattan => Ok(a.manhattan_distance(b)),
            TravelModel::StreetGrid { .. } => {
                let network = self.network()?;
                Ok(self.network_pair_distance(network, a, b))
            }
        }
    }

    fn network(&self) -> Result<&RoadNetwork, SimError> {
        self.network
            .as_ref()
            .ok_or_else(|| SimError::invariant("street-grid travel model has no built network"))
    }

    fn network_pair_distance(&self, network: &RoadNetwork, a: Point, b: Point) -> f64 {
        network.travel_matrix(&[a, b]).get(0, 1)
    }

    /// Builds a [`SelectionProblem`] whose cost matrix follows the
    /// travel model.
    pub(crate) fn problem(
        &self,
        location: Point,
        tasks: &[paydemand_core::PublishedTask],
        time_budget: f64,
        speed: f64,
        cost_per_meter: f64,
    ) -> Result<SelectionProblem, SimError> {
        match self.model {
            TravelModel::Euclidean => {
                Ok(SelectionProblem::new(location, tasks, time_budget, speed, cost_per_meter)?)
            }
            TravelModel::Manhattan => {
                let start: Vec<f64> =
                    tasks.iter().map(|t| location.manhattan_distance(t.location)).collect();
                let costs = CostMatrix::from_fn(start, |i, j| {
                    tasks[i].location.manhattan_distance(tasks[j].location)
                });
                Ok(SelectionProblem::with_costs(
                    location,
                    tasks,
                    costs,
                    time_budget,
                    speed,
                    cost_per_meter,
                )?)
            }
            TravelModel::StreetGrid { .. } => {
                let network = self.network()?;
                let mut points = Vec::with_capacity(tasks.len() + 1);
                points.push(location);
                points.extend(tasks.iter().map(|t| t.location));
                let tm = network.travel_matrix(&points);
                let start: Vec<f64> = (0..tasks.len()).map(|j| tm.get(0, j + 1)).collect();
                let costs = CostMatrix::from_fn(start, |i, j| tm.get(i + 1, j + 1));
                Ok(SelectionProblem::with_costs(
                    location,
                    tasks,
                    costs,
                    time_budget,
                    speed,
                    cost_per_meter,
                )?)
            }
        }
    }
}

/// An externally-ingested platform event, queued with
/// [`Engine::enqueue_event`] and applied at the next round boundary.
///
/// Events model the online-arrival setting the daemon serves: clients
/// report movement and out-of-band uploads between rounds, and the
/// engine folds them in deterministically — moves take effect *before*
/// the round's demand count and price publication, uploads settle at
/// the freshly published prices, exactly where the retry queue's
/// deliveries do. Applying an empty inbox consumes no RNG and touches
/// no state, so a run that never receives events is bit-identical to
/// one driven by [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExternalEvent {
    /// User `user` reports a new position. Takes effect before the
    /// next round's demand count, so published prices see it.
    Move {
        /// The moving user's id.
        user: u32,
        /// New easting in metres (must lie inside the sensing area).
        x: f64,
        /// New northing in metres (must lie inside the sensing area).
        y: f64,
    },
    /// User `user` delivers a measurement for `task` out of band. It
    /// settles at the reward current on the round it lands in; the
    /// platform's usual rejections (task complete, duplicate, budget
    /// exhausted) silently drop it, mirroring the retry queue.
    Upload {
        /// The contributing user's id.
        user: u32,
        /// The measured task's id.
        task: u32,
        /// The sensed value folded into the task's estimate.
        value: f64,
    },
}

impl ExternalEvent {
    /// Checks the event against a workload of `users` users and `tasks`
    /// tasks in `area`: the ids it names exist, its numbers are finite
    /// and a reported position lies inside the area. The one check
    /// behind [`Engine::enqueue_event`] and a daemon's ingest.
    ///
    /// # Errors
    ///
    /// A message naming the first check the event fails.
    pub fn validate(&self, users: usize, tasks: usize, area: Rect) -> Result<(), String> {
        match *self {
            ExternalEvent::Move { user, x, y } => {
                if user as usize >= users {
                    return Err(format!("unknown user {user} (workload has {users})"));
                }
                if !x.is_finite() || !y.is_finite() {
                    return Err(format!("non-finite coordinate ({x}, {y})"));
                }
                if !area.contains(Point::new(x, y)) {
                    return Err(format!("position ({x}, {y}) lies outside the sensing area"));
                }
            }
            ExternalEvent::Upload { user, task, value } => {
                if user as usize >= users {
                    return Err(format!("unknown user {user} (workload has {users})"));
                }
                if task as usize >= tasks {
                    return Err(format!("unknown task {task} (workload has {tasks})"));
                }
                if !value.is_finite() {
                    return Err(format!("non-finite measurement value {value}"));
                }
            }
        }
        Ok(())
    }
}

/// What one externally-ingested event did when its round boundary
/// consumed it, reported by [`Engine::last_event_outcomes`] in ingest
/// order. Outcomes restate decisions the round made anyway (the same
/// platform verdicts that feed `external_uploads_total` and its
/// rejection counters), so recording them never perturbs the
/// simulation — they exist so a serving layer can join event ids to
/// applied rounds and payments in a lineage index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventOutcome {
    /// A `Move` repositioned its user before demand was counted.
    Moved,
    /// An `Upload` settled; the user was paid this reward.
    Paid(f64),
    /// An `Upload` was dropped: the task had already completed.
    RejectedTaskComplete,
    /// An `Upload` was dropped: the user already counts for the task.
    RejectedDuplicate,
    /// An `Upload` was dropped: the spend cap was exhausted.
    RejectedBudget,
}

impl EventOutcome {
    /// The stable wire label (`moved`, `paid`, `task_complete`,
    /// `duplicate`, `budget`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EventOutcome::Moved => "moved",
            EventOutcome::Paid(_) => "paid",
            EventOutcome::RejectedTaskComplete => "task_complete",
            EventOutcome::RejectedDuplicate => "duplicate",
            EventOutcome::RejectedBudget => "budget",
        }
    }

    /// The reward paid, 0 for everything but [`EventOutcome::Paid`].
    #[must_use]
    pub fn pay(&self) -> f64 {
        match self {
            EventOutcome::Paid(pay) => *pay,
            _ => 0.0,
        }
    }
}

/// A point-in-time view of one task's progress, as served by the
/// daemon's `GET /demand`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskStatus {
    /// The task id.
    pub task: u32,
    /// Measurements received so far (≤ `required`).
    pub received: u32,
    /// Measurements the task demands (the paper's φ).
    pub required: u32,
    /// Round the task completed in, if it has.
    pub completed_round: Option<u32>,
    /// Reward posted in the most recent round; `None` if the task was
    /// not published then (complete or withheld) or no round has run.
    pub reward: Option<f64>,
}

/// Everything recorded about one sensing round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// The 1-based round number.
    pub round: u32,
    /// Published reward per task id; `None` for unpublished (complete)
    /// tasks.
    pub rewards: Vec<Option<f64>>,
    /// New measurements received per task id during this round
    /// (including retried uploads finally delivered this round).
    pub new_measurements: Vec<u32>,
    /// What users earned and selected this round: one entry per user
    /// whose profit bits or selected count is nonzero, in user order.
    /// Every other user earned `+0.0` and selected nothing.
    pub users: Vec<UserRound>,
}

/// One user's entry in a [`RoundRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserRound {
    /// The user id.
    pub user: u32,
    /// Profit earned this round. Under upload faults it can be
    /// negative: the user paid to travel but the upload never arrived
    /// (or arrives, and is paid, in a later round, which then shows a
    /// profit with nothing selected).
    pub profit: f64,
    /// Number of tasks the user selected this round.
    pub selected: u32,
}

impl UserRound {
    /// Folds a round's per-user contributions, given in the order they
    /// were made, into its [`RoundRecord::users`]: each user's profits
    /// are summed from `+0.0` in that order, exactly as a per-user
    /// accumulator would, and all-zero entries are dropped.
    pub(crate) fn fold(mut parts: Vec<UserRound>) -> Vec<UserRound> {
        // Stable: each user's contributions keep their order.
        parts.sort_by_key(|p| p.user);
        let mut users: Vec<UserRound> = Vec::with_capacity(parts.len());
        for p in parts {
            match users.last_mut() {
                Some(u) if u.user == p.user => {
                    u.profit += p.profit;
                    u.selected += p.selected;
                }
                // The accumulator's first step: `0.0 + -0.0` is `+0.0`.
                _ => users.push(UserRound { profit: 0.0 + p.profit, ..p }),
            }
        }
        users.retain(|u| u.profit.to_bits() != 0 || u.selected != 0);
        users
    }
}

/// The complete outcome of one simulation repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// The generated workload (task and user draws).
    pub workload: Workload,
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// Final measurement count per task id (≤ φ_i by construction).
    pub received: Vec<u32>,
    /// Accumulated data value per task id: the sum of contributing
    /// users' sensing qualities (equals `received` under perfect
    /// quality).
    pub quality_received: Vec<f64>,
    /// The platform's streaming estimate of each task's value, built
    /// from the (noisy) measurements it received.
    pub estimates: Vec<crate::sensing::Estimate>,
    /// Round at which each task completed, if it did.
    pub completed_round: Vec<Option<u32>>,
    /// Total rewards the platform paid.
    pub total_paid: f64,
}

impl SimulationResult {
    /// Total measurements received across all tasks and rounds.
    #[must_use]
    pub fn total_measurements(&self) -> u64 {
        self.received.iter().map(|&r| u64::from(r)).sum()
    }

    /// Coverage at the last round; see [`metrics::coverage`].
    #[must_use]
    pub fn coverage(&self) -> f64 {
        metrics::coverage(self)
    }

    /// Overall completeness; see [`metrics::completeness`].
    #[must_use]
    pub fn completeness(&self) -> f64 {
        metrics::completeness(self)
    }

    /// Whether two runs produced the same *observable* outcome —
    /// everything except the scenario that configured them. This is how
    /// the equivalence tests and scaling benches state "the indexing
    /// mode is performance-only": runs under different modes have
    /// unequal scenarios but must be observationally equal.
    #[must_use]
    pub fn observationally_eq(&self, other: &Self) -> bool {
        self.workload == other.workload
            && self.rounds == other.rounds
            && self.received == other.received
            && self.quality_received == other.quality_received
            && self.estimates == other.estimates
            && self.completed_round == other.completed_round
            && self.total_paid.to_bits() == other.total_paid.to_bits()
    }
}

/// Runs one repetition of `scenario` to completion.
///
/// Fully deterministic: the same scenario (including seed and fault
/// plan) always produces the same result.
///
/// # Errors
///
/// * [`SimError::InvalidScenario`] for invalid configuration;
/// * [`SimError::Core`] if the domain layer rejects an operation (e.g.
///   the uncapped exact DP refusing too many candidate tasks).
pub fn run(scenario: &Scenario) -> Result<SimulationResult, SimError> {
    run_recorded(scenario, &Recorder::disabled())
}

/// [`run`], with the engine's phase timings and selector work counters
/// reported to `recorder`. A disabled recorder makes this exactly
/// [`run`]: no clock reads, no storage, and a result byte-identical to
/// the unrecorded run (the determinism test battery enforces this).
///
/// # Errors
///
/// As [`run`].
pub fn run_recorded(
    scenario: &Scenario,
    recorder: &Recorder,
) -> Result<SimulationResult, SimError> {
    let mut engine = Engine::new(scenario, recorder)?;
    engine.run_to_completion()?;
    engine.finish()
}

/// [`run_recorded`], with the decision journal enabled: returns the
/// result *and* the encoded trace ([`trace::decode`] reads it back;
/// [`crate::replay`] verifies it against the result). The traced result
/// is bitwise identical to the untraced one — tracing only observes.
///
/// # Errors
///
/// As [`run`].
pub fn run_traced(
    scenario: &Scenario,
    recorder: &Recorder,
) -> Result<(SimulationResult, bytes::Bytes), SimError> {
    let mut engine = Engine::new(scenario, recorder)?;
    engine.enable_trace();
    engine.run_to_completion()?;
    let journal =
        engine.take_trace().ok_or_else(|| SimError::invariant("trace sink vanished mid-run"))?;
    Ok((engine.finish()?, journal))
}

/// The engine's instrument handles, resolved once per run so the round
/// loop only touches cheap `Arc` clones (or inert no-ops when the
/// recorder is disabled).
pub(crate) struct EngineInstruments {
    pub(crate) runs_total: Counter,
    rounds_total: Counter,
    round_seconds: Histogram,
    phase_selection: Histogram,
    phase_settlement: Histogram,
    phase_movement: Histogram,
    solves_total: Counter,
    solve_seconds: Histogram,
    states_expanded: Counter,
    nodes_pruned: Counter,
    iterations: Counter,
    /// Live-telemetry hook, present only when a time series or alert
    /// evaluator is attached to the recorder — so plain metrics runs
    /// register no extra gauge families and telemetry-off runs skip the
    /// round-boundary snapshot entirely.
    telemetry: Option<RoundTelemetry>,
}

/// Round-boundary telemetry resolved once per run: the attached sinks
/// plus the gauges only meaningful when someone is watching per-round.
pub(crate) struct RoundTelemetry {
    timeseries: TimeSeries,
    alerts: Alerts,
    budget_spent_permille: Gauge,
    retry_queue_depth: Gauge,
}

impl RoundTelemetry {
    fn resolve(recorder: &Recorder) -> Option<Self> {
        let timeseries = recorder.timeseries();
        let alerts = recorder.alerts();
        (timeseries.is_enabled() || alerts.is_enabled()).then(|| RoundTelemetry {
            timeseries,
            alerts,
            budget_spent_permille: recorder.gauge("engine_budget_spent_permille"),
            retry_queue_depth: recorder.gauge("engine_retry_queue_depth"),
        })
    }
}

impl EngineInstruments {
    pub(crate) fn new(recorder: &Recorder, selector: &str) -> Self {
        EngineInstruments {
            runs_total: recorder.counter("engine_runs_total"),
            rounds_total: recorder.counter("engine_rounds_total"),
            round_seconds: recorder.histogram("engine_round_seconds"),
            phase_selection: recorder.histogram_with("round_phase_seconds", "phase", "selection"),
            phase_settlement: recorder.histogram_with("round_phase_seconds", "phase", "settlement"),
            phase_movement: recorder.histogram_with("round_phase_seconds", "phase", "movement"),
            solves_total: recorder.counter_with("selector_solves_total", "selector", selector),
            solve_seconds: recorder.histogram_with("selector_solve_seconds", "selector", selector),
            states_expanded: recorder.counter_with(
                "selector_states_expanded_total",
                "selector",
                selector,
            ),
            nodes_pruned: recorder.counter_with(
                "selector_nodes_pruned_total",
                "selector",
                selector,
            ),
            iterations: recorder.counter_with("selector_iterations_total", "selector", selector),
            telemetry: RoundTelemetry::resolve(recorder),
        }
    }
}

/// A measurement sensed but not yet delivered: it sits in the retry
/// queue until its delivery round comes up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingUpload {
    /// The sensing user's index.
    pub(crate) user: usize,
    /// The task measured.
    pub(crate) task: TaskId,
    /// The sensed value (drawn from the fault stream at sensing time so
    /// the main stream stays untouched).
    pub(crate) value: f64,
    /// Redelivery attempts made so far (0 = first delivery pending).
    pub(crate) attempts: u32,
    /// Round at whose start delivery is next attempted.
    pub(crate) due_round: u32,
}

/// One round in flight: what its phases hand each other, from the
/// inbox to the round's record.
struct RoundState {
    /// The 1-based round number.
    round: u32,
    /// The inbox's uploads as `(ingest slot, user, task, value)`,
    /// settled once the round's prices are posted.
    uploads: Vec<(usize, usize, TaskId, f64)>,
    /// Each inbox event's outcome, in ingest order, filled as it
    /// resolves.
    outcomes: Vec<Option<EventOutcome>>,
    /// The tasks posted this round.
    published: Vec<PublishedTask>,
    /// Posted reward per task id; `None` for unposted tasks.
    rewards: Vec<Option<f64>>,
    /// Measurements landed per task id this round.
    new_measurements: Vec<u32>,
    /// Every profit and selection of the round, as it happens; folded
    /// into the record's sparse per-user entries at the end.
    user_parts: Vec<UserRound>,
}

/// Nanoseconds since `start`, saturating.
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A resumable instance of the round loop.
///
/// Where [`run`] executes a scenario in one call, an `Engine` steps one
/// round at a time ([`Engine::step_round`]), can serialise its complete
/// state at any round boundary ([`Engine::checkpoint`]) and be rebuilt
/// from those bytes ([`Engine::resume`]) such that the resumed run is
/// byte-identical to the uninterrupted one. If the scenario carries a
/// [`FaultPlan`](paydemand_faults::FaultPlan), the engine injects those
/// faults deterministically from the plan's own RNG stream.
///
/// # Examples
///
/// ```
/// use paydemand_sim::{Engine, Scenario, SelectorKind};
/// use paydemand_obs::Recorder;
///
/// let scenario = Scenario::paper_default()
///     .with_users(15)
///     .with_tasks(5)
///     .with_max_rounds(4)
///     .with_selector(SelectorKind::Greedy);
/// let mut engine = Engine::new(&scenario, &Recorder::disabled())?;
/// while engine.step_round()? {}
/// let result = engine.finish()?;
/// assert_eq!(result.rounds.len(), 4);
/// # Ok::<(), paydemand_sim::SimError>(())
/// ```
pub struct Engine {
    pub(crate) scenario: Scenario,
    /// The checkpoint's fingerprint of `scenario`, taken at the first
    /// checkpoint (or verified at resume) and kept, like
    /// `workload_hash`.
    pub(crate) scenario_fingerprint: OnceLock<u64>,
    pub(crate) workload: Workload,
    /// The checkpoint's hash of `workload`, taken at the first
    /// checkpoint (or verified at resume) and kept: the workload never
    /// changes.
    pub(crate) workload_hash: OnceLock<u64>,
    /// The main RNG stream (workload tail + round loop draws).
    pub(crate) rng: StdRng,
    /// Main-stream state captured *before* the travel context consumed
    /// it, so resume can rebuild the identical street network.
    pub(crate) travel_rng_state: [u64; 4],
    pub(crate) travel: TravelContext,
    pub(crate) platform: Platform<Box<dyn IncentiveMechanism>>,
    pub(crate) locations: PositionStore,
    /// Per user, the tasks they have contributed to, ascending.
    pub(crate) contributed: Contributions,
    pub(crate) quality_received: Vec<f64>,
    pub(crate) estimates: Vec<crate::sensing::Estimate>,
    pub(crate) wander: Vec<RandomWaypoint>,
    pub(crate) rounds: Vec<RoundRecord>,
    /// The next round to run, 1-based.
    pub(crate) next_round: u32,
    pub(crate) done: bool,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) pending: Vec<PendingUpload>,
    /// Externally-ingested events awaiting the next round boundary.
    /// Deliberately *not* checkpointed: [`Engine::checkpoint`] refuses
    /// while the inbox is non-empty, so durability of undelivered
    /// events stays the caller's job (the daemon keeps them in its
    /// write-ahead log until the round that consumed them is
    /// checkpointed).
    pub(crate) inbox: Vec<ExternalEvent>,
    /// Per-event outcomes of the most recent round's inbox, in ingest
    /// order — the lineage join point. Observational only (filled from
    /// decisions the round made anyway, never consulted), so recording
    /// them cannot perturb simulation output. Not checkpointed: the
    /// daemon persists them into its lineage index right after the
    /// round that produced them.
    pub(crate) last_outcomes: Vec<EventOutcome>,
    pub(crate) recorder: Recorder,
    pub(crate) metrics_on: bool,
    pub(crate) instruments: EngineInstruments,
    /// Decision journal hook; the disabled default is a true no-op (no
    /// allocation, no RNG, no clock), so untraced runs are untouched.
    pub(crate) trace: TraceSink,
    /// The participation order's buffer, refilled and shuffled each
    /// round. Scratch, not state: never checkpointed.
    pub(crate) order: Vec<u32>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("next_round", &self.next_round)
            .field("done", &self.done)
            .field("rounds_run", &self.rounds.len())
            .field("pending_uploads", &self.pending.len())
            .field("faulted", &self.injector.is_some())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Validates `scenario`, generates its workload and prepares the
    /// first round.
    ///
    /// # Errors
    ///
    /// As [`run`].
    pub fn new(scenario: &Scenario, recorder: &Recorder) -> Result<Self, SimError> {
        scenario.validate()?;
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let workload = Workload::generate(scenario, &mut rng)?;
        Engine::with_workload(scenario, workload, rng, recorder)
    }

    /// An engine over an already-generated workload and an RNG already
    /// advanced past workload generation.
    pub(crate) fn with_workload(
        scenario: &Scenario,
        workload: Workload,
        mut rng: StdRng,
        recorder: &Recorder,
    ) -> Result<Self, SimError> {
        let mechanism = build_mechanism(scenario)?;
        let mut platform = Platform::new(
            workload.tasks.clone(),
            mechanism,
            workload.area,
            scenario.neighbor_radius,
        )?;
        if scenario.enforce_budget {
            platform.set_spend_cap(scenario.reward_budget)?;
        }
        platform.set_publish_expired(scenario.publish_expired);
        platform.set_indexing_mode(scenario.indexing);
        platform.set_recorder(recorder);
        let travel_rng_state = rng.to_state();
        let travel = TravelContext::for_scenario(scenario, workload.area, &mut rng)?;
        let metrics_on = recorder.is_enabled();
        let instruments = EngineInstruments::new(recorder, scenario.selector.label());
        instruments.runs_total.inc();
        let injector = match &scenario.faults {
            Some(plan) if !plan.is_empty() => Some(
                FaultInjector::new(plan, scenario.seed, workload.homes.len(), recorder).map_err(
                    |e| SimError::InvalidScenario { field: "faults", message: e.to_string() },
                )?,
            ),
            _ => None,
        };

        let n = workload.homes.len();
        let m = workload.tasks.len();
        let locations = PositionStore::from_points(&workload.homes);
        let wander: Vec<RandomWaypoint> = match scenario.user_motion {
            UserMotion::Wander { .. } => vec![RandomWaypoint::new(); n],
            _ => Vec::new(),
        };

        Ok(Engine {
            scenario: scenario.clone(),
            scenario_fingerprint: OnceLock::new(),
            workload,
            workload_hash: OnceLock::new(),
            rng,
            travel_rng_state,
            travel,
            platform,
            locations,
            contributed: Contributions::new(n),
            quality_received: vec![0.0f64; m],
            estimates: vec![crate::sensing::Estimate::default(); m],
            wander,
            rounds: Vec::with_capacity(scenario.max_rounds as usize),
            next_round: 1,
            done: false,
            injector,
            pending: Vec::new(),
            inbox: Vec::new(),
            last_outcomes: Vec::new(),
            recorder: recorder.clone(),
            metrics_on,
            instruments,
            trace: TraceSink::disabled(),
            order: Vec::new(),
        })
    }

    /// Switches on the decision journal: every subsequent round emits
    /// demand breakdowns, selection decisions, payments, budget
    /// trajectory and fault events into an in-memory trace, collected
    /// by [`Engine::take_trace`]. Tracing observes the round loop
    /// without touching its RNG streams, so a traced run's results stay
    /// bitwise identical to an untraced one.
    pub fn enable_trace(&mut self) {
        self.trace = TraceSink::journal();
        self.platform.set_keep_context(true);
    }

    /// Finalises and returns the journal bytes accumulated since
    /// [`Engine::enable_trace`], leaving tracing disabled. `None` if
    /// tracing was never enabled. Reports `trace_frames_total` /
    /// `trace_bytes_total` through the recorder.
    pub fn take_trace(&mut self) -> Option<bytes::Bytes> {
        let sink = std::mem::replace(&mut self.trace, TraceSink::disabled());
        if !sink.is_enabled() {
            return None;
        }
        self.platform.set_keep_context(false);
        let frames = sink.frames();
        let bytes = sink.finish()?;
        self.recorder.counter("trace_frames_total").add(frames as u64);
        self.recorder.counter("trace_bytes_total").add(bytes.len() as u64);
        Some(bytes)
    }

    /// Whether the run is over (max rounds reached, or complete under
    /// `stop_when_complete`).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.done || self.next_round > self.scenario.max_rounds
    }

    /// The next round [`Engine::step_round`] would run, 1-based.
    #[must_use]
    pub fn next_round(&self) -> u32 {
        self.next_round
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds_run(&self) -> usize {
        self.rounds.len()
    }

    /// The scenario this engine runs.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The sensing area tasks and users live in.
    #[must_use]
    pub fn area(&self) -> Rect {
        self.workload.area
    }

    /// Number of users in the generated workload.
    #[must_use]
    pub fn num_users(&self) -> usize {
        self.workload.homes.len()
    }

    /// Number of tasks in the generated workload.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.workload.tasks.len()
    }

    /// The most recently completed round's record, if any round ran.
    #[must_use]
    pub fn last_round(&self) -> Option<&RoundRecord> {
        self.rounds.last()
    }

    /// Total rewards the platform has paid so far.
    #[must_use]
    pub fn total_paid(&self) -> f64 {
        self.platform.total_paid()
    }

    /// The platform's spend cap, if budget enforcement is on.
    #[must_use]
    pub fn spend_cap(&self) -> Option<f64> {
        self.platform.spend_cap()
    }

    /// Straggler uploads waiting in the fault-retry queue.
    #[must_use]
    pub fn pending_retries(&self) -> usize {
        self.pending.len()
    }

    /// Externally-ingested events queued for the next round boundary.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.inbox.len()
    }

    /// Outcomes of the external events the most recent
    /// [`step_round`](Engine::step_round) consumed, in ingest order
    /// (empty when that round's inbox was empty). The serving layer
    /// reads this right after stepping to join event ids to rounds,
    /// payments and rejections in its lineage index.
    #[must_use]
    pub fn last_event_outcomes(&self) -> &[EventOutcome] {
        &self.last_outcomes
    }

    /// Every task's current progress (received/required counts,
    /// completion round, last posted reward).
    ///
    /// # Errors
    ///
    /// [`SimError::EngineInvariant`] if the platform has lost track of
    /// a workload task (cannot happen short of an internal bug).
    pub fn task_statuses(&self) -> Result<Vec<TaskStatus>, SimError> {
        let m = self.workload.tasks.len();
        let last = self.rounds.last();
        let mut statuses = Vec::with_capacity(m);
        for i in 0..m {
            let gone = |_| SimError::invariant(format!("task {i} vanished from platform"));
            statuses.push(TaskStatus {
                task: i as u32,
                received: self.platform.received(TaskId(i)).map_err(gone)?,
                required: self.workload.tasks[i].required(),
                completed_round: self.platform.completed_round(TaskId(i)).map_err(gone)?,
                reward: last.and_then(|r| r.rewards[i]),
            });
        }
        Ok(statuses)
    }

    /// Queues an externally-ingested event for the next round boundary;
    /// see [`ExternalEvent`] for when each kind takes effect. Validation
    /// happens here — at ingest, not mid-round — so a daemon can reject
    /// a bad request with a typed error while the round loop itself
    /// never sees malformed input.
    ///
    /// # Errors
    ///
    /// [`SimError::Event`] for an unknown user or task id, a non-finite
    /// or out-of-area coordinate, a non-finite measurement value, or a
    /// run that has already finished.
    pub fn enqueue_event(&mut self, event: ExternalEvent) -> Result<(), SimError> {
        if self.is_finished() {
            return Err(SimError::event("run is finished; no further round will apply events"));
        }
        event
            .validate(self.workload.homes.len(), self.workload.tasks.len(), self.workload.area)
            .map_err(SimError::event)?;
        self.inbox.push(event);
        Ok(())
    }

    /// Runs every remaining round.
    ///
    /// # Errors
    ///
    /// As [`run`].
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        while self.step_round()? {}
        Ok(())
    }

    /// Executes one sensing round. Returns `false` (without running
    /// anything) once the run is finished.
    ///
    /// A round is the paper's Fig. 1 protocol in phases: the inbox
    /// lands, prices are posted, the inbox's uploads and the due
    /// retries settle, users participate, the round closes and users
    /// move. Every accepted measurement lands through one settlement
    /// path ([`Engine::settle`]).
    ///
    /// # Errors
    ///
    /// As [`run`], plus [`SimError::EngineInvariant`] if internal
    /// bookkeeping is violated (instead of the panics the one-shot
    /// engine used to raise).
    pub fn step_round(&mut self) -> Result<bool, SimError> {
        if self.is_finished() {
            self.done = true;
            return Ok(false);
        }
        let round = self.next_round;
        let round_span = self.recorder.scoped("round", &self.instruments.round_seconds);
        self.trace.record(TraceEvent::RoundStart { round });
        let mut rs = self.apply_inbox(round);
        self.price(&mut rs)?;
        self.settle_external_uploads(&mut rs)?;
        self.process_retries(&mut rs)?;
        self.participate(&mut rs)?;
        self.close_round(&mut rs);
        self.move_users();
        drop(round_span);
        self.instruments.rounds_total.inc();
        self.sample_round_memory();
        self.observe_round_telemetry(round);

        self.next_round += 1;
        if self.next_round > self.scenario.max_rounds
            || (self.scenario.stop_when_complete && self.platform.all_complete())
        {
            self.done = true;
        }
        Ok(true)
    }

    /// Lands the inbox at the round boundary: moves take effect now,
    /// before demand is counted, so the posted prices see them; uploads
    /// wait for those prices and settle right where the retry queue's
    /// deliveries do. Each event's outcome slot is filled as it
    /// resolves, keeping ingest order. An empty inbox is a no-op (no
    /// RNG, no state).
    fn apply_inbox(&mut self, round: u32) -> RoundState {
        self.last_outcomes.clear();
        let inbox = std::mem::take(&mut self.inbox);
        let mut outcomes = vec![None; inbox.len()];
        let mut uploads = Vec::with_capacity(inbox.len());
        for (idx, event) in inbox.into_iter().enumerate() {
            match event {
                ExternalEvent::Move { user, x, y } => {
                    self.locations.set(user as usize, Point::new(x, y));
                    outcomes[idx] = Some(EventOutcome::Moved);
                }
                ExternalEvent::Upload { user, task, value } => {
                    uploads.push((idx, user as usize, TaskId(task as usize), value));
                }
            }
        }
        RoundState {
            round,
            uploads,
            outcomes,
            published: Vec::new(),
            rewards: Vec::new(),
            new_measurements: Vec::new(),
            user_parts: Vec::new(),
        }
    }

    /// Posts the round's prices. The fault plan's round draws come
    /// first: a demand outage re-posts the previous prices, a budget
    /// shock tightens the cap to a fraction of what is left. The
    /// mechanism then prices against the users' positions (as the
    /// platform sees them under GPS noise).
    fn price(&mut self, rs: &mut RoundState) -> Result<(), SimError> {
        let faults = match self.injector.as_mut() {
            Some(inj) => inj.begin_round(rs.round),
            None => RoundFaults { stale_pricing: false, budget_shock: None },
        };
        if faults.stale_pricing {
            self.trace_fault(rs.round, trace::FAULT_STALE_PRICING, u32::MAX, u32::MAX, 0.0);
        }
        if let Some(factor) = faults.budget_shock {
            self.trace_fault(rs.round, trace::FAULT_BUDGET_SHOCK, u32::MAX, u32::MAX, factor);
            // The shock scales what is *left*: for an uncapped run the
            // configured budget minus spend stands in for "remaining".
            let paid = self.platform.total_paid();
            let remaining = if self.platform.remaining_budget().is_finite() {
                self.platform.remaining_budget()
            } else {
                (self.scenario.reward_budget - paid).max(0.0)
            };
            self.platform.set_spend_cap(paid + remaining * factor)?;
        }
        rs.published = match (self.injector.as_mut(), faults.stale_pricing) {
            (_, true) => self.platform.publish_round_stale()?,
            (Some(inj), false) if inj.has_gps_noise() => {
                let area = self.workload.area;
                let observed: Vec<Point> =
                    self.locations.iter().map(|p| inj.noised_location(p, area)).collect();
                self.platform.publish_round(&observed, &mut self.rng)?
            }
            _ => self.platform.publish_round(&self.locations, &mut self.rng)?,
        };
        let m = self.workload.tasks.len();
        rs.rewards = vec![None; m];
        for t in &rs.published {
            rs.rewards[t.id.0] = Some(t.reward);
        }
        if self.trace.is_enabled() {
            self.journal_prices(rs, faults.stale_pricing);
        }
        rs.new_measurements = vec![0; m];
        Ok(())
    }

    /// Journals the posted prices and why: a `Publish` frame per posted
    /// task, then a `TaskDemand` frame per *priced* task, withheld ones
    /// included (their posted reward is 0), so the journal shows both
    /// what was published and what the cap suppressed. A stale round
    /// re-posts prices without recomputing demand: there are no
    /// criterion values to explain.
    fn journal_prices(&mut self, rs: &RoundState, stale: bool) {
        let _trace_tag = self.recorder.alloc_phase(AllocPhase::Trace);
        for t in &rs.published {
            self.trace.record(TraceEvent::Publish { task: t.id.0 as u32, reward: t.reward });
        }
        if stale {
            for t in &rs.published {
                self.trace.record(TraceEvent::TaskDemand {
                    task: t.id.0 as u32,
                    deadline_criterion: 0.0,
                    progress_criterion: 0.0,
                    scarcity_criterion: 0.0,
                    score: 0.0,
                    level: 0,
                    reward: t.reward,
                    stale: true,
                });
            }
        } else if let Some(explained) = self.platform.explain_last_round() {
            for (progress, b) in explained {
                self.trace.record(TraceEvent::TaskDemand {
                    task: progress.id.0 as u32,
                    deadline_criterion: b.deadline_criterion,
                    progress_criterion: b.progress_criterion,
                    scarcity_criterion: b.scarcity_criterion,
                    score: b.score,
                    level: b.level,
                    reward: rs.rewards[progress.id.0].unwrap_or(0.0),
                    stale: false,
                });
            }
        }
    }

    /// Settles the inbox's uploads at the prices just posted and
    /// publishes every inbox event's outcome. A platform refusal — the
    /// task filled meanwhile, the user already counts, the budget ran
    /// dry — drops the event deterministically (counted, never an
    /// error), mirroring the retry queue's abandonment; anything else
    /// is a real failure and propagates.
    fn settle_external_uploads(&mut self, rs: &mut RoundState) -> Result<(), SimError> {
        for (idx, user, task, value) in std::mem::take(&mut rs.uploads) {
            let outcome = match self.settle(rs, user, task, Some(value)) {
                Ok(pay) => {
                    self.contributed.note(user, task);
                    rs.user_parts.push(UserRound { user: user as u32, profit: pay, selected: 0 });
                    self.recorder.counter("external_uploads_total").inc();
                    EventOutcome::Paid(pay)
                }
                Err(CoreError::TaskComplete(_)) => EventOutcome::RejectedTaskComplete,
                Err(CoreError::DuplicateContribution { .. }) => EventOutcome::RejectedDuplicate,
                Err(CoreError::BudgetExhausted { .. }) => EventOutcome::RejectedBudget,
                Err(e) => return Err(e.into()),
            };
            if !matches!(outcome, EventOutcome::Paid(_)) {
                self.recorder
                    .counter_with("external_uploads_rejected_total", "reason", outcome.label())
                    .inc();
            }
            rs.outcomes[idx] = Some(outcome);
        }
        self.last_outcomes = std::mem::take(&mut rs.outcomes)
            .into_iter()
            .map(|o| o.ok_or_else(|| SimError::invariant("inbox event resolved no outcome")))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Attempts delivery of the due queued uploads, right after the
    /// round's prices are posted so retried measurements settle at
    /// current prices.
    fn process_retries(&mut self, rs: &mut RoundState) -> Result<(), SimError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        // Queue churn (requeues, the swap vector) is retry-queue
        // memory; the tag covers exactly the queue operations so the
        // platform's own allocations keep their settlement accounting.
        let mut queued = std::mem::take(&mut self.pending);
        for mut up in queued.drain(..) {
            if up.due_round > rs.round {
                let _queue_tag = self.recorder.alloc_phase(AllocPhase::RetryQueue);
                self.pending.push(up);
                continue;
            }
            match self.settle(rs, up.user, up.task, Some(up.value)) {
                Ok(pay) => {
                    rs.user_parts.push(UserRound {
                        user: up.user as u32,
                        profit: pay,
                        selected: 0,
                    });
                    if let Some(inj) = self.injector.as_mut() {
                        inj.count_retry_delivered();
                    }
                }
                // The task filled up (or this user somehow already
                // counts) while the upload was in flight: abandon it.
                Err(CoreError::TaskComplete(_) | CoreError::DuplicateContribution { .. }) => {
                    if let Some(inj) = self.injector.as_mut() {
                        inj.count_retry_abandoned();
                    }
                }
                // No budget right now: back off and try again, up to
                // the plan's retry cap.
                Err(CoreError::BudgetExhausted { .. }) => {
                    up.attempts += 1;
                    let backoff =
                        self.injector.as_mut().and_then(|inj| inj.retry_backoff(up.attempts));
                    if let Some(delay) = backoff {
                        up.due_round = rs.round.saturating_add(delay);
                        let _queue_tag = self.recorder.alloc_phase(AllocPhase::RetryQueue);
                        self.pending.push(up);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Release the drained swap vector under the queue's tag.
        let _queue_tag = self.recorder.alloc_phase(AllocPhase::RetryQueue);
        drop(queued);
        Ok(())
    }

    /// Users, visited in a fresh random order, each solve their
    /// selection against the tasks still open to them, travel and
    /// upload. The selection phase spans who takes part and in which
    /// order (the shuffle and dropout draws are O(n) per round), each
    /// participant's open tasks and their solve — the loop's wall less
    /// the settlement time accumulated inside it, since settlement
    /// interleaves with selection per user.
    fn participate(&mut self, rs: &mut RoundState) -> Result<(), SimError> {
        let participation_start = self.metrics_on.then(Instant::now);
        let mut settlement_ns = 0u64;
        // The vendored `shuffle` draws `0..=i` whatever the element
        // type: `u32` indices get the permutation `usize` ones would.
        let n = self.workload.homes.len();
        self.order.clear();
        self.order.extend((0..n).map(|ui| ui as u32));
        self.order.shuffle(&mut self.rng);
        for k in 0..n {
            let ui = self.order[k] as usize;
            if self.sits_out(rs.round, ui) {
                continue;
            }
            let available = self.open_tasks(&rs.published, ui)?;
            if available.is_empty() {
                continue;
            }
            let outcome = self.select(ui, &available)?;
            let settle_start = self.metrics_on.then(Instant::now);
            let settlement_tag = self.recorder.alloc_phase(AllocPhase::Settlement);
            self.upload_route(rs, ui, &outcome)?;
            drop(settlement_tag);
            if let Some(start) = settle_start {
                settlement_ns = settlement_ns.saturating_add(nanos_since(start));
            }
        }
        let selection_ns =
            participation_start.map_or(0, |start| nanos_since(start).saturating_sub(settlement_ns));
        self.instruments.phase_selection.record(selection_ns);
        self.instruments.phase_settlement.record(settlement_ns);
        Ok(())
    }

    /// Whether user `ui` sits the round out. Scenario-level churn draws
    /// from the main stream, exactly as the plain engine does;
    /// fault-level churn rides the fault stream.
    fn sits_out(&mut self, round: u32, ui: usize) -> bool {
        if self.scenario.dropout_rate > 0.0 && self.rng.gen::<f64>() < self.scenario.dropout_rate {
            return true;
        }
        let offline = self.injector.as_mut().is_some_and(|inj| inj.user_offline(ui));
        if offline {
            self.trace_fault(round, trace::FAULT_USER_OFFLINE, ui as u32, u32::MAX, 0.0);
        }
        offline
    }

    /// The posted tasks still open to user `ui`: incomplete right now
    /// and never contributed by them before.
    fn open_tasks(
        &self,
        published: &[PublishedTask],
        ui: usize,
    ) -> Result<Vec<PublishedTask>, SimError> {
        let mut available = Vec::with_capacity(published.len());
        let contributed = self.contributed.of(ui);
        for t in published {
            if contributed.binary_search(&t.id).is_ok() {
                continue;
            }
            let received = self.platform.received(t.id).map_err(|_| {
                SimError::invariant(format!("published task {} is unknown to the platform", t.id.0))
            })?;
            if received < self.workload.tasks[t.id.0].required() {
                available.push(*t);
            }
        }
        Ok(available)
    }

    /// Solves user `ui`'s selection over `available`, timed into the
    /// selector's instruments and journalled as a `Selection` frame.
    fn select(
        &mut self,
        ui: usize,
        available: &[PublishedTask],
    ) -> Result<SelectionOutcome, SimError> {
        let solve_start = self.metrics_on.then(Instant::now);
        let selection_tag = self.recorder.alloc_phase(AllocPhase::Selection);
        let (outcome, stats) = solve_selection(
            self.scenario.selector,
            &self.travel,
            self.locations.point(ui),
            available,
            self.workload.time_budgets[ui],
            self.scenario.speed,
            self.scenario.cost_per_meter,
            self.scenario.sensing_seconds,
        )?;
        if let Some(start) = solve_start {
            self.instruments.solve_seconds.record(nanos_since(start));
            self.instruments.solves_total.inc();
            self.instruments.states_expanded.add(stats.states_expanded);
            self.instruments.nodes_pruned.add(stats.nodes_pruned);
            self.instruments.iterations.add(stats.iterations);
        }
        drop(selection_tag);
        if self.trace.is_enabled() {
            let _trace_tag = self.recorder.alloc_phase(AllocPhase::Trace);
            self.trace.record(TraceEvent::Selection {
                user: ui as u32,
                solver: solver_code(self.scenario.selector),
                candidates: available.len() as u32,
                route: outcome.tasks().iter().map(|t| t.0 as u32).collect(),
                profit: outcome.profit(),
                states_expanded: stats.states_expanded,
                nodes_pruned: stats.nodes_pruned,
                iterations: stats.iterations,
            });
        }
        Ok(outcome)
    }

    /// User `ui` travels their route and uploads at each stop: the
    /// fault plan decides whether each upload lands, is lost (the user
    /// travelled and sensed; the platform never hears about it) or
    /// enters the retry queue. A hard-capped platform may run out of
    /// budget mid-route; the user stops there, keeping what was
    /// already earned. A route cut short or faulted is paid for what
    /// it delivered against the travel it cost.
    fn upload_route(
        &mut self,
        rs: &mut RoundState,
        ui: usize,
        outcome: &SelectionOutcome,
    ) -> Result<(), SimError> {
        let mut payments = 0.0;
        let mut performed = 0usize;
        let mut faulted = false;
        for &task in outcome.tasks() {
            let fate = match self.injector.as_mut() {
                Some(inj) => inj.upload_fate(),
                None => UploadFate::Delivered,
            };
            match fate {
                UploadFate::Delivered => match self.settle(rs, ui, task, None) {
                    Ok(pay) => payments += pay,
                    Err(CoreError::BudgetExhausted { .. }) => break,
                    Err(e) => return Err(e.into()),
                },
                UploadFate::Dropped => {
                    let kind = trace::FAULT_UPLOAD_DROPPED;
                    self.trace_fault(rs.round, kind, ui as u32, task.0 as u32, 0.0);
                    faulted = true;
                }
                UploadFate::Delayed { due_in } => {
                    let kind = trace::FAULT_UPLOAD_DELAYED;
                    self.trace_fault(rs.round, kind, ui as u32, task.0 as u32, f64::from(due_in));
                    let Some(inj) = self.injector.as_mut() else {
                        return Err(SimError::invariant(
                            "delayed upload fate without a fault injector",
                        ));
                    };
                    let value = self.scenario.sensing.sample_measurement(
                        self.workload.truths[task.0],
                        self.workload.qualities[ui],
                        inj.rng(),
                    );
                    let _queue_tag = self.recorder.alloc_phase(AllocPhase::RetryQueue);
                    let due_round = rs.round.saturating_add(due_in);
                    self.pending.push(PendingUpload {
                        user: ui,
                        task,
                        value,
                        attempts: 0,
                        due_round,
                    });
                    faulted = true;
                }
            }
            self.contributed.note(ui, task);
            performed += 1;
        }
        let profit = if performed == outcome.tasks().len() && !faulted {
            self.locations.set(ui, outcome.end_location());
            outcome.profit()
        } else {
            // Recompute the visited prefix's economics: travelled cost
            // against whatever was actually paid.
            let mut distance = 0.0;
            let mut here = self.locations.point(ui);
            for &task in &outcome.tasks()[..performed] {
                let next =
                    rs.published.iter().find(|t| t.id == task).map(|t| t.location).ok_or_else(
                        || {
                            SimError::invariant(format!(
                                "selected task {} was not published this round",
                                task.0
                            ))
                        },
                    )?;
                distance += self.travel.distance(here, next)?;
                here = next;
            }
            self.locations.set(ui, here);
            payments - self.scenario.cost_per_meter * distance
        };
        rs.user_parts.push(UserRound { user: ui as u32, profit, selected: performed as u32 });
        Ok(())
    }

    /// Lands one measurement: the platform's submit and, once it
    /// accepts, the `Submit` frame and the task's count, data value and
    /// estimate. Every measurement lands here — a selected route's
    /// upload, an external `Upload` and a due straggler retry — and a
    /// refusal changes nothing, leaving each caller its own answer: the
    /// route stops, the event gets an outcome, the retry backs off or
    /// is abandoned. `value` is the sensed value; `None` senses it now
    /// from the main stream, as a route's upload does.
    fn settle(
        &mut self,
        rs: &mut RoundState,
        user: usize,
        task: TaskId,
        value: Option<f64>,
    ) -> Result<f64, CoreError> {
        let pay = self.platform.submit(UserId(user), task)?;
        self.trace.record(TraceEvent::Submit {
            user: user as u32,
            task: task.0 as u32,
            reward: pay,
        });
        rs.new_measurements[task.0] += 1;
        let quality = self.workload.qualities[user];
        self.quality_received[task.0] += quality;
        let value = value.unwrap_or_else(|| {
            self.scenario.sensing.sample_measurement(
                self.workload.truths[task.0],
                quality,
                &mut self.rng,
            )
        });
        self.estimates[task.0].add(value);
        Ok(pay)
    }

    /// Journals a fault the round degraded through; `u32::MAX` marks a
    /// user or task the fault does not name.
    fn trace_fault(&mut self, round: u32, kind: u8, user: u32, task: u32, detail: f64) {
        self.trace.record(TraceEvent::Fault { round, kind, user, task, detail });
    }

    /// Closes the round: the platform closes its books, the journal
    /// gets the round's completions and budget, and the round's record
    /// is kept.
    fn close_round(&mut self, rs: &mut RoundState) {
        self.platform.finish_round();
        if self.trace.is_enabled() {
            let _trace_tag = self.recorder.alloc_phase(AllocPhase::Trace);
            for task in 0..self.workload.tasks.len() {
                if self.platform.completed_round(TaskId(task)) == Ok(Some(rs.round)) {
                    let (task, round) = (task as u32, rs.round);
                    self.trace.record(TraceEvent::TaskComplete { task, round });
                }
            }
            self.trace.record(TraceEvent::Budget {
                round: rs.round,
                total_paid: self.platform.total_paid(),
                spend_cap: self.platform.spend_cap(),
            });
            self.trace.record(TraceEvent::RoundEnd { round: rs.round });
        }
        self.rounds.push(RoundRecord {
            round: rs.round,
            rewards: std::mem::take(&mut rs.rewards),
            new_measurements: std::mem::take(&mut rs.new_measurements),
            users: UserRound::fold(std::mem::take(&mut rs.user_parts)),
        });
    }

    /// Inter-round motion, per the scenario's [`UserMotion`].
    fn move_users(&mut self) {
        let _movement_span = self.recorder.scoped("movement", &self.instruments.phase_movement);
        match self.scenario.user_motion {
            UserMotion::StayAtRouteEnd => {}
            UserMotion::ReturnHome => {
                for (i, home) in self.workload.homes.iter().enumerate() {
                    self.locations.set(i, *home);
                }
            }
            UserMotion::Teleport => {
                for i in 0..self.locations.len() {
                    let p = self.workload.area.sample_uniform(&mut self.rng);
                    self.locations.set(i, p);
                }
            }
            UserMotion::Wander { seconds } => {
                let (area, speed) = (self.workload.area, self.scenario.speed);
                for (i, walker) in self.wander.iter_mut().enumerate() {
                    let here = self.locations.point(i);
                    let next = walker.advance(here, area, speed, seconds, &mut self.rng);
                    self.locations.set(i, next);
                }
            }
        }
    }

    /// Publishes the round's memory families when alloc profiling is
    /// on: structural byte accounting from the platform, then the
    /// allocator's per-phase deltas via [`Recorder::sample_alloc`].
    /// Runs before the telemetry snapshot so the time series (and the
    /// alert rules) see this round's memory state. A no-op — no gauge
    /// writes, no allocator reads — when profiling is off.
    fn sample_round_memory(&mut self) {
        if !self.recorder.alloc_profile_enabled() {
            return;
        }
        let index_bytes = i64::try_from(self.platform.memory_bytes()).unwrap_or(i64::MAX);
        self.recorder.gauge("memory_neighbor_index_bytes").set(index_bytes);
        self.recorder.sample_alloc();
    }

    /// Snapshots every metric family at the round boundary into the
    /// attached time series and runs the alert rules over it. A no-op
    /// (no gauge writes, no snapshot, no clock) when no telemetry sink
    /// is attached, preserving the bit-identical-off guarantee.
    fn observe_round_telemetry(&mut self, round: u32) {
        let Some(telemetry) = &self.instruments.telemetry else { return };
        let cap = self.platform.spend_cap().unwrap_or(self.scenario.reward_budget);
        #[allow(clippy::cast_possible_truncation)]
        let permille =
            if cap > 0.0 { (self.platform.total_paid() / cap * 1000.0).round() as i64 } else { 0 };
        telemetry.budget_spent_permille.set(permille);
        telemetry.retry_queue_depth.set(self.pending.len() as i64);
        let snapshot = self.recorder.snapshot();
        telemetry.alerts.evaluate(round, &snapshot, &self.recorder);
        telemetry.timeseries.record(round, snapshot);
    }

    /// Serialises the engine's state at the current round boundary:
    /// everything that changes, and a hash of the workload, which
    /// [`Engine::resume`] draws again from the scenario seed. The bytes
    /// round-trip into an engine whose remaining rounds are
    /// byte-identical to this one's.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] if the state cannot be captured, or if
    /// externally-ingested events are still queued — the inbox is not
    /// part of the checkpoint, so capturing now would silently drop
    /// them; step the round (or keep them durable elsewhere, as the
    /// daemon's write-ahead log does) first.
    pub fn checkpoint(&self) -> Result<Vec<u8>, SimError> {
        if !self.inbox.is_empty() {
            return Err(SimError::checkpoint(format!(
                "{} external events queued; step the round before checkpointing",
                self.inbox.len()
            )));
        }
        let _tag = self.recorder.alloc_phase(AllocPhase::Checkpoint);
        let bytes = crate::checkpoint::encode(self)?;
        self.recorder.counter("checkpoint_writes_total").inc();
        self.recorder.counter("checkpoint_bytes_total").add(bytes.len() as u64);
        Ok(bytes)
    }

    /// Rebuilds an engine from [`Engine::checkpoint`] bytes taken from a
    /// run of the *same* `scenario`.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] for corrupt or truncated bytes, a
    /// version mismatch, a scenario that does not match the one
    /// checkpointed, or a checkpointed workload that the scenario's
    /// seed does not draw; [`SimError::InvalidScenario`] if `scenario`
    /// itself is invalid.
    pub fn resume(
        scenario: &Scenario,
        bytes: &[u8],
        recorder: &Recorder,
    ) -> Result<Engine, SimError> {
        let engine = crate::checkpoint::resume(scenario, bytes, recorder)?;
        recorder.counter("checkpoint_resumes_total").inc();
        let logger = recorder.logger();
        if logger.is_enabled() {
            logger.info(
                "engine",
                "resumed from checkpoint",
                &[
                    ("next_round", engine.next_round.to_string().as_str()),
                    ("rounds_run", engine.rounds.len().to_string().as_str()),
                ],
            );
        }
        Ok(engine)
    }

    /// Consumes the engine, producing the run's [`SimulationResult`].
    ///
    /// # Errors
    ///
    /// [`SimError::EngineInvariant`] if final bookkeeping is violated.
    pub fn finish(mut self) -> Result<SimulationResult, SimError> {
        let logger = self.recorder.logger();
        if logger.is_enabled() {
            logger.info(
                "engine",
                "run finished",
                &[
                    ("rounds_run", self.rounds.len().to_string().as_str()),
                    ("total_paid", format!("{:.1}", self.platform.total_paid()).as_str()),
                ],
            );
        }
        {
            // Release the retry queue's backing buffer under its own
            // tag, closing the queue's live-byte accounting at zero
            // (pushes, churn and this final free all carry the tag).
            let _queue_tag = self.recorder.alloc_phase(AllocPhase::RetryQueue);
            self.pending = Vec::new();
        }
        let m = self.workload.tasks.len();
        let mut received = Vec::with_capacity(m);
        let mut completed_round = Vec::with_capacity(m);
        for i in 0..m {
            received.push(
                self.platform
                    .received(TaskId(i))
                    .map_err(|_| SimError::invariant(format!("task {i} vanished from platform")))?,
            );
            completed_round.push(
                self.platform
                    .completed_round(TaskId(i))
                    .map_err(|_| SimError::invariant(format!("task {i} vanished from platform")))?,
            );
        }
        Ok(SimulationResult {
            scenario: self.scenario,
            workload: self.workload,
            rounds: self.rounds,
            received,
            quality_received: self.quality_received,
            estimates: self.estimates,
            completed_round,
            total_paid: self.platform.total_paid(),
        })
    }
}

/// Builds the configured mechanism as a trait object.
pub(crate) fn build_mechanism(
    scenario: &Scenario,
) -> Result<Box<dyn IncentiveMechanism>, SimError> {
    let levels = paydemand_core::DemandLevels::new(scenario.demand_levels)?;
    let schedule = paydemand_core::RewardSchedule::from_budget(
        scenario.reward_budget,
        scenario.total_required(),
        scenario.reward_increment,
        levels,
    )?;
    Ok(match scenario.mechanism {
        MechanismKind::OnDemand => Box::new(OnDemandIncentive::new(
            paydemand_core::DemandIndicator::paper_default(),
            schedule,
        )),
        MechanismKind::Fixed => Box::new(FixedIncentive::new(schedule)),
        MechanismKind::Steered => Box::new(SteeredIncentive::budget_matched()),
        MechanismKind::SteeredPaperConstants => Box::new(SteeredIncentive::paper_constants()),
        MechanismKind::Proportional => Box::new(ProportionalIncentive::new(
            paydemand_core::DemandIndicator::paper_default(),
            schedule,
        )),
        MechanismKind::Hybrid { alpha } => {
            let inner =
                OnDemandIncentive::new(paydemand_core::DemandIndicator::paper_default(), schedule);
            let flat = scenario.reward_budget / scenario.total_required() as f64;
            Box::new(HybridIncentive::new(inner, alpha, flat)?)
        }
    })
}

/// The wire byte identifying a selector in Selection frames; see
/// [`trace::solver_label`] for the inverse mapping.
pub(crate) fn solver_code(kind: SelectorKind) -> u8 {
    match kind {
        SelectorKind::Dp { .. } => 0,
        SelectorKind::Greedy => 1,
        SelectorKind::GreedyTwoOpt => 2,
        SelectorKind::Insertion => 3,
        SelectorKind::BranchBound => 4,
    }
}

/// Solves one user's selection with `kind`, applying the DP candidate
/// cap if configured: only the `cap` nearest *reachable* tasks enter
/// the exponential solver (heuristic pre-filter; see DESIGN.md).
/// Returns the solver's work counters beside the outcome.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_selection(
    kind: SelectorKind,
    travel: &TravelContext,
    location: Point,
    available: &[PublishedTask],
    time_budget: f64,
    speed: f64,
    cost_per_meter: f64,
    sensing_seconds: f64,
) -> Result<(SelectionOutcome, SolveStats), SimError> {
    let capped: Vec<PublishedTask>;
    let candidates: &[PublishedTask] = match kind {
        SelectorKind::Dp { candidate_cap: Some(cap) } if available.len() > cap => {
            let reach = time_budget * speed;
            let mut with_dist: Vec<(f64, PublishedTask)> = available
                .iter()
                .map(|t| (location.distance(t.location), *t))
                .filter(|(d, _)| *d <= reach)
                .collect();
            // total_cmp keeps this panic-free even if a corrupt or
            // fault-noised coordinate produces a non-finite distance
            // (NaNs sort last and the reach filter already drops them).
            with_dist.sort_by(|a, b| a.0.total_cmp(&b.0));
            with_dist.truncate(cap);
            capped = with_dist.into_iter().map(|(_, t)| t).collect();
            &capped
        }
        _ => available,
    };
    let mut problem = travel.problem(location, candidates, time_budget, speed, cost_per_meter)?;
    if sensing_seconds > 0.0 {
        problem = problem.with_sensing_seconds(sensing_seconds, speed)?;
    }
    Ok(kind.solve(&problem)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_faults::{FaultKind, FaultPlan};
    use proptest::prelude::*;

    fn small_scenario() -> Scenario {
        Scenario::paper_default()
            .with_users(20)
            .with_tasks(8)
            .with_max_rounds(6)
            .with_selector(SelectorKind::GreedyTwoOpt)
            .with_seed(11)
    }

    #[test]
    fn run_is_deterministic() {
        let s = small_scenario();
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&small_scenario()).unwrap();
        let b = run(&small_scenario().with_seed(12)).unwrap();
        assert_ne!(a.received, b.received);
    }

    #[test]
    fn invariants_hold_for_all_mechanisms_and_selectors() {
        for mechanism in [
            MechanismKind::OnDemand,
            MechanismKind::Fixed,
            MechanismKind::Steered,
            MechanismKind::SteeredPaperConstants,
            MechanismKind::Proportional,
            MechanismKind::Hybrid { alpha: 0.5 },
        ] {
            for selector in [
                SelectorKind::Dp { candidate_cap: Some(10) },
                SelectorKind::Greedy,
                SelectorKind::GreedyTwoOpt,
                SelectorKind::Insertion,
            ] {
                let s = small_scenario().with_mechanism(mechanism).with_selector(selector);
                let r = run(&s).unwrap();
                check_invariants(&r);
            }
        }
    }

    /// A round's user entries are in strictly increasing user order,
    /// name workload users, and none is all-zero.
    fn check_user_entries(rr: &RoundRecord, n: usize) {
        for pair in rr.users.windows(2) {
            assert!(pair[0].user < pair[1].user, "entries out of user order: {pair:?}");
        }
        for u in &rr.users {
            assert!((u.user as usize) < n, "entry for unknown user {}", u.user);
            assert!(u.profit.to_bits() != 0 || u.selected != 0, "all-zero entry {u:?}");
        }
    }

    fn check_invariants(r: &SimulationResult) {
        let m = r.workload.tasks.len();
        let n = r.workload.homes.len();
        assert_eq!(r.received.len(), m);
        assert!(!r.rounds.is_empty());
        // Measurements never exceed φ.
        for (i, spec) in r.workload.tasks.iter().enumerate() {
            assert!(r.received[i] <= spec.required());
        }
        // Round records sum to final counts.
        for i in 0..m {
            let total: u32 = r.rounds.iter().map(|rr| rr.new_measurements[i]).sum();
            assert_eq!(total, r.received[i]);
        }
        // Profits are never negative (rational users).
        for rr in &r.rounds {
            check_user_entries(rr, n);
            for u in &rr.users {
                assert!(u.profit >= 0.0, "negative profit {}", u.profit);
            }
            // Published rewards only for incomplete tasks, and positive.
            for reward in rr.rewards.iter().flatten() {
                assert!(*reward > 0.0);
            }
        }
        // Completed tasks have a completion round within range and full
        // measurements.
        for (i, cr) in r.completed_round.iter().enumerate() {
            if let Some(k) = cr {
                assert!(*k >= 1 && *k <= r.scenario.max_rounds);
                assert_eq!(r.received[i], r.workload.tasks[i].required());
            }
        }
        // Paid amount is positive iff measurements happened.
        if r.total_measurements() > 0 {
            assert!(r.total_paid > 0.0);
        }
    }

    #[test]
    fn external_events_validate_at_enqueue() {
        let s = small_scenario();
        let mut e = Engine::new(&s, &Recorder::disabled()).unwrap();
        let n = e.num_users() as u32;
        let m = e.num_tasks() as u32;
        let bad = [
            ExternalEvent::Move { user: n, x: 1.0, y: 1.0 },
            ExternalEvent::Move { user: 0, x: f64::NAN, y: 1.0 },
            ExternalEvent::Move { user: 0, x: -1.0e9, y: 1.0 },
            ExternalEvent::Upload { user: n, task: 0, value: 1.0 },
            ExternalEvent::Upload { user: 0, task: m, value: 1.0 },
            ExternalEvent::Upload { user: 0, task: 0, value: f64::INFINITY },
        ];
        for event in bad {
            assert!(
                matches!(e.enqueue_event(event), Err(SimError::Event { .. })),
                "{event:?} should have been rejected"
            );
        }
        assert_eq!(e.pending_events(), 0);

        let a = e.area();
        let (cx, cy) = ((a.min().x + a.max().x) / 2.0, (a.min().y + a.max().y) / 2.0);
        e.enqueue_event(ExternalEvent::Move { user: 0, x: cx, y: cy }).unwrap();
        assert_eq!(e.pending_events(), 1);
        // The inbox is not checkpointable state: capture must refuse
        // rather than silently drop queued events.
        assert!(matches!(e.checkpoint(), Err(SimError::Checkpoint { .. })));
        assert!(e.step_round().unwrap());
        assert_eq!(e.pending_events(), 0);
        e.checkpoint().unwrap();

        e.run_to_completion().unwrap();
        assert!(matches!(
            e.enqueue_event(ExternalEvent::Move { user: 0, x: cx, y: cy }),
            Err(SimError::Event { .. })
        ));
    }

    #[test]
    fn duplicate_external_upload_drops_without_error() {
        let s = small_scenario();
        let mut e = Engine::new(&s, &Recorder::disabled()).unwrap();
        e.enqueue_event(ExternalEvent::Upload { user: 0, task: 0, value: 1.0 }).unwrap();
        e.enqueue_event(ExternalEvent::Upload { user: 0, task: 0, value: 1.0 }).unwrap();
        assert!(e.step_round().unwrap());
        // The first upload lands (task 0 is incomplete in round 1); the
        // duplicate is dropped silently, mirroring the retry queue.
        assert!(e.rounds[0].new_measurements[0] >= 1);
        assert!(e.rounds[0].users.first().is_some_and(|u| u.user == 0 && u.profit > 0.0));
    }

    #[test]
    fn external_events_replay_bit_identical_across_checkpoints() {
        let s = small_scenario();
        let drive = |checkpoint_at: Option<u32>| -> SimulationResult {
            let mut e = Engine::new(&s, &Recorder::disabled()).unwrap();
            let a = e.area();
            let (cx, cy) = ((a.min().x + a.max().x) / 2.0, (a.min().y + a.max().y) / 2.0);
            let n = e.num_users() as u32;
            let m = e.num_tasks() as u32;
            let mut round = 1u32;
            while !e.is_finished() {
                e.enqueue_event(ExternalEvent::Move { user: round % n, x: cx, y: cy }).unwrap();
                e.enqueue_event(ExternalEvent::Upload {
                    user: round % n,
                    task: round % m,
                    value: 0.5,
                })
                .unwrap();
                e.step_round().unwrap();
                if checkpoint_at == Some(round) {
                    let bytes = e.checkpoint().unwrap();
                    e = Engine::resume(&s, &bytes, &Recorder::disabled()).unwrap();
                }
                round += 1;
            }
            e.finish().unwrap()
        };
        let straight = drive(None);
        assert!(straight.total_measurements() > 0);
        for ck in [1, 3, 5] {
            let resumed = drive(Some(ck));
            assert!(
                straight.observationally_eq(&resumed),
                "checkpoint/resume at round {ck} diverged under external events"
            );
        }
    }

    #[test]
    fn stop_when_complete_halts_early() {
        // Tiny workload drowning in users: should finish fast.
        let s = Scenario {
            tasks: 2,
            required_per_task: 2,
            users: 30,
            stop_when_complete: true,
            max_rounds: 15,
            selector: SelectorKind::Greedy,
            ..Scenario::paper_default()
        }
        .with_seed(3);
        let r = run(&s).unwrap();
        assert!(r.rounds.len() < 15, "ran {} rounds", r.rounds.len());
        assert!(r.completed_round.iter().all(Option::is_some));
    }

    #[test]
    fn users_never_contribute_twice_to_a_task() {
        let s = small_scenario();
        let r = run(&s).unwrap();
        // Per user, count task selections across rounds; since each
        // contribution is a distinct (user, task) pair, the total
        // measurements equal the number of distinct pairs.
        let total_selected: u32 =
            r.rounds.iter().flat_map(|rr| &rr.users).map(|u| u.selected).sum();
        assert_eq!(u64::from(total_selected), r.total_measurements());
    }

    #[test]
    fn travel_models_all_run_and_rank_sanely() {
        // The same world costs strictly more to cover on streets than as
        // the crow flies, so completeness can only drop (weakly) as the
        // travel model gets harsher.
        let base = Scenario { users: 30, ..small_scenario() };
        let run_with = |travel| {
            let s = Scenario { travel, ..base.clone() };
            run(&s).unwrap()
        };
        let euclid = run_with(TravelModel::Euclidean);
        let manhattan = run_with(TravelModel::Manhattan);
        let streets = run_with(TravelModel::StreetGrid { cols: 10, rows: 10, closure: 0.3 });
        assert!(manhattan.completeness() <= euclid.completeness() + 0.05);
        assert!(streets.total_measurements() > 0);
        assert!(manhattan.total_measurements() > 0);
        // Profits remain rational under every travel model.
        for r in [&euclid, &manhattan, &streets] {
            for rr in &r.rounds {
                assert!(rr.users.iter().all(|u| u.profit >= -1e-9));
            }
        }
    }

    #[test]
    fn sensing_time_shrinks_participation() {
        // 5 minutes per measurement eats most of a 10-20 minute budget.
        let fast = run(&small_scenario()).unwrap();
        let slow = run(&Scenario { sensing_seconds: 300.0, ..small_scenario() }).unwrap();
        assert!(
            slow.total_measurements() < fast.total_measurements(),
            "sensing time must reduce throughput: {} vs {}",
            slow.total_measurements(),
            fast.total_measurements()
        );
        assert!(slow.total_measurements() > 0);
        // Per-round, a user can at most fit budget/(sensing time) tasks.
        for rr in &slow.rounds {
            for u in &rr.users {
                let cap = (slow.workload.time_budgets[u.user as usize] / 300.0).floor() as u32;
                assert!(u.selected <= cap, "user fit {} tasks over cap {cap}", u.selected);
            }
        }
        // Validation rejects nonsense.
        let bad = Scenario { sensing_seconds: -1.0, ..small_scenario() };
        assert!(matches!(
            run(&bad),
            Err(SimError::InvalidScenario { field: "sensing_seconds", .. })
        ));
    }

    #[test]
    fn street_grid_validation() {
        let s = Scenario {
            travel: TravelModel::StreetGrid { cols: 1, rows: 5, closure: 0.1 },
            ..small_scenario()
        };
        assert!(matches!(run(&s), Err(SimError::InvalidScenario { field: "travel", .. })));
        let s = Scenario {
            travel: TravelModel::StreetGrid { cols: 5, rows: 5, closure: 1.0 },
            ..small_scenario()
        };
        assert!(matches!(run(&s), Err(SimError::InvalidScenario { field: "travel", .. })));
    }

    #[test]
    fn dropout_thins_participation_monotonically() {
        let run_with = |rate: f64| {
            let s = Scenario { dropout_rate: rate, users: 30, ..small_scenario() };
            run(&s).unwrap().total_measurements()
        };
        let none = run_with(0.0);
        let half = run_with(0.5);
        let heavy = run_with(0.9);
        assert!(none >= half, "{none} < {half}");
        assert!(half >= heavy, "{half} < {heavy}");
        assert!(heavy > 0, "a 10% active fleet still measures something");
        // Validation rejects nonsense rates.
        let bad = Scenario { dropout_rate: 1.0, ..small_scenario() };
        assert!(matches!(run(&bad), Err(SimError::InvalidScenario { field: "dropout_rate", .. })));
    }

    #[test]
    fn strict_expiry_reduces_late_measurements() {
        let base = Scenario { users: 25, max_rounds: 12, ..small_scenario() };
        let lenient = run(&base.clone()).unwrap();
        let strict = run(&Scenario { publish_expired: false, ..base }).unwrap();
        // Strict expiry can only remove opportunities.
        assert!(strict.total_measurements() <= lenient.total_measurements());
        // And no measurement may arrive after a task's deadline.
        for (i, spec) in strict.workload.tasks.iter().enumerate() {
            for (k, rr) in strict.rounds.iter().enumerate() {
                if (k as u32 + 1) > spec.deadline() {
                    assert_eq!(
                        rr.new_measurements[i], 0,
                        "measurement after deadline under strict expiry"
                    );
                }
            }
        }
    }

    #[test]
    fn user_motions_all_run() {
        for motion in [
            UserMotion::StayAtRouteEnd,
            UserMotion::ReturnHome,
            UserMotion::Teleport,
            UserMotion::Wander { seconds: 120.0 },
        ] {
            let s = Scenario { user_motion: motion, ..small_scenario() };
            let r = run(&s).unwrap();
            assert!(!r.rounds.is_empty(), "{motion:?}");
        }
    }

    #[test]
    fn capped_dp_handles_more_tasks_than_cap() {
        let s = Scenario {
            tasks: 20,
            selector: SelectorKind::Dp { candidate_cap: Some(5) },
            users: 10,
            max_rounds: 2,
            ..Scenario::paper_default()
        };
        let r = run(&s).unwrap();
        assert_eq!(r.rounds.len(), 2);
    }

    #[test]
    fn uncapped_dp_rejects_too_many_tasks() {
        let s = Scenario {
            tasks: 30,
            selector: SelectorKind::exact_dp(),
            users: 2,
            max_rounds: 1,
            // Wide budget so all 30 tasks are candidates.
            time_budget_range: (10_000.0, 10_000.0),
            ..Scenario::paper_default()
        };
        assert!(matches!(run(&s), Err(SimError::Core(_))));
    }

    #[test]
    fn enforced_budget_is_never_exceeded() {
        // The literal steered constants pay 5-25 $ per measurement and
        // would blow through 1000 $; the cap must hold the line.
        let s = Scenario {
            mechanism: MechanismKind::SteeredPaperConstants,
            enforce_budget: true,
            users: 60,
            ..small_scenario()
        };
        let r = run(&s).unwrap();
        assert!(
            r.total_paid <= s.reward_budget + 1e-9,
            "paid {} > cap {}",
            r.total_paid,
            s.reward_budget
        );
        // Sanity: without the cap the same scenario overspends.
        let uncapped = run(&Scenario { enforce_budget: false, ..s }).unwrap();
        assert!(uncapped.total_paid > uncapped.scenario.reward_budget);
        // Truncated users still never lose money.
        for rr in &r.rounds {
            assert!(rr.users.iter().all(|u| u.profit >= -1e-9));
        }
    }

    #[test]
    fn hybrid_alpha_validation_flows_through() {
        let s = Scenario { mechanism: MechanismKind::Hybrid { alpha: 1.5 }, ..small_scenario() };
        assert!(matches!(run(&s), Err(SimError::InvalidScenario { field: "mechanism", .. })));
    }

    #[test]
    fn proportional_tracks_on_demand_closely() {
        // The level discretisation should not change headline outcomes.
        let base = small_scenario().with_users(40);
        let od = run(&base.clone().with_mechanism(MechanismKind::OnDemand)).unwrap();
        let pr = run(&base.with_mechanism(MechanismKind::Proportional)).unwrap();
        assert!((od.coverage() - pr.coverage()).abs() < 0.3);
        assert!((od.completeness() - pr.completeness()).abs() < 0.2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn invariants_hold_on_random_scenarios(
            users in 1usize..25,
            tasks in 1usize..10,
            required in 1u32..8,
            rounds in 1u32..7,
            seed in 0u64..1_000_000,
            selector_pick in 0usize..4,
            mechanism_pick in 0usize..4,
            deadline_hi in 1u32..10,
            budget_lo in 0.0..800.0f64,
        ) {
            let selector = [
                SelectorKind::Dp { candidate_cap: Some(8) },
                SelectorKind::Greedy,
                SelectorKind::GreedyTwoOpt,
                SelectorKind::Insertion,
            ][selector_pick];
            let mechanism = [
                MechanismKind::OnDemand,
                MechanismKind::Fixed,
                MechanismKind::Steered,
                MechanismKind::Proportional,
            ][mechanism_pick];
            let scenario = Scenario {
                users,
                tasks,
                required_per_task: required,
                max_rounds: rounds,
                deadline_range: (1, deadline_hi),
                time_budget_range: (budget_lo, budget_lo + 400.0),
                mechanism,
                selector,
                ..Scenario::paper_default()
            }
            .with_seed(seed);
            let r = run(&scenario).unwrap();
            // Reuse the invariant batteries.
            check_invariants(&r);
            // Quality bookkeeping: perfect quality ⇒ value == count.
            for (i, &q) in r.quality_received.iter().enumerate() {
                prop_assert!((q - f64::from(r.received[i])).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn on_demand_beats_fixed_on_coverage_typically() {
        // Smoke test of the paper's headline claim on a small instance;
        // the full comparison lives in the figure harness.
        let mut on_demand_wins = 0;
        for seed in 0..5 {
            let base = Scenario::paper_default()
                .with_users(40)
                .with_max_rounds(10)
                .with_selector(SelectorKind::GreedyTwoOpt)
                .with_seed(seed);
            let od = run(&base.clone().with_mechanism(MechanismKind::OnDemand)).unwrap();
            let fx = run(&base.with_mechanism(MechanismKind::Fixed)).unwrap();
            if od.coverage() >= fx.coverage() {
                on_demand_wins += 1;
            }
        }
        assert!(on_demand_wins >= 3, "on-demand won only {on_demand_wins}/5 seeds");
    }

    // ---- resumable-engine, fault and robustness batteries ----

    #[test]
    fn engine_stepping_matches_one_shot_run() {
        let s = small_scenario();
        let one_shot = run(&s).unwrap();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let mut steps = 0;
        while engine.step_round().unwrap() {
            steps += 1;
        }
        assert!(engine.is_finished());
        assert_eq!(steps, one_shot.rounds.len());
        let stepped = engine.finish().unwrap();
        assert_eq!(stepped, one_shot);
        assert!(stepped.observationally_eq(&one_shot));
    }

    #[test]
    fn step_round_after_finish_is_a_noop() {
        let s = small_scenario().with_max_rounds(2);
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        while engine.step_round().unwrap() {}
        assert!(!engine.step_round().unwrap());
        assert!(!engine.step_round().unwrap());
        assert_eq!(engine.rounds_run(), 2);
    }

    #[test]
    fn nan_task_coordinate_never_panics_the_candidate_cap() {
        // Regression: the cap pre-filter used to sort with
        // partial_cmp().expect("finite distances"). A non-finite
        // coordinate (corrupt data, over-noised GPS) must degrade to
        // "unreachable", not panic.
        let travel = TravelContext::euclidean();
        let mut tasks: Vec<PublishedTask> = (0..4)
            .map(|i| PublishedTask {
                id: TaskId(i),
                location: Point::new(10.0 + i as f64, 10.0),
                reward: 1.0,
            })
            .collect();
        tasks[1].location = Point::new(f64::NAN, f64::NAN);
        let (outcome, _) = solve_selection(
            SelectorKind::Dp { candidate_cap: Some(2) },
            &travel,
            Point::new(0.0, 0.0),
            &tasks,
            600.0,
            2.0,
            0.0,
            0.0,
        )
        .unwrap();
        assert!(
            !outcome.tasks().contains(&TaskId(1)),
            "the NaN-located task must never be selected"
        );
    }

    fn faulted_scenario() -> Scenario {
        small_scenario().with_users(25).with_faults(
            FaultPlan::new(7)
                .with(FaultKind::Dropout { rate: 0.15 })
                .with(FaultKind::LateArrival { fraction: 0.2, latest_round: 3 })
                .with(FaultKind::DroppedUploads { rate: 0.1 })
                .with(FaultKind::StragglerUploads { rate: 0.2, max_retries: 3, backoff_rounds: 1 })
                .with(FaultKind::GpsNoise { sigma: 30.0 })
                .with(FaultKind::DemandOutage { rate: 0.2 }),
        )
    }

    #[test]
    fn zero_fault_plan_is_bitwise_identical_to_plain_run() {
        let plain = run(&small_scenario()).unwrap();
        let empty = run(&small_scenario().with_faults(FaultPlan::new(99))).unwrap();
        assert!(empty.observationally_eq(&plain), "an empty plan must change nothing");
        let zeroed = run(&small_scenario().with_faults(
            FaultPlan::new(42)
                .with(FaultKind::Dropout { rate: 0.0 })
                .with(FaultKind::DroppedUploads { rate: 0.0 })
                .with(FaultKind::GpsNoise { sigma: 0.0 })
                .with(FaultKind::DemandOutage { rate: 0.0 })
                .with(FaultKind::LateArrival { fraction: 0.0, latest_round: 4 }),
        ))
        .unwrap();
        assert!(zeroed.observationally_eq(&plain), "all-zero rates must change nothing");
    }

    #[test]
    fn faulted_runs_replay_bit_identically() {
        let s = faulted_scenario();
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a, b);
        // A different fault seed gives a genuinely different run.
        let mut other = faulted_scenario();
        if let Some(plan) = &mut other.faults {
            plan.seed = 8;
        }
        let c = run(&other).unwrap();
        assert!(!a.observationally_eq(&c), "fault seed must matter");
    }

    #[test]
    fn dropped_uploads_thin_measurements_but_keep_invariants() {
        let plain = run(&small_scenario().with_users(25)).unwrap();
        let s = small_scenario()
            .with_users(25)
            .with_faults(FaultPlan::new(3).with(FaultKind::DroppedUploads { rate: 0.5 }));
        let faulted = run(&s).unwrap();
        assert!(
            faulted.total_measurements() < plain.total_measurements(),
            "dropping half the uploads must reduce received measurements"
        );
        // Received still reconciles with round records.
        for i in 0..faulted.received.len() {
            let total: u32 = faulted.rounds.iter().map(|rr| rr.new_measurements[i]).sum();
            assert_eq!(total, faulted.received[i]);
        }
    }

    #[test]
    fn straggler_uploads_settle_late_but_reconcile() {
        let s =
            small_scenario().with_users(25).with_faults(FaultPlan::new(5).with(
                FaultKind::StragglerUploads { rate: 0.5, max_retries: 4, backoff_rounds: 1 },
            ));
        let r = run(&s).unwrap();
        assert!(r.total_measurements() > 0);
        for i in 0..r.received.len() {
            let total: u32 = r.rounds.iter().map(|rr| rr.new_measurements[i]).sum();
            assert_eq!(total, r.received[i]);
            assert!(r.received[i] <= r.workload.tasks[i].required());
        }
        // Payments reconcile: every delivered measurement was paid from
        // the platform's ledger, never more than once.
        assert!(r.total_paid >= 0.0);
    }

    #[test]
    fn budget_shock_stops_payments_at_the_shock_round() {
        let s = small_scenario()
            .with_users(30)
            .with_faults(FaultPlan::new(1).with(FaultKind::BudgetShock { round: 3, factor: 0.0 }));
        let r = run(&s).unwrap();
        // Factor 0 kills the whole remaining budget: nothing can be
        // published (every positive reward exceeds the zero remainder),
        // so rounds ≥ 3 receive nothing.
        for rr in r.rounds.iter().filter(|rr| rr.round >= 3) {
            assert_eq!(
                rr.new_measurements.iter().sum::<u32>(),
                0,
                "round {} took measurements after a total budget cut",
                rr.round
            );
        }
        let paid_through_2: f64 = r
            .rounds
            .iter()
            .filter(|rr| rr.round < 3)
            .flat_map(|rr| &rr.users)
            .map(|u| u.profit)
            .sum::<f64>();
        // Settled payments stand (profits net out travel, so just check
        // the platform total is what rounds 1-2 produced and positive).
        assert!(r.total_paid > 0.0);
        assert!(paid_through_2 > 0.0 || r.total_paid > 0.0);
    }

    #[test]
    fn demand_outage_degrades_to_stale_prices() {
        let s = small_scenario()
            .with_users(25)
            .with_faults(FaultPlan::new(2).with(FaultKind::DemandOutage { rate: 0.9 }));
        let r = run(&s).unwrap();
        // The run survives near-total outage and still collects data.
        assert!(r.total_measurements() > 0);
        assert_eq!(r.rounds.len(), 6);
        // Stale rounds re-post the previous round's price for any task
        // published in both rounds.
        check_round_sums(&r);
    }

    fn check_round_sums(r: &SimulationResult) {
        for i in 0..r.received.len() {
            let total: u32 = r.rounds.iter().map(|rr| rr.new_measurements[i]).sum();
            assert_eq!(total, r.received[i]);
        }
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_uninterrupted() {
        for scenario in [
            small_scenario(),
            faulted_scenario(),
            Scenario {
                travel: TravelModel::StreetGrid { cols: 6, rows: 6, closure: 0.2 },
                ..small_scenario()
            },
            Scenario { user_motion: UserMotion::Wander { seconds: 90.0 }, ..small_scenario() },
        ] {
            let uninterrupted = run(&scenario).unwrap();
            let recorder = Recorder::disabled();
            let mut engine = Engine::new(&scenario, &recorder).unwrap();
            engine.step_round().unwrap();
            engine.step_round().unwrap();
            let bytes = engine.checkpoint().unwrap();
            drop(engine);
            let mut resumed = Engine::resume(&scenario, &bytes, &recorder).unwrap();
            assert_eq!(resumed.next_round(), 3);
            resumed.run_to_completion().unwrap();
            let result = resumed.finish().unwrap();
            assert_eq!(result, uninterrupted, "resume diverged for {scenario:?}");
        }
    }

    #[test]
    fn checkpoint_rejects_a_mismatched_scenario() {
        let s = small_scenario();
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let bytes = engine.checkpoint().unwrap();
        let other = s.clone().with_seed(999);
        assert!(matches!(
            Engine::resume(&other, &bytes, &Recorder::disabled()),
            Err(SimError::Checkpoint { .. })
        ));
    }

    #[test]
    fn fault_events_are_observable_through_the_recorder() {
        let recorder = Recorder::enabled();
        let s = faulted_scenario();
        let mut engine = Engine::new(&s, &recorder).unwrap();
        engine.run_to_completion().unwrap();
        let _ = engine.finish().unwrap();
        let snap = recorder.snapshot();
        let total: u64 = ["dropout", "late", "drop-upload", "straggler", "gps", "outage"]
            .iter()
            .filter_map(|kind| snap.counter_value("fault_events_total", Some(("kind", kind))))
            .sum();
        assert!(total > 0, "an armed fault plan must record events");
    }
}
