use serde::{Deserialize, Serialize};

use paydemand_core::IndexingMode;
use paydemand_geo::placement::Placement;

use crate::SimError;

/// Which incentive mechanism a scenario runs (§VI compares three;
/// two extension mechanisms support the ablation studies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MechanismKind {
    /// The paper's demand-based dynamic mechanism.
    OnDemand,
    /// Fixed baseline: one random demand level per task, forever.
    Fixed,
    /// Steered-crowdsensing baseline, budget-matched constants
    /// (`Rc = 0.5`, `μ = 10`, `δ = 0.2`; see EXPERIMENTS.md).
    Steered,
    /// Steered baseline with the paper's literal constants
    /// (`Rc = 5`, `μ = 100`, `δ = 0.2`; rewards 10× the others).
    SteeredPaperConstants,
    /// Extension: continuous demand-proportional pricing (ablates the
    /// Table III level discretisation).
    Proportional,
    /// Extension: `α`-blend between flat pricing (`α = 0`) and the
    /// on-demand mechanism (`α = 1`).
    Hybrid {
        /// Blend factor in `[0, 1]`.
        alpha: f64,
    },
}

impl MechanismKind {
    /// The three mechanisms the paper's figures compare, in legend order.
    #[must_use]
    pub const fn paper_lineup() -> [MechanismKind; 3] {
        [MechanismKind::OnDemand, MechanismKind::Fixed, MechanismKind::Steered]
    }

    /// Stable label used in reports and figure legends.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            MechanismKind::OnDemand => "on-demand",
            MechanismKind::Fixed => "fixed",
            MechanismKind::Steered => "steered",
            MechanismKind::SteeredPaperConstants => "steered(paper-constants)",
            MechanismKind::Proportional => "proportional",
            MechanismKind::Hybrid { .. } => "hybrid",
        }
    }
}

/// Which task-selection algorithm users run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SelectorKind {
    /// The paper's optimal bitmask DP. `candidate_cap` bounds how many
    /// (nearest reachable) tasks enter the exponential solver; `None`
    /// means uncapped (exact, refuses > 25 tasks).
    Dp {
        /// Keep only this many nearest reachable candidates (None = all).
        candidate_cap: Option<usize>,
    },
    /// The paper's `O(m²)` greedy.
    Greedy,
    /// Greedy + 2-opt polish (extension).
    GreedyTwoOpt,
    /// Profit-aware cheapest insertion (extension).
    Insertion,
    /// Exact branch and bound, no task-count cap (extension).
    BranchBound,
}

impl SelectorKind {
    /// Exact DP with no candidate cap.
    #[must_use]
    pub const fn exact_dp() -> Self {
        SelectorKind::Dp { candidate_cap: None }
    }

    /// Stable label used in reports.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            SelectorKind::Dp { .. } => "dp",
            SelectorKind::Greedy => "greedy",
            SelectorKind::GreedyTwoOpt => "greedy+2opt",
            SelectorKind::Insertion => "insertion",
            SelectorKind::BranchBound => "branch-bound",
        }
    }
}

/// How travel distance between two points is computed (the paper uses
/// straight lines; cities do not).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum TravelModel {
    /// Straight-line walking — the paper's model (default).
    #[default]
    Euclidean,
    /// L1 distance: an idealised dense street grid.
    Manhattan,
    /// An explicit street grid ([`RoadNetwork`]) with `cols × rows`
    /// intersections and a fraction of non-backbone streets closed;
    /// travel snaps to intersections and follows shortest paths.
    ///
    /// [`RoadNetwork`]: paydemand_geo::network::RoadNetwork
    StreetGrid {
        /// Intersections along x.
        cols: usize,
        /// Intersections along y.
        rows: usize,
        /// Probability each non-backbone street is closed, in `[0, 1)`.
        closure: f64,
    },
}

/// How users move between rounds (the paper leaves this unspecified;
/// see DESIGN.md "Key design decisions").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum UserMotion {
    /// Users start the next round wherever their route ended (default).
    #[default]
    StayAtRouteEnd,
    /// Users return to their initial (home) location every round.
    ReturnHome,
    /// Fresh uniform location every round.
    Teleport,
    /// Random-waypoint wandering at the walking speed between rounds,
    /// for the given number of seconds per round.
    Wander {
        /// Inter-round wander time in seconds.
        seconds: f64,
    },
}

/// A complete, serialisable description of one simulation experiment.
///
/// [`Scenario::paper_default`] is §VI's setting; `with_*` methods tweak
/// individual knobs (consuming builder style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Side of the square sensing region, metres (paper: 3000).
    pub area_side: f64,
    /// Number of sensing tasks `m` (paper: 20).
    pub tasks: usize,
    /// Required measurements per task `φ` (paper: 20).
    pub required_per_task: u32,
    /// Deadline range `[lo, hi]` in rounds, drawn uniformly (paper: [5, 15]).
    pub deadline_range: (u32, u32),
    /// Number of mobile users `n` (paper: 40–140).
    pub users: usize,
    /// Walking speed, m/s (paper: 2).
    pub speed: f64,
    /// Movement cost, $/m (paper: 0.002).
    pub cost_per_meter: f64,
    /// Per-round user time budget range `[lo, hi]` seconds, drawn
    /// uniformly per user (paper: unstated; default [600, 1200]).
    pub time_budget_range: (f64, f64),
    /// Total reward budget `B`, $ (paper: 1000).
    pub reward_budget: f64,
    /// Reward increment per demand level `λ`, $ (paper: 0.5).
    pub reward_increment: f64,
    /// Number of demand levels `N` (paper: 5).
    pub demand_levels: u32,
    /// Neighbour radius `R`, metres (paper: unstated; default 1000).
    pub neighbor_radius: f64,
    /// Maximum number of sensing rounds (paper figures: 15).
    pub max_rounds: u32,
    /// Stop early once every task is complete?
    pub stop_when_complete: bool,
    /// Enforce the reward budget as a *hard* spend cap: the platform
    /// withholds tasks it can no longer pay for and refuses payments
    /// past `reward_budget`. Off by default — the paper's Eq. 8/9
    /// schedules respect the budget by construction; turn this on when
    /// running `SteeredPaperConstants`, whose rewards do not.
    pub enforce_budget: bool,
    /// Probability that a user sits out any given round (phone off,
    /// busy, churned). 0 (the paper's implicit model) by default.
    pub dropout_rate: f64,
    /// Whether tasks whose deadline has passed stay published while
    /// incomplete. The paper is ambiguous (EXPERIMENTS.md A8); `true`
    /// (default) matches its Figs. 6(b)/8(b), `false` is the strict
    /// "deadline means gone" reading.
    pub publish_expired: bool,
    /// Task placement strategy.
    pub task_placement: Placement,
    /// User placement strategy.
    pub user_placement: Placement,
    /// Inter-round user motion.
    pub user_motion: UserMotion,
    /// Distribution of per-user sensing quality (a metric-level
    /// extension; completion stays count-based as in the paper).
    pub user_quality: crate::quality::QualityDistribution,
    /// How travel distances are computed (extension; the paper's model
    /// is [`TravelModel::Euclidean`]). Neighbour counting (Eq. 5) stays
    /// Euclidean — `R` is about proximity, not walking.
    pub travel: TravelModel,
    /// The measurement model: ground-truth range and per-measurement
    /// noise (extension; lets mechanisms be compared on estimation
    /// error, not just counts).
    pub sensing: crate::sensing::SensingModel,
    /// Time spent performing one measurement, in seconds (consumes the
    /// user's time budget but costs no movement money). 0 = the paper's
    /// "sensing time is negligible" assumption (§III-C).
    pub sensing_seconds: f64,
    /// The incentive mechanism to run.
    pub mechanism: MechanismKind,
    /// The task-selection algorithm users run.
    pub selector: SelectorKind,
    /// How the platform computes per-task neighbour counts (Eq. 5).
    /// Both modes produce identical results; the naive scan exists as
    /// the differential reference and bench arm.
    pub indexing: IndexingMode,
    /// Faults to inject during the run, if any. The fault machinery
    /// draws from its own RNG stream (seeded from `seed` mixed with the
    /// plan's fault seed), so `None` and an empty plan are bitwise
    /// equivalent to each other and to the unfaulted engine.
    pub faults: Option<paydemand_faults::FaultPlan>,
    /// Master RNG seed; every random draw derives from it.
    pub seed: u64,
}

impl Scenario {
    /// The paper's §VI configuration (100 users; change with
    /// [`with_users`](Self::with_users)).
    #[must_use]
    pub fn paper_default() -> Self {
        Scenario {
            area_side: 3000.0,
            tasks: 20,
            required_per_task: 20,
            deadline_range: (5, 15),
            users: 100,
            speed: 2.0,
            cost_per_meter: 0.002,
            time_budget_range: (600.0, 1200.0),
            reward_budget: 1000.0,
            reward_increment: 0.5,
            demand_levels: 5,
            neighbor_radius: 1000.0,
            max_rounds: 15,
            stop_when_complete: false,
            enforce_budget: false,
            dropout_rate: 0.0,
            publish_expired: true,
            task_placement: Placement::Uniform,
            user_placement: Placement::Uniform,
            user_motion: UserMotion::StayAtRouteEnd,
            user_quality: crate::quality::QualityDistribution::Perfect,
            travel: TravelModel::Euclidean,
            sensing: crate::sensing::SensingModel::default(),
            sensing_seconds: 0.0,
            mechanism: MechanismKind::OnDemand,
            selector: SelectorKind::Dp { candidate_cap: Some(14) },
            indexing: IndexingMode::default(),
            faults: None,
            seed: 0x5EED,
        }
    }

    /// Sets the number of users.
    #[must_use]
    pub fn with_users(mut self, users: usize) -> Self {
        self.users = users;
        self
    }

    /// Sets the number of tasks.
    #[must_use]
    pub fn with_tasks(mut self, tasks: usize) -> Self {
        self.tasks = tasks;
        self
    }

    /// Sets the mechanism.
    #[must_use]
    pub fn with_mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Sets the selector.
    #[must_use]
    pub fn with_selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum number of rounds.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the neighbour radius `R`.
    #[must_use]
    pub fn with_neighbor_radius(mut self, radius: f64) -> Self {
        self.neighbor_radius = radius;
        self
    }

    /// Sets the per-user time budget range (seconds).
    #[must_use]
    pub fn with_time_budget_range(mut self, lo: f64, hi: f64) -> Self {
        self.time_budget_range = (lo, hi);
        self
    }

    /// Sets the neighbour-indexing mode.
    #[must_use]
    pub fn with_indexing(mut self, indexing: IndexingMode) -> Self {
        self.indexing = indexing;
        self
    }

    /// Attaches a fault plan (see [`paydemand_faults::FaultPlan`]).
    #[must_use]
    pub fn with_faults(mut self, plan: paydemand_faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Total measurements required across all tasks (`Σφ_i`).
    #[must_use]
    pub fn total_required(&self) -> u64 {
        self.tasks as u64 * u64::from(self.required_per_task)
    }

    /// Validates every field; called by the engine before running.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidScenario`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        fn fail(field: &'static str, message: impl Into<String>) -> Result<(), SimError> {
            Err(SimError::InvalidScenario { field, message: message.into() })
        }
        if !(self.area_side.is_finite() && self.area_side > 0.0) {
            return fail("area_side", format!("{}", self.area_side));
        }
        if self.tasks == 0 {
            return fail("tasks", "must have at least one task");
        }
        if self.required_per_task == 0 {
            return fail("required_per_task", "must be positive");
        }
        if self.deadline_range.0 == 0 || self.deadline_range.0 > self.deadline_range.1 {
            return fail("deadline_range", format!("{:?}", self.deadline_range));
        }
        if self.users == 0 {
            return fail("users", "must have at least one user");
        }
        if !(self.speed.is_finite() && self.speed > 0.0) {
            return fail("speed", format!("{}", self.speed));
        }
        if !(self.cost_per_meter.is_finite() && self.cost_per_meter >= 0.0) {
            return fail("cost_per_meter", format!("{}", self.cost_per_meter));
        }
        let (lo, hi) = self.time_budget_range;
        if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
            return fail("time_budget_range", format!("{:?}", self.time_budget_range));
        }
        if !(self.reward_budget.is_finite() && self.reward_budget > 0.0) {
            return fail("reward_budget", format!("{}", self.reward_budget));
        }
        if !(self.reward_increment.is_finite() && self.reward_increment >= 0.0) {
            return fail("reward_increment", format!("{}", self.reward_increment));
        }
        if self.demand_levels == 0 {
            return fail("demand_levels", "must be positive");
        }
        if !(self.neighbor_radius.is_finite() && self.neighbor_radius > 0.0) {
            return fail("neighbor_radius", format!("{}", self.neighbor_radius));
        }
        if self.max_rounds == 0 {
            return fail("max_rounds", "must run at least one round");
        }
        if let SelectorKind::Dp { candidate_cap: Some(cap) } = self.selector {
            if cap == 0 || cap > paydemand_routing::subset_dp::MAX_TASKS {
                return fail("selector", format!("dp candidate cap {cap} out of range"));
            }
        }
        if let UserMotion::Wander { seconds } = self.user_motion {
            if !(seconds.is_finite() && seconds >= 0.0) {
                return fail("user_motion", format!("wander seconds {seconds}"));
            }
        }
        if let MechanismKind::Hybrid { alpha } = self.mechanism {
            if !(alpha.is_finite() && (0.0..=1.0).contains(&alpha)) {
                return fail("mechanism", format!("hybrid alpha {alpha}"));
            }
        }
        if !(self.dropout_rate.is_finite() && (0.0..1.0).contains(&self.dropout_rate)) {
            return fail("dropout_rate", format!("{}", self.dropout_rate));
        }
        self.user_quality.validate()?;
        self.sensing.validate()?;
        if !(self.sensing_seconds.is_finite() && self.sensing_seconds >= 0.0) {
            return fail("sensing_seconds", format!("{}", self.sensing_seconds));
        }
        if let TravelModel::StreetGrid { cols, rows, closure } = self.travel {
            if cols < 2 || rows < 2 {
                return fail("travel", format!("street grid {cols}x{rows} too small"));
            }
            if !(closure.is_finite() && (0.0..1.0).contains(&closure)) {
                return fail("travel", format!("street closure {closure}"));
            }
        }
        if let Some(plan) = &self.faults {
            if let Err(e) = plan.validate() {
                return fail("faults", e.to_string());
            }
        }
        Ok(())
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_vi() {
        let s = Scenario::paper_default();
        s.validate().unwrap();
        assert_eq!(s.area_side, 3000.0);
        assert_eq!(s.tasks, 20);
        assert_eq!(s.required_per_task, 20);
        assert_eq!(s.deadline_range, (5, 15));
        assert_eq!(s.speed, 2.0);
        assert_eq!(s.cost_per_meter, 0.002);
        assert_eq!(s.reward_budget, 1000.0);
        assert_eq!(s.reward_increment, 0.5);
        assert_eq!(s.demand_levels, 5);
        assert_eq!(s.total_required(), 400);
    }

    #[test]
    fn builder_methods_apply() {
        let s = Scenario::paper_default()
            .with_users(40)
            .with_tasks(10)
            .with_mechanism(MechanismKind::Fixed)
            .with_selector(SelectorKind::Greedy)
            .with_seed(9)
            .with_max_rounds(7)
            .with_neighbor_radius(500.0)
            .with_time_budget_range(100.0, 200.0)
            .with_indexing(IndexingMode::NaiveReference);
        assert_eq!(s.indexing, IndexingMode::NaiveReference);
        assert_eq!(s.users, 40);
        assert_eq!(s.tasks, 10);
        assert_eq!(s.mechanism, MechanismKind::Fixed);
        assert_eq!(s.selector, SelectorKind::Greedy);
        assert_eq!(s.seed, 9);
        assert_eq!(s.max_rounds, 7);
        assert_eq!(s.neighbor_radius, 500.0);
        assert_eq!(s.time_budget_range, (100.0, 200.0));
        s.validate().unwrap();
    }

    #[test]
    fn validation_catches_each_field() {
        let base = Scenario::paper_default;
        let cases: Vec<(Scenario, &str)> = vec![
            (Scenario { area_side: 0.0, ..base() }, "area_side"),
            (Scenario { tasks: 0, ..base() }, "tasks"),
            (Scenario { required_per_task: 0, ..base() }, "required_per_task"),
            (Scenario { deadline_range: (0, 5), ..base() }, "deadline_range"),
            (Scenario { deadline_range: (9, 5), ..base() }, "deadline_range"),
            (Scenario { users: 0, ..base() }, "users"),
            (Scenario { speed: -2.0, ..base() }, "speed"),
            (Scenario { cost_per_meter: f64::NAN, ..base() }, "cost_per_meter"),
            (Scenario { time_budget_range: (5.0, 1.0), ..base() }, "time_budget_range"),
            (Scenario { reward_budget: 0.0, ..base() }, "reward_budget"),
            (Scenario { reward_increment: -0.5, ..base() }, "reward_increment"),
            (Scenario { demand_levels: 0, ..base() }, "demand_levels"),
            (Scenario { neighbor_radius: 0.0, ..base() }, "neighbor_radius"),
            (Scenario { max_rounds: 0, ..base() }, "max_rounds"),
            (
                Scenario { selector: SelectorKind::Dp { candidate_cap: Some(0) }, ..base() },
                "selector",
            ),
            (
                Scenario { selector: SelectorKind::Dp { candidate_cap: Some(99) }, ..base() },
                "selector",
            ),
            (
                Scenario { user_motion: UserMotion::Wander { seconds: f64::NAN }, ..base() },
                "user_motion",
            ),
            (
                base().with_faults(
                    paydemand_faults::FaultPlan::new(0)
                        .with(paydemand_faults::FaultKind::Dropout { rate: 2.0 }),
                ),
                "faults",
            ),
        ];
        for (scenario, field) in cases {
            match scenario.validate() {
                Err(SimError::InvalidScenario { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected invalid {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MechanismKind::OnDemand.label(), "on-demand");
        assert_eq!(MechanismKind::Fixed.label(), "fixed");
        assert_eq!(MechanismKind::Steered.label(), "steered");
        assert_eq!(SelectorKind::exact_dp().label(), "dp");
        assert_eq!(SelectorKind::Greedy.label(), "greedy");
        assert_eq!(SelectorKind::GreedyTwoOpt.label(), "greedy+2opt");
        let lineup = MechanismKind::paper_lineup();
        assert_eq!(lineup.len(), 3);
    }
}
