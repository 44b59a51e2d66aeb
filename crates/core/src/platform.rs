use std::borrow::Cow;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use paydemand_geo::{GeoError, Point, Positions, Rect};
use paydemand_obs::{Histogram, Recorder};

use crate::incentive::IncentiveMechanism;
use crate::neighbors::{naive_counts_in, CellSweepCounter, IndexingMode};
use crate::{CoreError, PublishedTask, TaskId, TaskSpec, UserId};

/// One task's publicly observable state at a round boundary — the data
/// the incentive mechanisms price from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskProgress {
    /// The task's identifier.
    pub id: TaskId,
    /// Location `L_{t_i}`.
    pub location: Point,
    /// Deadline `τ_i` in rounds.
    pub deadline: u32,
    /// Required measurements `φ_i`.
    pub required: u32,
    /// Measurements received so far `π_i`.
    pub received: u32,
    /// Neighbouring users `N_i` (distance < R at round start).
    pub neighbors: usize,
}

impl TaskProgress {
    /// Completion progress `π_i / φ_i ∈ [0, 1]`.
    #[must_use]
    pub fn progress(&self) -> f64 {
        (f64::from(self.received) / f64::from(self.required.max(1))).min(1.0)
    }

    /// Whether all required measurements have been received.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.received >= self.required
    }
}

/// Everything an [`IncentiveMechanism`] may see when pricing a round:
/// the (1-based) round number and a snapshot of every *incomplete* task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundContext {
    /// The sensing round `k` being priced (1-based).
    pub round: u32,
    /// Snapshots of the incomplete tasks, in stable id order.
    pub tasks: Vec<TaskProgress>,
    /// `N_max`: the largest neighbour count among **all** tasks this
    /// round (including complete ones, matching Eq. 5's definition over
    /// all tasks).
    pub max_neighbors: usize,
}

/// The platform's mutable state at a round boundary, as captured by
/// [`Platform::export_state`] and replayed by
/// [`Platform::restore_state`]. All collections are indexed by task id.
/// An export borrows the platform's own vectors, so capturing state
/// copies nothing but the mechanism's blob; a decoder builds an owned
/// one for restore.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformState<'a> {
    /// Measurements received so far, per task.
    pub received: Cow<'a, [u32]>,
    /// Round at which each task completed, if it has.
    pub completed_round: Cow<'a, [Option<u32>]>,
    /// Contributing users per task, strictly increasing.
    pub contributors: Cow<'a, [Vec<UserId>]>,
    /// Rewards currently published (0 for unpublished tasks).
    pub current_rewards: Cow<'a, [f64]>,
    /// Per-task, per-round measurement counts.
    pub round_receipts: Cow<'a, [Vec<u32>]>,
    /// Rounds opened so far.
    pub round: u32,
    /// Total rewards paid.
    pub total_paid: f64,
    /// The active spend cap, if payments are capped.
    pub spend_cap: Option<f64>,
    /// The incentive mechanism's opaque state blob.
    pub mechanism: Vec<u8>,
}

/// The crowdsensing platform: owns the task book, consults a pluggable
/// [`IncentiveMechanism`] at every round boundary, collects submissions
/// and accounts every payment against the reward budget.
///
/// The round protocol matches the paper's Fig. 1:
/// 1. [`publish_round`](Platform::publish_round) — compute neighbour
///    counts, let the mechanism set rewards, publish incomplete tasks;
/// 2. users select and perform tasks;
///    [`submit`](Platform::submit) records each measurement and pays
///    the published reward;
/// 3. [`finish_round`](Platform::finish_round) closes the round.
#[derive(Debug)]
pub struct Platform<M> {
    mechanism: M,
    specs: Vec<TaskSpec>,
    received: Vec<u32>,
    /// Round at which each task reached `φ_i` measurements, if ever.
    completed_round: Vec<Option<u32>>,
    /// Users who contributed to each task, strictly increasing.
    contributors: Vec<Vec<UserId>>,
    /// Rewards currently published, per task (0 for unpublished tasks).
    current_rewards: Vec<f64>,
    /// Measurement counts per task per round, for round-resolved metrics.
    round_receipts: Vec<Vec<u32>>,
    area: Rect,
    neighbor_radius: f64,
    /// How neighbour counts are computed each round (Eq. 5).
    indexing: IndexingMode,
    /// Cell-sweep state; lazily built on the first
    /// [`publish_round`](Self::publish_round) under
    /// [`IndexingMode::CellSweep`].
    cell_counter: Option<CellSweepCounter>,
    round: u32,
    round_open: bool,
    total_paid: f64,
    /// Hard cap on total payments, if enforced.
    spend_cap: Option<f64>,
    /// Whether incomplete tasks stay published past their deadline.
    publish_expired: bool,
    /// Whether to retain each round's [`RoundContext`] for explanation
    /// (trace journalling). Off by default — retention is pure memory
    /// cost with no behavioural effect.
    keep_context: bool,
    /// The last freshly priced round's context, when retained. Cleared
    /// by [`publish_round_stale`](Self::publish_round_stale): a stale
    /// round has no recomputed context to explain.
    last_context: Option<RoundContext>,
    /// Observability handle; disabled (a true no-op) by default.
    recorder: Recorder,
    /// `round_phase_seconds{phase="demand"}` — neighbour recounting.
    phase_demand: Histogram,
    /// `round_phase_seconds{phase="pricing"}` — mechanism rewards.
    phase_pricing: Histogram,
}

impl<M: IncentiveMechanism> Platform<M> {
    /// Creates a platform over `specs` using `mechanism` for pricing.
    /// `neighbor_radius` is the paper's `R` (metres): users closer than
    /// it to a task count as its neighbours.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCount`] if `specs` is empty or task ids are
    ///   not the dense sequence `0..m` (the platform indexes by id);
    /// * [`CoreError::InvalidParameter`] for a non-positive radius.
    pub fn new(
        specs: Vec<TaskSpec>,
        mechanism: M,
        area: Rect,
        neighbor_radius: f64,
    ) -> Result<Self, CoreError> {
        if specs.is_empty() {
            return Err(CoreError::InvalidCount { name: "tasks", value: 0 });
        }
        for (i, spec) in specs.iter().enumerate() {
            if spec.id() != TaskId(i) {
                return Err(CoreError::InvalidCount { name: "task_id", value: spec.id().0 });
            }
        }
        if !neighbor_radius.is_finite() || neighbor_radius <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "neighbor_radius",
                value: neighbor_radius,
            });
        }
        let m = specs.len();
        Ok(Platform {
            mechanism,
            specs,
            received: vec![0; m],
            completed_round: vec![None; m],
            contributors: vec![Vec::new(); m],
            current_rewards: vec![0.0; m],
            round_receipts: vec![Vec::new(); m],
            area,
            neighbor_radius,
            indexing: IndexingMode::default(),
            cell_counter: None,
            round: 0,
            round_open: false,
            total_paid: 0.0,
            spend_cap: None,
            publish_expired: true,
            keep_context: false,
            last_context: None,
            recorder: Recorder::disabled(),
            phase_demand: Histogram::disabled(),
            phase_pricing: Histogram::disabled(),
        })
    }

    /// Threads an observability recorder through the platform: the
    /// `demand` and `pricing` sub-phases of
    /// [`publish_round`](Self::publish_round) are timed into
    /// `round_phase_seconds` and the cell sweep reports its
    /// full-sweep-vs-delta counts. A disabled recorder (the default)
    /// records nothing and never reads the clock, leaving behaviour
    /// bit-identical.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
        self.phase_demand = recorder.histogram_with("round_phase_seconds", "phase", "demand");
        self.phase_pricing = recorder.histogram_with("round_phase_seconds", "phase", "pricing");
        if let Some(counter) = &mut self.cell_counter {
            counter.set_recorder(recorder);
        }
    }

    /// Controls whether incomplete tasks stay published after their
    /// deadline round. The default (`true`) matches the paper's
    /// evaluation dynamics (its Figs. 6(b)/8(b) show measurements
    /// accruing past the earliest deadlines); `false` is the strict
    /// "deadline means withdrawn" reading.
    pub fn set_publish_expired(&mut self, publish_expired: bool) {
        self.publish_expired = publish_expired;
    }

    /// Enforces a hard cap on total payments (the paper's "total
    /// rewards paid to mobile users cannot exceed B"). The Eq. 8/9
    /// schedules satisfy this by construction, but mechanisms like the
    /// literal-constant steered baseline do not; with a cap set, the
    /// platform refuses submissions it cannot pay for
    /// ([`CoreError::BudgetExhausted`]) and stops publishing tasks whose
    /// reward exceeds the remaining budget.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a negative or non-finite cap.
    pub fn set_spend_cap(&mut self, cap: f64) -> Result<(), CoreError> {
        if !cap.is_finite() || cap < 0.0 {
            return Err(CoreError::InvalidParameter { name: "spend_cap", value: cap });
        }
        self.spend_cap = Some(cap);
        Ok(())
    }

    /// Selects how per-task neighbour counts are computed (Eq. 5).
    /// Both modes yield identical counts — the cell-sweep default is
    /// the production path; the naive scan is the differential
    /// reference. Switching modes drops any sweep state, so it is safe
    /// (if pointless) mid-run.
    pub fn set_indexing_mode(&mut self, mode: IndexingMode) {
        self.indexing = mode;
        self.cell_counter = None;
    }

    /// The neighbour-indexing mode in use.
    #[must_use]
    pub fn indexing_mode(&self) -> IndexingMode {
        self.indexing
    }

    /// Approximate heap footprint of the neighbour index in bytes —
    /// the cell sweep's state, when live. Read-only; feeds the
    /// `memory_neighbor_index_bytes` gauge.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.cell_counter.as_ref().map_or(0, CellSweepCounter::approx_bytes)
    }

    /// Budget remaining under the cap (`+∞` when no cap is set).
    #[must_use]
    pub fn remaining_budget(&self) -> f64 {
        self.spend_cap.map_or(f64::INFINITY, |cap| (cap - self.total_paid).max(0.0))
    }

    /// The active spend cap, if one has been enforced.
    #[must_use]
    pub fn spend_cap(&self) -> Option<f64> {
        self.spend_cap
    }

    /// Retains each freshly priced round's [`RoundContext`] so
    /// [`explain_last_round`](Self::explain_last_round) can decompose
    /// the pricing after the fact. Purely additive: retention never
    /// alters the rewards produced.
    pub fn set_keep_context(&mut self, keep: bool) {
        self.keep_context = keep;
        if !keep {
            self.last_context = None;
        }
    }

    /// Explains the last freshly priced round: each published-or-priced
    /// task's progress snapshot paired with the mechanism's demand
    /// breakdown, in `ctx.tasks` order. `None` when context retention
    /// is off, the last round was stale, or the mechanism's pricing has
    /// no demand decomposition (the baselines).
    #[must_use]
    pub fn explain_last_round(&self) -> Option<Vec<(TaskProgress, crate::DemandBreakdown)>> {
        let ctx = self.last_context.as_ref()?;
        let breakdowns = self.mechanism.explain(ctx)?;
        debug_assert_eq!(breakdowns.len(), ctx.tasks.len());
        Some(ctx.tasks.iter().copied().zip(breakdowns).collect())
    }

    /// Opens the next sensing round: counts each task's neighbouring
    /// users, asks the mechanism for this round's rewards, and returns
    /// the published (incomplete) tasks.
    ///
    /// # Errors
    ///
    /// * [`CoreError::RoundNotOpen`] is **not** raised here; instead an
    ///   already-open round is an error of the same kind (misuse of the
    ///   protocol) and reported as such;
    /// * [`CoreError::Geo`] if a user location lies outside the area.
    pub fn publish_round<P: Positions + ?Sized>(
        &mut self,
        user_locations: &P,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<PublishedTask>, CoreError> {
        if self.round_open {
            return Err(CoreError::RoundNotOpen);
        }
        // Count neighbours before touching any round state so a bad
        // location leaves the platform unchanged (every mode validates
        // all locations up front, reporting the first offender).
        let demand_span = self.recorder.scoped("demand", &self.phase_demand);
        let neighbor_counts = self.neighbor_counts(user_locations)?;
        drop(demand_span);
        self.round += 1;
        self.round_open = true;
        for receipts in &mut self.round_receipts {
            receipts.push(0);
        }

        let max_neighbors = neighbor_counts.iter().copied().max().unwrap_or(0);

        let tasks: Vec<TaskProgress> = self
            .specs
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                self.received[*i] < s.required()
                    && (self.publish_expired || self.round <= s.deadline())
            })
            .map(|(i, s)| TaskProgress {
                id: s.id(),
                location: s.location(),
                deadline: s.deadline(),
                required: s.required(),
                received: self.received[i],
                neighbors: neighbor_counts[i],
            })
            .collect();

        let ctx = RoundContext { round: self.round, tasks, max_neighbors };
        let pricing_span = self.recorder.scoped("pricing", &self.phase_pricing);
        let rewards = self.mechanism.rewards(&ctx, rng);
        drop(pricing_span);
        debug_assert_eq!(rewards.len(), ctx.tasks.len(), "mechanism must price every task");

        self.current_rewards = vec![0.0; self.specs.len()];
        let remaining = self.remaining_budget();
        let mut published = Vec::with_capacity(ctx.tasks.len());
        for (snapshot, reward) in ctx.tasks.iter().zip(rewards) {
            // Under a hard cap, tasks the platform can no longer pay for
            // even once are withheld from publication.
            if reward > remaining {
                continue;
            }
            self.current_rewards[snapshot.id.0] = reward;
            published.push(PublishedTask { id: snapshot.id, location: snapshot.location, reward });
        }
        self.last_context = if self.keep_context { Some(ctx) } else { None };
        Ok(published)
    }

    /// Opens the next round **without** repricing: the graceful
    /// degradation path for a demand/incentive recompute outage.
    ///
    /// Neighbour counting and the mechanism are skipped entirely; the
    /// previous round's published rewards are re-posted for every task
    /// that is still incomplete, unexpired and affordable. Tasks that
    /// were withheld last round stay withheld (their stale reward is 0).
    /// Consumes no randomness, so a run interleaving stale rounds stays
    /// bit-deterministic.
    ///
    /// # Errors
    ///
    /// [`CoreError::RoundNotOpen`] if a round is already open or no
    /// round has ever been priced (there is nothing to re-post).
    pub fn publish_round_stale(&mut self) -> Result<Vec<PublishedTask>, CoreError> {
        if self.round_open || self.round == 0 {
            return Err(CoreError::RoundNotOpen);
        }
        self.round += 1;
        self.round_open = true;
        self.last_context = None;
        for receipts in &mut self.round_receipts {
            receipts.push(0);
        }
        let remaining = self.remaining_budget();
        let mut published = Vec::new();
        for (i, s) in self.specs.iter().enumerate() {
            let stale_reward = self.current_rewards[i];
            let live = self.received[i] < s.required()
                && (self.publish_expired || self.round <= s.deadline())
                && stale_reward > 0.0
                && stale_reward <= remaining;
            if live {
                published.push(PublishedTask {
                    id: s.id(),
                    location: s.location(),
                    reward: stale_reward,
                });
            } else {
                self.current_rewards[i] = 0.0;
            }
        }
        Ok(published)
    }

    /// The platform's mutable state at a round boundary, for
    /// checkpointing: borrowed, so nothing is copied but the mechanism's
    /// blob. Contributor lists are kept sorted, so equal platforms
    /// export equal states. The cell sweep's state is a perf-only cache
    /// (both indexing modes agree exactly) and is rebuilt on demand
    /// after a restore rather than exported.
    ///
    /// # Errors
    ///
    /// [`CoreError::RoundNotOpen`] if called mid-round.
    pub fn export_state(&self) -> Result<PlatformState<'_>, CoreError> {
        if self.round_open {
            return Err(CoreError::RoundNotOpen);
        }
        Ok(PlatformState {
            received: Cow::Borrowed(&self.received),
            completed_round: Cow::Borrowed(&self.completed_round),
            contributors: Cow::Borrowed(&self.contributors),
            current_rewards: Cow::Borrowed(&self.current_rewards),
            round_receipts: Cow::Borrowed(&self.round_receipts),
            round: self.round,
            total_paid: self.total_paid,
            spend_cap: self.spend_cap,
            mechanism: self.mechanism.export_state(),
        })
    }

    /// Restores state captured by [`Platform::export_state`] onto a
    /// freshly built platform over the same task book. The spend cap is
    /// taken from the state verbatim (it may differ from the configured
    /// budget after a mid-campaign budget shock). An owned state moves
    /// in without a copy. Each contributor list must be strictly
    /// increasing, as exported: [`submit`](Self::submit) binary-searches
    /// them.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCount`] if the state's per-task vectors do
    /// not match the task book; any error of the mechanism's own
    /// [`IncentiveMechanism::restore_state`].
    pub fn restore_state(&mut self, state: PlatformState<'_>) -> Result<(), CoreError> {
        let m = self.specs.len();
        if state.received.len() != m
            || state.completed_round.len() != m
            || state.contributors.len() != m
            || state.current_rewards.len() != m
            || state.round_receipts.len() != m
        {
            return Err(CoreError::InvalidCount {
                name: "platform state tasks",
                value: state.received.len(),
            });
        }
        self.mechanism.restore_state(&state.mechanism)?;
        self.received = state.received.into_owned();
        self.completed_round = state.completed_round.into_owned();
        self.contributors = state.contributors.into_owned();
        self.current_rewards = state.current_rewards.into_owned();
        self.round_receipts = state.round_receipts.into_owned();
        self.round = state.round;
        self.round_open = false;
        self.total_paid = state.total_paid;
        self.spend_cap = state.spend_cap;
        self.cell_counter = None;
        Ok(())
    }

    /// Per-task neighbour counts (`N_i`, Eq. 5) for the current user
    /// locations, via whichever [`IndexingMode`] is configured. Both
    /// modes agree exactly — `Point::distance_squared` is bitwise
    /// symmetric and both apply the same strict `< R` test.
    fn neighbor_counts<P: Positions + ?Sized>(
        &mut self,
        user_locations: &P,
    ) -> Result<Vec<usize>, CoreError> {
        match self.indexing {
            IndexingMode::CellSweep => {
                if self.cell_counter.is_none() {
                    let task_locations = self.specs.iter().map(|s| s.location()).collect();
                    let mut counter =
                        CellSweepCounter::new(self.area, self.neighbor_radius, task_locations);
                    counter.set_recorder(&self.recorder);
                    self.cell_counter = Some(counter);
                }
                let counter = self.cell_counter.as_mut().expect("initialised above");
                Ok(counter.counts(user_locations)?.to_vec())
            }
            IndexingMode::NaiveReference => {
                for i in 0..user_locations.len() {
                    let p = user_locations.at(i);
                    if !self.area.contains(p) {
                        return Err(GeoError::OutOfBounds { point: p }.into());
                    }
                }
                let task_locations: Vec<Point> = self.specs.iter().map(|s| s.location()).collect();
                Ok(naive_counts_in(&task_locations, user_locations, self.neighbor_radius))
            }
        }
    }

    /// Records one measurement of `task` by `user` during the open
    /// round, returning the reward paid.
    ///
    /// # Errors
    ///
    /// * [`CoreError::RoundNotOpen`] outside a round;
    /// * [`CoreError::UnknownTask`] for an id the platform doesn't know;
    /// * [`CoreError::TaskComplete`] if the task already has `φ_i`
    ///   measurements (complete tasks are not published);
    /// * [`CoreError::DuplicateContribution`] if `user` contributed to
    ///   `task` before (the paper's once-per-user rule).
    pub fn submit(&mut self, user: UserId, task: TaskId) -> Result<f64, CoreError> {
        if !self.round_open {
            return Err(CoreError::RoundNotOpen);
        }
        let i = task.0;
        let spec = *self.specs.get(i).ok_or(CoreError::UnknownTask(task))?;
        if self.received[i] >= spec.required() {
            return Err(CoreError::TaskComplete(task));
        }
        let reward = self.current_rewards[i];
        if reward > self.remaining_budget() {
            return Err(CoreError::BudgetExhausted { task, remaining: self.remaining_budget() });
        }
        let contributors = &mut self.contributors[i];
        let Err(at) = contributors.binary_search(&user) else {
            return Err(CoreError::DuplicateContribution { user, task });
        };
        contributors.insert(at, user);
        self.received[i] += 1;
        *self.round_receipts[i].last_mut().expect("round receipts opened") += 1;
        if self.received[i] >= spec.required() {
            self.completed_round[i] = Some(self.round);
        }
        self.total_paid += reward;
        Ok(reward)
    }

    /// Closes the open round.
    pub fn finish_round(&mut self) {
        self.round_open = false;
    }

    /// The current round number (0 before the first
    /// [`publish_round`](Self::publish_round)).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The task specifications, in id order.
    #[must_use]
    pub fn specs(&self) -> &[TaskSpec] {
        &self.specs
    }

    /// Measurements received so far for `task`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for an unknown id.
    pub fn received(&self, task: TaskId) -> Result<u32, CoreError> {
        self.received.get(task.0).copied().ok_or(CoreError::UnknownTask(task))
    }

    /// Measurements received per round for `task` (index 0 = round 1).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for an unknown id.
    pub fn round_receipts(&self, task: TaskId) -> Result<&[u32], CoreError> {
        self.round_receipts.get(task.0).map(Vec::as_slice).ok_or(CoreError::UnknownTask(task))
    }

    /// The round at which `task` reached `φ_i` measurements, if it has.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for an unknown id.
    pub fn completed_round(&self, task: TaskId) -> Result<Option<u32>, CoreError> {
        self.completed_round.get(task.0).copied().ok_or(CoreError::UnknownTask(task))
    }

    /// Whether every task has all its measurements.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.specs.iter().enumerate().all(|(i, s)| self.received[i] >= s.required())
    }

    /// Total rewards paid to users so far.
    #[must_use]
    pub fn total_paid(&self) -> f64 {
        self.total_paid
    }

    /// Number of distinct users who contributed to `task`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for an unknown id.
    pub fn contributor_count(&self, task: TaskId) -> Result<usize, CoreError> {
        self.contributors.get(task.0).map(Vec::len).ok_or(CoreError::UnknownTask(task))
    }

    /// The mechanism, for inspection.
    #[must_use]
    pub fn mechanism(&self) -> &M {
        &self.mechanism
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incentive::OnDemandIncentive;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    fn specs() -> Vec<TaskSpec> {
        vec![
            TaskSpec::new(TaskId(0), Point::new(100.0, 100.0), 5, 2).unwrap(),
            TaskSpec::new(TaskId(1), Point::new(900.0, 900.0), 5, 2).unwrap(),
        ]
    }

    fn platform() -> Platform<OnDemandIncentive> {
        let s = specs();
        let mech = OnDemandIncentive::paper_default(&s).unwrap();
        Platform::new(s, mech, Rect::square(1000.0).unwrap(), 200.0).unwrap()
    }

    #[test]
    fn constructor_validation() {
        let mech = OnDemandIncentive::paper_default(&specs()).unwrap();
        let area = Rect::square(1000.0).unwrap();
        assert!(matches!(
            Platform::new(vec![], mech.clone(), area, 200.0),
            Err(CoreError::InvalidCount { name: "tasks", .. })
        ));
        let sparse = vec![TaskSpec::new(TaskId(3), Point::new(1.0, 1.0), 5, 2).unwrap()];
        assert!(matches!(
            Platform::new(sparse, mech.clone(), area, 200.0),
            Err(CoreError::InvalidCount { name: "task_id", value: 3 })
        ));
        assert!(matches!(
            Platform::new(specs(), mech, area, 0.0),
            Err(CoreError::InvalidParameter { name: "neighbor_radius", .. })
        ));
    }

    #[test]
    fn round_protocol_happy_path() {
        let mut p = platform();
        let mut r = rng();
        let users = vec![Point::new(110.0, 110.0)];
        let published = p.publish_round(&users, &mut r).unwrap();
        assert_eq!(published.len(), 2);
        assert_eq!(p.round(), 1);
        // Task 1 (far from the user) must be priced at least as high:
        // same deadline/progress, fewer neighbours.
        assert!(published[1].reward >= published[0].reward);

        let paid = p.submit(UserId(0), TaskId(0)).unwrap();
        assert_eq!(paid, published[0].reward);
        assert_eq!(p.received(TaskId(0)).unwrap(), 1);
        assert_eq!(p.total_paid(), paid);
        p.finish_round();
    }

    #[test]
    fn submit_outside_round_rejected() {
        let mut p = platform();
        assert!(matches!(p.submit(UserId(0), TaskId(0)), Err(CoreError::RoundNotOpen)));
    }

    #[test]
    fn double_publish_rejected() {
        let mut p = platform();
        let mut r = rng();
        p.publish_round(&[], &mut r).unwrap();
        assert!(matches!(p.publish_round(&[], &mut r), Err(CoreError::RoundNotOpen)));
    }

    #[test]
    fn duplicate_contribution_rejected() {
        let mut p = platform();
        let mut r = rng();
        p.publish_round(&[], &mut r).unwrap();
        p.submit(UserId(0), TaskId(0)).unwrap();
        assert!(matches!(
            p.submit(UserId(0), TaskId(0)),
            Err(CoreError::DuplicateContribution { user: UserId(0), task: TaskId(0) })
        ));
        // A different user may still contribute.
        assert!(p.submit(UserId(1), TaskId(0)).is_ok());
    }

    #[test]
    fn unknown_task_rejected() {
        let mut p = platform();
        let mut r = rng();
        p.publish_round(&[], &mut r).unwrap();
        assert!(matches!(p.submit(UserId(0), TaskId(9)), Err(CoreError::UnknownTask(_))));
        assert!(matches!(p.received(TaskId(9)), Err(CoreError::UnknownTask(_))));
        assert!(matches!(p.completed_round(TaskId(9)), Err(CoreError::UnknownTask(_))));
        assert!(matches!(p.contributor_count(TaskId(9)), Err(CoreError::UnknownTask(_))));
        assert!(matches!(p.round_receipts(TaskId(9)), Err(CoreError::UnknownTask(_))));
    }

    #[test]
    fn completion_recorded_and_complete_tasks_unpublished() {
        let mut p = platform();
        let mut r = rng();
        p.publish_round(&[], &mut r).unwrap();
        p.submit(UserId(0), TaskId(0)).unwrap();
        p.submit(UserId(1), TaskId(0)).unwrap();
        assert_eq!(p.completed_round(TaskId(0)).unwrap(), Some(1));
        assert!(matches!(p.submit(UserId(2), TaskId(0)), Err(CoreError::TaskComplete(_))));
        p.finish_round();
        assert!(!p.all_complete());

        let published = p.publish_round(&[], &mut r).unwrap();
        assert_eq!(published.len(), 1, "complete task must not be republished");
        assert_eq!(published[0].id, TaskId(1));
        p.submit(UserId(0), TaskId(1)).unwrap();
        p.submit(UserId(1), TaskId(1)).unwrap();
        assert!(p.all_complete());
        assert_eq!(p.completed_round(TaskId(1)).unwrap(), Some(2));
        assert_eq!(p.contributor_count(TaskId(1)).unwrap(), 2);
    }

    #[test]
    fn round_receipts_track_per_round_counts() {
        let mut p = platform();
        let mut r = rng();
        p.publish_round(&[], &mut r).unwrap();
        p.submit(UserId(0), TaskId(0)).unwrap();
        p.finish_round();
        p.publish_round(&[], &mut r).unwrap();
        p.submit(UserId(1), TaskId(0)).unwrap();
        p.finish_round();
        assert_eq!(p.round_receipts(TaskId(0)).unwrap(), &[1, 1]);
        assert_eq!(p.round_receipts(TaskId(1)).unwrap(), &[0, 0]);
    }

    #[test]
    fn out_of_area_users_error() {
        let mut p = platform();
        let mut r = rng();
        let err = p.publish_round(&[Point::new(-5.0, 0.0)], &mut r).unwrap_err();
        assert!(matches!(err, CoreError::Geo(_)));
    }

    #[test]
    fn spend_cap_refuses_unaffordable_submissions() {
        let mut p = platform();
        let mut r = rng();
        // Rewards are in [0.5, 2.5]; a cap of 0.6 funds at most one
        // cheap measurement.
        p.set_spend_cap(0.6).unwrap();
        assert_eq!(p.remaining_budget(), 0.6);
        let published = p.publish_round(&[], &mut r).unwrap();
        // Only tasks priced within the cap are published at all.
        assert!(published.iter().all(|t| t.reward <= 0.6));
        let mut paid = 0.0;
        for t in &published {
            match p.submit(UserId(0), t.id) {
                Ok(x) => paid += x,
                Err(CoreError::BudgetExhausted { .. }) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(paid <= 0.6 + 1e-12);
        assert!(p.total_paid() <= 0.6 + 1e-12);
    }

    #[test]
    fn spend_cap_validation_and_default() {
        let mut p = platform();
        assert_eq!(p.remaining_budget(), f64::INFINITY);
        assert!(p.set_spend_cap(-1.0).is_err());
        assert!(p.set_spend_cap(f64::NAN).is_err());
        p.set_spend_cap(100.0).unwrap();
        assert_eq!(p.remaining_budget(), 100.0);
    }

    #[test]
    fn exhausted_platform_publishes_nothing() {
        let mut p = platform();
        let mut r = rng();
        p.set_spend_cap(0.0).unwrap();
        let published = p.publish_round(&[], &mut r).unwrap();
        assert!(published.is_empty());
    }

    #[test]
    fn expired_tasks_withdrawn_when_configured() {
        // Task 0 has deadline 1; strict mode drops it from round 2.
        let specs = vec![
            TaskSpec::new(TaskId(0), Point::new(100.0, 100.0), 1, 2).unwrap(),
            TaskSpec::new(TaskId(1), Point::new(900.0, 900.0), 9, 2).unwrap(),
        ];
        let mech = OnDemandIncentive::paper_default(&specs).unwrap();
        let mut p = Platform::new(specs, mech, Rect::square(1000.0).unwrap(), 200.0).unwrap();
        p.set_publish_expired(false);
        let mut r = rng();
        assert_eq!(p.publish_round(&[], &mut r).unwrap().len(), 2);
        p.finish_round();
        let round2 = p.publish_round(&[], &mut r).unwrap();
        assert_eq!(round2.len(), 1, "expired task must be withdrawn");
        assert_eq!(round2[0].id, TaskId(1));
    }

    #[test]
    fn indexing_modes_publish_identical_rounds() {
        use rand::Rng;
        let area = Rect::square(1000.0).unwrap();
        let mut move_rng = rng();
        let mut users: Vec<Point> = (0..60).map(|_| area.sample_uniform(&mut move_rng)).collect();
        let many_specs: Vec<TaskSpec> = (0..8)
            .map(|i| {
                TaskSpec::new(TaskId(i), Point::new(100.0 + 100.0 * i as f64, 500.0), 10, 30)
                    .unwrap()
            })
            .collect();
        let build = |mode: IndexingMode| {
            let mech = OnDemandIncentive::paper_default(&many_specs).unwrap();
            let mut p = Platform::new(many_specs.clone(), mech, area, 200.0).unwrap();
            p.set_indexing_mode(mode);
            p
        };
        let mut cell = build(IndexingMode::CellSweep);
        let mut naive = build(IndexingMode::NaiveReference);
        for round in 0..6 {
            // Move a third of the users, then (odd rounds) everyone, so
            // both the delta and the full-sweep rounds are compared.
            for u in users.iter_mut().skip(round % 3).step_by(if round % 2 == 0 { 3 } else { 1 }) {
                *u = area.sample_uniform(&mut move_rng);
            }
            let a = cell.publish_round(&users, &mut rng()).unwrap();
            let b = naive.publish_round(&users, &mut rng()).unwrap();
            assert_eq!(a, b, "round {round}: cell vs naive");
            // Rewards must be bit-identical, not just PartialEq-equal.
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.reward.to_bits(), y.reward.to_bits());
            }
            // Drive some submissions so progress (and thus pricing
            // inputs) evolve identically across both platforms.
            let mut pick = rng();
            for s in 0..10u64 {
                let uid = UserId((round as u64 * 10 + s) as usize);
                let tid = TaskId(pick.gen_range(0..many_specs.len()));
                assert_eq!(cell.submit(uid, tid).is_ok(), naive.submit(uid, tid).is_ok());
            }
            cell.finish_round();
            naive.finish_round();
        }
        assert_eq!(cell.total_paid().to_bits(), naive.total_paid().to_bits());
    }

    #[test]
    fn all_indexing_modes_reject_out_of_area_users() {
        for mode in [IndexingMode::CellSweep, IndexingMode::NaiveReference] {
            let mut p = platform();
            p.set_indexing_mode(mode);
            let mut r = rng();
            // A good round first so sweep state exists.
            p.publish_round(&[Point::new(10.0, 10.0)], &mut r).unwrap();
            p.finish_round();
            let err = p
                .publish_round(&[Point::new(10.0, 10.0), Point::new(-5.0, 0.0)], &mut r)
                .unwrap_err();
            assert!(matches!(err, CoreError::Geo(_)), "{mode:?}");
            assert_eq!(p.round(), 1, "{mode:?}: failed publish must not advance the round");
            // The platform still works afterwards.
            p.publish_round(&[Point::new(10.0, 10.0)], &mut r).unwrap();
            assert_eq!(p.round(), 2);
        }
    }

    #[test]
    fn default_mode_is_cell_sweep() {
        let p = platform();
        assert_eq!(p.indexing_mode(), IndexingMode::CellSweep);
    }

    #[test]
    fn stale_publish_reposts_previous_prices() {
        let mut p = platform();
        let mut r = rng();
        let first = p.publish_round(&[], &mut r).unwrap();
        p.finish_round();
        let stale = p.publish_round_stale().unwrap();
        assert_eq!(p.round(), 2);
        assert_eq!(first, stale, "stale round must re-post last round's book verbatim");
        for (a, b) in first.iter().zip(&stale) {
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        }
        p.finish_round();
    }

    #[test]
    fn stale_publish_drops_completed_and_unaffordable_tasks() {
        let mut p = platform();
        let mut r = rng();
        let first = p.publish_round(&[], &mut r).unwrap();
        // Complete task 0 so the stale round must not re-post it.
        p.submit(UserId(0), TaskId(0)).unwrap();
        p.submit(UserId(1), TaskId(0)).unwrap();
        p.finish_round();
        let stale = p.publish_round_stale().unwrap();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].id, TaskId(1));
        assert_eq!(stale[0].reward, first[1].reward);
        p.finish_round();
        // Now cap the budget to zero remaining: nothing is affordable.
        p.set_spend_cap(p.total_paid()).unwrap();
        assert!(p.publish_round_stale().unwrap().is_empty());
    }

    #[test]
    fn stale_publish_requires_a_priced_round_first() {
        let mut p = platform();
        assert!(matches!(p.publish_round_stale(), Err(CoreError::RoundNotOpen)));
        let mut r = rng();
        p.publish_round(&[], &mut r).unwrap();
        // Mid-round stale publish is protocol misuse too.
        assert!(matches!(p.publish_round_stale(), Err(CoreError::RoundNotOpen)));
    }

    #[test]
    fn state_roundtrip_restores_settlement_exactly() {
        let mut p = platform();
        let mut r = rng();
        p.set_spend_cap(50.0).unwrap();
        p.publish_round(&[Point::new(110.0, 110.0)], &mut r).unwrap();
        p.submit(UserId(0), TaskId(0)).unwrap();
        p.submit(UserId(3), TaskId(1)).unwrap();
        p.finish_round();
        let state = p.export_state().unwrap();

        let s = specs();
        let mech = OnDemandIncentive::paper_default(&s).unwrap();
        let mut q = Platform::new(s, mech, Rect::square(1000.0).unwrap(), 200.0).unwrap();
        q.restore_state(state.clone()).unwrap();
        assert_eq!(q.round(), p.round());
        assert_eq!(q.total_paid().to_bits(), p.total_paid().to_bits());
        assert_eq!(q.remaining_budget(), p.remaining_budget());
        assert_eq!(q.received(TaskId(0)).unwrap(), 1);
        assert_eq!(q.contributor_count(TaskId(1)).unwrap(), 1);
        assert_eq!(q.round_receipts(TaskId(0)).unwrap(), p.round_receipts(TaskId(0)).unwrap());
        // The restored platform continues the protocol identically.
        let mut r2 = r.clone();
        let a = p.publish_round(&[Point::new(110.0, 110.0)], &mut r).unwrap();
        let b = q.publish_round(&[Point::new(110.0, 110.0)], &mut r2).unwrap();
        assert_eq!(a, b);
        // The duplicate-contribution rule survives the roundtrip.
        assert!(matches!(
            q.submit(UserId(0), TaskId(0)),
            Err(CoreError::DuplicateContribution { .. })
        ));
        // Exported state is canonical.
        q.finish_round();
        p.finish_round();
        assert_eq!(p.export_state().unwrap(), q.export_state().unwrap());
    }

    #[test]
    fn export_mid_round_and_mismatched_restore_rejected() {
        let mut p = platform();
        let mut r = rng();
        p.publish_round(&[], &mut r).unwrap();
        assert!(matches!(p.export_state(), Err(CoreError::RoundNotOpen)));
        p.finish_round();
        let mut state = p.export_state().unwrap();
        state.received.to_mut().pop();
        assert!(matches!(
            platform().restore_state(state),
            Err(CoreError::InvalidCount { name: "platform state tasks", .. })
        ));
    }

    #[test]
    fn task_progress_helpers() {
        let tp = TaskProgress {
            id: TaskId(0),
            location: Point::ORIGIN,
            deadline: 5,
            required: 4,
            received: 2,
            neighbors: 3,
        };
        assert_eq!(tp.progress(), 0.5);
        assert!(!tp.is_complete());
        let done = TaskProgress { received: 4, ..tp };
        assert!(done.is_complete());
        assert_eq!(done.progress(), 1.0);
    }
}
