//! Distributed task selection: each user solves their own
//! profit-maximisation problem (§V) against the round's published tasks.
//!
//! [`SelectionProblem`] captures one user's view — location, the
//! published tasks they may still contribute to, and their travel
//! economics. [`SelectorKind`] names the algorithm and
//! [`SelectorKind::solve`] runs the routing solver it names:
//!
//! * [`SelectorKind::Dp`] — the paper's optimal bitmask-DP algorithm;
//! * [`SelectorKind::Greedy`] — the paper's `O(m²)` greedy;
//! * [`SelectorKind::GreedyTwoOpt`] — greedy polished with 2-opt route
//!   shortening (an extension for the ablation study);
//! * [`SelectorKind::Insertion`] — profit-aware cheapest insertion
//!   (another polynomial extension baseline);
//! * [`SelectorKind::BranchBound`] — exact branch and bound, no
//!   task-count cap (extension).

use serde::{Deserialize, Serialize};

use paydemand_geo::Point;
pub use paydemand_routing::SolveStats;
use paydemand_routing::{branch_bound, insertion, orienteering, CostMatrix};

use crate::{CoreError, PublishedTask, TaskId};

/// Which task-selection algorithm users run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectorKind {
    /// The paper's optimal bitmask DP (§V-A, Eq. 11–12): exact, but
    /// exponential in the task count (Theorem 2), so it refuses more
    /// than 25 tasks. `candidate_cap` bounds how many (nearest
    /// reachable) tasks enter it; `None` means uncapped. The cap is the
    /// engine's pre-filter, applied before it builds the problem:
    /// [`solve`](Self::solve) runs the DP over every task of the problem
    /// it is given.
    Dp {
        /// Keep only this many nearest reachable candidates (None = all).
        candidate_cap: Option<usize>,
    },
    /// The paper's `O(m²)` greedy (§V-B, Theorem 3): "each mobile user
    /// will greedily select the task which can mostly increase the
    /// total profit at each step within the traveling time/distance
    /// budget until no satisfied task can be found".
    Greedy,
    /// Greedy + 2-opt polish, the saved distance re-invested into
    /// further greedy picks (extension).
    GreedyTwoOpt,
    /// Profit-aware cheapest insertion (extension): each task goes where
    /// in the route it costs least, so tasks on the way come nearly
    /// free. `O(m³)` worst case.
    Insertion,
    /// Exact branch and bound, no task-count cap (extension); degrades
    /// to factorial time when the budget leaves the search unpruned.
    BranchBound,
}

impl SelectorKind {
    /// Exact DP with no candidate cap.
    #[must_use]
    pub const fn exact_dp() -> Self {
        SelectorKind::Dp { candidate_cap: None }
    }

    /// Stable label used in reports and as the `selector` label of the
    /// selector metrics.
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

    /// Solves `problem` with the routing solver this kind names,
    /// returning the chosen tasks and economics with the solver's work
    /// counters (all zero for insertion, which keeps none).
    ///
    /// # Errors
    ///
    /// [`CoreError::Routing`] when the DP refuses the problem (more
    /// than 25 tasks).
    ///
    /// # Examples
    ///
    /// ```
    /// use paydemand_core::selection::{SelectionProblem, SelectorKind};
    /// use paydemand_core::{PublishedTask, TaskId};
    /// use paydemand_geo::Point;
    ///
    /// let tasks = [
    ///     PublishedTask { id: TaskId(0), location: Point::new(1000.0, 0.0), reward: 3.0 },
    ///     PublishedTask { id: TaskId(1), location: Point::new(500.0, 0.0), reward: 1.0 },
    /// ];
    /// let problem = SelectionProblem::new(Point::ORIGIN, &tasks, 600.0, 2.0, 0.002)?;
    /// // t1 lies on the way to t0: the exact solvers and insertion visit
    /// // both, while the greedy, which only appends, heads for t0 alone.
    /// for kind in [SelectorKind::exact_dp(), SelectorKind::BranchBound, SelectorKind::Insertion] {
    ///     let (outcome, _) = kind.solve(&problem)?;
    ///     assert_eq!(outcome.tasks(), &[TaskId(1), TaskId(0)]);
    /// }
    /// let (greedy, stats) = SelectorKind::Greedy.solve(&problem)?;
    /// assert_eq!(greedy.tasks(), &[TaskId(0)]);
    /// assert_eq!(stats.iterations, 2); // one pick, then a pass that finds none
    /// # Ok::<(), paydemand_core::CoreError>(())
    /// ```
    pub fn solve(
        self,
        problem: &SelectionProblem,
    ) -> Result<(SelectionOutcome, SolveStats), CoreError> {
        let instance = problem.instance()?;
        let (solution, stats) = match self {
            SelectorKind::Dp { .. } => orienteering::solve_exact(&instance)?,
            SelectorKind::Greedy => orienteering::solve_greedy(&instance),
            SelectorKind::GreedyTwoOpt => orienteering::solve_greedy_two_opt(&instance),
            SelectorKind::Insertion => {
                (insertion::solve_insertion(&instance), SolveStats::default())
            }
            SelectorKind::BranchBound => branch_bound::solve_branch_bound(&instance),
        };
        Ok((problem.outcome_from(solution), stats))
    }
}

/// One user's task-selection problem at one sensing round.
#[derive(Debug, Clone)]
pub struct SelectionProblem {
    location: Point,
    tasks: Vec<PublishedTask>,
    costs: CostMatrix,
    /// Per-task rewards, in `tasks` order.
    rewards: Vec<f64>,
    distance_budget: f64,
    cost_per_meter: f64,
    /// Per-task sensing time converted to distance-equivalent units.
    service: Vec<f64>,
}

impl SelectionProblem {
    /// Builds the problem. `tasks` should already be filtered to those
    /// the user may still contribute to (incomplete, not yet contributed
    /// by this user). `time_budget` is in seconds, `speed` in m/s.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for non-finite/negative budget,
    /// non-positive speed, or negative/non-finite cost rate.
    pub fn new(
        location: Point,
        tasks: &[PublishedTask],
        time_budget: f64,
        speed: f64,
        cost_per_meter: f64,
    ) -> Result<Self, CoreError> {
        let locations: Vec<Point> = tasks.iter().map(|t| t.location).collect();
        let costs = CostMatrix::from_points(location, &locations);
        SelectionProblem::with_costs(location, tasks, costs, time_budget, speed, cost_per_meter)
    }

    /// Builds the problem over an explicit travel-cost matrix (e.g. a
    /// road-network matrix from
    /// [`paydemand_geo::network::RoadNetwork::travel_matrix`]), instead
    /// of straight-line distances.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), plus [`CoreError::InvalidCount`] if
    /// `costs` covers a different number of tasks than `tasks`.
    pub fn with_costs(
        location: Point,
        tasks: &[PublishedTask],
        costs: CostMatrix,
        time_budget: f64,
        speed: f64,
        cost_per_meter: f64,
    ) -> Result<Self, CoreError> {
        if !time_budget.is_finite() || time_budget < 0.0 {
            return Err(CoreError::InvalidParameter { name: "time_budget", value: time_budget });
        }
        if !speed.is_finite() || speed <= 0.0 {
            return Err(CoreError::InvalidParameter { name: "speed", value: speed });
        }
        if !cost_per_meter.is_finite() || cost_per_meter < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "cost_per_meter",
                value: cost_per_meter,
            });
        }
        if costs.tasks() != tasks.len() {
            return Err(CoreError::InvalidCount {
                name: "cost_matrix_tasks",
                value: costs.tasks(),
            });
        }
        Ok(SelectionProblem {
            location,
            tasks: tasks.to_vec(),
            costs,
            rewards: tasks.iter().map(|t| t.reward).collect(),
            distance_budget: time_budget * speed,
            cost_per_meter,
            service: Vec::new(),
        })
    }

    /// Attaches a uniform sensing time per task, in seconds — the
    /// generalisation of Eq. 1 the paper's "the time for data sensing
    /// ... is negligible" assumption sets to zero. Sensing time
    /// consumes the time budget but costs no movement money.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a negative or non-finite
    /// time.
    pub fn with_sensing_seconds(mut self, seconds: f64, speed: f64) -> Result<Self, CoreError> {
        if !seconds.is_finite() || seconds < 0.0 {
            return Err(CoreError::InvalidParameter { name: "sensing_seconds", value: seconds });
        }
        self.service = vec![seconds * speed; self.tasks.len()];
        Ok(self)
    }

    /// The per-task service loads (distance-equivalent; empty = none).
    #[must_use]
    pub fn service(&self) -> &[f64] {
        &self.service
    }

    /// The user's location.
    #[must_use]
    pub fn location(&self) -> Point {
        self.location
    }

    /// The candidate tasks.
    #[must_use]
    pub fn tasks(&self) -> &[PublishedTask] {
        &self.tasks
    }

    /// The travel budget in metres.
    #[must_use]
    pub fn distance_budget(&self) -> f64 {
        self.distance_budget
    }

    /// The movement cost rate in currency per metre.
    #[must_use]
    pub fn cost_per_meter(&self) -> f64 {
        self.cost_per_meter
    }

    /// The routing-layer instance for this problem, borrowing its
    /// costs, rewards and service loads.
    fn instance(&self) -> Result<orienteering::Instance<'_>, CoreError> {
        let instance = orienteering::Instance::new(
            &self.costs,
            &self.rewards,
            self.distance_budget,
            self.cost_per_meter,
        )?;
        if self.service.is_empty() {
            Ok(instance)
        } else {
            Ok(instance.with_service(&self.service)?)
        }
    }

    /// Maps a routing solution (local indices) back to task ids.
    fn outcome_from(&self, solution: orienteering::Solution) -> SelectionOutcome {
        SelectionOutcome {
            tasks: solution.order.iter().map(|&j| self.tasks[j].id).collect(),
            distance: solution.distance,
            reward: solution.reward,
            profit: solution.profit,
            end_location: solution.order.last().map_or(self.location, |&j| self.tasks[j].location),
        }
    }
}

/// A selector's decision: which tasks to perform (in visiting order) and
/// the resulting economics for the user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionOutcome {
    tasks: Vec<TaskId>,
    distance: f64,
    reward: f64,
    profit: f64,
    end_location: Point,
}

impl SelectionOutcome {
    /// The do-nothing outcome at `location`.
    #[must_use]
    pub fn stay_home(location: Point) -> Self {
        SelectionOutcome {
            tasks: Vec::new(),
            distance: 0.0,
            reward: 0.0,
            profit: 0.0,
            end_location: location,
        }
    }

    /// Visit order, as task ids.
    #[must_use]
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Total travel distance in metres.
    #[must_use]
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Total reward the user will collect.
    #[must_use]
    pub fn reward(&self) -> f64 {
        self.reward
    }

    /// The user's profit `P(T^k_{u_i})` (Eq. 1).
    #[must_use]
    pub fn profit(&self) -> f64 {
        self.profit
    }

    /// Where the user ends the round (the last visited task, or their
    /// start if they stayed home).
    #[must_use]
    pub fn end_location(&self) -> Point {
        self.end_location
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn published(id: usize, x: f64, y: f64, reward: f64) -> PublishedTask {
        PublishedTask { id: TaskId(id), location: Point::new(x, y), reward }
    }

    /// The outcome `kind` chooses for `problem`.
    fn select(kind: SelectorKind, problem: &SelectionProblem) -> SelectionOutcome {
        kind.solve(problem).unwrap().0
    }

    const DP: SelectorKind = SelectorKind::exact_dp();

    #[test]
    fn problem_validation() {
        let tasks = [published(0, 1.0, 1.0, 1.0)];
        assert!(SelectionProblem::new(Point::ORIGIN, &tasks, 100.0, 2.0, 0.002).is_ok());
        assert!(SelectionProblem::new(Point::ORIGIN, &tasks, -1.0, 2.0, 0.002).is_err());
        assert!(SelectionProblem::new(Point::ORIGIN, &tasks, 1.0, 0.0, 0.002).is_err());
        assert!(SelectionProblem::new(Point::ORIGIN, &tasks, 1.0, 2.0, -0.002).is_err());
    }

    #[test]
    fn distance_budget_is_time_times_speed() {
        let p = SelectionProblem::new(Point::ORIGIN, &[], 500.0, 2.0, 0.002).unwrap();
        assert_eq!(p.distance_budget(), 1000.0);
        assert!(p.tasks().is_empty());
        assert_eq!(p.location(), Point::ORIGIN);
        assert_eq!(p.cost_per_meter(), 0.002);
    }

    #[test]
    fn with_costs_overrides_travel() {
        // A Manhattan cost matrix makes the single task 20 m away
        // instead of the Euclidean ~14.1 m.
        let tasks = [published(0, 10.0, 10.0, 1.0)];
        let manhattan = CostMatrix::from_fn(
            vec![Point::ORIGIN.manhattan_distance(Point::new(10.0, 10.0))],
            |_, _| 0.0,
        );
        let p = SelectionProblem::with_costs(Point::ORIGIN, &tasks, manhattan, 100.0, 2.0, 0.002)
            .unwrap();
        assert_eq!(select(SelectorKind::Greedy, &p).distance(), 20.0);
        // Mismatched matrix size is rejected.
        let wrong = CostMatrix::from_fn(vec![1.0, 2.0], |_, _| 0.0);
        assert!(matches!(
            SelectionProblem::with_costs(Point::ORIGIN, &tasks, wrong, 100.0, 2.0, 0.002),
            Err(CoreError::InvalidCount { name: "cost_matrix_tasks", .. })
        ));
    }

    #[test]
    fn stay_home_outcome() {
        let o = SelectionOutcome::stay_home(Point::new(3.0, 4.0));
        assert!(o.tasks().is_empty());
        assert_eq!(o.profit(), 0.0);
        assert_eq!(o.end_location(), Point::new(3.0, 4.0));
    }

    #[test]
    fn picks_profit_maximal_subset() {
        // Near cheap task and far rich task; budget covers either alone.
        let tasks = vec![published(0, 100.0, 0.0, 1.0), published(1, 0.0, 900.0, 5.0)];
        // 600 s × 2 m/s = 1200 m: enough for 0 -> t0 -> t1 (~1006 m).
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 600.0, 2.0, 0.002).unwrap();
        let o = select(DP, &p);
        // Profit(t1 alone) = 5 − 1.8 = 3.2; both ≈ 6 − 2.01 = 3.99.
        assert_eq!(o.tasks().len(), 2);
        assert!(o.profit() > 3.2);
        assert_eq!(o.end_location(), Point::new(0.0, 900.0));
    }

    #[test]
    fn equal_profit_ties_resolve_the_same_way_every_time() {
        // Mirror images 100 m either side; 75 s × 2 m/s = 150 m fits one.
        let tasks = vec![published(0, 100.0, 0.0, 1.0), published(1, -100.0, 0.0, 1.0)];
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 75.0, 2.0, 0.002).unwrap();
        for _ in 0..200 {
            assert_eq!(select(DP, &p).tasks(), &[TaskId(0)]);
        }
    }

    #[test]
    fn respects_time_budget() {
        let tasks = vec![published(0, 3000.0, 0.0, 100.0)];
        // 500 s × 2 m/s = 1000 m < 3000 m away.
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 500.0, 2.0, 0.002).unwrap();
        let o = select(DP, &p);
        assert!(o.tasks().is_empty());
        assert_eq!(o.profit(), 0.0);
    }

    #[test]
    fn declines_unprofitable_tasks() {
        let tasks = vec![published(0, 1000.0, 0.0, 1.0)]; // cost 2 > reward 1
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 10_000.0, 2.0, 0.002).unwrap();
        assert!(select(DP, &p).tasks().is_empty());
    }

    #[test]
    fn too_many_tasks_is_a_core_error() {
        let tasks: Vec<_> = (0..30).map(|i| published(i, i as f64, 0.0, 1.0)).collect();
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 500.0, 2.0, 0.002).unwrap();
        assert!(matches!(DP.solve(&p), Err(CoreError::Routing(_))));
    }

    #[test]
    fn orders_visits_to_minimise_travel() {
        // Tasks on a line: optimal order is outward sweep.
        let tasks = vec![
            published(0, 200.0, 0.0, 2.0),
            published(1, 100.0, 0.0, 2.0),
            published(2, 300.0, 0.0, 2.0),
        ];
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 1000.0, 2.0, 0.002).unwrap();
        let o = select(DP, &p);
        assert_eq!(o.tasks(), &[TaskId(1), TaskId(0), TaskId(2)]);
        assert_eq!(o.distance(), 300.0);
    }

    #[test]
    fn greedy_scales_past_the_dp_cap() {
        let tasks: Vec<_> = (0..200)
            .map(|i| published(i, (i % 20) as f64 * 50.0, (i / 20) as f64 * 50.0, 1.0))
            .collect();
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 2000.0, 2.0, 0.002).unwrap();
        let o = select(SelectorKind::Greedy, &p);
        assert!(o.distance() <= p.distance_budget());
        assert!(!o.tasks().is_empty());
        assert!(o.profit() > 0.0);
    }

    #[test]
    fn two_opt_never_worse_than_greedy() {
        let tasks = vec![
            published(0, 100.0, 0.0, 1.0),
            published(1, 0.0, 100.0, 1.0),
            published(2, 100.0, 100.0, 1.0),
            published(3, 200.0, 0.0, 1.0),
        ];
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 1000.0, 2.0, 0.002).unwrap();
        let g = select(SelectorKind::Greedy, &p);
        let t = select(SelectorKind::GreedyTwoOpt, &p);
        assert!(t.profit() >= g.profit() - 1e-12);
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(SelectorKind::Greedy.label(), "greedy");
        assert_eq!(SelectorKind::GreedyTwoOpt.label(), "greedy+2opt");
    }

    #[test]
    fn empty_problem_stays_home() {
        let p = SelectionProblem::new(Point::ORIGIN, &[], 1000.0, 2.0, 0.002).unwrap();
        for kind in [SelectorKind::Greedy, SelectorKind::GreedyTwoOpt] {
            let o = select(kind, &p);
            assert!(o.tasks().is_empty());
            assert_eq!(o.end_location(), Point::ORIGIN);
        }
    }

    #[test]
    fn insertion_label_and_empty() {
        assert_eq!(SelectorKind::Insertion.label(), "insertion");
        let p = SelectionProblem::new(Point::ORIGIN, &[], 100.0, 2.0, 0.002).unwrap();
        assert!(select(SelectorKind::Insertion, &p).tasks().is_empty());
    }

    #[test]
    fn branch_bound_label_and_empty() {
        assert_eq!(SelectorKind::BranchBound.label(), "branch-bound");
        let p = SelectionProblem::new(Point::ORIGIN, &[], 100.0, 2.0, 0.002).unwrap();
        assert!(select(SelectorKind::BranchBound, &p).tasks().is_empty());
    }

    #[test]
    fn handles_more_tasks_than_the_dp_cap() {
        let tasks: Vec<_> = (0..40)
            .map(|i| published(i, (i % 8) as f64 * 150.0, (i / 8) as f64 * 150.0, 1.0))
            .collect();
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 400.0, 2.0, 0.002).unwrap();
        assert!(DP.solve(&p).is_err(), "dp should refuse 40 tasks");
        let o = select(SelectorKind::BranchBound, &p);
        assert!(o.distance() <= p.distance_budget() + 1e-9);
        assert!(o.profit() >= 0.0);
    }

    /// Up to 7 tasks over a 1.5 km square, the user at its centre.
    fn random_problem(
        coords: &[(f64, f64)],
        rewards: &[f64],
        time_budget: f64,
    ) -> SelectionProblem {
        let tasks: Vec<_> =
            coords.iter().enumerate().map(|(i, &(x, y))| published(i, x, y, rewards[i])).collect();
        SelectionProblem::new(Point::new(750.0, 750.0), &tasks, time_budget, 2.0, 0.002).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn dp_dominates_heuristics(
            coords in proptest::collection::vec((0.0..1500.0f64, 0.0..1500.0f64), 0..7),
            rewards in proptest::collection::vec(0.5..2.5f64, 7),
            time_budget in 0.0..2000.0f64,
        ) {
            let p = random_problem(&coords, &rewards, time_budget);
            let dp = select(DP, &p);
            let greedy = select(SelectorKind::Greedy, &p);
            let two = select(SelectorKind::GreedyTwoOpt, &p);
            prop_assert!(dp.profit() >= greedy.profit() - 1e-9);
            prop_assert!(dp.profit() >= two.profit() - 1e-9);
            prop_assert!(two.profit() >= greedy.profit() - 1e-9);
            for o in [&dp, &greedy, &two] {
                prop_assert!(o.distance() <= p.distance_budget() + 1e-9);
                prop_assert!(o.profit() >= 0.0);
            }
        }

        #[test]
        fn insertion_bounded_by_dp(
            coords in proptest::collection::vec((0.0..1500.0f64, 0.0..1500.0f64), 0..7),
            rewards in proptest::collection::vec(0.5..2.5f64, 7),
            time_budget in 0.0..1500.0f64,
        ) {
            let p = random_problem(&coords, &rewards, time_budget);
            let ins = select(SelectorKind::Insertion, &p);
            let dp = select(DP, &p);
            prop_assert!(ins.profit() <= dp.profit() + 1e-9);
            prop_assert!(ins.distance() <= p.distance_budget() + 1e-9);
            prop_assert!(ins.profit() >= 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matches_dp_profit(
            coords in proptest::collection::vec((0.0..1500.0f64, 0.0..1500.0f64), 0..7),
            rewards in proptest::collection::vec(0.5..2.5f64, 7),
            time_budget in 0.0..1200.0f64,
        ) {
            let p = random_problem(&coords, &rewards, time_budget);
            let bb = select(SelectorKind::BranchBound, &p);
            let dp = select(DP, &p);
            prop_assert!((bb.profit() - dp.profit()).abs() < 1e-9);
        }
    }
}
