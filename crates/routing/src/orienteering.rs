//! Profit-maximising task selection (the paper's §V solvers).
//!
//! An [`Instance`] borrows the cost matrix, the per-task rewards and
//! service loads, and carries the user's travel budget (already
//! converted from time to metres) and the movement cost rate. Two
//! solvers match the paper:
//!
//! * [`solve_exact`] — the optimal dynamic-programming algorithm:
//!   enumerate every budget-feasible subset via [`subset_dp`], score
//!   `P(ℓ) = R(ℓ) − C(ℓ)`, keep the best (steps 1–4 in §V-A);
//! * [`solve_greedy`] — the `O(m²)` marginal-profit greedy (§V-B).
//!
//! [`solve_greedy_two_opt`] additionally polishes the greedy route with
//! 2-opt and re-invests the saved distance into more tasks — an
//! extension used by the ablation benches. Each returns its
//! [`SolveStats`] beside the [`Solution`].
//!
//! [`subset_dp`]: crate::subset_dp

use std::cell::RefCell;
use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::{subset_dp, two_opt, CostMatrix, RoutingError, SubsetDp};

/// A task-selection problem instance for one user at one sensing round.
#[derive(Debug, Clone)]
pub struct Instance<'a> {
    costs: &'a CostMatrix,
    rewards: &'a [f64],
    distance_budget: f64,
    cost_per_meter: f64,
    /// Per-task service load in *distance-equivalent* units (sensing
    /// time × walking speed): consumes budget but not movement cost.
    /// Empty = all zero (the paper's negligible-sensing-time model).
    service: &'a [f64],
}

impl<'a> Instance<'a> {
    /// Creates an instance.
    ///
    /// `distance_budget` is in metres (the paper states time budgets;
    /// multiply by walking speed before calling). `cost_per_meter` is
    /// the movement cost rate (the paper uses 0.002 $/m).
    ///
    /// # Errors
    ///
    /// * [`RoutingError::RewardMismatch`] if `rewards.len()` differs
    ///   from the matrix's task count;
    /// * [`RoutingError::InvalidParameter`] for NaN/negative budget or
    ///   rate (`+∞` budget is allowed), or non-finite rewards.
    pub fn new(
        costs: &'a CostMatrix,
        rewards: &'a [f64],
        distance_budget: f64,
        cost_per_meter: f64,
    ) -> Result<Self, RoutingError> {
        if rewards.len() != costs.tasks() {
            return Err(RoutingError::RewardMismatch {
                tasks: costs.tasks(),
                rewards: rewards.len(),
            });
        }
        if distance_budget.is_nan() || distance_budget < 0.0 {
            return Err(RoutingError::InvalidParameter {
                name: "distance_budget",
                value: distance_budget,
            });
        }
        if !cost_per_meter.is_finite() || cost_per_meter < 0.0 {
            return Err(RoutingError::InvalidParameter {
                name: "cost_per_meter",
                value: cost_per_meter,
            });
        }
        if let Some(&bad) = rewards.iter().find(|r| !r.is_finite()) {
            return Err(RoutingError::InvalidParameter { name: "reward", value: bad });
        }
        Ok(Instance { costs, rewards, distance_budget, cost_per_meter, service: &[] })
    }

    /// Attaches per-task service loads, in distance-equivalent units
    /// (service seconds × walking speed). Service consumes the travel
    /// budget on arrival at a task but incurs no movement cost — the
    /// generalisation of Eq. 1 that the paper's "sensing time is
    /// negligible" assumption collapses to all-zeros.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::RewardMismatch`] if the length differs from
    ///   the task count (reported on the same variant, reusing its
    ///   `rewards` field for the supplied length);
    /// * [`RoutingError::InvalidParameter`] for negative or non-finite
    ///   loads.
    pub fn with_service(mut self, service: &'a [f64]) -> Result<Self, RoutingError> {
        if service.len() != self.costs.tasks() {
            return Err(RoutingError::RewardMismatch {
                tasks: self.costs.tasks(),
                rewards: service.len(),
            });
        }
        if let Some(&bad) = service.iter().find(|s| !s.is_finite() || **s < 0.0) {
            return Err(RoutingError::InvalidParameter { name: "service", value: bad });
        }
        self.service = service;
        Ok(self)
    }

    /// The service load of task `j` (0 when no service is configured).
    #[must_use]
    pub fn service_of(&self, j: usize) -> f64 {
        self.service.get(j).copied().unwrap_or(0.0)
    }

    /// The cost matrix.
    #[must_use]
    pub fn costs(&self) -> &CostMatrix {
        self.costs
    }

    /// Per-task rewards.
    #[must_use]
    pub fn rewards(&self) -> &[f64] {
        self.rewards
    }

    /// Travel budget in metres.
    #[must_use]
    pub fn distance_budget(&self) -> f64 {
        self.distance_budget
    }

    /// Movement cost rate in currency per metre.
    #[must_use]
    pub fn cost_per_meter(&self) -> f64 {
        self.cost_per_meter
    }

    /// Profit of visiting `order`: `Σ rewards − rate · route length`
    /// (service consumes time, not money).
    #[must_use]
    pub fn profit_of(&self, order: &[usize]) -> f64 {
        let reward: f64 = order.iter().map(|&j| self.rewards[j]).sum();
        reward - self.cost_per_meter * self.costs.route_length(order)
    }

    /// Total service load of a set of tasks given as a bitmask.
    pub(crate) fn service_load_mask(&self, mask: u32) -> f64 {
        if self.service.is_empty() {
            return 0.0;
        }
        subset_dp::bits(mask).map(|j| self.service[j]).sum()
    }

    /// Total service load of an explicit order.
    pub(crate) fn service_load(&self, order: &[usize]) -> f64 {
        order.iter().map(|&j| self.service_of(j)).sum()
    }
}

/// A solver's answer: which tasks to perform, in what order, and the
/// resulting economics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Visit order (task indices). Empty means "stay home".
    pub order: Vec<usize>,
    /// Total travel distance in metres.
    pub distance: f64,
    /// Total reward collected.
    pub reward: f64,
    /// `reward − cost_per_meter · distance`.
    pub profit: f64,
}

impl Solution {
    /// The do-nothing solution (profit 0).
    #[must_use]
    pub fn stay_home() -> Self {
        Solution { order: Vec::new(), distance: 0.0, reward: 0.0, profit: 0.0 }
    }

    /// Builds a solution from an order, computing the economics.
    #[must_use]
    pub fn from_order(order: Vec<usize>, instance: &Instance<'_>) -> Self {
        let distance = instance.costs().route_length(&order);
        let reward: f64 = order.iter().map(|&j| instance.rewards()[j]).sum();
        let profit = reward - instance.cost_per_meter() * distance;
        Solution { order, distance, reward, profit }
    }
}

impl Default for Solution {
    fn default() -> Self {
        Solution::stay_home()
    }
}

/// Work counters from one solve, for the observability layer. Which
/// fields a solver fills depends on the algorithm: the exact DP reports
/// `states_expanded` (finite states stored), branch and bound reports
/// `states_expanded` (nodes visited) and `nodes_pruned`, the greedy
/// family reports `iterations`. Insertion keeps no counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// DP states stored / B&B search nodes visited.
    pub states_expanded: u64,
    /// Search nodes cut by a bound.
    pub nodes_pruned: u64,
    /// Heuristic selection passes.
    pub iterations: u64,
}

/// The paper's optimal dynamic-programming task selection (§V-A).
///
/// Enumerates every budget-feasible subset with the pruned Held-Karp DP,
/// scores each by `P(ℓ) = R(ℓ) − C(ℓ)`, and returns the most profitable
/// (the empty set, profit 0, when nothing profitable is reachable — the
/// paper's rational-user assumption), with the number of finite DP
/// states the budget-pruned table stored (the solver's actual work;
/// feeds the `selector_states_expanded_total` metric).
///
/// The DP fills a table the calling thread keeps, so a warmed solve
/// allocates only the route it returns. Rows are scored in the order
/// the DP reached them and the first strictly most profitable one wins.
///
/// # Errors
///
/// Returns [`RoutingError::TooManyTasks`] past
/// [`MAX_TASKS`](crate::subset_dp::MAX_TASKS) tasks.
pub fn solve_exact(instance: &Instance<'_>) -> Result<(Solution, SolveStats), RoutingError> {
    thread_local! {
        static TABLE: RefCell<SubsetDp> = const { RefCell::new(SubsetDp::new()) };
    }
    TABLE.with(|table| {
        let mut dp = table.borrow_mut();
        dp.fill(instance.costs, instance.distance_budget)?;
        let solution = best_row(&dp, instance);
        let stats = SolveStats { states_expanded: dp.state_count(), ..SolveStats::default() };
        if dp.oversized() {
            *dp = SubsetDp::new();
        }
        Ok((solution, stats))
    })
}

/// Scores every reached row by `P(ℓ) = R(ℓ) − C(ℓ)` and reconstructs
/// the route of the first strictly most profitable one (stay home when
/// none beats profit 0).
fn best_row(dp: &SubsetDp, instance: &Instance<'_>) -> Solution {
    let (mut best_mask, mut best) = (0, Solution::stay_home());
    for (mask, ends) in dp.rows() {
        let distance = ends.iter().copied().fold(f64::INFINITY, f64::min);
        // Service consumes budget on top of travel.
        if !distance.is_finite()
            || distance + instance.service_load_mask(mask) > instance.distance_budget
        {
            continue;
        }
        let reward: f64 = subset_dp::bits(mask).map(|j| instance.rewards[j]).sum();
        let profit = reward - instance.cost_per_meter * distance;
        if profit > best.profit {
            best_mask = mask;
            best = Solution { order: Vec::new(), distance, reward, profit };
        }
    }
    if best_mask != 0 {
        best.order = dp.reconstruct(best_mask).expect("a reached mask reconstructs");
    }
    best
}

/// The paper's greedy task selection (§V-B, Theorem 3, `O(m²)`).
///
/// From the current location, repeatedly move to the task with the
/// highest marginal profit (`reward − rate · detour`), provided the
/// marginal profit is positive and the extended route still fits the
/// budget; stop when "no satisfied task can be found". Reports the
/// selection passes the outer loop made as `iterations` (each scans
/// every unselected task; the count is one more than the tasks chosen,
/// for the final pass that finds nothing).
#[must_use]
pub fn solve_greedy(instance: &Instance<'_>) -> (Solution, SolveStats) {
    let mut order = Vec::new();
    let iterations = extend_greedily(instance, &mut order, 0.0);
    (Solution::from_order(order, instance), SolveStats { iterations, ..SolveStats::default() })
}

/// Greedy selection followed by 2-opt route shortening, looped until no
/// further task fits: the distance the 2-opt pass saves is re-invested
/// by running another greedy extension from the improved route.
///
/// Always at least as profitable as [`solve_greedy`] and still
/// polynomial; used by the ablation benches to quantify how much of the
/// DP-vs-greedy gap cheap local search recovers. Reports the total
/// selection passes as `iterations`: the seeding greedy's passes plus
/// one per 2-opt polish round.
#[must_use]
pub fn solve_greedy_two_opt(instance: &Instance<'_>) -> (Solution, SolveStats) {
    let (mut solution, mut stats) = solve_greedy(instance);
    loop {
        stats.iterations += 1;
        let improved_order = two_opt::improve(instance.costs, solution.order.clone());
        let improved = Solution::from_order(improved_order, instance);
        let mut order = improved.order;
        extend_greedily(instance, &mut order, improved.distance);
        let extended = Solution::from_order(order, instance);
        // Only a strictly larger profit goes on: a NaN one, which
        // compares unordered, ends the loop.
        if extended.profit.partial_cmp(&solution.profit) != Some(Ordering::Greater) {
            return (solution, stats);
        }
        solution = extended;
    }
}

/// The greedy scan: appends to `order`, a route `traveled` metres long,
/// the unselected task of highest marginal profit (`reward − rate ·
/// detour`) while one is positive and still fits the budget. Returns
/// the selection passes made, one per pick plus the last that finds
/// nothing.
///
/// Each pass runs in two: the first fills the row of detours from the
/// route's end, and the second scores every task from that row without
/// branching on it, updating the best only when it takes a candidate.
fn extend_greedily(instance: &Instance<'_>, order: &mut Vec<usize>, mut traveled: f64) -> u64 {
    let m = instance.costs.tasks();
    let mut selected = vec![false; m];
    for &j in order.iter() {
        selected[j] = true;
    }
    let mut detours = vec![0.0; m];
    let mut loaded = traveled + instance.service_load(order); // against the budget
    let mut iterations = 0;
    loop {
        iterations += 1;
        instance.costs.distances_from(order.last().copied(), &mut detours);
        let pick = if instance.service.is_empty() {
            best_pick(instance, &detours, &selected, loaded, |_| 0.0)
        } else {
            best_pick(instance, &detours, &selected, loaded, |j| instance.service[j])
        };
        let Some(j) = pick else { break };
        selected[j] = true;
        order.push(j);
        traveled += detours[j];
        loaded = traveled + instance.service_load(order);
    }
    iterations
}

/// The scan's scoring pass. A task is feasible when it is unselected,
/// not over the budget (`loaded + detour + service > budget` fails,
/// as it does for NaN) and not unprofitable (`marginal ≤ 0` fails).
/// The first feasible task becomes the best and only a strictly larger
/// marginal replaces it, so a NaN marginal wins only when it comes
/// first.
#[inline(always)]
fn best_pick(
    instance: &Instance<'_>,
    detours: &[f64],
    selected: &[bool],
    loaded: f64,
    service: impl Fn(usize) -> f64,
) -> Option<usize> {
    let (budget, rate) = (instance.distance_budget, instance.cost_per_meter);
    let (mut best, mut best_marginal, mut found) = (0, 0.0, false);
    let candidates = detours.iter().zip(instance.rewards).zip(selected).enumerate();
    for (j, ((&detour, &reward), &taken)) in candidates {
        let over_budget = loaded + detour + service(j) > budget;
        let marginal = reward - rate * detour;
        let unprofitable = marginal <= 0.0;
        let feasible = !taken & !over_budget & !unprofitable;
        if feasible & (!found | (marginal > best_marginal)) {
            (best, best_marginal, found) = (j, marginal, true);
        }
    }
    found.then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_geo::Point;
    use proptest::prelude::*;

    fn square_instance<'a>(costs: &'a CostMatrix, rewards: &'a [f64]) -> Instance<'a> {
        Instance::new(costs, rewards, 1000.0, 0.002).unwrap()
    }

    #[test]
    fn instance_validation() {
        let costs = CostMatrix::from_points(Point::ORIGIN, &[Point::new(1.0, 0.0)]);
        assert!(matches!(
            Instance::new(&costs, &[1.0, 2.0], 10.0, 0.1),
            Err(RoutingError::RewardMismatch { tasks: 1, rewards: 2 })
        ));
        assert!(matches!(
            Instance::new(&costs, &[1.0], -1.0, 0.1),
            Err(RoutingError::InvalidParameter { name: "distance_budget", .. })
        ));
        assert!(matches!(
            Instance::new(&costs, &[1.0], 10.0, f64::NAN),
            Err(RoutingError::InvalidParameter { name: "cost_per_meter", .. })
        ));
        assert!(matches!(
            Instance::new(&costs, &[f64::INFINITY], 10.0, 0.1),
            Err(RoutingError::InvalidParameter { name: "reward", .. })
        ));
        assert!(Instance::new(&costs, &[1.0], f64::INFINITY, 0.0).is_ok());
    }

    #[test]
    fn exact_takes_both_when_profitable() {
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(100.0, 0.0), Point::new(0.0, 100.0)],
        );
        let inst = square_instance(&costs, &[5.0, 5.0]);
        let s = solve_exact(&inst).unwrap().0;
        assert_eq!(s.order.len(), 2);
        assert!(s.profit > 0.0);
        assert!((s.profit - inst.profit_of(&s.order)).abs() < 1e-12);
    }

    #[test]
    fn exact_stays_home_when_unprofitable() {
        // One task 1000 m away worth only 1$: cost 2$ > reward.
        let costs = CostMatrix::from_points(Point::ORIGIN, &[Point::new(1000.0, 0.0)]);
        let inst = square_instance(&costs, &[1.0]);
        let s = solve_exact(&inst).unwrap().0;
        assert_eq!(s, Solution::stay_home());
    }

    #[test]
    fn exact_respects_budget() {
        // Rich but unreachable task.
        let costs = CostMatrix::from_points(Point::ORIGIN, &[Point::new(2000.0, 0.0)]);
        let inst = Instance::new(&costs, &[100.0], 1000.0, 0.002).unwrap();
        let s = solve_exact(&inst).unwrap().0;
        assert!(s.order.is_empty());
    }

    #[test]
    fn exact_picks_profitable_subset() {
        // Two tasks; only the near one pays for the trip.
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(100.0, 0.0), Point::new(900.0, 0.0)],
        );
        let inst = square_instance(&costs, &[5.0, 0.5]);
        let s = solve_exact(&inst).unwrap().0;
        assert_eq!(s.order, vec![0]);
    }

    #[test]
    fn exact_breaks_profit_ties_the_same_way_every_time() {
        // Mirror images: either task alone earns 1 − 0.002 · 100 = 0.8,
        // and the 150 m budget cannot fit both (100 + 200 m).
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(100.0, 0.0), Point::new(-100.0, 0.0)],
        );
        let inst = Instance::new(&costs, &[1.0, 1.0], 150.0, 0.002).unwrap();
        for _ in 0..200 {
            assert_eq!(solve_exact(&inst).unwrap().0.order, vec![0]);
        }
    }

    #[test]
    fn greedy_never_exceeds_budget_or_loses_money_per_step() {
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[
                Point::new(50.0, 0.0),
                Point::new(100.0, 50.0),
                Point::new(500.0, 500.0),
                Point::new(900.0, 0.0),
            ],
        );
        let inst = square_instance(&costs, &[2.0, 2.0, 3.0, 1.0]);
        let s = solve_greedy(&inst).0;
        assert!(s.distance <= inst.distance_budget());
        assert!(s.profit >= 0.0);
    }

    #[test]
    fn greedy_zero_tasks() {
        let costs = CostMatrix::from_points(Point::ORIGIN, &[]);
        let inst = Instance::new(&costs, &[], 100.0, 0.002).unwrap();
        assert_eq!(solve_greedy(&inst).0, Solution::stay_home());
        assert_eq!(solve_exact(&inst).unwrap().0, Solution::stay_home());
    }

    #[test]
    fn exact_at_least_as_good_as_greedy_known_gap_case() {
        // Greedy chases the high-marginal first task and strands itself;
        // DP plans the loop. Start centre, tasks on a wide arc.
        let costs = CostMatrix::from_points(
            Point::new(500.0, 500.0),
            &[
                Point::new(520.0, 500.0), // tiny detour, small reward
                Point::new(900.0, 500.0),
                Point::new(900.0, 900.0),
                Point::new(100.0, 100.0),
            ],
        );
        let inst = Instance::new(&costs, &[1.0, 4.0, 4.0, 4.0], 1500.0, 0.002).unwrap();
        let exact = solve_exact(&inst).unwrap().0;
        let greedy = solve_greedy(&inst).0;
        assert!(exact.profit >= greedy.profit - 1e-9);
    }

    #[test]
    fn two_opt_variant_dominates_plain_greedy() {
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[
                Point::new(100.0, 0.0),
                Point::new(0.0, 100.0),
                Point::new(100.0, 100.0),
                Point::new(200.0, 0.0),
            ],
        );
        let inst = square_instance(&costs, &[1.0, 1.0, 1.0, 1.0]);
        let greedy = solve_greedy(&inst).0;
        let improved = solve_greedy_two_opt(&inst).0;
        assert!(improved.profit >= greedy.profit - 1e-12);
        assert!(improved.distance <= inst.distance_budget() + 1e-9);
    }

    #[test]
    fn solution_from_order_economics() {
        let costs = CostMatrix::from_points(Point::ORIGIN, &[Point::new(100.0, 0.0)]);
        let inst = square_instance(&costs, &[5.0]);
        let s = Solution::from_order(vec![0], &inst);
        assert_eq!(s.distance, 100.0);
        assert_eq!(s.reward, 5.0);
        assert!((s.profit - (5.0 - 0.2)).abs() < 1e-12);
    }

    #[test]
    fn service_validation() {
        let costs = CostMatrix::from_points(Point::ORIGIN, &[Point::new(1.0, 0.0)]);
        let inst = Instance::new(&costs, &[1.0], 10.0, 0.1).unwrap();
        assert!(inst.clone().with_service(&[1.0, 2.0]).is_err());
        assert!(inst.clone().with_service(&[-1.0]).is_err());
        assert!(inst.clone().with_service(&[f64::NAN]).is_err());
        let with = inst.with_service(&[3.5]).unwrap();
        assert_eq!(with.service_of(0), 3.5);
        assert_eq!(with.service_of(9), 0.0);
    }

    #[test]
    fn service_consumes_budget_but_not_money() {
        // Two tasks 100 m out; budget 250 m. Without service both fit
        // (100 + 100 between? actually t0 at 100, t1 at 200: chain 200).
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(100.0, 0.0), Point::new(200.0, 0.0)],
        );
        let plain = Instance::new(&costs, &[2.0, 2.0], 250.0, 0.002).unwrap();
        assert_eq!(solve_exact(&plain).unwrap().0.order.len(), 2);
        // 60 m-equivalent of sensing per task: 200 + 120 > 250, so only
        // one task fits...
        let slow = plain.clone().with_service(&[60.0, 60.0]).unwrap();
        let s = solve_exact(&slow).unwrap().0;
        assert_eq!(s.order.len(), 1);
        // ...and the profit still only charges movement, not service.
        assert!((s.profit - (2.0 - 0.002 * s.distance)).abs() < 1e-12);
        // Heuristics agree on feasibility.
        assert_eq!(solve_greedy(&slow).0.order.len(), 1);
        assert_eq!(solve_greedy_two_opt(&slow).0.order.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn service_budget_never_violated(
            coords in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..6),
            rewards in proptest::collection::vec(0.5..3.0f64, 6),
            service in proptest::collection::vec(0.0..400.0f64, 6),
            budget in 0.0..2500.0f64,
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let start = Point::new(500.0, 500.0);
            let costs = CostMatrix::from_points(start, &pts);
            // The same distances as an explicit table: every solver must
            // answer identically whichever storage it reads.
            let tabled = CostMatrix::from_fn(
                pts.iter().map(|&p| start.distance(p)).collect(),
                |i, j| pts[i].distance(pts[j]),
            );
            let solve_all = |costs| {
                let inst = Instance::new(costs, &rewards[..pts.len()], budget, 0.002)
                    .unwrap()
                    .with_service(&service[..pts.len()])
                    .unwrap();
                let solutions = [
                    solve_exact(&inst).unwrap().0,
                    solve_greedy(&inst).0,
                    solve_greedy_two_opt(&inst).0,
                    crate::insertion::solve_insertion(&inst),
                    crate::branch_bound::solve_branch_bound(&inst).0,
                ];
                (inst, solutions)
            };
            let (inst, solutions) = solve_all(&costs);
            prop_assert_eq!(&solve_all(&tabled).1, &solutions);
            let [exact, _, _, _, bb] = &solutions;
            prop_assert!((exact.profit - bb.profit).abs() < 1e-9,
                "dp {} vs b&b {} under service", exact.profit, bb.profit);
            for s in &solutions {
                let load = s.distance + inst.service_load(&s.order);
                prop_assert!(load <= budget + 1e-9, "budget violated: {load} > {budget}");
                prop_assert!(exact.profit >= s.profit - 1e-9);
            }
        }

        #[test]
        fn exact_dominates_greedy_and_both_respect_budget(
            coords in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..7),
            rewards in proptest::collection::vec(0.0..10.0f64, 7),
            budget in 0.0..3000.0f64,
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let costs = CostMatrix::from_points(Point::new(500.0, 500.0), &pts);
            let r = &rewards[..pts.len()];
            let inst = Instance::new(&costs, r, budget, 0.002).unwrap();
            let exact = solve_exact(&inst).unwrap().0;
            let greedy = solve_greedy(&inst).0;
            let polished = solve_greedy_two_opt(&inst).0;
            prop_assert!(exact.profit >= greedy.profit - 1e-9,
                "greedy beat the optimum: {} > {}", greedy.profit, exact.profit);
            prop_assert!(exact.profit >= polished.profit - 1e-9);
            prop_assert!(polished.profit >= greedy.profit - 1e-9);
            for s in [&exact, &greedy, &polished] {
                prop_assert!(s.distance <= budget + 1e-9);
                prop_assert!(s.profit >= 0.0, "rational users never lose money");
                // Reported economics must be self-consistent.
                prop_assert!((s.profit - inst.profit_of(&s.order)).abs() < 1e-9);
                // No duplicate visits.
                let mut seen = std::collections::HashSet::new();
                prop_assert!(s.order.iter().all(|&j| seen.insert(j)));
            }
        }
    }
}
