//! Branch-and-bound exact orienteering — an alternative to the bitmask
//! DP without its 25-task width cap.
//!
//! Depth-first search over partial routes. A node is pruned when an
//! optimistic bound on its best completion — current profit plus the
//! *undiscounted* rewards of every still-reachable task — cannot beat
//! the incumbent. On workloads where the travel budget binds (the
//! paper's), pruning is strong enough to match the DP's speed while
//! also solving instances the DP cannot represent; on adversarial
//! instances it degrades to factorial time, which is why the DP remains
//! the default exact solver for `m ≤ 25`.

use crate::orienteering::{Instance, Solution, SolveStats};

/// Exactly solves an orienteering instance by branch and bound,
/// reporting the search nodes visited as `states_expanded` and those
/// the bound cut as `nodes_pruned`.
///
/// Produces a solution with the same profit as
/// [`solve_exact`](crate::orienteering::solve_exact) (tie-breaking may
/// pick a different route of equal profit).
///
/// # Examples
///
/// ```
/// use paydemand_geo::Point;
/// use paydemand_routing::{branch_bound, orienteering, CostMatrix};
///
/// let costs = CostMatrix::from_points(
///     Point::ORIGIN,
///     &[Point::new(100.0, 0.0), Point::new(0.0, 100.0)],
/// );
/// let instance = orienteering::Instance::new(&costs, &[5.0, 5.0], 300.0, 0.002)?;
/// let (bb, stats) = branch_bound::solve_branch_bound(&instance);
/// let (dp, _) = orienteering::solve_exact(&instance)?;
/// assert!((bb.profit - dp.profit).abs() < 1e-9);
/// assert!(stats.states_expanded > 0);
/// # Ok::<(), paydemand_routing::RoutingError>(())
/// ```
#[must_use]
pub fn solve_branch_bound(instance: &Instance<'_>) -> (Solution, SolveStats) {
    let m = instance.costs().tasks();
    let mut search = Search {
        instance,
        selected: vec![false; m],
        order: Vec::with_capacity(m),
        best: Solution::stay_home(),
        stats: SolveStats::default(),
    };
    search.dfs(0.0, 0.0);
    (search.best, search.stats)
}

struct Search<'a, 'b> {
    instance: &'a Instance<'b>,
    selected: Vec<bool>,
    order: Vec<usize>,
    best: Solution,
    stats: SolveStats,
}

impl Search<'_, '_> {
    /// `distance` is pure travel; `loaded` adds service and is what the
    /// budget constrains.
    fn dfs(&mut self, distance: f64, reward: f64) {
        self.stats.states_expanded += 1;
        let inst = self.instance;
        let rate = inst.cost_per_meter();
        let profit = reward - rate * distance;
        if profit > self.best.profit {
            self.best = Solution { order: self.order.clone(), distance, reward, profit };
        }
        let loaded = distance + inst.service_load(&self.order);
        // Optimistic completion bound: collect every remaining task's
        // reward for free. (Travel can only subtract, so this is a
        // valid upper bound.)
        let optimistic: f64 = (0..inst.costs().tasks())
            .filter(|&j| !self.selected[j] && self.reachable(j, loaded))
            .map(|j| inst.rewards()[j])
            .sum();
        if profit + optimistic <= self.best.profit {
            self.stats.nodes_pruned += 1;
            return;
        }
        for j in 0..inst.costs().tasks() {
            if self.selected[j] {
                continue;
            }
            let detour = match self.order.last() {
                None => inst.costs().from_start(j),
                Some(&last) => inst.costs().between(last, j),
            };
            let next_distance = distance + detour;
            if loaded + detour + inst.service_of(j) > inst.distance_budget() {
                continue;
            }
            self.selected[j] = true;
            self.order.push(j);
            self.dfs(next_distance, reward + inst.rewards()[j]);
            self.order.pop();
            self.selected[j] = false;
        }
    }

    /// Can task `j` still be appended within the budget from wherever
    /// the current route ends? `loaded` includes service already spent.
    fn reachable(&self, j: usize, loaded: f64) -> bool {
        let detour = match self.order.last() {
            None => self.instance.costs().from_start(j),
            Some(&last) => self.instance.costs().between(last, j),
        };
        loaded + detour + self.instance.service_of(j) <= self.instance.distance_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orienteering::solve_exact;
    use crate::CostMatrix;
    use paydemand_geo::Point;
    use proptest::prelude::*;

    #[test]
    fn empty_instance_stays_home() {
        let costs = CostMatrix::from_points(Point::ORIGIN, &[]);
        let inst = Instance::new(&costs, &[], 100.0, 0.002).unwrap();
        assert_eq!(solve_branch_bound(&inst).0, Solution::stay_home());
    }

    #[test]
    fn declines_unprofitable_task() {
        let costs = CostMatrix::from_points(Point::ORIGIN, &[Point::new(1000.0, 0.0)]);
        let inst = Instance::new(&costs, &[1.0], 5000.0, 0.002).unwrap();
        assert_eq!(solve_branch_bound(&inst).0, Solution::stay_home());
    }

    #[test]
    fn solves_beyond_the_dp_task_cap() {
        // 30 tasks — the bitmask DP refuses this; B&B must handle it.
        let pts: Vec<Point> =
            (0..30).map(|i| Point::new((i % 6) as f64 * 120.0, (i / 6) as f64 * 120.0)).collect();
        let costs = CostMatrix::from_points(Point::ORIGIN, &pts);
        let rewards = vec![1.0; 30];
        let inst = Instance::new(&costs, &rewards, 800.0, 0.002).unwrap();
        let s = solve_branch_bound(&inst).0;
        assert!(s.distance <= 800.0 + 1e-9);
        assert!(s.profit > 0.0);
        // Self-consistent economics.
        assert!((s.profit - inst.profit_of(&s.order)).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn agrees_with_dp_exact(
            coords in proptest::collection::vec((0.0..800.0f64, 0.0..800.0f64), 0..7),
            rewards in proptest::collection::vec(0.0..5.0f64, 7),
            budget in 0.0..2000.0f64,
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let costs = CostMatrix::from_points(Point::new(400.0, 400.0), &pts);
            let inst = Instance::new(&costs, &rewards[..pts.len()], budget, 0.002).unwrap();
            let bb = solve_branch_bound(&inst).0;
            let dp = solve_exact(&inst).unwrap().0;
            prop_assert!((bb.profit - dp.profit).abs() < 1e-9,
                "bb {} vs dp {}", bb.profit, dp.profit);
            prop_assert!(bb.distance <= budget + 1e-9);
        }
    }
}
