//! Profit-aware cheapest-insertion construction for open routes.
//!
//! The paper's greedy (§V-B) always *appends* the next task to the end
//! of the route. Cheapest insertion instead places each new task at the
//! position that increases the route length least — visiting a task
//! "on the way" is nearly free. Still polynomial (`O(m³)` worst case),
//! usually between append-greedy and the exact DP in solution quality;
//! used as an extra baseline in the selector ablations.

use crate::orienteering::{Instance, Solution};

/// Solves an orienteering instance by profit-aware cheapest insertion:
/// repeatedly insert the (task, position) pair with the highest marginal
/// profit (`reward − rate·extra distance`), while the route fits the
/// budget and the marginal profit is positive.
///
/// # Examples
///
/// ```
/// use paydemand_geo::Point;
/// use paydemand_routing::{insertion, orienteering, CostMatrix};
///
/// let costs = CostMatrix::from_points(
///     Point::ORIGIN,
///     &[Point::new(100.0, 0.0), Point::new(50.0, 5.0)],
/// );
/// let instance = orienteering::Instance::new(&costs, &[2.0, 2.0], 400.0, 0.002)?;
/// let s = insertion::solve_insertion(&instance);
/// // t1 is almost exactly on the way to t0: both get visited.
/// assert_eq!(s.order.len(), 2);
/// # Ok::<(), paydemand_routing::RoutingError>(())
/// ```
#[must_use]
pub fn solve_insertion(instance: &Instance<'_>) -> Solution {
    let costs = instance.costs();
    let rewards = instance.rewards();
    let m = costs.tasks();
    let rate = instance.cost_per_meter();
    let budget = instance.distance_budget();

    let mut order: Vec<usize> = Vec::new();
    let mut length = 0.0;
    let mut service = 0.0;
    let mut selected = vec![false; m];

    loop {
        // Best (task, position, extra length) by marginal profit.
        let mut best: Option<(usize, usize, f64, f64)> = None;
        for j in 0..m {
            if selected[j] {
                continue;
            }
            for pos in 0..=order.len() {
                let extra = insertion_extra(costs, &order, pos, j);
                if length + service + extra + instance.service_of(j) > budget {
                    continue;
                }
                let marginal = rewards[j] - rate * extra;
                if marginal <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(_, _, _, bm)| marginal > bm) {
                    best = Some((j, pos, extra, marginal));
                }
            }
        }
        match best {
            None => break,
            Some((j, pos, extra, _)) => {
                order.insert(pos, j);
                length += extra;
                service += instance.service_of(j);
                selected[j] = true;
            }
        }
    }
    Solution::from_order(order, instance)
}

/// Extra route length from inserting task `j` at position `pos` of
/// `order` (0 = directly after the start).
fn insertion_extra(costs: &crate::CostMatrix, order: &[usize], pos: usize, j: usize) -> f64 {
    let before = if pos == 0 { None } else { Some(order[pos - 1]) };
    let after = order.get(pos).copied();
    let to_j = match before {
        None => costs.from_start(j),
        Some(b) => costs.between(b, j),
    };
    match after {
        None => to_j,
        Some(a) => {
            let from_j = costs.between(j, a);
            let removed = match before {
                None => costs.from_start(a),
                Some(b) => costs.between(b, a),
            };
            to_j + from_j - removed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orienteering::{solve_exact, solve_greedy};
    use crate::CostMatrix;
    use paydemand_geo::Point;
    use proptest::prelude::*;

    #[test]
    fn picks_up_on_the_way_tasks() {
        // t1 sits on the straight line to t0; append-greedy visits t0
        // first (higher marginal profit), then must backtrack for t1.
        // Insertion slots t1 in between at almost no cost.
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(1000.0, 0.0), Point::new(500.0, 0.0)],
        );
        let inst = Instance::new(&costs, &[3.0, 1.1], 2000.0, 0.002).unwrap();
        let ins = solve_insertion(&inst);
        assert_eq!(ins.order, vec![1, 0], "insertion should sequence the line");
        assert_eq!(ins.distance, 1000.0);
        let (greedy, _) = solve_greedy(&inst);
        assert!(ins.profit >= greedy.profit - 1e-12);
    }

    #[test]
    fn respects_budget_and_rationality() {
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(900.0, 0.0), Point::new(0.0, 900.0), Point::new(450.0, 450.0)],
        );
        let inst = Instance::new(&costs, &[2.0, 2.0, 2.0], 1000.0, 0.002).unwrap();
        let s = solve_insertion(&inst);
        assert!(s.distance <= 1000.0 + 1e-9);
        assert!(s.profit >= 0.0);
    }

    #[test]
    fn empty_instance() {
        let costs = CostMatrix::from_points(Point::ORIGIN, &[]);
        let inst = Instance::new(&costs, &[], 100.0, 0.002).unwrap();
        assert_eq!(solve_insertion(&inst), Solution::stay_home());
    }

    #[test]
    fn insertion_extra_matches_route_length_delta() {
        let costs = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(10.0, 0.0), Point::new(20.0, 5.0), Point::new(5.0, 5.0)],
        );
        let order = vec![0, 1];
        let base = costs.route_length(&order);
        for pos in 0..=order.len() {
            let mut with = order.clone();
            with.insert(pos, 2);
            let expect = costs.route_length(&with) - base;
            let got = insertion_extra(&costs, &order, pos, 2);
            assert!((got - expect).abs() < 1e-9, "pos {pos}: {got} vs {expect}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn insertion_between_greedy_and_exact(
            coords in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..7),
            rewards in proptest::collection::vec(0.0..5.0f64, 7),
            budget in 0.0..2500.0f64,
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let costs = CostMatrix::from_points(Point::new(500.0, 500.0), &pts);
            let inst =
                Instance::new(&costs, &rewards[..pts.len()], budget, 0.002).unwrap();
            let ins = solve_insertion(&inst);
            let (exact, _) = solve_exact(&inst).unwrap();
            prop_assert!(ins.profit <= exact.profit + 1e-9,
                "insertion {} beat exact {}", ins.profit, exact.profit);
            prop_assert!(ins.distance <= budget + 1e-9);
            prop_assert!(ins.profit >= 0.0);
            prop_assert!((ins.profit - inst.profit_of(&ins.order)).abs() < 1e-9);
            let mut seen = std::collections::HashSet::new();
            prop_assert!(ins.order.iter().all(|&j| seen.insert(j)));
        }
    }
}
