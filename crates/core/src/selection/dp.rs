use paydemand_routing::orienteering;

use crate::selection::{SelectionOutcome, SelectionProblem, SolveStats, TaskSelector};
use crate::CoreError;

/// The paper's optimal dynamic-programming task selection (§V-A).
///
/// Enumerates every budget-feasible subset of candidate tasks via the
/// pruned bitmask DP (Eq. 11–12) and returns the profit-maximal one.
/// Exact, but exponential in the worst case (`O(m²·2^m)`, Theorem 2):
/// it refuses instances beyond the routing layer's task cap — "it is
/// not suitable for a large scale of tasks" (§V-B). Use
/// [`GreedySelector`](crate::selection::GreedySelector) there.
///
/// # Examples
///
/// ```
/// use paydemand_core::selection::{DpSelector, SelectionProblem, TaskSelector};
/// use paydemand_core::{PublishedTask, TaskId};
/// use paydemand_geo::Point;
///
/// let tasks = vec![PublishedTask {
///     id: TaskId(0),
///     location: Point::new(100.0, 0.0),
///     reward: 2.0,
/// }];
/// let problem = SelectionProblem::new(Point::ORIGIN, &tasks, 500.0, 2.0, 0.002)?;
/// let outcome = DpSelector.select(&problem)?;
/// assert_eq!(outcome.tasks(), &[TaskId(0)]);
/// # Ok::<(), paydemand_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpSelector;

impl TaskSelector for DpSelector {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn select(&self, problem: &SelectionProblem) -> Result<SelectionOutcome, CoreError> {
        let parts = problem.instance()?;
        let instance = parts.build(problem)?;
        let solution = orienteering::solve_exact(&instance)?;
        Ok(problem.outcome_from(solution))
    }

    fn select_with_stats(
        &self,
        problem: &SelectionProblem,
    ) -> Result<(SelectionOutcome, SolveStats), CoreError> {
        let parts = problem.instance()?;
        let instance = parts.build(problem)?;
        let (solution, states) = orienteering::solve_exact_with_stats(&instance)?;
        let stats = SolveStats { states_expanded: states, ..SolveStats::default() };
        Ok((problem.outcome_from(solution), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::tests::published;
    use crate::TaskId;
    use paydemand_geo::Point;

    #[test]
    fn picks_profit_maximal_subset() {
        // Near cheap task and far rich task; budget covers either alone.
        let tasks = vec![published(0, 100.0, 0.0, 1.0), published(1, 0.0, 900.0, 5.0)];
        // 600 s × 2 m/s = 1200 m: enough for 0 -> t0 -> t1 (~1006 m).
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 600.0, 2.0, 0.002).unwrap();
        let o = DpSelector.select(&p).unwrap();
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
            assert_eq!(DpSelector.select(&p).unwrap().tasks(), &[TaskId(0)]);
        }
    }

    #[test]
    fn respects_time_budget() {
        let tasks = vec![published(0, 3000.0, 0.0, 100.0)];
        // 500 s × 2 m/s = 1000 m < 3000 m away.
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 500.0, 2.0, 0.002).unwrap();
        let o = DpSelector.select(&p).unwrap();
        assert!(o.tasks().is_empty());
        assert_eq!(o.profit(), 0.0);
    }

    #[test]
    fn declines_unprofitable_tasks() {
        let tasks = vec![published(0, 1000.0, 0.0, 1.0)]; // cost 2 > reward 1
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 10_000.0, 2.0, 0.002).unwrap();
        let o = DpSelector.select(&p).unwrap();
        assert!(o.tasks().is_empty());
    }

    #[test]
    fn too_many_tasks_is_a_core_error() {
        let tasks: Vec<_> = (0..30).map(|i| published(i, i as f64, 0.0, 1.0)).collect();
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 500.0, 2.0, 0.002).unwrap();
        assert!(matches!(DpSelector.select(&p), Err(CoreError::Routing(_))));
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
        let o = DpSelector.select(&p).unwrap();
        assert_eq!(o.tasks(), &[TaskId(1), TaskId(0), TaskId(2)]);
        assert_eq!(o.distance(), 300.0);
    }
}
