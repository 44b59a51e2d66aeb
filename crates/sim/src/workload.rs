use rand::Rng;
use serde::{Deserialize, Serialize};

use paydemand_core::{TaskId, TaskSpec};
use paydemand_geo::{Point, Rect};

use crate::{Scenario, SimError};

/// The concrete random draw of one repetition: task specs and the
/// users' homes and time budgets, generated from a [`Scenario`] and an
/// RNG.
///
/// Users are held as columns, one entry per user in id order. The
/// paper gives every user its own per-round time budget `B^k_{u_i}`
/// but one walking speed and one movement cost rate (2 m/s and
/// 0.002 $/m in its evaluation), so those two are held once.
///
/// # Examples
///
/// ```
/// use paydemand_sim::{Scenario, Workload};
/// use rand::SeedableRng;
///
/// let scenario = Scenario::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(scenario.seed);
/// let workload = Workload::generate(&scenario, &mut rng)?;
/// assert_eq!(workload.tasks.len(), 20);
/// assert_eq!(workload.homes.len(), 100);
/// // The travel budget in metres: time budget × speed.
/// let reach = workload.time_budgets[0] * workload.speed;
/// assert!((1200.0..=2400.0).contains(&reach));
/// # Ok::<(), paydemand_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// The sensing region.
    pub area: Rect,
    /// Task specifications, id order.
    pub tasks: Vec<TaskSpec>,
    /// Each user's initial location, inside the area, id order.
    pub homes: Vec<Point>,
    /// Each user's per-round time budget in seconds, id order.
    pub time_budgets: Vec<f64>,
    /// Every user's walking speed in m/s.
    pub speed: f64,
    /// Every user's movement cost in currency per metre.
    pub cost_per_meter: f64,
    /// Per-user sensing quality in `(0, 1]`, id order (all 1 under the
    /// paper's implicit perfect-quality model).
    pub qualities: Vec<f64>,
    /// Ground-truth value per task, id order (e.g. the true noise level
    /// at the site).
    pub truths: Vec<f64>,
}

impl Workload {
    /// Draws a workload for `scenario` from `rng`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidScenario`] if the scenario fails validation,
    /// [`SimError::Core`] if a generated task is rejected by the domain
    /// layer (cannot happen for validated scenarios).
    pub fn generate<R: Rng + ?Sized>(scenario: &Scenario, rng: &mut R) -> Result<Self, SimError> {
        scenario.validate()?;
        let area = Rect::square(scenario.area_side)
            .map_err(paydemand_core::CoreError::from)
            .map_err(SimError::from)?;

        // Filled at their validated final lengths: a fallible collect
        // would start empty and grow by doubling.
        let task_locations = scenario.task_placement.sample(area, scenario.tasks, rng);
        let mut tasks = Vec::with_capacity(scenario.tasks);
        for (i, loc) in task_locations.into_iter().enumerate() {
            let (lo, hi) = scenario.deadline_range;
            let deadline = rng.gen_range(lo..=hi);
            tasks.push(TaskSpec::new(TaskId(i), loc, deadline, scenario.required_per_task)?);
        }

        // Every placement draws inside the area, and validation keeps
        // the budget range finite and non-negative, so neither column
        // needs a check of its own.
        let homes = scenario.user_placement.sample(area, scenario.users, rng);
        let (lo, hi) = scenario.time_budget_range;
        let time_budgets: Vec<f64> = (0..scenario.users)
            .map(|_| if lo == hi { lo } else { rng.gen_range(lo..=hi) })
            .collect();

        let qualities: Vec<f64> =
            (0..scenario.users).map(|_| scenario.user_quality.sample(rng)).collect();
        let truths: Vec<f64> =
            (0..scenario.tasks).map(|_| scenario.sensing.sample_truth(rng)).collect();

        Ok(Workload {
            area,
            tasks,
            homes,
            time_budgets,
            speed: scenario.speed,
            cost_per_meter: scenario.cost_per_meter,
            qualities,
            truths,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn generates_paper_shapes() {
        let s = Scenario::paper_default();
        let w = Workload::generate(&s, &mut rng(1)).unwrap();
        assert_eq!(w.tasks.len(), 20);
        assert_eq!((w.homes.len(), w.time_budgets.len(), w.qualities.len()), (100, 100, 100));
        for (i, t) in w.tasks.iter().enumerate() {
            assert_eq!(t.id(), TaskId(i));
            assert!(w.area.contains(t.location()));
            assert!((5..=15).contains(&t.deadline()));
            assert_eq!(t.required(), 20);
        }
        for (i, (home, budget)) in w.homes.iter().zip(&w.time_budgets).enumerate() {
            assert!(w.area.contains(*home), "user {i}");
            assert!((600.0..=1200.0).contains(budget), "user {i}");
        }
        assert_eq!((w.speed, w.cost_per_meter), (2.0, 0.002));
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Scenario::paper_default();
        let a = Workload::generate(&s, &mut rng(7)).unwrap();
        let b = Workload::generate(&s, &mut rng(7)).unwrap();
        assert_eq!(a, b);
        let c = Workload::generate(&s, &mut rng(8)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_time_budget_range_is_exact() {
        let s = Scenario::paper_default().with_time_budget_range(750.0, 750.0);
        let w = Workload::generate(&s, &mut rng(2)).unwrap();
        assert!(w.time_budgets.iter().all(|b| *b == 750.0));
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let s = Scenario { users: 0, ..Scenario::paper_default() };
        assert!(matches!(
            Workload::generate(&s, &mut rng(0)),
            Err(SimError::InvalidScenario { field: "users", .. })
        ));
    }
}
