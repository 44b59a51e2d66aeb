use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::demand::TaskObservation;
use crate::incentive::{DemandBreakdown, IncentiveMechanism};
use crate::{CoreError, DemandIndicator, RewardSchedule, RoundContext, TaskProgress, TaskSpec};

/// The paper's demand-based dynamic incentive mechanism (§IV).
///
/// Each round, every incomplete task's demand indicator is recomputed
/// from its deadline pressure, completion progress and neighbouring-user
/// scarcity (Eq. 2–5, AHP weights), normalised, bucketed into demand
/// levels and priced by Eq. 7. Rewards therefore *rise* when a task is
/// starved and *fall* when it is on track — the "pay on-demand"
/// behaviour that balances task popularity.
///
/// # Examples
///
/// ```
/// use paydemand_core::incentive::OnDemandIncentive;
/// use paydemand_core::{TaskId, TaskSpec};
/// use paydemand_geo::Point;
///
/// // 20 tasks × 20 measurements, as in the paper's evaluation.
/// let specs: Vec<TaskSpec> = (0..20)
///     .map(|i| TaskSpec::new(TaskId(i), Point::new(i as f64, 0.0), 15, 20))
///     .collect::<Result<_, _>>()?;
/// let mechanism = OnDemandIncentive::paper_default(&specs)?;
/// assert_eq!(mechanism.schedule().base_reward(), 0.5); // Eq. 9
/// # Ok::<(), paydemand_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnDemandIncentive {
    indicator: DemandIndicator,
    schedule: RewardSchedule,
}

impl OnDemandIncentive {
    /// Creates the mechanism from a demand indicator and a reward
    /// schedule.
    #[must_use]
    pub fn new(indicator: DemandIndicator, schedule: RewardSchedule) -> Self {
        OnDemandIncentive { indicator, schedule }
    }

    /// The paper's evaluation configuration for the given task set:
    /// Table I AHP weights, unit criteria scales, and Eq. 9 pricing with
    /// `B = 1000 $`, `λ = 0.5 $`, `N = 5` against the tasks' total
    /// required measurements.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetTooSmall`] if the tasks require so many
    /// measurements that Eq. 9 yields a non-positive base reward.
    pub fn paper_default(specs: &[TaskSpec]) -> Result<Self, CoreError> {
        let total: u64 = specs.iter().map(|s| u64::from(s.required())).sum();
        let schedule = RewardSchedule::from_budget(
            1000.0,
            total.max(1),
            0.5,
            crate::DemandLevels::paper_default(),
        )?;
        Ok(OnDemandIncentive::new(DemandIndicator::paper_default(), schedule))
    }

    /// The demand indicator in use.
    #[must_use]
    pub fn indicator(&self) -> &DemandIndicator {
        &self.indicator
    }

    /// The reward schedule in use.
    #[must_use]
    pub fn schedule(&self) -> &RewardSchedule {
        &self.schedule
    }

    /// Prices one task of `ctx`: its criteria (Eqs. 3–5), their
    /// normalised AHP blend (Eq. 2, §IV-C) and the level that score
    /// maps to (Eq. 7). The one path behind both
    /// [`rewards`](IncentiveMechanism::rewards) and
    /// [`explain`](IncentiveMechanism::explain), so a posted price and
    /// its explanation cannot drift apart.
    fn breakdown(&self, task: &TaskProgress, ctx: &RoundContext) -> DemandBreakdown {
        let obs = TaskObservation {
            deadline: task.deadline,
            required: task.required,
            received: task.received,
            neighbors: task.neighbors,
        };
        let (x1, x2, x3) = self.indicator.criterion_parts(&obs, ctx.round, ctx.max_neighbors);
        let score = self.indicator.normalized_from_parts(x1, x2, x3);
        DemandBreakdown {
            deadline_criterion: x1,
            progress_criterion: x2,
            scarcity_criterion: x3,
            score,
            level: self.schedule.levels().level_of(score),
        }
    }
}

impl IncentiveMechanism for OnDemandIncentive {
    fn name(&self) -> &'static str {
        "on-demand"
    }

    fn rewards(&mut self, ctx: &RoundContext, _rng: &mut dyn RngCore) -> Vec<f64> {
        ctx.tasks
            .iter()
            .map(|t| self.schedule.reward_for_level(self.breakdown(t, ctx).level))
            .collect()
    }

    /// Per-task criterion values, AHP score and mapped level: the
    /// breakdown every posted reward is priced from.
    fn explain(&self, ctx: &RoundContext) -> Option<Vec<DemandBreakdown>> {
        Some(ctx.tasks.iter().map(|t| self.breakdown(t, ctx)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incentive::tests::{ctx, snapshot};
    use crate::{DemandLevels, TaskId};
    use paydemand_geo::Point;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    fn paper_mechanism() -> OnDemandIncentive {
        let specs: Vec<TaskSpec> = (0..20)
            .map(|i| TaskSpec::new(TaskId(i), Point::new(i as f64, 0.0), 15, 20).unwrap())
            .collect();
        OnDemandIncentive::paper_default(&specs).unwrap()
    }

    #[test]
    fn paper_default_reproduces_r0() {
        let m = paper_mechanism();
        assert_eq!(m.schedule().base_reward(), 0.5);
        assert_eq!(m.schedule().max_reward(), 2.5);
        assert_eq!(m.name(), "on-demand");
    }

    #[test]
    fn rewards_within_schedule_bounds() {
        let mut m = paper_mechanism();
        let c = ctx(
            1,
            vec![snapshot(0, 15, 20, 0, 0), snapshot(1, 5, 20, 10, 4), snapshot(2, 1, 20, 19, 9)],
        );
        let r = m.rewards(&c, &mut rng());
        assert_eq!(r.len(), 3);
        for &x in &r {
            assert!((0.5..=2.5).contains(&x), "reward {x} outside schedule");
        }
    }

    #[test]
    fn starved_task_priced_above_healthy_task() {
        let mut m = paper_mechanism();
        // Task 0: near deadline, barely started, no users nearby.
        // Task 1: far deadline, nearly done, many users nearby.
        let c = ctx(5, vec![snapshot(0, 5, 20, 1, 0), snapshot(1, 15, 20, 18, 9)]);
        let r = m.rewards(&c, &mut rng());
        assert!(r[0] > r[1], "starved task must be priced higher: {} vs {}", r[0], r[1]);
    }

    #[test]
    fn rewards_rise_as_deadline_approaches() {
        let mut m = paper_mechanism();
        // Same untouched lonely task observed at successive rounds.
        let reward_at = |m: &mut OnDemandIncentive, round| {
            let c = ctx(round, vec![snapshot(0, 10, 20, 0, 0), snapshot(1, 10, 20, 0, 5)]);
            m.rewards(&c, &mut rng())[0]
        };
        let early = reward_at(&mut m, 1);
        let late = reward_at(&mut m, 10);
        assert!(late >= early, "reward must not fall as deadline nears: {early} -> {late}");
        assert!(late > early, "with the paper weights, deadline pressure must move the level");
    }

    #[test]
    fn rewards_can_decrease_when_demand_drops() {
        // The paper contrasts itself with steered: "it can increase when
        // demand is high and also can decrease when the demand is small".
        let mut m = paper_mechanism();
        let hungry = ctx(1, vec![snapshot(0, 10, 20, 0, 0), snapshot(1, 10, 20, 0, 5)]);
        let fed = ctx(2, vec![snapshot(0, 10, 20, 15, 5), snapshot(1, 10, 20, 0, 5)]);
        let before = m.rewards(&hungry, &mut rng())[0];
        let after = m.rewards(&fed, &mut rng())[0];
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn empty_round_prices_nothing() {
        let mut m = paper_mechanism();
        let c = ctx(1, vec![]);
        assert!(m.rewards(&c, &mut rng()).is_empty());
    }

    #[test]
    fn custom_schedule_is_respected() {
        let schedule = RewardSchedule::new(2.0, 1.0, DemandLevels::new(3).unwrap()).unwrap();
        let mut m = OnDemandIncentive::new(DemandIndicator::paper_default(), schedule);
        let c = ctx(1, vec![snapshot(0, 1, 20, 0, 0)]); // maximal demand
        assert_eq!(m.rewards(&c, &mut rng()), vec![4.0]); // 2 + 1·(3−1)
    }

    #[test]
    fn deterministic_given_context() {
        let mut m = paper_mechanism();
        let c = ctx(4, vec![snapshot(0, 9, 20, 7, 2), snapshot(1, 11, 20, 2, 8)]);
        let a = m.rewards(&c, &mut rng());
        let b = m.rewards(&c, &mut rand::rngs::StdRng::seed_from_u64(999));
        assert_eq!(a, b, "on-demand pricing must ignore the RNG");
    }

    /// A plausible multi-round trajectory: progress accrues, users move,
    /// tasks complete and drop out of the context.
    fn trajectory() -> Vec<RoundContext> {
        (1..=10)
            .map(|round| {
                let tasks: Vec<_> = (0..6)
                    .filter(|i| i * 3 + round < 20) // tasks complete over time
                    .map(|i| {
                        snapshot(
                            i as usize,
                            12,
                            20,
                            (round - 1) * (i % 3),
                            ((i + round) % 7) as usize,
                        )
                    })
                    .collect();
                ctx(round, tasks)
            })
            .collect()
    }

    #[test]
    fn explain_agrees_with_pricing_bit_for_bit() {
        let mut m = paper_mechanism();
        for c in trajectory() {
            let breakdowns = m.explain(&c).expect("on-demand pricing is explainable");
            assert_eq!(breakdowns.len(), c.tasks.len());
            let rewards = m.rewards(&c, &mut rng());
            for (b, reward) in breakdowns.iter().zip(&rewards) {
                assert_eq!(
                    m.schedule().reward_for_level(b.level).to_bits(),
                    reward.to_bits(),
                    "round {}",
                    c.round
                );
                assert_eq!(b.level, m.schedule().levels().level_of(b.score), "round {}", c.round);
                // The recorded score re-derives from the recorded parts.
                let recombined = m.indicator().normalized_from_parts(
                    b.deadline_criterion,
                    b.progress_criterion,
                    b.scarcity_criterion,
                );
                assert_eq!(recombined.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn baseline_mechanisms_do_not_explain() {
        let fixed: Box<dyn IncentiveMechanism> =
            Box::new(crate::incentive::FixedIncentive::paper_default());
        let c = ctx(1, vec![snapshot(0, 5, 2, 0, 0)]);
        assert!(fixed.explain(&c).is_none());
    }
}
