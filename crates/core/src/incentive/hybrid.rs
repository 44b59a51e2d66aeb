use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::incentive::{IncentiveMechanism, OnDemandIncentive};
use crate::{CoreError, RoundContext};

/// A dynamism dial between fixed and on-demand pricing.
///
/// `r = (1−α)·r_flat + α·r_on-demand`, where `r_flat` is the budget's
/// uniform per-measurement price `B/Σφ` and `r_on-demand` is the
/// paper's Eq. 7 price. `α = 0` is a (deterministic, mid-priced) fixed
/// mechanism; `α = 1` is exactly on-demand. Sweeping α quantifies *how
/// much* dynamism the headline results actually need — an extension
/// experiment the paper's future-work discussion gestures at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridIncentive {
    inner: OnDemandIncentive,
    alpha: f64,
    flat: f64,
}

impl HybridIncentive {
    /// Creates the hybrid over an on-demand mechanism.
    ///
    /// `flat_reward` should be the budget's uniform price `B/Σφ` so the
    /// blend stays budget-feasible at both extremes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `alpha` is outside `[0, 1]`
    /// or `flat_reward` is not positive and finite.
    pub fn new(inner: OnDemandIncentive, alpha: f64, flat_reward: f64) -> Result<Self, CoreError> {
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(CoreError::InvalidParameter { name: "alpha", value: alpha });
        }
        if !flat_reward.is_finite() || flat_reward <= 0.0 {
            return Err(CoreError::InvalidParameter { name: "flat_reward", value: flat_reward });
        }
        Ok(HybridIncentive { inner, alpha, flat: flat_reward })
    }

    /// The blend factor α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The flat price blended in at weight `1 − α`.
    #[must_use]
    pub fn flat_reward(&self) -> f64 {
        self.flat
    }
}

impl IncentiveMechanism for HybridIncentive {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn rewards(&mut self, ctx: &RoundContext, rng: &mut dyn RngCore) -> Vec<f64> {
        self.inner
            .rewards(ctx, rng)
            .into_iter()
            .map(|r| (1.0 - self.alpha) * self.flat + self.alpha * r)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incentive::tests::{ctx, snapshot};
    use crate::{DemandIndicator, RewardSchedule, TaskId, TaskSpec};
    use paydemand_geo::Point;
    use rand::SeedableRng;

    fn inner() -> OnDemandIncentive {
        let specs: Vec<TaskSpec> = (0..20)
            .map(|i| TaskSpec::new(TaskId(i), Point::new(i as f64, 0.0), 15, 20).unwrap())
            .collect();
        OnDemandIncentive::paper_default(&specs).unwrap_or_else(|_| {
            OnDemandIncentive::new(
                DemandIndicator::paper_default(),
                RewardSchedule::paper_default(),
            )
        })
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn validation() {
        assert!(HybridIncentive::new(inner(), -0.1, 2.5).is_err());
        assert!(HybridIncentive::new(inner(), 1.1, 2.5).is_err());
        assert!(HybridIncentive::new(inner(), f64::NAN, 2.5).is_err());
        assert!(HybridIncentive::new(inner(), 0.5, 0.0).is_err());
        assert!(HybridIncentive::new(inner(), 0.5, f64::INFINITY).is_err());
        let m = HybridIncentive::new(inner(), 0.3, 2.5).unwrap();
        assert_eq!(m.alpha(), 0.3);
        assert_eq!(m.flat_reward(), 2.5);
        assert_eq!(m.name(), "hybrid");
    }

    #[test]
    fn alpha_zero_is_flat() {
        let mut m = HybridIncentive::new(inner(), 0.0, 2.5).unwrap();
        let c = ctx(3, vec![snapshot(0, 3, 20, 0, 0), snapshot(1, 15, 20, 19, 9)]);
        let r = m.rewards(&c, &mut rng());
        assert!(r.iter().all(|&x| (x - 2.5).abs() < 1e-12));
    }

    #[test]
    fn alpha_one_is_on_demand() {
        let mut hybrid = HybridIncentive::new(inner(), 1.0, 2.5).unwrap();
        let mut plain = inner();
        let c = ctx(3, vec![snapshot(0, 3, 20, 0, 0), snapshot(1, 15, 20, 19, 9)]);
        assert_eq!(hybrid.rewards(&c, &mut rng()), plain.rewards(&c, &mut rng()));
    }

    #[test]
    fn blend_is_convex() {
        let mut lo = HybridIncentive::new(inner(), 0.0, 2.5).unwrap();
        let mut mid = HybridIncentive::new(inner(), 0.5, 2.5).unwrap();
        let mut hi = HybridIncentive::new(inner(), 1.0, 2.5).unwrap();
        let c = ctx(2, vec![snapshot(0, 10, 20, 15, 8)]);
        let (a, b, m) = (
            lo.rewards(&c, &mut rng())[0],
            hi.rewards(&c, &mut rng())[0],
            mid.rewards(&c, &mut rng())[0],
        );
        assert!((m - (a + b) / 2.0).abs() < 1e-12);
    }
}
