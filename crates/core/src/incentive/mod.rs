//! Incentive mechanisms: how the platform prices each task each round.
//!
//! The [`IncentiveMechanism`] trait is the plug point the evaluation
//! harness sweeps over. Three mechanisms are provided, matching §VI:
//!
//! * [`OnDemandIncentive`] — the paper's contribution: demand-indicator
//!   pricing with AHP weights (Eq. 2–7);
//! * [`FixedIncentive`] — the fixed baseline: a random demand level per
//!   task drawn once, never changed;
//! * [`SteeredIncentive`] — the steered-crowdsensing baseline
//!   (Kawajiri et al.): `R = Rc + μ·ΔQ(x)`, decaying as measurements
//!   accumulate (Eq. 13).
//!
//! Two extension mechanisms support the ablation studies:
//!
//! * [`ProportionalIncentive`] — continuous demand-proportional pricing
//!   (ablates the Table III level discretisation);
//! * [`HybridIncentive`] — an `α`-blend between flat and on-demand
//!   pricing (how much dynamism do the results need?).

mod fixed;
mod hybrid;
mod on_demand;
mod proportional;
mod steered;

pub use fixed::FixedIncentive;
pub use hybrid::HybridIncentive;
pub use on_demand::OnDemandIncentive;
pub use proportional::ProportionalIncentive;
pub use steered::SteeredIncentive;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::RoundContext;

/// Why one task was priced the way it was: the per-criterion values,
/// the AHP-weighted score and the mapped level behind a posted reward.
/// Produced by [`IncentiveMechanism::explain`] for mechanisms whose
/// pricing decomposes this way (currently the on-demand mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandBreakdown {
    /// Deadline-pressure criterion `X₁` (Eq. 3).
    pub deadline_criterion: f64,
    /// Completion-progress criterion `X₂` (Eq. 4).
    pub progress_criterion: f64,
    /// Neighbour-scarcity criterion `X₃` (Eq. 5).
    pub scarcity_criterion: f64,
    /// Normalised AHP-weighted demand score `d̄ ∈ [0, 1]` (Eq. 2, §IV-C).
    pub score: f64,
    /// Demand level the score maps to (1-based, Table III).
    pub level: u32,
}

/// A pricing policy: given a round snapshot, return the reward for each
/// published task (aligned with `ctx.tasks`).
///
/// Mechanisms may be stateful (the fixed baseline remembers its random
/// levels; mechanisms could track spend) and may use randomness through
/// the supplied RNG — never through a global one, so experiments stay
/// reproducible. The `Send` bound lets an engine holding a boxed
/// mechanism be parked behind a mutex and served from worker threads.
pub trait IncentiveMechanism: std::fmt::Debug + Send {
    /// A short, stable, human-readable mechanism name (used in reports
    /// and figure legends, e.g. `"on-demand"`).
    fn name(&self) -> &'static str;

    /// Prices every task in `ctx.tasks`, in order. Implementations must
    /// return exactly `ctx.tasks.len()` rewards.
    fn rewards(&mut self, ctx: &RoundContext, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Serializes any mutable pricing state into an opaque blob, for
    /// checkpointing. Stateless mechanisms (the default) return an
    /// empty blob.
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state previously produced by
    /// [`IncentiveMechanism::export_state`] on a freshly built
    /// mechanism of the same kind. The default accepts only the empty
    /// blob.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), crate::CoreError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(crate::CoreError::InvalidParameter {
                name: "mechanism state blob length",
                value: state.len() as f64,
            })
        }
    }

    /// Explains the pricing of `ctx`: one [`DemandBreakdown`] per task
    /// in `ctx.tasks`, in order, for mechanisms whose pricing
    /// decomposes into criteria/score/level. The default — and the
    /// right answer for the baselines, whose prices carry no demand
    /// decomposition — is `None`. Must be read-only: no RNG and no
    /// effect on future [`IncentiveMechanism::rewards`].
    fn explain(&self, ctx: &RoundContext) -> Option<Vec<DemandBreakdown>> {
        let _ = ctx;
        None
    }
}

impl<T: IncentiveMechanism + ?Sized> IncentiveMechanism for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn rewards(&mut self, ctx: &RoundContext, rng: &mut dyn RngCore) -> Vec<f64> {
        (**self).rewards(ctx, rng)
    }

    fn export_state(&self) -> Vec<u8> {
        (**self).export_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), crate::CoreError> {
        (**self).restore_state(state)
    }

    fn explain(&self, ctx: &RoundContext) -> Option<Vec<DemandBreakdown>> {
        (**self).explain(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TaskId, TaskProgress};
    use paydemand_geo::Point;
    use rand::SeedableRng;

    pub(crate) fn snapshot(
        id: usize,
        deadline: u32,
        required: u32,
        received: u32,
        neighbors: usize,
    ) -> TaskProgress {
        TaskProgress {
            id: TaskId(id),
            location: Point::new(id as f64 * 100.0, 0.0),
            deadline,
            required,
            received,
            neighbors,
        }
    }

    pub(crate) fn ctx(round: u32, tasks: Vec<TaskProgress>) -> RoundContext {
        let max_neighbors = tasks.iter().map(|t| t.neighbors).max().unwrap_or(0);
        RoundContext { round, tasks, max_neighbors }
    }

    #[test]
    fn boxed_mechanism_delegates() {
        let specs = vec![crate::TaskSpec::new(TaskId(0), Point::ORIGIN, 5, 2).unwrap()];
        let mut boxed: Box<dyn IncentiveMechanism> =
            Box::new(OnDemandIncentive::paper_default(&specs).unwrap());
        assert_eq!(boxed.name(), "on-demand");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let c = ctx(1, vec![snapshot(0, 5, 2, 0, 0)]);
        assert_eq!(boxed.rewards(&c, &mut rng).len(), 1);
    }
}
