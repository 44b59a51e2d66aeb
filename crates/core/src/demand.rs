//! The demand indicator (paper §IV, Eq. 2–5).
//!
//! The demand of task `t_i` at round `k` blends three criterion scores:
//!
//! * `X^k_{i1} = λ₁ ln(1 + 1/(τ_i − (k−1)))` — deadline pressure (Eq. 3);
//! * `X^k_{i2} = λ₂ ln(1 + (1 − π_i/φ_i))` — remaining work (Eq. 4);
//! * `X^k_{i3} = λ₃ ln(1 + (1 − N_i/N_max))` — user scarcity (Eq. 5);
//!
//! with AHP-derived weights: `d^k_i = w₁X₁ + w₂X₂ + w₃X₃` (Eq. 2), then
//! normalises by the analytic upper bound `λ_max ln 2` so that
//! `d̄ ∈ [0, 1]` (§IV-C).
//!
//! Two paper-underspecified corners are resolved here and exercised in
//! tests: a task *past its deadline* keeps the maximal deadline demand
//! (the bound `λ₁ ln 2`), and when *no* task has any neighbouring user
//! (`N_max = 0`) every task gets the maximal scarcity demand.

use serde::{Deserialize, Serialize};

use paydemand_ahp::{PairwiseMatrix, WeightMethod};

use crate::CoreError;

/// Scale coefficients `λ₁, λ₂, λ₃` of Eq. 3–5.
///
/// The paper never assigns them concrete values; since §IV-C normalises
/// by `λ_max ln 2`, equal coefficients (the default, all 1) make the
/// normalisation exact and are what the evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandCriteria {
    /// `λ₁` — deadline criterion scale.
    pub lambda_deadline: f64,
    /// `λ₂` — progress criterion scale.
    pub lambda_progress: f64,
    /// `λ₃` — neighbour-scarcity criterion scale.
    pub lambda_neighbors: f64,
}

impl Default for DemandCriteria {
    fn default() -> Self {
        DemandCriteria { lambda_deadline: 1.0, lambda_progress: 1.0, lambda_neighbors: 1.0 }
    }
}

impl DemandCriteria {
    /// Creates criteria scales, validating positivity.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if any `λ` is not positive and
    /// finite.
    pub fn new(
        lambda_deadline: f64,
        lambda_progress: f64,
        lambda_neighbors: f64,
    ) -> Result<Self, CoreError> {
        for (name, v) in [
            ("lambda_deadline", lambda_deadline),
            ("lambda_progress", lambda_progress),
            ("lambda_neighbors", lambda_neighbors),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::InvalidParameter { name, value: v });
            }
        }
        Ok(DemandCriteria { lambda_deadline, lambda_progress, lambda_neighbors })
    }

    /// The largest coefficient, `λ_max` of §IV-C.
    #[must_use]
    pub fn lambda_max(&self) -> f64 {
        self.lambda_deadline.max(self.lambda_progress).max(self.lambda_neighbors)
    }

    /// Eq. 3 — demand from deadline pressure. `round` is the current
    /// round `k` (1-based); a task at or past its deadline saturates at
    /// the upper bound `λ₁ ln 2`.
    #[must_use]
    pub fn deadline_demand(&self, deadline: u32, round: u32) -> f64 {
        let remaining = i64::from(deadline) - (i64::from(round) - 1);
        if remaining <= 0 {
            return self.lambda_deadline * std::f64::consts::LN_2;
        }
        self.lambda_deadline * (1.0 + 1.0 / remaining as f64).ln()
    }

    /// Eq. 4 — demand from remaining work. `received` is clamped to
    /// `required` so over-delivered tasks score zero.
    #[must_use]
    pub fn progress_demand(&self, received: u32, required: u32) -> f64 {
        debug_assert!(required > 0, "required must be positive");
        let progress = (f64::from(received) / f64::from(required.max(1))).min(1.0);
        self.lambda_progress * (2.0 - progress).ln()
    }

    /// Eq. 5 — demand from neighbouring-user scarcity. When
    /// `max_neighbors` is 0 there are no users near any task; everything
    /// saturates at `λ₃ ln 2`.
    #[must_use]
    pub fn neighbor_demand(&self, neighbors: usize, max_neighbors: usize) -> f64 {
        let ratio = if max_neighbors == 0 {
            0.0
        } else {
            (neighbors as f64 / max_neighbors as f64).min(1.0)
        };
        self.lambda_neighbors * (2.0 - ratio).ln()
    }
}

/// The AHP weight vector `W = (w₁, w₂, w₃)` of Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandWeights {
    /// Weight of the deadline criterion.
    pub deadline: f64,
    /// Weight of the completion-progress criterion.
    pub progress: f64,
    /// Weight of the neighbour-scarcity criterion.
    pub neighbors: f64,
}

impl DemandWeights {
    /// Derives weights from a 3×3 pairwise comparison matrix with the
    /// chosen extraction method (the paper uses row averages, Eq. 6).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCount`] if the matrix order is not 3.
    pub fn from_ahp(matrix: &PairwiseMatrix, method: WeightMethod) -> Result<Self, CoreError> {
        if matrix.order() != 3 {
            return Err(CoreError::InvalidCount { name: "criteria", value: matrix.order() });
        }
        let w = matrix.weights(method);
        Ok(DemandWeights { deadline: w[0], progress: w[1], neighbors: w[2] })
    }

    /// The paper's example weights: Table I judgements
    /// (deadline ≻ progress ≻ neighbours) through Eq. 6, giving
    /// `W ≈ (0.648, 0.230, 0.122)`.
    ///
    /// # Panics
    ///
    /// Never panics; the Table I matrix is statically valid.
    #[must_use]
    pub fn paper_example() -> Self {
        let matrix = PairwiseMatrix::from_upper_triangle(3, &[3.0, 5.0, 2.0])
            .expect("Table I is a valid reciprocal matrix");
        DemandWeights::from_ahp(&matrix, WeightMethod::RowAverage).expect("Table I has order 3")
    }

    /// Explicit weights, validated to be a distribution.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if any weight is negative /
    /// non-finite or they do not sum to 1 (within 1e-9).
    pub fn explicit(deadline: f64, progress: f64, neighbors: f64) -> Result<Self, CoreError> {
        for (name, v) in
            [("w_deadline", deadline), ("w_progress", progress), ("w_neighbors", neighbors)]
        {
            if !v.is_finite() || v < 0.0 {
                return Err(CoreError::InvalidParameter { name, value: v });
            }
        }
        let sum = deadline + progress + neighbors;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::InvalidParameter { name: "weight_sum", value: sum });
        }
        Ok(DemandWeights { deadline, progress, neighbors })
    }
}

impl Default for DemandWeights {
    fn default() -> Self {
        DemandWeights::paper_example()
    }
}

/// Computes demands for whole rounds: Eq. 2 plus the §IV-C
/// normalisation to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandIndicator {
    criteria: DemandCriteria,
    weights: DemandWeights,
}

/// Everything the demand indicator needs to know about one task at one
/// round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskObservation {
    /// Deadline `τ_i` in rounds.
    pub deadline: u32,
    /// Required measurements `φ_i`.
    pub required: u32,
    /// Measurements received so far `π_i`.
    pub received: u32,
    /// Neighbouring users `N_i` (within radius R).
    pub neighbors: usize,
}

impl DemandIndicator {
    /// Creates an indicator from criteria scales and weights.
    #[must_use]
    pub fn new(criteria: DemandCriteria, weights: DemandWeights) -> Self {
        DemandIndicator { criteria, weights }
    }

    /// The paper's configuration: unit `λ`s and Table I AHP weights.
    #[must_use]
    pub fn paper_default() -> Self {
        DemandIndicator::new(DemandCriteria::default(), DemandWeights::paper_example())
    }

    /// The configured criteria scales.
    #[must_use]
    pub fn criteria(&self) -> DemandCriteria {
        self.criteria
    }

    /// The configured weights.
    #[must_use]
    pub fn weights(&self) -> DemandWeights {
        self.weights
    }

    /// The three criterion scores `(X₁, X₂, X₃)` of Eq. 3–5 for one
    /// task. Exposed separately so a price can be explained criterion
    /// by criterion; combining the parts with
    /// [`normalized_from_parts`](Self::normalized_from_parts) is
    /// bit-identical to [`normalized_demand`](Self::normalized_demand).
    #[must_use]
    pub fn criterion_parts(
        &self,
        obs: &TaskObservation,
        round: u32,
        max_neighbors: usize,
    ) -> (f64, f64, f64) {
        (
            self.criteria.deadline_demand(obs.deadline, round),
            self.criteria.progress_demand(obs.received, obs.required),
            self.criteria.neighbor_demand(obs.neighbors, max_neighbors),
        )
    }

    /// Eq. 2's weighted blend of already-computed criterion scores.
    #[must_use]
    pub fn combine_parts(&self, x1: f64, x2: f64, x3: f64) -> f64 {
        self.weights.deadline * x1 + self.weights.progress * x2 + self.weights.neighbors * x3
    }

    /// §IV-C normalisation applied to already-computed criterion scores.
    #[must_use]
    pub fn normalized_from_parts(&self, x1: f64, x2: f64, x3: f64) -> f64 {
        let bound = self.criteria.lambda_max() * std::f64::consts::LN_2;
        (self.combine_parts(x1, x2, x3) / bound).clamp(0.0, 1.0)
    }

    /// Raw demand `d^k_i` of one task (Eq. 2). `round` is 1-based and
    /// `max_neighbors` is `N_max` across all tasks this round.
    #[must_use]
    pub fn raw_demand(&self, obs: &TaskObservation, round: u32, max_neighbors: usize) -> f64 {
        let (x1, x2, x3) = self.criterion_parts(obs, round, max_neighbors);
        self.combine_parts(x1, x2, x3)
    }

    /// Normalised demand `d̄^k_i = d^k_i / (λ_max ln 2) ∈ [0, 1]`.
    #[must_use]
    pub fn normalized_demand(
        &self,
        obs: &TaskObservation,
        round: u32,
        max_neighbors: usize,
    ) -> f64 {
        let (x1, x2, x3) = self.criterion_parts(obs, round, max_neighbors);
        self.normalized_from_parts(x1, x2, x3)
    }

    /// Normalised demands for a whole round: computes `N_max` internally
    /// and maps every observation through
    /// [`normalized_demand`](Self::normalized_demand).
    #[must_use]
    pub fn round_demands(&self, observations: &[TaskObservation], round: u32) -> Vec<f64> {
        let max_neighbors = observations.iter().map(|o| o.neighbors).max().unwrap_or(0);
        observations.iter().map(|o| self.normalized_demand(o, round, max_neighbors)).collect()
    }

    /// The normalised demand a single task would have at every round
    /// `1..=horizon` under a fixed observation — the *ceteris paribus*
    /// trajectory driven purely by deadline pressure (Eq. 3). Useful for
    /// plotting and for reasoning about how fast an ignored task's price
    /// climbs.
    ///
    /// ```
    /// use paydemand_core::demand::{DemandIndicator, TaskObservation};
    ///
    /// let ind = DemandIndicator::paper_default();
    /// let obs = TaskObservation { deadline: 10, required: 20, received: 0, neighbors: 0 };
    /// let t = ind.trajectory(&obs, 12, 5);
    /// assert_eq!(t.len(), 12);
    /// // Strictly increasing until the deadline, then saturated.
    /// assert!(t[8] > t[0]);
    /// assert_eq!(t[10], t[11]);
    /// ```
    #[must_use]
    pub fn trajectory(
        &self,
        obs: &TaskObservation,
        horizon: u32,
        max_neighbors: usize,
    ) -> Vec<f64> {
        (1..=horizon).map(|k| self.normalized_demand(obs, k, max_neighbors)).collect()
    }
}

impl Default for DemandIndicator {
    fn default() -> Self {
        DemandIndicator::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::LN_2;

    fn obs(deadline: u32, required: u32, received: u32, neighbors: usize) -> TaskObservation {
        TaskObservation { deadline, required, received, neighbors }
    }

    #[test]
    fn criteria_validation() {
        assert!(DemandCriteria::new(1.0, 2.0, 3.0).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(DemandCriteria::new(bad, 1.0, 1.0).is_err());
            assert!(DemandCriteria::new(1.0, bad, 1.0).is_err());
            assert!(DemandCriteria::new(1.0, 1.0, bad).is_err());
        }
        assert_eq!(DemandCriteria::new(1.0, 2.0, 3.0).unwrap().lambda_max(), 3.0);
    }

    #[test]
    fn deadline_demand_grows_towards_deadline() {
        let c = DemandCriteria::default();
        // Round 1, deadline 10: demand λ ln(1 + 1/10).
        let early = c.deadline_demand(10, 1);
        assert!((early - (1.1f64).ln()).abs() < 1e-12);
        // Growth accelerates (paper: "the growth rate ... increases").
        let demands: Vec<f64> = (1..=10).map(|k| c.deadline_demand(10, k)).collect();
        for w in demands.windows(2) {
            assert!(w[1] > w[0], "demand must increase towards the deadline");
        }
        let diffs: Vec<f64> = demands.windows(2).map(|w| w[1] - w[0]).collect();
        for w in diffs.windows(2) {
            assert!(w[1] > w[0], "growth rate must increase towards the deadline");
        }
        // Last round before deadline: λ ln 2 (the upper bound).
        assert!((c.deadline_demand(10, 10) - LN_2).abs() < 1e-12);
    }

    #[test]
    fn deadline_demand_saturates_past_deadline() {
        let c = DemandCriteria::default();
        assert_eq!(c.deadline_demand(5, 6), LN_2);
        assert_eq!(c.deadline_demand(5, 100), LN_2);
    }

    #[test]
    fn progress_demand_decreases_and_bounds() {
        let c = DemandCriteria::default();
        // Fresh task: λ ln 2.
        assert!((c.progress_demand(0, 20) - LN_2).abs() < 1e-12);
        // Complete task: 0.
        assert_eq!(c.progress_demand(20, 20), 0.0);
        // Over-delivery clamps to 0, not negative.
        assert_eq!(c.progress_demand(25, 20), 0.0);
        // Monotone decreasing with accelerating reduction rate.
        let demands: Vec<f64> = (0..=20).map(|r| c.progress_demand(r, 20)).collect();
        for w in demands.windows(2) {
            assert!(w[1] < w[0]);
        }
        let drops: Vec<f64> = demands.windows(2).map(|w| w[0] - w[1]).collect();
        for w in drops.windows(2) {
            assert!(w[1] > w[0], "reduction rate must increase as progress -> 1");
        }
    }

    #[test]
    fn neighbor_demand_scarcity() {
        let c = DemandCriteria::default();
        // No neighbours at all anywhere: saturate at λ ln 2 for everyone.
        assert!((c.neighbor_demand(0, 0) - LN_2).abs() < 1e-12);
        // Task with N_max neighbours: zero scarcity demand.
        assert_eq!(c.neighbor_demand(7, 7), 0.0);
        // Fewer neighbours, more demand.
        assert!(c.neighbor_demand(1, 10) > c.neighbor_demand(5, 10));
        // Upper bound.
        assert!((c.neighbor_demand(0, 10) - LN_2).abs() < 1e-12);
    }

    #[test]
    fn paper_example_weights() {
        let w = DemandWeights::paper_example();
        assert!((w.deadline - 0.648).abs() < 1e-3);
        assert!((w.progress - 0.230).abs() < 1e-3);
        assert!((w.neighbors - 0.122).abs() < 1e-3);
        assert!((w.deadline + w.progress + w.neighbors - 1.0).abs() < 1e-12);
        assert_eq!(DemandWeights::default(), w);
    }

    #[test]
    fn explicit_weights_validation() {
        assert!(DemandWeights::explicit(0.5, 0.3, 0.2).is_ok());
        assert!(DemandWeights::explicit(0.5, 0.3, 0.3).is_err());
        assert!(DemandWeights::explicit(-0.1, 0.6, 0.5).is_err());
        assert!(DemandWeights::explicit(f64::NAN, 0.5, 0.5).is_err());
    }

    #[test]
    fn from_ahp_requires_order_three() {
        let two = PairwiseMatrix::from_upper_triangle(2, &[2.0]).unwrap();
        assert!(matches!(
            DemandWeights::from_ahp(&two, WeightMethod::RowAverage),
            Err(CoreError::InvalidCount { name: "criteria", value: 2 })
        ));
    }

    #[test]
    fn fresh_far_task_has_maximal_demand() {
        // At its deadline round, untouched, no users near it while others
        // have many: every criterion saturates, so d̄ = 1.
        let ind = DemandIndicator::paper_default();
        let o = obs(1, 20, 0, 0);
        let d = ind.normalized_demand(&o, 1, 50);
        assert!((d - 1.0).abs() < 1e-12, "d̄ = {d}");
    }

    #[test]
    fn complete_popular_task_has_minimal_demand() {
        let ind = DemandIndicator::paper_default();
        // Far deadline, fully complete, the most-neighboured task.
        let o = obs(1000, 20, 20, 50);
        let d = ind.normalized_demand(&o, 1, 50);
        assert!(d < 0.01, "d̄ = {d}");
    }

    #[test]
    fn round_demands_computes_nmax_internally() {
        let ind = DemandIndicator::paper_default();
        let observations = vec![obs(10, 20, 0, 2), obs(10, 20, 0, 8)];
        let d = ind.round_demands(&observations, 1);
        assert_eq!(d.len(), 2);
        // The lonelier task must have strictly higher demand.
        assert!(d[0] > d[1]);
        // Empty round.
        assert!(ind.round_demands(&[], 1).is_empty());
    }

    #[test]
    fn deadline_weight_dominates_paper_config() {
        // With W = (0.648, 0.23, 0.122), a task one round from deadline
        // but complete & popular still outranks a fresh lonely task far
        // from its deadline only if deadline pressure dominates; check
        // relative ordering is driven by the weighted blend.
        let ind = DemandIndicator::paper_default();
        let urgent_done = obs(1, 20, 20, 10); // max X1, zero X2, zero X3
        let fresh_lonely = obs(1000, 20, 0, 0); // ~zero X1, max X2, max X3
        let du = ind.normalized_demand(&urgent_done, 1, 10);
        let df = ind.normalized_demand(&fresh_lonely, 1, 10);
        assert!((du - 0.648).abs() < 1e-3);
        assert!(df > 0.35 && df < 0.36, "0.230 + 0.122 + tiny X1 = {df}");
        assert!(du > df);
    }

    #[test]
    fn parts_recombine_to_normalized_demand() {
        let ind = DemandIndicator::paper_default();
        let o = obs(7, 20, 5, 2);
        let (x1, x2, x3) = ind.criterion_parts(&o, 3, 6);
        assert_eq!(
            ind.normalized_from_parts(x1, x2, x3).to_bits(),
            ind.normalized_demand(&o, 3, 6).to_bits()
        );
        assert_eq!(ind.combine_parts(x1, x2, x3), ind.raw_demand(&o, 3, 6));
    }

    proptest! {
        #[test]
        fn normalized_demand_is_in_unit_interval(
            deadline in 1u32..30, required in 1u32..50,
            received_frac in 0.0..1.2f64, neighbors in 0usize..100,
            max_extra in 0usize..100, round in 1u32..40,
        ) {
            let ind = DemandIndicator::paper_default();
            let received = (received_frac * required as f64) as u32;
            let o = obs(deadline, required, received, neighbors);
            let d = ind.normalized_demand(&o, round, neighbors + max_extra);
            prop_assert!((0.0..=1.0).contains(&d), "d̄ = {}", d);
        }

        #[test]
        fn demand_monotone_in_progress(
            received_a in 0u32..20, received_b in 0u32..20,
        ) {
            let ind = DemandIndicator::paper_default();
            let (lo, hi) = if received_a <= received_b {
                (received_a, received_b)
            } else {
                (received_b, received_a)
            };
            let d_lo = ind.normalized_demand(&obs(10, 20, lo, 5), 3, 10);
            let d_hi = ind.normalized_demand(&obs(10, 20, hi, 5), 3, 10);
            prop_assert!(d_lo >= d_hi, "less progress must not mean less demand");
        }

        #[test]
        fn demand_monotone_in_neighbors(n_a in 0usize..50, n_b in 0usize..50) {
            let ind = DemandIndicator::paper_default();
            let (lo, hi) = if n_a <= n_b { (n_a, n_b) } else { (n_b, n_a) };
            let d_lo = ind.normalized_demand(&obs(10, 20, 5, lo), 3, 50);
            let d_hi = ind.normalized_demand(&obs(10, 20, 5, hi), 3, 50);
            prop_assert!(d_lo >= d_hi, "fewer neighbours must not mean less demand");
        }
    }
}
