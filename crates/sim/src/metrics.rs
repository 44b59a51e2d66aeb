//! The paper's evaluation metrics (§VI-B through §VI-F), computed from a
//! [`SimulationResult`], plus extension metrics (balance indexes,
//! data value, estimation error).
//!
//! All percentages are returned as fractions in `[0, 1]`; multiply by
//! 100 for the paper's axes.
//!
//! # Examples
//!
//! ```
//! use paydemand_sim::{engine, metrics, Scenario, SelectorKind};
//!
//! let scenario = Scenario::paper_default()
//!     .with_users(40)
//!     .with_tasks(10)
//!     .with_max_rounds(6)
//!     .with_selector(SelectorKind::Greedy)
//!     .with_seed(3);
//! let result = engine::run(&scenario)?;
//! assert!(metrics::coverage(&result) > 0.5);
//! assert!(metrics::completeness(&result) <= 1.0);
//! assert!(metrics::measurement_variance(&result) >= 0.0);
//! assert!(metrics::measurement_jain_index(&result) <= 1.0 + 1e-12);
//! # Ok::<(), paydemand_sim::SimError>(())
//! ```

use crate::SimulationResult;

/// §VI-B coverage: the fraction of tasks selected at least once by the
/// last simulated round ("each sensing task is at least selected once").
#[must_use]
pub fn coverage(result: &SimulationResult) -> f64 {
    coverage_at_round(result, result.rounds.len() as u32)
}

/// Coverage after round `k` (1-based): fraction of tasks that have
/// received ≥ 1 measurement in rounds `1..=k`. Rounds beyond the
/// simulation horizon clamp to the final coverage.
#[must_use]
pub fn coverage_at_round(result: &SimulationResult, k: u32) -> f64 {
    let m = result.workload.tasks.len();
    if m == 0 {
        return 1.0;
    }
    let k = (k as usize).min(result.rounds.len());
    let covered =
        (0..m).filter(|&i| result.rounds[..k].iter().any(|rr| rr.new_measurements[i] > 0)).count();
    covered as f64 / m as f64
}

/// §VI-C overall completeness: how fully tasks were measured *by their
/// deadlines*, averaged over tasks —
/// `mean_i min(received by round τ_i, φ_i) / φ_i`.
#[must_use]
pub fn completeness(result: &SimulationResult) -> f64 {
    completeness_at_round(result, u32::MAX)
}

/// Completeness evaluated at round `k`: each task counts its
/// measurements up to `min(k, τ_i)`, so tasks whose deadline has not yet
/// passed contribute their current progress.
#[must_use]
pub fn completeness_at_round(result: &SimulationResult, k: u32) -> f64 {
    let m = result.workload.tasks.len();
    if m == 0 {
        return 1.0;
    }
    let sum: f64 = result
        .workload
        .tasks
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let horizon = spec.deadline().min(k) as usize;
            let horizon = horizon.min(result.rounds.len());
            let got: u32 = result.rounds[..horizon].iter().map(|rr| rr.new_measurements[i]).sum();
            f64::from(got.min(spec.required())) / f64::from(spec.required())
        })
        .sum();
    sum / m as f64
}

/// Fraction of tasks fully completed before (or at) their deadlines —
/// the strict reading of "completed before their deadlines".
#[must_use]
pub fn on_time_completion_rate(result: &SimulationResult) -> f64 {
    let m = result.workload.tasks.len();
    if m == 0 {
        return 1.0;
    }
    let on_time = result
        .workload
        .tasks
        .iter()
        .enumerate()
        .filter(|(i, spec)| result.completed_round[*i].is_some_and(|k| k <= spec.deadline()))
        .count();
    on_time as f64 / m as f64
}

/// §VI-D average number of measurements per task at the end of the run
/// (Fig. 8(a); capped at φ by construction).
#[must_use]
pub fn average_measurements(result: &SimulationResult) -> f64 {
    let m = result.workload.tasks.len();
    if m == 0 {
        return 0.0;
    }
    result.total_measurements() as f64 / m as f64
}

/// §VI-D total new measurements per round (Fig. 8(b)): element `k-1` is
/// round `k`'s total.
#[must_use]
pub fn measurements_per_round(result: &SimulationResult) -> Vec<u32> {
    result.rounds.iter().map(|rr| rr.new_measurements.iter().sum()).collect()
}

/// §VI-E variance of the per-task measurement counts (population
/// variance, matching "variance of measurements" across tasks).
#[must_use]
pub fn measurement_variance(result: &SimulationResult) -> f64 {
    let m = result.received.len();
    if m == 0 {
        return 0.0;
    }
    let mean = average_measurements(result);
    result.received.iter().map(|&r| (f64::from(r) - mean).powi(2)).sum::<f64>() / m as f64
}

/// §VI-F average reward per measurement: total paid / total
/// measurements (0 when nothing was measured). Smaller is better for
/// the platform's welfare.
#[must_use]
pub fn average_reward_per_measurement(result: &SimulationResult) -> f64 {
    let total = result.total_measurements();
    if total == 0 {
        return 0.0;
    }
    result.total_paid / total as f64
}

/// §VI-A average profit per user at round `k` (1-based; Fig. 5(a) uses
/// round 2). Returns 0 for rounds beyond the horizon.
#[must_use]
pub fn average_profit_at_round(result: &SimulationResult, k: u32) -> f64 {
    let Some(rr) = result.rounds.get(k as usize - 1) else {
        return 0.0;
    };
    let n = result.workload.homes.len();
    if n == 0 {
        return 0.0;
    }
    // Starts at +0.0, as a dense sum does after its first +0.0 term, so
    // a round with no entries averages +0.0.
    let sum = rr.users.iter().fold(0.0, |sum, u| sum + u.profit);
    sum / n as f64
}

/// Total profit each user earned across all rounds, by user id.
#[must_use]
pub fn user_total_profits(result: &SimulationResult) -> Vec<f64> {
    let n = result.workload.homes.len();
    let mut totals = vec![0.0; n];
    for rr in &result.rounds {
        for u in &rr.users {
            totals[u.user as usize] += u.profit;
        }
    }
    totals
}

/// Gini coefficient of the per-task measurement counts — an inequality
/// view of the paper's "participation balance" (0 = perfectly balanced,
/// → 1 = all measurements on one task). Extension metric beyond §VI.
#[must_use]
pub fn measurement_gini(result: &SimulationResult) -> f64 {
    gini(&result.received.iter().map(|&r| f64::from(r)).collect::<Vec<_>>())
}

/// Jain's fairness index of the per-task measurement counts
/// (`(Σx)² / (n·Σx²)`; 1 = perfectly balanced, 1/n = maximally unfair).
/// Extension metric beyond §VI.
#[must_use]
pub fn measurement_jain_index(result: &SimulationResult) -> f64 {
    let xs: Vec<f64> = result.received.iter().map(|&r| f64::from(r)).collect();
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0; // all-zero counts are (vacuously) balanced
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// The platform's surplus: `budget − total paid`. Larger means the
/// platform bought the same data for less.
#[must_use]
pub fn platform_surplus(result: &SimulationResult) -> f64 {
    result.scenario.reward_budget - result.total_paid
}

/// Mean data value collected per task, normalised by `φ` and capped at
/// 1: `mean_i min(Σ quality, φ_i)/φ_i`. Under perfect quality this
/// equals `mean received/φ`; with heterogeneous sensors it reveals how
/// much *value* (not just how many samples) each mechanism bought.
/// Extension metric (see [`quality`](crate::quality)).
#[must_use]
pub fn data_value(result: &SimulationResult) -> f64 {
    let m = result.workload.tasks.len();
    if m == 0 {
        return 1.0;
    }
    result
        .workload
        .tasks
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            (result.quality_received[i].min(f64::from(spec.required())))
                / f64::from(spec.required())
        })
        .sum::<f64>()
        / m as f64
}

/// Root-mean-square error of the platform's per-task estimates against
/// ground truth, over tasks that received ≥ 1 measurement. `None` when
/// *no* task was measured. Extension metric (see
/// [`sensing`](crate::sensing)).
#[must_use]
pub fn estimation_rmse(result: &SimulationResult) -> Option<f64> {
    let mut se = 0.0;
    let mut n = 0usize;
    for (i, est) in result.estimates.iter().enumerate() {
        if let Some(mean) = est.mean() {
            let err = mean - result.workload.truths[i];
            se += err * err;
            n += 1;
        }
    }
    (n > 0).then(|| (se / n as f64).sqrt())
}

/// Fraction of tasks whose estimate lies within `tolerance` of ground
/// truth (unmeasured tasks count as misses) — a "usable map" metric:
/// how much of the city does the platform actually know?
#[must_use]
pub fn estimation_hit_rate(result: &SimulationResult, tolerance: f64) -> f64 {
    let m = result.estimates.len();
    if m == 0 {
        return 1.0;
    }
    let hits = result
        .estimates
        .iter()
        .enumerate()
        .filter(|(i, est)| {
            est.mean().is_some_and(|mean| (mean - result.workload.truths[*i]).abs() <= tolerance)
        })
        .count();
    hits as f64 / m as f64
}

/// Gini coefficient of a non-negative sample (0 for empty/all-zero).
#[must_use]
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let sum: f64 = sorted.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    // G = (2·Σ i·x_(i) )/(n·Σx) − (n+1)/n with 1-based ranks.
    let weighted: f64 = sorted.iter().enumerate().map(|(i, x)| (i as f64 + 1.0) * x).sum();
    (2.0 * weighted) / (n as f64 * sum) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::{MechanismKind, Scenario, SelectorKind};

    fn result() -> SimulationResult {
        let s = Scenario::paper_default()
            .with_users(25)
            .with_tasks(8)
            .with_max_rounds(8)
            .with_selector(SelectorKind::GreedyTwoOpt)
            .with_mechanism(MechanismKind::OnDemand)
            .with_seed(21);
        run(&s).unwrap()
    }

    #[test]
    fn coverage_is_monotone_in_rounds() {
        let r = result();
        let mut last = 0.0;
        for k in 1..=r.rounds.len() as u32 {
            let c = coverage_at_round(&r, k);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= last, "coverage must not decrease");
            last = c;
        }
        assert_eq!(coverage(&r), last);
        // Clamped beyond the horizon.
        assert_eq!(coverage_at_round(&r, 999), last);
    }

    #[test]
    fn completeness_bounds_and_consistency() {
        let r = result();
        let c = completeness(&r);
        assert!((0.0..=1.0).contains(&c));
        // Strict on-time completion is never above soft completeness.
        assert!(on_time_completion_rate(&r) <= c + 1e-12);
        // Completeness at the final round equals overall completeness.
        assert!((completeness_at_round(&r, r.scenario.max_rounds) - c).abs() < 1e-12);
        // Completeness is monotone in the evaluation round.
        let mut last = 0.0;
        for k in 1..=r.scenario.max_rounds {
            let ck = completeness_at_round(&r, k);
            assert!(ck >= last - 1e-12);
            last = ck;
        }
    }

    #[test]
    fn measurement_metrics_consistent() {
        let r = result();
        let per_round = measurements_per_round(&r);
        assert_eq!(per_round.len(), r.rounds.len());
        let total: u32 = per_round.iter().sum();
        assert_eq!(u64::from(total), r.total_measurements());
        let avg = average_measurements(&r);
        assert!(avg <= f64::from(r.scenario.required_per_task));
        assert!(measurement_variance(&r) >= 0.0);
    }

    #[test]
    fn reward_per_measurement_within_schedule() {
        let r = result();
        let avg = average_reward_per_measurement(&r);
        // On-demand rewards live in [r0, r0 + λ(N−1)] per Eq. 7/9.
        let s = &r.scenario;
        let r0 = s.reward_budget / s.total_required() as f64
            - s.reward_increment * f64::from(s.demand_levels - 1);
        let max = r0 + s.reward_increment * f64::from(s.demand_levels - 1);
        assert!((r0..=max).contains(&avg), "avg reward {avg} outside [{r0}, {max}]");
    }

    #[test]
    fn profit_at_round() {
        let r = result();
        let p1 = average_profit_at_round(&r, 1);
        assert!(p1 >= 0.0);
        assert_eq!(average_profit_at_round(&r, 999), 0.0);
    }

    #[test]
    fn gini_known_values() {
        // Perfect equality.
        assert_eq!(gini(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        // Total inequality approaches (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 12.0]);
        assert!((g - 0.75).abs() < 1e-12, "g = {g}");
        // Degenerate inputs.
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        // Order-invariance.
        assert_eq!(gini(&[1.0, 3.0, 2.0]), gini(&[3.0, 1.0, 2.0]));
    }

    #[test]
    fn jain_known_values() {
        let r = result();
        let j = measurement_jain_index(&r);
        assert!((0.0..=1.0 + 1e-12).contains(&j));
        // Balanced counts give exactly 1.
        let mut balanced = r.clone();
        balanced.received = vec![7; balanced.received.len()];
        assert!((measurement_jain_index(&balanced) - 1.0).abs() < 1e-12);
        // All-on-one gives 1/n.
        let mut unfair = r.clone();
        let n = unfair.received.len();
        unfair.received = vec![0; n];
        unfair.received[0] = 20;
        assert!((measurement_jain_index(&unfair) - 1.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn balance_metrics_agree_on_direction() {
        // The on-demand run from `result()` is well balanced: low Gini,
        // high Jain.
        let r = result();
        assert!(measurement_gini(&r) < 0.3, "gini {}", measurement_gini(&r));
        assert!(measurement_jain_index(&r) > 0.8);
    }

    #[test]
    fn user_totals_sum_to_round_profits() {
        let r = result();
        let totals = user_total_profits(&r);
        assert_eq!(totals.len(), r.workload.homes.len());
        let total_from_rounds: f64 =
            r.rounds.iter().flat_map(|rr| &rr.users).map(|u| u.profit).sum();
        let total: f64 = totals.iter().sum();
        assert!((total - total_from_rounds).abs() < 1e-9);
        assert!(totals.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn data_value_equals_count_fraction_under_perfect_quality() {
        let r = result();
        let count_fraction: f64 = r
            .workload
            .tasks
            .iter()
            .enumerate()
            .map(|(i, s)| f64::from(r.received[i]) / f64::from(s.required()))
            .sum::<f64>()
            / r.workload.tasks.len() as f64;
        assert!((data_value(&r) - count_fraction).abs() < 1e-12);
    }

    #[test]
    fn data_value_scales_with_quality() {
        use crate::quality::QualityDistribution;
        let base = Scenario::paper_default()
            .with_users(25)
            .with_tasks(8)
            .with_max_rounds(8)
            .with_selector(SelectorKind::GreedyTwoOpt)
            .with_seed(21);
        let perfect = run(&base.clone()).unwrap();
        let degraded = run(&Scenario {
            user_quality: QualityDistribution::Uniform { lo: 0.4, hi: 0.6 },
            ..base
        })
        .unwrap();
        // Same seeds place the same world; only the quality draw and its
        // RNG consumption differ, so counts are close and value halves.
        assert!(data_value(&degraded) < 0.75 * data_value(&perfect));
        assert!(data_value(&degraded) > 0.0);
    }

    #[test]
    fn estimation_metrics_behave() {
        let r = result();
        // The paper-default noise (3 dB at quality 1, ~19 samples/task)
        // puts the standard error near 3/sqrt(19) ≈ 0.7 dB.
        let rmse = estimation_rmse(&r).expect("tasks were measured");
        assert!(rmse > 0.0 && rmse < 3.0, "rmse {rmse}");
        // Hit rate tightens monotonically with tolerance.
        let loose = estimation_hit_rate(&r, 5.0);
        let tight = estimation_hit_rate(&r, 0.1);
        assert!(loose >= tight);
        assert!(loose > 0.9, "5 dB tolerance should catch nearly all, got {loose}");
        // Degenerate: nothing measured.
        let mut empty = r.clone();
        for e in &mut empty.estimates {
            *e = crate::sensing::Estimate::default();
        }
        assert_eq!(estimation_rmse(&empty), None);
        assert_eq!(estimation_hit_rate(&empty, 5.0), 0.0);
    }

    #[test]
    fn better_quality_users_give_better_estimates() {
        use crate::quality::QualityDistribution;
        let base = Scenario::paper_default()
            .with_users(60)
            .with_tasks(10)
            .with_max_rounds(10)
            .with_selector(SelectorKind::GreedyTwoOpt)
            .with_seed(77);
        let sharp = run(&base.clone()).unwrap();
        let blurry = run(&Scenario {
            user_quality: QualityDistribution::Uniform { lo: 0.2, hi: 0.3 },
            ..base
        })
        .unwrap();
        let rmse_sharp = estimation_rmse(&sharp).unwrap();
        let rmse_blurry = estimation_rmse(&blurry).unwrap();
        assert!(
            rmse_blurry > rmse_sharp,
            "quality-0.25 sensors must estimate worse: {rmse_blurry} vs {rmse_sharp}"
        );
    }

    #[test]
    fn platform_surplus_complement_of_paid() {
        let r = result();
        assert!((platform_surplus(&r) - (r.scenario.reward_budget - r.total_paid)).abs() < 1e-12);
        assert!(platform_surplus(&r) >= 0.0, "platform overspent its budget");
    }

    proptest::proptest! {
        #[test]
        fn gini_and_jain_bounds(
            values in proptest::collection::vec(0.0..100.0f64, 1..40)
        ) {
            let g = gini(&values);
            proptest::prop_assert!((0.0..=1.0).contains(&g), "gini {}", g);
            // Jain via a synthetic result is overkill; check the raw
            // formula bounds directly on the same sample.
            let n = values.len() as f64;
            let sum: f64 = values.iter().sum();
            let sum_sq: f64 = values.iter().map(|x| x * x).sum();
            if sum_sq > 0.0 {
                let jain = sum * sum / (n * sum_sq);
                proptest::prop_assert!(jain >= 1.0 / n - 1e-9);
                proptest::prop_assert!(jain <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn empty_task_degenerate_guards() {
        // Metrics must not divide by zero on degenerate results; build a
        // minimal synthetic result with zero rounds.
        let s = Scenario::paper_default().with_users(1).with_tasks(1).with_max_rounds(1);
        let mut r = run(&s.with_selector(SelectorKind::Greedy)).unwrap();
        r.rounds.clear();
        r.received = vec![0];
        assert_eq!(coverage(&r), 0.0);
        assert_eq!(average_reward_per_measurement(&r), 0.0);
        assert_eq!(average_profit_at_round(&r, 1), 0.0);
    }
}
