//! Fig. 5 — the DP vs greedy selector comparison.
//!
//! The paper runs the system to sensing round 2 and compares, *on the
//! same state*, the profit each selection algorithm would earn for each
//! user: Fig. 5(a) plots the mean profit per user against the user
//! count; Fig. 5(b) boxplots the per-user profit difference
//! (DP − greedy), which the paper reports as always positive.
//!
//! To hold the state fixed while swapping selectors, this module runs
//! its own two-round loop: round 1 executes with the DP selector; at
//! round 2, each user's selection problem is solved by *both*
//! algorithms, the DP choice is executed, and both profits are
//! recorded. The loop is the engine's round reduced to what the
//! comparison needs: uploads are submitted without the engine's
//! per-measurement sensing draw, so the main stream diverges after the
//! first measurement and its round 2 is not the engine's round 2 for
//! the same seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use paydemand_core::{Platform, PublishedTask, TaskId, UserId};
use paydemand_geo::Point;

use crate::engine::solve_selection;
use crate::report::{Figure, Series};
use crate::runner::rep_seed;
use crate::stats::{FiveNumber, Summary};
use crate::{SelectorKind, SimError, Workload};

use super::FigureParams;

use std::collections::HashSet;

/// Raw output of the round-2 selector comparison at one user count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectorComparison {
    /// Number of users simulated.
    pub users: usize,
    /// Round-2 profit per user under the DP selector, all repetitions
    /// concatenated.
    pub dp_profits: Vec<f64>,
    /// Round-2 profit per user under the greedy selector (same states).
    pub greedy_profits: Vec<f64>,
}

impl SelectorComparison {
    /// Per-user profit differences `dp − greedy`.
    #[must_use]
    pub fn differences(&self) -> Vec<f64> {
        self.dp_profits.iter().zip(&self.greedy_profits).map(|(d, g)| d - g).collect()
    }
}

/// Runs the comparison for every configured user count.
///
/// # Errors
///
/// Propagates engine/domain errors.
pub fn compare_selectors(params: &FigureParams) -> Result<Vec<SelectorComparison>, SimError> {
    params.user_counts.iter().map(|&users| compare_at(params, users)).collect()
}

fn compare_at(params: &FigureParams, users: usize) -> Result<SelectorComparison, SimError> {
    let mut dp_profits = Vec::new();
    let mut greedy_profits = Vec::new();
    for rep in 0..params.reps {
        let scenario = params
            .base
            .clone()
            .with_users(users)
            // Round 1 runs the capped DP so the round-2 state matches
            // the paper's "we use the optimal dp based task selection".
            .with_selector(SelectorKind::Dp { candidate_cap: Some(14) })
            .with_seed(rep_seed(params.base.seed, rep));
        let (dp, greedy) = one_repetition(&scenario)?;
        dp_profits.extend(dp);
        greedy_profits.extend(greedy);
    }
    Ok(SelectorComparison { users, dp_profits, greedy_profits })
}

/// Runs rounds 1–2 for one repetition; returns round-2 (dp, greedy)
/// profits per user.
fn one_repetition(scenario: &crate::Scenario) -> Result<(Vec<f64>, Vec<f64>), SimError> {
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let workload = Workload::generate(scenario, &mut rng)?;
    let mechanism = {
        let levels = paydemand_core::DemandLevels::new(scenario.demand_levels)?;
        let schedule = paydemand_core::RewardSchedule::from_budget(
            scenario.reward_budget,
            scenario.total_required(),
            scenario.reward_increment,
            levels,
        )?;
        paydemand_core::incentive::OnDemandIncentive::new(
            paydemand_core::DemandIndicator::paper_default(),
            schedule,
        )
    };
    let mut platform =
        Platform::new(workload.tasks.clone(), mechanism, workload.area, scenario.neighbor_radius)?;
    let n = workload.homes.len();
    let mut locations: Vec<Point> = workload.homes.clone();
    let mut contributed: Vec<HashSet<TaskId>> = vec![HashSet::new(); n];

    // Round 1: execute with the DP selector.
    run_round(
        scenario,
        &workload,
        &mut platform,
        &mut locations,
        &mut contributed,
        &mut rng,
        None,
    )?;

    // Round 2: execute DP, shadow-evaluate greedy on identical problems.
    let mut greedy_shadow = vec![0.0; n];
    let dp_profits = run_round(
        scenario,
        &workload,
        &mut platform,
        &mut locations,
        &mut contributed,
        &mut rng,
        Some(&mut greedy_shadow),
    )?;
    Ok((dp_profits, greedy_shadow))
}

/// Runs one round; when `shadow` is provided, also evaluates the greedy
/// selector on each user's identical problem and records its profit.
fn run_round(
    scenario: &crate::Scenario,
    workload: &Workload,
    platform: &mut Platform<paydemand_core::incentive::OnDemandIncentive>,
    locations: &mut [Point],
    contributed: &mut [HashSet<TaskId>],
    rng: &mut StdRng,
    mut shadow: Option<&mut Vec<f64>>,
) -> Result<Vec<f64>, SimError> {
    let n = workload.homes.len();
    let published = platform.publish_round(locations, rng)?;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut profits = vec![0.0; n];
    let dp_kind = SelectorKind::Dp { candidate_cap: Some(14) };
    for &ui in &order {
        let time_budget = workload.time_budgets[ui];
        let available: Vec<PublishedTask> = published
            .iter()
            .filter(|t| {
                !contributed[ui].contains(&t.id)
                    && platform.received(t.id).expect("published task exists")
                        < workload.tasks[t.id.0].required()
            })
            .copied()
            .collect();
        if available.is_empty() {
            continue;
        }
        let travel = crate::engine::TravelContext::euclidean();
        let (dp_outcome, _) = solve_selection(
            dp_kind,
            &travel,
            locations[ui],
            &available,
            time_budget,
            scenario.speed,
            scenario.cost_per_meter,
            scenario.sensing_seconds,
        )?;
        if let Some(shadow_profits) = shadow.as_deref_mut() {
            let (greedy_outcome, _) = solve_selection(
                SelectorKind::Greedy,
                &travel,
                locations[ui],
                &available,
                time_budget,
                scenario.speed,
                scenario.cost_per_meter,
                scenario.sensing_seconds,
            )?;
            shadow_profits[ui] = greedy_outcome.profit();
        }
        for &task in dp_outcome.tasks() {
            platform.submit(UserId(ui), task)?;
            contributed[ui].insert(task);
        }
        profits[ui] = dp_outcome.profit();
        locations[ui] = dp_outcome.end_location();
    }
    platform.finish_round();
    Ok(profits)
}

/// Fig. 5(a): average round-2 profit per user, DP vs greedy, against the
/// number of users.
///
/// # Errors
///
/// Propagates engine/domain errors.
pub fn fig5a(params: &FigureParams) -> Result<Figure, SimError> {
    let comparisons = compare_selectors(params)?;
    let x: Vec<f64> = comparisons.iter().map(|c| c.users as f64).collect();
    let dp: Vec<f64> = comparisons.iter().map(|c| Summary::of(&c.dp_profits).mean).collect();
    let greedy: Vec<f64> =
        comparisons.iter().map(|c| Summary::of(&c.greedy_profits).mean).collect();
    Ok(Figure {
        id: "fig5a".into(),
        title: "Average profit per user at round 2 (dp vs greedy)".into(),
        x_label: "users".into(),
        y_label: "avg profit per user ($)".into(),
        x,
        series: vec![
            Series { label: "dp".into(), y: dp },
            Series { label: "greedy".into(), y: greedy },
        ],
    })
}

/// Fig. 5(b): boxplot (five-number summary) of the per-user profit
/// difference DP − greedy, against the number of users.
///
/// # Errors
///
/// Propagates engine/domain errors.
pub fn fig5b(params: &FigureParams) -> Result<Figure, SimError> {
    let comparisons = compare_selectors(params)?;
    let x: Vec<f64> = comparisons.iter().map(|c| c.users as f64).collect();
    let five: Vec<FiveNumber> = comparisons
        .iter()
        .map(|c| FiveNumber::of(&c.differences()).expect("non-empty profit sample"))
        .collect();
    let series = vec![
        Series { label: "min".into(), y: five.iter().map(|f| f.min).collect() },
        Series { label: "q1".into(), y: five.iter().map(|f| f.q1).collect() },
        Series { label: "median".into(), y: five.iter().map(|f| f.median).collect() },
        Series { label: "q3".into(), y: five.iter().map(|f| f.q3).collect() },
        Series { label: "max".into(), y: five.iter().map(|f| f.max).collect() },
    ];
    Ok(Figure {
        id: "fig5b".into(),
        title: "Per-user profit difference dp − greedy at round 2 (boxplot)".into(),
        x_label: "users".into(),
        y_label: "profit difference ($)".into(),
        x,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_params() -> FigureParams {
        let mut p = FigureParams::smoke();
        p.user_counts = vec![15];
        p.reps = 2;
        p
    }

    #[test]
    fn dp_never_loses_to_greedy() {
        let comparisons = compare_selectors(&smoke_params()).unwrap();
        for c in &comparisons {
            assert_eq!(c.dp_profits.len(), c.greedy_profits.len());
            for (d, g) in c.dp_profits.iter().zip(&c.greedy_profits) {
                assert!(d >= &(g - 1e-9), "dp {d} < greedy {g}");
            }
            // Differences are non-negative.
            assert!(c.differences().iter().all(|&x| x >= -1e-9));
        }
    }

    #[test]
    fn fig5a_has_two_series() {
        let f = fig5a(&smoke_params()).unwrap();
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].label, "dp");
        assert_eq!(f.x.len(), 1);
        // DP mean ≥ greedy mean at every x.
        for i in 0..f.x.len() {
            assert!(f.series[0].y[i] >= f.series[1].y[i] - 1e-9);
        }
    }

    #[test]
    fn fig5b_is_ordered_boxplot() {
        let f = fig5b(&smoke_params()).unwrap();
        assert_eq!(f.series.len(), 5);
        for i in 0..f.x.len() {
            for pair in f.series.windows(2) {
                assert!(pair[0].y[i] <= pair[1].y[i] + 1e-9, "boxplot series out of order");
            }
        }
    }
}
