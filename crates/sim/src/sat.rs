//! SAT mode — Server Assigned Tasks via reverse auction.
//!
//! The paper (§II) splits location-dependent crowdsensing into two
//! architectures: **WST** (workers pick tasks against posted prices —
//! the paper's mode, implemented by [`engine`](crate::engine)) and
//! **SAT** (the server collects bids and assigns workers, as in the
//! reverse-auction literature it cites, e.g. Lee & Hoh's RADP). The
//! paper argues WST avoids "the complicated negotiation process" but
//! concedes the server "does not have any control over the allocation".
//! This module implements the SAT comparator so that claim can be
//! *measured*:
//!
//! * each round, every active user bids on every incomplete task they
//!   can reach: `bid = travel cost × (1 + margin)` from their current
//!   location (private cost + declared profit margin);
//! * the server assigns each user at most one task per round, greedily
//!   filling the globally cheapest (task, user) pairs until every task
//!   has its remaining demand covered or bids run out;
//! * winners are paid first-price (their bid) or second-price (the
//!   next-cheapest losing bid on that task, Vickrey-style) — both
//!   variants are provided.
//!
//! The output is an ordinary [`SimulationResult`], so every §VI metric
//! and report applies unchanged (posted rewards are `None`: SAT has no
//! price board).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use paydemand_core::TaskId;
use paydemand_geo::Point;

use crate::engine::{RoundRecord, SimulationResult, UserRound};
use crate::{Scenario, SimError, Workload};

/// How auction winners are paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum AuctionPricing {
    /// Winners are paid exactly their bid.
    #[default]
    FirstPrice,
    /// Winners are paid the cheapest *losing* bid on the task (their
    /// own bid when no losing bid exists) — the truthful Vickrey rule.
    SecondPrice,
}

/// SAT-mode configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SatConfig {
    /// Payment rule.
    pub pricing: AuctionPricing,
    /// Fractional profit margin users add to their travel cost when
    /// bidding (e.g. 0.2 = ask for cost + 20 %).
    pub margin: f64,
    /// Maximum assignments a user accepts per round (1 in most of the
    /// auction-based MCS literature).
    pub assignments_per_user: u32,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig { pricing: AuctionPricing::FirstPrice, margin: 0.2, assignments_per_user: 1 }
    }
}

impl SatConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidScenario`] naming `sat`.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.margin.is_finite() && self.margin >= 0.0) {
            return Err(SimError::InvalidScenario {
                field: "sat",
                message: format!("margin {}", self.margin),
            });
        }
        if self.assignments_per_user == 0 {
            return Err(SimError::InvalidScenario {
                field: "sat",
                message: "assignments_per_user must be positive".into(),
            });
        }
        Ok(())
    }
}

/// One bid in a round's auction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bid {
    user: usize,
    task: usize,
    /// The user's private cost (travel cost in $).
    cost: f64,
    /// The asked payment.
    ask: f64,
}

/// Runs one SAT-mode repetition of `scenario` (the scenario's
/// `mechanism`/`selector` fields are ignored — SAT replaces both).
///
/// # Examples
///
/// ```
/// use paydemand_sim::sat::{run_sat, SatConfig};
/// use paydemand_sim::Scenario;
///
/// let scenario = Scenario::paper_default()
///     .with_users(30)
///     .with_tasks(8)
///     .with_max_rounds(6)
///     .with_seed(5);
/// let result = run_sat(&scenario, &SatConfig::default())?;
/// assert!(result.total_measurements() > 0);
/// # Ok::<(), paydemand_sim::SimError>(())
/// ```
///
/// Users are stationary bidders at their round-start location, move to
/// their assigned task when they win, and respect the once-per-task
/// rule. Budget (`enforce_budget`) caps total payments: assignments the
/// platform can no longer pay for are skipped.
///
/// # Errors
///
/// Scenario or SAT-config validation failures.
pub fn run_sat(scenario: &Scenario, config: &SatConfig) -> Result<SimulationResult, SimError> {
    scenario.validate()?;
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let workload = Workload::generate(scenario, &mut rng)?;
    let m = workload.tasks.len();
    let n = workload.homes.len();

    let mut locations: Vec<Point> = workload.homes.clone();
    let mut contributed: Vec<HashSet<TaskId>> = vec![HashSet::new(); n];
    let mut received = vec![0u32; m];
    let mut quality_received = vec![0.0f64; m];
    let mut estimates = vec![crate::sensing::Estimate::default(); m];
    let mut completed_round: Vec<Option<u32>> = vec![None; m];
    let mut total_paid = 0.0f64;
    let mut rounds = Vec::with_capacity(scenario.max_rounds as usize);

    for round in 1..=scenario.max_rounds {
        // Collect bids.
        let mut bids: Vec<Bid> = Vec::new();
        for ui in 0..n {
            if scenario.dropout_rate > 0.0 && rng.gen::<f64>() < scenario.dropout_rate {
                continue;
            }
            let reach = workload.time_budgets[ui] * scenario.speed;
            for (ti, spec) in workload.tasks.iter().enumerate() {
                if received[ti] >= spec.required()
                    || contributed[ui].contains(&spec.id())
                    || (!scenario.publish_expired && round > spec.deadline())
                {
                    continue;
                }
                let distance = locations[ui].distance(spec.location());
                if distance > reach {
                    continue;
                }
                let cost = scenario.cost_per_meter * distance;
                bids.push(Bid { user: ui, task: ti, cost, ask: cost * (1.0 + config.margin) });
            }
        }
        // Globally cheapest-first assignment.
        bids.sort_by(|a, b| a.ask.partial_cmp(&b.ask).expect("finite asks"));
        let mut assigned_count = vec![0u32; n];
        let mut round_new = vec![0u32; m];
        let mut user_parts: Vec<UserRound> = Vec::new();
        let remaining_budget = |paid: f64| {
            if scenario.enforce_budget {
                (scenario.reward_budget - paid).max(0.0)
            } else {
                f64::INFINITY
            }
        };
        for (i, bid) in bids.iter().enumerate() {
            let spec = &workload.tasks[bid.task];
            if received[bid.task] >= spec.required()
                || assigned_count[bid.user] >= config.assignments_per_user
                || contributed[bid.user].contains(&spec.id())
            {
                continue;
            }
            let payment = match config.pricing {
                AuctionPricing::FirstPrice => bid.ask,
                AuctionPricing::SecondPrice => bids[i + 1..]
                    .iter()
                    .find(|other| {
                        other.task == bid.task
                            && other.user != bid.user
                            && assigned_count[other.user] < config.assignments_per_user
                    })
                    .map_or(bid.ask, |other| other.ask),
            };
            if payment > remaining_budget(total_paid) {
                continue;
            }
            // Execute the assignment.
            assigned_count[bid.user] += 1;
            contributed[bid.user].insert(spec.id());
            received[bid.task] += 1;
            round_new[bid.task] += 1;
            quality_received[bid.task] += workload.qualities[bid.user];
            estimates[bid.task].add(scenario.sensing.sample_measurement(
                workload.truths[bid.task],
                workload.qualities[bid.user],
                &mut rng,
            ));
            if received[bid.task] >= spec.required() {
                completed_round[bid.task] = Some(round);
            }
            total_paid += payment;
            user_parts.push(UserRound {
                user: bid.user as u32,
                profit: payment - bid.cost,
                selected: 1,
            });
            locations[bid.user] = spec.location();
        }
        rounds.push(RoundRecord {
            round,
            rewards: vec![None; m],
            new_measurements: round_new,
            users: UserRound::fold(user_parts),
        });
        if scenario.stop_when_complete
            && received.iter().zip(&workload.tasks).all(|(&r, s)| r >= s.required())
        {
            break;
        }
    }

    Ok(SimulationResult {
        scenario: scenario.clone(),
        workload,
        rounds,
        received,
        quality_received,
        estimates,
        completed_round,
        total_paid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn scenario() -> Scenario {
        Scenario::paper_default().with_users(40).with_tasks(10).with_max_rounds(10).with_seed(123)
    }

    #[test]
    fn config_validation() {
        SatConfig::default().validate().unwrap();
        assert!(SatConfig { margin: -0.1, ..Default::default() }.validate().is_err());
        assert!(SatConfig { margin: f64::NAN, ..Default::default() }.validate().is_err());
        assert!(SatConfig { assignments_per_user: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn sat_round_invariants() {
        let r = run_sat(&scenario(), &SatConfig::default()).unwrap();
        // Caps and accounting hold exactly as in WST.
        for (i, spec) in r.workload.tasks.iter().enumerate() {
            assert!(r.received[i] <= spec.required());
        }
        let total: u32 = r.rounds.iter().flat_map(|rr| rr.new_measurements.iter()).sum();
        assert_eq!(u64::from(total), r.total_measurements());
        // Winners never lose money (ask ≥ cost by construction).
        for rr in &r.rounds {
            assert!(rr.users.iter().all(|u| u.profit >= -1e-9));
            // SAT posts no prices.
            assert!(rr.rewards.iter().all(Option::is_none));
            // At most one assignment per user per round (default config).
            assert!(rr.users.iter().all(|u| u.selected <= 1));
        }
    }

    #[test]
    fn sat_is_deterministic() {
        let a = run_sat(&scenario(), &SatConfig::default()).unwrap();
        let b = run_sat(&scenario(), &SatConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn second_price_pays_at_least_first_price() {
        let first = run_sat(&scenario(), &SatConfig::default()).unwrap();
        let second = run_sat(
            &scenario(),
            &SatConfig { pricing: AuctionPricing::SecondPrice, ..Default::default() },
        )
        .unwrap();
        // Vickrey payments dominate first-price payments bid-for-bid;
        // totals may differ slightly through allocation knock-on
        // effects, so compare per measurement.
        let fp = metrics::average_reward_per_measurement(&first);
        let sp = metrics::average_reward_per_measurement(&second);
        assert!(sp >= fp - 1e-6, "second price {sp} < first price {fp}");
    }

    #[test]
    fn higher_margin_costs_the_platform_more() {
        let cheap = run_sat(&scenario(), &SatConfig { margin: 0.0, ..Default::default() }).unwrap();
        let pricey =
            run_sat(&scenario(), &SatConfig { margin: 1.0, ..Default::default() }).unwrap();
        let c = metrics::average_reward_per_measurement(&cheap);
        let p = metrics::average_reward_per_measurement(&pricey);
        assert!(p > c, "margin 100% should cost more per measurement: {p} vs {c}");
    }

    #[test]
    fn enforced_budget_caps_sat_payments() {
        let s = Scenario { enforce_budget: true, reward_budget: 5.0, ..scenario() };
        let r = run_sat(&s, &SatConfig::default()).unwrap();
        assert!(r.total_paid <= 5.0 + 1e-9);
    }

    #[test]
    fn once_per_task_rule_respected() {
        let r = run_sat(&scenario(), &SatConfig::default()).unwrap();
        // Total measurements equal distinct (user, task) pairs: since
        // each user acts once per round and never re-bids a done task,
        // sum of per-round selections equals total measurements.
        let selected: u32 = r.rounds.iter().flat_map(|rr| &rr.users).map(|u| u.selected).sum();
        assert_eq!(u64::from(selected), r.total_measurements());
    }

    #[test]
    fn strict_expiry_applies_to_sat_too() {
        let s = Scenario { publish_expired: false, ..scenario() };
        let r = run_sat(&s, &SatConfig::default()).unwrap();
        for (i, spec) in r.workload.tasks.iter().enumerate() {
            for (k, rr) in r.rounds.iter().enumerate() {
                if (k as u32 + 1) > spec.deadline() {
                    assert_eq!(rr.new_measurements[i], 0);
                }
            }
        }
    }
}
