//! Every round's posted prices keep their bits.
//!
//! `OnDemandIncentive` prices each task straight from its three
//! criteria (Eqs. 3–5) through Eq. 7, with no state carried between
//! rounds. These hashes pin the prices that path posts: per run, each
//! round's `rewards` in task order (a `0` byte for a task not posted,
//! else a `1` byte and the reward's `f64` bits), then `total_paid`.
//! The runs cover the paper's sweep, the two mechanisms that price
//! through on-demand or its indicator, a wandering population whose
//! neighbour counts and `N_max` change every round, and a faulted run
//! with demand outages, a budget shock, GPS noise and the budget cap.
//! The wandering run's checkpoint is pinned too: it holds every user's
//! position and waypoint bits, the main RNG state, the contributions
//! and the round records, so movement, the participation order and
//! the per-user solves keep their bits, not only the prices. A second
//! constant folds what that checkpoint holds, resumed, whatever its
//! layout.

use paydemand::obs::Recorder;
use paydemand::sim::frame::fnv1a64;
use paydemand::sim::{
    engine, Engine, FaultKind, FaultPlan, MechanismKind, Scenario, SelectorKind, SimulationResult,
    UserMotion,
};

mod common;

fn run_all(scenarios: &[Scenario]) -> Vec<SimulationResult> {
    scenarios.iter().map(|s| engine::run(s).unwrap()).collect()
}

fn fingerprint(results: &[SimulationResult]) -> u64 {
    let mut bytes = Vec::new();
    for result in results {
        for rr in &result.rounds {
            for reward in &rr.rewards {
                match reward {
                    None => bytes.push(0),
                    Some(r) => {
                        bytes.push(1);
                        bytes.extend(r.to_bits().to_le_bytes());
                    }
                }
            }
        }
        bytes.extend(result.total_paid.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[test]
fn the_paper_sweep_posts_the_same_prices() {
    let scenarios: Vec<Scenario> = [1, 2]
        .into_iter()
        .flat_map(|seed| {
            (40..=140)
                .step_by(20)
                .map(move |users| Scenario::paper_default().with_users(users).with_seed(seed))
        })
        .collect();
    assert_eq!(fingerprint(&run_all(&scenarios)), 0x12a3_8d8a_ef53_8d1a);
}

#[test]
fn mechanisms_built_on_the_indicator_post_the_same_prices() {
    let scenarios: Vec<Scenario> =
        [MechanismKind::Hybrid { alpha: 0.5 }, MechanismKind::Proportional]
            .into_iter()
            .map(|m| Scenario::paper_default().with_mechanism(m).with_seed(3))
            .collect();
    assert_eq!(fingerprint(&run_all(&scenarios)), 0x6734_5ffe_8d99_02b6);
}

/// About 50 of 3000 wandering users select each round, as in the
/// benchmark's 1M-user city: neighbour counts and `N_max` move every
/// round while most tasks stay open.
fn wandering_city() -> Scenario {
    let mut scenario = Scenario::paper_default()
        .with_users(3000)
        .with_tasks(300)
        .with_neighbor_radius(200.0)
        .with_selector(SelectorKind::Greedy)
        .with_max_rounds(8)
        .with_seed(4);
    scenario.user_motion = UserMotion::Wander { seconds: 60.0 };
    scenario.dropout_rate = 1.0 - 50.0 / 3000.0;
    scenario.reward_budget = 1e5;
    scenario
}

#[test]
fn a_wandering_city_posts_the_same_prices() {
    let results = run_all(&[wandering_city()]);
    for rr in &results[0].rounds {
        let selecting = rr.users.iter().filter(|u| u.selected > 0).count();
        assert!((20..=100).contains(&selecting), "round {}: {selecting} selecting", rr.round);
    }
    assert_eq!(fingerprint(&results), 0x66d1_d9bb_acd6_be98);
}

#[test]
fn a_wandering_city_checkpoints_the_same_bytes() {
    let mut engine = Engine::new(&wandering_city(), &Recorder::disabled()).unwrap();
    while engine.step_round().unwrap() {}
    assert_eq!(engine.rounds_run(), 8);
    let bytes = engine.checkpoint().unwrap();
    assert_eq!(fnv1a64(&bytes), 0x694b_7e2e_75da_875a);
    assert_eq!(common::held(&wandering_city(), &bytes), 0xd917_0979_fdfd_669b);
}

#[test]
fn a_faulted_run_posts_the_same_prices() {
    let plan = FaultPlan::new(5)
        .with(FaultKind::DemandOutage { rate: 0.3 })
        .with(FaultKind::BudgetShock { round: 4, factor: 0.3 })
        .with(FaultKind::GpsNoise { sigma: 25.0 });
    let mut scenario = Scenario::paper_default()
        .with_users(80)
        .with_selector(SelectorKind::Greedy)
        .with_seed(6)
        .with_faults(plan);
    scenario.enforce_budget = true;
    let results = run_all(&[scenario]);
    assert!(results[0].total_paid <= results[0].scenario.reward_budget);
    assert_eq!(fingerprint(&results), 0x38a6_5b11_513d_553c);
}
