//! End-to-end integration tests across all workspace crates: the full
//! publish → select → perform → pay → reprice loop.

use paydemand::core::incentive::OnDemandIncentive;
use paydemand::core::selection::SelectionProblem;
use paydemand::core::{Platform, TaskId, TaskSpec, UserId};
use paydemand::geo::{Point, Rect};
use paydemand::sim::{engine, metrics, MechanismKind, Scenario, SelectorKind};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Drive a platform by hand through two rounds and check every payment
/// and reprice step against first principles.
#[test]
fn manual_two_round_campaign() {
    let area = Rect::square(1000.0).unwrap();
    let specs = vec![
        TaskSpec::new(TaskId(0), Point::new(100.0, 100.0), 2, 2).unwrap(),
        TaskSpec::new(TaskId(1), Point::new(900.0, 900.0), 10, 2).unwrap(),
    ];
    let mechanism = OnDemandIncentive::paper_default(&specs).unwrap();
    let schedule = *mechanism.schedule();
    let mut platform = Platform::new(specs, mechanism, area, 300.0).unwrap();
    let mut r = rng(5);

    // Round 1: one user near task 0.
    let users = vec![Point::new(120.0, 120.0)];
    let published = platform.publish_round(&users, &mut r).unwrap();
    assert_eq!(published.len(), 2);
    for t in &published {
        assert!(t.reward >= schedule.base_reward());
        assert!(t.reward <= schedule.max_reward());
    }
    // Task 0 expires next round (deadline 2) but has a neighbour; task 1
    // has 10 rounds and no neighbours. Both are unstarted.
    let problem = SelectionProblem::new(users[0], &published, 600.0, 2.0, 0.002).unwrap();
    let (outcome, _) = SelectorKind::exact_dp().solve(&problem).unwrap();
    assert!(outcome.tasks().contains(&TaskId(0)), "nearby profitable task must be taken");
    let mut paid = 0.0;
    for &task in outcome.tasks() {
        paid += platform.submit(UserId(0), task).unwrap();
    }
    assert!((platform.total_paid() - paid).abs() < 1e-12);
    platform.finish_round();

    // Round 2: the reward of the now-closer-to-deadline, still
    // incomplete task must not fall.
    let published2 = platform.publish_round(&users, &mut r).unwrap();
    for t in &published2 {
        assert!(t.reward >= schedule.base_reward());
    }
    platform.finish_round();
    assert_eq!(platform.round(), 2);
}

/// The full simulated pipeline respects the platform budget (Eq. 8).
#[test]
fn platform_never_exceeds_reward_budget() {
    for seed in [1, 2, 3] {
        let scenario = Scenario::paper_default()
            .with_users(140)
            .with_selector(SelectorKind::Dp { candidate_cap: Some(14) })
            .with_seed(seed);
        let result = engine::run(&scenario).unwrap();
        assert!(
            result.total_paid <= scenario.reward_budget + 1e-9,
            "paid {} > budget {}",
            result.total_paid,
            scenario.reward_budget
        );
    }
}

/// Selector choice must not be able to break domain invariants.
#[test]
fn all_selectors_preserve_measurement_caps() {
    for selector in [
        SelectorKind::Dp { candidate_cap: Some(10) },
        SelectorKind::Greedy,
        SelectorKind::GreedyTwoOpt,
    ] {
        let scenario = Scenario::paper_default()
            .with_users(60)
            .with_selector(selector)
            .with_max_rounds(8)
            .with_seed(9);
        let result = engine::run(&scenario).unwrap();
        for (i, spec) in result.workload.tasks.iter().enumerate() {
            assert!(result.received[i] <= spec.required(), "{selector:?}");
        }
    }
}

/// The headline claim, end to end: with the paper's workload the
/// on-demand mechanism dominates the fixed mechanism on coverage,
/// completeness and balance, and pays less per measurement.
#[test]
fn on_demand_dominates_fixed_on_paper_workload() {
    let reps = 10;
    let mut od_cov = 0.0;
    let mut fx_cov = 0.0;
    let mut od_comp = 0.0;
    let mut fx_comp = 0.0;
    let mut od_var = 0.0;
    let mut fx_var = 0.0;
    let mut od_rpm = 0.0;
    let mut fx_rpm = 0.0;
    for rep in 0..reps {
        let seed = paydemand::sim::runner::rep_seed(1234, rep);
        let base = Scenario::paper_default()
            .with_users(100)
            .with_selector(SelectorKind::Dp { candidate_cap: Some(14) })
            .with_seed(seed);
        let od = engine::run(&base.clone().with_mechanism(MechanismKind::OnDemand)).unwrap();
        let fx = engine::run(&base.with_mechanism(MechanismKind::Fixed)).unwrap();
        od_cov += od.coverage();
        fx_cov += fx.coverage();
        od_comp += od.completeness();
        fx_comp += fx.completeness();
        od_var += metrics::measurement_variance(&od);
        fx_var += metrics::measurement_variance(&fx);
        od_rpm += metrics::average_reward_per_measurement(&od);
        fx_rpm += metrics::average_reward_per_measurement(&fx);
    }
    assert!(od_cov >= fx_cov, "coverage: {od_cov} < {fx_cov}");
    assert!(od_comp > fx_comp, "completeness: {od_comp} <= {fx_comp}");
    assert!(od_var < fx_var, "variance: {od_var} >= {fx_var}");
    assert!(od_rpm < fx_rpm, "reward/measurement: {od_rpm} >= {fx_rpm}");
    // And the absolute levels look like the paper's Figs. 6-7.
    assert!(od_cov / reps as f64 > 0.99, "on-demand coverage {od_cov}");
    assert!(od_comp / reps as f64 > 0.9, "on-demand completeness {od_comp}");
}

/// Cross-crate wiring: AHP weights actually drive the simulation's
/// demand indicator, end to end.
#[test]
fn ahp_table_i_weights_flow_into_core() {
    let matrix = paydemand::ahp::PairwiseMatrix::from_upper_triangle(3, &[3.0, 5.0, 2.0]).unwrap();
    let weights =
        paydemand::core::DemandWeights::from_ahp(&matrix, paydemand::ahp::WeightMethod::RowAverage)
            .unwrap();
    let default = paydemand::core::DemandWeights::default();
    assert!((weights.deadline - default.deadline).abs() < 1e-12);
    assert!((weights.progress - default.progress).abs() < 1e-12);
    assert!((weights.neighbors - default.neighbors).abs() < 1e-12);
    // And the consistency of Table I is acceptable.
    assert!(matrix.consistency().is_acceptable());
}

/// The routing layer's exact solver is the one the DP selector uses:
/// profits agree via either path.
#[test]
fn selection_and_routing_agree() {
    use paydemand::routing::{orienteering, CostMatrix};

    let user = Point::new(500.0, 500.0);
    let locations = [Point::new(600.0, 500.0), Point::new(500.0, 900.0)];
    let rewards = [2.0, 2.5];
    let published: Vec<paydemand::core::PublishedTask> = locations
        .iter()
        .zip(&rewards)
        .enumerate()
        .map(|(i, (&location, &reward))| paydemand::core::PublishedTask {
            id: TaskId(i),
            location,
            reward,
        })
        .collect();

    let problem = SelectionProblem::new(user, &published, 600.0, 2.0, 0.002).unwrap();
    let (via_core, _) = SelectorKind::exact_dp().solve(&problem).unwrap();

    let costs = CostMatrix::from_points(user, &locations);
    let instance = orienteering::Instance::new(&costs, &rewards, 1200.0, 0.002).unwrap();
    let (via_routing, _) = orienteering::solve_exact(&instance).unwrap();

    assert!((via_core.profit() - via_routing.profit).abs() < 1e-12);
    assert_eq!(via_core.tasks().len(), via_routing.order.len());
}
