//! Integration tests for the extension features: sweeps, group AHP,
//! sensitivity analysis, the extra mechanisms/selectors and hard
//! budget enforcement — all exercised through the umbrella crate.

use paydemand::sim::sweep::{Axis, Sweep};
use paydemand::sim::{engine, metrics, MechanismKind, Scenario, SelectorKind};

fn small() -> Scenario {
    Scenario::paper_default()
        .with_users(20)
        .with_tasks(8)
        .with_max_rounds(5)
        .with_selector(SelectorKind::GreedyTwoOpt)
        .with_seed(60)
}

#[test]
fn sweep_reproduces_figure_style_output() {
    let sweep = Sweep {
        base: small(),
        axis: Axis::new("users", vec![10.0, 25.0], |s, v| s.with_users(v as usize)),
        mechanisms: vec![MechanismKind::OnDemand, MechanismKind::Proportional],
        reps: 2,
        threads: 2,
    };
    let f = sweep.run("sweep_users", "avg measurements", metrics::average_measurements).unwrap();
    assert_eq!(f.series.len(), 2);
    // More users collect more measurements.
    for s in &f.series {
        assert!(s.y[1] >= s.y[0], "{}: {:?}", s.label, s.y);
    }
}

#[test]
fn group_ahp_feeds_demand_weights() {
    use paydemand::ahp::{group, PairwiseMatrix, WeightMethod};
    use paydemand::core::DemandWeights;

    let expert_a = PairwiseMatrix::from_upper_triangle(3, &[3.0, 5.0, 2.0]).unwrap();
    let expert_b = PairwiseMatrix::from_upper_triangle(3, &[2.0, 4.0, 3.0]).unwrap();
    let joint = group::aggregate(&[expert_a, expert_b]).unwrap();
    let weights = DemandWeights::from_ahp(&joint, WeightMethod::RowAverage).unwrap();
    assert!(weights.deadline > weights.progress);
    assert!(weights.progress > weights.neighbors);
    assert!(joint.consistency().is_acceptable());
}

#[test]
fn sensitivity_of_paper_weights_is_reported_stable() {
    use paydemand::ahp::{sensitivity, PairwiseMatrix, WeightMethod};
    let table_i = PairwiseMatrix::from_upper_triangle(3, &[3.0, 5.0, 2.0]).unwrap();
    let report = sensitivity::analyze(&table_i, WeightMethod::RowAverage, 1.5).unwrap();
    assert!(report.ranking_stable());
}

#[test]
fn every_extension_selector_and_mechanism_runs_end_to_end() {
    for selector in [SelectorKind::Insertion, SelectorKind::BranchBound] {
        for mechanism in [MechanismKind::Proportional, MechanismKind::Hybrid { alpha: 0.3 }] {
            let s = small().with_selector(selector).with_mechanism(mechanism);
            let r = engine::run(&s).unwrap();
            assert!(r.total_measurements() > 0, "{selector:?}/{mechanism:?}");
            assert!(r.total_paid <= s.reward_budget + 1e-9);
        }
    }
}

#[test]
fn budget_cap_holds_under_adversarial_mechanism() {
    let s = Scenario {
        mechanism: MechanismKind::SteeredPaperConstants,
        enforce_budget: true,
        ..small()
    };
    let r = engine::run(&s).unwrap();
    assert!(r.total_paid <= s.reward_budget + 1e-9);
}

#[test]
fn sensing_pipeline_produces_usable_maps() {
    let r = engine::run(&small()).unwrap();
    let rmse = metrics::estimation_rmse(&r).expect("tasks measured");
    assert!(rmse.is_finite() && rmse > 0.0);
    // Every measured task's estimate is in the plausible truth range
    // (±5σ of the 40-90 dB band).
    for (i, est) in r.estimates.iter().enumerate() {
        if let Some(mean) = est.mean() {
            assert!((25.0..=105.0).contains(&mean), "task {i} estimate {mean}");
        }
    }
}

#[test]
fn street_travel_runs_through_public_api() {
    use paydemand::sim::TravelModel;
    let s = Scenario {
        travel: TravelModel::StreetGrid { cols: 12, rows: 12, closure: 0.2 },
        ..small()
    };
    let streets = engine::run(&s).unwrap();
    let euclid = engine::run(&small()).unwrap();
    assert!(streets.total_measurements() > 0);
    // Streets never make sensing cheaper for the users.
    let profit = |r: &paydemand::sim::SimulationResult| {
        r.rounds.iter().flat_map(|rr| &rr.users).map(|u| u.profit).sum::<f64>()
    };
    assert!(profit(&streets) <= profit(&euclid) + 1e-6);
}

#[test]
fn road_network_distances_compose_with_routing() {
    use paydemand::geo::network::RoadNetwork;
    use paydemand::geo::{Point, Rect};
    use paydemand::routing::{orienteering, CostMatrix};

    let area = Rect::square(1000.0).unwrap();
    let net = RoadNetwork::grid(area, 5, 5).unwrap();
    let start = Point::new(0.0, 0.0);
    let tasks = [Point::new(500.0, 0.0), Point::new(500.0, 500.0)];
    let mut all = vec![start];
    all.extend_from_slice(&tasks);
    let tm = net.travel_matrix(&all);
    let costs =
        CostMatrix::from_fn((0..tasks.len()).map(|j| tm.get(0, j + 1)).collect(), |i, j| {
            tm.get(i + 1, j + 1)
        });
    let inst = orienteering::Instance::new(&costs, &[2.0, 2.0], 2000.0, 0.002).unwrap();
    let s = orienteering::solve_exact(&inst).unwrap();
    // Straight chain along streets: 500 + 500 = 1000 m.
    assert_eq!(s.order, vec![0, 1]);
    assert_eq!(s.distance, 1000.0);
}

#[test]
fn balance_metrics_rank_mechanisms_like_variance_does() {
    // Gini and Jain must agree with the paper's variance story:
    // on-demand is better balanced than fixed.
    let base = Scenario::paper_default()
        .with_users(80)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(14) })
        .with_seed(61);
    let od = engine::run(&base.clone().with_mechanism(MechanismKind::OnDemand)).unwrap();
    let fx = engine::run(&base.with_mechanism(MechanismKind::Fixed)).unwrap();
    assert!(metrics::measurement_gini(&od) < metrics::measurement_gini(&fx));
    assert!(metrics::measurement_jain_index(&od) > metrics::measurement_jain_index(&fx));
}
