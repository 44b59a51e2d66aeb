//! Differential battery for the task-selection solvers (§V).
//!
//! On small instances (≤ 10 tasks) the profit-maximisation problem is
//! solvable by exhaustive search over visit orders, so we can pin the
//! exact optimum independently of any solver under test. Over hundreds
//! of seeded random instances:
//!
//! * the bitmask DP and branch-and-bound must both attain the
//!   brute-force optimum (they are exact algorithms — Theorem 2);
//! * the greedy heuristic must never *exceed* it (it solves the same
//!   feasibility problem, so beating the optimum would mean an
//!   infeasible or mis-priced route).
//!
//! The greedy family's exact answers are pinned too: route order,
//! profit bits and selection passes, on 1k-task instances and on the
//! corner cases where a scan's tie and NaN rules decide the pick.

use paydemand::core::selection::{
    BranchBoundSelector, DpSelector, GreedySelector, GreedyTwoOptSelector, SelectionProblem,
    TaskSelector,
};
use paydemand::core::{PublishedTask, TaskId};
use paydemand::geo::{Point, Rect};
use paydemand::routing::CostMatrix;
use paydemand::sim::frame::fnv1a64;
use rand::{Rng, SeedableRng};

/// Profit tolerance: the solvers and the enumerator may sum the same
/// distances in different orders.
const EPS: f64 = 1e-9;

/// Exhaustive search over visit orders with budget pruning.
///
/// Rewards are strictly positive, so a partial route that already
/// exceeds the distance budget cannot be rescued — pruning on distance
/// alone is sound. Returns the optimal profit (stay-home `0.0` floor,
/// matching [`SelectionOutcome::stay_home`]).
fn brute_force_optimal_profit(problem: &SelectionProblem) -> f64 {
    let start = problem.location();
    let tasks = problem.tasks();
    let budget = problem.distance_budget();
    let rate = problem.cost_per_meter();
    let mut used = vec![false; tasks.len()];
    let mut best = 0.0_f64;
    dfs(start, tasks, budget, rate, &mut used, 0.0, 0.0, &mut best);
    best
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    at: Point,
    tasks: &[PublishedTask],
    budget: f64,
    rate: f64,
    used: &mut [bool],
    distance: f64,
    reward: f64,
    best: &mut f64,
) {
    for next in 0..tasks.len() {
        if used[next] {
            continue;
        }
        let leg = at.distance(tasks[next].location);
        let total = distance + leg;
        if total > budget {
            continue;
        }
        let collected = reward + tasks[next].reward;
        let profit = collected - rate * total;
        if profit > *best {
            *best = profit;
        }
        used[next] = true;
        dfs(tasks[next].location, tasks, budget, rate, used, total, collected, best);
        used[next] = false;
    }
}

fn random_instance(seed: u64) -> SelectionProblem {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let area = Rect::square(3000.0).expect("valid area");
    let m = rng.gen_range(1..=10usize);
    let tasks: Vec<PublishedTask> = (0..m)
        .map(|i| PublishedTask {
            id: TaskId(i),
            location: area.sample_uniform(&mut rng),
            reward: rng.gen_range(0.5..=2.5),
        })
        .collect();
    let location = area.sample_uniform(&mut rng);
    // Modest budgets: routes of roughly 0–5 tasks, so the pruned DFS
    // stays fast even in debug builds while still exercising non-empty
    // optima (the area diagonal is ~4.2 km).
    let time_budget = rng.gen_range(100.0..=2000.0);
    let speed = rng.gen_range(1.0..=3.0);
    let cost_per_meter = rng.gen_range(0.0..=0.004);
    SelectionProblem::new(location, &tasks, time_budget, speed, cost_per_meter)
        .expect("generated parameters are valid")
}

#[test]
fn exact_solvers_match_brute_force_and_greedy_never_exceeds_it() {
    let dp = DpSelector;
    let bb = BranchBoundSelector;
    let greedy = GreedySelector;
    let mut nonzero_optima = 0usize;

    for seed in 0..250u64 {
        let problem = random_instance(seed);
        let optimal = brute_force_optimal_profit(&problem);
        if optimal > 0.0 {
            nonzero_optima += 1;
        }

        let dp_profit = dp.select(&problem).expect("dp solves ≤10 tasks").profit();
        let bb_profit = bb.select(&problem).expect("b&b solves ≤10 tasks").profit();
        let greedy_profit = greedy.select(&problem).expect("greedy always solves").profit();

        assert!(
            (dp_profit - optimal).abs() <= EPS,
            "seed {seed}: dp {dp_profit} != brute-force optimum {optimal}"
        );
        assert!(
            (bb_profit - optimal).abs() <= EPS,
            "seed {seed}: b&b {bb_profit} != brute-force optimum {optimal}"
        );
        assert!(
            greedy_profit <= optimal + EPS,
            "seed {seed}: greedy {greedy_profit} exceeds optimum {optimal}"
        );
    }

    // The battery is vacuous if every instance's optimum is to stay
    // home; the budget range above is chosen so most are not.
    assert!(nonzero_optima >= 100, "only {nonzero_optima}/250 instances had a profitable route");
}

#[test]
fn exact_solver_outcomes_are_feasible_and_priced_consistently() {
    for seed in 0..50u64 {
        let problem = random_instance(seed);
        for selector in [&DpSelector as &dyn TaskSelector, &BranchBoundSelector] {
            let outcome = selector.select(&problem).expect("solves ≤10 tasks");
            assert!(
                outcome.distance() <= problem.distance_budget() + EPS,
                "seed {seed}: {} route over budget",
                selector.name()
            );
            // Recompute the route economics from the outcome's order.
            let by_id = |id: TaskId| {
                problem.tasks().iter().find(|t| t.id == id).expect("selected task exists")
            };
            let mut at = problem.location();
            let mut distance = 0.0;
            let mut reward = 0.0;
            for &id in outcome.tasks() {
                let task = by_id(id);
                distance += at.distance(task.location);
                reward += task.reward;
                at = task.location;
            }
            assert!((distance - outcome.distance()).abs() <= 1e-6, "seed {seed}");
            assert!((reward - outcome.reward()).abs() <= EPS, "seed {seed}");
            let profit = reward - problem.cost_per_meter() * distance;
            assert!((profit - outcome.profit()).abs() <= 1e-6, "seed {seed}");
        }
    }
}

fn task(id: usize, x: f64, y: f64, reward: f64) -> PublishedTask {
    PublishedTask { id: TaskId(id), location: Point::new(x, y), reward }
}

/// City-sized instances: 1k tasks over the paper's 3 km square, as one
/// wandering user of the benchmark's city sees them.
fn city_instance(seed: u64) -> SelectionProblem {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let area = Rect::square(3000.0).expect("valid area");
    let tasks: Vec<PublishedTask> = (0..1000)
        .map(|i| PublishedTask {
            id: TaskId(i),
            location: area.sample_uniform(&mut rng),
            reward: rng.gen_range(0.5..=3.0),
        })
        .collect();
    let location = area.sample_uniform(&mut rng);
    let time_budget = rng.gen_range(600.0..=1200.0);
    SelectionProblem::new(location, &tasks, time_budget, 2.0, 0.002).expect("valid instance")
}

/// Hand-built instances where the scan's rules, not the geometry,
/// decide the picks.
fn corner_cases() -> Vec<SelectionProblem> {
    let mut cases = Vec::new();
    // Ties: equal rewards at equal detours, first from the start and
    // again from the first pick.
    let ties = [
        task(0, 100.0, 0.0, 1.0),
        task(1, -100.0, 0.0, 1.0),
        task(2, 0.0, 100.0, 1.0),
        task(3, 0.0, -100.0, 1.0),
        task(4, 200.0, 0.0, 1.0),
    ];
    for budget in [60.0, 160.0, 400.0] {
        cases.push(SelectionProblem::new(Point::ORIGIN, &ties, budget, 2.0, 0.002).unwrap());
    }
    // Service loads: sensing time eats the budget but costs nothing.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E41);
    let spread: Vec<PublishedTask> = (0..60)
        .map(|i| task(i, rng.gen_range(0.0..800.0), rng.gen_range(0.0..800.0), 1.5))
        .collect();
    for seconds in [0.0, 20.0, 90.0] {
        let problem = SelectionProblem::new(Point::new(400.0, 400.0), &spread, 900.0, 2.0, 0.002)
            .unwrap()
            .with_sensing_seconds(seconds, 2.0)
            .unwrap();
        cases.push(problem);
    }
    // A Manhattan cost table on a lattice: many equal detours.
    let lattice: Vec<PublishedTask> = (0..100)
        .map(|i| task(i, f64::from(i as u32 % 10) * 50.0, f64::from(i as u32 / 10) * 50.0, 1.0))
        .collect();
    let start = Point::new(225.0, 225.0);
    let costs = CostMatrix::from_fn(
        lattice.iter().map(|t| start.manhattan_distance(t.location)).collect(),
        |i, j| lattice[i].location.manhattan_distance(lattice[j].location),
    );
    cases.push(SelectionProblem::with_costs(start, &lattice, costs, 700.0, 2.0, 0.002).unwrap());
    cases
}

/// A NaN task coordinate, as corrupt data or over-noised GPS gives,
/// second in the scan and then first. Its NaN marginal wins a pick
/// only when it is the first feasible candidate.
fn nan_cases() -> Vec<SelectionProblem> {
    let mut cases = Vec::new();
    for nan_at in [1, 0] {
        for rate in [0.0, 0.002] {
            let mut line: Vec<PublishedTask> =
                (0..4).map(|i| task(i, 10.0 + i as f64, 10.0, 1.0)).collect();
            line[nan_at].location = Point::new(f64::NAN, f64::NAN);
            cases.push(SelectionProblem::new(Point::ORIGIN, &line, 600.0, 2.0, rate).unwrap());
        }
    }
    cases
}

/// Every greedy answer keeps its bits: for each instance and selector,
/// the route's task ids, the profit's `f64` bits and the selection
/// passes, hashed in order. Greedy+2-opt sits out the NaN cases: once
/// the route's profit is NaN, no polish round compares as "no better",
/// so its loop never ends.
#[test]
fn greedy_outcomes_keep_their_bits() {
    let both = [&GreedySelector as &dyn TaskSelector, &GreedyTwoOptSelector];
    let finite = (0..6).map(|seed| city_instance(0xC17 + seed)).chain(corner_cases());
    let runs = finite
        .map(|problem| (problem, &both[..]))
        .chain(nan_cases().into_iter().map(|problem| (problem, &both[..1])));
    let mut bytes = Vec::new();
    for (problem, selectors) in runs {
        for selector in selectors {
            let (outcome, stats) = selector.select_with_stats(&problem).expect("greedy solves");
            bytes.extend((outcome.tasks().len() as u64).to_le_bytes());
            for id in outcome.tasks() {
                bytes.extend((id.0 as u64).to_le_bytes());
            }
            bytes.extend(outcome.profit().to_bits().to_le_bytes());
            bytes.extend(stats.iterations.to_le_bytes());
        }
    }
    assert_eq!(fnv1a64(&bytes), 0xb02c_efa7_ea18_4024);
}
