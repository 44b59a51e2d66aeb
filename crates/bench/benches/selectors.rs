//! Solver micro-benchmarks: the empirical face of Theorems 2 and 3.
//!
//! * `dp/m` — the exact DP's exponential growth in the task count;
//! * `dp_budget/meters` — how the travel budget prunes the DP;
//! * `greedy/m`, `greedy2opt/m` — the polynomial heuristics at scales
//!   the DP cannot touch, up to the 1k candidates of a city-sized round.
//!
//! Every case times what the engine pays once per participant per
//! round: building the [`SelectionProblem`] (its cost matrix included)
//! and solving it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use paydemand_bench::{random_published_tasks, random_user};
use paydemand_core::selection::{SelectionOutcome, SelectionProblem, SelectorKind};
use paydemand_core::PublishedTask;
use paydemand_geo::Point;
use rand::SeedableRng;

/// One user's round: build the problem from the published tasks, then
/// select (2 m/s walking, 0.002 $/m).
fn build_and_select(
    selector: SelectorKind,
    user: Point,
    tasks: &[PublishedTask],
    time_budget: f64,
) -> SelectionOutcome {
    let problem =
        SelectionProblem::new(black_box(user), black_box(tasks), time_budget, 2.0, 0.002).unwrap();
    selector.solve(&problem).unwrap().0
}

fn bench_dp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp");
    for m in [6usize, 10, 14, 18] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(m as u64);
        let tasks = random_published_tasks(m, &mut rng);
        let user = random_user(&mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(m), &tasks, |b, tasks| {
            b.iter(|| build_and_select(SelectorKind::exact_dp(), user, tasks, 900.0));
        });
    }
    group.finish();
}

fn bench_dp_budget_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_budget");
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let tasks = random_published_tasks(16, &mut rng);
    let user = random_user(&mut rng);
    for time_budget in [300.0f64, 600.0, 1200.0, 2400.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}m", (time_budget * 2.0) as u64)),
            &time_budget,
            |b, &time_budget| {
                b.iter(|| build_and_select(SelectorKind::exact_dp(), user, &tasks, time_budget));
            },
        );
    }
    group.finish();
}

fn bench_heuristics(c: &mut Criterion) {
    for (name, selector) in
        [("greedy", SelectorKind::Greedy), ("greedy2opt", SelectorKind::GreedyTwoOpt)]
    {
        let mut group = c.benchmark_group(name);
        for m in [20usize, 100, 400, 1000] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(m as u64);
            let tasks = random_published_tasks(m, &mut rng);
            let user = random_user(&mut rng);
            group.bench_with_input(BenchmarkId::from_parameter(m), &tasks, |b, tasks| {
                b.iter(|| build_and_select(selector, user, tasks, 900.0));
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20);
    targets = bench_dp_scaling, bench_dp_budget_pruning, bench_heuristics
}
criterion_main!(benches);
