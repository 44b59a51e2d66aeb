//! Engine-cost ablations over the design axes DESIGN.md calls out:
//! demand-level count `N`, neighbour radius `R`, selector, and the k-d
//! tree. (Quality ablations — how the *metrics* move along these axes —
//! live in `src/bin/ablations.rs`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use paydemand_geo::{KdTree, Point, Rect};
use paydemand_sim::{engine, Scenario, SelectorKind};
use rand::SeedableRng;

fn tiny(selector: SelectorKind) -> Scenario {
    Scenario::paper_default().with_users(30).with_max_rounds(5).with_selector(selector).with_seed(4)
}

fn bench_engine_by_selector(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_selector");
    for (label, selector) in [
        ("dp-cap14", SelectorKind::Dp { candidate_cap: Some(14) }),
        ("greedy", SelectorKind::Greedy),
        ("greedy2opt", SelectorKind::GreedyTwoOpt),
    ] {
        let scenario = tiny(selector);
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, s| {
            b.iter(|| engine::run(black_box(s)).unwrap());
        });
    }
    group.finish();
}

fn bench_engine_by_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_levels");
    for levels in [2u32, 5, 10] {
        // λ rescaled to keep Eq. 9 feasible over the same envelope.
        let scenario = Scenario {
            demand_levels: levels,
            reward_increment: 2.0 / f64::from(levels - 1),
            ..tiny(SelectorKind::Greedy)
        };
        group.bench_with_input(BenchmarkId::from_parameter(levels), &scenario, |b, s| {
            b.iter(|| engine::run(black_box(s)).unwrap());
        });
    }
    group.finish();
}

fn bench_engine_by_radius(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_radius");
    for radius in [250.0f64, 1000.0, 2500.0] {
        let scenario = tiny(SelectorKind::Greedy).with_neighbor_radius(radius);
        group.bench_with_input(BenchmarkId::from_parameter(radius as u64), &scenario, |b, s| {
            b.iter(|| engine::run(black_box(s)).unwrap());
        });
    }
    group.finish();
}

fn bench_spatial_indexes(c: &mut Criterion) {
    let area = Rect::square(3000.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let points: Vec<Point> = (0..140).map(|_| area.sample_uniform(&mut rng)).collect();
    let queries: Vec<Point> = (0..20).map(|_| area.sample_uniform(&mut rng)).collect();

    let mut group = c.benchmark_group("spatial_index");
    group.bench_function("kdtree/build+query", |b| {
        b.iter(|| {
            let tree = KdTree::build(black_box(&points));
            queries.iter().map(|&q| tree.within_radius(q, 1000.0).len()).sum::<usize>()
        });
    });
    group.finish();
}

fn bench_road_network(c: &mut Criterion) {
    let area = Rect::square(3000.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let net = paydemand_geo::network::RoadNetwork::grid(area, 20, 20).unwrap();
    let points: Vec<Point> = (0..15).map(|_| area.sample_uniform(&mut rng)).collect();

    let mut group = c.benchmark_group("road_network");
    group.bench_function("dijkstra_400_nodes", |b| {
        b.iter(|| net.dijkstra(black_box(paydemand_geo::network::NodeId(0))));
    });
    group.bench_function("travel_matrix_15_points", |b| {
        b.iter(|| net.travel_matrix(black_box(&points)));
    });
    group.finish();
}

fn bench_trace_encoding(c: &mut Criterion) {
    use paydemand_sim::trace::{decode, TraceEvent, TraceWriter};
    let mut group = c.benchmark_group("trace");
    group.bench_function("encode_10k_submits", |b| {
        b.iter(|| {
            let mut w = TraceWriter::journal();
            for i in 0..10_000u32 {
                w.record(TraceEvent::Submit { user: i, task: i % 20, reward: 1.5 });
            }
            w.finish()
        });
    });
    let mut w = TraceWriter::journal();
    for i in 0..10_000u32 {
        w.record(TraceEvent::Submit { user: i, task: i % 20, reward: 1.5 });
    }
    let bytes = w.finish();
    group.bench_function("decode_10k_submits", |b| {
        b.iter(|| decode(black_box(&bytes)).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20);
    targets = bench_engine_by_selector, bench_engine_by_levels, bench_engine_by_radius, bench_spatial_indexes, bench_road_network, bench_trace_encoding
}
criterion_main!(benches);
