//! Differential battery for the Eq. 5 demand backend.
//!
//! The cell-centric sweep and the naive pairwise scan are two
//! implementations of the same function: per-task neighbour counts
//! under the strict `distance < R` predicate. This battery locks their
//! equality — not approximately, but bitwise, since counts are integers
//! and every reward downstream is a pure function of them:
//!
//! * 250+ seeded primitive instances (random geometry and churn) where
//!   every round's counts are compared against the naive scan;
//! * adversarial geometry woven through the instance stream: users
//!   exactly at distance `R`, positions on cell boundaries, the whole
//!   population crowded into one grid cell, empty worlds, and a radius
//!   larger than the arena;
//! * rounds on both sides of the sweep's full-recount switch: everyone
//!   moving, exactly half the users moving, and half plus one;
//! * full engine runs where the default `IndexingMode::CellSweep` must
//!   be observationally equivalent to the naive mode, with faults on
//!   and off and with every user wandering between rounds.

use paydemand::core::neighbors::{naive_counts_in, CellSweepCounter};
use paydemand::geo::{CellSweeper, Point, PositionStore, Rect};
use paydemand::obs::Recorder;
use paydemand::sim::{
    engine, FaultKind, FaultPlan, IndexingMode, MechanismKind, Scenario, SelectorKind, UserMotion,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded instances in the primitive battery. Each instance runs
/// several churn rounds, and every round checks both cell entry points
/// against the naive scan, so the effective number of differential
/// checks is several times this.
const INSTANCES: u64 = 250;

/// One instance's world: geometry plus the initial population.
struct Instance {
    area: Rect,
    radius: f64,
    tasks: Vec<Point>,
    users: Vec<Point>,
    /// Users rewritten per churn round (fraction of the population).
    churn: usize,
    /// Human-readable shape tag for assertion messages.
    shape: &'static str,
}

fn sample(area: Rect, rng: &mut StdRng, n: usize) -> Vec<Point> {
    (0..n).map(|_| area.sample_uniform(rng)).collect()
}

/// Builds the `k`-th instance. Most are uniformly random; every few
/// instances one of the adversarial shapes is produced instead, so the
/// battery keeps hammering the geometry edge cases under churn too.
fn build_instance(k: u64, scale: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(0xE95_D1FF ^ (k.wrapping_mul(0x9E37_79B9)));
    let side = [250.0, 1000.0, 3000.0][(k % 3) as usize];
    let area = Rect::square(side).unwrap();
    let n_max = 60 * scale;

    if k % 13 == 5 {
        // Empty world: no users at all.
        return Instance {
            area,
            radius: side / 5.0,
            tasks: {
                let m = 1 + rng.gen_range(0..10usize);
                sample(area, &mut rng, m)
            },
            users: Vec::new(),
            churn: 0,
            shape: "empty-world",
        };
    }
    if k % 13 == 7 {
        // R larger than the arena: every in-area user neighbours every
        // task; the candidate ranges clamp to the whole grid.
        return Instance {
            area,
            radius: side * rng.gen_range(1.1..4.0),
            tasks: {
                let m = 1 + rng.gen_range(0..8usize);
                sample(area, &mut rng, m)
            },
            users: {
                let n = rng.gen_range(1..n_max);
                sample(area, &mut rng, n)
            },
            churn: 5,
            shape: "radius-exceeds-arena",
        };
    }
    if k % 13 == 9 {
        // Whole population inside a single grid cell.
        let radius = side / 4.0;
        let users: Vec<Point> = (0..rng.gen_range(4..n_max))
            .map(|_| Point::new(rng.gen_range(0.0..radius * 0.9), rng.gen_range(0.0..radius * 0.9)))
            .collect();
        return Instance {
            area,
            radius,
            tasks: {
                let m = 1 + rng.gen_range(0..12usize);
                sample(area, &mut rng, m)
            },
            users,
            churn: 3,
            shape: "one-cell-crowd",
        };
    }
    if k % 13 == 11 {
        // Boundary lattice: tasks on cell corners, users on cell
        // boundaries and exactly at distance R from the first task —
        // the strict predicate must exclude them, in every backend.
        let radius = side / 5.0;
        let mut tasks = Vec::new();
        for i in 0..4u32 {
            for j in 0..3u32 {
                tasks.push(Point::new(f64::from(i) * radius, f64::from(j) * radius));
            }
        }
        let anchor = tasks[0];
        let mut users = Vec::new();
        for i in 0..3u32 {
            for j in 0..4u32 {
                users.push(Point::new(f64::from(i) * radius, f64::from(j) * radius));
            }
        }
        users.push(Point::new(anchor.x + radius, anchor.y)); // exactly R
        users.push(Point::new(anchor.x, anchor.y + radius)); // exactly R
        users.push(Point::new(anchor.x + radius - 1e-9, anchor.y)); // just inside
        users.push(anchor); // coincident
        return Instance { area, radius, tasks, users, churn: 4, shape: "boundary-lattice" };
    }

    // The common case: uniform random world with churn.
    let n = rng.gen_range(0..=n_max);
    Instance {
        area,
        radius: side * rng.gen_range(0.02..0.4),
        tasks: {
            let m = 1 + rng.gen_range(0..24usize);
            sample(area, &mut rng, m)
        },
        users: sample(area, &mut rng, n),
        churn: (n / 4).max(1),
        shape: "uniform",
    }
}

/// The backends under test for one instance, primed once and stepped
/// through the same churn sequence.
struct Backends {
    sweeper: CellSweeper,
    counter: CellSweepCounter,
}

impl Backends {
    fn new(inst: &Instance) -> Backends {
        Backends {
            sweeper: CellSweeper::new(inst.area, inst.radius, inst.tasks.clone()),
            counter: CellSweepCounter::new(inst.area, inst.radius, inst.tasks.clone()),
        }
    }

    /// Asserts both cell entry points agree with the naive reference on
    /// the current positions.
    fn check(&mut self, inst: &Instance, round: usize) {
        let tag = format!("shape {} round {round}", inst.shape);
        let expected = naive_counts_in(&inst.tasks, inst.users.as_slice(), inst.radius);
        let sweeper = self.sweeper.counts(inst.users.as_slice()).unwrap().to_vec();
        assert_eq!(sweeper, expected, "cell sweeper vs naive: {tag}");
        // The SoA store is the layout the engine actually feeds the
        // platform: same positions, same bits, via the core wrapper.
        let store = PositionStore::from_points(&inst.users);
        let counter = self.counter.counts(&store).unwrap().to_vec();
        assert_eq!(counter, expected, "cell counter (SoA) vs naive: {tag}");
    }
}

#[test]
fn battery_cell_equals_naive() {
    // Debug builds (tier-1 `cargo test`) keep the full instance count
    // but smaller populations; release builds widen the worlds.
    let scale = if cfg!(debug_assertions) { 1 } else { 4 };
    let mut shapes_seen = std::collections::BTreeSet::new();
    for k in 0..INSTANCES {
        let mut inst = build_instance(k, scale);
        shapes_seen.insert(inst.shape);
        let mut backends = Backends::new(&inst);
        let mut rng = StdRng::seed_from_u64(0xC4_0213 ^ k);
        backends.check(&inst, 0);
        let rounds = if inst.users.is_empty() { 1 } else { 3 };
        for round in 1..=rounds {
            for _ in 0..inst.churn.min(inst.users.len()) {
                let who = rng.gen_range(0..inst.users.len());
                inst.users[who] = inst.area.sample_uniform(&mut rng);
            }
            backends.check(&inst, round);
        }
        // Every user moves: the round recounts in full.
        for u in &mut inst.users {
            *u = inst.area.sample_uniform(&mut rng);
        }
        backends.check(&inst, rounds + 1);
    }
    // The stream really does contain every adversarial shape.
    for shape in
        ["uniform", "empty-world", "radius-exceeds-arena", "one-cell-crowd", "boundary-lattice"]
    {
        assert!(shapes_seen.contains(shape), "battery never produced {shape}");
    }
}

#[test]
fn population_churn_matches_across_backends() {
    // Users joining and leaving between rounds (population resizes)
    // force full sweeps; the counts must still match naive at every
    // step.
    let area = Rect::square(1200.0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x90_90_90);
    let tasks = sample(area, &mut rng, 18);
    let mut sweeper = CellSweeper::new(area, 150.0, tasks.clone());
    for (round, n) in [40usize, 55, 0, 25, 25, 120, 1].into_iter().enumerate() {
        let users = sample(area, &mut rng, n);
        let expected = naive_counts_in(&tasks, users.as_slice(), 150.0);
        assert_eq!(sweeper.counts(users.as_slice()).unwrap(), &expected[..], "round {round}");
    }
}

#[test]
fn large_population_matches_naive_on_both_sides_of_the_full_sweep_switch() {
    // The sweep batches moves while at most half the users moved and
    // recounts in full past that. Pin the counts bit-identical to naive
    // at exactly n/2 moved (delta), n/2 + 1 (full), everyone (full) and
    // a light churn (delta), at a population where the cells are dense.
    let n = if cfg!(debug_assertions) { 2_000 } else { 40_000 };
    let area = Rect::square(3000.0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x1A96E);
    let tasks = sample(area, &mut rng, 50);
    let mut users = sample(area, &mut rng, n);
    let mut sweeper = CellSweeper::new(area, 200.0, tasks.clone());
    sweeper.counts(users.as_slice()).unwrap();
    for (round, (moving, full)) in
        [(n / 2, false), (n / 2 + 1, true), (n, true), (n / 10, false)].into_iter().enumerate()
    {
        // Distinct users, each to a fresh spot: exactly `moving` moved.
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..moving {
            order.swap(i, rng.gen_range(i..n));
            let who = order[i];
            let mut to = area.sample_uniform(&mut rng);
            while to == users[who] {
                to = area.sample_uniform(&mut rng);
            }
            users[who] = to;
        }
        let got = sweeper.counts(users.as_slice()).unwrap().to_vec();
        assert_eq!(got, naive_counts_in(&tasks, users.as_slice(), 200.0), "round {round}");
        assert_eq!(sweeper.moved_last_round(), moving, "round {round}");
        assert_eq!(sweeper.last_was_full_sweep(), full, "round {round}: {moving} of {n} moved");
    }
}

fn engine_scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(6)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(seed)
}

#[test]
fn engine_cell_sweep_is_observationally_equivalent() {
    for seed in [3u64, 0xD5EED, 0xBEE] {
        let base = engine_scenario(seed);
        let naive = engine::run(&base.clone().with_indexing(IndexingMode::NaiveReference)).unwrap();
        let cell = engine::run(&base).unwrap();
        assert!(naive.observationally_eq(&cell), "seed {seed}: cell sweep diverged from naive");
    }
}

#[test]
fn engine_cell_sweep_matches_naive_when_every_user_wanders() {
    // Wandering users all move between rounds, so after the priming
    // sweep every round takes the full-recount side of the switch; the
    // whole simulation must still equal the naive reference's.
    for seed in [4u64, 0xD5EED] {
        let mut base = engine_scenario(seed).with_users(200).with_neighbor_radius(300.0);
        base.user_motion = UserMotion::Wander { seconds: 60.0 };
        assert_eq!(base.indexing, IndexingMode::CellSweep, "the default backend is under test");
        let recorder = Recorder::enabled();
        let cell = engine::run_recorded(&base, &recorder).unwrap();
        let naive = engine::run(&base.clone().with_indexing(IndexingMode::NaiveReference)).unwrap();
        assert!(naive.observationally_eq(&cell), "seed {seed}: wandering cell run diverged");
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter_value("cell_sweep_full_sweeps_total", None),
            snap.counter_value("engine_rounds_total", None),
            "seed {seed}: every wandering round should recount in full"
        );
    }
}

#[test]
fn engine_cell_sweep_is_equivalent_under_faults() {
    // Faults perturb movement, uploads and pricing; the counting
    // backend must remain invisible through all of it. GPS noise is the
    // interesting arm: the platform then counts *observed* positions,
    // which flow through the same Positions abstraction.
    let plan = FaultPlan::new(0xFA_17)
        .with(FaultKind::Dropout { rate: 0.2 })
        .with(FaultKind::GpsNoise { sigma: 40.0 })
        .with(FaultKind::StragglerUploads { rate: 0.2, max_retries: 2, backoff_rounds: 1 })
        .with(FaultKind::BudgetShock { round: 3, factor: 0.5 });
    for seed in [11u64, 0xD5EED] {
        let base = engine_scenario(seed).with_faults(plan.clone());
        let naive = engine::run(&base.clone().with_indexing(IndexingMode::NaiveReference)).unwrap();
        let cell = engine::run(&base).unwrap();
        assert!(naive.observationally_eq(&cell), "seed {seed}: cell sweep diverged under faults");
    }
}
