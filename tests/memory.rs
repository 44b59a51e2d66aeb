//! Memory observability: the tracking allocator must be invisible.
//!
//! Three promises, pinned: (1) allocation profiling on vs off yields
//! bit-identical simulation results across the whole thread matrix,
//! against the golden seed-0xD5EED values; (2) a profiled run exports
//! every per-phase memory family, and two engines racing on one shared
//! recorder lose no allocator updates; (3) the CellSweep demand
//! backend's steady-state rounds allocate nothing at 100k users, both
//! delta rounds and full sweeps, a warmed exact solve allocates only
//! the route it returns, and a warmed checkpoint allocates only its
//! exactly sized buffer; (4) an engine's per-user state, built by
//! `Engine::new` or `Engine::resume`, costs at most 72 bytes a user.
//!
//! Every test that enables profiling holds the exclusive window so the
//! exact-accounting assertions never see another test's enable cycle.

use paydemand::geo::{CellSweeper, Point, PositionStore, Rect};
use paydemand::obs::alloc::{self, AllocPhase, PhaseGuard};
use paydemand::obs::Recorder;
use paydemand::routing::{orienteering, CostMatrix};
use paydemand::sim::{
    engine, runner, Engine, ExternalEvent, MechanismKind, Scenario, SelectorKind, UserMotion,
};
use rand::{Rng, SeedableRng};

/// The golden scenario from tests/determinism.rs.
fn scenario() -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(8)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0xD5EED)
}

/// A fresh recorder with allocator profiling switched on.
fn profiled_recorder() -> Recorder {
    let recorder = Recorder::enabled();
    recorder.enable_alloc_profile();
    recorder
}

#[test]
fn alloc_profiling_does_not_change_the_golden_run() {
    let _window = alloc::exclusive_profile();
    let off = engine::run(&scenario()).unwrap();
    let on = engine::run_recorded(&scenario(), &profiled_recorder()).unwrap();
    assert_eq!(off, on, "allocation profiling changed the simulation result");
    assert_eq!(on.total_measurements(), 197, "total measurements moved");
    assert_eq!(on.rounds[0].new_measurements.iter().sum::<u32>(), 81, "round-1 moved");
    assert!((on.total_paid - 721.0).abs() < 1e-9, "payments moved: {}", on.total_paid);
}

#[test]
fn alloc_profiling_does_not_change_results_across_threads() {
    let _window = alloc::exclusive_profile();
    let s = scenario();
    let baseline = runner::run_repetitions_parallel(&s, 5, 1).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let batch = runner::run_repetitions_parallel_recorded(&s, 5, threads, &profiled_recorder())
            .unwrap();
        assert_eq!(baseline, batch, "{threads}-thread alloc-profiled batch diverged");
    }
}

#[test]
fn profiled_run_exports_every_memory_family() {
    let _window = alloc::exclusive_profile();
    let recorder = profiled_recorder();
    engine::run_recorded(&scenario(), &recorder).unwrap();
    let snap = recorder.snapshot();

    // Every engine phase has the full family set, internally coherent.
    for phase in ["demand", "pricing", "selection", "settlement", "movement"] {
        let allocs = snap
            .counter_value("alloc_allocs_total", Some(("phase", phase)))
            .unwrap_or_else(|| panic!("missing alloc_allocs_total{{phase={phase}}}"));
        let sizes = snap.histogram_snapshot("alloc_size_bytes", Some(("phase", phase))).unwrap();
        assert_eq!(sizes.count, allocs, "phase {phase}: size classes disagree with allocs");
        assert!(
            snap.gauge_value("alloc_peak_live_bytes", Some(("phase", phase))).is_some(),
            "phase {phase} has no peak gauge"
        );
    }
    // The heavy phases demonstrably attribute work.
    for phase in ["demand", "selection"] {
        let allocs = snap.counter_value("alloc_allocs_total", Some(("phase", phase))).unwrap();
        let bytes = snap.counter_value("alloc_bytes_total", Some(("phase", phase))).unwrap();
        assert!(allocs > 0, "phase {phase} attributed no allocations");
        assert!(bytes > 0, "phase {phase} attributed no bytes");
    }
    assert!(snap.gauge_value("memory_live_bytes", None).is_some());
    assert!(snap.gauge_value("memory_neighbor_index_bytes", None).is_some());
    if alloc::process_rss().is_some() {
        let rss = snap.gauge_value("process_rss_bytes", None).unwrap();
        let peak = snap.gauge_value("process_peak_rss_bytes", None).unwrap();
        assert!(rss > 0 && peak >= rss, "rss {rss} / peak {peak}");
    }

    // Both exporters and the profile table carry the families.
    let prom = snap.to_prometheus();
    assert!(prom.contains("alloc_bytes_total{phase=\"demand\"}"), "{prom}");
    assert!(prom.contains("memory_live_bytes"), "{prom}");
    let json = snap.to_json();
    assert!(json.contains("\"memory_live_bytes\""), "{json}");
    assert!(
        snap.profile_table().contains("alloc_allocs_total"),
        "no memory section in the profile table"
    );
}

#[test]
fn shared_recorder_loses_no_allocator_updates() {
    // Two engines race on one profiled recorder; every tagged phase's
    // alloc_* counters must equal the global per-phase delta over the
    // window — exactly, no lost updates.
    let _window = alloc::exclusive_profile();
    let recorder = profiled_recorder();
    let before = alloc::snapshot_phases();
    let a = scenario();
    let b = scenario().with_users(24).with_seed(0xB0B);
    std::thread::scope(|scope| {
        let ha = scope.spawn(|| engine::run_recorded(&a, &recorder).unwrap());
        let hb = scope.spawn(|| engine::run_recorded(&b, &recorder).unwrap());
        let _ = (ha.join().unwrap(), hb.join().unwrap());
    });
    recorder.sample_alloc();
    let after = alloc::snapshot_phases();
    let snap = recorder.snapshot();
    for phase in AllocPhase::ALL {
        if phase == AllocPhase::Untagged {
            continue; // polluted by every other thread in the process
        }
        let (cur, prev) = (&after[phase as usize], &before[phase as usize]);
        let label = Some(("phase", phase.label()));
        let allocs = snap.counter_value("alloc_allocs_total", label).unwrap_or(0);
        let bytes = snap.counter_value("alloc_bytes_total", label).unwrap_or(0);
        assert_eq!(allocs, cur.allocs - prev.allocs, "phase {} lost allocs", phase.label());
        assert_eq!(
            bytes,
            cur.bytes_allocated - prev.bytes_allocated,
            "phase {} lost bytes",
            phase.label()
        );
    }
}

/// 100k users on a lattice over a 10 km square and 64 tasks, with a
/// sweeper that has not yet counted them.
#[allow(clippy::cast_precision_loss)]
fn sweeper_at_scale() -> (CellSweeper, PositionStore) {
    let n = 100_000usize;
    let area = Rect::square(10_000.0).unwrap();
    let tasks: Vec<Point> = (0..64)
        .map(|i| {
            Point::new(
                f64::from(i % 8).mul_add(1200.0, 300.0),
                f64::from(i / 8).mul_add(1200.0, 300.0),
            )
        })
        .collect();
    let users = PositionStore::from_points(
        &(0..n)
            .map(|i| Point::new((i % 1000) as f64 * 10.0 + 0.5, (i / 1000) as f64 * 100.0 + 0.5))
            .collect::<Vec<_>>(),
    );
    (CellSweeper::new(area, 500.0, tasks), users)
}

#[test]
fn cell_sweep_delta_rounds_allocate_nothing_at_scale() {
    // The allocation-regression gate pins this via the scaling bench;
    // here the claim is tested directly at the acceptance scale: after
    // the priming sweep and one warm-up delta round, a 100k-user
    // CellSweeper serves delta rounds without touching the allocator.
    let _window = alloc::exclusive_profile();
    let recorder = profiled_recorder(); // keeps global tracking alive
    let moves_per_round = 32usize;
    let (mut sweeper, mut users) = sweeper_at_scale();
    let n = users.len();
    let shuffle = |users: &mut PositionStore, round: usize| {
        for k in 0..moves_per_round {
            let i = (round * 97 + k * 311) % n;
            users.set(i, Point::new(((i + 7 * k) % 9999) as f64 + 0.25, (i % 9973) as f64 + 0.25));
        }
    };
    // Priming full sweep, then one warm-up delta round sized like the
    // steady-state rounds so the scratch buffers reach capacity.
    sweeper.counts(&users).unwrap();
    shuffle(&mut users, 0);
    sweeper.counts(&users).unwrap();
    assert!(!sweeper.last_was_full_sweep(), "warm-up round was not a delta sweep");

    // Steady state: every subsequent delta round is allocation-free.
    for round in 1..9usize {
        shuffle(&mut users, round);
        let _tag = PhaseGuard::enter(AllocPhase::Demand);
        let before = alloc::phase_totals(AllocPhase::Demand);
        sweeper.counts(&users).unwrap();
        let after = alloc::phase_totals(AllocPhase::Demand);
        assert_eq!(
            after.allocs - before.allocs,
            0,
            "round {round}: steady-state delta sweep allocated"
        );
        assert!(!sweeper.last_was_full_sweep(), "round {round} fell back to a full sweep");
    }
    drop(recorder);
}

#[test]
fn cell_sweep_full_rounds_allocate_nothing_at_scale() {
    // Every user moves each round, so every round recounts in full:
    // after the priming sweep and one warm-up round, the sweeper's kept
    // buffers serve full sweeps without touching the allocator.
    let _window = alloc::exclusive_profile();
    let recorder = profiled_recorder(); // keeps global tracking alive
    let (mut sweeper, mut users) = sweeper_at_scale();
    let reflect = |users: &mut PositionStore| {
        for i in 0..users.len() {
            let p = users.point(i);
            users.set(i, Point::new(10_000.0 - p.x, 10_000.0 - p.y));
        }
    };
    sweeper.counts(&users).unwrap();
    reflect(&mut users);
    sweeper.counts(&users).unwrap();
    assert!(sweeper.last_was_full_sweep(), "warm-up round was not a full sweep");

    for round in 1..5usize {
        reflect(&mut users);
        let _tag = PhaseGuard::enter(AllocPhase::Demand);
        let before = alloc::phase_totals(AllocPhase::Demand);
        sweeper.counts(&users).unwrap();
        let after = alloc::phase_totals(AllocPhase::Demand);
        assert_eq!(after.allocs - before.allocs, 0, "round {round}: full sweep allocated");
        assert!(sweeper.last_was_full_sweep(), "round {round} was not a full sweep");
        assert_eq!(sweeper.moved_last_round(), users.len(), "round {round}");
    }
    drop(recorder);
}

/// One user's problem in the paper's sweep: 14 candidates over the
/// 3 km square, a 600–1200 s budget at 2 m/s (in metres) and rewards
/// on the 0.5 pricing grid.
fn paper_problem(seed: u64) -> (CostMatrix, Vec<f64>, f64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let area = Rect::square(3000.0).unwrap();
    let tasks: Vec<Point> = (0..14).map(|_| area.sample_uniform(&mut rng)).collect();
    let rewards = (0..14).map(|_| f64::from(rng.gen_range(1..=8u32)) * 0.5).collect();
    let start = area.sample_uniform(&mut rng);
    let budget = rng.gen_range(600.0..=1200.0) * 2.0;
    (CostMatrix::from_points(start, &tasks), rewards, budget)
}

#[test]
fn warmed_exact_solves_allocate_only_their_route() {
    // After one pass over 40 paper-sized problems the exact solver's
    // kept table has the capacity they need: a second pass allocates
    // the returned route and nothing else.
    let _window = alloc::exclusive_profile();
    let recorder = profiled_recorder(); // keeps global tracking alive
    let problems: Vec<_> = (0..40).map(|k| paper_problem(0xE8AC7 + k)).collect();
    let instances: Vec<_> = problems
        .iter()
        .map(|(costs, rewards, budget)| {
            orienteering::Instance::new(costs, rewards, *budget, 0.002).unwrap()
        })
        .collect();
    for instance in &instances {
        orienteering::solve_exact(instance).unwrap();
    }
    let mut routes = 0;
    for (k, instance) in instances.iter().enumerate() {
        let _tag = PhaseGuard::enter(AllocPhase::Selection);
        let before = alloc::phase_totals(AllocPhase::Selection);
        let (solution, _) = orienteering::solve_exact(instance).unwrap();
        let after = alloc::phase_totals(AllocPhase::Selection);
        let route = u64::from(!solution.order.is_empty());
        assert_eq!(after.allocs - before.allocs, route, "solve {k} allocated beyond its route");
        routes += route;
    }
    assert!(routes >= 20, "only {routes}/40 problems chose a route");
    drop(recorder);
}

/// An engine over `tasks` tasks after two rounds of outside uploads
/// that reach every task, checkpointed once so its scenario fingerprint
/// and workload hash are taken. Almost every user sits the rounds out.
fn contributed_engine(users: usize, tasks: usize) -> Engine {
    let mut scenario = Scenario::paper_default()
        .with_users(users)
        .with_tasks(tasks)
        .with_selector(SelectorKind::Greedy)
        .with_seed(0xC4EC);
    scenario.dropout_rate = 0.99;
    scenario.reward_budget = 1e6;
    let mut engine = Engine::new(&scenario, &Recorder::disabled()).unwrap();
    for round in 0..2u32 {
        for task in 0..tasks as u32 {
            let user = (task * 7 + round) % users as u32;
            engine.enqueue_event(ExternalEvent::Upload { user, task, value: 1.0 }).unwrap();
        }
        engine.step_round().unwrap();
    }
    engine.checkpoint().unwrap();
    engine
}

#[test]
fn a_warmed_checkpoint_allocates_only_its_buffer() {
    // The platform's state is written from its own vectors, not from
    // per-task copies, and the buffer is allocated once at the file's
    // exact length: the allocations do not grow with m or n.
    let _window = alloc::exclusive_profile();
    let recorder = profiled_recorder(); // keeps global tracking alive
    let mut allocs = Vec::new();
    for (users, tasks) in [(100, 250), (400, 1_000)] {
        let engine = contributed_engine(users, tasks);
        let reached = engine.task_statuses().unwrap().iter().filter(|t| t.received > 0).count();
        assert!(reached * 10 >= tasks * 9, "uploads reached {reached} of {tasks} tasks");
        let _tag = PhaseGuard::enter(AllocPhase::Checkpoint);
        let before = alloc::phase_totals(AllocPhase::Checkpoint);
        let bytes = engine.checkpoint().unwrap();
        let after = alloc::phase_totals(AllocPhase::Checkpoint);
        let allocated = after.bytes_allocated - before.bytes_allocated;
        assert_eq!(allocated, bytes.len() as u64, "{tasks} tasks: buffer not sized exactly");
        allocs.push(after.allocs - before.allocs);
    }
    // The output buffer, and no mechanism blob: on-demand pricing keeps
    // no state between rounds.
    assert_eq!(allocs, [1, 1]);
    drop(recorder);
}

/// Bytes `build` allocates on this thread, tagged so that other
/// threads' allocations are not counted.
fn allocated_by<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let _tag = PhaseGuard::enter(AllocPhase::Checkpoint);
    let before = alloc::phase_totals(AllocPhase::Checkpoint);
    let built = build();
    let after = alloc::phase_totals(AllocPhase::Checkpoint);
    (built, after.bytes_allocated - before.bytes_allocated)
}

#[test]
fn engine_state_costs_at_most_72_bytes_a_user() {
    // 100k users wander between rounds, as `city`'s do, and about a
    // hundred select tasks each round. A user's state is a home, a
    // budget, a quality, a position, a walker and a contributions slot:
    // 68 bytes. Everything else (tasks, platform, round records, the
    // contributors' lists) is bounded per task: each task takes at most
    // `required_per_task` contributions.
    const USERS: usize = 100_000;
    const TASKS: usize = 100;
    const PER_USER: u64 = 72;
    const PER_TASK: u64 = 2 * 1024;
    let _window = alloc::exclusive_profile();
    let recorder = profiled_recorder(); // keeps global tracking alive
    let mut scenario = Scenario::paper_default()
        .with_users(USERS)
        .with_tasks(TASKS)
        .with_neighbor_radius(200.0)
        .with_selector(SelectorKind::Greedy)
        .with_max_rounds(4)
        .with_seed(0x5EED_B17E);
    scenario.user_motion = UserMotion::Wander { seconds: 60.0 };
    scenario.dropout_rate = 1.0 - 100.0 / USERS as f64;
    scenario.reward_budget = 1e9;
    let bound = PER_USER * USERS as u64 + PER_TASK * TASKS as u64;

    let (mut engine, new_bytes) =
        allocated_by(|| Engine::new(&scenario, &Recorder::disabled()).unwrap());
    engine.step_round().unwrap();
    engine.step_round().unwrap();
    let bytes = engine.checkpoint().unwrap();
    drop(engine);
    let (resumed, resume_bytes) =
        allocated_by(|| Engine::resume(&scenario, &bytes, &Recorder::disabled()).unwrap());
    assert!(resumed.total_paid() > 0.0, "no user contributed before the checkpoint");
    let per_user = |b: u64| b as f64 / USERS as f64;
    assert!(
        new_bytes <= bound && resume_bytes <= bound,
        "Engine::new allocated {new_bytes} B ({:.1} B a user), Engine::resume {resume_bytes} B \
         ({:.1} B a user), over {bound} B",
        per_user(new_bytes),
        per_user(resume_bytes)
    );
    drop(recorder);
}
