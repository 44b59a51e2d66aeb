//! Chaos battery: the fault-injection subsystem under pressure.
//!
//! Four properties, each over many seeded fault plans:
//!
//! 1. **Budget safety** — under every fault mix, an enforced budget is
//!    never exceeded (retries, shocks and stale prices included).
//! 2. **Fault determinism** — the same (scenario seed, fault seed) pair
//!    replays bit-identically at any thread count.
//! 3. **Checkpoint fidelity** — interrupting at *every* round boundary
//!    and resuming reproduces the uninterrupted run byte-for-byte.
//! 4. **Zero-fault transparency** — an attached-but-inert fault plan
//!    leaves the engine bitwise identical to the plain path, pinned
//!    against the golden seed-0xD5EED values.

use paydemand::obs::Recorder;
use paydemand::sim::{
    engine, runner, Engine, FaultKind, FaultPlan, IndexingMode, MechanismKind, Scenario,
    SelectorKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The small scenario the plan sweeps run on: big enough for every
/// fault arm to bite, small enough for hundreds of runs.
fn chaos_scenario() -> Scenario {
    Scenario::paper_default()
        .with_users(12)
        .with_tasks(6)
        .with_max_rounds(5)
        .with_selector(SelectorKind::Greedy)
        .with_seed(0xC4A05)
}

/// Derives a deterministic fault plan from `seed`: every arm's
/// parameters are drawn from the seed's own RNG stream, and arms are
/// included with 50% probability each, so the sweep covers both single
/// faults and dense mixes.
fn plan_for(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_FAB5);
    let mut plan = FaultPlan::new(seed);
    if rng.gen::<bool>() {
        plan = plan.with(FaultKind::Dropout { rate: rng.gen_range(0.0..0.5) });
    }
    if rng.gen::<bool>() {
        plan = plan.with(FaultKind::LateArrival {
            fraction: rng.gen_range(0.0..0.6),
            latest_round: rng.gen_range(2..=4),
        });
    }
    if rng.gen::<bool>() {
        plan = plan.with(FaultKind::DroppedUploads { rate: rng.gen_range(0.0..0.4) });
    }
    if rng.gen::<bool>() {
        plan = plan.with(FaultKind::StragglerUploads {
            rate: rng.gen_range(0.0..0.4),
            max_retries: rng.gen_range(1..=4),
            backoff_rounds: rng.gen_range(1..=2),
        });
    }
    if rng.gen::<bool>() {
        plan = plan.with(FaultKind::GpsNoise { sigma: rng.gen_range(0.0..80.0) });
    }
    if rng.gen::<bool>() {
        plan = plan.with(FaultKind::BudgetShock {
            round: rng.gen_range(2..=4),
            factor: rng.gen_range(0.0..1.0),
        });
    }
    if rng.gen::<bool>() {
        plan = plan.with(FaultKind::DemandOutage { rate: rng.gen_range(0.0..0.6) });
    }
    plan
}

#[test]
fn payments_stay_within_budget_under_every_fault_mix() {
    let mut nonempty = 0;
    for seed in 0..200u64 {
        let plan = plan_for(seed);
        if !plan.is_empty() {
            nonempty += 1;
        }
        let scenario = Scenario {
            enforce_budget: true,
            faults: (!plan.is_empty()).then_some(plan),
            ..chaos_scenario()
        };
        let result = engine::run(&scenario).unwrap();
        assert!(
            result.total_paid <= scenario.reward_budget + 1e-9,
            "seed {seed}: paid {} over budget {}",
            result.total_paid,
            scenario.reward_budget
        );
        // Received counts always reconcile with per-round records, no
        // matter which faults fired.
        for i in 0..result.received.len() {
            let total: u32 = result.rounds.iter().map(|rr| rr.new_measurements[i]).sum();
            assert_eq!(total, result.received[i], "seed {seed}: task {i} does not reconcile");
        }
    }
    assert!(nonempty > 150, "the sweep must mostly exercise real fault mixes, got {nonempty}");
}

#[test]
fn faulted_runs_are_thread_count_invariant() {
    for seed in [3u64, 17, 91] {
        let scenario =
            Scenario { faults: Some(plan_for(seed)), ..chaos_scenario() }.with_seed(seed);
        let baseline = runner::run_repetitions_parallel(&scenario, 4, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let batch = runner::run_repetitions_parallel(&scenario, 4, threads).unwrap();
            assert_eq!(baseline, batch, "seed {seed}: {threads} threads diverged");
        }
    }
}

#[test]
fn resume_at_every_round_boundary_matches_uninterrupted() {
    for seed in [5u64, 42] {
        let scenario =
            Scenario { faults: Some(plan_for(seed)), ..chaos_scenario() }.with_seed(seed);
        let uninterrupted = engine::run(&scenario).unwrap();
        let recorder = Recorder::disabled();
        // Interrupt after every round: checkpoint, drop the engine,
        // resume from bytes, repeat until done.
        let mut engine = Engine::new(&scenario, &recorder).unwrap();
        let mut boundaries = 0;
        while engine.step_round().unwrap() {
            let bytes = engine.checkpoint().unwrap();
            engine = Engine::resume(&scenario, &bytes, &recorder).unwrap();
            boundaries += 1;
        }
        assert!(boundaries >= 5, "expected one checkpoint per round, got {boundaries}");
        let resumed = engine.finish().unwrap();
        assert_eq!(
            resumed, uninterrupted,
            "seed {seed}: resuming at every boundary diverged from the uninterrupted run"
        );
    }
}

#[test]
fn cell_sweep_checkpoints_round_trip_byte_identically_at_every_boundary() {
    // The cell-sweep backend stores positions in a struct-of-arrays
    // layout; the PDCK wire format must not notice. Two properties at
    // every round boundary, faults active: (1) checkpoint → resume →
    // checkpoint reproduces the exact bytes, (2) the resumed chain
    // finishes identical to the uninterrupted run.
    for seed in [5u64, 42] {
        let scenario = Scenario { faults: Some(plan_for(seed)), ..chaos_scenario() }
            .with_seed(seed)
            .with_indexing(IndexingMode::CellSweep);
        let uninterrupted = engine::run(&scenario).unwrap();
        let recorder = Recorder::disabled();
        let mut engine = Engine::new(&scenario, &recorder).unwrap();
        let mut boundaries = 0;
        while engine.step_round().unwrap() {
            let bytes = engine.checkpoint().unwrap();
            let resumed = Engine::resume(&scenario, &bytes, &recorder).unwrap();
            let reencoded = resumed.checkpoint().unwrap();
            assert_eq!(
                bytes, reencoded,
                "seed {seed}: SoA checkpoint did not round-trip byte-identically"
            );
            engine = resumed;
            boundaries += 1;
        }
        assert!(boundaries >= 5, "expected one checkpoint per round, got {boundaries}");
        assert_eq!(
            engine.finish().unwrap(),
            uninterrupted,
            "seed {seed}: cell-sweep resume chain diverged from the uninterrupted run"
        );
    }
}

/// The golden scenario from tests/determinism.rs.
fn golden_scenario() -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(8)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0xD5EED)
}

#[test]
fn zero_fault_plans_reproduce_the_golden_values() {
    let plans = [
        FaultPlan::new(0),
        FaultPlan::new(0xFEED)
            .with(FaultKind::Dropout { rate: 0.0 })
            .with(FaultKind::DroppedUploads { rate: 0.0 })
            .with(FaultKind::StragglerUploads { rate: 0.0, max_retries: 2, backoff_rounds: 1 })
            .with(FaultKind::GpsNoise { sigma: 0.0 })
            .with(FaultKind::DemandOutage { rate: 0.0 })
            .with(FaultKind::LateArrival { fraction: 0.0, latest_round: 3 }),
    ];
    for plan in plans {
        let result = engine::run(&golden_scenario().with_faults(plan.clone())).unwrap();
        assert_eq!(result.total_measurements(), 197, "plan {plan:?}");
        assert_eq!(result.rounds[0].new_measurements.iter().sum::<u32>(), 81, "plan {plan:?}");
        assert!((result.total_paid - 721.0).abs() < 1e-9, "plan {plan:?}: {}", result.total_paid);
        // And bitwise-equal to the plain engine path.
        let plain = engine::run(&golden_scenario()).unwrap();
        assert!(result.observationally_eq(&plain), "plan {plan:?} perturbed the run");
    }
}

#[test]
fn retry_queue_memory_drains_to_zero_live_bytes() {
    // Straggler-heavy run: the pending-upload queue grows, churns and
    // requeues for several rounds. Every queue allocation carries the
    // retry-queue tag — pushes, the per-round swap vector, and the
    // final release at `finish` — so the phase's byte accounting must
    // close at exactly zero once the run completes.
    use paydemand::obs::alloc::{self, AllocPhase};
    let _window = alloc::exclusive_profile();
    let recorder = Recorder::enabled();
    recorder.enable_alloc_profile();
    let before = alloc::phase_totals(AllocPhase::RetryQueue);
    let plan = FaultPlan::new(9)
        .with(FaultKind::StragglerUploads { rate: 0.6, max_retries: 3, backoff_rounds: 1 })
        .with(FaultKind::BudgetShock { round: 5, factor: 0.4 });
    let result = engine::run_recorded(&golden_scenario().with_faults(plan), &recorder).unwrap();
    assert!(result.total_measurements() > 0);
    let after = alloc::phase_totals(AllocPhase::RetryQueue);
    assert!(after.allocs > before.allocs, "the straggler run never touched the retry queue");
    assert_eq!(
        after.bytes_allocated - before.bytes_allocated,
        after.bytes_freed - before.bytes_freed,
        "retry-queue bytes did not drain to zero after the run"
    );
    assert_eq!(after.live_bytes, before.live_bytes, "retry-queue live bytes leaked");
}

#[test]
fn checkpointing_the_golden_run_preserves_the_golden_values() {
    let scenario = golden_scenario().with_faults(FaultPlan::new(1));
    let recorder = Recorder::disabled();
    let mut engine = Engine::new(&scenario, &recorder).unwrap();
    engine.step_round().unwrap();
    engine.step_round().unwrap();
    engine.step_round().unwrap();
    let bytes = engine.checkpoint().unwrap();
    let mut resumed = Engine::resume(&scenario, &bytes, &recorder).unwrap();
    resumed.run_to_completion().unwrap();
    let result = resumed.finish().unwrap();
    assert_eq!(result.total_measurements(), 197);
    assert!((result.total_paid - 721.0).abs() < 1e-9, "{}", result.total_paid);
}
