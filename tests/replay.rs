//! Replay verification, pinned.
//!
//! A decision journal is only worth keeping if the run's outcome —
//! payments, prices, completions — can be recomputed from the frames
//! alone and checked **bitwise** against the live result. These tests
//! pin that promise: the golden seed replays identically at every
//! thread count, a hundred seeded scenarios (faults on and off) all
//! replay-verify, and enabling the trace sink never changes what the
//! simulation computes. One faulted run with external events pins the
//! journal's bytes, and so its frame order.

use paydemand::obs::Recorder;
use paydemand::sim::replay;
use paydemand::sim::trace::{self, TraceEvent};
use paydemand::sim::{
    engine, runner, FaultKind, FaultPlan, IndexingMode, MechanismKind, Scenario, SelectorKind,
};

/// The golden configuration from `tests/determinism.rs`: seed 0xD5EED,
/// 30 users, 10 tasks, 8 rounds, capped DP, on-demand pricing.
fn golden() -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(8)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0xD5EED)
}

#[test]
fn golden_journal_recomputes_the_pinned_numbers() {
    let recorder = Recorder::disabled();
    let (result, journal) = engine::run_traced(&golden(), &recorder).unwrap();
    // The journal alone must reproduce the golden pins bit-for-bit.
    let summary = replay::verify(&journal, &result).unwrap();
    assert_eq!(summary.rounds, 8);
    assert_eq!(summary.measurements, 197, "golden measurement count moved");
    assert!((summary.total_paid - 721.0).abs() < 1e-9, "golden payments moved");
    assert_eq!(summary.total_paid.to_bits(), result.total_paid.to_bits(), "payment bits moved");
    // Round-1 throughput, recounted from raw Submit frames.
    let events = trace::decode(&journal).unwrap();
    let mut round = 0u32;
    let mut round1 = 0u32;
    for event in &events {
        match event {
            TraceEvent::RoundStart { round: r } => round = *r,
            TraceEvent::Submit { .. } if round == 1 => round1 += 1,
            _ => {}
        }
    }
    assert_eq!(round1, 81, "golden round-1 throughput moved");
    // Every task's completion round, recomputed from the journal.
    let completed: Vec<Option<u32>> =
        (0..10).map(|t| summary.completions.get(&t).copied()).collect();
    assert_eq!(
        completed,
        vec![Some(3), Some(4), Some(2), None, Some(2), Some(3), Some(3), Some(2), Some(3), Some(4)],
    );
}

#[test]
fn golden_journal_verifies_against_batches_at_every_thread_count() {
    // The journal is produced once, from repetition 0's world; every
    // parallel batch — whatever its thread count — must contain that
    // exact repetition as element 0.
    let s = golden();
    let recorder = Recorder::disabled();
    let rep0 = s.clone().with_seed(runner::rep_seed(s.seed, 0));
    let (_, journal) = engine::run_traced(&rep0, &recorder).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let batch = runner::run_repetitions_parallel(&s, 3, threads).unwrap();
        replay::verify(&journal, &batch[0])
            .unwrap_or_else(|e| panic!("{threads}-thread rep 0 failed replay: {e}"));
    }
}

#[test]
fn enabling_the_trace_sink_never_changes_the_simulation() {
    // Bitwise identity: a traced run and a plain run of the same
    // scenario are the same simulation. PartialEq on SimulationResult
    // compares every f64 (payments, profits, estimates) exactly.
    let recorder = Recorder::disabled();
    let faulted = golden().with_faults(
        FaultPlan::new(99)
            .with(FaultKind::Dropout { rate: 0.2 })
            .with(FaultKind::DroppedUploads { rate: 0.15 })
            .with(FaultKind::StragglerUploads { rate: 0.2, max_retries: 2, backoff_rounds: 1 })
            .with(FaultKind::DemandOutage { rate: 0.3 })
            .with(FaultKind::BudgetShock { round: 3, factor: 0.5 }),
    );
    for scenario in [golden(), faulted] {
        let plain = engine::run(&scenario).unwrap();
        let (traced, journal) = engine::run_traced(&scenario, &recorder).unwrap();
        assert_eq!(plain, traced, "tracing changed the simulation");
        replay::verify(&journal, &plain).unwrap();
    }
}

#[test]
fn a_disabled_sink_emits_nothing() {
    // The default engine path never allocates a journal: take_trace on
    // an engine that never called enable_trace returns None, and its
    // result matches the one-shot runner exactly.
    let recorder = Recorder::disabled();
    let mut engine = paydemand::sim::Engine::new(&golden(), &recorder).unwrap();
    while engine.step_round().unwrap() {}
    assert!(engine.take_trace().is_none());
    assert_eq!(engine.finish().unwrap(), engine::run(&golden()).unwrap());
}

/// A small scenario parameterised by an index, cycling selectors and
/// mechanisms so the sweep crosses every solver's Selection frames.
fn seeded_scenario(i: u64, faults: bool) -> Scenario {
    let selectors = [
        SelectorKind::Dp { candidate_cap: Some(10) },
        SelectorKind::Greedy,
        SelectorKind::GreedyTwoOpt,
        SelectorKind::Insertion,
        SelectorKind::BranchBound,
    ];
    let mechanisms = [MechanismKind::OnDemand, MechanismKind::Fixed, MechanismKind::Steered];
    let mut s = Scenario::paper_default()
        .with_users(8 + (i % 13) as usize)
        .with_tasks(3 + (i % 5) as usize)
        .with_max_rounds(3 + (i % 4) as u32)
        .with_selector(selectors[(i % 5) as usize])
        .with_mechanism(mechanisms[(i % 3) as usize])
        .with_seed(0x5EED_0000 + i);
    if faults {
        s = s.with_faults(
            FaultPlan::new(i)
                .with(FaultKind::Dropout { rate: 0.1 + (i % 4) as f64 * 0.08 })
                .with(FaultKind::DroppedUploads { rate: 0.1 })
                .with(FaultKind::StragglerUploads { rate: 0.15, max_retries: 2, backoff_rounds: 1 })
                .with(FaultKind::DemandOutage { rate: 0.2 })
                .with(FaultKind::BudgetShock { round: 2, factor: 0.6 }),
        );
    }
    s
}

#[test]
fn a_hundred_seeded_scenarios_replay_verify_faults_on_and_off() {
    // The replay contract holds across the whole configuration space:
    // 60 clean + 60 faulted scenarios over every selector × mechanism
    // combination, each journal recomputing its own run bitwise.
    for i in 0..60u64 {
        for faults in [false, true] {
            let scenario = seeded_scenario(i, faults);
            let recorder = Recorder::disabled();
            let (result, journal) = engine::run_traced(&scenario, &recorder).unwrap();
            let summary = replay::verify(&journal, &result)
                .unwrap_or_else(|e| panic!("scenario {i} (faults: {faults}) failed replay: {e}"));
            assert_eq!(summary.rounds as usize, result.rounds.len());
            assert_eq!(summary.measurements, result.total_measurements());
        }
    }
}

#[test]
fn cell_sweep_traced_large_run_replay_verifies() {
    // The demand-wall backend under the decision journal: a large
    // traced run in CellSweep mode must replay-verify bitwise and match
    // the naive reference's result exactly. 100k users in release;
    // tier-1 debug builds run a scaled-down population through the
    // identical code paths.
    let users = if cfg!(debug_assertions) { 2_000 } else { 100_000 };
    let base = Scenario::paper_default()
        .with_users(users)
        .with_tasks(20)
        .with_max_rounds(3)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0x100_000);
    let recorder = Recorder::disabled();
    let cell = base.clone().with_indexing(IndexingMode::CellSweep);
    let (result, journal) = engine::run_traced(&cell, &recorder).unwrap();
    let summary = replay::verify(&journal, &result)
        .unwrap_or_else(|e| panic!("{users}-user cell-sweep run failed replay: {e}"));
    assert_eq!(summary.rounds as usize, result.rounds.len());
    assert_eq!(summary.measurements, result.total_measurements());
    let naive = engine::run(&base.with_indexing(IndexingMode::NaiveReference)).unwrap();
    assert!(
        result.observationally_eq(&naive),
        "{users}-user cell-sweep run diverged from the naive reference"
    );
}

#[test]
fn tampered_golden_journals_are_always_caught() {
    // Flipping any Submit frame's reward — even by one ulp — must fail
    // verification, as must dropping a frame.
    let recorder = Recorder::disabled();
    let (result, journal) = engine::run_traced(&golden(), &recorder).unwrap();
    let mut events = trace::decode(&journal).unwrap();
    let victim = events
        .iter()
        .position(|e| matches!(e, TraceEvent::Submit { reward, .. } if *reward > 0.0))
        .unwrap();
    if let TraceEvent::Submit { reward, .. } = &mut events[victim] {
        *reward = f64::from_bits(reward.to_bits() + 1);
    }
    assert!(replay::verify_events(&events, &result).is_err(), "ulp flip went unnoticed");

    let mut dropped = trace::decode(&journal).unwrap();
    dropped.remove(victim);
    assert!(replay::verify_events(&dropped, &result).is_err(), "dropped frame went unnoticed");
}

/// The journal's frame order, pinned: the fnv1a64 hash of the PDTJ
/// bytes of one traced run that lands a measurement every way one can
/// land — a selected route's upload, an external `Upload` and a due
/// straggler retry — under the budget cap and every fault arm, with
/// external `Move`/`Upload` events enqueued each round.
#[test]
fn a_faulted_evented_journal_keeps_its_bytes() {
    use paydemand::sim::frame::fnv1a64;
    use paydemand::sim::{Engine, EventOutcome, ExternalEvent};
    use std::collections::HashSet;

    let plan = FaultPlan::new(21)
        .with(FaultKind::DemandOutage { rate: 0.3 })
        .with(FaultKind::BudgetShock { round: 5, factor: 0.5 })
        .with(FaultKind::Dropout { rate: 0.1 })
        .with(FaultKind::DroppedUploads { rate: 0.1 })
        .with(FaultKind::StragglerUploads { rate: 0.2, max_retries: 2, backoff_rounds: 1 })
        .with(FaultKind::GpsNoise { sigma: 25.0 });
    let mut scenario = golden().with_faults(plan);
    scenario.enforce_budget = true;
    let mut engine = Engine::new(&scenario, &Recorder::disabled()).unwrap();
    engine.enable_trace();
    let (users, tasks) = (engine.num_users() as u32, engine.num_tasks() as u32);
    let area = engine.area();
    let mut external_paid = 0;
    while !engine.is_finished() {
        let r = engine.next_round();
        let (x, y) = (area.min().x + f64::from(r) * 37.0, area.min().y + f64::from(r) * 53.0);
        engine.enqueue_event(ExternalEvent::Move { user: (r * 7) % users, x, y }).unwrap();
        for k in 0..3 {
            let event = ExternalEvent::Upload {
                user: (r * 5 + k) % users,
                task: (r + k) % tasks,
                value: 0.5,
            };
            engine.enqueue_event(event).unwrap();
        }
        engine.step_round().unwrap();
        external_paid += engine
            .last_event_outcomes()
            .iter()
            .filter(|o| matches!(o, EventOutcome::Paid(_)))
            .count();
    }
    let journal = engine.take_trace().unwrap();

    // Classify every Submit: after its user's Selection frame it is a
    // route upload; before any Selection it is an external upload or,
    // when it redelivers an earlier delayed upload, a retry.
    let (mut route, mut retry, mut external) = (0, 0, 0);
    let mut delayed: HashSet<(u32, u32)> = HashSet::new();
    let mut fault_kinds: HashSet<u8> = HashSet::new();
    let mut selecting: Option<u32> = None;
    for event in trace::decode(&journal).unwrap() {
        match event {
            TraceEvent::RoundStart { .. } => selecting = None,
            TraceEvent::Selection { user, .. } => selecting = Some(user),
            TraceEvent::Fault { kind, user, task, .. } => {
                fault_kinds.insert(kind);
                if kind == trace::FAULT_UPLOAD_DELAYED {
                    delayed.insert((user, task));
                }
                if kind == trace::FAULT_USER_OFFLINE {
                    selecting = Some(u32::MAX);
                }
            }
            TraceEvent::Submit { user, task, .. } => match selecting {
                Some(u) if u == user => route += 1,
                Some(_) => panic!("submit for user {user} outside its selection"),
                None if delayed.remove(&(user, task)) => retry += 1,
                None => external += 1,
            },
            _ => {}
        }
    }
    assert!(
        route > 0 && retry > 0 && external > 0,
        "{route} route, {retry} retry, {external} external"
    );
    assert_eq!(external, external_paid, "every paid external upload has its Submit frame");
    for kind in [
        trace::FAULT_STALE_PRICING,
        trace::FAULT_BUDGET_SHOCK,
        trace::FAULT_USER_OFFLINE,
        trace::FAULT_UPLOAD_DROPPED,
        trace::FAULT_UPLOAD_DELAYED,
    ] {
        assert!(fault_kinds.contains(&kind), "no {} fault", trace::fault_kind_label(kind));
    }
    assert_eq!(fnv1a64(&journal), 0xa945_b1a1_7099_765f);
}
