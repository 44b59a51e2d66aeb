//! Observational-equivalence battery for the scaling machinery.
//!
//! The cell-sweep neighbour counter is pure performance work: every
//! indexing mode must produce the *same* simulation, bit for bit in
//! every float, as the naive reference. These tests pin that promise
//! end to end (full engine runs) and at the primitive level (cell-sweep
//! counts vs the naive pairwise scan).

use paydemand::core::neighbors::{naive_counts, CellSweepCounter};
use paydemand::geo::Rect;
use paydemand::sim::{engine, IndexingMode, MechanismKind, Scenario, SelectorKind};
use rand::{Rng, SeedableRng};

fn scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_users(24)
        .with_tasks(8)
        .with_max_rounds(6)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(seed)
}

#[test]
fn indexing_modes_are_observationally_equivalent() {
    for seed in [2u64, 0xD5EED, 99] {
        let base = scenario(seed);
        let naive = engine::run(&base.clone().with_indexing(IndexingMode::NaiveReference)).unwrap();
        let cell = engine::run(&base.clone().with_indexing(IndexingMode::CellSweep)).unwrap();
        assert!(
            naive.observationally_eq(&cell),
            "seed {seed}: cell-centric sweep changed the simulation"
        );
    }
}

#[test]
fn every_mode_combination_agrees_with_the_reference() {
    let base = scenario(7);
    let reference = engine::run(&base.clone().with_indexing(IndexingMode::NaiveReference)).unwrap();
    for indexing in [IndexingMode::NaiveReference, IndexingMode::CellSweep] {
        let run = engine::run(&base.clone().with_indexing(indexing)).unwrap();
        assert!(reference.observationally_eq(&run), "{indexing:?} diverged from the reference run");
    }
}

#[test]
fn grid_counts_match_naive_scan_under_movement() {
    // Exercise the cell sweep directly: a counter fed a churning
    // population must agree with the O(n·m) scan every round.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0117);
    let area = Rect::square(1000.0).expect("valid area");
    let radius = 120.0;
    let tasks: Vec<_> = (0..40).map(|_| area.sample_uniform(&mut rng)).collect();
    let mut users: Vec<_> = (0..300).map(|_| area.sample_uniform(&mut rng)).collect();
    let mut counter = CellSweepCounter::new(area, radius, tasks.clone());

    for round in 0..10 {
        let indexed = counter.counts(&users).expect("users in area").to_vec();
        let naive = naive_counts(&tasks, &users, radius);
        assert_eq!(indexed, naive, "round {round}: grid counts diverged from naive scan");
        // Move a third of the users (some onto cell boundaries via
        // coordinate reuse, some to fresh positions).
        for _ in 0..100 {
            let who = rng.gen_range(0..users.len());
            users[who] = area.sample_uniform(&mut rng);
        }
    }
}
