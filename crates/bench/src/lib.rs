//! Shared helpers for the `paydemand` benchmark and figure-regeneration
//! targets.
//!
//! The interesting code lives in the targets:
//!
//! * `benches/selectors.rs` — task-selection solver micro-benchmarks
//!   (Theorems 2–3: DP vs greedy scaling);
//! * `benches/mechanisms.rs` — per-round pricing cost of the three
//!   incentive mechanisms and of AHP weight extraction;
//! * `benches/figures.rs` — end-to-end cost of each figure pipeline at
//!   smoke scale;
//! * `benches/ablations.rs` — engine cost across design-choice axes
//!   (demand levels, neighbour radius, selector);
//! * `src/bin/figures.rs` — regenerates every table/figure series of
//!   the paper (the reproduction deliverable);
//! * `src/bin/ablations.rs` — quality ablations over the design choices
//!   DESIGN.md calls out;
//! * `src/bin/chaos.rs` — the cost of fault injection and checkpointing,
//!   with an inert plan checked bitwise against the plain path.
//!
//! End-to-end timing lives in the `perf` package at the repository
//! root, which compares two commits on one machine.

use paydemand_core::{PublishedTask, TaskId};
use paydemand_geo::{Point, Rect};
use rand::Rng;

/// Draws a random selection problem of `m` tasks in the paper's area,
/// used by the solver benchmarks.
pub fn random_published_tasks<R: Rng + ?Sized>(m: usize, rng: &mut R) -> Vec<PublishedTask> {
    let area = Rect::square(3000.0).expect("valid area");
    (0..m)
        .map(|i| PublishedTask {
            id: TaskId(i),
            location: area.sample_uniform(rng),
            reward: rng.gen_range(0.5..=2.5),
        })
        .collect()
}

/// A random user start location in the paper's area.
pub fn random_user<R: Rng + ?Sized>(rng: &mut R) -> Point {
    Rect::square(3000.0).expect("valid area").sample_uniform(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn helpers_generate_valid_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let tasks = random_published_tasks(12, &mut rng);
        assert_eq!(tasks.len(), 12);
        let area = Rect::square(3000.0).unwrap();
        assert!(tasks.iter().all(|t| area.contains(t.location)));
        assert!(tasks.iter().all(|t| (0.5..=2.5).contains(&t.reward)));
        assert!(area.contains(random_user(&mut rng)));
    }
}
