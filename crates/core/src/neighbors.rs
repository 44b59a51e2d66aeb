//! Neighbour counting for Eq. 5.
//!
//! The platform needs, at every round boundary, the number of users
//! within radius `R` of every task. [`CellSweepCounter`] is the
//! production backend: the cell-centric sweep of
//! [`paydemand_geo::CellSweeper`], which updates the counts from the
//! users that moved and recounts in full when most of them did.
//! [`naive_counts_in`] is the `O(n·m)` pairwise reference the tests
//! compare it against. Both apply the same strict
//! `distance_squared < R²` test, so their counts are identical, not
//! merely close.

use paydemand_geo::{CellSweeper, GeoError, Point, Positions, Rect};
use paydemand_obs::{Counter, Recorder};

/// How the platform computes per-task neighbour counts each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum IndexingMode {
    /// Cell-centric sweep over a struct-of-arrays position mirror
    /// ([`CellSweepCounter`]): one pass over occupied grid cells
    /// accumulating residents into per-cell candidate tasks, with
    /// batched dirty-cell delta updates when few users moved. The
    /// production path (default).
    #[default]
    CellSweep,
    /// `O(n·m)` pairwise scan with no index at all. The reference
    /// implementation for differential tests and scaling benchmarks;
    /// never the production path.
    NaiveReference,
}

/// The `O(n·m)` pairwise reference: for each task, scan every user.
/// Used by [`IndexingMode::NaiveReference`] and differential tests.
#[must_use]
pub fn naive_counts(tasks: &[Point], users: &[Point], radius: f64) -> Vec<usize> {
    naive_counts_in(tasks, users, radius)
}

/// [`naive_counts`] over any position layout (AoS slice or SoA store).
#[must_use]
pub fn naive_counts_in<P: Positions + ?Sized>(
    tasks: &[Point],
    users: &P,
    radius: f64,
) -> Vec<usize> {
    let r2 = radius * radius;
    tasks
        .iter()
        .map(|&t| (0..users.len()).filter(|&i| users.at(i).distance_squared(t) < r2).count())
        .collect()
}

/// [`CellSweeper`] plus the observability accounting the platform
/// expects of a counting backend: full sweeps, delta rounds and batched
/// move updates, reported as `cell_sweep_*` counters.
#[derive(Debug, Clone)]
pub struct CellSweepCounter {
    sweeper: CellSweeper,
    /// Rounds served by batched delta updates.
    obs_delta_rounds: Counter,
    /// Moved users folded in via batched dirty-cell updates.
    obs_batched_moves: Counter,
    /// Full sweeps (first round, population changes, rounds where more
    /// than half the users moved).
    obs_full_sweeps: Counter,
}

impl CellSweepCounter {
    /// Creates a cell-sweep backend for fixed `task_locations` inside
    /// `area`.
    #[must_use]
    pub fn new(area: Rect, radius: f64, task_locations: Vec<Point>) -> Self {
        CellSweepCounter {
            sweeper: CellSweeper::new(area, radius, task_locations),
            obs_delta_rounds: Counter::disabled(),
            obs_batched_moves: Counter::disabled(),
            obs_full_sweeps: Counter::disabled(),
        }
    }

    /// Wires the sweep accounting to a recorder:
    /// `cell_sweep_full_sweeps_total`, `cell_sweep_delta_rounds_total`
    /// and `cell_sweep_batched_moves_total`. A disabled recorder keeps
    /// the counters inert.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.obs_delta_rounds = recorder.counter("cell_sweep_delta_rounds_total");
        self.obs_batched_moves = recorder.counter("cell_sweep_batched_moves_total");
        self.obs_full_sweeps = recorder.counter("cell_sweep_full_sweeps_total");
    }

    /// Per-task neighbour counts for `users`; see
    /// [`CellSweeper::counts`].
    ///
    /// # Errors
    ///
    /// [`GeoError::OutOfBounds`] for the first user location outside
    /// the area; the backend state is unchanged on error.
    pub fn counts<P: Positions + ?Sized>(&mut self, users: &P) -> Result<&[usize], GeoError> {
        self.sweeper.counts(users)?;
        if self.sweeper.last_was_full_sweep() {
            self.obs_full_sweeps.inc();
        } else {
            self.obs_delta_rounds.inc();
            self.obs_batched_moves.add(self.sweeper.moved_last_round() as u64);
        }
        Ok(self.sweeper.counts_ref())
    }

    /// How many users moved at the last [`counts`](Self::counts) call.
    #[must_use]
    pub fn moved_last_round(&self) -> usize {
        self.sweeper.moved_last_round()
    }

    /// Approximate heap footprint in bytes; see
    /// [`CellSweeper::approx_bytes`].
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.sweeper.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xBEE5)
    }

    fn sample(area: Rect, rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Point> {
        (0..n).map(|_| area.sample_uniform(rng)).collect()
    }

    #[test]
    fn rounds_match_naive_as_users_move() {
        let area = Rect::square(1000.0).unwrap();
        let mut r = rng();
        let tasks = sample(area, &mut r, 12);
        let mut users = sample(area, &mut r, 80);
        let mut counter = CellSweepCounter::new(area, 250.0, tasks.clone());
        assert_eq!(counter.counts(&users).unwrap(), naive_counts(&tasks, &users, 250.0));
        assert_eq!(counter.moved_last_round(), 80);
        for round in 0..30 {
            // Move a varying slice of users each round.
            for i in (round % 4..users.len()).step_by(4) {
                users[i] = area.sample_uniform(&mut r);
            }
            let counts = counter.counts(&users).unwrap().to_vec();
            assert_eq!(counts, naive_counts(&tasks, &users, 250.0), "round {round}");
            assert_eq!(counter.moved_last_round(), 20, "round {round}");
        }
        // Nobody moved: same counts, no updates.
        let before = counter.counts(&users).unwrap().to_vec();
        assert_eq!(counter.counts(&users).unwrap(), before);
        assert_eq!(counter.moved_last_round(), 0);
    }

    #[test]
    fn recorder_counts_full_sweeps_and_delta_rounds() {
        let area = Rect::square(1000.0).unwrap();
        let mut r = rng();
        let tasks = sample(area, &mut r, 6);
        let mut users = sample(area, &mut r, 40);
        let mut counter = CellSweepCounter::new(area, 200.0, tasks);
        let recorder = Recorder::enabled();
        counter.set_recorder(&recorder);
        counter.counts(&users).unwrap(); // priming sweep
        users[3] = area.sample_uniform(&mut r);
        users[17] = area.sample_uniform(&mut r);
        counter.counts(&users).unwrap(); // delta round, 2 moves
        for u in &mut users {
            *u = area.sample_uniform(&mut r);
        }
        counter.counts(&users).unwrap(); // everyone moved: full sweep
        let bigger = sample(area, &mut r, 41);
        counter.counts(&bigger).unwrap(); // population change: full sweep
        let snap = recorder.snapshot();
        assert_eq!(snap.counter_value("cell_sweep_full_sweeps_total", None), Some(3));
        assert_eq!(snap.counter_value("cell_sweep_delta_rounds_total", None), Some(1));
        assert_eq!(snap.counter_value("cell_sweep_batched_moves_total", None), Some(2));
    }
}
