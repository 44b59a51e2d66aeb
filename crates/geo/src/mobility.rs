//! Inter-round mobility: how a wandering user's *starting* location
//! evolves between sensing rounds.
//!
//! The paper regenerates experiments independently and does not pin down
//! inter-round mobility; its model is equivalent to users starting each
//! round from wherever the workload puts them. The simulator's `Wander`
//! motion walks each user under [`RandomWaypoint`], the classic model:
//! pick a uniform waypoint, walk towards it at a fixed speed, pick a new
//! one on arrival.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Point, Rect};

/// Random-waypoint mobility at a fixed walking speed (m/s).
///
/// # Examples
///
/// ```
/// use paydemand_geo::mobility::RandomWaypoint;
/// use paydemand_geo::{Point, Rect};
/// use rand::SeedableRng;
///
/// let area = Rect::square(1000.0)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let mut model = RandomWaypoint::new(2.0);
/// let next = model.advance(Point::new(500.0, 500.0), area, 60.0, &mut rng);
/// // 60 s at 2 m/s moves at most 120 m.
/// assert!(next.distance(Point::new(500.0, 500.0)) <= 120.0 + 1e-9);
/// # Ok::<(), paydemand_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomWaypoint {
    speed: f64,
    waypoint: Option<Point>,
}

impl RandomWaypoint {
    /// Creates a random-waypoint model with walking speed in m/s.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive and finite.
    #[must_use]
    pub fn new(speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        RandomWaypoint { speed, waypoint: None }
    }

    /// The configured walking speed in m/s.
    #[must_use]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// The waypoint currently being walked towards, if one is active.
    ///
    /// Exposed so simulation checkpoints can capture mid-walk state.
    #[must_use]
    pub fn waypoint(&self) -> Option<Point> {
        self.waypoint
    }

    /// Rebuilds a model mid-walk, e.g. from a checkpoint captured with
    /// [`RandomWaypoint::waypoint`].
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive and finite.
    #[must_use]
    pub fn with_waypoint(speed: f64, waypoint: Option<Point>) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        RandomWaypoint { speed, waypoint }
    }

    /// Returns the location at the start of the next round, given the
    /// location at the end of this round, after walking for `elapsed`
    /// seconds.
    pub fn advance<R: Rng + ?Sized>(
        &mut self,
        current: Point,
        area: Rect,
        elapsed: f64,
        rng: &mut R,
    ) -> Point {
        let mut pos = current;
        let mut budget = self.speed * elapsed.max(0.0);
        while budget > 0.0 {
            let wp = *self.waypoint.get_or_insert_with(|| area.sample_uniform(rng));
            let d = pos.distance(wp);
            if d <= budget {
                pos = wp;
                budget -= d;
                self.waypoint = None;
                if d == 0.0 {
                    // Degenerate waypoint equal to current position:
                    // resample next iteration but avoid infinite loop.
                    self.waypoint = Some(area.sample_uniform(rng));
                    if self.waypoint == Some(pos) {
                        break;
                    }
                }
            } else {
                // The leg is longer than the budget (so `d > 0`): walk
                // `budget` of its `d` metres, as `step_towards` would,
                // without measuring the leg a second time.
                pos = pos.lerp(wp, budget / d);
                budget = 0.0;
            }
        }
        area.clamp(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn waypoint_respects_speed_limit() {
        let area = Rect::square(1000.0).unwrap();
        let mut m = RandomWaypoint::new(2.0);
        let mut pos = Point::new(500.0, 500.0);
        let mut r = rng(2);
        for _ in 0..50 {
            let next = m.advance(pos, area, 30.0, &mut r);
            assert!(pos.distance(next) <= 2.0 * 30.0 + 1e-9);
            assert!(area.contains(next));
            pos = next;
        }
    }

    #[test]
    fn waypoint_zero_elapsed_stays_put() {
        let area = Rect::square(1000.0).unwrap();
        let mut m = RandomWaypoint::new(2.0);
        let p = Point::new(1.0, 2.0);
        assert_eq!(m.advance(p, area, 0.0, &mut rng(3)), p);
    }

    #[test]
    fn waypoint_eventually_moves() {
        let area = Rect::square(1000.0).unwrap();
        let mut m = RandomWaypoint::new(2.0);
        let p = Point::new(500.0, 500.0);
        let next = m.advance(p, area, 100.0, &mut rng(4));
        assert!(p.distance(next) > 0.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn waypoint_rejects_bad_speed() {
        let _ = RandomWaypoint::new(-1.0);
    }

    /// Reference walk: a partial leg goes through `step_towards`,
    /// which measures the leg again.
    fn advance_via_step_towards(
        walker: &mut RandomWaypoint,
        current: Point,
        area: Rect,
        elapsed: f64,
        rng: &mut rand::rngs::StdRng,
    ) -> Point {
        let mut pos = current;
        let mut budget = walker.speed * elapsed.max(0.0);
        while budget > 0.0 {
            let wp = *walker.waypoint.get_or_insert_with(|| area.sample_uniform(rng));
            let d = pos.distance(wp);
            if d <= budget {
                pos = wp;
                budget -= d;
                walker.waypoint = None;
                if d == 0.0 {
                    walker.waypoint = Some(area.sample_uniform(rng));
                    if walker.waypoint == Some(pos) {
                        break;
                    }
                }
            } else {
                pos = pos.step_towards(wp, budget);
                budget = 0.0;
            }
        }
        area.clamp(pos)
    }

    #[test]
    fn a_partial_leg_lands_where_step_towards_does() {
        // Rounds that end mid-leg, pass one waypoint or pass several:
        // every position, waypoint and draw keeps its bits.
        let area = Rect::square(3000.0).unwrap();
        for (seed, elapsed) in [(11, 1.0), (12, 60.0), (13, 700.0), (14, 4000.0)] {
            let (mut r, mut r_ref) = (rng(seed), rng(seed));
            let (mut walker, mut reference) = (RandomWaypoint::new(1.7), RandomWaypoint::new(1.7));
            let (mut pos, mut pos_ref) = (Point::new(1500.0, 1500.0), Point::new(1500.0, 1500.0));
            for step in 0..200 {
                pos = walker.advance(pos, area, elapsed, &mut r);
                pos_ref =
                    advance_via_step_towards(&mut reference, pos_ref, area, elapsed, &mut r_ref);
                assert_eq!(pos.x.to_bits(), pos_ref.x.to_bits(), "seed {seed} step {step}");
                assert_eq!(pos.y.to_bits(), pos_ref.y.to_bits(), "seed {seed} step {step}");
                assert_eq!(walker, reference, "seed {seed} step {step}");
            }
            assert_eq!(r.to_state(), r_ref.to_state(), "seed {seed}");
        }
    }

    #[test]
    fn waypoint_state_roundtrips_mid_walk() {
        let area = Rect::square(500.0).unwrap();
        let mut model = RandomWaypoint::new(2.0);
        let mut r = rng(99);
        let pos = model.advance(Point::new(250.0, 250.0), area, 10.0, &mut r);
        let mut restored = RandomWaypoint::with_waypoint(model.speed(), model.waypoint());
        // Same pending waypoint ⇒ the next step is identical and
        // consumes no randomness while the walk is still in progress.
        let mut r2 = r.clone();
        assert_eq!(
            model.advance(pos, area, 5.0, &mut r),
            restored.advance(pos, area, 5.0, &mut r2)
        );
    }
}
