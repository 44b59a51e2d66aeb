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

/// Random-waypoint mobility: the waypoint a user walks towards.
///
/// The walking speed is not part of the state: every user of a
/// scenario walks at its one speed, which [`advance`](Self::advance)
/// takes. A walker is 16 bytes, its waypoint's two coordinates, and NaN
/// coordinates stand for "no waypoint": a drawn waypoint lies inside
/// the area, so it is never NaN.
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
/// let mut model = RandomWaypoint::new();
/// let next = model.advance(Point::new(500.0, 500.0), area, 2.0, 60.0, &mut rng);
/// // 60 s at 2 m/s moves at most 120 m.
/// assert!(next.distance(Point::new(500.0, 500.0)) <= 120.0 + 1e-9);
/// # Ok::<(), paydemand_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RandomWaypoint {
    waypoint: Point,
}

/// The stored waypoint of a walker with none.
const NO_WAYPOINT: Point = Point { x: f64::NAN, y: f64::NAN };

impl Default for RandomWaypoint {
    fn default() -> Self {
        RandomWaypoint::new()
    }
}

/// Two walkers are equal when they walk towards the same waypoint, or
/// both towards none.
impl PartialEq for RandomWaypoint {
    fn eq(&self, other: &Self) -> bool {
        self.waypoint() == other.waypoint()
    }
}

impl RandomWaypoint {
    /// A walker with no waypoint yet: it draws one when it first walks.
    #[must_use]
    pub fn new() -> Self {
        RandomWaypoint { waypoint: NO_WAYPOINT }
    }

    /// The waypoint currently being walked towards, if one is active.
    ///
    /// Exposed so simulation checkpoints can capture mid-walk state.
    #[must_use]
    pub fn waypoint(&self) -> Option<Point> {
        (!self.waypoint.x.is_nan()).then_some(self.waypoint)
    }

    /// Rebuilds a walker mid-walk, e.g. from a checkpoint captured with
    /// [`RandomWaypoint::waypoint`]. A waypoint with a NaN `x` reads as
    /// none.
    #[must_use]
    pub fn with_waypoint(waypoint: Option<Point>) -> Self {
        RandomWaypoint { waypoint: waypoint.unwrap_or(NO_WAYPOINT) }
    }

    /// Returns the location at the start of the next round, given the
    /// location at the end of this round, after walking at `speed` m/s
    /// for `elapsed` seconds. A walk of no positive length (a speed or
    /// time that is zero, negative or NaN) stays where it is.
    ///
    /// Nothing is checked at the start of a walk: a walker advances
    /// once a user a round, and a check there cost ~10% of a 1M-user
    /// movement phase.
    ///
    /// # Panics
    ///
    /// Panics if the walk is endless (`speed × elapsed` is infinite).
    pub fn advance<R: Rng + ?Sized>(
        &mut self,
        current: Point,
        area: Rect,
        speed: f64,
        elapsed: f64,
        rng: &mut R,
    ) -> Point {
        let mut pos = current;
        let mut budget = speed * elapsed.max(0.0);
        while budget > 0.0 {
            if self.waypoint.x.is_nan() {
                self.waypoint = area.sample_uniform(rng);
            }
            let wp = self.waypoint;
            let d = pos.distance(wp);
            if d <= budget {
                // An infinite budget reaches every waypoint and is never
                // spent.
                assert!(budget < f64::INFINITY, "an endless walk never ends");
                pos = wp;
                budget -= d;
                self.waypoint = NO_WAYPOINT;
                if d == 0.0 {
                    // Degenerate waypoint equal to current position:
                    // resample next iteration but avoid infinite loop.
                    self.waypoint = area.sample_uniform(rng);
                    if self.waypoint == pos {
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
    fn a_walker_is_its_waypoint() {
        assert_eq!(std::mem::size_of::<RandomWaypoint>(), 16);
        assert_eq!(RandomWaypoint::new().waypoint(), None);
        let p = Point::new(3.0, 4.0);
        assert_eq!(RandomWaypoint::with_waypoint(Some(p)).waypoint(), Some(p));
        assert_eq!(RandomWaypoint::with_waypoint(None), RandomWaypoint::new());
        assert_ne!(RandomWaypoint::with_waypoint(Some(p)), RandomWaypoint::new());
    }

    #[test]
    fn waypoint_respects_speed_limit() {
        let area = Rect::square(1000.0).unwrap();
        let mut m = RandomWaypoint::new();
        let mut pos = Point::new(500.0, 500.0);
        let mut r = rng(2);
        for _ in 0..50 {
            let next = m.advance(pos, area, 2.0, 30.0, &mut r);
            assert!(pos.distance(next) <= 2.0 * 30.0 + 1e-9);
            assert!(area.contains(next));
            pos = next;
        }
    }

    #[test]
    fn waypoint_zero_elapsed_stays_put() {
        let area = Rect::square(1000.0).unwrap();
        let mut m = RandomWaypoint::new();
        let p = Point::new(1.0, 2.0);
        assert_eq!(m.advance(p, area, 2.0, 0.0, &mut rng(3)), p);
    }

    #[test]
    fn waypoint_eventually_moves() {
        let area = Rect::square(1000.0).unwrap();
        let mut m = RandomWaypoint::new();
        let p = Point::new(500.0, 500.0);
        let next = m.advance(p, area, 2.0, 100.0, &mut rng(4));
        assert!(p.distance(next) > 0.0);
    }

    #[test]
    fn a_walk_of_no_length_stays_put() {
        let area = Rect::square(1000.0).unwrap();
        let p = Point::new(1.0, 2.0);
        for (speed, elapsed) in [(0.0, 9.0), (-1.0, 9.0), (f64::NAN, 9.0), (2.0, f64::NAN)] {
            let mut m = RandomWaypoint::new();
            assert_eq!(m.advance(p, area, speed, elapsed, &mut rng(5)), p, "{speed} m/s");
            assert_eq!(m.waypoint(), None, "{speed} m/s");
        }
    }

    #[test]
    #[should_panic(expected = "an endless walk never ends")]
    fn an_endless_walk_panics() {
        let area = Rect::square(1000.0).unwrap();
        let _ = RandomWaypoint::new().advance(Point::ORIGIN, area, f64::INFINITY, 1.0, &mut rng(5));
    }

    /// Reference walk: the waypoint as an `Option`, and a partial leg
    /// through `step_towards`, which measures the leg again.
    fn advance_via_step_towards(
        waypoint: &mut Option<Point>,
        current: Point,
        area: Rect,
        speed: f64,
        elapsed: f64,
        rng: &mut rand::rngs::StdRng,
    ) -> Point {
        let mut pos = current;
        let mut budget = speed * elapsed.max(0.0);
        while budget > 0.0 {
            let wp = *waypoint.get_or_insert_with(|| area.sample_uniform(rng));
            let d = pos.distance(wp);
            if d <= budget {
                pos = wp;
                budget -= d;
                *waypoint = None;
                if d == 0.0 {
                    *waypoint = Some(area.sample_uniform(rng));
                    if *waypoint == Some(pos) {
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
            let (mut walker, mut reference) = (RandomWaypoint::new(), None);
            let (mut pos, mut pos_ref) = (Point::new(1500.0, 1500.0), Point::new(1500.0, 1500.0));
            for step in 0..200 {
                pos = walker.advance(pos, area, 1.7, elapsed, &mut r);
                pos_ref = advance_via_step_towards(
                    &mut reference,
                    pos_ref,
                    area,
                    1.7,
                    elapsed,
                    &mut r_ref,
                );
                assert_eq!(pos.x.to_bits(), pos_ref.x.to_bits(), "seed {seed} step {step}");
                assert_eq!(pos.y.to_bits(), pos_ref.y.to_bits(), "seed {seed} step {step}");
                assert_eq!(
                    walker,
                    RandomWaypoint::with_waypoint(reference),
                    "seed {seed} step {step}"
                );
            }
            assert_eq!(r.to_state(), r_ref.to_state(), "seed {seed}");
        }
    }

    #[test]
    fn waypoint_state_roundtrips_mid_walk() {
        let area = Rect::square(500.0).unwrap();
        let mut model = RandomWaypoint::new();
        let mut r = rng(99);
        let pos = model.advance(Point::new(250.0, 250.0), area, 2.0, 10.0, &mut r);
        let mut restored = RandomWaypoint::with_waypoint(model.waypoint());
        // Same pending waypoint ⇒ the next step is identical and
        // consumes no randomness while the walk is still in progress.
        let mut r2 = r.clone();
        assert_eq!(
            model.advance(pos, area, 2.0, 5.0, &mut r),
            restored.advance(pos, area, 2.0, 5.0, &mut r2)
        );
    }
}
