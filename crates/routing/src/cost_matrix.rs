use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use paydemand_geo::{DistanceMatrix, Point};

/// Travel distances between one *start* location (the user's position)
/// and `m` task locations.
///
/// Task indices are `0..m`; the start is addressed by its own accessors
/// rather than an index, which rules out off-by-one confusion between
/// "node 0 = depot" and "task 0".
///
/// A Euclidean matrix ([`from_points`](Self::from_points)) keeps the
/// task points and computes a task-to-task distance when
/// [`between`](Self::between) asks for it: the greedy solvers read one
/// row per pick, so an `O(m²)` table would cost far more than the reads.
/// A matrix of explicit costs ([`from_fn`](Self::from_fn)) stores its
/// table, since two points alone do not give those distances.
///
/// # Examples
///
/// ```
/// use paydemand_geo::Point;
/// use paydemand_routing::CostMatrix;
///
/// let c = CostMatrix::from_points(
///     Point::new(0.0, 0.0),
///     &[Point::new(3.0, 4.0), Point::new(6.0, 8.0)],
/// );
/// assert_eq!(c.tasks(), 2);
/// assert_eq!(c.from_start(0), 5.0);
/// assert_eq!(c.between(0, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMatrix {
    /// Distance start → task j.
    start: Vec<f64>,
    /// Task-to-task distances, or the points they are computed from.
    tasks: TaskDistances,
}

/// Where [`CostMatrix::between`] reads a task-to-task distance from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TaskDistances {
    /// The task locations; Euclidean distances are computed per read.
    Points(Vec<Point>),
    /// An explicit table of non-Euclidean costs.
    Table(DistanceMatrix),
}

impl CostMatrix {
    /// Builds the matrix from the start point and task locations. The
    /// matrix keeps the locations: a `Vec` moves in, a borrowed slice is
    /// copied.
    #[must_use]
    pub fn from_points<'a>(start: Point, task_locations: impl Into<Cow<'a, [Point]>>) -> Self {
        let points = task_locations.into().into_owned();
        CostMatrix {
            start: points.iter().map(|&t| start.distance(t)).collect(),
            tasks: TaskDistances::Points(points),
        }
    }

    /// Builds a matrix from explicit distances, for non-Euclidean costs.
    /// `start[j]` is the distance from the start to task `j`;
    /// `between(i, j)` is provided by the closure (symmetric by
    /// construction, evaluated once per unordered pair).
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(start: Vec<f64>, dist: F) -> Self {
        let n = start.len();
        CostMatrix { start, tasks: TaskDistances::Table(DistanceMatrix::from_fn(n, dist)) }
    }

    /// Number of tasks.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.start.len()
    }

    /// Distance from the start location to task `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= tasks()`.
    #[must_use]
    pub fn from_start(&self, j: usize) -> f64 {
        self.start[j]
    }

    /// Distance between tasks `i` and `j` (0 when `i == j`).
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= tasks()`.
    #[must_use]
    pub fn between(&self, i: usize, j: usize) -> f64 {
        match &self.tasks {
            TaskDistances::Points(points) => {
                // Lower index first, the order `DistanceMatrix` evaluates
                // a pair in, so both give the same bits; reading
                // `points[b]` before the diagonal check keeps the
                // out-of-range panic for `i == j` too.
                let (a, b) = if i <= j { (i, j) } else { (j, i) };
                let far = points[b];
                if a == b {
                    0.0
                } else {
                    points[a].distance(far)
                }
            }
            TaskDistances::Table(table) => table.get(i, j),
        }
    }

    /// Fills `row[j]` with the distance to every task `j` from the
    /// start (`from` is `None`) or from task `i` (`from` is `Some(i)`):
    /// the values [`from_start`](Self::from_start) and
    /// [`between`](Self::between) return, bit for bit. Panics unless
    /// `row` holds one slot per task and `i` is a task.
    pub(crate) fn distances_from(&self, from: Option<usize>, row: &mut [f64]) {
        assert_eq!(row.len(), self.tasks(), "one distance per task");
        match (from, &self.tasks) {
            (None, _) => row.copy_from_slice(&self.start),
            (Some(i), TaskDistances::Points(points)) => {
                // `distance_squared` is bitwise symmetric, so measuring
                // from `i` gives `between`'s bits whichever index is
                // lower. The diagonal is `between`'s 0.0 even for a NaN
                // point, whose distance to itself is NaN.
                let here = points[i];
                for (d, &p) in row.iter_mut().zip(points) {
                    *d = here.distance(p);
                }
                row[i] = 0.0;
            }
            (Some(i), TaskDistances::Table(table)) => {
                for (j, d) in row.iter_mut().enumerate() {
                    *d = table.get(i, j);
                }
            }
        }
    }

    /// Total length of the route start → `order[0]` → `order[1]` → …
    /// (an open path: the user does not return to the start).
    ///
    /// Returns 0 for an empty order.
    ///
    /// # Panics
    ///
    /// Panics if any index in `order` is `>= tasks()`.
    #[must_use]
    pub fn route_length(&self, order: &[usize]) -> f64 {
        match order.first() {
            None => 0.0,
            Some(&first) => {
                let path: f64 = order.windows(2).map(|w| self.between(w[0], w[1])).sum();
                self.from_start(first) + path
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CostMatrix {
        CostMatrix::from_points(
            Point::new(0.0, 0.0),
            &[Point::new(10.0, 0.0), Point::new(10.0, 10.0), Point::new(0.0, 10.0)],
        )
    }

    #[test]
    fn distances_match_geometry() {
        let c = sample();
        assert_eq!(c.tasks(), 3);
        assert_eq!(c.from_start(0), 10.0);
        assert!((c.from_start(1) - 200f64.sqrt()).abs() < 1e-12);
        assert_eq!(c.between(0, 1), 10.0);
        assert_eq!(c.between(1, 2), 10.0);
        assert_eq!(c.between(2, 2), 0.0);
    }

    #[test]
    fn route_length_sums_open_path() {
        let c = sample();
        assert_eq!(c.route_length(&[]), 0.0);
        assert_eq!(c.route_length(&[0]), 10.0);
        assert_eq!(c.route_length(&[0, 1, 2]), 30.0);
        // Visiting the diagonal first is longer.
        assert!(c.route_length(&[1, 0, 2]) > 30.0);
    }

    #[test]
    fn from_fn_builds_custom_costs() {
        let c = CostMatrix::from_fn(vec![1.0, 2.0], |_, _| 7.0);
        assert_eq!(c.from_start(1), 2.0);
        assert_eq!(c.between(0, 1), 7.0);
        assert_eq!(c.between(1, 0), 7.0);
        assert_eq!(c.route_length(&[0, 1]), 8.0);
    }

    #[test]
    fn empty_matrix() {
        let c = CostMatrix::from_points(Point::ORIGIN, &[]);
        assert_eq!(c.tasks(), 0);
        assert_eq!(c.route_length(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn between_panics_past_the_last_task() {
        let _ = sample().between(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn between_panics_on_an_out_of_range_diagonal() {
        let _ = sample().between(3, 3);
    }

    /// Scattered points, repeats of a few locations (zero-length pairs
    /// off the diagonal), or points on one line.
    fn arb_points() -> impl Strategy<Value = Vec<Point>> {
        let scattered = proptest::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 0..40)
            .prop_map(|c| c.into_iter().map(Point::from).collect::<Vec<_>>());
        let duplicated = (
            proptest::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 1..5),
            proptest::collection::vec(0usize..5, 0..40),
        )
            .prop_map(|(base, picks)| {
                picks.iter().map(|&k| Point::from(base[k % base.len()])).collect::<Vec<_>>()
            });
        let collinear = (
            (-1e4..1e4f64, -1e4..1e4f64),
            (-10.0..10.0f64, -10.0..10.0f64),
            proptest::collection::vec(-1e3..1e3f64, 0..40),
        )
            .prop_map(|((ox, oy), (dx, dy), steps)| {
                steps.into_iter().map(|t| Point::new(ox + t * dx, oy + t * dy)).collect::<Vec<_>>()
            });
        prop_oneof![scattered, duplicated, collinear]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn on_demand_distances_equal_the_table_bit_for_bit(
            pts in arb_points(),
            (sx, sy) in (-1e4..1e4f64, -1e4..1e4f64),
            picks in proptest::collection::vec(0usize..1000, 0..60),
        ) {
            let start = Point::new(sx, sy);
            let c = CostMatrix::from_points(start, &pts);
            let table = DistanceMatrix::from_points(&pts);
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    prop_assert_eq!(c.between(i, j).to_bits(), table.get(i, j).to_bits(),
                        "pair ({}, {})", i, j);
                }
            }
            let tabled = CostMatrix::from_fn(
                pts.iter().map(|&p| start.distance(p)).collect(),
                |i, j| table.get(i, j),
            );
            let mut row = vec![f64::NAN; pts.len()];
            for costs in [&c, &tabled] {
                costs.distances_from(None, &mut row);
                for (j, d) in row.iter().enumerate() {
                    prop_assert_eq!(d.to_bits(), c.from_start(j).to_bits(), "start to {}", j);
                }
                for i in 0..pts.len() {
                    costs.distances_from(Some(i), &mut row);
                    for (j, d) in row.iter().enumerate() {
                        prop_assert_eq!(d.to_bits(), table.get(i, j).to_bits(),
                            "row ({}, {})", i, j);
                    }
                }
            }
            if !pts.is_empty() {
                let order: Vec<usize> = picks.iter().map(|&k| k % pts.len()).collect();
                let expect = match order.first() {
                    None => 0.0,
                    Some(&first) => c.from_start(first) + table.path_length(&order),
                };
                prop_assert_eq!(c.route_length(&order).to_bits(), expect.to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn route_length_is_order_of_magnitude_sane(
            coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..8)
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let c = CostMatrix::from_points(Point::ORIGIN, &pts);
            let order: Vec<usize> = (0..pts.len()).collect();
            let len = c.route_length(&order);
            prop_assert!(len >= c.from_start(0));
            // Never longer than the sum of all segment upper bounds.
            prop_assert!(len <= 150.0 * pts.len() as f64);
        }
    }
}
