use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{GeoError, Point};

/// A dense, symmetric matrix of pairwise distances: Euclidean ones
/// ([`from_points`](Self::from_points)), or any symmetric cost
/// ([`from_fn`](Self::from_fn), e.g. road-network travel distances).
///
/// Building it computes all `n·(n−1)/2` pairs up front, which pays off
/// only when most of them are read; the routing crate's Euclidean cost
/// matrix computes task distances on demand instead. Only the upper
/// triangle is stored.
///
/// # Examples
///
/// ```
/// use paydemand_geo::{DistanceMatrix, Point};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(3.0, 4.0), Point::new(3.0, 0.0)];
/// let m = DistanceMatrix::from_points(&pts);
/// assert_eq!(m.get(0, 1), 5.0);
/// assert_eq!(m.get(1, 0), 5.0);
/// assert_eq!(m.get(2, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    len: usize,
    /// Upper triangle (excluding diagonal), row-major:
    /// entry (i, j) with i < j lives at `i*len - i*(i+1)/2 + (j - i - 1)`.
    tri: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the matrix of pairwise distances between `points`.
    ///
    /// Runs in `O(n²)` time and stores `n·(n−1)/2` distances.
    #[must_use]
    pub fn from_points(points: &[Point]) -> Self {
        let len = points.len();
        let mut tri = Vec::with_capacity(len * len.saturating_sub(1) / 2);
        for i in 0..len {
            for j in (i + 1)..len {
                tri.push(points[i].distance(points[j]));
            }
        }
        DistanceMatrix { len, tri }
    }

    /// Builds a matrix from an explicit closure, for non-Euclidean costs
    /// (e.g. road-network detour factors). The closure is evaluated once
    /// per unordered pair `i < j`; symmetry is imposed by construction.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(len: usize, mut dist: F) -> Self {
        let mut tri = Vec::with_capacity(len * len.saturating_sub(1) / 2);
        for i in 0..len {
            for j in (i + 1)..len {
                tri.push(dist(i, j));
            }
        }
        DistanceMatrix { len, tri }
    }

    /// Number of points the matrix was built over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the matrix was built over zero points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distance between points `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range; use
    /// [`try_get`](Self::try_get) for a fallible lookup.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.try_get(i, j).expect("distance matrix index out of range")
    }

    /// Fallible version of [`get`](Self::get).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::IndexOutOfRange`] if either index is `>= len`.
    pub fn try_get(&self, i: usize, j: usize) -> Result<f64, GeoError> {
        if i >= self.len {
            return Err(GeoError::IndexOutOfRange { index: i, len: self.len });
        }
        if j >= self.len {
            return Err(GeoError::IndexOutOfRange { index: j, len: self.len });
        }
        if i == j {
            return Ok(0.0);
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        Ok(self.tri[a * self.len - a * (a + 1) / 2 + (b - a - 1)])
    }

    /// The largest pairwise distance, or `None` for matrices over fewer
    /// than two points.
    #[must_use]
    pub fn max_distance(&self) -> Option<f64> {
        self.tri.iter().copied().fold(None, |acc, d| Some(acc.map_or(d, |m: f64| m.max(d))))
    }

    /// Total length of the path visiting `order` of point indices in
    /// sequence (not a cycle).
    ///
    /// # Panics
    ///
    /// Panics if any index in `order` is out of range.
    #[must_use]
    pub fn path_length(&self, order: &[usize]) -> f64 {
        order.windows(2).map(|w| self.get(w[0], w[1])).sum()
    }
}

impl fmt::Display for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DistanceMatrix({} points)", self.len)?;
        for i in 0..self.len {
            for j in 0..self.len {
                write!(f, "{:>10.2}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(3.0, 0.0),
            Point::new(-1.0, -1.0),
        ]
    }

    #[test]
    fn matches_pointwise_distance() {
        let pts = sample_points();
        let m = DistanceMatrix::from_points(&pts);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                assert_eq!(m.get(i, j), pts[i].distance(pts[j]), "({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_is_zero_and_symmetric() {
        let m = DistanceMatrix::from_points(&sample_points());
        for i in 0..m.len() {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..m.len() {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn try_get_rejects_out_of_range() {
        let m = DistanceMatrix::from_points(&sample_points());
        assert!(matches!(m.try_get(4, 0), Err(GeoError::IndexOutOfRange { index: 4, len: 4 })));
        assert!(matches!(m.try_get(0, 9), Err(GeoError::IndexOutOfRange { index: 9, len: 4 })));
    }

    #[test]
    fn empty_and_singleton_matrices() {
        let empty = DistanceMatrix::from_points(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.max_distance(), None);

        let single = DistanceMatrix::from_points(&[Point::ORIGIN]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.get(0, 0), 0.0);
        assert_eq!(single.max_distance(), None);
    }

    #[test]
    fn path_length_sums_segments() {
        let m = DistanceMatrix::from_points(&sample_points());
        assert_eq!(m.path_length(&[0, 2, 1]), 3.0 + 4.0);
        assert_eq!(m.path_length(&[0]), 0.0);
        assert_eq!(m.path_length(&[]), 0.0);
    }

    #[test]
    fn from_fn_imposes_symmetry() {
        let m = DistanceMatrix::from_fn(3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 2), 12.0);
    }

    proptest! {
        #[test]
        fn random_matrices_are_consistent(
            coords in proptest::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 0..20)
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let m = DistanceMatrix::from_points(&pts);
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    prop_assert!((m.get(i, j) - pts[i].distance(pts[j])).abs() < 1e-9);
                }
            }
            if let Some(max) = m.max_distance() {
                prop_assert!(max >= 0.0);
            }
        }
    }
}
