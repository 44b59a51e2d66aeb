//! Struct-of-arrays position storage.
//!
//! The round loop used to carry user locations as a `Vec<Point>` — an
//! array of two-field structs. At large populations the demand phase
//! (Eq. 5 neighbour counting) streams over every coordinate each round,
//! and a split-array layout ([`PositionStore`]) keeps those streams
//! dense and prefetch-friendly while still handing out [`Point`]s at
//! the API boundary.
//!
//! [`Positions`] abstracts over both layouts so the counting backends
//! ([`crate::CellSweeper`], the naive scan) accept either without
//! copies: a `&[Point]`, a `Vec<Point>` and a `PositionStore` are all
//! valid position sources, and all of them yield bit-identical
//! coordinates for the same logical positions.

use crate::Point;

/// Read access to an indexed sequence of positions, independent of the
/// underlying memory layout (array-of-structs or struct-of-arrays).
pub trait Positions {
    /// Number of positions held.
    fn len(&self) -> usize;

    /// The `i`-th position.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `i >= len()`.
    fn at(&self, i: usize) -> Point;

    /// `true` when no positions are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Positions for [Point] {
    fn len(&self) -> usize {
        <[Point]>::len(self)
    }

    fn at(&self, i: usize) -> Point {
        self[i]
    }
}

impl<const N: usize> Positions for [Point; N] {
    fn len(&self) -> usize {
        N
    }

    fn at(&self, i: usize) -> Point {
        self[i]
    }
}

impl Positions for Vec<Point> {
    fn len(&self) -> usize {
        <[Point]>::len(self)
    }

    fn at(&self, i: usize) -> Point {
        self[i]
    }
}

/// User positions split into parallel coordinate arrays.
///
/// Behaviourally a `Vec<Point>`: `from_points` followed by `to_points`
/// reproduces the input bit for bit, and [`point`](Self::point) /
/// [`set`](Self::set) index exactly like the vector did. The layout is
/// the only difference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PositionStore {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl PositionStore {
    /// Creates a store holding `points`, in order.
    #[must_use]
    pub fn from_points(points: &[Point]) -> Self {
        PositionStore {
            xs: points.iter().map(|p| p.x).collect(),
            ys: points.iter().map(|p| p.y).collect(),
        }
    }

    /// An empty store with room for `capacity` positions.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        PositionStore { xs: Vec::with_capacity(capacity), ys: Vec::with_capacity(capacity) }
    }

    /// Number of positions held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when no positions are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Approximate heap footprint in bytes (allocated capacity, not
    /// just live length, so reserved-but-unused space is visible).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        (self.xs.capacity() + self.ys.capacity()) * std::mem::size_of::<f64>()
    }

    /// The `i`-th position.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    #[must_use]
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Appends a position.
    pub fn push(&mut self, p: Point) {
        self.xs.push(p.x);
        self.ys.push(p.y);
    }

    /// Overwrites the `i`-th position.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn set(&mut self, i: usize, p: Point) {
        self.xs[i] = p.x;
        self.ys[i] = p.y;
    }

    /// The x coordinates, one per position.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y coordinates, one per position.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Iterates the positions in index order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.xs.iter().zip(&self.ys).map(|(&x, &y)| Point::new(x, y))
    }

    /// Materialises the positions as a `Vec<Point>` (the AoS layout).
    #[must_use]
    pub fn to_points(&self) -> Vec<Point> {
        self.iter().collect()
    }
}

impl Positions for PositionStore {
    fn len(&self) -> usize {
        PositionStore::len(self)
    }

    fn at(&self, i: usize) -> Point {
        self.point(i)
    }
}

impl FromIterator<Point> for PositionStore {
    /// Reserves the iterator's lower size bound up front, so an
    /// exact-size source fills the store at its final capacity instead
    /// of growing it by doubling.
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut store = PositionStore::with_capacity(iter.size_hint().0);
        for p in iter {
            store.push(p);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bit_exact() {
        let pts =
            vec![Point::new(1.5, -0.0), Point::new(f64::MIN_POSITIVE, 2.0), Point::new(0.0, 9.9)];
        let store = PositionStore::from_points(&pts);
        assert_eq!(store.len(), 3);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(store.point(i).x.to_bits(), p.x.to_bits());
            assert_eq!(store.point(i).y.to_bits(), p.y.to_bits());
        }
        assert_eq!(store.to_points(), pts);
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut store = PositionStore::from_points(&[Point::ORIGIN, Point::new(5.0, 5.0)]);
        store.set(0, Point::new(-1.0, 3.0));
        assert_eq!(store.point(0), Point::new(-1.0, 3.0));
        assert_eq!(store.point(1), Point::new(5.0, 5.0));
    }

    #[test]
    fn positions_trait_agrees_across_layouts() {
        let pts = vec![Point::new(2.0, 3.0), Point::new(4.0, 5.0)];
        let store = PositionStore::from_points(&pts);
        let slice: &[Point] = &pts;
        assert_eq!(Positions::len(slice), Positions::len(&store));
        for i in 0..pts.len() {
            assert_eq!(slice.at(i), store.at(i));
        }
        assert!(!store.is_empty());
        assert!(PositionStore::default().is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let store: PositionStore = (0..4).map(|i| Point::new(f64::from(i), 0.5)).collect();
        assert_eq!(store.len(), 4);
        assert_eq!(store.xs(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(store.ys(), &[0.5; 4]);
    }

    #[test]
    fn collecting_an_exact_size_iterator_leaves_no_spare_capacity() {
        let store: PositionStore = (0..1000).map(|i| Point::new(f64::from(i), 0.5)).collect();
        assert_eq!(store.len(), 1000);
        assert_eq!(store.xs.capacity(), store.len());
        assert_eq!(store.ys.capacity(), store.len());
    }
}
