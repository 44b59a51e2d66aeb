use serde::{Deserialize, Serialize};

use crate::Point;

/// A static 2-d tree (k-d tree with k = 2) over a fixed set of points.
///
/// Complements [`CellSweeper`](crate::CellSweeper): the cell sweep counts
/// every task's neighbours at one known radius (the paper's `R`), while
/// the k-d tree answers nearest-neighbour and radius queries of any scale
/// about single points, and needs no bounding area up front.
///
/// Construction is `O(n log² n)` (median by sort), queries are
/// `O(log n)` expected for `nearest` and output-sensitive for
/// `within_radius`.
///
/// # Examples
///
/// ```
/// use paydemand_geo::{KdTree, Point};
///
/// let tree = KdTree::build(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
/// assert_eq!(tree.nearest(Point::new(2.0, 1.0)), Some(0));
/// assert_eq!(tree.within_radius(Point::new(5.0, 0.0), 6.0).len(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KdTree {
    nodes: Vec<Node>,
    points: Vec<Point>,
    root: Option<usize>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    /// Index into `points`.
    point: usize,
    /// 0 = split on x, 1 = split on y.
    axis: u8,
    left: Option<usize>,
    right: Option<usize>,
}

impl KdTree {
    /// Builds a tree over `points`. Duplicate points are allowed.
    #[must_use]
    pub fn build(points: &[Point]) -> Self {
        let mut tree =
            KdTree { nodes: Vec::with_capacity(points.len()), points: points.to_vec(), root: None };
        let mut idx: Vec<usize> = (0..points.len()).collect();
        tree.root = tree.build_rec(&mut idx, 0);
        tree
    }

    fn build_rec(&mut self, idx: &mut [usize], depth: usize) -> Option<usize> {
        if idx.is_empty() {
            return None;
        }
        let axis = (depth % 2) as u8;
        idx.sort_unstable_by(|&a, &b| {
            let (pa, pb) = (self.points[a], self.points[b]);
            let (ka, kb) = if axis == 0 { (pa.x, pb.x) } else { (pa.y, pb.y) };
            ka.partial_cmp(&kb).expect("finite coordinates")
        });
        let mid = idx.len() / 2;
        let point = idx[mid];
        let (lo, rest) = idx.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = self.build_rec(lo, depth + 1);
        let right = self.build_rec(hi, depth + 1);
        self.nodes.push(Node { point, axis, left, right });
        Some(self.nodes.len() - 1)
    }

    /// Number of points in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the tree holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Index of the nearest point to `query`, or `None` for an empty tree.
    #[must_use]
    pub fn nearest(&self, query: Point) -> Option<usize> {
        let root = self.root?;
        let mut best = (usize::MAX, f64::INFINITY);
        self.nearest_rec(root, query, &mut best);
        Some(best.0)
    }

    fn nearest_rec(&self, node: usize, query: Point, best: &mut (usize, f64)) {
        let n = &self.nodes[node];
        let p = self.points[n.point];
        let d2 = p.distance_squared(query);
        if d2 < best.1 || (d2 == best.1 && n.point < best.0) {
            *best = (n.point, d2);
        }
        let delta = if n.axis == 0 { query.x - p.x } else { query.y - p.y };
        let (near, far) = if delta < 0.0 { (n.left, n.right) } else { (n.right, n.left) };
        if let Some(c) = near {
            self.nearest_rec(c, query, best);
        }
        if let Some(c) = far {
            if delta * delta <= best.1 {
                self.nearest_rec(c, query, best);
            }
        }
    }

    /// Indices of all points with `distance(query) < radius` (strict),
    /// sorted ascending.
    #[must_use]
    pub fn within_radius(&self, query: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if radius > 0.0 {
            if let Some(root) = self.root {
                self.within_rec(root, query, radius * radius, radius, &mut out);
            }
        }
        out.sort_unstable();
        out
    }

    fn within_rec(&self, node: usize, query: Point, r2: f64, r: f64, out: &mut Vec<usize>) {
        let n = &self.nodes[node];
        let p = self.points[n.point];
        if p.distance_squared(query) < r2 {
            out.push(n.point);
        }
        let delta = if n.axis == 0 { query.x - p.x } else { query.y - p.y };
        if let Some(c) = n.left {
            if delta < r {
                self.within_rec(c, query, r2, r, out);
            }
        }
        if let Some(c) = n.right {
            if delta > -r {
                self.within_rec(c, query, r2, r, out);
            }
        }
    }

    /// The indexed points, in insertion order.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_tree_behaves() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.nearest(Point::ORIGIN), None);
        assert!(t.within_radius(Point::ORIGIN, 100.0).is_empty());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(&[Point::new(3.0, 3.0)]);
        assert_eq!(t.nearest(Point::ORIGIN), Some(0));
        assert_eq!(t.within_radius(Point::ORIGIN, 5.0), vec![0]);
        assert!(t.within_radius(Point::ORIGIN, 4.0).is_empty());
    }

    #[test]
    fn duplicate_points_all_reported() {
        let p = Point::new(1.0, 1.0);
        let t = KdTree::build(&[p, p, p]);
        assert_eq!(t.within_radius(Point::ORIGIN, 10.0), vec![0, 1, 2]);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen_range(0.0..1e3), rng.gen_range(0.0..1e3)))
            .collect();
        let t = KdTree::build(&pts);
        for _ in 0..200 {
            let q = Point::new(rng.gen_range(-100.0..1100.0), rng.gen_range(-100.0..1100.0));
            let brute = (0..pts.len())
                .min_by(|&a, &b| {
                    pts[a].distance_squared(q).partial_cmp(&pts[b].distance_squared(q)).unwrap()
                })
                .unwrap();
            let got = t.nearest(q).unwrap();
            assert_eq!(
                pts[got].distance_squared(q),
                pts[brute].distance_squared(q),
                "kd nearest disagrees with brute force"
            );
        }
    }

    #[test]
    fn within_radius_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen_range(0.0..1e3), rng.gen_range(0.0..1e3)))
            .collect();
        let t = KdTree::build(&pts);
        for _ in 0..100 {
            let q = Point::new(rng.gen_range(0.0..1e3), rng.gen_range(0.0..1e3));
            let r = rng.gen_range(0.0..500.0);
            let brute: Vec<usize> = (0..pts.len()).filter(|&i| pts[i].distance(q) < r).collect();
            assert_eq!(t.within_radius(q, r), brute);
        }
    }

    proptest! {
        #[test]
        fn kd_matches_the_strict_squared_distance_scan(
            coords in proptest::collection::vec((0.0..300.0f64, 0.0..300.0f64), 0..40),
            qx in 0.0..300.0f64, qy in 0.0..300.0f64, r in 0.0..400.0f64,
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let tree = KdTree::build(&pts);
            let q = Point::new(qx, qy);
            let scan: Vec<usize> =
                (0..pts.len()).filter(|&i| pts[i].distance_squared(q) < r * r).collect();
            prop_assert_eq!(tree.within_radius(q, r), scan);
        }
    }
}
