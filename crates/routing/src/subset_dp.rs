//! The paper's bitmask dynamic program (Eq. 11–12) with budget pruning.
//!
//! `dp[mask][j]` is the length of the shortest path that starts at the
//! user's location, visits exactly the task set `mask`, and ends at task
//! `j ∈ mask`. The recurrence (Eq. 12):
//!
//! ```text
//! dp[mask ∪ {q}][q] = min over j ∈ mask of dp[mask][j] + dist(j, q)
//! ```
//!
//! The paper fills the full `2^m × (m+1)` table (Fig. 4, `O(m²·2^m)`,
//! Theorem 2). We additionally *prune by the travel budget*: a state
//! whose length already exceeds the budget can never become feasible
//! again (distances are non-negative), so none of its supersets are
//! expanded through it. When the budget binds — the common case in the
//! paper's workload, where a user can walk 2–4 km across a 3 km × 3 km
//! region per round — this makes the exact solver output-sensitive and
//! fast even at m = 20. Passing `budget = ∞` reproduces the full table.
//!
//! The reached states live in one flat arena, a row of `m` states per
//! mask, in the order the expansion first reached each mask. That order
//! depends only on the costs and the budget, so every walk over the
//! table — and with it the exact solver's choice between equal-profit
//! subsets — repeats exactly from run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{CostMatrix, RoutingError};

/// Maximum number of tasks the exact solver accepts (bitmask width and
/// memory guard; the paper's own evaluation uses m = 20).
pub const MAX_TASKS: usize = 25;

/// Sentinel parent for states whose path is `start → j` directly.
const PARENT_START: u8 = u8::MAX;

/// One multiply per mask: the DP's maps are small and hot, and their
/// keys come from the DP itself, never from outside input, so std's
/// collision-resistant SipHash buys nothing here.
#[derive(Default)]
struct MaskHasher(u64);

impl Hasher for MaskHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("masks hash through write_u32");
    }

    fn write_u32(&mut self, mask: u32) {
        // Fold the well-mixed high half into the low bits the table
        // picks its bucket from.
        let h = u64::from(mask).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
struct State {
    dist: f64,
    /// Ending task of the predecessor state, or [`PARENT_START`].
    parent: u8,
}

/// The solved table: shortest path lengths for every *budget-feasible*
/// subset of tasks, with parent pointers for route reconstruction.
///
/// # Examples
///
/// ```
/// use paydemand_geo::Point;
/// use paydemand_routing::{subset_dp, CostMatrix};
///
/// let costs = CostMatrix::from_points(
///     Point::ORIGIN,
///     &[Point::new(10.0, 0.0), Point::new(20.0, 0.0)],
/// );
/// let dp = subset_dp::solve(&costs, f64::INFINITY)?;
/// // Visiting both tasks: straight line 0 -> t0 -> t1 is 20 m.
/// assert_eq!(dp.shortest(0b11), Some(20.0));
/// assert_eq!(dp.reconstruct(0b11), Some(vec![0, 1]));
/// # Ok::<(), paydemand_routing::RoutingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubsetDp {
    tasks: usize,
    /// Every reached mask, in the order the expansion first reached it.
    masks: Vec<u32>,
    /// Row `r` (`states[r * tasks..][..tasks]`) holds one state per
    /// ending task of `masks[r]`; infeasible endings hold `dist = ∞`.
    states: Vec<State>,
    /// Mask → row.
    rows: HashMap<u32, usize, BuildHasherDefault<MaskHasher>>,
}

/// Runs the budget-pruned DP. `distance_budget` is in the same unit as
/// the cost matrix (metres); states longer than it are discarded.
///
/// # Errors
///
/// * [`RoutingError::TooManyTasks`] if the matrix has more than
///   [`MAX_TASKS`] tasks;
/// * [`RoutingError::InvalidParameter`] if `distance_budget` is NaN or
///   negative (`+∞` is allowed and disables pruning).
pub fn solve(costs: &CostMatrix, distance_budget: f64) -> Result<SubsetDp, RoutingError> {
    let m = costs.tasks();
    if m > MAX_TASKS {
        return Err(RoutingError::TooManyTasks { got: m, max: MAX_TASKS });
    }
    if distance_budget.is_nan() || distance_budget < 0.0 {
        return Err(RoutingError::InvalidParameter {
            name: "distance_budget",
            value: distance_budget,
        });
    }

    let mut dp =
        SubsetDp { tasks: m, masks: Vec::new(), states: Vec::new(), rows: HashMap::default() };

    // Layer 1: start -> j.
    for j in 0..m {
        let d = costs.from_start(j);
        if d <= distance_budget {
            let row = dp.row_of(1u32 << j);
            dp.states[row * m + j] = State { dist: d, parent: PARENT_START };
        }
    }

    // Expand layer by layer. Each layer is the run of rows the previous
    // one appended: masks in a layer share a popcount, so a successor
    // mask always lands in a strictly later layer and no row is
    // expanded twice.
    let mut layer = 0..dp.masks.len();
    while !layer.is_empty() {
        for row in layer.clone() {
            let mask = dp.masks[row];
            for j in 0..m {
                let dist_j = dp.states[row * m + j].dist;
                if !dist_j.is_finite() {
                    continue;
                }
                for q in 0..m {
                    if mask & (1 << q) != 0 {
                        continue;
                    }
                    let cand = dist_j + costs.between(j, q);
                    if cand > distance_budget {
                        continue;
                    }
                    let next = dp.row_of(mask | (1 << q));
                    let state = &mut dp.states[next * m + q];
                    if cand < state.dist {
                        *state = State { dist: cand, parent: j as u8 };
                    }
                }
            }
        }
        layer = layer.end..dp.masks.len();
    }

    Ok(dp)
}

impl SubsetDp {
    /// The row of `mask`, appending an all-infeasible one the first time
    /// the mask is reached.
    fn row_of(&mut self, mask: u32) -> usize {
        let next = self.masks.len();
        let row = *self.rows.entry(mask).or_insert(next);
        if row == next {
            self.masks.push(mask);
            let infeasible = State { dist: f64::INFINITY, parent: PARENT_START };
            self.states.resize(self.states.len() + self.tasks, infeasible);
        }
        row
    }

    /// The states of row `row`, one per ending task.
    fn row_at(&self, row: usize) -> &[State] {
        &self.states[row * self.tasks..][..self.tasks]
    }

    /// The states of `mask`; `None` if the DP never reached it.
    fn row(&self, mask: u32) -> Option<&[State]> {
        self.rows.get(&mask).map(|&row| self.row_at(row))
    }

    /// Number of tasks the DP was run over.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Shortest length of any path visiting exactly `mask`, the paper's
    /// `dp[ℓ] = min_j dp[ℓ][j]`. `Some(0.0)` for the empty mask; `None`
    /// if no within-budget path visits `mask`.
    #[must_use]
    pub fn shortest(&self, mask: u32) -> Option<f64> {
        if mask == 0 {
            return Some(0.0);
        }
        let row = self.row(mask)?;
        let best = row.iter().map(|s| s.dist).fold(f64::INFINITY, f64::min);
        best.is_finite().then_some(best)
    }

    /// Shortest length of a path visiting exactly `mask` and ending at
    /// task `j` — the paper's `dp[ℓ][j]`. `None` when infeasible.
    #[must_use]
    pub fn shortest_ending_at(&self, mask: u32, j: usize) -> Option<f64> {
        let d = self.row(mask)?.get(j)?.dist;
        d.is_finite().then_some(d)
    }

    /// Reconstructs the optimal visit order for `mask` (empty for mask
    /// 0). `None` when infeasible.
    #[must_use]
    pub fn reconstruct(&self, mask: u32) -> Option<Vec<usize>> {
        if mask == 0 {
            return Some(Vec::new());
        }
        let row = self.row(mask)?;
        let mut j = (0..self.tasks)
            .filter(|&j| row[j].dist.is_finite())
            .min_by(|&a, &b| row[a].dist.partial_cmp(&row[b].dist).expect("finite"))?;
        let mut order = Vec::with_capacity(mask.count_ones() as usize);
        let mut cur_mask = mask;
        loop {
            order.push(j);
            let state = self.row(cur_mask)?[j];
            cur_mask &= !(1 << j);
            if state.parent == PARENT_START {
                debug_assert_eq!(cur_mask, 0, "parent chain must consume the mask");
                break;
            }
            j = state.parent as usize;
        }
        order.reverse();
        Some(order)
    }

    /// Iterates all budget-feasible non-empty masks, in the order the
    /// DP first reached them: by popcount, and within one popcount in a
    /// fixed order that depends only on the costs and the budget. Mask 0
    /// (stay home) is always implicitly feasible.
    pub fn feasible_masks(&self) -> impl Iterator<Item = u32> + '_ {
        self.masks.iter().enumerate().filter_map(|(row, &mask)| {
            self.row_at(row).iter().any(|s| s.dist.is_finite()).then_some(mask)
        })
    }

    /// Number of stored (feasible) masks — useful to observe how hard
    /// the budget prunes.
    #[must_use]
    pub fn feasible_mask_count(&self) -> usize {
        self.masks.len()
    }

    /// Total number of finite `(mask, ending-task)` states the DP
    /// stored — the work the solver actually performed after budget
    /// pruning. Feeds the `selector_states_expanded_total` metric.
    #[must_use]
    pub fn state_count(&self) -> u64 {
        self.states.iter().filter(|s| s.dist.is_finite()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_geo::Point;
    use proptest::prelude::*;

    fn line_costs() -> CostMatrix {
        // Tasks on a line east of the start: 10, 20, 30 metres out.
        CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(10.0, 0.0), Point::new(20.0, 0.0), Point::new(30.0, 0.0)],
        )
    }

    #[test]
    fn single_task_masks() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        assert_eq!(dp.shortest(0b001), Some(10.0));
        assert_eq!(dp.shortest(0b010), Some(20.0));
        assert_eq!(dp.shortest(0b100), Some(30.0));
        assert_eq!(dp.reconstruct(0b010), Some(vec![1]));
    }

    #[test]
    fn full_mask_takes_the_line_in_order() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        assert_eq!(dp.shortest(0b111), Some(30.0));
        assert_eq!(dp.reconstruct(0b111), Some(vec![0, 1, 2]));
    }

    #[test]
    fn empty_mask_is_free() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        assert_eq!(dp.shortest(0), Some(0.0));
        assert_eq!(dp.reconstruct(0), Some(vec![]));
    }

    #[test]
    fn ending_at_specific_task() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        // Visit {t0, t1} ending at t0: 0 -> t1 -> t0 = 20 + 10 = 30.
        assert_eq!(dp.shortest_ending_at(0b011, 0), Some(30.0));
        // Ending at t1: 0 -> t0 -> t1 = 10 + 10 = 20.
        assert_eq!(dp.shortest_ending_at(0b011, 1), Some(20.0));
        // t2 is not in the mask.
        assert_eq!(dp.shortest_ending_at(0b011, 2), None);
    }

    #[test]
    fn budget_prunes_far_tasks() {
        let dp = solve(&line_costs(), 15.0).unwrap();
        assert_eq!(dp.shortest(0b001), Some(10.0));
        assert_eq!(dp.shortest(0b010), None, "20 m exceeds the 15 m budget");
        assert_eq!(dp.shortest(0b111), None);
        assert_eq!(dp.feasible_mask_count(), 1);
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        let dp = solve(&line_costs(), 10.0).unwrap();
        assert_eq!(dp.shortest(0b001), Some(10.0));
    }

    #[test]
    fn zero_budget_allows_nothing() {
        let dp = solve(&line_costs(), 0.0).unwrap();
        assert_eq!(dp.feasible_mask_count(), 0);
        assert_eq!(dp.shortest(0), Some(0.0));
    }

    #[test]
    fn rejects_too_many_tasks() {
        let pts: Vec<Point> = (0..MAX_TASKS + 1).map(|i| Point::new(i as f64, 0.0)).collect();
        let costs = CostMatrix::from_points(Point::ORIGIN, &pts);
        assert!(matches!(
            solve(&costs, 10.0),
            Err(RoutingError::TooManyTasks { got, max: MAX_TASKS }) if got == MAX_TASKS + 1
        ));
    }

    #[test]
    fn rejects_bad_budget() {
        assert!(matches!(
            solve(&line_costs(), f64::NAN),
            Err(RoutingError::InvalidParameter { .. })
        ));
        assert!(matches!(solve(&line_costs(), -1.0), Err(RoutingError::InvalidParameter { .. })));
    }

    #[test]
    fn square_detour_is_found() {
        // Start in the middle of a square of tasks: the optimal tour of
        // all four visits adjacent corners, not diagonals.
        let costs = CostMatrix::from_points(
            Point::new(5.0, 5.0),
            &[
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ],
        );
        let dp = solve(&costs, f64::INFINITY).unwrap();
        let best = dp.shortest(0b1111).unwrap();
        // centre -> corner (√50) + 3 sides (30).
        assert!((best - (50f64.sqrt() + 30.0)).abs() < 1e-9);
        let order = dp.reconstruct(0b1111).unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(costs.route_length(&order), best);
    }

    /// Brute-force shortest path over all permutations of `mask`.
    fn brute_force(costs: &CostMatrix, mask: u32) -> Option<f64> {
        let tasks: Vec<usize> = (0..costs.tasks()).filter(|&j| mask & (1 << j) != 0).collect();
        if tasks.is_empty() {
            return Some(0.0);
        }
        fn perms(items: &[usize]) -> Vec<Vec<usize>> {
            if items.len() <= 1 {
                return vec![items.to_vec()];
            }
            let mut out = Vec::new();
            for (i, &head) in items.iter().enumerate() {
                let mut rest = items.to_vec();
                rest.remove(i);
                for mut p in perms(&rest) {
                    p.insert(0, head);
                    out.push(p);
                }
            }
            out
        }
        perms(&tasks)
            .into_iter()
            .map(|p| costs.route_length(&p))
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dp_matches_brute_force(
            coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..6),
            (sx, sy) in (0.0..100.0f64, 0.0..100.0f64),
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let costs = CostMatrix::from_points(Point::new(sx, sy), &pts);
            let dp = solve(&costs, f64::INFINITY).unwrap();
            let full: u32 = (1 << pts.len()) - 1;
            for mask in 0..=full {
                let expect = brute_force(&costs, mask).unwrap();
                let got = dp.shortest(mask).unwrap();
                prop_assert!((got - expect).abs() < 1e-9,
                    "mask {mask:b}: dp {got} vs brute {expect}");
                // Reconstructed route must realise the reported length
                // and visit exactly the mask.
                let order = dp.reconstruct(mask).unwrap();
                prop_assert!((costs.route_length(&order) - got).abs() < 1e-9);
                let visited: u32 = order.iter().map(|&j| 1u32 << j).sum();
                prop_assert_eq!(visited, mask);
            }
        }

        #[test]
        fn pruned_dp_agrees_with_full_dp_below_budget(
            coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..6),
            budget in 0.0..300.0f64,
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let costs = CostMatrix::from_points(Point::ORIGIN, &pts);
            let full_dp = solve(&costs, f64::INFINITY).unwrap();
            let pruned = solve(&costs, budget).unwrap();
            let full: u32 = (1 << pts.len()) - 1;
            for mask in 0..=full {
                match (pruned.shortest(mask), full_dp.shortest(mask)) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                    (None, Some(b)) => prop_assert!(b > budget,
                        "pruned lost a feasible mask {mask:b} of length {b} <= {budget}"),
                    (Some(_), None) => prop_assert!(false, "pruned found an impossible mask"),
                    (None, None) => {}
                }
            }
        }
    }
}
