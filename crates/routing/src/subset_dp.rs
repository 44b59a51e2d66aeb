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
//! The reached states live in one flat arena, a row of `m` lengths and
//! `m` parents per mask, in the order the expansion first reached each
//! mask. That order depends only on the costs and the budget, so every
//! walk over the table — and with it the exact solver's choice between
//! equal-profit subsets — repeats exactly from run to run. An
//! open-addressing index (a power-of-two table of `row + 1`, probed
//! linearly, at most half full) finds a mask's row.
//!
//! A fill reads each task-to-task distance once, into an `m × m` table,
//! and walks only the bits that matter: ending tasks `j` over the set
//! bits of a row's mask, next tasks `q` over its clear bits, both
//! ascending. That is the update order of the plain `0..m` loops, since
//! a state ending outside its mask is never reached. The exact solver
//! fills one table per thread and reuses its buffers from solve to
//! solve, releasing them after a solve that filled more than a full
//! 14-task table.

use crate::{CostMatrix, RoutingError};

/// Maximum number of tasks the exact solver accepts (bitmask width and
/// memory guard; the paper's own evaluation uses m = 20).
pub const MAX_TASKS: usize = 25;

/// Sentinel parent for states whose path is `start → j` directly.
const PARENT_START: u8 = u8::MAX;

/// Index slots a fill starts from; the index doubles when half full.
const MIN_SLOTS: usize = 32;

/// The most states a kept table holds on to: a full 14-task table
/// (`14 · 2^14`, ~2 MB with its parents, masks and index). A solve that
/// fills more releases the buffers after it.
const KEEP_STATES: usize = 14 << 14;

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
    /// Row `r` (`dist[r * tasks..][..tasks]`) holds one length per
    /// ending task of `masks[r]`; unreached endings hold `∞`.
    dist: Vec<f64>,
    /// Ending task of each state's predecessor, or [`PARENT_START`].
    parent: Vec<u8>,
    /// Mask → `row + 1`, 0 for an empty slot.
    index: Vec<u32>,
    /// Task-to-task distances, row-major `tasks × tasks`.
    between: Vec<f64>,
    /// Finite states in `dist`.
    states: u64,
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
    let mut dp = SubsetDp::new();
    dp.fill(costs, distance_budget)?;
    Ok(dp)
}

/// The set bits of `mask`, ascending.
pub(crate) fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let j = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (j < 32).then_some(j)
    })
}

/// The index slot a probe for `mask` starts at, in a table of `slots`
/// (a power of two): the top bits of a Fibonacci hash.
fn home(mask: u32, slots: usize) -> usize {
    (mask.wrapping_mul(0x9E37_79B9) >> (32 - slots.trailing_zeros())) as usize
}

impl SubsetDp {
    /// An empty table.
    pub(crate) const fn new() -> Self {
        SubsetDp {
            tasks: 0,
            masks: Vec::new(),
            dist: Vec::new(),
            parent: Vec::new(),
            index: Vec::new(),
            between: Vec::new(),
            states: 0,
        }
    }

    /// Runs the DP over `costs` into this table, reusing its buffers:
    /// nothing but their capacity carries over from an earlier fill.
    pub(crate) fn fill(
        &mut self,
        costs: &CostMatrix,
        distance_budget: f64,
    ) -> Result<(), RoutingError> {
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
        self.tasks = m;
        self.masks.clear();
        self.dist.clear();
        self.parent.clear();
        self.index.clear();
        self.index.resize(MIN_SLOTS, 0);
        self.states = 0;

        // Layer 1: start -> j.
        for j in 0..m {
            let d = costs.from_start(j);
            if d <= distance_budget {
                let row = self.row_of(1u32 << j);
                self.improve(row * m + j, d, PARENT_START);
            }
        }
        if self.masks.is_empty() {
            return Ok(());
        }

        // Every distance the expansion reads, once. `distances_from`
        // gives `between`'s bits.
        let mut between = std::mem::take(&mut self.between);
        between.clear();
        between.resize(m * m, 0.0);
        for (i, row) in between.chunks_exact_mut(m).enumerate() {
            costs.distances_from(Some(i), row);
        }

        // Expand layer by layer. Each layer is the run of rows the previous
        // one appended: masks in a layer share a popcount, so a successor
        // mask always lands in a strictly later layer and no row is
        // expanded twice.
        let all = u32::MAX >> (32 - m);
        let mut layer = 0..self.masks.len();
        while !layer.is_empty() {
            for row in layer.clone() {
                let mask = self.masks[row];
                for j in bits(mask) {
                    let dist_j = self.dist[row * m + j];
                    if !dist_j.is_finite() {
                        continue;
                    }
                    let from_j = &between[j * m..][..m];
                    for q in bits(!mask & all) {
                        let cand = dist_j + from_j[q];
                        if cand > distance_budget {
                            continue;
                        }
                        let at = self.row_of(mask | (1 << q)) * m + q;
                        if cand < self.dist[at] {
                            self.improve(at, cand, j as u8);
                        }
                    }
                }
            }
            layer = layer.end..self.masks.len();
        }
        self.between = between;
        Ok(())
    }

    /// Whether the last fill went past [`KEEP_STATES`], so a table kept
    /// between solves should release its buffers.
    pub(crate) fn oversized(&self) -> bool {
        self.dist.len() > KEEP_STATES
    }

    /// Lowers state `at` to `dist` through `parent`, counting the
    /// states that turn finite.
    fn improve(&mut self, at: usize, dist: f64, parent: u8) {
        let was = self.dist[at];
        self.states = self.states + u64::from(dist.is_finite()) - u64::from(was.is_finite());
        self.dist[at] = dist;
        self.parent[at] = parent;
    }

    /// The row of `mask`, appending an all-unreached one the first time
    /// the mask is reached.
    fn row_of(&mut self, mask: u32) -> usize {
        let slot = match self.probe(mask) {
            Ok(row) => return row,
            Err(slot) => slot,
        };
        let row = self.masks.len();
        self.index[slot] = row as u32 + 1;
        self.masks.push(mask);
        self.dist.resize(self.dist.len() + self.tasks, f64::INFINITY);
        self.parent.resize(self.parent.len() + self.tasks, PARENT_START);
        if 2 * self.masks.len() > self.index.len() {
            self.grow_index();
        }
        row
    }

    /// Doubles the index and inserts every row again.
    fn grow_index(&mut self) {
        let slots = 2 * self.index.len();
        self.index.clear();
        self.index.resize(slots, 0);
        for (row, &mask) in self.masks.iter().enumerate() {
            let mut slot = home(mask, slots);
            while self.index[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.index[slot] = row as u32 + 1;
        }
    }

    /// The lengths of row `row`, one per ending task.
    fn row_at(&self, row: usize) -> &[f64] {
        &self.dist[row * self.tasks..][..self.tasks]
    }

    /// The row of `mask`, or the empty index slot where it would go.
    fn probe(&self, mask: u32) -> Result<usize, usize> {
        let wrap = self.index.len() - 1;
        let mut slot = home(mask, self.index.len());
        loop {
            match self.index[slot] as usize {
                0 => return Err(slot),
                r if self.masks[r - 1] == mask => return Ok(r - 1),
                _ => slot = (slot + 1) & wrap,
            }
        }
    }

    /// The row of `mask`; `None` if the DP never reached it.
    fn find(&self, mask: u32) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        self.probe(mask).ok()
    }

    /// Every reached mask with its lengths, one per ending task, in the
    /// order the DP first reached them.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u32, &[f64])> {
        self.masks.iter().copied().zip(self.dist.chunks_exact(self.tasks.max(1)))
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
        let row = self.row_at(self.find(mask)?);
        let best = row.iter().copied().fold(f64::INFINITY, f64::min);
        best.is_finite().then_some(best)
    }

    /// Shortest length of a path visiting exactly `mask` and ending at
    /// task `j` — the paper's `dp[ℓ][j]`. `None` when infeasible.
    #[must_use]
    pub fn shortest_ending_at(&self, mask: u32, j: usize) -> Option<f64> {
        let d = *self.row_at(self.find(mask)?).get(j)?;
        d.is_finite().then_some(d)
    }

    /// Reconstructs the optimal visit order for `mask` (empty for mask
    /// 0). `None` when infeasible.
    #[must_use]
    pub fn reconstruct(&self, mask: u32) -> Option<Vec<usize>> {
        if mask == 0 {
            return Some(Vec::new());
        }
        let mut row = self.find(mask)?;
        let dist = self.row_at(row);
        let mut j = (0..self.tasks)
            .filter(|&j| dist[j].is_finite())
            .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).expect("finite"))?;
        let mut order = Vec::with_capacity(mask.count_ones() as usize);
        let mut cur_mask = mask;
        loop {
            order.push(j);
            let parent = self.parent[row * self.tasks + j];
            cur_mask &= !(1 << j);
            if parent == PARENT_START {
                debug_assert_eq!(cur_mask, 0, "parent chain must consume the mask");
                break;
            }
            j = usize::from(parent);
            row = self.find(cur_mask)?;
        }
        order.reverse();
        Some(order)
    }

    /// Iterates all budget-feasible non-empty masks, in the order the
    /// DP first reached them: by popcount, and within one popcount in a
    /// fixed order that depends only on the costs and the budget. Mask 0
    /// (stay home) is always implicitly feasible.
    pub fn feasible_masks(&self) -> impl Iterator<Item = u32> + '_ {
        self.rows().filter_map(|(mask, dist)| dist.iter().any(|d| d.is_finite()).then_some(mask))
    }

    /// Total number of finite `(mask, ending-task)` states the DP
    /// stored — the work the solver actually performed after budget
    /// pruning. Feeds the `selector_states_expanded_total` metric.
    #[must_use]
    pub fn state_count(&self) -> u64 {
        self.states
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
        assert_eq!(dp.feasible_masks().count(), 1);
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        let dp = solve(&line_costs(), 10.0).unwrap();
        assert_eq!(dp.shortest(0b001), Some(10.0));
    }

    #[test]
    fn zero_budget_allows_nothing() {
        let dp = solve(&line_costs(), 0.0).unwrap();
        assert_eq!(dp.feasible_masks().count(), 0);
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

    /// Each feasible mask with its shortest length's bits and route.
    type Rows = Vec<(u32, u64, Vec<usize>)>;

    /// Everything a table answers: its feasible rows in discovery
    /// order, the state count and the count of every reached row.
    fn answers(dp: &SubsetDp) -> (Rows, u64, usize) {
        let rows = dp
            .feasible_masks()
            .map(|mask| {
                let shortest = dp.shortest(mask).unwrap().to_bits();
                (mask, shortest, dp.reconstruct(mask).unwrap())
            })
            .collect();
        (rows, dp.state_count(), dp.rows().count())
    }

    #[test]
    fn a_refilled_table_answers_like_a_fresh_one() {
        // A full 15-task table is past what a kept table holds on to;
        // filling smaller instances into it afterwards must forget it.
        let grid: Vec<Point> =
            (0..15).map(|i| Point::new(f64::from(i % 4) * 10.0, f64::from(i / 4) * 10.0)).collect();
        let big = CostMatrix::from_points(Point::new(15.0, 15.0), &grid);
        let mut kept = SubsetDp::new();
        kept.fill(&big, f64::INFINITY).unwrap();
        assert!(kept.oversized());
        assert_eq!(kept.state_count(), 15 << 14);
        for budget in [15.0, 25.0, f64::INFINITY] {
            kept.fill(&line_costs(), budget).unwrap();
            assert!(!kept.oversized());
            assert_eq!(answers(&kept), answers(&solve(&line_costs(), budget).unwrap()));
            assert_eq!(kept.shortest(0b1_0000), None, "a mask of the big table survived");
        }
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
        fn refills_count_states_and_answer_like_fresh_tables(
            instances in proptest::collection::vec(
                (proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..8), 0.0..250.0f64),
                1..5,
            ),
        ) {
            let mut kept = SubsetDp::new();
            for (coords, budget) in instances {
                let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
                let costs = CostMatrix::from_points(Point::new(50.0, 50.0), &pts);
                kept.fill(&costs, budget).unwrap();
                let finite: usize =
                    kept.rows().map(|(_, d)| d.iter().filter(|d| d.is_finite()).count()).sum();
                prop_assert_eq!(kept.state_count(), finite as u64);
                prop_assert_eq!(answers(&kept), answers(&solve(&costs, budget).unwrap()));
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
