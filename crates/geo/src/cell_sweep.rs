//! Cell-centric neighbour counting for Eq. 5 at large scale.
//!
//! A per-task probe asks "how many users near this task?" one task at
//! a time, walking the grid point by point. [`CellSweeper`] inverts
//! the loop structure: it precomputes, for every grid cell, the tasks
//! whose radius-`R` disc can reach that cell (a CSR candidate list),
//! then makes one pass over the occupied cells, accumulating each
//! resident user into the cell's candidate tasks. The candidate slice
//! is loaded once per cell instead of once per user, so the inner loop
//! is a dense streaming scan.
//!
//! # Exactness
//!
//! Every user/task pair that the naive `O(n·m)` scan would test is
//! tested here with the *same* predicate,
//! `Point::distance_squared(u, t) < R²`:
//!
//! * cell ranges are computed with the same clamped floor arithmetic
//!   that buckets the users, and that mapping is monotone in each
//!   coordinate — so a user within `R` of a task (hence inside the
//!   task's `±R` bounding box) always sits in a cell inside the task's
//!   candidate range. No pair is missed, regardless of positions
//!   landing exactly on cell boundaries;
//! * candidate lists are supersets: pairs farther than `R` fail the
//!   exact distance test just as they would in the naive scan;
//! * `distance_squared` is bitwise symmetric (`(-d)·(-d) = d·d` in
//!   IEEE-754), so sweeping users-into-tasks equals probing
//!   tasks-over-users bit for bit.
//!
//! Counts are integers accumulated by `+1`/`-1`, and integer addition
//! is commutative and associative — so any iteration order and any
//! batching of moved users produces identical counts. That is why
//! [`CellSweeper::counts`] may pick, round by round, between a full
//! recount and a delta update without changing a single count.
//!
//! # Kernels
//!
//! A full recount copies the users into the sweeper's mirror and tags
//! each with its cell in one pass, then counting-sorts them by cell:
//! the scatter places each user's coordinates in its cell's run of the
//! sorted buffers. The count streams each occupied cell's residents
//! through its candidate tasks, task-outer: four candidates per pass
//! over the run, each with its own count, and the remainder one at a
//! time.
//!
//! The scatter and the count share one body, built twice: for the
//! target's baseline instruction set (two `f64` lanes of SSE2 on
//! x86-64) and, on x86-64, with AVX2 enabled (four lanes), where the
//! scatter also prefetches each destination run two cache lines ahead.
//! The CPU picks at run time. Both builds run the same IEEE operations
//! — a subtract, two multiplies, an add and a compare per pair, with no
//! fused multiply-add — and add integer hits, so their counts are
//! identical.
//!
//! Every position maps to its cell by the same division,
//! `(p − min) / cell` floored and clamped per axis, in the candidate
//! boxes, the tags and the delta path. A multiply by `1/cell` rounds
//! differently on cell edges, which would move users between cells and
//! reorder the sorted buffers; it measured no faster.

use crate::soa::{PositionStore, Positions};
use crate::{GeoError, Point, Rect};

/// Per-task neighbour counts (`N_i` of Eq. 5) maintained by cell-wise
/// sweeps over a struct-of-arrays position mirror.
///
/// The first [`counts`](Self::counts) call performs a full sweep; later
/// calls detect moved users against the mirror. When at most half the
/// users moved, they are batched by grid cell and applied as
/// `-old`/`+new` updates through the per-cell candidate lists;
/// otherwise the round recounts with a full sweep.
#[derive(Debug, Clone)]
pub struct CellSweeper {
    area: Rect,
    radius: f64,
    grid: Grid,
    tasks: Vec<Point>,
    /// CSR offsets into `cand_tasks`, one slot per grid cell plus one.
    cand_offsets: Vec<u32>,
    /// Task indices whose disc can reach the cell, grouped per cell.
    cand_tasks: Vec<u32>,
    /// SoA mirror of the user positions as of the last `counts` call.
    mirror: PositionStore,
    /// Grid cell of each mirrored user (row-major index).
    mirror_cells: Vec<u32>,
    primed: bool,
    counts: Vec<usize>,
    moved_last_round: usize,
    last_was_full: bool,
    /// Delta-sweep scratch, kept across rounds: once capacities have
    /// warmed to the round-over-round churn, the delta path performs
    /// zero heap allocations per call.
    scratch_departures: Vec<(u32, Point)>,
    scratch_arrivals: Vec<(u32, Point)>,
    scratch_deltas: Vec<i64>,
    /// Full-sweep buffers, kept across rounds like the delta scratch:
    /// the mirror's coordinates counting-sorted by cell
    /// (`sorted_x/sorted_y[starts[c]..starts[c + 1]]` hold cell `c`'s
    /// residents) and the scatter's per-cell write cursor.
    sorted_x: Vec<f64>,
    sorted_y: Vec<f64>,
    starts: Vec<u32>,
    cursor: Vec<u32>,
}

/// Cells along the area's longer side, at most: the grid stays within
/// about a million cells however small the radius is against the area.
const MAX_CELLS_PER_SIDE: f64 = 1024.0;

/// How far past a run's write cursor the AVX2 scatter prefetches: two
/// 64-byte cache lines of `f64`s.
const PREFETCH_AHEAD: usize = 16;

/// The grid's cell mapping: `(p − min) / cell` floored and clamped per
/// axis, monotone in each coordinate.
#[derive(Debug, Clone, Copy)]
struct Grid {
    min: Point,
    cell: f64,
    cols: usize,
    rows: usize,
}

impl Grid {
    fn num_cells(self) -> usize {
        self.cols * self.rows
    }

    /// Column and row of `p`. The quotient converts to `u32`, not
    /// `usize`: both conversions saturate and a grid never has
    /// `u32::MAX` columns or rows, so the clamped result is the same
    /// for every `p`, and the narrower conversion is cheaper.
    #[inline(always)]
    fn col_row(self, p: Point) -> (u32, u32) {
        let c = (((p.x - self.min.x) / self.cell) as u32).min(self.cols as u32 - 1);
        let r = (((p.y - self.min.y) / self.cell) as u32).min(self.rows as u32 - 1);
        (c, r)
    }

    /// Row-major cell of `p`.
    #[inline(always)]
    fn index(self, p: Point) -> u32 {
        let (c, r) = self.col_row(p);
        r * self.cols as u32 + c
    }
}

impl CellSweeper {
    /// Creates a sweeper for fixed `tasks` inside `area`, counting
    /// users strictly closer than `radius`. A cell is `radius` wide, or
    /// 1/1024 of the area's longer side where that is wider. The
    /// monotone cell mapping keeps the `±R` candidate boxes exact at
    /// any cell width; a cell at least `R` wide only bounds each box to
    /// 3×3 cells.
    ///
    /// Tasks may lie outside `area` (their candidate ranges clamp to
    /// it); `radius` values that are not finite and positive yield
    /// all-zero counts, as the strict `< R²` test does for them.
    #[must_use]
    pub fn new(area: Rect, radius: f64, tasks: Vec<Point>) -> Self {
        let valid = radius.is_finite() && radius > 0.0;
        let side = area.width().max(area.height());
        let cell = if valid { radius.max(side / MAX_CELLS_PER_SIDE) } else { side.max(1.0) };
        let cols = (area.width() / cell).ceil().max(1.0) as usize;
        let rows = (area.height() / cell).ceil().max(1.0) as usize;
        let m = tasks.len();
        let mut sweeper = CellSweeper {
            area,
            radius,
            grid: Grid { min: area.min(), cell, cols, rows },
            tasks,
            cand_offsets: Vec::new(),
            cand_tasks: Vec::new(),
            mirror: PositionStore::default(),
            mirror_cells: Vec::new(),
            primed: false,
            counts: vec![0; m],
            moved_last_round: 0,
            last_was_full: false,
            scratch_departures: Vec::new(),
            scratch_arrivals: Vec::new(),
            scratch_deltas: Vec::new(),
            sorted_x: Vec::new(),
            sorted_y: Vec::new(),
            starts: Vec::new(),
            cursor: Vec::new(),
        };
        sweeper.build_candidates(valid);
        sweeper
    }

    /// The neighbour radius `R`.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// How many users moved at the last [`counts`](Self::counts) call
    /// (`n` for the priming sweep).
    #[must_use]
    pub fn moved_last_round(&self) -> usize {
        self.moved_last_round
    }

    /// Whether the last [`counts`](Self::counts) call ran a full sweep
    /// rather than a batched delta update.
    #[must_use]
    pub fn last_was_full_sweep(&self) -> bool {
        self.last_was_full
    }

    /// The counts produced by the last [`counts`](Self::counts) call
    /// (empty before the first).
    #[must_use]
    pub fn counts_ref(&self) -> &[usize] {
        &self.counts
    }

    /// Approximate heap footprint in bytes: the task copy, the CSR
    /// candidate lists, the SoA position mirror, the per-user cell
    /// tags, the count vector and the kept delta and full-sweep
    /// buffers. Uses allocated capacity so reserved space is visible.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.tasks.capacity() * std::mem::size_of::<Point>()
            + self.cand_offsets.capacity() * std::mem::size_of::<u32>()
            + self.cand_tasks.capacity() * std::mem::size_of::<u32>()
            + self.mirror.approx_bytes()
            + self.mirror_cells.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<usize>()
            + (self.scratch_departures.capacity() + self.scratch_arrivals.capacity())
                * std::mem::size_of::<(u32, Point)>()
            + self.scratch_deltas.capacity() * std::mem::size_of::<i64>()
            + (self.sorted_x.capacity() + self.sorted_y.capacity()) * std::mem::size_of::<f64>()
            + (self.starts.capacity() + self.cursor.capacity()) * std::mem::size_of::<u32>()
    }

    /// Builds the per-cell candidate task lists: task `t` is a
    /// candidate of every cell in the clamped `±R` bounding box of its
    /// location. By monotonicity of the cell mapping, any in-area user
    /// strictly within `R` of `t` is bucketed into one of those cells.
    fn build_candidates(&mut self, valid_radius: bool) {
        let grid = self.grid;
        let mut per_cell = vec![0u32; grid.num_cells() + 1];
        if !valid_radius {
            self.cand_offsets = per_cell;
            self.cand_tasks = Vec::new();
            return;
        }
        let ranges: Vec<(usize, usize, usize, usize)> = self
            .tasks
            .iter()
            .map(|&t| {
                let min = self.area.clamp(Point::new(t.x - self.radius, t.y - self.radius));
                let max = self.area.clamp(Point::new(t.x + self.radius, t.y + self.radius));
                let (c0, r0) = grid.col_row(min);
                let (c1, r1) = grid.col_row(max);
                (c0 as usize, r0 as usize, c1 as usize, r1 as usize)
            })
            .collect();
        for &(c0, r0, c1, r1) in &ranges {
            for r in r0..=r1 {
                for c in c0..=c1 {
                    per_cell[r * grid.cols + c + 1] += 1;
                }
            }
        }
        for i in 1..per_cell.len() {
            per_cell[i] += per_cell[i - 1];
        }
        let mut cand_tasks = vec![0u32; per_cell[grid.num_cells()] as usize];
        let mut cursor = per_cell.clone();
        for (t, &(c0, r0, c1, r1)) in ranges.iter().enumerate() {
            for r in r0..=r1 {
                for c in c0..=c1 {
                    let slot = &mut cursor[r * grid.cols + c];
                    cand_tasks[*slot as usize] = t as u32;
                    *slot += 1;
                }
            }
        }
        self.cand_offsets = per_cell;
        self.cand_tasks = cand_tasks;
    }

    fn candidates(&self, cell: usize) -> &[u32] {
        let lo = self.cand_offsets[cell] as usize;
        let hi = self.cand_offsets[cell + 1] as usize;
        &self.cand_tasks[lo..hi]
    }

    /// Per-task neighbour counts for `users`.
    ///
    /// The first call (and any call after the population size changed)
    /// runs a full cell sweep; later calls update the counts from the
    /// users that moved, recounting in full when more than half did.
    ///
    /// # Errors
    ///
    /// [`GeoError::OutOfBounds`] for the first user outside the area;
    /// the sweeper state is unchanged on error.
    pub fn counts<P: Positions + ?Sized>(&mut self, users: &P) -> Result<&[usize], GeoError> {
        let n = users.len();
        let tracked = self.primed && self.mirror.len() == n;
        // Validate everything up front so a bad location leaves the
        // sweeper exactly as it was; the same pass counts the users
        // that moved since the mirror was taken. Both folds run over
        // every user with no early exit, so the pass has no branch per
        // user; only when some user lies outside (NaN included) does a
        // second scan find the first one.
        let (lo, hi) = (self.area.min(), self.area.max());
        let within = |p: Point| (p.x >= lo.x) & (p.x <= hi.x) & (p.y >= lo.y) & (p.y <= hi.y);
        let mut inside = true;
        let mut moved = 0usize;
        if tracked {
            for i in 0..n {
                let (p, was) = (users.at(i), self.mirror.point(i));
                inside &= within(p);
                moved += usize::from((p.x != was.x) | (p.y != was.y));
            }
        } else {
            for i in 0..n {
                inside &= within(users.at(i));
            }
        }
        if !inside {
            let point = (0..n).map(|i| users.at(i)).find(|p| !within(*p));
            return Err(GeoError::OutOfBounds { point: point.expect("a user lies outside") });
        }
        if tracked {
            // A delta scans the candidates of two cells per moved user
            // (its old cell, then its new one) after sorting both move
            // lists; a full sweep scans each user's cell once after a
            // linear counting sort. Past `n/2` moved users the delta is
            // the larger job, so the round recounts in full. Counts are
            // identical either way.
            if moved * 2 <= n {
                self.delta_sweep(users);
                return Ok(&self.counts);
            }
            for i in 0..n {
                let p = users.at(i);
                self.mirror.set(i, p);
                self.mirror_cells[i] = self.grid.index(p);
            }
            self.moved_last_round = moved;
        } else {
            self.mirror = (0..n).map(|i| users.at(i)).collect();
            self.mirror_cells = (0..n).map(|i| self.grid.index(users.at(i))).collect();
            self.primed = true;
            self.moved_last_round = n;
        }
        self.full_sweep(Kernel::detect());
        Ok(&self.counts)
    }

    /// Recounts every task from the mirror: users are bucketed by cell
    /// (a counting sort into the kept buffers), then `kernel`'s build of
    /// [`sweep_body`] scatters their coordinates into each cell's run
    /// and streams each occupied cell's residents through its candidate
    /// tasks.
    fn full_sweep(&mut self, kernel: Kernel) {
        let n = self.mirror.len();
        let num_cells = self.grid.num_cells();
        self.last_was_full = true;
        self.counts.clear();
        self.counts.resize(self.tasks.len(), 0);
        if n == 0 || self.cand_tasks.is_empty() {
            return;
        }

        // Counting sort of the mirror's coordinates by cell.
        self.starts.clear();
        self.starts.resize(num_cells + 1, 0);
        for &c in &self.mirror_cells {
            self.starts[c as usize + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..num_cells]);
        self.sorted_x.resize(n, 0.0);
        self.sorted_y.resize(n, 0.0);
        match kernel {
            Kernel::Baseline => sweep_body(self, |_| {}),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                assert!(std::arch::is_x86_feature_detected!("avx2"), "AVX2 kernel without AVX2");
                // SAFETY: `sweep_avx2` is safe code compiled with AVX2
                // enabled; the one requirement for calling it is a CPU
                // that runs AVX2, which the assert above has just
                // checked.
                #[allow(unsafe_code)]
                unsafe {
                    sweep_avx2(self);
                }
            }
        }
    }

    /// Applies `-old`/`+new` updates for every user whose position
    /// changed since the mirror was taken, batched by grid cell so each
    /// candidate slice is resolved once per dirty cell rather than once
    /// per user.
    fn delta_sweep<P: Positions + ?Sized>(&mut self, users: &P) {
        // (cell, position) pairs: departures from old cells and
        // arrivals into new ones. The buffers are struct-held scratch
        // (taken here, returned before every exit) so the steady-state
        // path reuses their warmed capacity instead of allocating fresh
        // vectors each round.
        let mut departures = std::mem::take(&mut self.scratch_departures);
        let mut arrivals = std::mem::take(&mut self.scratch_arrivals);
        departures.clear();
        arrivals.clear();
        for i in 0..users.len() {
            let new = users.at(i);
            let old = self.mirror.point(i);
            if old == new {
                continue;
            }
            let new_cell = self.grid.index(new);
            departures.push((self.mirror_cells[i], old));
            arrivals.push((new_cell, new));
            self.mirror.set(i, new);
            self.mirror_cells[i] = new_cell;
        }
        self.moved_last_round = departures.len();
        self.last_was_full = false;
        if departures.is_empty() {
            self.scratch_departures = departures;
            self.scratch_arrivals = arrivals;
            return;
        }
        // Batch by cell: runs sharing a cell reuse one candidate-slice
        // lookup and keep its tasks hot in cache.
        departures.sort_unstable_by_key(|&(cell, _)| cell);
        arrivals.sort_unstable_by_key(|&(cell, _)| cell);

        let mut deltas = std::mem::take(&mut self.scratch_deltas);
        deltas.clear();
        deltas.resize(self.tasks.len(), 0);
        let r2 = self.radius * self.radius;
        for (moves, sign) in [(&departures, -1i64), (&arrivals, 1)] {
            // Runs of moves sharing a cell resolve the candidate slice
            // once and scan task-outer; the signed indicator sum is
            // integer addition, so any grouping gives the same deltas.
            let mut i = 0;
            while i < moves.len() {
                let cell = moves[i].0;
                let mut j = i + 1;
                while j < moves.len() && moves[j].0 == cell {
                    j += 1;
                }
                for &t in self.candidates(cell as usize) {
                    let task = self.tasks[t as usize];
                    let mut hits = 0i64;
                    for &(_, p) in &moves[i..j] {
                        hits += i64::from(p.distance_squared(task) < r2);
                    }
                    deltas[t as usize] += sign * hits;
                }
                i = j;
            }
        }
        for (count, &delta) in self.counts.iter_mut().zip(&deltas) {
            let updated = *count as i64 + delta;
            debug_assert!(updated >= 0, "neighbour count went negative");
            *count = updated as usize;
        }
        self.scratch_departures = departures;
        self.scratch_arrivals = arrivals;
        self.scratch_deltas = deltas;
    }
}

/// A build of the full sweep's scatter and count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The target's baseline instruction set.
    Baseline,
    /// AVX2: four `f64` lanes per instruction, and a prefetching
    /// scatter.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The widest build this CPU runs.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Baseline
    }
}

/// The full sweep's scatter and count, the one body both kernels build.
///
/// The scatter writes each mirrored user's coordinates at its cell's
/// cursor, first handing `prefetch` the slot [`PREFETCH_AHEAD`] past it
/// in each buffer. The count runs task-outer over each occupied cell's
/// contiguous residents: four candidate tasks per pass over them, each
/// with its own count, then the remaining candidates one per pass.
/// Each inner loop is a dense branch-free scan the compiler vectorises.
/// The predicate is the exact `dx·dx + dy·dy < R²` of
/// `Point::distance_squared` and the accumulation stays integer `+1`s,
/// so counts are bit-identical to the user-outer order.
#[inline(always)]
fn sweep_body(sweeper: &mut CellSweeper, prefetch: impl Fn(*const f64)) {
    let CellSweeper {
        radius,
        ref tasks,
        ref cand_offsets,
        ref cand_tasks,
        ref mirror,
        ref mirror_cells,
        ref mut counts,
        ref mut sorted_x,
        ref mut sorted_y,
        ref starts,
        ref mut cursor,
        ..
    } = *sweeper;
    for (&c, (&x, &y)) in mirror_cells.iter().zip(mirror.xs().iter().zip(mirror.ys())) {
        let slot = &mut cursor[c as usize];
        let at = *slot as usize;
        prefetch(sorted_x.as_ptr().wrapping_add(at + PREFETCH_AHEAD));
        prefetch(sorted_y.as_ptr().wrapping_add(at + PREFETCH_AHEAD));
        sorted_x[at] = x;
        sorted_y[at] = y;
        *slot += 1;
    }

    let r2 = radius * radius;
    for (cell, span) in starts.windows(2).enumerate() {
        let (lo, hi) = (span[0] as usize, span[1] as usize);
        if lo == hi {
            continue;
        }
        let (xs, ys) = (&sorted_x[lo..hi], &sorted_y[lo..hi]);
        let candidates = &cand_tasks[cand_offsets[cell] as usize..cand_offsets[cell + 1] as usize];
        let mut quads = candidates.chunks_exact(4);
        for quad in &mut quads {
            let quad = [quad[0], quad[1], quad[2], quad[3]];
            let hits = hits4(xs, ys, quad.map(|t| tasks[t as usize]), r2);
            for (t, h) in quad.into_iter().zip(hits) {
                counts[t as usize] += h;
            }
        }
        for &t in quads.remainder() {
            counts[t as usize] += hits(xs, ys, tasks[t as usize], r2);
        }
    }
}

/// Whether the resident at `(x, y)` is strictly within `R` of `task`.
#[inline(always)]
fn hit(x: f64, y: f64, task: Point, r2: f64) -> usize {
    let dx = x - task.x;
    let dy = y - task.y;
    usize::from(dx * dx + dy * dy < r2)
}

/// `task`'s hits among the residents `xs`/`ys`.
#[inline(always)]
fn hits(xs: &[f64], ys: &[f64], task: Point, r2: f64) -> usize {
    xs.iter().zip(ys).map(|(&x, &y)| hit(x, y, task, r2)).sum()
}

/// Four tasks' hits among the residents `xs`/`ys`, in one pass.
#[inline(always)]
fn hits4(xs: &[f64], ys: &[f64], tasks: [Point; 4], r2: f64) -> [usize; 4] {
    let [a, b, c, d] = tasks;
    let (mut ha, mut hb, mut hc, mut hd) = (0usize, 0usize, 0usize, 0usize);
    for (&x, &y) in xs.iter().zip(ys) {
        ha += hit(x, y, a, r2);
        hb += hit(x, y, b, r2);
        hc += hit(x, y, c, r2);
        hd += hit(x, y, d, r2);
    }
    [ha, hb, hc, hd]
}

/// [`sweep_body`] built with AVX2 enabled (and no FMA), its scatter
/// prefetching each destination run.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(sweeper: &mut CellSweeper) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    sweep_body(sweeper, |slot| _mm_prefetch::<_MM_HINT_T0>(slot.cast()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::PositionStore;
    use rand::{Rng, SeedableRng};

    fn naive(tasks: &[Point], users: &[Point], radius: f64) -> Vec<usize> {
        let r2 = radius * radius;
        tasks.iter().map(|&t| users.iter().filter(|u| u.distance_squared(t) < r2).count()).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Reruns the last full sweep (histogram, scatter and count) under
    /// each build this CPU runs, from the same cell tags: each must
    /// leave the sweep's runs, sorted buffers and counts. Only a release
    /// build tests the loops as shipped.
    fn assert_kernels_agree(sweeper: &CellSweeper, label: &str) {
        assert!(sweeper.last_was_full_sweep(), "{label}");
        let mut kernels = vec![Kernel::Baseline];
        match Kernel::detect() {
            Kernel::Baseline => println!("{label}: AVX2 kernel skipped, this CPU lacks AVX2"),
            wide => kernels.push(wide),
        }
        for kernel in kernels {
            let mut rerun = sweeper.clone();
            rerun.sorted_x.fill(f64::NAN);
            rerun.sorted_y.fill(f64::NAN);
            rerun.full_sweep(kernel);
            assert_eq!(rerun.starts, sweeper.starts, "{label}: {kernel:?} runs");
            assert_eq!(bits(&rerun.sorted_x), bits(&sweeper.sorted_x), "{label}: {kernel:?} x");
            assert_eq!(bits(&rerun.sorted_y), bits(&sweeper.sorted_y), "{label}: {kernel:?} y");
            assert_eq!(rerun.counts, sweeper.counts, "{label}: {kernel:?} counts");
        }
    }

    fn sample(area: Rect, rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Point> {
        (0..n).map(|_| area.sample_uniform(rng)).collect()
    }

    #[test]
    fn full_sweep_matches_naive() {
        let area = Rect::square(1000.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCE11);
        let cases =
            [(0, 5, 100.0), (50, 0, 100.0), (300, 25, 150.0), (3000, 25, 150.0), (40, 7, 5000.0)];
        for (n, m, radius) in cases {
            let tasks = sample(area, &mut rng, m);
            let users = sample(area, &mut rng, n);
            let mut sweeper = CellSweeper::new(area, radius, tasks.clone());
            let counts = sweeper.counts(&users).unwrap().to_vec();
            assert_eq!(counts, naive(&tasks, &users, radius), "n={n} m={m} R={radius}");
            assert!(sweeper.last_was_full_sweep());
            assert_eq!(sweeper.moved_last_round(), n);
            assert_kernels_agree(&sweeper, &format!("uniform n={n} m={m} R={radius}"));
        }
    }

    /// FNV-1a over the bits of `values`, continuing from `hash`.
    fn fold_bits(hash: u64, values: &[f64]) -> u64 {
        values.iter().fold(hash, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3))
    }

    #[test]
    fn a_full_sweep_keeps_its_sorted_buffers_bits() {
        // Every 25th user sits on a cell corner. At this cell width a
        // multiply by `1/cell` floors 39 of the 62 column edges
        // differently from the division, so such a mapping moves users
        // between cells and reorders the buffers.
        let area = Rect::square(3000.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5027);
        let tasks = sample(area, &mut rng, 300);
        let users: Vec<Point> = (0..50_000)
            .map(|i| {
                let p = area.sample_uniform(&mut rng);
                if i % 25 == 0 {
                    Point::new(49.0 * (p.x / 49.0).floor(), 49.0 * (p.y / 49.0).floor())
                } else {
                    p
                }
            })
            .collect();
        let mut sweeper = CellSweeper::new(area, 49.0, tasks.clone());
        let counts = sweeper.counts(&users).unwrap().to_vec();
        assert_eq!(counts, naive(&tasks, &users, 49.0));
        let fold =
            fold_bits(fold_bits(0xCBF2_9CE4_8422_2325, &sweeper.sorted_x), &sweeper.sorted_y);
        assert_eq!(fold, 0x8F86_6A13_987E_F52F, "sorted buffers {fold:#018x}");
    }

    #[test]
    fn the_u32_cell_conversion_clamps_like_usize() {
        let grid = Grid { min: Point::new(-3.0, 2.0), cell: 0.75, cols: 7, rows: 1025 };
        let edges = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -0.5,
            -0.0,
            0.0,
            0.74,
            0.75,
            5.25,
            767.9,
            768.0,
            4294967296.0,
            1.8446744073709552e19,
            1e300,
            f64::INFINITY,
        ];
        for &x in &edges {
            for &y in &edges {
                let p = Point::new(grid.min.x + x, grid.min.y + y);
                let c = (((p.x - grid.min.x) / grid.cell) as usize).min(grid.cols - 1);
                let r = (((p.y - grid.min.y) / grid.cell) as usize).min(grid.rows - 1);
                assert_eq!(grid.index(p), (r * grid.cols + c) as u32, "({x}, {y})");
            }
        }
    }

    #[test]
    fn a_crowded_cell_counts_every_candidate_exactly() {
        // 2,565 residents in cell (4, 4) of a 10 × 10 grid, an odd run
        // that leaves a partial vector at the end of each pass, against
        // 1 to 9 tasks inside that cell, each of them a candidate of it:
        // the four-task passes and the one-task remainder both run.
        let area = Rect::square(1000.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x711E);
        let mut in_cell = || Point::new(rng.gen_range(400.0..500.0), rng.gen_range(400.0..500.0));
        let users: Vec<Point> = (0..2_565).map(|_| in_cell()).collect();
        for m in [1, 3, 4, 5, 9] {
            let tasks: Vec<Point> = (0..m).map(|_| in_cell()).collect();
            let mut sweeper = CellSweeper::new(area, 100.0, tasks.clone());
            let counts = sweeper.counts(&users).unwrap().to_vec();
            let cell = sweeper.grid.index(Point::new(450.0, 450.0)) as usize;
            assert_eq!(sweeper.candidates(cell).len(), m);
            assert_eq!(sweeper.starts[cell + 1] - sweeper.starts[cell], users.len() as u32);
            assert_eq!(counts, naive(&tasks, &users, 100.0), "{m} tasks");
            assert_kernels_agree(&sweeper, &format!("{m} tasks in one cell"));
        }
    }

    #[test]
    fn a_radius_tiny_against_the_area_keeps_the_grid_bounded_and_exact() {
        // Cells of R = 1 m over a 1e9 m square would number 1e18.
        let area = Rect::square(1e9).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB16);
        let tasks = sample(area, &mut rng, 6);
        let mut users = sample(area, &mut rng, 20);
        // Users within, on and just past R of the first tasks.
        for (i, &t) in tasks.iter().take(3).enumerate() {
            users.push(Point::new(t.x + 0.5, t.y));
            users.push(Point::new(t.x, t.y - 0.25 * i as f64));
            users.push(Point::new(t.x + 1.0, t.y));
            users.push(Point::new(t.x - 0.8, t.y + 0.8));
        }
        let users: Vec<Point> = users.into_iter().map(|p| area.clamp(p)).collect();
        let mut sweeper = CellSweeper::new(area, 1.0, tasks.clone());
        let grid = sweeper.grid;
        assert!(grid.num_cells() <= 1025 * 1025, "{}x{}", grid.cols, grid.rows);
        let counts = sweeper.counts(&users).unwrap().to_vec();
        assert_eq!(counts, naive(&tasks, &users, 1.0));
        assert!(counts.iter().take(3).all(|&c| c >= 2), "{counts:?}");
    }

    #[test]
    fn delta_rounds_match_naive_under_churn() {
        let area = Rect::square(1000.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDE17A);
        let tasks = sample(area, &mut rng, 30);
        let mut users = sample(area, &mut rng, 250);
        let mut sweeper = CellSweeper::new(area, 140.0, tasks.clone());
        sweeper.counts(&users).unwrap();
        for round in 0..12 {
            for _ in 0..60 {
                let who = rng.gen_range(0..users.len());
                users[who] = area.sample_uniform(&mut rng);
            }
            let counts = sweeper.counts(&users).unwrap().to_vec();
            assert_eq!(counts, naive(&tasks, &users, 140.0), "round {round}");
            assert!(!sweeper.last_was_full_sweep(), "round {round}");
        }
    }

    #[test]
    fn more_than_half_moved_recounts_in_full() {
        let area = Rect::square(2000.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7EAD);
        let tasks = sample(area, &mut rng, 40);
        let mut users = sample(area, &mut rng, 400);
        let mut sweeper = CellSweeper::new(area, 180.0, tasks.clone());
        sweeper.counts(&users).unwrap();
        // Exactly n/2 moved stays a delta round; n/2 + 1 and everyone
        // moving recount in full. Every side of the switch matches naive.
        for (moving, full) in [(200usize, false), (201, true), (400, true), (7, false)] {
            for u in users.iter_mut().take(moving) {
                *u = Point::new(2000.0 - u.x, u.y);
            }
            let counts = sweeper.counts(&users).unwrap().to_vec();
            assert_eq!(counts, naive(&tasks, &users, 180.0), "{moving} moved");
            assert_eq!(sweeper.moved_last_round(), moving);
            assert_eq!(sweeper.last_was_full_sweep(), full, "{moving} moved");
        }
    }

    #[test]
    fn boundary_positions_are_counted_exactly() {
        let area = Rect::square(400.0).unwrap();
        let radius = 100.0;
        // Tasks on cell corners and mid-edges; users exactly at
        // distance R (excluded by the strict predicate), a hair inside,
        // and exactly on cell boundaries.
        let tasks = vec![Point::new(100.0, 100.0), Point::new(200.0, 300.0), Point::new(0.0, 0.0)];
        let users = vec![
            Point::new(200.0, 100.0),         // exactly R from task 0
            Point::new(199.0, 100.0),         // just inside
            Point::new(100.0, 200.0),         // exactly R, on a cell corner
            Point::new(100.0, 100.0),         // coincident with task 0
            Point::new(300.0, 300.0),         // exactly R from task 1
            Point::new(0.0, 99.0),            // near task 2, on the area edge
            Point::new(400.0, 400.0),         // far corner
            Point::new(100.0 + 1e-12, 300.0), // off the boundary by an ulp-ish nudge
        ];
        let mut sweeper = CellSweeper::new(area, radius, tasks.clone());
        let counts = sweeper.counts(&users).unwrap().to_vec();
        assert_eq!(counts, naive(&tasks, &users, radius));
        assert_kernels_agree(&sweeper, "exact boundary");
    }

    #[test]
    fn all_users_in_one_cell_and_oversized_radius() {
        let area = Rect::square(500.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0CE1);
        let tasks = sample(area, &mut rng, 10);
        // Everyone crowded into a single cell.
        let users: Vec<Point> = (0..120)
            .map(|_| Point::new(rng.gen_range(10.0..60.0), rng.gen_range(10.0..60.0)))
            .collect();
        for radius in [70.0, 10_000.0] {
            let mut sweeper = CellSweeper::new(area, radius, tasks.clone());
            let counts = sweeper.counts(&users).unwrap().to_vec();
            assert_eq!(counts, naive(&tasks, &users, radius), "R={radius}");
            assert_kernels_agree(&sweeper, &format!("one cell R={radius}"));
        }
    }

    #[test]
    fn invalid_radius_counts_nothing() {
        let area = Rect::square(100.0).unwrap();
        let tasks = vec![Point::new(50.0, 50.0)];
        let users = vec![Point::new(50.0, 50.0)];
        for radius in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut sweeper = CellSweeper::new(area, radius, tasks.clone());
            assert_eq!(sweeper.counts(&users).unwrap(), &[0], "R={radius}");
        }
    }

    #[test]
    fn tasks_outside_area_still_counted() {
        let area = Rect::square(100.0).unwrap();
        let tasks = vec![Point::new(150.0, 50.0)];
        let users = vec![Point::new(99.0, 50.0), Point::new(10.0, 50.0)];
        let mut sweeper = CellSweeper::new(area, 80.0, tasks.clone());
        assert_eq!(sweeper.counts(&users).unwrap().to_vec(), naive(&tasks, &users, 80.0));
    }

    #[test]
    fn out_of_area_user_errors_and_preserves_state() {
        let area = Rect::square(100.0).unwrap();
        let tasks = vec![Point::new(50.0, 50.0)];
        let mut sweeper = CellSweeper::new(area, 30.0, tasks);
        let good = vec![Point::new(40.0, 50.0)];
        assert_eq!(sweeper.counts(&good).unwrap(), &[1]);
        let bad = vec![Point::new(40.0, 50.0), Point::new(200.0, 0.0)];
        let err = sweeper.counts(&bad).unwrap_err();
        assert!(matches!(err, GeoError::OutOfBounds { point } if point.x == 200.0));
        assert_eq!(sweeper.counts(&good).unwrap(), &[1]);

        // A population of the same size takes the tracked path, which
        // validates and counts the moved users in one pass: a bad user
        // first, in the middle or last, two bad users (the first is
        // named) and a NaN are each refused, and the next good call
        // returns the old counts.
        let good: Vec<Point> = (0..9).map(|i| Point::new(38.0 + f64::from(i), 50.0)).collect();
        assert_eq!(sweeper.counts(&good).unwrap(), &[9]);
        let out = Point::new(-1.0, 50.0);
        let later = Point::new(50.0, 101.0);
        let nan = Point::new(50.0, f64::NAN);
        for (at, first, second) in [
            (0, out, None),
            (4, out, None),
            (8, out, None),
            (2, out, Some((6, later))),
            (3, later, Some((5, out))),
            (5, nan, None),
        ] {
            let mut bad = good.clone();
            bad[at] = first;
            if let Some((at2, p2)) = second {
                bad[at2] = p2;
            }
            let err = sweeper.counts(&bad).unwrap_err();
            assert!(
                matches!(err, GeoError::OutOfBounds { point }
                    if point.x.to_bits() == first.x.to_bits()
                        && point.y.to_bits() == first.y.to_bits()),
                "user {at}: {err}"
            );
            assert_eq!(sweeper.counts(&good).unwrap(), &[9], "after user {at}");
            assert!(!sweeper.last_was_full_sweep(), "after user {at}");
        }
    }

    #[test]
    fn population_change_forces_full_sweep() {
        let area = Rect::square(1000.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6E0);
        let tasks = sample(area, &mut rng, 8);
        let mut sweeper = CellSweeper::new(area, 200.0, tasks.clone());
        let users_a = sample(area, &mut rng, 40);
        sweeper.counts(&users_a).unwrap();
        let users_b = sample(area, &mut rng, 55);
        let counts = sweeper.counts(&users_b).unwrap().to_vec();
        assert_eq!(counts, naive(&tasks, &users_b, 200.0));
        assert!(sweeper.last_was_full_sweep());
    }

    #[test]
    fn soa_store_input_matches_slice_input() {
        // The same positions as a `PositionStore` and as a `&[Point]`:
        // round by round, on both sides of the full-sweep switch, the
        // two sweepers must agree.
        let area = Rect::square(800.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x50A);
        let tasks = sample(area, &mut rng, 12);
        let mut users = sample(area, &mut rng, 150);
        let mut by_point = CellSweeper::new(area, 120.0, tasks.clone());
        let mut by_store = CellSweeper::new(area, 120.0, tasks.clone());
        // Priming, then more than half, exactly half, everyone, a few,
        // and half plus one of the 150 users moving.
        for (round, moving) in [0usize, 100, 75, 150, 9, 76].into_iter().enumerate() {
            for u in users.iter_mut().take(moving) {
                *u = area.sample_uniform(&mut rng);
            }
            let store = PositionStore::from_points(&users);
            let counts = by_point.counts(users.as_slice()).unwrap().to_vec();
            assert_eq!(by_store.counts(&store).unwrap(), counts, "round {round}");
            assert_eq!(counts, naive(&tasks, &users, 120.0), "round {round}");
            let full = round == 0 || moving * 2 > users.len();
            assert_eq!(by_point.last_was_full_sweep(), full, "round {round}");
            assert_eq!(by_store.last_was_full_sweep(), full, "round {round}");
            assert_eq!(by_point.moved_last_round(), by_store.moved_last_round(), "round {round}");
        }
    }
}
