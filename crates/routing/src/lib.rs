//! Path-optimisation substrate for distributed task selection.
//!
//! The paper's task-selection problem (§V, Eq. 1) asks each user to pick
//! the subset of task locations, and an order to visit them, maximising
//! `total reward − travel cost` subject to a travel budget. Theorem 1
//! reduces the orienteering problem to it, so it is NP-hard. This crate
//! implements the machinery:
//!
//! * [`CostMatrix`] — distances from the start location to each task,
//!   and between tasks: Euclidean ones computed from the task points on
//!   demand, non-Euclidean ones (`CostMatrix::from_fn`) from an explicit
//!   table;
//! * [`subset_dp`] — the paper's bitmask dynamic program over
//!   `dp[mask][j]` (Eq. 11–12), with budget pruning so that only
//!   reachable subsets are expanded, kept in one arena in the order the
//!   masks were reached;
//! * [`orienteering`] — exact profit maximisation on top of the DP
//!   (the paper's "dynamic programming based task selection algorithm"),
//!   the `O(m²)` marginal-profit greedy (Theorem 3), and a 2-opt
//!   route-improvement pass, each reporting its work as [`SolveStats`].
//!
//! # Examples
//!
//! ```
//! use paydemand_geo::Point;
//! use paydemand_routing::{orienteering, CostMatrix};
//!
//! let costs = CostMatrix::from_points(
//!     Point::new(0.0, 0.0),
//!     &[Point::new(100.0, 0.0), Point::new(0.0, 100.0)],
//! );
//! let instance = orienteering::Instance::new(&costs, &[5.0, 5.0], 300.0, 0.002)?;
//! let (best, stats) = orienteering::solve_exact(&instance)?;
//! assert_eq!(best.order.len(), 2); // both tasks fit in the budget
//! assert!(best.profit > 0.0);
//! assert!(stats.states_expanded > 0);
//! # Ok::<(), paydemand_routing::RoutingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod branch_bound;
mod cost_matrix;
mod error;
pub mod insertion;
pub mod orienteering;
pub mod subset_dp;
pub mod two_opt;

pub use cost_matrix::CostMatrix;
pub use error::RoutingError;
pub use orienteering::SolveStats;
pub use subset_dp::SubsetDp;
