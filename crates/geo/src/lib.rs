//! 2-D geometry substrate for the `paydemand` crowdsensing simulator.
//!
//! The paper places sensing tasks and mobile users in a flat Euclidean
//! region (a 3000 m × 3000 m square in its evaluation) and repeatedly asks
//! three spatial questions:
//!
//! 1. *How far apart are two entities?* — [`Point::distance`] and
//!    [`DistanceMatrix`].
//! 2. *How many users are within radius `R` of a task?* (the "neighbouring
//!    mobile users" criterion of the demand indicator) —
//!    [`CellSweeper::counts`] / [`KdTree::within_radius`].
//! 3. *Where do entities start, and how do they move between rounds?* —
//!    [`placement`] samplers and the random-waypoint [`mobility`] model.
//!
//! Everything here is deterministic given an explicit [`rand::Rng`]; no
//! hidden global randomness.
//!
//! # Examples
//!
//! ```
//! use paydemand_geo::{CellSweeper, Point, Rect};
//!
//! let area = Rect::new(Point::ORIGIN, Point::new(3000.0, 3000.0))?;
//! let tasks = vec![Point::new(0.0, 0.0), Point::new(2950.0, 40.0)];
//! let users = vec![Point::new(10.0, 10.0), Point::new(2900.0, 40.0)];
//! let mut sweeper = CellSweeper::new(area, 50.0, tasks);
//! assert_eq!(sweeper.counts(&users)?, &[1, 0]);
//! # Ok::<(), paydemand_geo::GeoError>(())
//! ```

// One `unsafe` block, allowed where it stands: the call into the
// AVX2 build of the full cell sweep, after the CPU reported AVX2.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cell_sweep;
mod error;
mod kdtree;
mod matrix;
pub mod mobility;
pub mod network;
pub mod placement;
mod point;
pub(crate) mod rand_util;
mod rect;
mod soa;

pub use cell_sweep::CellSweeper;
pub use error::GeoError;
pub use kdtree::KdTree;
pub use matrix::DistanceMatrix;
pub use placement::PlacementSampler;
pub use point::Point;
pub use rect::Rect;
pub use soa::{PositionStore, Positions};
