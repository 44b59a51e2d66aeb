//! `paydemand-core` — the paper's contribution: a demand-based dynamic
//! incentive mechanism and distributed task selection for
//! location-dependent mobile crowdsensing (Wang et al., ICDCS 2018).
//!
//! # The system in one paragraph
//!
//! A platform publishes `m` location-dependent sensing tasks, each with
//! a deadline `τ_i` (in sensing rounds) and a required number of
//! independent measurements `φ_i`. Rational mobile users, each with a
//! per-round travel budget, select a profitable set of tasks to visit
//! ([`selection`]), perform them, and upload measurements. At every
//! round boundary the platform recomputes each task's **demand
//! indicator** ([`demand`]) — blending deadline pressure, completion
//! progress and local user density with AHP-derived weights — buckets
//! it into **demand levels** ([`DemandLevels`]) and pays **on-demand
//! rewards** ([`RewardSchedule`], [`incentive::OnDemandIncentive`])
//! under a global budget. Baseline mechanisms
//! ([`incentive::FixedIncentive`], [`incentive::SteeredIncentive`]) plug
//! into the same [`incentive::IncentiveMechanism`] trait, and each
//! [`selection::SelectorKind`] names one selection algorithm, which is
//! how the evaluation harness compares them.
//!
//! # Examples
//!
//! One round of the full pipeline on a toy scenario:
//!
//! ```
//! use paydemand_core::incentive::{IncentiveMechanism, OnDemandIncentive};
//! use paydemand_core::selection::{SelectionProblem, SelectorKind};
//! use paydemand_core::{Platform, TaskId, TaskSpec, UserId};
//! use paydemand_geo::{Point, Rect};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let area = Rect::square(1000.0)?;
//! let specs = vec![
//!     TaskSpec::new(TaskId(0), Point::new(100.0, 100.0), 10, 3)?,
//!     TaskSpec::new(TaskId(1), Point::new(900.0, 900.0), 10, 3)?,
//! ];
//! let mechanism = OnDemandIncentive::paper_default(&specs)?;
//! let mut platform = Platform::new(specs, mechanism, area, 1000.0)?;
//!
//! // Round 1: publish rewards given current user locations.
//! let users = vec![Point::new(120.0, 80.0)];
//! let published = platform.publish_round(&users, &mut rng)?;
//!
//! // The user selects tasks to maximise profit within a 1 km walk.
//! let problem = SelectionProblem::new(users[0], &published, 500.0, 2.0, 0.002)?;
//! let (outcome, _) = SelectorKind::exact_dp().solve(&problem)?;
//! for &task in outcome.tasks() {
//!     platform.submit(UserId(0), task)?;
//! }
//! platform.finish_round();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod demand;
mod error;
mod ids;
pub mod incentive;
mod levels;
pub mod neighbors;
mod platform;
mod reward;
pub mod selection;
mod task;

pub use demand::{DemandCriteria, DemandIndicator, DemandWeights};
pub use error::CoreError;
pub use ids::{TaskId, UserId};
pub use incentive::DemandBreakdown;
pub use levels::DemandLevels;
pub use neighbors::{naive_counts_in, CellSweepCounter, IndexingMode};
pub use platform::{Platform, PlatformState, RoundContext, TaskProgress};
pub use reward::RewardSchedule;
pub use task::{PublishedTask, TaskSpec};
