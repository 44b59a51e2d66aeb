//! `paydemand-sim` — the seeded Monte-Carlo simulation engine and
//! experiment harness behind the paper's evaluation (§VI).
//!
//! The paper evaluates its mechanism purely in simulation; this crate
//! *is* that simulator, rebuilt:
//!
//! * [`Scenario`] — a complete experiment description (area, tasks,
//!   users, economics, mechanism, selector, seed), with the paper's §VI
//!   constants as [`Scenario::paper_default`];
//! * [`engine`] — the round loop of Fig. 1: publish → select → perform
//!   → upload → demand-recalculate, with users processed in random
//!   order against live task availability; exposed both as one-shot
//!   `run*` functions and as a resumable [`Engine`] with round-granular
//!   checkpoints and deterministic fault injection ([`FaultPlan`]);
//! * [`metrics`] — coverage, overall completeness, measurement counts
//!   and variance, reward per measurement, per-user profit;
//! * [`stats`] — summary statistics, five-number boxplot summaries and
//!   confidence intervals over repetitions;
//! * [`runner`] — deterministic multi-repetition execution (optionally
//!   parallel across repetitions);
//! * [`experiments`] — one module per paper figure (Figs. 5–9), each
//!   regenerating the corresponding series;
//! * [`report`] — text tables and CSV for everything above;
//! * [`frame`] — the checksum, cursor, header, record log and atomic
//!   write behind every durable format (PDCK checkpoints, PDTJ
//!   journals, and the daemon's WAL and lineage index).
//!
//! # Examples
//!
//! ```
//! use paydemand_sim::{MechanismKind, Scenario, SelectorKind};
//!
//! let scenario = Scenario::paper_default()
//!     .with_users(60)
//!     .with_mechanism(MechanismKind::OnDemand)
//!     .with_selector(SelectorKind::GreedyTwoOpt)
//!     .with_seed(42);
//! let result = paydemand_sim::engine::run(&scenario)?;
//! assert!(result.coverage() > 0.0);
//! # Ok::<(), paydemand_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod checkpoint;
mod contributions;
pub mod engine;
mod error;
pub mod experiments;
pub mod frame;
pub mod metrics;
pub mod presets;
pub mod quality;
pub mod replay;
pub mod report;
pub mod runner;
pub mod sat;
mod scenario;
pub mod sensing;
pub mod stats;
pub mod sweep;
pub mod trace;
mod workload;

pub use engine::{
    Engine, EventOutcome, ExternalEvent, RoundRecord, SimulationResult, TaskStatus, UserRound,
};
pub use error::SimError;
pub use paydemand_core::selection::SelectorKind;
pub use paydemand_core::IndexingMode;
pub use paydemand_faults::{FaultKind, FaultPlan};
pub use replay::{ReplayError, ReplaySummary};
pub use scenario::{MechanismKind, Scenario, TravelModel, UserMotion};
pub use workload::Workload;
