//! Compact binary event traces of a simulation run.
//!
//! A 100-repetition sweep produces millions of submission events;
//! keeping them as structs would dwarf the simulation state. This
//! module encodes the event stream into a length-prefixed binary frame
//! format (via `bytes`) that is two orders of magnitude smaller, can be
//! persisted, and decodes back losslessly — the substrate for replay
//! debugging and offline metric recomputation.
//!
//! The stream is the **decision journal** ([`TraceWriter::journal`]): a
//! 5-byte `PDTJ` + version header followed by the round's frames —
//! publishes, payments and completions, plus per-task demand
//! breakdowns, per-user selection decisions, budget trajectory and
//! fault events. This is what [`crate::replay`] verifies and the
//! `paydemand trace` CLI explains; [`decode`] refuses bytes without
//! the header.
//!
//! # Wire format
//!
//! After the header, every frame starts with a 1-byte tag. Integers
//! are little-endian; floats are IEEE-754 bit patterns (bit-exact
//! round-trips).
//!
//! | tag | frame | payload |
//! |-----|-------|---------|
//! | 1 | `RoundStart` | `u32` round |
//! | 2 | `Publish` | `u32` task, `f64` reward |
//! | 3 | `Submit` | `u32` user, `u32` task, `f64` reward paid |
//! | 4 | `RoundEnd` | `u32` round |
//! | 5 | `TaskComplete` | `u32` task, `u32` round |
//! | 6 | `TaskDemand` | `u32` task, `f64`×4 criteria+score, `u32` level, `f64` reward, `u8` stale |
//! | 7 | `Selection` | `u32` user, `u8` solver, `u32` candidates, `u32` len, len×`u32` route, `f64` profit, `u64`×3 work counters |
//! | 8 | `Budget` | `u32` round, `f64` total paid, `u8` flag, [`f64` cap] |
//! | 9 | `Fault` | `u32` round, `u8` kind, `u32` user, `u32` task, `f64` detail |
//!
//! # Examples
//!
//! ```
//! use paydemand_sim::trace::{TraceEvent, TraceWriter};
//!
//! let mut writer = TraceWriter::journal();
//! writer.record(TraceEvent::RoundStart { round: 1 });
//! writer.record(TraceEvent::Submit { user: 3, task: 7, reward: 1.5 });
//! writer.record(TraceEvent::RoundEnd { round: 1 });
//! let bytes = writer.finish();
//! let events = paydemand_sim::trace::decode(&bytes)?;
//! assert_eq!(events.len(), 3);
//! # Ok::<(), paydemand_sim::trace::TraceError>(())
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::frame::{Cursor, CursorError, Header, HeaderError};

/// Decision-journal format version.
pub const JOURNAL_VERSION: u8 = 2;
const JOURNAL: Header = Header { magic: *b"PDTJ", version: JOURNAL_VERSION };

/// Fault-frame kind: a demand-recompute outage forced stale repricing.
pub const FAULT_STALE_PRICING: u8 = 0;
/// Fault-frame kind: a budget shock rescaled the remaining budget.
pub const FAULT_BUDGET_SHOCK: u8 = 1;
/// Fault-frame kind: the injector took a user offline this round.
pub const FAULT_USER_OFFLINE: u8 = 2;
/// Fault-frame kind: an upload was dropped (sensed, never delivered).
pub const FAULT_UPLOAD_DROPPED: u8 = 3;
/// Fault-frame kind: an upload was delayed into the retry queue.
pub const FAULT_UPLOAD_DELAYED: u8 = 4;
const FAULT_KIND_MAX: u8 = FAULT_UPLOAD_DELAYED;

/// Human-readable label for a [`TraceEvent::Fault`] kind byte.
#[must_use]
pub fn fault_kind_label(kind: u8) -> &'static str {
    match kind {
        FAULT_STALE_PRICING => "stale-pricing",
        FAULT_BUDGET_SHOCK => "budget-shock",
        FAULT_USER_OFFLINE => "user-offline",
        FAULT_UPLOAD_DROPPED => "upload-dropped",
        FAULT_UPLOAD_DELAYED => "upload-delayed",
        _ => "unknown",
    }
}

/// Selector code recorded in [`TraceEvent::Selection`] frames.
#[must_use]
pub fn solver_label(solver: u8) -> &'static str {
    match solver {
        0 => "dp",
        1 => "greedy",
        2 => "greedy2opt",
        3 => "insertion",
        4 => "branch-bound",
        _ => "unknown",
    }
}

/// One event in a simulation's life.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A sensing round opened.
    RoundStart {
        /// 1-based round number.
        round: u32,
    },
    /// A task was published with a reward this round.
    Publish {
        /// Task index.
        task: u32,
        /// Offered reward per measurement.
        reward: f64,
    },
    /// A user submitted one measurement and was paid.
    Submit {
        /// User index.
        user: u32,
        /// Task index.
        task: u32,
        /// Reward paid.
        reward: f64,
    },
    /// A sensing round closed.
    RoundEnd {
        /// 1-based round number.
        round: u32,
    },
    /// A task reached its required measurement count.
    TaskComplete {
        /// Task index.
        task: u32,
        /// Round of completion.
        round: u32,
    },
    /// Why one task was priced the way it was this round (Eq. 2–7).
    /// On stale-repricing rounds the criteria are not recomputed: the
    /// frame carries zeros, `level` 0 and `stale: true`.
    TaskDemand {
        /// Task index.
        task: u32,
        /// Deadline criterion `X₁` (Eq. 3).
        deadline_criterion: f64,
        /// Progress criterion `X₂` (Eq. 4).
        progress_criterion: f64,
        /// Neighbour-scarcity criterion `X₃` (Eq. 5).
        scarcity_criterion: f64,
        /// Normalised AHP-weighted demand score `d̄ ∈ [0, 1]`.
        score: f64,
        /// Mapped demand level (1-based; 0 on stale rounds).
        level: u32,
        /// Reward actually posted (0 when withheld under a spend cap).
        reward: f64,
        /// Whether this round re-posted stale prices (demand outage).
        stale: bool,
    },
    /// One user's route-selection decision this round (Eq. 11–12).
    Selection {
        /// User index.
        user: u32,
        /// Solver code; see [`solver_label`].
        solver: u8,
        /// Candidate tasks available to this user before solving.
        candidates: u32,
        /// Chosen route, in visit order (task indices).
        route: Vec<u32>,
        /// Predicted profit of the chosen route.
        profit: f64,
        /// DP/branch-bound states expanded while solving.
        states_expanded: u64,
        /// Branch-bound nodes pruned.
        nodes_pruned: u64,
        /// Greedy/insertion ranking iterations.
        iterations: u64,
    },
    /// Budget trajectory at a round boundary.
    Budget {
        /// 1-based round number just closed.
        round: u32,
        /// Cumulative rewards paid by the platform.
        total_paid: f64,
        /// The active spend cap, if payments are capped.
        spend_cap: Option<f64>,
    },
    /// A fault-injection event the engine degraded through.
    Fault {
        /// 1-based round number.
        round: u32,
        /// Kind byte; see [`fault_kind_label`].
        kind: u8,
        /// Affected user (`u32::MAX` when not user-specific).
        user: u32,
        /// Affected task (`u32::MAX` when not task-specific).
        task: u32,
        /// Kind-specific detail: shock factor, delay rounds, else 0.
        detail: f64,
    },
}

const TAG_ROUND_START: u8 = 1;
const TAG_PUBLISH: u8 = 2;
const TAG_SUBMIT: u8 = 3;
const TAG_ROUND_END: u8 = 4;
const TAG_TASK_COMPLETE: u8 = 5;
const TAG_TASK_DEMAND: u8 = 6;
const TAG_SELECTION: u8 = 7;
const TAG_BUDGET: u8 = 8;
const TAG_FAULT: u8 = 9;

/// Errors produced when decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The buffer ended in the middle of a frame.
    Truncated,
    /// An unknown frame tag was encountered.
    UnknownTag(u8),
    /// The buffer does not open with the `PDTJ` journal header.
    MissingHeader,
    /// A `PDTJ` journal header with a version this build cannot read.
    UnsupportedVersion(u8),
    /// A boolean flag byte was neither 0 nor 1.
    InvalidFlag(u8),
    /// A fault frame carried an out-of-range kind byte.
    InvalidFaultKind(u8),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace ended mid-frame"),
            TraceError::UnknownTag(tag) => write!(f, "unknown trace frame tag {tag}"),
            TraceError::MissingHeader => write!(f, "not a decision journal: no PDTJ header"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace journal version {v} (this build reads {JOURNAL_VERSION})"
                )
            }
            TraceError::InvalidFlag(b) => write!(f, "invalid flag byte {b} (must be 0 or 1)"),
            TraceError::InvalidFaultKind(k) => write!(f, "invalid fault kind byte {k}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<CursorError> for TraceError {
    fn from(e: CursorError) -> Self {
        match e {
            CursorError::Truncated { .. } => TraceError::Truncated,
            CursorError::InvalidFlag(b) => TraceError::InvalidFlag(b),
        }
    }
}

/// Encodes [`TraceEvent`]s into a compact byte buffer.
#[derive(Debug)]
pub struct TraceWriter {
    buf: BytesMut,
    events: usize,
}

impl TraceWriter {
    /// Creates a decision-journal writer: the stream opens with the
    /// `PDTJ` magic and a version byte, so decoders can refuse frames
    /// they do not understand instead of misparsing them.
    #[must_use]
    pub fn journal() -> Self {
        let mut buf = BytesMut::with_capacity(4096);
        buf.put_slice(&JOURNAL.bytes());
        TraceWriter { buf, events: 0 }
    }

    /// Appends one event.
    pub fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::RoundStart { round } => {
                self.buf.put_u8(TAG_ROUND_START);
                self.buf.put_u32_le(round);
            }
            TraceEvent::Publish { task, reward } => {
                self.buf.put_u8(TAG_PUBLISH);
                self.buf.put_u32_le(task);
                self.buf.put_f64_le(reward);
            }
            TraceEvent::Submit { user, task, reward } => {
                self.buf.put_u8(TAG_SUBMIT);
                self.buf.put_u32_le(user);
                self.buf.put_u32_le(task);
                self.buf.put_f64_le(reward);
            }
            TraceEvent::RoundEnd { round } => {
                self.buf.put_u8(TAG_ROUND_END);
                self.buf.put_u32_le(round);
            }
            TraceEvent::TaskComplete { task, round } => {
                self.buf.put_u8(TAG_TASK_COMPLETE);
                self.buf.put_u32_le(task);
                self.buf.put_u32_le(round);
            }
            TraceEvent::TaskDemand {
                task,
                deadline_criterion,
                progress_criterion,
                scarcity_criterion,
                score,
                level,
                reward,
                stale,
            } => {
                self.buf.put_u8(TAG_TASK_DEMAND);
                self.buf.put_u32_le(task);
                self.buf.put_f64_le(deadline_criterion);
                self.buf.put_f64_le(progress_criterion);
                self.buf.put_f64_le(scarcity_criterion);
                self.buf.put_f64_le(score);
                self.buf.put_u32_le(level);
                self.buf.put_f64_le(reward);
                self.buf.put_u8(u8::from(stale));
            }
            TraceEvent::Selection {
                user,
                solver,
                candidates,
                route,
                profit,
                states_expanded,
                nodes_pruned,
                iterations,
            } => {
                self.buf.put_u8(TAG_SELECTION);
                self.buf.put_u32_le(user);
                self.buf.put_u8(solver);
                self.buf.put_u32_le(candidates);
                self.buf.put_u32_le(route.len() as u32);
                for task in route {
                    self.buf.put_u32_le(task);
                }
                self.buf.put_f64_le(profit);
                self.buf.put_u64_le(states_expanded);
                self.buf.put_u64_le(nodes_pruned);
                self.buf.put_u64_le(iterations);
            }
            TraceEvent::Budget { round, total_paid, spend_cap } => {
                self.buf.put_u8(TAG_BUDGET);
                self.buf.put_u32_le(round);
                self.buf.put_f64_le(total_paid);
                match spend_cap {
                    Some(cap) => {
                        self.buf.put_u8(1);
                        self.buf.put_f64_le(cap);
                    }
                    None => self.buf.put_u8(0),
                }
            }
            TraceEvent::Fault { round, kind, user, task, detail } => {
                self.buf.put_u8(TAG_FAULT);
                self.buf.put_u32_le(round);
                self.buf.put_u8(kind);
                self.buf.put_u32_le(user);
                self.buf.put_u32_le(task);
                self.buf.put_f64_le(detail);
            }
        }
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Finalises the trace, returning the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Decodes a `PDTJ` journal back into events. Every read is
/// bounds-checked: corrupt input is a [`TraceError`], never a panic.
///
/// # Errors
///
/// [`TraceError::MissingHeader`] for bytes that do not open with the
/// `PDTJ` magic, [`TraceError::Truncated`] for a cut-off buffer,
/// [`TraceError::UnknownTag`] / [`TraceError::InvalidFlag`] /
/// [`TraceError::InvalidFaultKind`] for corrupt data, and
/// [`TraceError::UnsupportedVersion`] for a journal from a newer build.
pub fn decode(buf: &[u8]) -> Result<Vec<TraceEvent>, TraceError> {
    let mut r = Cursor::new(buf);
    JOURNAL.check(&mut r).map_err(|e| match e {
        HeaderError::Version(v) => TraceError::UnsupportedVersion(v),
        HeaderError::Truncated(_) if buf.starts_with(&JOURNAL.magic) => TraceError::Truncated,
        HeaderError::Truncated(_) | HeaderError::Magic => TraceError::MissingHeader,
    })?;
    let mut events = Vec::new();
    while r.remaining() > 0 {
        let tag = r.u8()?;
        let event = match tag {
            TAG_ROUND_START => TraceEvent::RoundStart { round: r.u32()? },
            TAG_PUBLISH => TraceEvent::Publish { task: r.u32()?, reward: r.f64()? },
            TAG_SUBMIT => TraceEvent::Submit { user: r.u32()?, task: r.u32()?, reward: r.f64()? },
            TAG_ROUND_END => TraceEvent::RoundEnd { round: r.u32()? },
            TAG_TASK_COMPLETE => TraceEvent::TaskComplete { task: r.u32()?, round: r.u32()? },
            TAG_TASK_DEMAND => TraceEvent::TaskDemand {
                task: r.u32()?,
                deadline_criterion: r.f64()?,
                progress_criterion: r.f64()?,
                scarcity_criterion: r.f64()?,
                score: r.f64()?,
                level: r.u32()?,
                reward: r.f64()?,
                stale: r.flag()?,
            },
            TAG_SELECTION => {
                let user = r.u32()?;
                let solver = r.u8()?;
                let candidates = r.u32()?;
                let len = r.u32()? as usize;
                // Bound the route by the bytes actually present before
                // allocating, so a corrupt length cannot OOM.
                r.need(len.checked_mul(4).ok_or(TraceError::Truncated)?)?;
                let mut route = Vec::with_capacity(len);
                for _ in 0..len {
                    route.push(r.u32()?);
                }
                TraceEvent::Selection {
                    user,
                    solver,
                    candidates,
                    route,
                    profit: r.f64()?,
                    states_expanded: r.u64()?,
                    nodes_pruned: r.u64()?,
                    iterations: r.u64()?,
                }
            }
            TAG_BUDGET => {
                let round = r.u32()?;
                let total_paid = r.f64()?;
                let spend_cap = if r.flag()? { Some(r.f64()?) } else { None };
                TraceEvent::Budget { round, total_paid, spend_cap }
            }
            TAG_FAULT => {
                let round = r.u32()?;
                let kind = r.u8()?;
                if kind > FAULT_KIND_MAX {
                    return Err(TraceError::InvalidFaultKind(kind));
                }
                TraceEvent::Fault { round, kind, user: r.u32()?, task: r.u32()?, detail: r.f64()? }
            }
            other => return Err(TraceError::UnknownTag(other)),
        };
        events.push(event);
    }
    Ok(events)
}

/// The engine's trace hook: a journal writer when enabled, a true no-op
/// (no allocation, no clock, no RNG) when disabled — mirroring the
/// `Recorder`'s disabled-is-free contract so trace-enabled runs stay
/// bitwise identical to trace-disabled ones.
#[derive(Debug, Default)]
pub struct TraceSink {
    writer: Option<TraceWriter>,
}

impl TraceSink {
    /// The inert sink: records nothing, costs nothing.
    #[must_use]
    pub fn disabled() -> Self {
        TraceSink { writer: None }
    }

    /// A sink backed by a fresh decision-journal writer.
    #[must_use]
    pub fn journal() -> Self {
        TraceSink { writer: Some(TraceWriter::journal()) }
    }

    /// Whether events are being captured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.writer.is_some()
    }

    /// Records one event (no-op when disabled).
    pub fn record(&mut self, event: TraceEvent) {
        if let Some(w) = &mut self.writer {
            w.record(event);
        }
    }

    /// Frames recorded so far (0 when disabled).
    #[must_use]
    pub fn frames(&self) -> usize {
        self.writer.as_ref().map_or(0, TraceWriter::len)
    }

    /// Finalises the sink, returning the journal bytes if enabled.
    #[must_use]
    pub fn finish(self) -> Option<Bytes> {
        self.writer.map(TraceWriter::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decision_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundStart { round: 1 },
            TraceEvent::Fault {
                round: 1,
                kind: FAULT_BUDGET_SHOCK,
                user: u32::MAX,
                task: u32::MAX,
                detail: 0.5,
            },
            TraceEvent::Publish { task: 3, reward: 2.5 },
            TraceEvent::TaskDemand {
                task: 3,
                deadline_criterion: 0.25,
                progress_criterion: 0.5,
                scarcity_criterion: 0.125,
                score: 0.4375,
                level: 3,
                reward: 2.5,
                stale: false,
            },
            TraceEvent::Selection {
                user: 17,
                solver: 0,
                candidates: 5,
                route: vec![3, 1, 4],
                profit: 1.25,
                states_expanded: 99,
                nodes_pruned: 7,
                iterations: 3,
            },
            TraceEvent::Submit { user: 17, task: 3, reward: 2.5 },
            TraceEvent::TaskComplete { task: 3, round: 1 },
            TraceEvent::Budget { round: 1, total_paid: 2.5, spend_cap: Some(1000.0) },
            TraceEvent::RoundEnd { round: 1 },
        ]
    }

    #[test]
    fn journal_roundtrips_decision_frames() {
        let events = decision_events();
        let mut w = TraceWriter::journal();
        for e in &events {
            w.record(e.clone());
        }
        assert_eq!(w.len(), events.len());
        let bytes = w.finish();
        assert!(bytes.starts_with(b"PDTJ"));
        assert_eq!(decode(&bytes).unwrap(), events);
        // An empty journal is just its header and decodes to nothing.
        let empty = TraceWriter::journal();
        assert!(empty.is_empty());
        let empty = empty.finish();
        assert_eq!(empty.len(), 5);
        assert!(decode(&empty).unwrap().is_empty());
    }

    #[test]
    fn headerless_bytes_are_refused() {
        assert_eq!(decode(&[]), Err(TraceError::MissingHeader));
        // A headerless `RoundStart { round: 1 }` frame.
        assert_eq!(decode(&[1, 1, 0, 0, 0]), Err(TraceError::MissingHeader));
        assert_eq!(decode(b"PD"), Err(TraceError::MissingHeader));
    }

    #[test]
    fn journal_versions_from_the_future_are_refused() {
        let mut bytes = TraceWriter::journal().finish().to_vec();
        bytes[4] = 99;
        assert_eq!(decode(&bytes), Err(TraceError::UnsupportedVersion(99)));
        // A magic with no version byte is truncated, not a panic.
        assert_eq!(decode(b"PDTJ"), Err(TraceError::Truncated));
    }

    #[test]
    fn budget_frame_encodes_both_cap_states() {
        for cap in [None, Some(250.0)] {
            let mut w = TraceWriter::journal();
            w.record(TraceEvent::Budget { round: 4, total_paid: 17.5, spend_cap: cap });
            let events = decode(&w.finish()).unwrap();
            assert_eq!(
                events,
                vec![TraceEvent::Budget { round: 4, total_paid: 17.5, spend_cap: cap }]
            );
        }
    }

    #[test]
    fn invalid_flag_and_fault_kind_bytes_are_errors() {
        // Budget frame with flag byte 2.
        let mut w = TraceWriter::journal();
        w.record(TraceEvent::Budget { round: 1, total_paid: 0.0, spend_cap: None });
        let mut bytes = w.finish().to_vec();
        let flag_at = bytes.len() - 1;
        bytes[flag_at] = 2;
        assert_eq!(decode(&bytes), Err(TraceError::InvalidFlag(2)));

        // TaskDemand stale byte 7.
        let mut w = TraceWriter::journal();
        w.record(TraceEvent::TaskDemand {
            task: 0,
            deadline_criterion: 0.0,
            progress_criterion: 0.0,
            scarcity_criterion: 0.0,
            score: 0.0,
            level: 1,
            reward: 0.5,
            stale: false,
        });
        let mut bytes = w.finish().to_vec();
        let stale_at = bytes.len() - 1;
        bytes[stale_at] = 7;
        assert_eq!(decode(&bytes), Err(TraceError::InvalidFlag(7)));

        // Fault frame with kind byte past the known range.
        let mut w = TraceWriter::journal();
        w.record(TraceEvent::Fault { round: 1, kind: 0, user: 0, task: 0, detail: 0.0 });
        let mut bytes = w.finish().to_vec();
        bytes[5 + 1 + 4] = FAULT_KIND_MAX + 1;
        assert_eq!(decode(&bytes), Err(TraceError::InvalidFaultKind(FAULT_KIND_MAX + 1)));
    }

    #[test]
    fn corrupt_selection_route_length_cannot_allocate_unbounded() {
        let mut w = TraceWriter::journal();
        w.record(TraceEvent::Selection {
            user: 1,
            solver: 1,
            candidates: 2,
            route: vec![5],
            profit: 0.0,
            states_expanded: 0,
            nodes_pruned: 0,
            iterations: 0,
        });
        let mut bytes = w.finish().to_vec();
        // The route length u32 sits after header(5) + tag + user + solver + candidates.
        let len_at = 5 + 1 + 4 + 1 + 4;
        bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(TraceError::Truncated));
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let mut w = TraceWriter::journal();
        w.record(TraceEvent::Submit { user: 1, task: 2, reward: 3.0 });
        let bytes = w.finish();
        for cut in 6..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]),
                Err(TraceError::Truncated),
                "cut at {cut} should be truncated"
            );
        }
    }

    #[test]
    fn every_truncation_of_a_journal_errors_cleanly() {
        let mut w = TraceWriter::journal();
        for e in &decision_events() {
            w.record(e.clone());
        }
        let bytes = w.finish();
        // Cuts inside the magic leave no header.
        for cut in 0..4 {
            assert_eq!(decode(&bytes[..cut]), Err(TraceError::MissingHeader));
        }
        // Magic with no version byte is truncated; from the header on,
        // every cut either lands exactly on a frame boundary (a clean
        // event prefix) or mid-frame (Truncated) — never panics, never
        // fabricates events.
        assert_eq!(decode(&bytes[..4]), Err(TraceError::Truncated));
        let events = decision_events();
        for cut in 5..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(prefix) => assert_eq!(prefix, events[..prefix.len()], "cut at {cut}"),
                Err(err) => assert_eq!(err, TraceError::Truncated, "cut at {cut}"),
            }
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        for tag in [0xFF, 0x00] {
            let mut bytes = TraceWriter::journal().finish().to_vec();
            bytes.push(tag);
            assert_eq!(decode(&bytes), Err(TraceError::UnknownTag(tag)));
        }
    }

    #[test]
    fn sink_disabled_is_inert_and_enabled_captures() {
        let mut off = TraceSink::disabled();
        assert!(!off.is_enabled());
        off.record(TraceEvent::RoundStart { round: 1 });
        assert_eq!(off.frames(), 0);
        assert!(off.finish().is_none());

        let mut on = TraceSink::journal();
        assert!(on.is_enabled());
        on.record(TraceEvent::RoundStart { round: 1 });
        assert_eq!(on.frames(), 1);
        let bytes = on.finish().unwrap();
        assert_eq!(decode(&bytes).unwrap(), vec![TraceEvent::RoundStart { round: 1 }]);
    }

    #[test]
    fn trace_is_far_smaller_than_debug_text() {
        let mut w = TraceWriter::journal();
        for i in 0..1000u32 {
            w.record(TraceEvent::Submit { user: i, task: i % 20, reward: 1.5 });
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 5 + 1000 * 17);
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            (0u32..1000).prop_map(|round| TraceEvent::RoundStart { round }),
            (0u32..1000, -1e3..1e3f64)
                .prop_map(|(task, reward)| TraceEvent::Publish { task, reward }),
            (0u32..1000, 0u32..1000, -1e3..1e3f64)
                .prop_map(|(user, task, reward)| TraceEvent::Submit { user, task, reward }),
            (0u32..1000).prop_map(|round| TraceEvent::RoundEnd { round }),
            (0u32..1000, 0u32..1000)
                .prop_map(|(task, round)| TraceEvent::TaskComplete { task, round }),
            ((0u32..1000, 0.0..1.0f64, 0.0..1.0f64), (1u32..6, 0.5..2.5f64, ..)).prop_map(
                |((task, x, score), (level, reward, stale))| TraceEvent::TaskDemand {
                    task,
                    deadline_criterion: x,
                    progress_criterion: score * x,
                    scarcity_criterion: x * 0.5,
                    score,
                    level,
                    reward,
                    stale,
                }
            ),
            (
                0u32..1000,
                0u8..5,
                0u32..50,
                proptest::collection::vec(0u32..1000, 0..8),
                -1e3..1e3f64,
                0u64..1_000_000,
            )
                .prop_map(|(user, solver, candidates, route, profit, work)| {
                    TraceEvent::Selection {
                        user,
                        solver,
                        candidates,
                        route,
                        profit,
                        states_expanded: work,
                        nodes_pruned: work / 2,
                        iterations: work / 3,
                    }
                }),
            (0u32..1000, 0.0..1e4f64, .., 0.0..1e4f64).prop_map(
                |(round, total_paid, capped, cap)| TraceEvent::Budget {
                    round,
                    total_paid,
                    spend_cap: capped.then_some(cap),
                }
            ),
            (0u32..1000, 0u8..=FAULT_KIND_MAX, 0u32..1000, 0u32..1000, -1e3..1e3f64).prop_map(
                |(round, kind, user, task, detail)| TraceEvent::Fault {
                    round,
                    kind,
                    user,
                    task,
                    detail,
                }
            ),
        ]
    }

    proptest! {
        #[test]
        fn arbitrary_journals_roundtrip(events in proptest::collection::vec(arb_event(), 0..200)) {
            let mut w = TraceWriter::journal();
            for e in &events {
                w.record(e.clone());
            }
            let decoded = decode(&w.finish()).unwrap();
            prop_assert_eq!(decoded, events);
        }
    }

    // Fuzz battery: randomly mutated journal bytes must decode to Ok or
    // a TraceError — never panic, never hang, never OOM. Pure garbage
    // must hold the same bar.
    proptest! {
        #[test]
        fn mutated_byte_streams_never_panic(
            events in proptest::collection::vec(arb_event(), 1..40),
            flips in proptest::collection::vec((0usize..10_000, 0u8..=255), 1..12),
            cut in 0usize..10_000,
        ) {
            let mut w = TraceWriter::journal();
            for e in &events {
                w.record(e.clone());
            }
            let mut bytes = w.finish().to_vec();
            for &(at, value) in &flips {
                let at = at % bytes.len();
                bytes[at] = value;
            }
            bytes.truncate((cut % bytes.len()).max(1));
            let _ = decode(&bytes);
        }

        #[test]
        fn random_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            let _ = decode(&bytes);
        }
    }
}
