//! `paydemand-serve`: the crash-safe platform daemon.
//!
//! Everything else in this workspace runs the Pay On-Demand engine as
//! a batch simulation; this crate runs it as a *service*. A
//! [`Daemon`](daemon::Daemon) owns one [`Engine`](paydemand_sim::Engine)
//! behind a mutex, ingests external movement/upload events over HTTP,
//! advances rounds on a tick loop and keeps every accepted byte
//! durable:
//!
//! * [`http`] — a hardened, dependency-free HTTP/1.1 reader/writer:
//!   total-head deadlines (slow-loris-proof), request-line/head/body
//!   size caps, typed 4xx for malformed input, never a panic. It lives
//!   in `paydemand-obs` and is re-exported here.
//! * [`events`] — the `POST /events` wire format and its two-tier
//!   decode errors (transport → 400, schema → 422).
//! * [`wal`] — a checksummed write-ahead log with tick barriers, torn-
//!   tail truncation and checkpoint-coupled compaction; every event
//!   carries its ingest-assigned event/request ids.
//! * [`lineage`] — the crash-safe event lineage index: event id → WAL
//!   offset → round → disposition → round pricing, joined against the
//!   engine's decision journal, plus the offline `verify` replay that
//!   re-derives every frame bit-identically.
//!
//!   Both are payload layouts over [`paydemand_sim::frame`], which owns
//!   the record framing, checksum, torn-tail scan and atomic rewrite
//!   they share with the engine's checkpoint and decision journal.
//! * [`signals`] — SIGTERM/SIGINT → graceful drain, no libc crate.
//! * [`daemon`] — the assembly: an acceptor that queues connections
//!   in a bounded `std::sync::mpsc::sync_channel` (a full queue is an
//!   immediate 503, a full ingest queue a 429), workers that catch a
//!   handler's panic and keep serving, routes, the tick protocol
//!   (barrier → apply → step → lineage → checkpoint → compact) and
//!   kill‑9 recovery that continues bit-identically under `--resume`.
//!
//! See `docs/SERVING.md` for the operator-facing reference.

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod daemon;
pub mod events;
pub mod lineage;
pub mod signals;
pub mod wal;

pub use paydemand_obs::http;

pub use daemon::{Daemon, DaemonConfig, ShutdownReport, TickOutcome, ACK_SLO_TARGET};
pub use http::HttpLimits;
pub use lineage::VerifyReport;

use paydemand_sim::SimError;

/// Everything that can go wrong starting or running the daemon.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket, filesystem or WAL I/O failed.
    Io(String),
    /// The engine refused (invalid scenario, corrupt checkpoint, …).
    Sim(SimError),
    /// The daemon configuration is unusable as given.
    Config(String),
    /// The engine panicked or otherwise failed mid-tick; durable state
    /// is intact, the daemon is read-only until restarted.
    Fatal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "i/o error: {m}"),
            ServeError::Sim(e) => write!(f, "engine error: {e}"),
            ServeError::Config(m) => write!(f, "configuration error: {m}"),
            ServeError::Fatal(m) => write!(f, "fatal: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}
