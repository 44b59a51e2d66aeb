//! Zero-dependency instrumentation for the paydemand workspace.
//!
//! The workspace builds offline against vendored stubs, so the usual
//! ecosystem crates (`tracing`, `metrics`, `prometheus`) are off the
//! table. This crate hand-rolls the minimal observability toolkit the
//! simulator needs:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars;
//! * [`Histogram`] — log₂-bucketed `u64` distribution with p50/p90/p99
//!   summaries, mergeable across threads;
//! * [`Span`] — an RAII timer that records elapsed nanoseconds into a
//!   histogram on drop;
//! * [`Recorder`] — the handle everything threads through. A *disabled*
//!   recorder (the default) is a true no-op: every instrument it hands
//!   out holds no storage, records nothing, and never reads the clock,
//!   so simulation results are bit-identical with metrics on or off;
//! * [`Snapshot`] — a point-in-time copy of every registered metric,
//!   exportable as Prometheus text exposition or a structured JSON
//!   report, and renderable as a per-phase profile table.
//!
//! Instruments are cheap clones of `Arc`'d atomics, so one enabled
//! recorder can be shared across worker threads and aggregates
//! automatically — no per-thread registries to merge.
//!
//! # Units
//!
//! Histograms record raw `u64` values. By convention, span timers feed
//! nanoseconds into histograms whose names end in `_seconds`; both
//! exporters (and the profile table) divide values of such histograms
//! by 10⁹ on output so the exposition obeys Prometheus' base-unit rule.
//! Histograms with any other name suffix are exported unscaled.
//!
//! # Metric names
//!
//! The simulator registers the following families (label keys in
//! braces):
//!
//! | Metric | Kind | Meaning |
//! |---|---|---|
//! | `round_phase_seconds{phase}` | histogram | Per-round latency of one engine phase: `demand` (neighbour recount), `pricing` (mechanism reward computation), `selection` (the participation loop: order shuffle, dropout draws, each participant's open tasks and solver call), `settlement` (submission + payment), `movement` (inter-round motion). |
//! | `engine_round_seconds` | histogram | Whole-round latency. |
//! | `engine_rounds_total` | counter | Sensing rounds executed. |
//! | `engine_runs_total` | counter | Complete simulation runs. |
//! | `cell_sweep_full_sweeps_total` | counter | Full Eq. 5 recounts by the cell sweep: the first round, population changes, and rounds where more than half the users moved. |
//! | `cell_sweep_delta_rounds_total` | counter | Rounds served by the cell sweep's batched delta updates. |
//! | `cell_sweep_batched_moves_total` | counter | Moved users folded in via batched delta updates. |
//! | `selector_solves_total{selector}` | counter | Task-selection solves per selector. |
//! | `selector_solve_seconds{selector}` | histogram | Per-solve latency per selector. |
//! | `selector_states_expanded_total{selector}` | counter | DP states materialised / B&B nodes visited. |
//! | `selector_nodes_pruned_total{selector}` | counter | B&B subtrees cut by the optimistic bound. |
//! | `selector_iterations_total{selector}` | counter | Greedy extension steps. |
//! | `runner_jobs_total` | counter | Scenario jobs executed by the parallel runner. |
//! | `runner_job_seconds` | histogram | Per-job wall time in the parallel runner. |
//! | `runner_queue_depth` | gauge | Jobs still queued (drains to 0). |
//! | `runner_threads` | gauge | Worker threads of the last batch. |
//! | `engine_budget_spent_permille` | gauge | Paid reward as ‰ of the spend cap (set each round when telemetry is attached). |
//! | `engine_retry_queue_depth` | gauge | Straggler uploads pending retry at the round boundary. |
//! | `alerts_total{rule}` | counter | Alert-rule transitions into the firing state. |
//!
//! With alloc profiling on ([`Recorder::enable_alloc_profile`]), the
//! memory families join them (sampled per round by
//! [`Recorder::sample_alloc`]; see the [`alloc`] module):
//!
//! | Metric | Kind | Meaning |
//! |---|---|---|
//! | `alloc_allocs_total{phase}` | counter | Heap allocations attributed to the phase. |
//! | `alloc_frees_total{phase}` | counter | Heap deallocations attributed to the phase. |
//! | `alloc_bytes_total{phase}` | counter | Bytes allocated. |
//! | `alloc_freed_bytes_total{phase}` | counter | Bytes freed. |
//! | `alloc_live_bytes{phase}` | gauge | Bytes currently live (may go negative for a phase freeing another's blocks). |
//! | `alloc_peak_live_bytes{phase}` | gauge | High-water mark of live bytes. |
//! | `alloc_size_bytes{phase}` | histogram | Log₂ size-class distribution of allocation sizes. |
//! | `memory_live_bytes` | gauge | Live bytes summed over every phase. |
//! | `process_rss_bytes` | gauge | `VmRSS` from `/proc/self/status` (Linux only). |
//! | `process_peak_rss_bytes` | gauge | `VmHWM` from `/proc/self/status` (Linux only). |
//! | `memory_neighbor_index_bytes` | gauge | Approximate heap footprint of the cell sweeper. |
//!
//! The `paydemand serve` daemon (the `paydemand-serve` crate) emits
//! its ingest families through the same recorder, so they land in the
//! time series and replay through `paydemand alerts` offline:
//!
//! | Metric | Kind | Meaning |
//! |---|---|---|
//! | `ingest_events_total` | counter | External events accepted (202) into the WAL. |
//! | `ingest_rejected_total{reason}` | counter | Rejected ingest requests: `queue_full`, `bad_json`, `schema`, `validation`, `finished`, `draining`, `overloaded`. |
//! | `queue_depth` | gauge | Events waiting in the bounded ingest queue. |
//! | `ingest_queue_saturation_permille` | gauge | Queue depth as ‰ of capacity (the saturation alert watches this). |
//! | `shed_total` | counter | Events refused with 429 because the queue was full. |
//! | `worker_restarts_total` | counter | Connection workers respawned by the supervisor after a panic. |
//! | `http_requests_total` | counter | Well-formed HTTP requests served. |
//! | `external_uploads_total` | counter | External uploads settled by the engine. |
//! | `external_uploads_rejected_total{reason}` | counter | External uploads dropped at settlement: `task_complete`, `duplicate`, `budget`. |
//!
//! The lineage + logging + SLO layer (PR 9) adds:
//!
//! | Metric | Kind | Meaning |
//! |---|---|---|
//! | `ingest_stage_seconds{stage}` | histogram | Server-side `POST /events` stage latency: `parse`, `validate`, `enqueue`, `fsync`, `ack` (ack = whole handler). |
//! | `ingest_ack_total` | counter | Acked (202) ingest requests — the SLO denominator. |
//! | `ingest_ack_slo_breaches_total` | counter | Acks slower than the 50 ms latency objective — the SLO numerator. |
//! | `ingest_ack_slo_burn_rate` | derived | Per-round error-budget burn rate `(Δbreaches/Δacks) / 0.01` (alert-view only; see the SLO burn rules). |
//! | `lineage_applied_total` | counter | Events joined to their applied round in the lineage index. |
//! | `lineage_frames_total` | counter | Frames appended to `lineage.idx`. |
//! | `lineage_bytes_total` | counter | Bytes appended to `lineage.idx`. |
//! | `lineage_truncated_frames_total` | counter | Lineage frames discarded on recovery (torn tail or ahead of the checkpoint). |
//! | `wal_bytes` | gauge | Current size of the event WAL file. |
//! | `last_checkpoint_tick` | gauge | Tick number of the most recent durable checkpoint. |
//! | `events_since_checkpoint` | gauge | Events ingested since that checkpoint (replay debt). |
//! | `log_entries_total{level}` | counter | Log entries admitted per level (`debug`, `info`, `warn`, `error`). |
//! | `log_rate_limited_total` | counter | Log entries dropped by the per-second rate limiter. |
//! | `log_sink_errors_total` | counter | Failed writes to the `--log-json` JSONL sink. |
//!
//! # Live telemetry
//!
//! Beyond point-in-time snapshots, a recorder can carry optional
//! telemetry attachments (each a no-op until attached, preserving the
//! bit-identical-off guarantee):
//!
//! * [`TimeSeries`] — a fixed-capacity ring buffer of per-round
//!   [`Snapshot`]s, exportable as JSON or CSV and reloadable for
//!   offline analysis;
//! * [`SpanLog`] (via [`Recorder::enable_trace_events`]) — a
//!   parent-aware span tree exported in Chrome `trace_event` JSON,
//!   openable in Perfetto, speedscope or `chrome://tracing`, and
//!   folded into per-stack self time by `paydemand profile`;
//! * [`Alerts`] — threshold rules ([`AlertRule`]) evaluated at each
//!   round boundary, with [`evaluate_series`] replaying the same rules
//!   offline against a saved time series;
//! * [`MetricsServer`] — an embedded zero-dependency HTTP endpoint
//!   serving `/metrics`, `/healthz`, `/rounds.json` and `/alerts.json`
//!   from a background thread, through [`http`] — the hardened
//!   HTTP/1.1 reader and writer the `paydemand serve` daemon uses too;
//! * [`Logger`] — a leveled JSON flight recorder (ring buffer,
//!   rate-limited, panic-safe, optional JSONL file sink) attachable
//!   with [`Recorder::attach_logger`] so deep layers can emit without
//!   threading an extra handle.
//!
//! # Example
//!
//! ```
//! use paydemand_obs::Recorder;
//!
//! let recorder = Recorder::enabled();
//! let rounds = recorder.counter("engine_rounds_total");
//! rounds.add(3);
//! {
//!     let _span = recorder.span_with("round_phase_seconds", "phase", "pricing");
//!     // ... timed work ...
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter_value("engine_rounds_total", None), Some(3));
//! let text = snapshot.to_prometheus();
//! assert!(text.contains("engine_rounds_total 3"));
//! ```

// `deny`, not `forbid`: the `alloc` module implements `GlobalAlloc`
// (an unsafe trait) and locally allows it; everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs, clippy::pedantic)]
#![allow(clippy::module_name_repetitions, clippy::must_use_candidate)]

mod alerts;
pub mod alloc;
mod export;
pub mod http;
pub mod json;
pub mod log;
mod metrics;
mod recorder;
mod serve;
mod spans;
mod timeseries;

pub use alerts::{evaluate_series, AlertEvent, AlertRule, Alerts, Comparator};
pub use alloc::{AllocPhase, PhaseGuard, PhaseTotals, TrackingAllocator};
pub use json::{parse_json, JsonError, JsonValue};
pub use log::{LogEntry, LogLevel, Logger, DEFAULT_LOG_CAPACITY};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use recorder::{MetricKey, Recorder, Snapshot, Span};
pub use serve::MetricsServer;
pub use spans::{CounterSample, SpanEvent, SpanLog};
pub use timeseries::{RoundSample, TimeSeries};
