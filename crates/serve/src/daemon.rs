//! The platform daemon: ingest, tick, serve, survive.
//!
//! # Architecture
//!
//! ```text
//!             ┌────────────┐   bounded    ┌──────────────┐
//!  clients ──▶│  acceptor   │─────────────▶│ worker pool  │──▶ engine (Mutex)
//!             │ (503 when  │  conn queue  │ (supervised, │──▶ ingest (Mutex):
//!             │  backlogged)│              │  panic-safe) │      WAL + pending
//!             └────────────┘              └──────────────┘        + lineage
//!                                 ticker ──▶ tick(): barrier → apply → step
//!                                            → lineage → checkpoint → compact
//! ```
//!
//! * `POST /events` assigns each batch a **request id** and each event
//!   a **monotonic event id**, validates, *logs to the WAL (fsync),
//!   then* acks 202 — an acknowledged event survives kill‑9 and stays
//!   resolvable by id ever after. A full pending queue is explicit
//!   backpressure: 429 with `Retry-After`, counted in `shed_total`,
//!   never unbounded growth.
//! * each tick drains the pending queue, writes a tick barrier to the
//!   WAL, feeds the batch to [`Engine::step_round`] with the decision
//!   journal enabled, appends the round's **lineage frames** (event id
//!   → WAL offset → round → disposition, joined with the journal's
//!   per-task pricing) to the [`lineage`](crate::lineage) index, and
//!   only then lands an atomic checkpoint (tmp + rename) and compacts
//!   the WAL down to the events that arrived meanwhile — so every
//!   checkpointed round has durable lineage. Feeding the batch and
//!   building its frames is `lineage::apply_batch`, the one apply path
//!   recovery and `lineage verify` share; the engine lock is released
//!   before the journal is decoded.
//! * `--resume` rebuilds the engine from the last checkpoint, truncates
//!   lineage frames for rounds past it (the crash window), and replays
//!   the WAL through `lineage::replay_wal`, the walk `lineage verify`
//!   uses too: consumed barriers are skipped, un-checkpointed barriers
//!   re-execute their rounds deterministically *through the tick's own
//!   apply path*, trailing events return to the pending queue. The
//!   result is bit-identical to the run that never crashed: the engine,
//!   its checkpoints and every lineage frame of a round that ran before
//!   the crash. An event still pending at the crash is applied from the
//!   WAL recovery compacted, so its frame records its offset there.
//! * workers are panic-isolated under a [`Supervisor`]; an engine-side
//!   panic or error during a tick flips the daemon into a `failed`
//!   read-only state rather than corrupting durable state.
//!
//! # Observability
//!
//! The serve path is instrumented end to end: per-stage ingest latency
//! histograms (`ingest_stage_seconds{stage=parse|validate|enqueue|
//! fsync|ack}`), an ack-latency SLO ([`ACK_SLO_TARGET`]) whose breach
//! ratio drives the `ingest_ack_slo_*_burn` alert rules, durable-state
//! gauges (`wal_bytes`, `last_checkpoint_tick`,
//! `events_since_checkpoint`) surfaced on `GET /status`, structured
//! JSON logs on `GET /logs.json`, and per-event lineage on
//! `GET /events/{id}`.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paydemand_geo::Rect;
use paydemand_obs::{Counter, Gauge, Histogram, LogLevel, Logger, Recorder};
use paydemand_sim::frame::write_atomic;
use paydemand_sim::{Engine, ExternalEvent, Scenario};

use crate::events::decode_batch;
use crate::http::{self, error_body, HttpLimits, Request};
use crate::lineage::{self, AppliedFrame, LineageFrame, LineageIndex, RoundFrame};
use crate::queue::{Bounded, PushError};
use crate::supervisor::{Supervisor, WorkerFn};
use crate::wal::{SequencedEvent, Wal};
use crate::ServeError;

const JSON: &str = "application/json; charset=utf-8";
/// File name of the engine checkpoint inside the state directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ck";
/// File name of the write-ahead log inside the state directory.
pub const WAL_FILE: &str = "events.wal";
/// File name of the event lineage index inside the state directory.
pub const LINEAGE_FILE: &str = "lineage.idx";

/// The server-side ack-latency objective for `POST /events`: an accept
/// slower than this counts into `ingest_ack_slo_breaches_total`, and
/// the default alert rules page when the breach ratio burns the 1%
/// error budget too fast.
pub const ACK_SLO_TARGET: Duration = Duration::from_millis(50);

/// Everything configurable about a daemon instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// The scenario the engine runs.
    pub scenario: Scenario,
    /// Bind address, e.g. `127.0.0.1:9300` (port 0 picks a free one).
    pub addr: String,
    /// Directory holding `checkpoint.ck`, `events.wal` and
    /// `lineage.idx`.
    pub state_dir: PathBuf,
    /// Continue a previous run from the state directory. Without this,
    /// an already-populated state directory is refused (never silently
    /// overwritten).
    pub resume: bool,
    /// Automatic tick cadence; `None` means ticks only via `POST /tick`.
    pub tick_interval: Option<Duration>,
    /// Ingest queue capacity (events); beyond it, 429 + `Retry-After`.
    pub queue_capacity: usize,
    /// Accepted-connection queue capacity; beyond it, immediate 503.
    pub connection_backlog: usize,
    /// Connection worker threads.
    pub workers: usize,
    /// Per-connection parse limits and deadlines.
    pub limits: HttpLimits,
    /// Checkpoint (and compact the WAL) every this many ticks.
    pub checkpoint_every: u32,
    /// fsync the WAL on every append. On for anything that must
    /// survive kill‑9; off only for throughput experiments.
    pub fsync: bool,
    /// Record per-event lineage (the `lineage.idx` join of event id →
    /// WAL offset → round → disposition → round pricing). On by
    /// default; `GET /events/{id}` resolves only still-pending events
    /// when off.
    pub lineage: bool,
    /// Expose `POST /debug/panic` (kills the handling worker) so the
    /// supervisor can be exercised end-to-end. Off by default.
    pub debug_panic_route: bool,
}

impl DaemonConfig {
    /// Defaults: loopback ephemeral port, 4 workers, 4096-event queue,
    /// manual ticks, fsync on, lineage on.
    #[must_use]
    pub fn new(scenario: Scenario, state_dir: PathBuf) -> Self {
        DaemonConfig {
            scenario,
            addr: "127.0.0.1:0".to_owned(),
            state_dir,
            resume: false,
            tick_interval: None,
            queue_capacity: 4096,
            connection_backlog: 256,
            workers: 4,
            limits: HttpLimits::default(),
            checkpoint_every: 1,
            fsync: true,
            lineage: true,
            debug_panic_route: false,
        }
    }
}

/// What one tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickOutcome {
    /// Whether a round actually ran (false once the run is finished).
    pub stepped: bool,
    /// Events applied to the engine this tick.
    pub applied: usize,
    /// The engine's next round after the tick.
    pub next_round: u32,
    /// Whether the run is now finished.
    pub finished: bool,
}

/// The daemon's final accounting, returned by a graceful shutdown.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Rounds executed over the daemon's lifetime (including replay).
    pub rounds_run: usize,
    /// Whether the simulation reached its end.
    pub finished: bool,
    /// Total platform spend.
    pub total_paid: f64,
    /// Events accepted (202'd) over the lifetime.
    pub ingested_events: u64,
    /// Events replayed from the WAL at startup.
    pub replayed_events: u64,
    /// Events refused with 429 because the queue was full.
    pub shed_events: u64,
    /// Worker threads the supervisor had to replace.
    pub worker_restarts: u64,
}

/// Workload dimensions POST validation checks against (static for the
/// life of a run, so no engine lock is needed on the hot path).
#[derive(Debug, Clone, Copy)]
struct Dims {
    users: usize,
    tasks: usize,
    area: Rect,
}

/// The durable lineage index plus its in-memory mirror, which answers
/// `GET /events/{id}` without touching disk.
struct LineageState {
    index: LineageIndex,
    /// Every applied event's fate, in event-id order.
    applied: AppliedMirror,
    /// round → its pricing/budget summary.
    rounds: BTreeMap<u32, RoundFrame>,
}

/// Frames an [`AppliedMirror`] block holds.
const MIRROR_BLOCK: usize = 2048;

/// The applied events' frames in strictly increasing event-id order, in
/// append-only blocks of [`MIRROR_BLOCK`] frames. A block is allocated
/// at that capacity and never reallocated, so a growing mirror neither
/// copies its frames nor leaves freed copies of them in the heap. Ids
/// arrive in order: they are assigned under the ingest lock, drained
/// first in first out and read back in file order; a failed WAL append
/// can leave a gap, so lookups search rather than index.
#[derive(Default)]
struct AppliedMirror {
    blocks: Vec<Vec<AppliedFrame>>,
}

impl AppliedMirror {
    /// Appends `frame`, refusing an id that does not follow the last.
    fn push(&mut self, frame: AppliedFrame) -> Result<(), ServeError> {
        if let Some(last) = self.last().filter(|last| frame.event_id <= last.event_id) {
            return Err(ServeError::Config(format!(
                "lineage frame for event {} does not follow event {}: the index is out of order",
                frame.event_id, last.event_id
            )));
        }
        match self.blocks.last_mut() {
            Some(block) if block.len() < MIRROR_BLOCK => block.push(frame),
            _ => {
                let mut block = Vec::with_capacity(MIRROR_BLOCK);
                block.push(frame);
                self.blocks.push(block);
            }
        }
        Ok(())
    }

    /// The frame with the highest event id.
    fn last(&self) -> Option<&AppliedFrame> {
        self.blocks.last()?.last()
    }

    /// The frame of event `id`: a binary search of the block heads, then
    /// of the block.
    fn get(&self, id: u64) -> Option<&AppliedFrame> {
        let after = self.blocks.partition_point(|b| b.first().is_some_and(|f| f.event_id <= id));
        let block = &self.blocks[after.checked_sub(1)?];
        block.binary_search_by_key(&id, |f| f.event_id).ok().map(|i| &block[i])
    }
}

struct Ingest {
    wal: Wal,
    /// Acked, not-yet-ticked events with their current WAL offsets
    /// (refreshed on compaction).
    pending: VecDeque<(u64, SequencedEvent)>,
    /// The batch a tick has drained from `pending` but not yet
    /// appended to the lineage index, so `GET /events/{id}` can answer
    /// for it while it is in neither place.
    applying: Option<Applying>,
    /// The next event id to assign (monotonic across restarts).
    next_event_id: u64,
    /// The next `POST /events` request id to assign.
    next_request_id: u64,
    lineage: Option<LineageState>,
}

/// A drained batch in flight: event ids `first..=last` (ids are dense
/// and drained in FIFO order) being applied in `round`.
#[derive(Clone, Copy)]
struct Applying {
    first: u64,
    last: u64,
    round: u32,
}

/// Clears [`Ingest::applying`] when a tick ends, however it ends: a
/// failed tick must not report its batch as in flight forever.
struct ApplyingWindow<'a>(&'a Shared);

impl Drop for ApplyingWindow<'_> {
    fn drop(&mut self) {
        self.0.lock_ingest().applying = None;
    }
}

struct Metrics {
    ingest_events: Counter,
    rejected_queue_full: Counter,
    rejected_bad_json: Counter,
    rejected_schema: Counter,
    rejected_validation: Counter,
    rejected_finished: Counter,
    rejected_draining: Counter,
    rejected_overload: Counter,
    shed: Counter,
    queue_depth: Gauge,
    queue_saturation: Gauge,
    worker_restarts: Counter,
    http_requests: Counter,
    stage_parse: Histogram,
    stage_validate: Histogram,
    stage_enqueue: Histogram,
    stage_fsync: Histogram,
    stage_ack: Histogram,
    ack_total: Counter,
    ack_slo_breaches: Counter,
    wal_bytes: Gauge,
    last_checkpoint_tick: Gauge,
    events_since_checkpoint: Gauge,
    lineage_applied: Counter,
    lineage_frames: Counter,
    lineage_bytes: Counter,
}

impl Metrics {
    fn resolve(recorder: &Recorder) -> Self {
        let rejected = |reason| recorder.counter_with("ingest_rejected_total", "reason", reason);
        let stage = |stage| recorder.histogram_with("ingest_stage_seconds", "stage", stage);
        Metrics {
            ingest_events: recorder.counter("ingest_events_total"),
            rejected_queue_full: rejected("queue_full"),
            rejected_bad_json: rejected("bad_json"),
            rejected_schema: rejected("schema"),
            rejected_validation: rejected("validation"),
            rejected_finished: rejected("finished"),
            rejected_draining: rejected("draining"),
            rejected_overload: rejected("overloaded"),
            shed: recorder.counter("shed_total"),
            queue_depth: recorder.gauge("queue_depth"),
            queue_saturation: recorder.gauge("ingest_queue_saturation_permille"),
            worker_restarts: recorder.counter("worker_restarts_total"),
            http_requests: recorder.counter("http_requests_total"),
            stage_parse: stage("parse"),
            stage_validate: stage("validate"),
            stage_enqueue: stage("enqueue"),
            stage_fsync: stage("fsync"),
            stage_ack: stage("ack"),
            ack_total: recorder.counter("ingest_ack_total"),
            ack_slo_breaches: recorder.counter("ingest_ack_slo_breaches_total"),
            wal_bytes: recorder.gauge("wal_bytes"),
            last_checkpoint_tick: recorder.gauge("last_checkpoint_tick"),
            events_since_checkpoint: recorder.gauge("events_since_checkpoint"),
            lineage_applied: recorder.counter("lineage_applied_total"),
            lineage_frames: recorder.counter("lineage_frames_total"),
            lineage_bytes: recorder.counter("lineage_bytes_total"),
        }
    }
}

struct Shared {
    config: DaemonConfig,
    recorder: Recorder,
    /// The recorder-attached structured logger (a true no-op when none
    /// was attached).
    log: Logger,
    engine: Mutex<Engine>,
    ingest: Mutex<Ingest>,
    connections: Bounded<TcpStream>,
    /// Threads exit when this flips (set by shutdown/crash).
    shutdown: Arc<AtomicBool>,
    /// New events are refused (503) while draining.
    draining: AtomicBool,
    /// A tick panicked or errored: durable state is still good, the
    /// in-memory engine is not; the daemon serves reads only.
    failed: AtomicBool,
    /// Mirror of `engine.is_finished()` so POST /events can 409
    /// without the engine lock.
    finished: AtomicBool,
    /// Graceful shutdown asked for via POST /shutdown.
    stop_requested: AtomicBool,
    /// Serialises ticks (manual + timed can race otherwise).
    tick_lock: Mutex<()>,
    /// Mirror of `engine.next_round()` for barrier stamping.
    next_round: AtomicU32,
    ticks: AtomicU64,
    /// The tick number of the last landed checkpoint (0 = the recovery
    /// checkpoint at startup).
    last_checkpoint_tick: AtomicU64,
    /// Events applied to the engine since that checkpoint.
    events_since_checkpoint: AtomicU64,
    replayed: u64,
    dims: Dims,
    metrics: Metrics,
    started: Instant,
}

impl Shared {
    fn lock_engine(&self) -> MutexGuard<'_, Engine> {
        // Poison can only come from a panicked tick, which also set
        // `failed`; readers still serve the (structurally valid)
        // engine state, and ticks refuse while failed.
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_ingest(&self) -> MutexGuard<'_, Ingest> {
        self.ingest.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_queue_gauges(&self, depth: usize) {
        self.metrics.queue_depth.set(depth as i64);
        let cap = self.config.queue_capacity.max(1);
        self.metrics.queue_saturation.set((depth.saturating_mul(1000) / cap) as i64);
    }

    fn state_label(&self) -> &'static str {
        if self.failed.load(Ordering::SeqCst) {
            "failed"
        } else if self.draining.load(Ordering::SeqCst) {
            "draining"
        } else if self.finished.load(Ordering::SeqCst) {
            "complete"
        } else {
            "serving"
        }
    }

    /// Flips the daemon into the failed read-only state, loudly.
    fn fail(&self, what: &str, detail: &str) {
        self.failed.store(true, Ordering::SeqCst);
        self.log.error("daemon", what, &[("detail", detail)]);
    }
}

/// A running daemon; see the module docs for the architecture.
#[derive(Debug)]
pub struct Daemon {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<Supervisor>,
    ticker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("state", &self.state_label())
            .field("next_round", &self.next_round.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Builds (or resumes) the engine, binds the listener and starts
    /// the acceptor, worker pool and (optionally) the ticker.
    ///
    /// # Errors
    ///
    /// Configuration errors (occupied non-`--resume` state directory,
    /// zero workers), engine/scenario errors, corrupt state files, or
    /// bind failures.
    pub fn start(config: DaemonConfig, recorder: &Recorder) -> Result<Daemon, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::Config("at least one worker thread is required".into()));
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::Config("queue capacity must be positive".into()));
        }
        if config.checkpoint_every == 0 {
            return Err(ServeError::Config("checkpoint interval must be positive".into()));
        }
        std::fs::create_dir_all(&config.state_dir)?;
        let (engine, ingest, replayed) = recover(&config, recorder)?;
        let dims =
            Dims { users: engine.num_users(), tasks: engine.num_tasks(), area: engine.area() };
        let finished = engine.is_finished();
        let next_round = engine.next_round();

        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", config.addr)))?;
        let local_addr = listener.local_addr()?;

        let metrics = Metrics::resolve(recorder);
        metrics.wal_bytes.set(ingest.wal.bytes() as i64);
        let log = recorder.logger();
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            connections: Bounded::new(config.connection_backlog),
            engine: Mutex::new(engine),
            ingest: Mutex::new(ingest),
            recorder: recorder.clone(),
            log,
            shutdown: Arc::clone(&shutdown),
            draining: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            finished: AtomicBool::new(finished),
            stop_requested: AtomicBool::new(false),
            tick_lock: Mutex::new(()),
            next_round: AtomicU32::new(next_round),
            ticks: AtomicU64::new(0),
            last_checkpoint_tick: AtomicU64::new(0),
            events_since_checkpoint: AtomicU64::new(0),
            replayed,
            dims,
            metrics,
            started: Instant::now(),
            config,
        });
        shared.set_queue_gauges(shared.lock_ingest().pending.len());
        if shared.log.enabled_for(LogLevel::Info) {
            shared.log.info(
                "daemon",
                "daemon started",
                &[
                    ("addr", &local_addr.to_string()),
                    ("resume", if shared.config.resume { "true" } else { "false" }),
                    ("replayed_events", &replayed.to_string()),
                    ("next_round", &next_round.to_string()),
                ],
            );
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("paydemand-accept".to_owned())
                .spawn(move || acceptor_loop(&listener, &shared))?
        };
        let worker: WorkerFn = {
            let shared = Arc::clone(&shared);
            Arc::new(move |_slot| worker_loop(&shared))
        };
        let supervisor = Supervisor::start(
            "paydemand-serve",
            shared.config.workers,
            Arc::clone(&shutdown),
            shared.metrics.worker_restarts.clone(),
            shared.log.clone(),
            worker,
        )?;
        let ticker = shared.config.tick_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("paydemand-tick".to_owned())
                .spawn(move || ticker_loop(&shared, interval))
                .expect("spawn ticker thread")
        });
        Ok(Daemon {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
            ticker,
        })
    }

    /// The actually-bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the simulation has finished (the daemon keeps serving).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.shared.finished.load(Ordering::SeqCst)
    }

    /// Events replayed from the WAL when this daemon started.
    #[must_use]
    pub fn replayed_events(&self) -> u64 {
        self.shared.replayed
    }

    /// Whether a graceful shutdown has been requested over HTTP.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stop_requested.load(Ordering::SeqCst)
    }

    /// Runs one tick by hand (the `POST /tick` / `--tick-ms 0` mode).
    ///
    /// # Errors
    ///
    /// [`ServeError::Fatal`] if the engine failed (now or earlier);
    /// I/O errors from the durability path.
    pub fn tick(&self) -> Result<TickOutcome, ServeError> {
        run_tick(&self.shared)
    }

    /// Serves until SIGTERM/SIGINT or `POST /shutdown`, then shuts
    /// down gracefully.
    ///
    /// # Errors
    ///
    /// As [`Daemon::shutdown`].
    pub fn run(self) -> Result<ShutdownReport, ServeError> {
        crate::signals::install_termination_handler();
        while !crate::signals::termination_requested()
            && !self.shared.stop_requested.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown()
    }

    /// Graceful shutdown: drain the queue into a final tick, stop all
    /// threads, land a final checkpoint and compact the WAL.
    ///
    /// # Errors
    ///
    /// Durability-path I/O errors; the daemon still stops.
    pub fn shutdown(mut self) -> Result<ShutdownReport, ServeError> {
        let shared = Arc::clone(&self.shared);
        shared.draining.store(true, Ordering::SeqCst);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        // Apply everything acknowledged but not yet ticked, unless the
        // engine already failed or finished.
        let drain_result = if !shared.failed.load(Ordering::SeqCst)
            && !shared.finished.load(Ordering::SeqCst)
            && !shared.lock_ingest().pending.is_empty()
        {
            run_tick(&shared).map(|_| ())
        } else {
            Ok(())
        };
        self.stop_threads();

        let final_result =
            if shared.failed.load(Ordering::SeqCst) { Ok(()) } else { final_checkpoint(&shared) };
        let report = {
            let engine = shared.lock_engine();
            ShutdownReport {
                rounds_run: engine.rounds_run(),
                finished: engine.is_finished(),
                total_paid: engine.total_paid(),
                ingested_events: shared.metrics.ingest_events.get(),
                replayed_events: shared.replayed,
                shed_events: shared.metrics.shed.get(),
                worker_restarts: shared.metrics.worker_restarts.get(),
            }
        };
        if shared.log.enabled_for(LogLevel::Info) {
            shared.log.info(
                "daemon",
                "shutdown complete",
                &[
                    ("rounds_run", &report.rounds_run.to_string()),
                    ("ingested_events", &report.ingested_events.to_string()),
                    ("total_paid", &format!("{:.1}", report.total_paid)),
                ],
            );
        }
        drain_result?;
        final_result?;
        Ok(report)
    }

    /// Stops the daemon the unceremonious way: no drain, no final
    /// checkpoint, no compaction — the state directory is left exactly
    /// as the last completed tick wrote it, which is what a kill‑9
    /// leaves behind. The recovery tests use this to prove `--resume`
    /// continues bit-identically.
    pub fn crash(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.connections.close();
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(s) = self.supervisor.take() {
            s.join();
        }
    }
}

/// Builds the engine from scratch or from the state directory,
/// replaying the WAL (and regenerating crash-window lineage); returns
/// the engine and the fully-recovered ingest state. Always leaves a
/// fresh checkpoint + compacted WAL behind so the directory is clean
/// however the last process died.
fn recover(
    config: &DaemonConfig,
    recorder: &Recorder,
) -> Result<(Engine, Ingest, u64), ServeError> {
    let ck_path = config.state_dir.join(CHECKPOINT_FILE);
    let wal_path = config.state_dir.join(WAL_FILE);
    let idx_path = config.state_dir.join(LINEAGE_FILE);
    if !config.resume && (ck_path.exists() || wal_path.exists() || idx_path.exists()) {
        return Err(ServeError::Config(format!(
            "state directory {} already holds a run; pass --resume to continue it \
             or point --state-dir at a fresh directory",
            config.state_dir.display()
        )));
    }

    let mut engine = if config.resume && ck_path.exists() {
        let bytes = std::fs::read(&ck_path)?;
        Engine::resume(&config.scenario, &bytes, recorder)?
    } else {
        Engine::new(&config.scenario, recorder)?
    };

    let (mut wal, records, torn) = Wal::open(&wal_path, config.fsync)?;
    if torn > 0 {
        recorder.counter("wal_torn_bytes_total").add(torn as u64);
        recorder.logger().warn("wal", "torn WAL tail truncated", &[("bytes", &torn.to_string())]);
    }

    // Open the lineage index and drop frames for rounds the checkpoint
    // does not cover — the crash window between a lineage append and
    // its checkpoint. The replay below regenerates them bit-identically
    // (same engine state, same batch, same joiner).
    let mut lineage_state = if config.lineage {
        let (mut index, frames, torn_lineage) = LineageIndex::open(&idx_path, config.fsync)?;
        if torn_lineage > 0 {
            recorder.counter("lineage_torn_bytes_total").add(torn_lineage as u64);
        }
        let next = engine.next_round();
        let scanned = frames.len();
        let settled: Vec<LineageFrame> = frames.into_iter().filter(|f| f.round() < next).collect();
        let truncated = scanned - settled.len();
        if truncated > 0 {
            index.rewrite(&settled)?;
            recorder.counter("lineage_truncated_frames_total").add(truncated as u64);
        }
        let mut state =
            LineageState { index, applied: AppliedMirror::default(), rounds: BTreeMap::new() };
        absorb_frames(&mut state, settled)?;
        Some(state)
    } else {
        None
    };

    // Replay: consumed barriers are skipped, the un-checkpointed ones
    // re-execute and regenerate their lineage through the tick's own
    // apply path. Id watermarks go past everything the WAL holds *and*
    // everything the lineage remembers (applied events get compacted
    // out of the WAL). Ids and request ids rise together, so the
    // mirror's last frame holds the highest of both.
    let (mut max_event_id, mut max_request_id) = lineage_state
        .as_ref()
        .and_then(|state| state.applied.last())
        .map_or((0, 0), |f| (f.event_id, f.request_id));
    let mut watermark = |seq: &SequencedEvent| {
        max_event_id = max_event_id.max(seq.id);
        max_request_id = max_request_id.max(seq.request);
    };
    let mut replayed = 0u64;
    let lineage_on = lineage_state.is_some();
    let fifo = lineage::replay_wal(&mut engine, records, lineage_on, |_, batch, frames| {
        batch.iter().for_each(|(_, seq)| watermark(seq));
        let Some(frames) = frames else { return Ok(()) };
        replayed += batch.len() as u64;
        if let Some(state) = lineage_state.as_mut() {
            state.index.append(&frames)?;
            absorb_frames(state, frames)?;
        }
        Ok(())
    })?;
    fifo.iter().for_each(|(_, seq)| watermark(seq));
    if replayed > 0 {
        recorder.counter("resume_replayed_events_total").add(replayed);
    }

    // Normalise: the durable state now reflects exactly (engine,
    // pending events, their lineage) so the next crash recovers from
    // here. Compaction moves the pending events, so refresh their
    // recorded offsets from compact's return.
    let ck = engine.checkpoint()?;
    write_atomic(&ck_path, &ck, config.fsync)?;
    let events: Vec<SequencedEvent> = fifo.iter().map(|&(_, seq)| seq).collect();
    let offsets = wal.compact(&events)?;
    let pending: VecDeque<(u64, SequencedEvent)> = offsets.into_iter().zip(events).collect();
    let ingest = Ingest {
        wal,
        pending,
        applying: None,
        next_event_id: max_event_id + 1,
        next_request_id: max_request_id + 1,
        lineage: lineage_state,
    };
    Ok((engine, ingest, replayed))
}

/// Folds freshly-appended lineage frames into the in-memory mirror,
/// refusing an applied event id that does not follow the last one.
fn absorb_frames(state: &mut LineageState, frames: Vec<LineageFrame>) -> Result<(), ServeError> {
    for frame in frames {
        match frame {
            LineageFrame::Applied(f) => state.applied.push(f)?,
            LineageFrame::Round(r) => {
                state.rounds.insert(r.round, r);
            }
        }
    }
    Ok(())
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        match shared.connections.push(stream) {
            Ok(()) => {}
            Err(PushError::Full(mut s) | PushError::Closed(mut s)) => {
                // Explicit shed at the edge: the client learns to back
                // off instead of waiting in an invisible kernel queue.
                shared.metrics.rejected_overload.inc();
                let _ = s.set_write_timeout(Some(shared.config.limits.write_timeout));
                http::respond_with(
                    &mut s,
                    503,
                    JSON,
                    &error_body("server overloaded"),
                    &[("Retry-After", "1".to_owned())],
                );
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let Some(stream) = shared.connections.pop_timeout(Duration::from_millis(50)) else {
            continue;
        };
        handle_connection(stream, shared);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(shared.config.limits.write_timeout));
    let request = match http::read_request(&mut stream, &shared.config.limits) {
        Ok(request) => request,
        Err(e) => {
            if let Some((status, message)) = e.status() {
                http::respond(&mut stream, status, JSON, &error_body(message));
            }
            return;
        }
    };
    shared.metrics.http_requests.inc();
    route(&mut stream, &request, shared);
}

fn route(stream: &mut TcpStream, request: &Request, shared: &Arc<Shared>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/events") => post_events(stream, &request.body, shared),
        ("POST", "/tick") => post_tick(stream, shared),
        ("POST", "/shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.stop_requested.store(true, Ordering::SeqCst);
            shared.log.info("daemon", "shutdown requested over http", &[]);
            http::respond(stream, 200, JSON, "{\"status\": \"draining\"}\n");
        }
        ("POST", "/debug/panic") if shared.config.debug_panic_route => {
            // Deliberately kills this worker; the supervisor must
            // replace it. Gated behind config, off by default.
            panic!("debug panic route");
        }
        ("GET", "/prices") => {
            let body = prices_json(shared);
            http::respond(stream, 200, JSON, &body);
        }
        ("GET", "/demand") => match demand_json(shared) {
            Ok(body) => http::respond(stream, 200, JSON, &body),
            Err(e) => http::respond(stream, 500, JSON, &error_body(&e.to_string())),
        },
        ("GET", "/status") => {
            let body = status_json(shared);
            http::respond(stream, 200, JSON, &body);
        }
        ("GET", "/metrics") => {
            let body = shared.recorder.snapshot().to_prometheus();
            http::respond(stream, 200, "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        ("GET", "/logs.json") => {
            http::respond(stream, 200, JSON, &shared.log.to_json());
        }
        ("GET", path) if path.starts_with("/events/") => {
            match path["/events/".len()..].parse::<u64>() {
                Ok(id) => match event_json(shared, id) {
                    Some(body) => http::respond(stream, 200, JSON, &body),
                    None => http::respond(stream, 404, JSON, &error_body("no such event id")),
                },
                Err(_) => {
                    http::respond(stream, 422, JSON, &error_body("event id must be an integer"));
                }
            }
        }
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\": \"{}\", \"next_round\": {}, \"queue_depth\": {}}}\n",
                shared.state_label(),
                shared.next_round.load(Ordering::SeqCst),
                shared.lock_ingest().pending.len(),
            );
            http::respond(stream, 200, JSON, &body);
        }
        ("GET" | "POST", _) => http::respond(stream, 404, JSON, &error_body("no such route")),
        _ => http::respond(stream, 405, JSON, &error_body("method not supported")),
    }
}

fn post_events(stream: &mut TcpStream, body: &[u8], shared: &Arc<Shared>) {
    let accepted = Instant::now();
    if shared.draining.load(Ordering::SeqCst) || shared.failed.load(Ordering::SeqCst) {
        shared.metrics.rejected_draining.inc();
        http::respond_with(
            stream,
            503,
            JSON,
            &error_body("daemon is draining"),
            &[("Retry-After", "1".to_owned())],
        );
        return;
    }
    if shared.finished.load(Ordering::SeqCst) {
        shared.metrics.rejected_finished.inc();
        http::respond(stream, 409, JSON, &error_body("run is complete; events no longer apply"));
        return;
    }
    let parse_started = Instant::now();
    let batch = match decode_batch(body) {
        Ok(batch) => batch,
        Err(e) => {
            match e.status() {
                400 => shared.metrics.rejected_bad_json.inc(),
                _ => shared.metrics.rejected_schema.inc(),
            }
            shared.log.debug("ingest", "batch rejected", &[("reason", e.message())]);
            http::respond(stream, e.status(), JSON, &error_body(e.message()));
            return;
        }
    };
    shared.metrics.stage_parse.record_duration(parse_started.elapsed());
    // Batches apply atomically: one bad event rejects the whole batch,
    // so a client never has to guess which half was accepted.
    let validate_started = Instant::now();
    let Dims { users, tasks, area } = shared.dims;
    for (i, event) in batch.iter().enumerate() {
        if let Err(message) = event.validate(users, tasks, area) {
            shared.metrics.rejected_validation.inc();
            shared.log.debug("ingest", "batch failed validation", &[("reason", &message)]);
            http::respond(stream, 422, JSON, &error_body(&format!("events[{i}]: {message}")));
            return;
        }
    }
    shared.metrics.stage_validate.record_duration(validate_started.elapsed());

    let enqueue_started = Instant::now();
    let fsync_spent;
    let (depth, first_id, request_id) = {
        let mut ingest = shared.lock_ingest();
        if ingest.pending.len() + batch.len() > shared.config.queue_capacity {
            let depth = ingest.pending.len();
            drop(ingest);
            shared.metrics.shed.add(batch.len() as u64);
            shared.metrics.rejected_queue_full.inc();
            shared.set_queue_gauges(depth);
            if shared.log.enabled_for(LogLevel::Warn) {
                shared.log.warn(
                    "ingest",
                    "queue full; batch shed",
                    &[("depth", &depth.to_string()), ("batch", &batch.len().to_string())],
                );
            }
            http::respond_with(
                stream,
                429,
                JSON,
                &error_body("ingest queue is full"),
                &[("Retry-After", "1".to_owned())],
            );
            return;
        }
        // Lineage identity is assigned here, under the ingest lock, so
        // ids are gapless and monotonic in WAL order.
        let request_id = ingest.next_request_id;
        ingest.next_request_id += 1;
        let first_id = ingest.next_event_id;
        ingest.next_event_id += batch.len() as u64;
        let sequenced: Vec<SequencedEvent> = batch
            .iter()
            .enumerate()
            .map(|(i, &event)| SequencedEvent {
                id: first_id + i as u64,
                request: request_id,
                event,
            })
            .collect();
        // Durability before acknowledgement: the WAL append (+fsync)
        // happens inside the lock, before the 202 below.
        let fsync_started = Instant::now();
        let offsets = match ingest.wal.append_events(&sequenced) {
            Ok(offsets) => offsets,
            Err(e) => {
                drop(ingest);
                shared.log.error("ingest", "event log write failed", &[("error", &e.to_string())]);
                http::respond(
                    stream,
                    500,
                    JSON,
                    &error_body(&format!("event log write failed: {e}")),
                );
                return;
            }
        };
        fsync_spent = fsync_started.elapsed();
        shared.metrics.wal_bytes.set(ingest.wal.bytes() as i64);
        for (offset, seq) in offsets.into_iter().zip(sequenced) {
            ingest.pending.push_back((offset, seq));
        }
        (ingest.pending.len(), first_id, request_id)
    };
    shared.metrics.stage_fsync.record_duration(fsync_spent);
    shared
        .metrics
        .stage_enqueue
        .record_duration(enqueue_started.elapsed().saturating_sub(fsync_spent));
    shared.metrics.ingest_events.add(batch.len() as u64);
    shared.set_queue_gauges(depth);
    http::respond(
        stream,
        202,
        JSON,
        &format!(
            "{{\"accepted\": {}, \"queue_depth\": {depth}, \"request_id\": {request_id}, \
             \"first_event_id\": {first_id}}}\n",
            batch.len()
        ),
    );
    // The SLO clock stops when the ack hits the socket.
    let ack = accepted.elapsed();
    shared.metrics.stage_ack.record_duration(ack);
    shared.metrics.ack_total.inc();
    if ack > ACK_SLO_TARGET {
        shared.metrics.ack_slo_breaches.inc();
        if shared.log.enabled_for(LogLevel::Warn) {
            shared.log.warn(
                "ingest",
                "ack latency breached slo",
                &[
                    ("ack_ms", &format!("{:.1}", ack.as_secs_f64() * 1e3)),
                    ("target_ms", &format!("{:.1}", ACK_SLO_TARGET.as_secs_f64() * 1e3)),
                    ("request_id", &request_id.to_string()),
                ],
            );
        }
    }
    if shared.log.enabled_for(LogLevel::Debug) {
        shared.log.debug(
            "ingest",
            "batch accepted",
            &[
                ("request_id", &request_id.to_string()),
                ("first_event_id", &first_id.to_string()),
                ("events", &batch.len().to_string()),
                ("queue_depth", &depth.to_string()),
            ],
        );
    }
}

fn post_tick(stream: &mut TcpStream, shared: &Arc<Shared>) {
    match run_tick(shared) {
        Ok(outcome) => {
            let body = format!(
                "{{\"stepped\": {}, \"applied\": {}, \"next_round\": {}, \"finished\": {}}}\n",
                outcome.stepped, outcome.applied, outcome.next_round, outcome.finished
            );
            http::respond(stream, 200, JSON, &body);
        }
        Err(e) => http::respond(stream, 500, JSON, &error_body(&e.to_string())),
    }
}

/// The tick: barrier → apply → step → lineage → checkpoint → compact.
/// See the module docs for why each write lands in this order.
fn run_tick(shared: &Arc<Shared>) -> Result<TickOutcome, ServeError> {
    let _serial = shared.tick_lock.lock().unwrap_or_else(PoisonError::into_inner);
    if shared.failed.load(Ordering::SeqCst) {
        return Err(ServeError::Fatal("engine failed; daemon is read-only".into()));
    }
    if shared.finished.load(Ordering::SeqCst) {
        return Ok(TickOutcome {
            stepped: false,
            applied: 0,
            next_round: shared.next_round.load(Ordering::SeqCst),
            finished: true,
        });
    }
    let round = shared.next_round.load(Ordering::SeqCst);

    // Make the batch composition durable before the round runs: a
    // crash after this point replays exactly this batch into exactly
    // this round.
    let applying_window = ApplyingWindow(shared);
    let batch: Vec<(u64, SequencedEvent)> = {
        let mut ingest = shared.lock_ingest();
        let batch: Vec<(u64, SequencedEvent)> = ingest.pending.drain(..).collect();
        ingest.wal.append_barrier(round, batch.len() as u32).map_err(|e| {
            shared.fail("event log barrier write failed", &e.to_string());
            ServeError::Io(format!("event log barrier write failed: {e}"))
        })?;
        shared.metrics.wal_bytes.set(ingest.wal.bytes() as i64);
        if let (Some((_, first)), Some((_, last))) = (batch.first(), batch.last()) {
            ingest.applying = Some(Applying { first: first.id, last: last.id, round });
        }
        batch
    };
    // The queue gauges intentionally keep their pre-drain values until
    // after step_round: the engine snapshots the recorder at the round
    // boundary, and the saturation alert must see the depth the round
    // *started* from, not the post-drain zero.
    let applied = batch.len();
    let lineage_on = shared.config.lineage;
    let this_tick = shared.ticks.load(Ordering::SeqCst) + 1;
    let checkpoint_due = this_tick.is_multiple_of(u64::from(shared.config.checkpoint_every));

    // The engine lock covers the round and the checkpoint encode; the
    // journal is decoded into lineage frames after it is released.
    let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lineage::apply_batch(shared.lock_engine(), round, &batch, lineage_on, |engine| {
            let checkpoint = if checkpoint_due || engine.is_finished() {
                Some(engine.checkpoint()?)
            } else {
                None
            };
            Ok((engine.next_round(), engine.is_finished(), checkpoint))
        })
    }));
    let (frames, (next_round, finished, checkpoint)) = match stepped {
        Err(_) => {
            shared.fail("engine tick panicked", "daemon degraded to read-only");
            return Err(ServeError::Fatal(
                "engine tick panicked; daemon degraded to read-only".into(),
            ));
        }
        Ok(Err(e)) => {
            shared.fail("engine tick failed", &e.to_string());
            return Err(ServeError::Sim(e));
        }
        Ok(Ok(state)) => state,
    };

    // The lineage join lands — and fsyncs — *before* the checkpoint,
    // so a round the checkpoint covers always has durable lineage; a
    // crash between the two truncates and regenerates this round's
    // frames on recovery.
    if lineage_on {
        let mut ingest = shared.lock_ingest();
        if let Some(state) = ingest.lineage.as_mut() {
            let bytes = state.index.append(&frames).map_err(|e| {
                shared.fail("lineage index write failed", &e.to_string());
                ServeError::Io(format!("lineage index write failed: {e}"))
            })?;
            shared.metrics.lineage_bytes.add(bytes);
            shared.metrics.lineage_frames.add(frames.len() as u64);
            shared.metrics.lineage_applied.add(applied as u64);
            absorb_frames(state, frames).inspect_err(|e| {
                shared.fail("lineage mirror refused a frame", &e.to_string());
            })?;
        }
        ingest.applying = None;
    }
    drop(applying_window);

    if let Some(bytes) = checkpoint {
        let ck_path = shared.config.state_dir.join(CHECKPOINT_FILE);
        write_atomic(&ck_path, &bytes, shared.config.fsync).map_err(|e| {
            shared.fail("checkpoint write failed", &e.to_string());
            ServeError::Io(format!("checkpoint write failed: {e}"))
        })?;
        // With the checkpoint durable, everything the WAL recorded up
        // to the barrier is redundant: compact down to what arrived
        // during the step, refreshing the survivors' recorded offsets.
        let mut ingest = shared.lock_ingest();
        let events: Vec<SequencedEvent> = ingest.pending.iter().map(|&(_, seq)| seq).collect();
        let offsets = ingest.wal.compact(&events).map_err(|e| {
            shared.fail("event log compaction failed", &e.to_string());
            ServeError::Io(format!("event log compaction failed: {e}"))
        })?;
        for ((slot, _), offset) in ingest.pending.iter_mut().zip(offsets) {
            *slot = offset;
        }
        shared.metrics.wal_bytes.set(ingest.wal.bytes() as i64);
        drop(ingest);
        shared.last_checkpoint_tick.store(this_tick, Ordering::SeqCst);
        shared.metrics.last_checkpoint_tick.set(this_tick as i64);
        shared.events_since_checkpoint.store(0, Ordering::SeqCst);
        shared.metrics.events_since_checkpoint.set(0);
        if shared.log.enabled_for(LogLevel::Debug) {
            shared.log.debug(
                "daemon",
                "checkpoint landed",
                &[("tick", &this_tick.to_string()), ("next_round", &next_round.to_string())],
            );
        }
    } else {
        let since = shared.events_since_checkpoint.fetch_add(applied as u64, Ordering::SeqCst)
            + applied as u64;
        shared.metrics.events_since_checkpoint.set(since as i64);
    }

    shared.set_queue_gauges(shared.lock_ingest().pending.len());
    shared.next_round.store(next_round, Ordering::SeqCst);
    shared.finished.store(finished, Ordering::SeqCst);
    shared.ticks.fetch_add(1, Ordering::SeqCst);
    if shared.log.enabled_for(LogLevel::Debug) {
        shared.log.debug(
            "daemon",
            "tick applied",
            &[
                ("round", &round.to_string()),
                ("applied", &applied.to_string()),
                ("finished", if finished { "true" } else { "false" }),
            ],
        );
    }
    Ok(TickOutcome { stepped: true, applied, next_round, finished })
}

fn ticker_loop(shared: &Arc<Shared>, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) && !shared.draining.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        if shared.shutdown.load(Ordering::SeqCst)
            || shared.draining.load(Ordering::SeqCst)
            || shared.failed.load(Ordering::SeqCst)
        {
            return;
        }
        if shared.finished.load(Ordering::SeqCst) {
            continue;
        }
        // Errors flip `failed`; the loop then exits and the daemon
        // serves reads until someone shuts it down.
        if run_tick(shared).is_err() {
            return;
        }
    }
}

/// Final checkpoint + compaction for a graceful exit.
fn final_checkpoint(shared: &Arc<Shared>) -> Result<(), ServeError> {
    let bytes = {
        let engine = shared.lock_engine();
        engine.checkpoint()?
    };
    write_atomic(&shared.config.state_dir.join(CHECKPOINT_FILE), &bytes, shared.config.fsync)?;
    let mut ingest = shared.lock_ingest();
    let leftover: Vec<SequencedEvent> = ingest.pending.iter().map(|&(_, seq)| seq).collect();
    if !leftover.is_empty() && shared.finished.load(Ordering::SeqCst) {
        // The run completed with events still queued: they can never
        // apply, so they are dropped — visibly. `paydemand lineage
        // verify` reports their ids as never-applied, not missing.
        shared.metrics.rejected_finished.add(leftover.len() as u64);
        ingest.wal.compact(&[])?;
    } else {
        let offsets = ingest.wal.compact(&leftover)?;
        for ((slot, _), offset) in ingest.pending.iter_mut().zip(offsets) {
            *slot = offset;
        }
    }
    shared.metrics.wal_bytes.set(ingest.wal.bytes() as i64);
    Ok(())
}

fn prices_json(shared: &Arc<Shared>) -> String {
    let engine = shared.lock_engine();
    let mut out = String::with_capacity(256);
    match engine.last_round() {
        Some(record) => {
            out.push_str(&format!("{{\"round\": {}, \"rewards\": [", record.round));
            let mut first = true;
            for (task, reward) in record.rewards.iter().enumerate() {
                if let Some(r) = reward {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    out.push_str(&format!("{{\"task\": {task}, \"reward\": {r}}}"));
                }
            }
            out.push_str(&format!("], \"total_paid\": {}}}\n", engine.total_paid()));
        }
        None => out.push_str("{\"round\": 0, \"rewards\": [], \"total_paid\": 0}\n"),
    }
    out
}

fn demand_json(shared: &Arc<Shared>) -> Result<String, ServeError> {
    let engine = shared.lock_engine();
    let statuses = engine.task_statuses()?;
    drop(engine);
    let mut out = String::with_capacity(64 + statuses.len() * 64);
    out.push_str("{\"tasks\": [");
    for (i, s) in statuses.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"task\": {}, \"received\": {}, \"required\": {}, \"completed_round\": {}, \
             \"reward\": {}}}",
            s.task,
            s.received,
            s.required,
            s.completed_round.map_or("null".to_owned(), |r| r.to_string()),
            s.reward.map_or("null".to_owned(), |r| r.to_string()),
        ));
    }
    out.push_str("]}\n");
    Ok(out)
}

/// Renders an event payload as a JSON object.
fn event_payload_json(event: &ExternalEvent) -> String {
    match *event {
        ExternalEvent::Move { user, x, y } => {
            format!("{{\"type\": \"move\", \"user\": {user}, \"x\": {x}, \"y\": {y}}}")
        }
        ExternalEvent::Upload { user, task, value } => {
            format!(
                "{{\"type\": \"upload\", \"user\": {user}, \"task\": {task}, \"value\": {value}}}"
            )
        }
    }
}

/// The `GET /events/{id}` body: the full lineage chain for an applied
/// event, the queue position for a pending one, the round for one a
/// tick is applying right now, `None` (404) for an id the daemon has
/// never acked.
fn event_json(shared: &Arc<Shared>, id: u64) -> Option<String> {
    let ingest = shared.lock_ingest();
    // Ids rise through the queue, with a gap where a WAL append failed.
    if let Ok(at) = ingest.pending.binary_search_by_key(&id, |(_, seq)| seq.id) {
        let (offset, seq) = &ingest.pending[at];
        return Some(format!(
            "{{\"event_id\": {id}, \"status\": \"pending\", \"request_id\": {}, \
             \"wal_offset\": {offset}, \"event\": {}}}\n",
            seq.request,
            event_payload_json(&seq.event),
        ));
    }
    if let Some(Applying { first, last, round }) = ingest.applying {
        if (first..=last).contains(&id) {
            return Some(format!(
                "{{\"event_id\": {id}, \"status\": \"applying\", \"round\": {round}}}\n"
            ));
        }
    }
    let state = ingest.lineage.as_ref()?;
    let frame = state.applied.get(id)?;
    let round = state.rounds.get(&frame.round);
    let total_paid = round.map_or("null".to_owned(), |r| format!("{}", r.total_paid));
    let round_applied = round.map_or("null".to_owned(), |r| r.applied.to_string());
    Some(format!(
        "{{\"event_id\": {id}, \"status\": \"applied\", \"request_id\": {}, \
         \"wal_offset\": {}, \"round\": {}, \"disposition\": \"{}\", \"pay\": {}, \
         \"round_applied\": {round_applied}, \"round_total_paid\": {total_paid}}}\n",
        frame.request_id,
        frame.wal_offset,
        frame.round,
        frame.disposition.label(),
        frame.pay,
    ))
}

fn status_json(shared: &Arc<Shared>) -> String {
    let (rounds_run, next_round, finished, total_paid, spend_cap, pending_retries) = {
        let engine = shared.lock_engine();
        (
            engine.rounds_run(),
            engine.next_round(),
            engine.is_finished(),
            engine.total_paid(),
            engine.spend_cap(),
            engine.pending_retries(),
        )
    };
    let (queue_depth, wal_bytes) = {
        let ingest = shared.lock_ingest();
        (ingest.pending.len(), ingest.wal.bytes())
    };
    let area = shared.dims.area;
    format!(
        "{{\"state\": \"{}\", \"next_round\": {next_round}, \"rounds_run\": {rounds_run}, \
         \"finished\": {finished}, \"users\": {}, \"tasks\": {}, \
         \"area\": {{\"min_x\": {}, \"min_y\": {}, \"max_x\": {}, \"max_y\": {}}}, \
         \"total_paid\": {total_paid}, \"spend_cap\": {}, \
         \"queue_depth\": {queue_depth}, \"queue_capacity\": {}, \
         \"ingested_events_total\": {}, \"shed_total\": {}, \"worker_restarts_total\": {}, \
         \"replayed_events\": {}, \"ticks_total\": {}, \"pending_retries\": {pending_retries}, \
         \"wal_bytes\": {wal_bytes}, \"last_checkpoint_tick\": {}, \
         \"events_since_checkpoint\": {}, \"uptime_seconds\": {:.3}}}\n",
        shared.state_label(),
        shared.dims.users,
        shared.dims.tasks,
        area.min().x,
        area.min().y,
        area.max().x,
        area.max().y,
        spend_cap.map_or("null".to_owned(), |c| c.to_string()),
        shared.config.queue_capacity,
        shared.metrics.ingest_events.get(),
        shared.metrics.shed.get(),
        shared.metrics.worker_restarts.get(),
        shared.replayed,
        shared.ticks.load(Ordering::SeqCst),
        shared.last_checkpoint_tick.load(Ordering::SeqCst),
        shared.events_since_checkpoint.load(Ordering::SeqCst),
        shared.started.elapsed().as_secs_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::Disposition;

    fn state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paydemand-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn scenario() -> Scenario {
        Scenario::paper_default()
            .with_users(30)
            .with_tasks(10)
            .with_max_rounds(4)
            .with_selector(paydemand_sim::SelectorKind::Greedy)
    }

    /// Acks one batch of `count` moves, `salt` varying where they go.
    fn post_moves(daemon: &Daemon, count: usize, salt: usize) {
        let events: Vec<String> = (salt..salt + count)
            .map(|k| {
                let (user, x, y) = (k % 30, k % 2999, (7 * k) % 2999);
                format!(r#"{{"type": "move", "user": {user}, "x": {x}.5, "y": {y}.25}}"#)
            })
            .collect();
        let body = format!(r#"{{"events": [{}]}}"#, events.join(", "));
        let ack = http::request(
            daemon.local_addr(),
            "POST",
            "/events",
            body.as_bytes(),
            Duration::from_secs(10),
        )
        .expect("request completes");
        assert_eq!(ack.status, 202, "{}", ack.body);
    }

    fn frame(event_id: u64) -> AppliedFrame {
        AppliedFrame {
            event_id,
            request_id: event_id / 100,
            wal_offset: 46 * event_id,
            round: 1,
            disposition: Disposition::Moved,
            pay: 0.0,
        }
    }

    #[test]
    fn mirror_blocks_stay_full_at_their_capacity_and_answer_every_edge() {
        // Odd ids from 3, a gap between every two, over two full blocks
        // and part of a third.
        let ids: Vec<u64> = (0..2 * MIRROR_BLOCK as u64 + 5).map(|i| 3 + 2 * i).collect();
        let mut mirror = AppliedMirror::default();
        for &id in &ids {
            mirror.push(frame(id)).unwrap();
        }
        assert_eq!(mirror.blocks.len(), 3);
        for block in &mirror.blocks {
            assert_eq!(block.capacity(), MIRROR_BLOCK);
        }
        assert!(mirror.blocks[..2].iter().all(|b| b.len() == MIRROR_BLOCK));
        for block in &mirror.blocks {
            for id in [block[0].event_id, block[block.len() - 1].event_id] {
                assert_eq!(mirror.get(id), Some(&frame(id)));
            }
        }
        assert!(ids.iter().all(|&id| mirror.get(id) == Some(&frame(id))));
        let last = *ids.last().unwrap();
        assert_eq!(mirror.last(), Some(&frame(last)));
        for missing in [0, 1, 2, 4, 2 * MIRROR_BLOCK as u64 + 2, last + 1, u64::MAX] {
            assert_eq!(mirror.get(missing), None, "id {missing}");
        }
        assert_eq!(AppliedMirror::default().get(0), None);
    }

    #[test]
    fn an_applied_id_that_does_not_follow_the_last_is_refused() {
        let mut mirror = AppliedMirror::default();
        mirror.push(frame(5)).unwrap();
        for id in [5, 4, 0] {
            match mirror.push(frame(id)) {
                Err(ServeError::Config(message)) => {
                    assert!(message.contains(&format!("event {id} does not follow event 5")));
                }
                other => panic!("id {id} after 5: {other:?}"),
            }
        }
        assert_eq!(mirror.blocks, [vec![frame(5)]]);
        mirror.push(frame(6)).unwrap();
    }

    #[test]
    fn event_lookups_answer_block_edges_and_pending_ids_by_search() {
        let dir = state_dir("lookups");
        let mut config = DaemonConfig::new(scenario(), dir.clone());
        config.fsync = false;
        let daemon = Daemon::start(config, &Recorder::disabled()).expect("daemon starts");
        for salt in [0, 1000, 2000] {
            post_moves(&daemon, 1000, salt);
        }
        assert_eq!(daemon.tick().unwrap().applied, 3000);
        let shared = Arc::clone(&daemon.shared);
        let status = |id| {
            event_json(&shared, id).map(|body| {
                let at = body.find("\"status\": \"").expect("a status") + 11;
                body[at..].split('"').next().unwrap().to_owned()
            })
        };
        // Ids 1..=2048 fill the first block, 2049..=3000 start the next.
        for id in [1, 2048, 2049, 3000] {
            assert_eq!(status(id).as_deref(), Some("applied"), "id {id}");
        }
        assert_eq!(status(0), None);
        assert_eq!(status(3001), None);

        post_moves(&daemon, 3, 0);
        for id in [3001, 3002, 3003] {
            let body = event_json(&shared, id).expect("a pending id answers");
            assert!(body.starts_with(&format!("{{\"event_id\": {id}, \"status\": \"pending\"")));
        }
        assert_eq!(status(2999).as_deref(), Some("applied"));
        assert_eq!(status(3004), None);
        daemon.shutdown().expect("graceful shutdown");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_regenerated_round_answers_every_id_as_the_uninterrupted_daemon_does() {
        // Checkpoints land every second tick, so a crash after the third
        // leaves its lineage past the checkpoint: recovery truncates it
        // and the replay regenerates it.
        let run = |tag: &str, crash: bool| {
            let dir = state_dir(tag);
            let mut config = DaemonConfig::new(scenario(), dir.clone());
            config.checkpoint_every = 2;
            let daemon = Daemon::start(config.clone(), &Recorder::disabled()).unwrap();
            for tick in 0..3 {
                post_moves(&daemon, 1200, 1200 * tick);
                daemon.tick().unwrap();
            }
            let daemon = if crash {
                daemon.crash();
                config.resume = true;
                let recorder = Recorder::enabled();
                let resumed = Daemon::start(config, &recorder).unwrap();
                let truncated = recorder
                    .snapshot()
                    .counter_value("lineage_truncated_frames_total", None)
                    .unwrap_or(0);
                assert_eq!(truncated, 1201, "round 3's frames are truncated");
                assert_eq!(resumed.replayed_events(), 1200);
                resumed
            } else {
                daemon
            };
            let bodies: Vec<Option<String>> =
                (0..=3601).map(|id| event_json(&daemon.shared, id)).collect();
            daemon.shutdown().unwrap();
            let _ = std::fs::remove_dir_all(dir);
            bodies
        };
        let reference = run("uninterrupted", false);
        let recovered = run("recovered", true);
        assert!(reference[1..=3600]
            .iter()
            .all(|body| body.as_ref().is_some_and(|b| b.contains("\"applied\""))));
        assert_eq!((reference[0].as_ref(), reference[3601].as_ref()), (None, None));
        for (id, (want, got)) in reference.iter().zip(&recovered).enumerate() {
            assert_eq!(want, got, "event {id}");
        }
    }

    #[test]
    fn an_event_a_tick_is_applying_answers_applying_then_applied() {
        let dir = state_dir("applying");
        let daemon =
            Daemon::start(DaemonConfig::new(scenario(), dir.clone()), &Recorder::disabled())
                .expect("daemon starts");
        let body = br#"{"events": [{"type": "move", "user": 3, "x": 100.0, "y": 200.0},
            {"type": "upload", "user": 5, "task": 2, "value": 7.5}]}"#;
        let ack =
            http::request(daemon.local_addr(), "POST", "/events", body, Duration::from_secs(5))
                .expect("request completes");
        assert_eq!(ack.status, 202, "{}", ack.body);

        let shared = Arc::clone(&daemon.shared);
        let id = shared.lock_ingest().pending.back().map(|(_, seq)| seq.id).expect("acked");
        let round = shared.next_round.load(Ordering::SeqCst);
        // Holding the engine lock parks the tick between draining the
        // queue and stepping the round: the window is open until we
        // let go.
        let engine = shared.lock_engine();
        let tick = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || run_tick(&shared)
        });
        let in_window = loop {
            let status = event_json(&shared, id).expect("an acked event never answers 404");
            if !status.contains("\"pending\"") {
                break status;
            }
            std::thread::yield_now();
        };
        assert_eq!(
            in_window,
            format!("{{\"event_id\": {id}, \"status\": \"applying\", \"round\": {round}}}\n")
        );
        drop(engine);
        let outcome = tick.join().expect("tick thread").expect("tick succeeds");
        assert_eq!(outcome.applied, 2);
        let after = event_json(&shared, id).expect("applied events resolve");
        assert!(after.contains("\"status\": \"applied\""), "{after}");
        assert!(after.contains(&format!("\"round\": {round}")), "{after}");
        assert!(shared.lock_ingest().applying.is_none());

        daemon.shutdown().expect("graceful shutdown");
        let _ = std::fs::remove_dir_all(dir);
    }
}
