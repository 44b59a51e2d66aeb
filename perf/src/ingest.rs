//! `ingest`: an in-process daemon on a 200-user × 30-task engine (four
//! workers, a checkpoint every tick, fsync and lineage on) under
//! open-loop HTTP load from two client threads, each with at most one
//! connection open (`Connection: close`). One operation is one client
//! visit: `POST /events` of a 200-event batch (the batch size of
//! `loadgen`'s honest clients), then one read of what the daemon
//! publishes — `GET /prices` and `GET /events/{id}` of a recently acked
//! id, in turn. Visits fall due at a fixed rate and are timed from
//! their due time to the read's answer, so a stall also charges the
//! visits queued behind it, and a slower read shows as plainly as a
//! slower write. Closed-loop bursts of POSTs from one client measure
//! capacity.
//!
//! The benchmark ticks the daemon itself: every 250 ms during the
//! open-loop segments, and once after each burst to apply its backlog
//! before the next segment. With the daemon's own timer, whether a tick
//! fell inside a burst decided how many events one tick held, and so
//! the run's peak memory.
//!
//! A run is a few sessions, each a fresh daemon: start, cycles of an
//! open-loop segment then a burst, a crash, and resumes of the crashed
//! state. Set-up, latency, capacity and recovery are each sampled in
//! every session, so each samples the whole run.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use paydemand_obs::{Recorder, Snapshot};
use paydemand_serve::{daemon, lineage};
use paydemand_sim::{Engine, Scenario};

use crate::pace::{Elasticity, Pace};
use crate::serve::{self, Running};
use crate::{derive_seed, ms, stats, Layers, Outcome, Sizes};

/// A visit waits mostly on fsync and the network stack, and slows only
/// with the pace kernel's ALU loop.
pub(crate) const ELASTICITY: Elasticity = Elasticity { chase: 0.0, alu: 1.0 };
/// Pace samples taken after each burst and each crash, while the daemon
/// is idle: sampled while it serves, the kernels would time the
/// daemon's own load.
const PACE_SAMPLES: usize = 3;

/// Open-loop client threads (and so open connections at most).
const CLIENTS: usize = 2;
/// The generator gives up once it runs this far behind schedule.
const MAX_LATE: Duration = Duration::from_secs(1);
/// A visit started this much after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);
/// Distinct request bodies, cycled through.
const POOL: usize = 256;
/// Acked-but-unticked batches left in the WAL at each crash.
const TAIL_POSTS: usize = 2;
/// Interval between the ticks of an open-loop segment.
const TICK: Duration = Duration::from_millis(250);
/// Age at which an acked event is read back by id. The daemon cannot
/// resolve an event between the tick that drains it from the queue and
/// the lineage append of that tick (`GET /events/{id}` answers 404
/// then), so reads ask for ids acked a few ticks ago.
const SETTLE: Duration = Duration::from_secs(1);
/// Daemon starts timed per session (the last one is loaded), and
/// resumes of each crashed state.
const REPEATS: usize = 3;

fn scenario(sizes: &Sizes, seed: u64) -> Scenario {
    let mut s = Scenario::paper_default()
        .with_users(sizes.ingest.users)
        .with_tasks(sizes.ingest.tasks)
        .with_max_rounds(10_000)
        .with_seed(derive_seed(seed, 0));
    s.reward_budget = 10_000.0;
    s
}

/// No timer: the benchmark ticks. The queue holds a whole burst on top
/// of what a segment left unticked.
fn config(sizes: &Sizes, scenario: &Scenario, dir: &Path) -> paydemand_serve::DaemonConfig {
    let size = &sizes.ingest;
    let burst_events = (size.burst + TAIL_POSTS) * size.events_per_post;
    serve::config(scenario, dir, (2 * burst_events).max(65_536), None)
}

pub(crate) fn run(
    sizes: &Sizes,
    seed: u64,
    layers: &Layers,
    pace: &mut Pace,
    scratch: &Path,
) -> Result<Outcome, String> {
    let size = &sizes.ingest;
    let scenario = scenario(sizes, seed);
    let make_pool = || serve::bodies(&scenario, derive_seed(seed, 1), POOL, size.events_per_post);
    let mut out = Outcome::default();

    // The untraced reference for the tracing overhead runs first, on
    // its own daemon, for two segments.
    let reference = if layers.traced() {
        let dir = scratch.join("reference");
        let daemon = Running::start(config(sizes, &scenario, &dir), &Recorder::disabled())?;
        let pool = make_pool();
        let acked = Acked::default();
        let segments = (0..2).map(|_| open_loop(&daemon, &pool, size, &acked));
        Some(segments.fold(Window::default(), Window::absorb))
    } else {
        None
    };

    let (mut window, mut bursts) = (Window::default(), Window::default());
    let mut during = Snapshot::default();
    let (mut setups_s, mut recoveries_s) = (Vec::new(), Vec::new());
    let mut crashed = None;
    for session in 0..size.sessions {
        // Set-up: generate the request bodies and start the daemon.
        let dir = scratch.join(format!("daemon-{session}"));
        let mut started = None;
        for _ in 0..REPEATS {
            drop(started.take());
            let _ = std::fs::remove_dir_all(&dir);
            pace.samples(PACE_SAMPLES);
            let start = Instant::now();
            let pool = make_pool();
            let daemon = Running::start(config(sizes, &scenario, &dir), layers.recorder())?;
            setups_s.push((start, start.elapsed().as_secs_f64()));
            started = Some((pool, daemon));
        }
        let (pool, daemon) = started.ok_or("no daemon started")?;
        let addr = daemon.addr();

        let acked = Acked::default();
        let mut acked_events = 0;
        for _ in 0..size.cycles {
            let before = layers.recorder().snapshot();
            let segment = open_loop(&daemon, &pool, size, &acked);
            during = during.merge(&crate::delta(&layers.recorder().snapshot(), &before));
            acked_events += segment.acked_events;
            window = window.absorb(segment);
            let burst = closed_loop(addr, &pool, size.burst);
            acked_events += burst.acked_events;
            bursts = bursts.absorb(burst);
            daemon.daemon().tick().map_err(|e| e.to_string())?;
            pace.samples(PACE_SAMPLES);
        }
        for body in pool.iter().take(TAIL_POSTS) {
            acked_events += serve::post_counted(addr, body, size.events_per_post, &mut out) as u64;
        }
        drop(daemon);
        let (pending, resumes) =
            recovery(sizes, &scenario, &dir, scratch, acked_events, pace, &mut out)?;
        recoveries_s.extend(resumes);
        if let Some((previous, _)) = crashed.replace((dir, pending)) {
            let _ = std::fs::remove_dir_all(previous);
        }
    }
    window.tally(&mut out);
    bursts.tally(&mut out);
    pace.samples(PACE_SAMPLES);
    out.set("setup_s", stats::median(&pace.paced_all(&setups_s)));
    out.set("latency_ms_p50", stats::median(&pace.paced_all(&window.visits)));
    // One client's capacity at its median POST: a mean would follow the
    // host disk's fsync tail, which moves 2–3× between runs.
    let post_ms = stats::median(&pace.paced_all(&bursts.posts));
    out.set("throughput_per_s", crate::ratio(size.events_per_post as f64 * 1e3, post_ms));
    out.set("recovery_ms", stats::median(&pace.paced_all(&recoveries_s)) * 1e3);

    if layers.traced() {
        let (dir, pending) = crashed.ok_or("no session ran")?;
        window_layers(&window, reference.as_ref(), &during, size.events_per_post, &mut out);
        let visits_ms: Vec<f64> = window.visits.iter().map(|&(_, ms)| ms).collect();
        crate::op_layers(&mut out, &visits_ms, pace);
        let recovery_s = recoveries_s.last().map_or(0.0, |&(_, s)| s);
        let engine =
            serve::recovery_layers(&scenario, &dir, scratch, recovery_s, layers, &mut out)?;
        checkpoint_layers(&engine, scratch, layers, &mut out)?;
        // After the crash the WAL holds exactly the pending events, so
        // its size gives the bytes one write appends.
        let wal_bytes =
            std::fs::metadata(dir.join(daemon::WAL_FILE)).map_err(|e| e.to_string())?.len();
        let per_event = crate::ratio(wal_bytes as f64, pending as f64);
        out.set("wal.bytes", per_event * size.events_per_post as f64);
        crate::not_called(&mut out, crate::DAEMON_LAYERS);
    }
    Ok(out)
}

/// What one window of load saw.
#[derive(Debug, Default)]
struct Window {
    /// Each visit's due time and its latency from then to the read's
    /// answer, ms.
    visits: Vec<(Instant, f64)>,
    /// Write latencies from due time to the ack, ms.
    writes_ms: Vec<f64>,
    /// Read latencies from the read's start, ms.
    reads_ms: Vec<f64>,
    /// Each closed-loop POST's start and latency, ms.
    posts: Vec<(Instant, f64)>,
    /// Visits started more than [`LATE`] after their due time.
    late: u64,
    attempted: u64,
    failures: Vec<String>,
    acked_events: u64,
    /// Whether the generator fell more than [`MAX_LATE`] behind.
    abandoned: bool,
}

impl Window {
    /// `self` followed by `later`.
    fn absorb(mut self, later: Window) -> Window {
        self.visits.extend(later.visits);
        self.writes_ms.extend(later.writes_ms);
        self.reads_ms.extend(later.reads_ms);
        self.posts.extend(later.posts);
        self.late += later.late;
        self.attempted += later.attempted;
        self.failures.extend(later.failures);
        self.acked_events += later.acked_events;
        self.abandoned |= later.abandoned;
        self
    }

    fn tally(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failures.len() as u64;
        out.failures.extend(self.failures.iter().take(5).cloned());
        out.check(!self.abandoned, || {
            format!("the load generator fell over {MAX_LATE:?} behind schedule")
        });
    }
}

/// Ids of acked events, for reading them back by id once settled.
#[derive(Debug, Default)]
struct Acked {
    /// First event id of each ack younger than [`SETTLE`], oldest first.
    recent: Mutex<VecDeque<(Instant, u64)>>,
    /// The newest id acked at least [`SETTLE`] ago (0 before any).
    settled: AtomicU64,
}

impl Acked {
    fn push(&self, id: u64) {
        self.recent
            .lock()
            .expect("no client panics holding the ack list")
            .push_back((Instant::now(), id));
    }

    fn settled(&self) -> u64 {
        let mut recent = self.recent.lock().expect("no client panics holding the ack list");
        while let Some(&(at, id)) = recent.front() {
            if at.elapsed() < SETTLE {
                break;
            }
            self.settled.fetch_max(id, Ordering::Relaxed);
            recent.pop_front();
        }
        self.settled.load(Ordering::Relaxed)
    }
}

/// One open-loop segment: visit `k` falls due `k / rate` after the
/// start and goes to client `k % CLIENTS`, while a third thread ticks
/// the daemon every [`TICK`].
fn open_loop(daemon: &Running, pool: &[String], size: &crate::IngestSize, acked: &Acked) -> Window {
    let addr = daemon.addr();
    let every = Duration::from_secs_f64(1.0 / size.rate);
    let visits = (size.rate * size.segment.as_secs_f64()) as u32;
    let (abandoned, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let start = Instant::now() + Duration::from_millis(20);
    thread::scope(|scope| {
        let ticker = scope.spawn(|| {
            let mut next = start + TICK;
            let mut failures = Vec::new();
            while !done.load(Ordering::Relaxed) {
                match next.checked_duration_since(Instant::now()) {
                    // Short naps, so the ticker ends soon after the
                    // clients do.
                    Some(wait) => thread::sleep(wait.min(Duration::from_millis(10))),
                    None => {
                        if let Err(e) = daemon.daemon().tick() {
                            failures.push(format!("tick: {e}"));
                        }
                        next += TICK;
                    }
                }
            }
            failures
        });
        let clients: Vec<_> = (0..CLIENTS as u32)
            .map(|client| {
                let abandoned = &abandoned;
                scope.spawn(move || {
                    let mut mine = Window::default();
                    for k in (client..visits).step_by(CLIENTS) {
                        let due = start + every * k;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let late = Instant::now().saturating_duration_since(due);
                        if late > MAX_LATE || abandoned.load(Ordering::Relaxed) {
                            abandoned.store(true, Ordering::Relaxed);
                            mine.abandoned = true;
                            break;
                        }
                        mine.late += u64::from(late > LATE);
                        mine.attempted += 1;
                        let body = &pool[k as usize % POOL];
                        if let Err(e) = visit(addr, body, k, acked, due, &mut mine) {
                            mine.failures.push(e);
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut window = Window::default();
        for client in clients {
            window = window.absorb(client.join().expect("client threads do not panic"));
        }
        done.store(true, Ordering::Relaxed);
        window.failures.extend(ticker.join().expect("the ticker does not panic"));
        window
    })
}

/// One visit due at `due`: the write, then the read (`GET /prices` on
/// even `k`, `GET /events/{id}` of a settled id on odd `k` once one is).
fn visit(
    addr: SocketAddr,
    body: &str,
    k: u32,
    acked: &Acked,
    due: Instant,
    window: &mut Window,
) -> Result<(), String> {
    let ack = serve::post(addr, body)?;
    window.writes_ms.push(ms(due.elapsed()));
    acked.push(ack.first_event_id);
    window.acked_events += ack.accepted;
    let read = Instant::now();
    read_back(addr, (k % 2 == 1).then(|| acked.settled()).filter(|&id| id > 0))?;
    window.reads_ms.push(ms(read.elapsed()));
    window.visits.push((due, ms(due.elapsed())));
    Ok(())
}

/// `GET /events/{id}`, or `GET /prices` without an id, checking the
/// answer.
fn read_back(addr: SocketAddr, id: Option<u64>) -> Result<(), String> {
    match id {
        Some(id) => {
            let r = serve::get(addr, &format!("/events/{id}"))
                .map_err(|e| format!("GET /events/{id}: {e}"))?;
            if r.status == 200 && serve::body_field(&r, "event_id") == Some(id) {
                Ok(())
            } else {
                Err(format!("GET /events/{id} answered {}: {}", r.status, r.body.trim()))
            }
        }
        None => {
            let r = serve::get(addr, "/prices").map_err(|e| format!("GET /prices: {e}"))?;
            if r.status == 200 && r.body.contains("\"rewards\"") {
                Ok(())
            } else {
                Err(format!("GET /prices answered {}: {}", r.status, r.body.trim()))
            }
        }
    }
}

/// One client POSTs `requests` pool bodies back to back.
fn closed_loop(addr: SocketAddr, pool: &[String], requests: usize) -> Window {
    let mut burst = Window::default();
    for body in pool.iter().cycle().take(requests) {
        burst.attempted += 1;
        let start = Instant::now();
        match serve::post(addr, body) {
            Ok(ack) => {
                burst.posts.push((start, ms(start.elapsed())));
                burst.acked_events += ack.accepted;
            }
            Err(e) => burst.failures.push(e),
        }
    }
    burst
}

/// Lineage verification and resumes of the crashed state in `dir`:
/// every acked event must be either applied (it has a lineage frame) or
/// back in the resumed daemon's queue, and the resumed daemon must
/// continue at the round after the last one with lineage. Returns the
/// events pending at the crash, and each resume's start and wall, in
/// seconds.
fn recovery(
    sizes: &Sizes,
    scenario: &Scenario,
    dir: &Path,
    scratch: &Path,
    acked: u64,
    pace: &mut Pace,
    out: &mut Outcome,
) -> Result<(u64, Vec<(Instant, f64)>), String> {
    let report = lineage::verify(scenario, dir).map_err(|e| e.to_string())?;
    out.check(report.is_clean(), || {
        format!(
            "lineage verify: {} missing, {} mismatched",
            report.missing.len(),
            report.mismatched.len()
        )
    });
    let (frames, _, _) =
        lineage::read_frames(&dir.join(daemon::LINEAGE_FILE)).map_err(|e| e.to_string())?;
    let applied = frames.iter().filter(|f| matches!(f, lineage::LineageFrame::Applied(_))).count();
    let last_round = frames.iter().map(lineage::LineageFrame::round).max().unwrap_or(0);
    drop(frames);

    let want = serve::Status {
        next_round: u64::from(last_round) + 1,
        queue_depth: acked.saturating_sub(applied as u64),
    };
    let mut resumes = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        pace.samples(PACE_SAMPLES);
        let start = Instant::now();
        let (recovery_s, status) =
            serve::resume_copy(dir, &scratch.join("resumed"), |d| config(sizes, scenario, d))?;
        resumes.push((start, recovery_s));
        out.check(status == want, || {
            format!("resumed daemon reports {status:?}, want {want:?} ({acked} acked, {applied} applied)")
        });
    }
    Ok((want.queue_depth, resumes))
}

/// Checkpoint encode and write of the resumed engine.
fn checkpoint_layers(
    engine: &Engine,
    scratch: &Path,
    layers: &Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let bytes =
        layers.time("checkpoint.encode", || engine.checkpoint()).map_err(|e| e.to_string())?;
    out.set("checkpoint.encode_ms", ms(start.elapsed()));
    let start = Instant::now();
    layers.time("checkpoint.write", || crate::write_atomic(&scratch.join("ingest.ck"), &bytes))?;
    out.set("checkpoint.write_ms", ms(start.elapsed()));
    out.set("checkpoint.bytes", bytes.len() as f64);
    Ok(())
}

/// The open-loop window's layers: server ingest stages as shares of the
/// client-seen write latency, and the engine phases of the ticks that
/// ran meanwhile.
fn window_layers(
    window: &Window,
    reference: Option<&Window>,
    during: &Snapshot,
    events_per_post: usize,
    out: &mut Outcome,
) {
    crate::engine_layers(during, out);
    let writes = window.writes_ms.len() as f64;
    let client_ms = crate::ratio(window.writes_ms.iter().sum(), writes);
    let stage_ms = |stage: &str| {
        crate::histogram(during, "ingest_stage_seconds", Some(("stage", stage))).mean() * 1e-6
    };
    let share = |stage: &str| crate::ratio(stage_ms(stage), client_ms);
    out.set("events.decode_share", share("parse"));
    out.set("ingest.validate_share", share("validate"));
    out.set("ingest.enqueue_share", share("enqueue"));
    out.set("wal.append_share", share("fsync"));
    out.set("ingest.wait_share", 1.0 - share("ack"));
    let named: f64 = ["parse", "validate", "enqueue", "fsync"].iter().map(|s| stage_ms(s)).sum();
    out.set("bench.coverage_frac", crate::ratio(named, stage_ms("ack")));
    out.set(
        "ingest.read_ratio",
        crate::ratio(stats::median(&window.reads_ms), stats::median(&window.writes_ms)),
    );
    out.set("loadgen.late_frac", crate::ratio(window.late as f64, window.attempted as f64));
    out.set("wal.events_per_fsync", events_per_post as f64);
    let counter = |name: &str| during.counter_total(name).unwrap_or(0) as f64;
    out.set("lineage.bytes", crate::ratio(counter("lineage_bytes_total"), writes));
    out.set("trace.journal_bytes", crate::ratio(counter("trace_bytes_total"), writes));
    if let Some(reference) = reference {
        let mean = |w: &Window| {
            crate::ratio(w.visits.iter().map(|&(_, ms)| ms).sum(), w.visits.len() as f64)
        };
        out.set("bench.trace_overhead_frac", crate::ratio(mean(window), mean(reference)) - 1.0);
    }
}
