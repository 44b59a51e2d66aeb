//! Driving an in-process daemon: start, stop, and its HTTP surface.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use paydemand_obs::{parse_json, JsonValue, Recorder};
use paydemand_serve::http::{self, Response};
use paydemand_serve::{Daemon, DaemonConfig};
use paydemand_sim::Scenario;

/// Client-side timeout of every request.
const TIMEOUT: Duration = Duration::from_secs(10);

/// A started daemon that is always stopped: dropping it crashes it
/// (no drain, no final checkpoint — what kill -9 leaves), which also
/// joins every thread it started.
#[derive(Debug)]
pub(crate) struct Running(Option<Daemon>);

impl Running {
    pub(crate) fn start(config: DaemonConfig, recorder: &Recorder) -> Result<Running, String> {
        Daemon::start(config, recorder).map(|d| Running(Some(d))).map_err(|e| e.to_string())
    }

    pub(crate) fn daemon(&self) -> &Daemon {
        self.0.as_ref().expect("a Running daemon is present until dropped")
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.daemon().local_addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(daemon) = self.0.take() {
            daemon.crash();
        }
    }
}

/// The daemon configuration every workload uses: fsync and lineage on,
/// a checkpoint every tick, four workers, and an ingest queue deep
/// enough that no request of the workload is shed. Each value is pinned
/// here, defaults included, so that changing a default does not change
/// what the benchmark measures.
pub(crate) fn config(
    scenario: &Scenario,
    dir: &Path,
    queue_capacity: usize,
    tick_interval: Option<Duration>,
) -> DaemonConfig {
    let mut config = DaemonConfig::new(scenario.clone(), dir.to_path_buf());
    config.queue_capacity = queue_capacity;
    config.tick_interval = tick_interval;
    config.workers = 4;
    config.checkpoint_every = 1;
    config.fsync = true;
    config.lineage = true;
    config
}

/// Resumes a copy of the crashed state in `crashed`, made in `copy`:
/// the resume's wall (seconds) and the resumed daemon's status.
pub(crate) fn resume_copy(
    crashed: &Path,
    copy: &Path,
    config: impl Fn(&Path) -> DaemonConfig,
) -> Result<(f64, Status), String> {
    crate::copy_dir(crashed, copy)?;
    let mut resume = config(copy);
    resume.resume = true;
    resume.tick_interval = None;
    let start = Instant::now();
    let resumed = Running::start(resume, &Recorder::disabled())?;
    let wall = start.elapsed().as_secs_f64();
    Ok((wall, status(resumed.addr())?))
}

/// What the `202` answer to `POST /events` says.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ack {
    pub(crate) accepted: u64,
    pub(crate) first_event_id: u64,
}

/// POSTs one batch: its ack, or why there was none.
pub(crate) fn post(addr: SocketAddr, body: &str) -> Result<Ack, String> {
    let r = http::request(addr, "POST", "/events", body.as_bytes(), TIMEOUT)
        .map_err(|e| format!("POST /events: {e}"))?;
    let doc = if r.status == 202 { parse_json(&r.body).ok() } else { None };
    let field = |name: &str| doc.as_ref()?.get(name)?.as_u64();
    match (field("accepted"), field("first_event_id")) {
        (Some(accepted), Some(first_event_id)) => Ok(Ack { accepted, first_event_id }),
        _ => Err(format!("POST /events answered {}: {}", r.status, r.body.trim())),
    }
}

/// POSTs one batch of `events` events as an operation of `out`: the
/// events acked, or 0 for a refusal, which counts as a failed operation.
pub(crate) fn post_counted(
    addr: SocketAddr,
    body: &str,
    events: usize,
    out: &mut crate::Outcome,
) -> usize {
    out.attempted += 1;
    match post(addr, body) {
        Ok(ack) if ack.accepted == events as u64 => events,
        result => {
            out.failed += 1;
            out.failures.push(match result {
                Ok(ack) => format!("POST /events accepted {} of {events} events", ack.accepted),
                Err(e) => e,
            });
            0
        }
    }
}

pub(crate) fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    http::request(addr, "GET", path, b"", TIMEOUT)
}

/// The fields of `GET /status` the checks read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Status {
    pub(crate) next_round: u64,
    pub(crate) queue_depth: u64,
}

pub(crate) fn status(addr: SocketAddr) -> Result<Status, String> {
    let response = get(addr, "/status").map_err(|e| format!("GET /status: {e}"))?;
    let doc = parse_json(&response.body).map_err(|e| format!("GET /status body: {e}"))?;
    let field = |name: &str| {
        doc.get(name).and_then(JsonValue::as_u64).ok_or(format!("GET /status lacks {name}"))
    };
    Ok(Status { next_round: field("next_round")?, queue_depth: field("queue_depth")? })
}

/// An integer field of a JSON response body.
pub(crate) fn body_field(response: &Response, name: &str) -> Option<u64> {
    parse_json(&response.body).ok()?.get(name)?.as_u64()
}

/// `count` request bodies of `events` events each for `scenario`'s
/// workload, from `seed`: 70% moves to a uniform point of the area, 30%
/// uploads of a uniform value for a uniform task.
pub(crate) fn bodies(scenario: &Scenario, seed: u64, count: usize, events: usize) -> Vec<String> {
    let mut rng = crate::SplitMix::new(seed);
    let (users, tasks) = (scenario.users as u32, scenario.tasks as u32);
    let side = scenario.area_side;
    (0..count)
        .map(|_| {
            let batch: Vec<paydemand_sim::ExternalEvent> = (0..events)
                .map(|_| {
                    let user = rng.below(users);
                    if rng.unit() < 0.7 {
                        paydemand_sim::ExternalEvent::Move {
                            user,
                            x: rng.unit() * side,
                            y: rng.unit() * side,
                        }
                    } else {
                        paydemand_sim::ExternalEvent::Upload {
                            user,
                            task: rng.below(tasks),
                            value: rng.unit() * 100.0,
                        }
                    }
                })
                .collect();
            paydemand_serve::events::encode_batch(&batch)
        })
        .collect()
}

/// Times the two halves of a daemon resume on a copy of the crashed
/// state in `crashed`: the WAL scan, as a share of the daemon's resume
/// wall `recovery_s`, and the engine resume from the checkpoint.
/// Returns the resumed engine.
pub(crate) fn recovery_layers(
    scenario: &Scenario,
    crashed: &Path,
    scratch: &Path,
    recovery_s: f64,
    layers: &crate::Layers,
    out: &mut crate::Outcome,
) -> Result<paydemand_sim::Engine, String> {
    let copy = scratch.join("scan");
    crate::copy_dir(crashed, &copy)?;
    let wal_path = copy.join(paydemand_serve::daemon::WAL_FILE);
    let start = Instant::now();
    let opened = layers.time("wal.scan", || paydemand_serve::wal::Wal::open(&wal_path, true));
    let scan_s = start.elapsed().as_secs_f64();
    opened.map_err(|e| e.to_string())?;
    out.set("wal.scan_share", crate::ratio(scan_s, recovery_s));
    let ck_path = copy.join(paydemand_serve::daemon::CHECKPOINT_FILE);
    let bytes =
        std::fs::read(&ck_path).map_err(|e| format!("reading {}: {e}", ck_path.display()))?;
    let start = Instant::now();
    let engine = layers
        .time("checkpoint.resume", || {
            paydemand_sim::Engine::resume(scenario, &bytes, &Recorder::disabled())
        })
        .map_err(|e| e.to_string())?;
    out.set("checkpoint.resume_ms", crate::ms(start.elapsed()));
    Ok(engine)
}
