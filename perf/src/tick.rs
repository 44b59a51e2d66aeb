//! `tick`: durable daemon ticks over a 50k-user × 1k-task engine
//! (R = 200 m, greedy selection, about half a selecting user per tick,
//! φ and budget too large to bind). A run is a few identical sessions,
//! each a fresh daemon: every tick is preceded by sequential `POST
//! /events` batches from one client; after the timed ticks, two more
//! batches are acked but never ticked and the daemon is crashed, then a
//! copy of its state directory is resumed. One operation is one
//! `Daemon::tick()`.
//!
//! Ticks slow as a session goes on (the checkpoint grows with every
//! round), so a percentile of one long session would be read off a
//! single stretch of the run; repeated sessions spread every percentile,
//! set-up and recovery over the whole run.
//!
//! The traced run also runs a bench-side tick that makes the same
//! public calls in the same order, each inside a span, and checks its
//! final checkpoint is byte-identical to the daemon's.

use std::path::Path;
use std::time::Instant;

use paydemand_obs::Recorder;
use paydemand_serve::lineage::{self, LineageIndex};
use paydemand_serve::wal::{SequencedEvent, Wal};
use paydemand_serve::{daemon, events};
use paydemand_sim::{trace, Engine, Scenario, SelectorKind};

use crate::pace::{Elasticity, Pace};
use crate::serve::{self, Running};
use crate::{derive_seed, ms, stats, Layers, Outcome, Sizes};

/// A tick slows as fast as the pace kernel's chase.
pub(crate) const ELASTICITY: Elasticity = Elasticity { chase: 1.0, alu: 0.0 };

/// Acked-but-unticked batches left in the WAL at the crash.
const TAIL_POSTS: usize = 2;
/// Selecting users expected per tick.
const SELECTING_USERS: f64 = 0.5;
/// Pace samples taken before each set-up and recovery.
const PACE_SAMPLES: usize = 3;

fn scenario(sizes: &Sizes, seed: u64) -> Scenario {
    let tick = &sizes.tick;
    let mut s = Scenario::paper_default()
        .with_users(tick.users)
        .with_tasks(tick.tasks)
        .with_neighbor_radius(200.0)
        // A capped-DP solve over 1k tasks costs ~40 ms, as much as an
        // early tick, so the luck of which ticks draw a selecting user
        // would set the tick percentiles; greedy keeps selection the
        // small part of a tick it is meant to be here.
        .with_selector(SelectorKind::Greedy)
        .with_max_rounds(tick.ticks + 1_000)
        .with_seed(derive_seed(seed, 0));
    s.dropout_rate = (1.0 - SELECTING_USERS / tick.users as f64).max(0.0);
    s.required_per_task = 100_000;
    s.reward_budget = 1e9;
    s
}

/// Everything one workload run feeds the daemon.
struct Input {
    scenario: Scenario,
    /// `ticks × posts_per_tick` timed bodies, then the tail.
    bodies: Vec<String>,
    queue_capacity: usize,
}

impl Input {
    fn new(sizes: &Sizes, seed: u64) -> Input {
        let tick = &sizes.tick;
        let scenario = scenario(sizes, seed);
        let count = tick.ticks as usize * tick.posts_per_tick + TAIL_POSTS;
        let bodies = serve::bodies(&scenario, derive_seed(seed, 1), count, tick.events_per_post);
        let queue_capacity = 4_096.max((tick.posts_per_tick + TAIL_POSTS) * tick.events_per_post);
        Input { scenario, bodies, queue_capacity }
    }

    fn config(&self, dir: &Path) -> paydemand_serve::DaemonConfig {
        serve::config(&self.scenario, dir, self.queue_capacity, None)
    }
}

pub(crate) fn run(
    sizes: &Sizes,
    seed: u64,
    layers: &Layers,
    pace: &mut Pace,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let replica = if layers.traced() {
        Some(replica(sizes, &Input::new(sizes, seed), layers, &scratch.join("replica"))?)
    } else {
        None
    };

    let tick = &sizes.tick;
    let mut tick_ms = Vec::with_capacity(tick.sessions * tick.ticks as usize);
    let (mut setups_s, mut recoveries_ms) = (Vec::new(), Vec::new());
    let mut cycles = Vec::new();
    let mut first_ck: Option<Vec<u8>> = None;
    let mut crashed = None;
    for session in 0..tick.sessions {
        // Set-up: generate the request bodies and start the daemon.
        let dir = scratch.join(format!("daemon-{session}"));
        pace.samples(PACE_SAMPLES);
        let start = Instant::now();
        let input = Input::new(sizes, seed);
        let daemon = Running::start(input.config(&dir), &Recorder::disabled())?;
        setups_s.push((start, start.elapsed().as_secs_f64()));
        let addr = daemon.addr();

        let timed = input.bodies.chunks(tick.posts_per_tick).take(tick.ticks as usize);
        for (t, batch) in timed.enumerate() {
            pace.sample();
            let cycle = Instant::now();
            for body in batch {
                serve::post_counted(addr, body, tick.events_per_post, &mut out);
            }
            out.attempted += 1;
            let start = Instant::now();
            let outcome = daemon.daemon().tick();
            let wall = start.elapsed();
            match outcome {
                Ok(o) if o.stepped && o.applied == batch.len() * tick.events_per_post => {
                    tick_ms.push((start, ms(wall)));
                }
                Ok(o) => {
                    out.failed += 1;
                    out.failures.push(format!("session {session} tick {t}: {o:?}"));
                }
                Err(e) => return Err(format!("session {session} tick {t}: {e}")),
            }
            cycles.push((cycle, ms(cycle.elapsed())));
        }

        // The crash leaves acked, unticked events in the WAL.
        let tail = &input.bodies[tick.ticks as usize * tick.posts_per_tick..];
        for body in tail {
            serve::post_counted(addr, body, tick.events_per_post, &mut out);
        }
        drop(daemon);
        let crashed_ck =
            std::fs::read(dir.join(daemon::CHECKPOINT_FILE)).map_err(|e| e.to_string())?;
        match &first_ck {
            None => first_ck = Some(crashed_ck),
            Some(first) => out.check(*first == crashed_ck, || {
                format!("session {session} crashed with another checkpoint than session 0")
            }),
        }

        let report = lineage::verify(&input.scenario, &dir).map_err(|e| e.to_string())?;
        let tail_events = tail.len() * tick.events_per_post;
        out.check(report.is_clean() && report.never_applied.len() == tail_events, || {
            format!(
                "lineage verify: {} missing, {} mismatched, {} never applied (want {tail_events})",
                report.missing.len(),
                report.mismatched.len(),
                report.never_applied.len()
            )
        });

        pace.samples(PACE_SAMPLES);
        let start = Instant::now();
        let (recovery_s, status) =
            serve::resume_copy(&dir, &scratch.join("resumed"), |d| input.config(d))?;
        recoveries_ms.push((start, recovery_s * 1e3));
        let want = serve::Status {
            next_round: u64::from(tick.ticks) + 1,
            queue_depth: tail_events as u64,
        };
        out.check(status == want, || format!("resumed daemon reports {status:?}, want {want:?}"));
        if let Some((previous, _)) = crashed.replace((dir, input)) {
            let _ = std::fs::remove_dir_all(previous);
        }
    }
    pace.samples(PACE_SAMPLES);
    out.set("setup_s", stats::median(&pace.paced_all(&setups_s)));
    out.set("latency_ms_p50", stats::median(&pace.paced_all(&tick_ms)));
    // Events through one median POST-and-tick cycle: a mean would follow
    // the host disk's fsync tail, which moves 2–3× between runs.
    let cycle_events = (tick.posts_per_tick * tick.events_per_post) as f64;
    let cycle_ms = stats::median(&pace.paced_all(&cycles));
    out.set("throughput_per_s", crate::ratio(cycle_events * 1e3, cycle_ms));
    out.set("recovery_ms", stats::median(&pace.paced_all(&recoveries_ms)));
    let crashed_ck = first_ck.ok_or("no session ran")?;
    out.fold(crashed_ck.len() as u64);
    for chunk in crashed_ck.chunks(8) {
        out.fold(chunk.iter().fold(0u64, |acc, &b| acc << 8 | u64::from(b)));
    }

    if let Some(replica) = replica {
        out.check(replica.checkpoint == crashed_ck, || {
            format!(
                "bench-side tick's final checkpoint ({} bytes) differs from the daemon's ({} bytes)",
                replica.checkpoint.len(),
                crashed_ck.len()
            )
        });
        let walls_ms: Vec<f64> = tick_ms.iter().map(|&(_, ms)| ms).collect();
        // The replica ran one session's ticks.
        let daemon_ms = walls_ms.iter().sum::<f64>() / tick.sessions.max(1) as f64;
        out.set("bench.trace_overhead_frac", crate::ratio(replica.tick_s * 1e3, daemon_ms) - 1.0);
        crate::op_layers(&mut out, &walls_ms, pace);
        replica_layers(&replica, layers, &mut out);
        let (dir, input) = crashed.ok_or("no session ran")?;
        let recovery_s = recoveries_ms.last().map_or(0.0, |&(_, ms)| ms * 1e-3);
        serve::recovery_layers(&input.scenario, &dir, scratch, recovery_s, layers, &mut out)?;
    }
    Ok(out)
}

/// What the bench-side ticks measured.
struct Replica {
    /// The checkpoint the last tick landed.
    checkpoint: Vec<u8>,
    /// Total wall of the ticks.
    tick_s: f64,
    ticks: usize,
    events: usize,
    appends: usize,
    wal_bytes: u64,
    lineage_bytes: u64,
    journal_bytes: u64,
    checkpoint_bytes: u64,
}

/// Ingests the same bodies and ticks the same rounds as the daemon,
/// through the same public calls in the same order — decode and WAL
/// append per batch; then barrier, enqueue, step, journal, checkpoint
/// encode, journal decode, lineage join and append, checkpoint write,
/// WAL compaction per tick — each call inside its own span.
fn replica(sizes: &Sizes, input: &Input, layers: &Layers, dir: &Path) -> Result<Replica, String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut engine = Engine::new(&input.scenario, layers.recorder()).map_err(|e| e.to_string())?;
    let ck_path = dir.join(daemon::CHECKPOINT_FILE);
    crate::write_atomic(&ck_path, &engine.checkpoint().map_err(|e| e.to_string())?)?;
    let (mut wal, _, _) = Wal::open(&dir.join(daemon::WAL_FILE), true).map_err(io)?;
    let (mut index, _, _) =
        LineageIndex::open(&dir.join(daemon::LINEAGE_FILE), true).map_err(|e| e.to_string())?;

    let tick = &sizes.tick;
    let mut run = Replica {
        checkpoint: Vec::new(),
        tick_s: 0.0,
        ticks: 0,
        events: 0,
        appends: 0,
        wal_bytes: 0,
        lineage_bytes: 0,
        journal_bytes: 0,
        checkpoint_bytes: 0,
    };
    let (mut next_event, mut next_request) = (1u64, 1u64);
    for batch in input.bodies.chunks(tick.posts_per_tick).take(tick.ticks as usize) {
        let mut pending: Vec<(u64, SequencedEvent)> = Vec::new();
        let wal_before = wal.bytes();
        for body in batch {
            let decoded = layers
                .time("events.decode", || events::decode_batch(body.as_bytes()))
                .map_err(|e| e.message().to_owned())?;
            let sequenced: Vec<SequencedEvent> = decoded
                .into_iter()
                .enumerate()
                .map(|(i, event)| SequencedEvent {
                    id: next_event + i as u64,
                    request: next_request,
                    event,
                })
                .collect();
            next_event += sequenced.len() as u64;
            next_request += 1;
            let offsets =
                layers.time("wal.append", || wal.append_events(&sequenced)).map_err(io)?;
            run.appends += 1;
            run.events += sequenced.len();
            pending.extend(offsets.into_iter().zip(sequenced));
        }

        let start = Instant::now();
        let tick_span = layers.span("tick");
        let round = engine.next_round();
        layers
            .time("wal.barrier", || wal.append_barrier(round, pending.len() as u32))
            .map_err(io)?;
        run.wal_bytes += wal.bytes() - wal_before;
        let dropped: Vec<bool> = layers.time("engine.enqueue", || {
            engine.enable_trace();
            pending.iter().map(|(_, seq)| engine.enqueue_event(seq.event).is_err()).collect()
        });
        layers.time("engine.step", || engine.step_round()).map_err(|e| e.to_string())?;
        let journal = layers.time("trace.take", || engine.take_trace()).unwrap_or_default();
        let outcomes = engine.last_event_outcomes().to_vec();
        let checkpoint =
            layers.time("checkpoint.encode", || engine.checkpoint()).map_err(|e| e.to_string())?;
        let decoded =
            layers.time("trace.decode", || trace::decode(&journal)).map_err(|e| e.to_string())?;
        let frames = layers.time("lineage.join", || {
            let dispositions = lineage::join_outcomes(&dropped, &outcomes);
            lineage::frames_for_round(round, &pending, &dispositions, engine.total_paid(), &decoded)
        });
        run.lineage_bytes += layers.time("lineage.append", || index.append(&frames)).map_err(io)?;
        layers.time("checkpoint.write", || crate::write_atomic(&ck_path, &checkpoint))?;
        layers.time("wal.compact", || wal.compact(&[])).map_err(io)?;
        drop(tick_span);
        run.tick_s += start.elapsed().as_secs_f64();
        run.ticks += 1;
        run.journal_bytes += journal.len() as u64;
        run.checkpoint_bytes += checkpoint.len() as u64;
        run.checkpoint = checkpoint;
    }
    Ok(run)
}

/// The replica's layers as shares of its tick wall.
fn replica_layers(replica: &Replica, layers: &Layers, out: &mut Outcome) {
    let snapshot = layers.recorder().snapshot();
    crate::engine_layers(&snapshot, out);
    let tick_s = replica.tick_s;
    let share = |layer: &str| crate::ratio(layers.seconds(&snapshot, layer), tick_s);
    let tick_layers = [
        ("wal.barrier_share", "wal.barrier"),
        ("engine.enqueue_share", "engine.enqueue"),
        ("engine.step_share", "engine.step"),
        ("trace.take_share", "trace.take"),
        ("trace.decode_share", "trace.decode"),
        ("lineage.join_share", "lineage.join"),
        ("lineage.append_share", "lineage.append"),
        ("wal.compact_share", "wal.compact"),
    ];
    let mut named_s = 0.0;
    for (metric, layer) in tick_layers {
        out.set(metric, share(layer));
        named_s += layers.seconds(&snapshot, layer);
    }
    let ticks = replica.ticks.max(1) as f64;
    for layer in ["checkpoint.encode", "checkpoint.write"] {
        named_s += layers.seconds(&snapshot, layer);
        out.set(&format!("{layer}_ms"), layers.seconds(&snapshot, layer) * 1e3 / ticks);
    }
    crate::check_coverage(out, named_s, tick_s, "unspanned work between the tick's calls");
    out.set("events.decode_share", share("events.decode"));
    out.set("wal.append_share", share("wal.append"));
    out.set("checkpoint.bytes", replica.checkpoint_bytes as f64 / ticks);
    out.set("wal.events_per_fsync", crate::ratio(replica.events as f64, replica.appends as f64));
    out.set("wal.bytes", replica.wal_bytes as f64 / ticks);
    out.set("lineage.bytes", replica.lineage_bytes as f64 / ticks);
    out.set("trace.journal_bytes", replica.journal_bytes as f64 / ticks);
    crate::not_called(out, crate::DAEMON_LAYERS);
}
