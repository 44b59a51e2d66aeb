//! One property battery over the durable formats.
//!
//! The WAL, the PDLI lineage index, the PDCK checkpoint and the PDTJ
//! decision journal all frame their bytes through
//! `paydemand_sim::frame`. This battery holds the three that live in
//! files to the same properties; PDTJ's fuzz tests sit beside its codec
//! in `crates/sim/src/trace.rs`.
//!
//! * WAL and PDLI read back arbitrary records, appended in arbitrary
//!   batch splits, at the offsets `append` returned.
//! * Cut at every byte, `open` keeps exactly the records that end at or
//!   before the cut, reports the rest as torn and truncates the file
//!   there (a cut inside the PDLI header rewrites the header), and a
//!   later append reads back after those records.
//! * With one byte replaced at every offset (by 0x00, 0xff, b^0x01 and
//!   b^0x80), `open` keeps exactly the records before the one holding
//!   that byte, and refuses a damaged PDLI header.
//! * PDCK checkpoints of a plain, a faulted and a wandering engine,
//!   after 0, 1 and 2 rounds, cut and damaged the same way, are all
//!   refused with `SimError::Checkpoint`: the checksum trailer covers
//!   every byte. Each cut or damaged body is also signed again with a
//!   valid trailer, as a file from another build would be, to reach
//!   the decoder's own checks: a re-signed cut is still refused, and a
//!   re-signed replacement resumes or is refused, never panics. A PDCK
//!   v1 file (`tests/fixtures/pdck-v1.ck`) is refused with its version
//!   named, by `Engine::resume` and by a daemon resuming a state
//!   directory that holds it.
//! * Every `SelectorKind` setting keeps its checkpoint bytes, which
//!   hash the scenario's `Debug` form, and counts its solves under its
//!   metric label.
//!
//! A debug build runs a reduced set; `cargo test --release --test
//! formats` runs all of it.

use std::path::{Path, PathBuf};

use paydemand::obs::Recorder;
use paydemand::sim::frame::{fnv1a64, fnv1a64_words};
use paydemand::sim::{
    Engine, ExternalEvent, FaultKind, FaultPlan, Scenario, SelectorKind, SimError, UserMotion,
};
use paydemand_serve::lineage::{
    AppliedFrame, Disposition, LineageFrame, LineageIndex, RoundFrame, TaskPrice,
};
use paydemand_serve::wal::{SequencedEvent, Wal, WalRecord};
use paydemand_serve::{Daemon, DaemonConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Instances per property: (round trips, cut-and-damage files).
fn instances() -> (u64, u64) {
    if cfg!(debug_assertions) {
        (10, 2)
    } else {
        (100, 12)
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paydemand-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// The replacements tried at every offset; a value equal to the
/// original byte is no damage and is skipped.
fn replacements(b: u8) -> impl Iterator<Item = u8> {
    [0x00, 0xff, b ^ 0x01, b ^ 0x80].into_iter().filter(move |&v| v != b)
}

/// What `open` returns: the handle, each record with its offset where
/// the API reports one, and the torn byte count.
type Opened<L, R> = (L, Vec<(Option<u64>, R)>, usize);

/// One record-log format, seen only through its public API.
trait Format {
    type Log;
    type Record;
    /// File name prefix for the scratch files.
    const NAME: &'static str;
    /// Header bytes before the first record.
    const HEADER_LEN: u64;

    fn arbitrary(rng: &mut StdRng) -> Self::Record;
    /// The record's size on disk: tag, length, payload and checksum.
    fn framed_len(record: &Self::Record) -> u64;
    /// A bitwise image of the record (floats as bit patterns, so NaN
    /// payloads compare equal to themselves).
    fn key(record: &Self::Record) -> String;
    /// Opens the log at `path` through the format's own API.
    fn open(path: &Path) -> Result<Opened<Self::Log, Self::Record>, String>;
    /// Appends one batch; returns the offsets the API reports, if any.
    fn append(log: &mut Self::Log, batch: &[Self::Record]) -> Option<Vec<u64>>;
    fn bytes(log: &Self::Log) -> u64;
}

struct WalFormat;

impl Format for WalFormat {
    type Log = Wal;
    type Record = WalRecord;
    const NAME: &'static str = "events.wal";
    const HEADER_LEN: u64 = 0;

    fn arbitrary(rng: &mut StdRng) -> WalRecord {
        let (id, request) = (rng.gen(), rng.gen());
        let event = match rng.gen_range(0..5u32) {
            0 => return WalRecord::Barrier { round: rng.gen(), events: rng.gen() },
            1 | 2 => ExternalEvent::Move {
                user: rng.gen(),
                x: f64::from_bits(rng.gen()),
                y: f64::from_bits(rng.gen()),
            },
            _ => ExternalEvent::Upload {
                user: rng.gen(),
                task: rng.gen(),
                value: f64::from_bits(rng.gen()),
            },
        };
        WalRecord::Event(SequencedEvent { id, request, event })
    }

    fn framed_len(record: &WalRecord) -> u64 {
        9 + match record {
            WalRecord::Event(SequencedEvent { event: ExternalEvent::Move { .. }, .. }) => 37,
            WalRecord::Event(SequencedEvent { event: ExternalEvent::Upload { .. }, .. }) => 33,
            WalRecord::Barrier { .. } => 8,
        }
    }

    fn key(record: &WalRecord) -> String {
        match *record {
            WalRecord::Event(SequencedEvent { id, request, event }) => match event {
                ExternalEvent::Move { user, x, y } => {
                    format!("move {id} {request} {user} {:x} {:x}", x.to_bits(), y.to_bits())
                }
                ExternalEvent::Upload { user, task, value } => {
                    format!("upload {id} {request} {user} {task} {:x}", value.to_bits())
                }
            },
            WalRecord::Barrier { round, events } => format!("barrier {round} {events}"),
        }
    }

    fn open(path: &Path) -> Result<Opened<Wal, WalRecord>, String> {
        let (wal, records, torn) = Wal::open(path, false).map_err(|e| e.to_string())?;
        Ok((wal, records.into_iter().map(|(at, r)| (Some(at), r)).collect(), torn))
    }

    fn append(wal: &mut Wal, batch: &[WalRecord]) -> Option<Vec<u64>> {
        // Runs of events go out as one `append_events` batch; each
        // barrier is its own append.
        let mut offsets = Vec::new();
        let events_together = |a: &WalRecord, b: &WalRecord| {
            matches!((a, b), (WalRecord::Event(_), WalRecord::Event(_)))
        };
        for run in batch.chunk_by(events_together) {
            if let WalRecord::Barrier { round, events } = run[0] {
                offsets.push(wal.bytes());
                wal.append_barrier(round, events).unwrap();
            } else {
                let events: Vec<SequencedEvent> = run
                    .iter()
                    .filter_map(|r| match r {
                        WalRecord::Event(e) => Some(*e),
                        WalRecord::Barrier { .. } => None,
                    })
                    .collect();
                offsets.extend(wal.append_events(&events).unwrap());
            }
        }
        Some(offsets)
    }

    fn bytes(wal: &Wal) -> u64 {
        wal.bytes()
    }
}

struct LineageFormat;

const DISPOSITIONS: [Disposition; 6] = [
    Disposition::Moved,
    Disposition::Paid,
    Disposition::TaskComplete,
    Disposition::Duplicate,
    Disposition::Budget,
    Disposition::Dropped,
];

impl Format for LineageFormat {
    type Log = LineageIndex;
    type Record = LineageFrame;
    const NAME: &'static str = "lineage.idx";
    const HEADER_LEN: u64 = 5;

    fn arbitrary(rng: &mut StdRng) -> LineageFrame {
        if rng.gen_range(0..3u32) == 0 {
            let n = rng.gen_range(0..=50usize);
            return LineageFrame::Round(RoundFrame {
                round: rng.gen(),
                applied: rng.gen(),
                total_paid: f64::from_bits(rng.gen()),
                tasks: (0..n)
                    .map(|_| TaskPrice {
                        task: rng.gen(),
                        level: rng.gen(),
                        reward: f64::from_bits(rng.gen()),
                    })
                    .collect(),
            });
        }
        LineageFrame::Applied(AppliedFrame {
            event_id: rng.gen(),
            request_id: rng.gen(),
            wal_offset: rng.gen(),
            round: rng.gen(),
            disposition: DISPOSITIONS[rng.gen_range(0..DISPOSITIONS.len())],
            pay: f64::from_bits(rng.gen()),
        })
    }

    fn framed_len(frame: &LineageFrame) -> u64 {
        9 + match frame {
            LineageFrame::Applied(_) => 37,
            LineageFrame::Round(r) => 20 + 16 * r.tasks.len() as u64,
        }
    }

    fn key(frame: &LineageFrame) -> String {
        match frame {
            LineageFrame::Applied(f) => format!(
                "applied {} {} {} {} {} {:x}",
                f.event_id,
                f.request_id,
                f.wal_offset,
                f.round,
                f.disposition.label(),
                f.pay.to_bits()
            ),
            LineageFrame::Round(r) => {
                let tasks: Vec<String> = r
                    .tasks
                    .iter()
                    .map(|t| format!("{}/{}/{:x}", t.task, t.level, t.reward.to_bits()))
                    .collect();
                format!(
                    "round {} {} {:x} [{}]",
                    r.round,
                    r.applied,
                    r.total_paid.to_bits(),
                    tasks.join(" ")
                )
            }
        }
    }

    fn open(path: &Path) -> Result<Opened<LineageIndex, LineageFrame>, String> {
        let (index, frames, torn) = LineageIndex::open(path, false).map_err(|e| e.to_string())?;
        Ok((index, frames.into_iter().map(|f| (None, f)).collect(), torn))
    }

    fn append(index: &mut LineageIndex, batch: &[LineageFrame]) -> Option<Vec<u64>> {
        let before = index.bytes();
        let written = index.append(batch).unwrap();
        assert_eq!(written, index.bytes() - before, "append reports the bytes it wrote");
        None
    }

    fn bytes(index: &LineageIndex) -> u64 {
        index.bytes()
    }
}

/// The offset each record starts at, and the offset past the last.
fn layout<F: Format>(records: &[F::Record]) -> (Vec<u64>, u64) {
    let mut at = F::HEADER_LEN;
    let starts = records
        .iter()
        .map(|r| {
            let start = at;
            at += F::framed_len(r);
            start
        })
        .collect();
    (starts, at)
}

fn keys<F: Format>(records: &[F::Record]) -> Vec<String> {
    records.iter().map(F::key).collect()
}

/// Checks what `open` read back: the records' images, and their
/// offsets where the API reports them.
fn assert_read<F: Format>(read: &[(Option<u64>, F::Record)], want: &[F::Record], context: &str) {
    let got: Vec<String> = read.iter().map(|(_, r)| F::key(r)).collect();
    assert_eq!(got, keys::<F>(want), "{} {context}", F::NAME);
    let (starts, _) = layout::<F>(want);
    for ((at, _), start) in read.iter().zip(starts) {
        if let Some(at) = at {
            assert_eq!(*at, start, "{} {context}: record offset", F::NAME);
        }
    }
}

fn round_trips<F: Format>(seed: u64) {
    let dir = scratch(&format!("{}-roundtrip", F::NAME));
    let path = dir.join(F::NAME);
    for instance in 0..instances().0 {
        let _ = std::fs::remove_file(&path);
        let mut rng = StdRng::seed_from_u64(seed ^ instance.wrapping_mul(0x9E37_79B9));
        let records: Vec<F::Record> =
            (0..rng.gen_range(0..60usize)).map(|_| F::arbitrary(&mut rng)).collect();
        let (starts, end) = layout::<F>(&records);
        let (mut log, existing, torn) = F::open(&path).unwrap();
        assert!(existing.is_empty() && torn == 0);
        assert_eq!(F::bytes(&log), F::HEADER_LEN);
        let mut i = 0;
        while i < records.len() {
            let n = rng.gen_range(1..=(records.len() - i).min(9));
            if let Some(offsets) = F::append(&mut log, &records[i..i + n]) {
                assert_eq!(offsets, starts[i..i + n], "{} instance {instance}", F::NAME);
            }
            i += n;
            assert_eq!(F::bytes(&log), file_len(&path), "{} instance {instance}", F::NAME);
        }
        assert_eq!(F::bytes(&log), end);
        drop(log);
        let (log, read, torn) = F::open(&path).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(F::bytes(&log), end);
        assert_read::<F>(&read, &records, &format!("instance {instance}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes one log of arbitrary records and returns them with its bytes.
fn sample_log<F: Format>(
    rng: &mut StdRng,
    path: &Path,
    len: std::ops::Range<usize>,
) -> (Vec<F::Record>, Vec<u8>) {
    let _ = std::fs::remove_file(path);
    let records: Vec<F::Record> = (0..rng.gen_range(len)).map(|_| F::arbitrary(rng)).collect();
    let (mut log, _, _) = F::open(path).unwrap();
    F::append(&mut log, &records);
    drop(log);
    (records, std::fs::read(path).unwrap())
}

fn cuts_and_damage<F: Format>(seed: u64, len: std::ops::Range<usize>) {
    let dir = scratch(&format!("{}-damage", F::NAME));
    let path = dir.join(F::NAME);
    for instance in 0..instances().1 {
        let mut rng = StdRng::seed_from_u64(seed ^ instance.wrapping_mul(0x9E37_79B9));
        let (records, bytes) = sample_log::<F>(&mut rng, &path, len.clone());
        let (starts, end) = layout::<F>(&records);
        assert_eq!(end, bytes.len() as u64);

        for cut in 0..=bytes.len() as u64 {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let kept = starts
                .iter()
                .zip(&records)
                .take_while(|(s, r)| *s + F::framed_len(r) <= cut)
                .count();
            let good = match kept {
                0 if cut < F::HEADER_LEN => 0,
                0 => F::HEADER_LEN,
                k => starts[k - 1] + F::framed_len(&records[k - 1]),
            };
            let context = format!("instance {instance} cut {cut}");
            let (mut log, read, torn) = F::open(&path).unwrap();
            assert_read::<F>(&read, &records[..kept], &context);
            assert_eq!(torn as u64, cut - good, "{} {context}: torn bytes", F::NAME);
            let on_disk = good.max(F::HEADER_LEN);
            assert_eq!(file_len(&path), on_disk, "{} {context}: truncated length", F::NAME);
            assert_eq!(F::bytes(&log), on_disk, "{} {context}", F::NAME);

            let next = F::arbitrary(&mut rng);
            if let Some(offsets) = F::append(&mut log, std::slice::from_ref(&next)) {
                assert_eq!(offsets, vec![on_disk], "{} {context}: append offset", F::NAME);
            }
            drop(log);
            let (_, read, torn) = F::open(&path).unwrap();
            assert_eq!(torn, 0, "{} {context}: reopen", F::NAME);
            let got: Vec<String> = read.iter().map(|(_, r)| F::key(r)).collect();
            let mut want = keys::<F>(&records[..kept]);
            want.push(F::key(&next));
            assert_eq!(got, want, "{} {context}: append after the cut", F::NAME);
        }

        for at in 0..bytes.len() {
            for value in replacements(bytes[at]) {
                let mut damaged = bytes.clone();
                damaged[at] = value;
                std::fs::write(&path, &damaged).unwrap();
                let context = format!("instance {instance} byte {at} = {value:#04x}");
                let opened = F::open(&path);
                if (at as u64) < F::HEADER_LEN {
                    assert!(opened.is_err(), "{} {context}: damaged header accepted", F::NAME);
                    continue;
                }
                let held_by = starts.iter().take_while(|&&s| s <= at as u64).count() - 1;
                let (_, read, torn) = opened.unwrap();
                assert_read::<F>(&read, &records[..held_by], &context);
                assert_eq!(torn as u64, end - starts[held_by], "{} {context}: torn bytes", F::NAME);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_records_round_trip_in_any_batch_split() {
    round_trips::<WalFormat>(0xF0_3A1);
}

#[test]
fn lineage_frames_round_trip_in_any_batch_split() {
    round_trips::<LineageFormat>(0xF0_3B2);
}

#[test]
fn wal_keeps_exactly_the_records_before_a_cut_or_a_damaged_byte() {
    cuts_and_damage::<WalFormat>(0xF0_3C3, 8..20);
}

#[test]
fn lineage_keeps_exactly_the_frames_before_a_cut_or_a_damaged_byte() {
    cuts_and_damage::<LineageFormat>(0xF0_3D4, 4..12);
}

/// The 15-user scenario behind every checkpoint here, and behind
/// `tests/fixtures/pdck-v1.ck` (written after one round by the last
/// build that wrote PDCK v1).
fn plain_scenario() -> Scenario {
    Scenario::paper_default()
        .with_users(15)
        .with_tasks(6)
        .with_max_rounds(5)
        .with_selector(SelectorKind::Greedy)
        .with_seed(21)
}

const V1_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pdck-v1.ck");
const V1_REFUSAL: &str = "unsupported checkpoint version 1 (expected 2)";

/// `body` followed by a valid PDCK trailer: the word hash of its
/// little-endian 8-byte words, the last one zero-padded.
fn signed(body: &[u8]) -> Vec<u8> {
    let words = body.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    });
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&fnv1a64_words(words).to_le_bytes());
    bytes
}

#[test]
fn checkpoints_refuse_every_cut_and_byte_replacement() {
    let plain = plain_scenario();
    let faulted = plain.clone().with_faults(
        FaultPlan::new(4)
            .with(FaultKind::DroppedUploads { rate: 0.2 })
            .with(FaultKind::StragglerUploads { rate: 0.3, max_retries: 2, backoff_rounds: 1 })
            .with(FaultKind::GpsNoise { sigma: 20.0 }),
    );
    let mut wandering = plain.clone();
    wandering.user_motion = UserMotion::Wander { seconds: 60.0 };
    // Debug builds cut and damage every 7th offset (staggered per
    // checkpoint), release builds every one.
    let stride = if cfg!(debug_assertions) { 7 } else { 1 };
    let recorder = Recorder::disabled();
    for (name, scenario) in [("plain", plain), ("faulted", faulted), ("wandering", wandering)] {
        let mut engine = Engine::new(&scenario, &recorder).unwrap();
        for rounds in 0..3usize {
            if rounds > 0 {
                engine.step_round().unwrap();
            }
            let bytes = engine.checkpoint().unwrap();
            let body = &bytes[..bytes.len() - 8];
            assert_eq!(signed(body), bytes, "{name} after {rounds}: trailer");
            assert!(Engine::resume(&scenario, &bytes, &recorder).is_ok(), "{name} after {rounds}");
            let sampled = |at: &usize| at % stride == rounds % stride;
            for cut in (0..bytes.len()).filter(sampled) {
                let result = Engine::resume(&scenario, &bytes[..cut], &recorder);
                assert!(
                    matches!(result, Err(SimError::Checkpoint { .. })),
                    "{name} after {rounds} rounds, cut at {cut}: {:?}",
                    result.err()
                );
                if cut < body.len() {
                    let result = Engine::resume(&scenario, &signed(&body[..cut]), &recorder);
                    assert!(
                        matches!(result, Err(SimError::Checkpoint { .. })),
                        "{name} after {rounds} rounds, re-signed cut at {cut}: {:?}",
                        result.err()
                    );
                }
            }
            for at in (0..bytes.len()).filter(sampled) {
                for value in replacements(bytes[at]) {
                    let mut damaged = bytes.clone();
                    damaged[at] = value;
                    let result = Engine::resume(&scenario, &damaged, &recorder);
                    assert!(
                        matches!(result, Err(SimError::Checkpoint { .. })),
                        "{name} after {rounds} rounds, byte {at} = {value:#04x}: {:?}",
                        result.map(|_| "resumed")
                    );
                    if at < body.len() {
                        let resigned = signed(&damaged[..body.len()]);
                        match Engine::resume(&scenario, &resigned, &recorder) {
                            Ok(_) | Err(SimError::Checkpoint { .. }) => {}
                            Err(other) => panic!(
                                "{name} after {rounds} rounds, re-signed byte {at} = \
                                 {value:#04x}: {other}"
                            ),
                        }
                    }
                }
            }
        }
    }
}

/// Every selector setting keeps its checkpoint bytes and its metric
/// label. A checkpoint carries the hash of the scenario's `Debug` form,
/// so the folded hash holds how each `SelectorKind` prints as well as
/// what its solves decided; the label is the one each setting's solves
/// are counted under.
#[test]
fn every_selector_keeps_its_checkpoint_bytes_and_metric_label() {
    let settings = [
        (SelectorKind::Dp { candidate_cap: Some(14) }, "dp"),
        (SelectorKind::exact_dp(), "dp"),
        (SelectorKind::Greedy, "greedy"),
        (SelectorKind::GreedyTwoOpt, "greedy+2opt"),
        (SelectorKind::Insertion, "insertion"),
        (SelectorKind::BranchBound, "branch-bound"),
    ];
    let mut hashes = Vec::new();
    for (selector, label) in settings {
        let scenario = Scenario::paper_default()
            .with_users(15)
            .with_tasks(6)
            .with_max_rounds(3)
            .with_selector(selector)
            .with_seed(23);
        let recorder = Recorder::enabled();
        let mut engine = Engine::new(&scenario, &recorder).unwrap();
        engine.step_round().unwrap();
        hashes.extend(fnv1a64(&engine.checkpoint().unwrap()).to_le_bytes());
        // No task is complete or contributed to in round 1, so every
        // user solves once.
        let solves =
            recorder.snapshot().counter_value("selector_solves_total", Some(("selector", label)));
        assert_eq!(solves, Some(15), "{selector:?}");
    }
    assert_eq!(fnv1a64(&hashes), 0xc1d6_fd3b_7aa4_c7e9);
}

#[test]
fn a_v1_checkpoint_is_refused_with_its_version_named() {
    let bytes = std::fs::read(V1_FIXTURE).unwrap();
    match Engine::resume(&plain_scenario(), &bytes, &Recorder::disabled()) {
        Err(SimError::Checkpoint { message }) => assert!(message.contains(V1_REFUSAL), "{message}"),
        other => panic!("a v1 checkpoint resumed or failed otherwise: {:?}", other.map(|_| ())),
    }
}

#[test]
fn a_daemon_refuses_to_resume_a_v1_state_directory() {
    let dir = scratch("v1-state");
    std::fs::copy(V1_FIXTURE, dir.join("checkpoint.ck")).unwrap();
    let mut config = DaemonConfig::new(plain_scenario(), dir.clone());
    config.resume = true;
    match Daemon::start(config, &Recorder::disabled()) {
        Err(e) => assert!(e.to_string().contains(V1_REFUSAL), "{e}"),
        Ok(daemon) => {
            let _ = daemon.shutdown();
            panic!("a daemon resumed a v1 state directory");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
