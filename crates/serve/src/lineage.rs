//! The event lineage index: *what happened to every acked event*.
//!
//! The WAL answers "which events were acknowledged"; the checkpoint
//! answers "what state did they produce". The lineage index is the
//! join between them: for every event a tick fed into the engine it
//! records one [`AppliedFrame`] — event id → WAL offset → round →
//! disposition (paid / duplicate / budget-exhausted / …) — and for
//! every executed round one [`RoundFrame`] carrying the round's
//! per-task demand level and posted price (decoded from the engine's
//! PDTJ decision journal) plus the budget trajectory. Together they
//! let `GET /events/{id}` and `paydemand lineage trace-event` answer
//! "where did my event go and what did it cost" without replaying
//! anything.
//!
//! # On-disk format
//!
//! A 5-byte header — magic `PDLI`, version byte — followed by
//! checksummed frames in the WAL's framing
//! ([`paydemand_sim::frame::RecordLog`]):
//! `[tag u8][len u32 LE][payload][fnv1a-64-lo u32 LE]`, the checksum
//! covering the payload only. Payloads are at most 1 MiB.
//!
//! | tag | frame | payload |
//! |-----|-------|---------|
//! | 1 | `Applied` | `u64` event id, `u64` request id, `u64` WAL offset, `u32` round, `u8` disposition, `f64` pay |
//! | 2 | `Round` | `u32` round, `u32` applied, `f64` total paid, `u32` n, n×(`u32` task, `u32` level, `f64` reward) |
//!
//! A torn tail (kill‑9 mid-append) fails its checksum and is truncated
//! on open, exactly like the WAL. A file of 0–4 bytes that are a
//! prefix of the header is a header torn at creation: open writes the
//! header again and reports those bytes as torn. Crash safety leans on
//! the tick ordering: lineage frames are appended *and fsynced before* the
//! checkpoint lands, so every checkpointed round has durable lineage;
//! frames for rounds the checkpoint does *not* cover are truncated at
//! recovery and regenerated bit-identically by the deterministic
//! replay.
//!
//! Regeneration is bit-identical because there is one apply path:
//! `apply_batch` feeds a WAL batch into the engine as its next round
//! and returns the round's frames, for the live tick, crash recovery
//! and [`verify`] alike; and one replay, `replay_wal`, walks the WAL's
//! barriers for recovery and [`verify`].
//!
//! [`verify`] is the offline auditor: it replays the WAL against the
//! checkpoint through that walk and proves that every consumed event
//! has a matching frame, that regenerated frames agree bit-for-bit
//! with what is on disk, and that acked-but-never-ticked events
//! (including the decodable prefix of a torn batch) are reported as
//! *never applied* rather than silently missing.

use std::collections::{BTreeMap, VecDeque};
use std::ops::DerefMut;
use std::path::Path;

use paydemand_obs::Recorder;
use paydemand_sim::frame::{self, BufMut, Cursor, CursorError, Header, HeaderError, LogError};
use paydemand_sim::frame::{Record, RecordLog};
use paydemand_sim::trace::{self, TraceEvent};
use paydemand_sim::{Engine, EventOutcome, Scenario, SimError};

use crate::wal::{self, SequencedEvent, WalRecord};
use crate::ServeError;

/// Index format version this build reads and writes.
pub const LINEAGE_VERSION: u8 = 1;
const HEADER: Header = Header { magic: *b"PDLI", version: LINEAGE_VERSION };

const TAG_APPLIED: u8 = 1;
const TAG_ROUND: u8 = 2;

/// What the engine did with one applied event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// A `Move` repositioned its user.
    Moved,
    /// An `Upload` settled and was paid.
    Paid,
    /// Dropped: the task had already completed.
    TaskComplete,
    /// Dropped: the user already counted for the task.
    Duplicate,
    /// Dropped: the spend cap was exhausted.
    Budget,
    /// Never reached the engine: the run finished before its round.
    Dropped,
}

impl Disposition {
    /// The stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Moved => "moved",
            Disposition::Paid => "paid",
            Disposition::TaskComplete => "task_complete",
            Disposition::Duplicate => "duplicate",
            Disposition::Budget => "budget",
            Disposition::Dropped => "dropped",
        }
    }

    fn code(self) -> u8 {
        match self {
            Disposition::Moved => 0,
            Disposition::Paid => 1,
            Disposition::TaskComplete => 2,
            Disposition::Duplicate => 3,
            Disposition::Budget => 4,
            Disposition::Dropped => 5,
        }
    }

    fn from_code(code: u8) -> Option<Disposition> {
        Some(match code {
            0 => Disposition::Moved,
            1 => Disposition::Paid,
            2 => Disposition::TaskComplete,
            3 => Disposition::Duplicate,
            4 => Disposition::Budget,
            5 => Disposition::Dropped,
            _ => return None,
        })
    }

    /// Maps an engine outcome to its lineage disposition and pay.
    #[must_use]
    pub fn from_outcome(outcome: &EventOutcome) -> (Disposition, f64) {
        match outcome {
            EventOutcome::Moved => (Disposition::Moved, 0.0),
            EventOutcome::Paid(pay) => (Disposition::Paid, *pay),
            EventOutcome::RejectedTaskComplete => (Disposition::TaskComplete, 0.0),
            EventOutcome::RejectedDuplicate => (Disposition::Duplicate, 0.0),
            EventOutcome::RejectedBudget => (Disposition::Budget, 0.0),
        }
    }
}

/// One event's fate: the event id → WAL offset → round → outcome join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedFrame {
    /// The monotonic event id assigned at ingest.
    pub event_id: u64,
    /// The `POST /events` request that carried the event.
    pub request_id: u64,
    /// Byte offset of the event's WAL record when its round ran.
    pub wal_offset: u64,
    /// The 1-based round the event was applied to.
    pub round: u32,
    /// What the engine did with it.
    pub disposition: Disposition,
    /// Reward paid (0 unless `disposition` is `Paid`).
    pub pay: f64,
}

/// One task's posted price in a round (from the PDTJ `TaskDemand`
/// frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPrice {
    /// Task index.
    pub task: u32,
    /// Mapped demand level (0 on stale-repricing rounds).
    pub level: u32,
    /// Reward posted per measurement.
    pub reward: f64,
}

/// One executed round's lineage summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFrame {
    /// The 1-based round.
    pub round: u32,
    /// Events the tick fed into this round.
    pub applied: u32,
    /// Cumulative platform spend after the round.
    pub total_paid: f64,
    /// Per-task demand level and posted price, in journal order.
    pub tasks: Vec<TaskPrice>,
}

/// One decoded lineage frame.
#[derive(Debug, Clone, PartialEq)]
pub enum LineageFrame {
    /// An event's fate.
    Applied(AppliedFrame),
    /// A round's summary.
    Round(RoundFrame),
}

impl LineageFrame {
    /// The round this frame belongs to.
    #[must_use]
    pub fn round(&self) -> u32 {
        match self {
            LineageFrame::Applied(f) => f.round,
            LineageFrame::Round(f) => f.round,
        }
    }
}

/// The append-only, checksummed lineage index file.
#[derive(Debug)]
pub struct LineageIndex {
    log: RecordLog<LineageFrame>,
}

impl LineageIndex {
    /// Opens (creating if absent) the index at `path`, returning the
    /// frames already on disk and the number of torn bytes discarded
    /// (the file is truncated past them; a torn header is rewritten).
    ///
    /// # Errors
    ///
    /// File-system errors, or a header from a different format/version
    /// (never silently misread).
    pub fn open(
        path: &Path,
        fsync: bool,
    ) -> Result<(LineageIndex, Vec<LineageFrame>, usize), ServeError> {
        let (log, scan) = RecordLog::open(path, fsync).map_err(|e| match e {
            LogError::Io(e) => e.into(),
            LogError::Header(e) => header_error(path, e),
        })?;
        Ok((LineageIndex { log }, scan.records, scan.torn))
    }

    /// Appends `frames` and makes them durable in one fsync, returning
    /// the bytes written.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors.
    pub fn append(&mut self, frames: &[LineageFrame]) -> std::io::Result<u64> {
        let before = self.log.bytes();
        self.log.append(frames, None)?;
        Ok(self.log.bytes() - before)
    }

    /// Atomically rewrites the index to hold exactly `frames`
    /// (tmp + rename) — recovery uses this to drop frames for rounds
    /// the checkpoint does not cover before regenerating them.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; the old index stays valid if any
    /// step fails before the rename.
    pub fn rewrite(&mut self, frames: &[LineageFrame]) -> std::io::Result<()> {
        self.log.rewrite(frames, None)
    }

    /// Current index size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }
}

/// Reads every well-formed frame in `path`, returning the frames, the
/// torn trailing byte count and the file length.
///
/// # Errors
///
/// I/O errors, or a bad header (wrong magic or unsupported version).
pub fn read_frames(path: &Path) -> Result<(Vec<LineageFrame>, usize, u64), ServeError> {
    let bytes = std::fs::read(path)?;
    let scan = frame::scan::<LineageFrame>(&bytes).map_err(|e| header_error(path, e))?;
    Ok((scan.records, scan.torn, bytes.len() as u64))
}

fn header_error(path: &Path, e: HeaderError) -> ServeError {
    ServeError::Config(match e {
        HeaderError::Version(v) => {
            format!("lineage index version {v} unsupported (this build reads {LINEAGE_VERSION})")
        }
        HeaderError::Truncated(_) | HeaderError::Magic => {
            format!("{} is not a lineage index (bad magic)", path.display())
        }
    })
}

impl Record for LineageFrame {
    const HEADER: Option<Header> = Some(HEADER);
    /// Round frames carry one entry per task; bound the length field
    /// well above any real workload but far below an OOM.
    const SIZE_HINT: usize = 64;
    const MAX_PAYLOAD: u32 = 1 << 20;

    fn encode(&self, out: &mut Vec<u8>) -> u8 {
        match self {
            LineageFrame::Applied(f) => {
                out.put_u64_le(f.event_id);
                out.put_u64_le(f.request_id);
                out.put_u64_le(f.wal_offset);
                out.put_u32_le(f.round);
                out.put_u8(f.disposition.code());
                out.put_f64_le(f.pay);
                TAG_APPLIED
            }
            LineageFrame::Round(f) => {
                out.put_u32_le(f.round);
                out.put_u32_le(f.applied);
                out.put_f64_le(f.total_paid);
                out.put_u32_le(f.tasks.len() as u32);
                for t in &f.tasks {
                    out.put_u32_le(t.task);
                    out.put_u32_le(t.level);
                    out.put_f64_le(t.reward);
                }
                TAG_ROUND
            }
        }
    }

    fn decode(tag: u8, p: &mut Cursor<'_>) -> Result<Option<Self>, CursorError> {
        Ok(match tag {
            TAG_APPLIED => Some(LineageFrame::Applied(AppliedFrame {
                event_id: p.u64()?,
                request_id: p.u64()?,
                wal_offset: p.u64()?,
                round: p.u32()?,
                disposition: match Disposition::from_code(p.u8()?) {
                    Some(disposition) => disposition,
                    None => return Ok(None),
                },
                pay: p.f64()?,
            })),
            TAG_ROUND => {
                let (round, applied, total_paid) = (p.u32()?, p.u32()?, p.f64()?);
                let n = p.u32()? as usize;
                // Bound the task count by the bytes present before
                // allocating for it.
                p.need(n.saturating_mul(16))?;
                let mut tasks = Vec::with_capacity(n);
                for _ in 0..n {
                    tasks.push(TaskPrice { task: p.u32()?, level: p.u32()?, reward: p.f64()? });
                }
                Some(LineageFrame::Round(RoundFrame { round, applied, total_paid, tasks }))
            }
            _ => None,
        })
    }
}

/// Aligns the engine's per-inbox-event outcomes back onto the full
/// tick batch: `dropped[i]` marks events whose `enqueue_event` was
/// refused (the run finished), which never reached the inbox and so
/// have no outcome. Tolerant by construction — if the outcome stream
/// runs short the remainder reads as dropped — so live ticks, crash
/// recovery and offline verification all resolve identically.
#[must_use]
pub fn join_outcomes(dropped: &[bool], outcomes: &[EventOutcome]) -> Vec<(Disposition, f64)> {
    let mut next = outcomes.iter();
    dropped
        .iter()
        .map(|&was_dropped| {
            if was_dropped {
                (Disposition::Dropped, 0.0)
            } else {
                next.next().map_or((Disposition::Dropped, 0.0), Disposition::from_outcome)
            }
        })
        .collect()
}

/// Builds the lineage frames for one executed round: one `Applied`
/// frame per batch event (in batch order) and one `Round` frame
/// joining the PDTJ decision journal's per-task pricing and budget
/// trajectory. This is the *only* producer of lineage frames; the
/// daemon reaches it through `apply_batch`, the one apply path of the
/// live tick, crash recovery and [`verify`], which is what makes
/// regeneration bit-identical.
#[must_use]
pub fn frames_for_round(
    round: u32,
    batch: &[(u64, SequencedEvent)],
    dispositions: &[(Disposition, f64)],
    fallback_total_paid: f64,
    journal: &[TraceEvent],
) -> Vec<LineageFrame> {
    let mut frames = Vec::with_capacity(batch.len() + 1);
    for (i, (offset, seq)) in batch.iter().enumerate() {
        let (disposition, pay) =
            dispositions.get(i).copied().unwrap_or((Disposition::Dropped, 0.0));
        frames.push(LineageFrame::Applied(AppliedFrame {
            event_id: seq.id,
            request_id: seq.request,
            wal_offset: *offset,
            round,
            disposition,
            pay,
        }));
    }
    let mut total_paid = fallback_total_paid;
    let mut tasks = Vec::new();
    for event in journal {
        match event {
            TraceEvent::Budget { round: r, total_paid: paid, .. } if *r == round => {
                total_paid = *paid;
            }
            TraceEvent::TaskDemand { task, level, reward, .. } => {
                tasks.push(TaskPrice { task: *task, level: *level, reward: *reward });
            }
            _ => {}
        }
    }
    frames.push(LineageFrame::Round(RoundFrame {
        round,
        applied: batch.len() as u32,
        total_paid,
        tasks,
    }));
    frames
}

/// What [`verify`] proved about a state directory.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Applied frames on disk for rounds the checkpoint covers.
    pub settled: usize,
    /// Events the WAL shows consumed that were checked against a
    /// settled frame.
    pub checked: usize,
    /// Frames regenerated by replaying un-checkpointed rounds.
    pub regenerated: usize,
    /// Regenerated frames that matched an on-disk frame bit-for-bit.
    pub matched: usize,
    /// Acked events no round ever consumed (pending at crash/shutdown):
    /// never applied, correctly absent from the index.
    pub never_applied: Vec<u64>,
    /// Consumed events with no Applied frame — a durability bug.
    pub missing: Vec<u64>,
    /// Event ids whose regenerated frame disagrees with the on-disk
    /// frame — a determinism bug.
    pub mismatched: Vec<u64>,
    /// Torn bytes truncated from the lineage index tail.
    pub torn_lineage_bytes: usize,
    /// Torn bytes discarded from the WAL tail.
    pub torn_wal_bytes: usize,
}

impl VerifyReport {
    /// Whether the join is sound (never-applied events are expected,
    /// not a failure).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.mismatched.is_empty()
    }
}

/// Feeds one WAL batch into `engine` as its next round, `round`, and
/// returns the round's lineage frames: the one apply path of the live
/// tick, crash recovery and [`verify`], which is what makes their
/// frames bit-identical. An event the engine refuses (the run just
/// finished) is dropped deterministically, since validation is a pure
/// function of engine state. `then` reads whatever else the caller
/// needs off the stepped engine; the engine handle is dropped — a
/// daemon's engine lock released — before the journal is decoded. With
/// `lineage` off no journal is kept and no frames are built.
///
/// # Errors
///
/// The engine's, or `then`'s; a journal this engine just wrote that
/// does not decode is an engine invariant violation.
pub(crate) fn apply_batch<T>(
    mut engine: impl DerefMut<Target = Engine>,
    round: u32,
    batch: &[(u64, SequencedEvent)],
    lineage: bool,
    then: impl FnOnce(&Engine) -> Result<T, SimError>,
) -> Result<(Vec<LineageFrame>, T), SimError> {
    if lineage {
        engine.enable_trace();
    }
    let dropped: Vec<bool> =
        batch.iter().map(|(_, seq)| engine.enqueue_event(seq.event).is_err()).collect();
    engine.step_round()?;
    let journal = engine.take_trace();
    let outcomes = engine.last_event_outcomes().to_vec();
    let total_paid = engine.total_paid();
    let then = then(&engine)?;
    drop(engine);
    let Some(journal) = journal else { return Ok((Vec::new(), then)) };
    let journal = trace::decode(&journal).map_err(|e| SimError::EngineInvariant {
        message: format!("decision journal decode failed: {e}"),
    })?;
    let dispositions = join_outcomes(&dropped, &outcomes);
    Ok((frames_for_round(round, batch, &dispositions, total_paid, &journal), then))
}

/// Walks a WAL's records against `engine`, freshly resumed from the
/// checkpoint: the one replay of daemon recovery and [`verify`]. Each
/// barrier takes the oldest logged events, with their WAL offsets, as
/// its batch. A barrier at a round the checkpoint covers is consumed
/// as is; the one at the engine's next round re-executes through
/// [`apply_batch`]. Each is handed to `on_barrier` in WAL order as its
/// round, its batch and, for a re-executed round, its lineage frames.
/// Returns the events no barrier consumed — acked, never ticked — in
/// WAL order.
///
/// # Errors
///
/// A barrier naming more events than were logged before it, or one at
/// a round that does not follow the engine's; the engine's errors;
/// `on_barrier`'s.
pub(crate) fn replay_wal(
    engine: &mut Engine,
    records: Vec<(u64, WalRecord)>,
    lineage: bool,
    mut on_barrier: impl FnMut(
        u32,
        Vec<(u64, SequencedEvent)>,
        Option<Vec<LineageFrame>>,
    ) -> Result<(), ServeError>,
) -> Result<VecDeque<(u64, SequencedEvent)>, ServeError> {
    let mut fifo = VecDeque::new();
    for (offset, record) in records {
        let (round, events) = match record {
            WalRecord::Event(seq) => {
                fifo.push_back((offset, seq));
                continue;
            }
            WalRecord::Barrier { round, events } => (round, events as usize),
        };
        if fifo.len() < events {
            return Err(ServeError::Config(format!(
                "WAL barrier for round {round} names more events than logged"
            )));
        }
        let batch: Vec<(u64, SequencedEvent)> = fifo.drain(..events).collect();
        let next = engine.next_round();
        let replayed = if round < next {
            None
        } else if round == next && !engine.is_finished() {
            Some(apply_batch(&mut *engine, round, &batch, lineage, |_| Ok(()))?.0)
        } else {
            return Err(ServeError::Config(format!(
                "WAL barrier for round {round} does not follow checkpointed round {next}; \
                 state directory is corrupt or mixes runs"
            )));
        };
        on_barrier(round, batch, replayed)?;
    }
    Ok(fifo)
}

/// Offline lineage audit: replays the WAL against the checkpoint with
/// the daemon's own recovery walk (`replay_wal`) and cross-checks
/// every frame in the lineage index. Runs against a cold state
/// directory (daemon stopped or crashed).
///
/// # Errors
///
/// Missing/corrupt state files or a scenario the engine refuses; a
/// *failed audit* is not an error — it is a [`VerifyReport`] with
/// `missing`/`mismatched` entries.
pub fn verify(scenario: &Scenario, state_dir: &Path) -> Result<VerifyReport, ServeError> {
    let ck_path = state_dir.join(crate::daemon::CHECKPOINT_FILE);
    let wal_path = state_dir.join(crate::daemon::WAL_FILE);
    let idx_path = state_dir.join(crate::daemon::LINEAGE_FILE);
    let recorder = Recorder::disabled();
    let mut engine = if ck_path.exists() {
        let bytes = std::fs::read(&ck_path)?;
        Engine::resume(scenario, &bytes, &recorder)?
    } else {
        Engine::new(scenario, &recorder)?
    };
    let mut report = VerifyReport::default();

    let (frames, torn_lineage, _) =
        if idx_path.exists() { read_frames(&idx_path)? } else { (Vec::new(), 0, 0) };
    report.torn_lineage_bytes = torn_lineage;
    let next_at_checkpoint = engine.next_round();
    // Frames for rounds past the checkpoint are the crash window the
    // daemon would truncate and regenerate; keep them aside to compare
    // against our own regeneration.
    let mut settled: BTreeMap<u64, AppliedFrame> = BTreeMap::new();
    let mut unsettled: BTreeMap<u64, AppliedFrame> = BTreeMap::new();
    for frame in frames {
        if let LineageFrame::Applied(f) = frame {
            if f.round < next_at_checkpoint {
                settled.insert(f.event_id, f);
            } else {
                unsettled.insert(f.event_id, f);
            }
        }
    }
    report.settled = settled.len();

    let (records, torn_wal) =
        if wal_path.exists() { wal::read_records(&wal_path)? } else { (Vec::new(), 0) };
    report.torn_wal_bytes = torn_wal;

    let never_ticked = replay_wal(&mut engine, records, true, |round, batch, replayed| {
        match replayed {
            // Checkpointed round: its lineage must already be durable
            // (frames land before the checkpoint).
            None => {
                for (_, seq) in &batch {
                    report.checked += 1;
                    match settled.get(&seq.id) {
                        Some(f) if f.round == round => {}
                        _ => report.missing.push(seq.id),
                    }
                }
            }
            // Re-executed with the daemon's exact semantics: compare
            // with the frames the crashed tick wrote (or would have).
            Some(frames) => {
                for frame in &frames {
                    if let LineageFrame::Applied(f) = frame {
                        report.regenerated += 1;
                        match unsettled.get(&f.event_id) {
                            Some(on_disk) if on_disk == f => report.matched += 1,
                            Some(_) => report.mismatched.push(f.event_id),
                            // Crash before the lineage append: the
                            // frame never landed, recovery writes it.
                            None => {}
                        }
                    }
                }
            }
        }
        Ok(())
    })?;
    // Whatever is left was acked but never consumed by a barrier —
    // including the decodable prefix of a torn final batch. These are
    // *never applied*, and must not have Applied frames.
    for (_, seq) in never_ticked {
        if settled.contains_key(&seq.id) {
            report.mismatched.push(seq.id);
        } else {
            report.never_applied.push(seq.id);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_sim::ExternalEvent;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paydemand-lineage-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn applied(event_id: u64, round: u32) -> LineageFrame {
        LineageFrame::Applied(AppliedFrame {
            event_id,
            request_id: event_id / 2,
            wal_offset: event_id * 46,
            round,
            disposition: Disposition::Paid,
            pay: 1.5,
        })
    }

    fn round_frame(round: u32) -> LineageFrame {
        LineageFrame::Round(RoundFrame {
            round,
            applied: 2,
            total_paid: 7.25,
            tasks: vec![
                TaskPrice { task: 0, level: 3, reward: 2.0 },
                TaskPrice { task: 1, level: 1, reward: 0.5 },
            ],
        })
    }

    #[test]
    fn frames_round_trip_through_the_index() {
        let path = tmp_dir("roundtrip").join("lineage.idx");
        let frames = vec![applied(1, 1), applied(2, 1), round_frame(1)];
        {
            let (mut idx, existing, torn) = LineageIndex::open(&path, true).unwrap();
            assert!(existing.is_empty());
            assert_eq!(torn, 0);
            idx.append(&frames).unwrap();
            assert_eq!(idx.bytes(), std::fs::metadata(&path).unwrap().len());
        }
        let (read, torn) = {
            let (idx, read, torn) = LineageIndex::open(&path, true).unwrap();
            assert_eq!(idx.bytes(), std::fs::metadata(&path).unwrap().len());
            (read, torn)
        };
        assert_eq!(torn, 0);
        assert_eq!(read, frames);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp_dir("torn").join("lineage.idx");
        {
            let (mut idx, _, _) = LineageIndex::open(&path, true).unwrap();
            idx.append(&[applied(1, 1)]).unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[TAG_APPLIED, 37, 0, 0, 0, 9, 9]).unwrap();
        }
        {
            let (mut idx, frames, torn) = LineageIndex::open(&path, true).unwrap();
            assert_eq!(frames, vec![applied(1, 1)]);
            assert!(torn > 0);
            idx.append(&[round_frame(1)]).unwrap();
        }
        let (frames, torn, _) = read_frames(&path).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(frames, vec![applied(1, 1), round_frame(1)]);
    }

    #[test]
    fn rewrite_drops_unsettled_rounds() {
        let path = tmp_dir("rewrite").join("lineage.idx");
        let (mut idx, _, _) = LineageIndex::open(&path, true).unwrap();
        idx.append(&[applied(1, 1), round_frame(1), applied(2, 2), round_frame(2)]).unwrap();
        let (frames, _, _) = read_frames(&path).unwrap();
        let keep: Vec<LineageFrame> = frames.into_iter().filter(|f| f.round() < 2).collect();
        idx.rewrite(&keep).unwrap();
        let (frames, torn, _) = read_frames(&path).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(frames, vec![applied(1, 1), round_frame(1)]);
        assert_eq!(idx.bytes(), std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn wrong_magic_and_version_are_refused() {
        let dir = tmp_dir("magic");
        let bad_magic = dir.join("not-lineage.idx");
        std::fs::write(&bad_magic, b"NOPE!").unwrap();
        assert!(read_frames(&bad_magic).is_err());
        let bad_version = dir.join("future.idx");
        std::fs::write(&bad_version, [b'P', b'D', b'L', b'I', 99]).unwrap();
        assert!(read_frames(&bad_version).is_err());
    }

    #[test]
    fn join_outcomes_aligns_dropped_events() {
        let outcomes = [EventOutcome::Moved, EventOutcome::Paid(2.5)];
        let joined = join_outcomes(&[false, true, false], &outcomes);
        assert_eq!(
            joined,
            vec![(Disposition::Moved, 0.0), (Disposition::Dropped, 0.0), (Disposition::Paid, 2.5),]
        );
        // A short outcome stream degrades to dropped, never panics.
        let joined = join_outcomes(&[false, false], &outcomes[..1]);
        assert_eq!(joined[1], (Disposition::Dropped, 0.0));
    }

    #[test]
    fn frames_for_round_joins_journal_pricing() {
        let batch = vec![(
            0u64,
            SequencedEvent {
                id: 5,
                request: 2,
                event: ExternalEvent::Upload { user: 1, task: 0, value: 0.5 },
            },
        )];
        let journal = vec![
            TraceEvent::TaskDemand {
                task: 0,
                deadline_criterion: 0.1,
                progress_criterion: 0.2,
                scarcity_criterion: 0.3,
                score: 0.2,
                level: 2,
                reward: 1.25,
                stale: false,
            },
            TraceEvent::Budget { round: 7, total_paid: 99.5, spend_cap: None },
        ];
        let frames = frames_for_round(7, &batch, &[(Disposition::Paid, 1.25)], 0.0, &journal);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frames[0],
            LineageFrame::Applied(AppliedFrame {
                event_id: 5,
                request_id: 2,
                wal_offset: 0,
                round: 7,
                disposition: Disposition::Paid,
                pay: 1.25,
            })
        );
        assert_eq!(
            frames[1],
            LineageFrame::Round(RoundFrame {
                round: 7,
                applied: 1,
                total_paid: 99.5,
                tasks: vec![TaskPrice { task: 0, level: 2, reward: 1.25 }],
            })
        );
    }
}
