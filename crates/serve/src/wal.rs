//! The daemon's event write-ahead log.
//!
//! Durability protocol (see docs/SERVING.md for the state machine):
//!
//! 1. `POST /events` appends each accepted event to the log — and
//!    fsyncs — *before* the 202 is written, so an acknowledged event
//!    survives any crash;
//! 2. each tick appends a *barrier* `(round, n)` — and fsyncs —
//!    before feeding the oldest `n` logged events into the engine and
//!    stepping the round, so the exact batch composition of every
//!    round is on disk before the round runs;
//! 3. after the post-round checkpoint lands atomically, the log is
//!    compacted (rewritten via tmp + rename) down to the events that
//!    arrived since, so it never grows beyond one round of traffic.
//!
//! Replay after a crash is then mechanical: barriers at rounds the
//! checkpoint already covers consume their events; the first barrier
//! at the checkpoint's `next_round` re-executes deterministically;
//! trailing events (logged, acked, never ticked) go back into the
//! pending queue. A torn tail — the record a kill‑9 interrupted
//! mid-append — fails its length or checksum test and is discarded,
//! never mis-parsed.
//!
//! Record framing is [`frame::RecordLog`]'s:
//! `[tag u8][len u32 LE][payload][fnv1a-64-lo u32 LE]`, the checksum
//! covering the payload only. Payloads are at most 64 bytes.
//!
//! Every event record carries its lineage identity — the monotonic
//! event id and the ingest request id assigned at `POST /events` — as
//! sub-tags 2 (move) and 3 (upload); any other sub-tag, the id-less
//! pre-lineage 0/1 included, is unknown and ends the scan like a torn
//! tail. [`Wal::append_events`] returns each record's byte offset, the
//! `wal_offset` the lineage index stores, and the log tracks its own
//! length so `wal_bytes` is a free gauge read.

use std::path::Path;

use paydemand_sim::frame::{
    self, BufMut, Cursor, CursorError, Header, LogError, Record, RecordLog,
};
use paydemand_sim::ExternalEvent;

const TAG_EVENT: u8 = 1;
const TAG_BARRIER: u8 = 2;

/// An externally-ingested event plus the lineage identity the daemon
/// assigned at ingest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequencedEvent {
    /// Monotonic event id, unique across the daemon's lifetime
    /// (including restarts — recovery resumes past the highest id on
    /// disk).
    pub id: u64,
    /// Id of the `POST /events` request that carried the event.
    pub request: u64,
    /// The event itself.
    pub event: ExternalEvent,
}

/// One decoded log record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalRecord {
    /// An ingested, acknowledged event awaiting (or consumed by) a tick.
    Event(SequencedEvent),
    /// A tick boundary: the next `events` logged events (in FIFO
    /// order) were fed into round `round`.
    Barrier {
        /// The 1-based round the batch was applied to.
        round: u32,
        /// How many events the batch contained.
        events: u32,
    },
}

/// What [`Wal::open`] recovers: the handle, the decodable records
/// already on disk with their byte offsets, and the size of the torn
/// tail (if any) that was discarded.
pub type OpenedWal = (Wal, Vec<(u64, WalRecord)>, usize);

/// An append-only event log with atomic compaction.
#[derive(Debug)]
pub struct Wal {
    log: RecordLog<WalRecord>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending and
    /// returns the records already on disk with their byte offsets,
    /// discarding a torn tail. `fsync: false` trades durability for
    /// speed in tests and load runs that measure the protocol, not the
    /// disk.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(path: &Path, fsync: bool) -> std::io::Result<OpenedWal> {
        let (log, scan) = RecordLog::open(path, fsync)?;
        Ok((Wal { log }, scan.offsets.into_iter().zip(scan.records).collect(), scan.torn))
    }

    /// Appends `events` and makes them durable in one fsync, returning
    /// the byte offset each record starts at — the `wal_offset` the
    /// lineage index records.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors; on error the caller must treat
    /// the batch as unacknowledged.
    pub fn append_events(&mut self, events: &[SequencedEvent]) -> std::io::Result<Vec<u64>> {
        let mut offsets = Vec::with_capacity(events.len());
        self.log.append(events.iter().map(|&event| WalRecord::Event(event)), Some(&mut offsets))?;
        Ok(offsets)
    }

    /// Appends a tick barrier and makes it durable.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors.
    pub fn append_barrier(&mut self, round: u32, events: u32) -> std::io::Result<()> {
        self.log.append([WalRecord::Barrier { round, events }], None)
    }

    /// Atomically rewrites the log to contain exactly `pending` (the
    /// events not yet covered by the last checkpoint), via tmp+rename.
    /// Returns the surviving events' new byte offsets, in order.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; the old log stays valid if any
    /// step fails before the rename.
    pub fn compact(&mut self, pending: &[SequencedEvent]) -> std::io::Result<Vec<u64>> {
        let mut offsets = Vec::with_capacity(pending.len());
        self.log
            .rewrite(pending.iter().map(|&event| WalRecord::Event(event)), Some(&mut offsets))?;
        Ok(offsets)
    }

    /// Current size of the log in bytes (the `wal_bytes` gauge).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }
}

/// Reads every well-formed record in `path` with its byte offset,
/// returning them plus the number of torn trailing bytes discarded
/// (0 for a clean log).
///
/// # Errors
///
/// Propagates read errors; corruption is *not* an error — parsing
/// simply stops at the first bad record.
pub fn read_records(path: &Path) -> std::io::Result<(Vec<(u64, WalRecord)>, usize)> {
    let scan = frame::scan::<WalRecord>(&std::fs::read(path)?).map_err(LogError::Header)?;
    Ok((scan.offsets.into_iter().zip(scan.records).collect(), scan.torn))
}

impl Record for WalRecord {
    const HEADER: Option<Header> = None;
    const SIZE_HINT: usize = 48;
    const MAX_PAYLOAD: u32 = 64;

    fn encode(&self, out: &mut Vec<u8>) -> u8 {
        match self {
            WalRecord::Event(seq) => {
                match seq.event {
                    ExternalEvent::Move { user, x, y } => {
                        out.put_u8(2);
                        out.put_u64_le(seq.id);
                        out.put_u64_le(seq.request);
                        out.put_u32_le(user);
                        out.put_f64_le(x);
                        out.put_f64_le(y);
                    }
                    ExternalEvent::Upload { user, task, value } => {
                        out.put_u8(3);
                        out.put_u64_le(seq.id);
                        out.put_u64_le(seq.request);
                        out.put_u32_le(user);
                        out.put_u32_le(task);
                        out.put_f64_le(value);
                    }
                }
                TAG_EVENT
            }
            WalRecord::Barrier { round, events } => {
                out.put_u32_le(*round);
                out.put_u32_le(*events);
                TAG_BARRIER
            }
        }
    }

    fn decode(tag: u8, p: &mut Cursor<'_>) -> Result<Option<Self>, CursorError> {
        if tag == TAG_BARRIER {
            return Ok(Some(WalRecord::Barrier { round: p.u32()?, events: p.u32()? }));
        }
        if tag != TAG_EVENT {
            return Ok(None);
        }
        let sub_tag = p.u8()?;
        if !matches!(sub_tag, 2 | 3) {
            return Ok(None);
        }
        let (id, request) = (p.u64()?, p.u64()?);
        let event = if sub_tag == 2 {
            ExternalEvent::Move { user: p.u32()?, x: p.f64()?, y: p.f64()? }
        } else {
            ExternalEvent::Upload { user: p.u32()?, task: p.u32()?, value: p.f64()? }
        };
        Ok(Some(WalRecord::Event(SequencedEvent { id, request, event })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paydemand-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn seq(id: u64, request: u64, event: ExternalEvent) -> SequencedEvent {
        SequencedEvent { id, request, event }
    }

    #[test]
    fn records_round_trip_with_ids_and_offsets() {
        let path = tmp_path("roundtrip");
        let events = [
            seq(10, 1, ExternalEvent::Move { user: 7, x: 12.25, y: -3.5 }),
            seq(11, 1, ExternalEvent::Upload { user: 2, task: 9, value: 0.125 }),
        ];
        let offsets;
        {
            let (mut wal, existing, torn) = Wal::open(&path, true).unwrap();
            assert!(existing.is_empty());
            assert_eq!(torn, 0);
            offsets = wal.append_events(&events).unwrap();
            wal.append_barrier(4, 2).unwrap();
            assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
        }
        let (records, torn) = read_records(&path).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(
            records,
            vec![
                (offsets[0], WalRecord::Event(events[0])),
                (offsets[1], WalRecord::Event(events[1])),
                (offsets[1] + 5 + 33 + 4, WalRecord::Barrier { round: 4, events: 2 }),
            ]
        );
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[1], 5 + 37 + 4, "move records are 46 bytes framed");
    }

    #[test]
    fn legacy_idless_records_do_not_decode() {
        let path = tmp_path("legacy");
        // Pre-lineage move (sub-tag 0) and upload (sub-tag 1) records,
        // hand-framed and well checksummed, each after a barrier.
        for (sub_tag, event) in [(0u8, vec![3u8; 20]), (1, vec![5; 16])] {
            let mut payload = vec![sub_tag];
            payload.extend_from_slice(&event);
            let mut bytes = vec![TAG_BARRIER, 8, 0, 0, 0];
            bytes.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
            bytes.extend_from_slice(&(frame::fnv1a64(&bytes[5..]) as u32).to_le_bytes());
            bytes.push(TAG_EVENT);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&(frame::fnv1a64(&payload) as u32).to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let (records, torn) = read_records(&path).unwrap();
            assert_eq!(records, vec![(0, WalRecord::Barrier { round: 1, events: 0 })]);
            assert_eq!(torn, 5 + payload.len() + 4, "sub-tag {sub_tag} read as unknown");
        }
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = tmp_path("torn");
        {
            let (mut wal, _, _) = Wal::open(&path, true).unwrap();
            wal.append_events(&[seq(1, 1, ExternalEvent::Upload { user: 1, task: 1, value: 1.0 })])
                .unwrap();
        }
        // Simulate a kill-9 mid-append: half a record of garbage.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[TAG_EVENT, 33, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let (records, torn) = read_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(torn > 0);
        // Re-opening truncates the tail and appends continue cleanly.
        {
            let (mut wal, existing, torn) = Wal::open(&path, true).unwrap();
            assert_eq!(existing.len(), 1);
            assert!(torn > 0);
            assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
            wal.append_barrier(1, 1).unwrap();
        }
        let (records, torn) = read_records(&path).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].1, WalRecord::Barrier { round: 1, events: 1 });
    }

    #[test]
    fn corrupt_length_and_checksum_stop_parsing() {
        let path = tmp_path("corrupt");
        {
            let (mut wal, _, _) = Wal::open(&path, true).unwrap();
            wal.append_barrier(1, 0).unwrap();
            wal.append_barrier(2, 0).unwrap();
        }
        // Flip a payload byte of the second record: its checksum fails
        // and parsing stops there, keeping the first record.
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = bytes.len() / 2;
        bytes[record_len + 6] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (records, torn) = read_records(&path).unwrap();
        assert_eq!(records, vec![(0, WalRecord::Barrier { round: 1, events: 0 })]);
        assert_eq!(torn, record_len);
        // An insane length field is equally fatal for the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(record_len);
        bytes.extend_from_slice(&[TAG_EVENT, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();
        let (records, _) = read_records(&path).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn compaction_rewrites_to_pending_only() {
        let path = tmp_path("compact");
        let keep = seq(8, 3, ExternalEvent::Move { user: 3, x: 1.0, y: 2.0 });
        {
            let (mut wal, _, _) = Wal::open(&path, true).unwrap();
            wal.append_events(&[seq(7, 2, ExternalEvent::Upload { user: 0, task: 0, value: 0.5 })])
                .unwrap();
            wal.append_barrier(1, 1).unwrap();
            let offsets = wal.compact(&[keep]).unwrap();
            assert_eq!(offsets, vec![0]);
            // Appends after compaction land in the new file.
            wal.append_barrier(2, 1).unwrap();
            assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
        }
        let (records, torn) = read_records(&path).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(
            records,
            vec![
                (0, WalRecord::Event(keep)),
                (5 + 37 + 4, WalRecord::Barrier { round: 2, events: 1 })
            ]
        );
    }
}
