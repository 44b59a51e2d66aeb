//! Tier-1 pins for the event lineage index and the observability
//! surface around it: every acked event must resolve through
//! `GET /events/{id}` bit-identically before and after a kill-9
//! `--resume`, the offline `lineage verify` audit must agree with the
//! replay and report a removed checkpointed frame as missing and an
//! altered crash-window frame as mismatched, torn-tail events must read
//! as *never applied* (not missing), a lineage index whose header was torn at creation must
//! not lock the state directory, and `/logs.json` + the new `/status`
//! fields must serve valid JSON.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use paydemand::sim::{MechanismKind, Scenario, SelectorKind};
use paydemand_obs::{parse_json, LogLevel, Logger, Recorder};
use paydemand_serve::http::request;
use paydemand_serve::{lineage, Daemon, DaemonConfig};

/// The golden scenario of `tests/determinism.rs`.
fn scenario() -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(8)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0xD5EED)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paydemand-lineage-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let response =
        request(addr, "GET", path, b"", Duration::from_secs(5)).expect("daemon reachable");
    (response.status, response.body)
}

fn get_ok(addr: SocketAddr, path: &str) -> String {
    let (status, body) = get(addr, path);
    assert_eq!(status, 200, "GET {path}: {body}");
    body
}

/// Posts a batch and returns `(request_id, first_event_id, accepted)`.
fn post(addr: SocketAddr, body: &str) -> (u64, u64, u64) {
    let response = request(addr, "POST", "/events", body.as_bytes(), Duration::from_secs(5))
        .expect("daemon reachable");
    assert_eq!(response.status, 202, "POST /events: {}", response.body);
    let doc = parse_json(&response.body).expect("202 body is JSON");
    (
        doc.get("request_id").and_then(|v| v.as_u64()).expect("request_id"),
        doc.get("first_event_id").and_then(|v| v.as_u64()).expect("first_event_id"),
        doc.get("accepted").and_then(|v| v.as_u64()).expect("accepted"),
    )
}

#[test]
fn acked_events_resolve_identically_across_kill9_resume() {
    let events_round2 = r#"{"events": [{"type": "move", "user": 3, "x": 100.0, "y": 200.0},
        {"type": "upload", "user": 5, "task": 2, "value": 7.5}]}"#;
    let events_round4 = r#"{"events": [{"type": "move", "user": 11, "x": 900.0, "y": 40.0}]}"#;

    // Checkpoint every 4 ticks, crash after 3: recovery must truncate
    // the lineage index and regenerate every frame from the WAL replay.
    let dir = fresh_dir("kill9");
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.checkpoint_every = 4;
    let first = Daemon::start(config.clone(), &Recorder::enabled()).unwrap();
    let addr = first.local_addr();
    first.tick().unwrap();
    let (req_a, first_a, accepted_a) = post(addr, events_round2);
    assert_eq!(accepted_a, 2);
    first.tick().unwrap();
    first.tick().unwrap();
    let (req_b, first_b, accepted_b) = post(addr, events_round4);
    assert_eq!(accepted_b, 1);
    assert!(req_b > req_a, "request ids are monotonic");
    assert_eq!(first_b, first_a + 2, "event ids are dense and monotonic");

    // Every acked event resolves; the round-2 batch is applied, the
    // round-4 event is still pending.
    let applied_before: Vec<String> =
        (first_a..first_a + 2).map(|id| get_ok(addr, &format!("/events/{id}"))).collect();
    for body in &applied_before {
        let doc = parse_json(body).expect("event body is JSON");
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("applied"), "{body}");
        assert_eq!(doc.get("round").and_then(|v| v.as_u64()), Some(2), "{body}");
    }
    let (_, pending_before) = get(addr, &format!("/events/{first_b}"));
    let doc = parse_json(&pending_before).expect("pending body is JSON");
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("pending"));
    assert_eq!(doc.get("request_id").and_then(|v| v.as_u64()), Some(req_b));
    first.crash();

    // Offline audit on the cold directory: clean, with the acked-but-
    // never-ticked round-4 event reported as never applied.
    let report = lineage::verify(&scenario(), &dir).expect("verify runs");
    assert!(report.is_clean(), "missing {:?} mismatched {:?}", report.missing, report.mismatched);
    assert_eq!(report.never_applied, vec![first_b], "pending event is never-applied");
    assert_eq!(report.regenerated, 2, "rounds 1-3 regenerate the 2 applied frames");
    assert_eq!(report.matched, 2, "regenerated frames match the on-disk frames bit-for-bit");

    // Resume: the same ids must resolve bit-identically.
    let mut resume_config = config;
    resume_config.resume = true;
    let resumed = Daemon::start(resume_config, &Recorder::enabled()).unwrap();
    let addr = resumed.local_addr();
    for (i, id) in (first_a..first_a + 2).enumerate() {
        let body = get_ok(addr, &format!("/events/{id}"));
        assert_eq!(body, applied_before[i], "event {id} diverged across kill-9 --resume");
    }
    // The still-pending event too, its WAL offset included: recovery
    // leaves the WAL as the crash left it.
    let pending_after = get_ok(addr, &format!("/events/{first_b}"));
    assert_eq!(pending_after, pending_before, "pending event {first_b} diverged across --resume");

    // Run to completion: the pending event settles and the audit stays
    // clean with nothing left pending.
    while !resumed.tick().unwrap().finished {}
    let body = get_ok(addr, &format!("/events/{first_b}"));
    let doc = parse_json(&body).expect("event body is JSON");
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("applied"), "{body}");
    assert_eq!(doc.get("round").and_then(|v| v.as_u64()), Some(4), "{body}");
    resumed.shutdown().unwrap();

    let report = lineage::verify(&scenario(), &dir).expect("verify runs");
    assert!(report.is_clean(), "missing {:?} mismatched {:?}", report.missing, report.mismatched);
    assert!(report.never_applied.is_empty(), "everything settled: {:?}", report.never_applied);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_reads_as_never_applied_not_missing() {
    let dir = fresh_dir("torn");
    let config = DaemonConfig::new(scenario(), dir.clone());
    let daemon = Daemon::start(config, &Recorder::enabled()).unwrap();
    let addr = daemon.local_addr();
    daemon.tick().unwrap();
    let (_, first_id, _) =
        post(addr, r#"{"events": [{"type": "move", "user": 7, "x": 50.0, "y": 60.0}]}"#);
    daemon.crash();

    // Simulate a kill-9 mid-append: a record that starts but never
    // finishes at the WAL tail.
    use std::io::Write as _;
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(paydemand_serve::daemon::WAL_FILE))
        .unwrap();
    wal.write_all(&[1, 200, 0, 0, 0, 42, 42, 42]).unwrap();
    drop(wal);

    let report = lineage::verify(&scenario(), &dir).expect("verify runs");
    assert!(report.torn_wal_bytes > 0, "the torn tail is detected");
    assert!(report.is_clean(), "missing {:?} mismatched {:?}", report.missing, report.mismatched);
    assert_eq!(
        report.never_applied,
        vec![first_id],
        "the decodable acked event before the tear is never-applied, not missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_lineage_header_resumes_instead_of_locking_the_directory() {
    // A crash while `lineage.idx` is created can leave any prefix of
    // its 5-byte header (`PDLI`, version) beside an empty WAL.
    let header = [b'P', b'D', b'L', b'I', lineage::LINEAGE_VERSION];
    for torn in 0..header.len() {
        let dir = fresh_dir(&format!("torn-header-{torn}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(paydemand_serve::daemon::WAL_FILE), b"").unwrap();
        std::fs::write(dir.join(paydemand_serve::daemon::LINEAGE_FILE), &header[..torn]).unwrap();

        let mut config = DaemonConfig::new(scenario(), dir.clone());
        config.resume = true;
        let recorder = Recorder::enabled();
        let daemon = Daemon::start(config, &recorder)
            .unwrap_or_else(|e| panic!("{torn} header bytes: resume refused: {e}"));
        let addr = daemon.local_addr();
        let (_, id, _) =
            post(addr, r#"{"events": [{"type": "move", "user": 2, "x": 30.0, "y": 40.0}]}"#);
        daemon.tick().unwrap();
        let doc = parse_json(&get_ok(addr, &format!("/events/{id}"))).expect("event body is JSON");
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("applied"));
        daemon.shutdown().unwrap();

        let torn_reported = recorder.snapshot().counter_value("lineage_torn_bytes_total", None);
        assert_eq!(torn_reported.unwrap_or(0), torn as u64, "{torn} header bytes");
        let report = lineage::verify(&scenario(), &dir).expect("verify runs");
        assert!(
            report.is_clean(),
            "missing {:?} mismatched {:?}",
            report.missing,
            report.mismatched
        );
        assert_eq!(report.settled, 1, "{torn} header bytes: the event's frame is on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn logs_and_status_surface_valid_json() {
    let dir = fresh_dir("logs");
    let recorder = Recorder::enabled();
    let log = Logger::enabled(256, LogLevel::Debug, &recorder);
    recorder.attach_logger(&log);
    let daemon = Daemon::start(DaemonConfig::new(scenario(), dir.clone()), &recorder).unwrap();
    let addr = daemon.local_addr();
    post(addr, r#"{"events": [{"type": "move", "user": 1, "x": 10.0, "y": 20.0}]}"#);

    // Before any tick the acked event sits in the WAL; after the tick
    // the checkpoint lands (checkpoint_every defaults to 1) and
    // compaction reclaims it.
    let status = get_ok(addr, "/status");
    let doc = parse_json(&status).expect("/status is JSON");
    assert!(
        doc.get("wal_bytes").and_then(|v| v.as_u64()).unwrap() > 0,
        "the WAL holds the acked event: {status}"
    );
    daemon.tick().unwrap();

    let logs = get_ok(addr, "/logs.json");
    let doc = parse_json(&logs).expect("/logs.json is JSON");
    let entries = doc.get("entries").and_then(|v| v.as_array()).expect("entries array");
    assert!(!entries.is_empty(), "the flight recorder captured startup and ingest entries");
    let rendered: Vec<&str> =
        entries.iter().filter_map(|e| e.get("msg").and_then(|m| m.as_str())).collect();
    assert!(rendered.contains(&"daemon started"), "{rendered:?}");
    assert!(rendered.contains(&"batch accepted"), "{rendered:?}");

    let status = get_ok(addr, "/status");
    let doc = parse_json(&status).expect("/status is JSON");
    for key in ["wal_bytes", "last_checkpoint_tick", "events_since_checkpoint"] {
        assert!(doc.get(key).is_some(), "missing {key} in {status}");
    }
    assert_eq!(
        doc.get("last_checkpoint_tick").and_then(|v| v.as_u64()),
        Some(1),
        "the first tick checkpointed: {status}"
    );
    assert_eq!(
        doc.get("events_since_checkpoint").and_then(|v| v.as_u64()),
        Some(0),
        "the checkpoint covers the applied event: {status}"
    );

    // Unknown and malformed event ids are typed errors, not panics.
    let (status_code, _) = get(addr, "/events/999999");
    assert_eq!(status_code, 404);
    let (status_code, _) = get(addr, "/events/notanumber");
    assert_eq!(status_code, 422);

    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives the golden daemon as the kill-9 test above does — checkpoint
/// every 4 ticks, a two-event batch applied in round 2, one more event
/// acked, kill‑9 after 3 ticks — and returns the cold directory with
/// the round-2 batch's first event id. Its checkpoint is the startup
/// one, so rounds 1–3 are the crash window.
fn crashed_after_three_ticks(tag: &str) -> (PathBuf, u64) {
    let dir = fresh_dir(tag);
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.checkpoint_every = 4;
    let daemon = Daemon::start(config, &Recorder::disabled()).unwrap();
    let addr = daemon.local_addr();
    daemon.tick().unwrap();
    let (_, first, _) = post(
        addr,
        r#"{"events": [{"type": "move", "user": 3, "x": 100.0, "y": 200.0},
            {"type": "upload", "user": 5, "task": 2, "value": 7.5}]}"#,
    );
    daemon.tick().unwrap();
    daemon.tick().unwrap();
    post(addr, r#"{"events": [{"type": "move", "user": 11, "x": 900.0, "y": 40.0}]}"#);
    daemon.crash();
    (dir, first)
}

/// Rewrites `dir`'s lineage index to `edit` of its frames.
fn rewrite_frames(
    dir: &std::path::Path,
    edit: impl FnOnce(Vec<lineage::LineageFrame>) -> Vec<lineage::LineageFrame>,
) {
    let path = dir.join(paydemand_serve::daemon::LINEAGE_FILE);
    let (mut index, frames, _) = lineage::LineageIndex::open(&path, true).unwrap();
    index.rewrite(&edit(frames)).unwrap();
}

#[test]
fn verify_reports_a_checkpointed_event_with_no_frame_as_missing() {
    let (dir, first) = crashed_after_three_ticks("missing");
    // Land the checkpoint a crash between checkpoint and compaction
    // leaves: a resumed daemon in a copy replays rounds 1–3 and
    // checkpoints past them; that checkpoint beside the uncompacted
    // WAL makes the round-2 batch a checkpointed one.
    let copy = fresh_dir("missing-copy");
    std::fs::create_dir_all(&copy).unwrap();
    for file in [
        paydemand_serve::daemon::CHECKPOINT_FILE,
        paydemand_serve::daemon::WAL_FILE,
        paydemand_serve::daemon::LINEAGE_FILE,
    ] {
        std::fs::copy(dir.join(file), copy.join(file)).unwrap();
    }
    let mut config = DaemonConfig::new(scenario(), copy.clone());
    config.resume = true;
    Daemon::start(config, &Recorder::disabled()).unwrap().crash();
    let checkpoint = paydemand_serve::daemon::CHECKPOINT_FILE;
    std::fs::copy(copy.join(checkpoint), dir.join(checkpoint)).unwrap();

    let report = lineage::verify(&scenario(), &dir).expect("verify runs");
    assert!(report.is_clean(), "missing {:?} mismatched {:?}", report.missing, report.mismatched);
    assert_eq!((report.checked, report.regenerated), (2, 0), "rounds 1-3 are checkpointed");

    rewrite_frames(&dir, |frames| {
        frames
            .into_iter()
            .filter(|f| !matches!(f, lineage::LineageFrame::Applied(a) if a.event_id == first + 1))
            .collect()
    });
    let report = lineage::verify(&scenario(), &dir).expect("verify runs");
    assert_eq!(report.missing, vec![first + 1]);
    assert!(report.mismatched.is_empty(), "{:?}", report.mismatched);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

#[test]
fn verify_reports_an_altered_crash_window_frame_as_mismatched() {
    let (dir, first) = crashed_after_three_ticks("mismatched");
    let report = lineage::verify(&scenario(), &dir).expect("verify runs");
    assert!(report.is_clean(), "missing {:?} mismatched {:?}", report.missing, report.mismatched);
    assert_eq!(report.matched, 2);

    // The move's disposition and the upload's pay, each altered on disk.
    rewrite_frames(&dir, |mut frames| {
        for frame in &mut frames {
            match frame {
                lineage::LineageFrame::Applied(f) if f.event_id == first => {
                    f.disposition = lineage::Disposition::Duplicate;
                }
                lineage::LineageFrame::Applied(f) if f.event_id == first + 1 => f.pay += 1.0,
                _ => {}
            }
        }
        frames
    });
    let report = lineage::verify(&scenario(), &dir).expect("verify runs");
    assert_eq!(report.mismatched, vec![first, first + 1]);
    assert!(report.missing.is_empty(), "{:?}", report.missing);
    assert_eq!((report.regenerated, report.matched), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
