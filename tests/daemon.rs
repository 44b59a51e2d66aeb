//! Tier-1 pins for the `paydemand serve` daemon: serving the engine
//! over HTTP must not move a single golden number, and a kill‑9 (the
//! in-process equivalent: no drain, no final checkpoint) followed by
//! `--resume` must continue bit-identically.
//!
//! The serve crate's own e2e suite covers the full surface (routing,
//! backpressure, panic isolation, alerts); these tests keep the two
//! load-bearing guarantees visible at tier 1, next to the engine
//! goldens they extend.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use paydemand::sim::{engine, MechanismKind, Scenario, SelectorKind};
use paydemand_obs::Recorder;
use paydemand_serve::http::request;
use paydemand_serve::{Daemon, DaemonConfig};

/// The golden scenario of `tests/determinism.rs` (197 measurements,
/// 81 in round 1, total paid 721.0 at seed 0xD5EED).
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
    let dir = std::env::temp_dir().join(format!("paydemand-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn get(addr: SocketAddr, path: &str) -> String {
    let response =
        request(addr, "GET", path, b"", Duration::from_secs(5)).expect("daemon reachable");
    assert_eq!(response.status, 200, "GET {path}: {}", response.body);
    response.body
}

fn total_paid(prices_body: &str) -> f64 {
    let doc = paydemand_obs::parse_json(prices_body).expect("/prices is JSON");
    doc.get("total_paid").and_then(|v| v.as_f64()).expect("total_paid present")
}

#[test]
fn daemon_with_no_events_reproduces_the_golden_run() {
    let dir = fresh_dir("golden");
    let daemon =
        Daemon::start(DaemonConfig::new(scenario(), dir.clone()), &Recorder::enabled()).unwrap();
    let addr = daemon.local_addr();
    while !daemon.tick().unwrap().finished {}
    let served_paid = total_paid(&get(addr, "/prices"));
    let report = daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let reference = engine::run(&scenario()).unwrap();
    assert!((served_paid - reference.total_paid).abs() < 1e-12, "served prices diverged");
    assert!((report.total_paid - 721.0).abs() < 1e-9, "golden total_paid moved");
    assert_eq!(report.rounds_run, 8);
    assert!(report.finished);
    assert_eq!(report.ingested_events, 0);
}

#[test]
fn kill9_then_resume_matches_the_uninterrupted_run() {
    // Reference: one daemon, events in rounds 2 and 4, run to the end.
    let events_round2 = r#"{"events": [{"type": "move", "user": 3, "x": 100.0, "y": 200.0},
        {"type": "upload", "user": 5, "task": 2, "value": 7.5}]}"#;
    let events_round4 = r#"{"events": [{"type": "move", "user": 11, "x": 900.0, "y": 40.0}]}"#;
    let post = |addr: SocketAddr, body: &str| {
        let response = request(addr, "POST", "/events", body.as_bytes(), Duration::from_secs(5))
            .expect("daemon reachable");
        assert_eq!(response.status, 202, "POST /events: {}", response.body);
    };

    let reference_dir = fresh_dir("reference");
    let reference =
        Daemon::start(DaemonConfig::new(scenario(), reference_dir.clone()), &Recorder::enabled())
            .unwrap();
    let addr = reference.local_addr();
    reference.tick().unwrap();
    post(addr, events_round2);
    reference.tick().unwrap();
    reference.tick().unwrap();
    post(addr, events_round4);
    while !reference.tick().unwrap().finished {}
    let reference_prices = get(addr, "/prices");
    let reference_report = reference.shutdown().unwrap();
    let reference_checkpoint =
        std::fs::read(reference_dir.join("checkpoint.ck")).expect("reference checkpoint");
    let _ = std::fs::remove_dir_all(&reference_dir);

    // Interrupted: same inputs, but killed right after the round-4
    // events are acked — before any tick folds them in — then resumed.
    // Checkpointing every 4 ticks keeps rounds 1-3 out of the
    // checkpoint, so recovery must re-execute them from WAL barriers
    // (2 events) AND restore the acked-untucked round-4 event.
    let dir = fresh_dir("kill9");
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.checkpoint_every = 4;
    let first = Daemon::start(config.clone(), &Recorder::enabled()).unwrap();
    let addr = first.local_addr();
    first.tick().unwrap();
    post(addr, events_round2);
    first.tick().unwrap();
    first.tick().unwrap();
    post(addr, events_round4);
    first.crash();

    let mut resume_config = config;
    resume_config.resume = true;
    let resumed = Daemon::start(resume_config, &Recorder::enabled()).unwrap();
    assert_eq!(resumed.replayed_events(), 2, "rounds 1-3 re-execute their 2 events");
    let addr = resumed.local_addr();
    let status = get(addr, "/status");
    assert!(
        status.contains("\"queue_depth\": 1"),
        "the acked round-4 event survives the crash as pending: {status}"
    );
    while !resumed.tick().unwrap().finished {}
    let resumed_prices = get(addr, "/prices");
    let resumed_report = resumed.shutdown().unwrap();
    let resumed_checkpoint = std::fs::read(dir.join("checkpoint.ck")).expect("resumed checkpoint");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(resumed_prices, reference_prices, "prices diverged after kill-9 recovery");
    assert!(
        (resumed_report.total_paid - reference_report.total_paid).abs() < 1e-12,
        "total paid diverged: {} vs {}",
        resumed_report.total_paid,
        reference_report.total_paid
    );
    assert_eq!(
        resumed_checkpoint, reference_checkpoint,
        "final checkpoints are not byte-identical"
    );
    assert_eq!(reference_report.ingested_events, 3);
    assert_eq!(resumed_report.replayed_events, 2);
}
