//! End-to-end daemon tests: the full HTTP surface, backpressure,
//! panic isolation, graceful shutdown, hostile clients racing honest
//! ones and — the headline — kill‑9 recovery that continues
//! bit-identically under `--resume`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use paydemand_obs::{evaluate_series, AlertRule, Recorder, TimeSeries};
use paydemand_serve::daemon::LINEAGE_FILE;
use paydemand_serve::http;
use paydemand_serve::{Daemon, DaemonConfig, HttpLimits};
use paydemand_sim::{MechanismKind, Scenario, SelectorKind};

const TIMEOUT: Duration = Duration::from_secs(5);

fn scenario() -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(8)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0xD5EED)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paydemand-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(config: DaemonConfig) -> (Daemon, Recorder) {
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(config, &recorder).expect("daemon starts");
    (daemon, recorder)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> http::Response {
    http::request(addr, "POST", path, body.as_bytes(), TIMEOUT).expect("request completes")
}

fn get(addr: SocketAddr, path: &str) -> http::Response {
    http::request(addr, "GET", path, b"", TIMEOUT).expect("request completes")
}

/// A deterministic little event stream: one move and one upload per
/// round, derived from the round number.
fn round_events(round: u32) -> String {
    let user = round % 30;
    let task = round % 10;
    let x = 100.0 + f64::from(round) * 37.5;
    let y = 2900.0 - f64::from(round) * 11.25;
    format!(
        "{{\"events\": [\
          {{\"type\": \"move\", \"user\": {user}, \"x\": {x}, \"y\": {y}}}, \
          {{\"type\": \"upload\", \"user\": {user}, \"task\": {task}, \"value\": {}}}]}}",
        f64::from(round) * 1.5 + 3.0
    )
}

#[test]
fn full_http_surface_round_trip() {
    let dir = fresh_dir("surface");
    let (daemon, _recorder) = start(DaemonConfig::new(scenario(), dir.clone()));
    let addr = daemon.local_addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"serving\""), "healthz: {}", health.body);

    let status = get(addr, "/status");
    assert_eq!(status.status, 200);
    assert!(status.body.contains("\"users\": 30"), "status: {}", status.body);
    assert!(status.body.contains("\"queue_capacity\": 4096"));

    // Before any round: empty prices.
    let prices = get(addr, "/prices");
    assert_eq!(prices.status, 200);
    assert!(prices.body.contains("\"round\": 0"));

    let accepted = post(addr, "/events", &round_events(1));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    assert!(accepted.body.contains("\"accepted\": 2"));

    let tick = post(addr, "/tick", "");
    assert_eq!(tick.status, 200);
    assert!(tick.body.contains("\"stepped\": true"), "tick: {}", tick.body);
    assert!(tick.body.contains("\"applied\": 2"));

    let prices = get(addr, "/prices");
    assert!(prices.body.contains("\"round\": 1"), "prices: {}", prices.body);
    assert!(prices.body.contains("\"total_paid\": "));

    let demand = get(addr, "/demand");
    assert_eq!(demand.status, 200);
    assert!(demand.body.contains("\"required\": "), "demand: {}", demand.body);

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("ingest_events_total 2"), "metrics: {}", metrics.body);

    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/profile").status, 404);
    assert_eq!(http::request(addr, "PUT", "/events", b"{}", TIMEOUT).unwrap().status, 405);

    let report = daemon.shutdown().expect("graceful shutdown");
    assert_eq!(report.rounds_run, 1);
    assert_eq!(report.ingested_events, 2);
    assert_eq!(report.worker_restarts, 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_and_invalid_events_get_typed_rejections() {
    let dir = fresh_dir("reject");
    let (daemon, _recorder) = start(DaemonConfig::new(scenario(), dir.clone()));
    let addr = daemon.local_addr();

    // Transport-level garbage → 400.
    assert_eq!(post(addr, "/events", "not json at all").status, 400);
    // Valid JSON, wrong shape → 422.
    assert_eq!(post(addr, "/events", "{\"events\": [{\"type\": \"fly\"}]}").status, 422);
    // Well-formed but semantically invalid → 422 with the index.
    let bad_user = post(
        addr,
        "/events",
        "{\"events\": [{\"type\": \"move\", \"user\": 99, \"x\": 1.0, \"y\": 1.0}]}",
    );
    assert_eq!(bad_user.status, 422);
    assert!(bad_user.body.contains("events[0]"), "{}", bad_user.body);
    let outside = post(
        addr,
        "/events",
        "{\"events\": [{\"type\": \"move\", \"user\": 0, \"x\": 99999.0, \"y\": 1.0}]}",
    );
    assert_eq!(outside.status, 422);
    assert!(outside.body.contains("outside the sensing area"), "{}", outside.body);

    // A bad event anywhere rejects the whole batch: nothing ingested.
    let status = get(addr, "/status");
    assert!(status.body.contains("\"ingested_events_total\": 0"), "{}", status.body);

    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

/// The JSON reader recurses once a nesting level, on a worker thread:
/// a deep body is refused at the reader's depth bound, not met with a
/// stack overflow that aborts the process.
#[test]
fn deeply_nested_bodies_are_refused_and_the_daemon_keeps_serving() {
    let dir = fresh_dir("nested");
    let (daemon, _recorder) = start(DaemonConfig::new(scenario(), dir.clone()));
    let addr = daemon.local_addr();

    let cap = HttpLimits::default().max_body_bytes;
    for depth in [1_000, 10_000, 250_000] {
        // Balanced while that fits under the body cap, the opening
        // brackets alone past it.
        let balanced = format!("{{\"events\": {}{}}}", "[".repeat(depth), "]".repeat(depth));
        let body = if balanced.len() <= cap { balanced } else { "[".repeat(depth) };
        assert!(body.len() <= cap, "depth {depth}");
        let refused = post(addr, "/events", &body);
        assert!(matches!(refused.status, 400 | 422), "depth {depth}: {}", refused.status);
    }
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(post(addr, "/events", &round_events(1)).status, 202);

    let report = daemon.shutdown().unwrap();
    assert_eq!(report.ingested_events, 2);
    assert_eq!(report.worker_restarts, 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let dir = fresh_dir("backpressure");
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.queue_capacity = 3;
    let (daemon, _recorder) = start(config);
    let addr = daemon.local_addr();

    assert_eq!(post(addr, "/events", &round_events(1)).status, 202);
    // 2 queued; a batch of 2 more would exceed capacity 3.
    let shed = post(addr, "/events", &round_events(2));
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert_eq!(shed.header("Retry-After"), Some("1"));

    // A tick drains the queue; ingest works again.
    assert_eq!(post(addr, "/tick", "").status, 200);
    assert_eq!(post(addr, "/events", &round_events(2)).status, 202);

    let metrics = get(addr, "/metrics").body;
    assert!(metrics.contains("shed_total 2"), "metrics: {metrics}");
    assert!(
        metrics.contains("ingest_rejected_total{reason=\"queue_full\"} 1"),
        "metrics: {metrics}"
    );

    let report = daemon.shutdown().unwrap();
    assert_eq!(report.shed_events, 2);
    let _ = std::fs::remove_dir_all(dir);
}

/// Connections the daemon queues for its workers before it sheds.
const CONNECTION_BACKLOG: usize = 256;

/// Reads one connection's whole response; `None` if the read fails.
fn read_reply(stream: &mut TcpStream) -> Option<String> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    Some(String::from_utf8_lossy(&raw).into_owned())
}

#[test]
fn a_full_connection_queue_sheds_with_503_and_serves_what_it_queued() {
    const HEAD_DEADLINE: Duration = Duration::from_secs(2);
    let dir = fresh_dir("backlog");
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.workers = 1;
    config.limits = HttpLimits { head_deadline: HEAD_DEADLINE, ..HttpLimits::default() };
    let (daemon, _recorder) = start(config);
    let addr = daemon.local_addr();
    let connect = || {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT).expect("daemon accepts");
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream
    };

    // Half a request head holds the only worker until the deadline.
    let mut stall = connect();
    stall.write_all(b"GET /healthz HTTP/1.1\r\nHost: pay").unwrap();
    std::thread::sleep(HEAD_DEADLINE / 10);
    // Opened in chunks with a pause after each, so the kernel's accept
    // queue (std listens with a backlog of 128) never overflows while
    // the acceptor catches up: an overflow delays a connect by a SYN
    // retry and can reorder it.
    let mut queued: Vec<TcpStream> = Vec::with_capacity(CONNECTION_BACKLOG);
    for _ in 0..CONNECTION_BACKLOG / 32 {
        for _ in 0..32 {
            let mut stream = connect();
            stream.write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
            queued.push(stream);
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // The acceptor answers the next one itself. It sends nothing, so
    // the daemon's close leaves no unread request behind it.
    let shed_at = Instant::now();
    let shed = read_reply(&mut connect()).expect("the shed connection reads its answer");
    let took = shed_at.elapsed();
    assert!(shed.starts_with("HTTP/1.1 503 "), "{shed}");
    assert!(shed.contains("\r\nRetry-After: 1\r\n"), "{shed}");
    assert!(took < HEAD_DEADLINE / 2, "the 503 took {took:?}");

    let stalled = read_reply(&mut stall).expect("the stalled head resolves");
    assert!(stalled.starts_with("HTTP/1.1 408 "), "{stalled}");
    for (i, stream) in queued.iter_mut().enumerate() {
        let reply = read_reply(stream).unwrap_or_default();
        assert!(reply.starts_with("HTTP/1.1 200 "), "queued connection {i}: {reply}");
    }
    let metrics = get(addr, "/metrics").body;
    assert!(
        metrics.contains("ingest_rejected_total{reason=\"overloaded\"} 1\n"),
        "metrics: {metrics}"
    );
    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_handler_panic_costs_only_its_connection() {
    let dir = fresh_dir("panic");
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.debug_panic_route = true;
    config.workers = 1;
    let (daemon, _recorder) = start(config);
    let addr = daemon.local_addr();

    // The handler panics; the client just sees a dropped connection (no
    // response), a response-parse error or an empty-read error
    // depending on timing.
    let _ = http::request(addr, "POST", "/debug/panic", b"", TIMEOUT);

    // The one worker caught the panic and serves everything after it.
    let status = get(addr, "/status");
    assert_eq!(status.status, 200);
    assert!(status.body.contains("\"worker_restarts_total\": 1"), "status: {}", status.body);
    assert_eq!(post(addr, "/events", &round_events(1)).status, 202);
    assert_eq!(post(addr, "/tick", "").status, 200);

    let report = daemon.shutdown().unwrap();
    assert_eq!(report.worker_restarts, 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn finished_run_answers_409_and_draining_daemon_503() {
    let dir = fresh_dir("finished");
    let (daemon, _recorder) = start(DaemonConfig::new(scenario(), dir.clone()));
    let addr = daemon.local_addr();
    // Run the scenario out (8 rounds max).
    for _ in 0..8 {
        assert_eq!(post(addr, "/tick", "").status, 200);
    }
    assert!(daemon.is_finished());
    let refused = post(addr, "/events", &round_events(1));
    assert_eq!(refused.status, 409, "{}", refused.body);
    // Ticking a finished run is a no-op, not an error.
    let tick = post(addr, "/tick", "");
    assert!(tick.body.contains("\"stepped\": false"), "{}", tick.body);

    // POST /shutdown flips to draining; ingest then refuses with 503.
    assert_eq!(post(addr, "/shutdown", "").status, 200);
    assert!(daemon.shutdown_requested());
    let drained = post(addr, "/events", &round_events(1));
    assert_eq!(drained.status, 503);
    assert_eq!(drained.header("Retry-After"), Some("1"));

    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

/// The ingest alert rules fire over the daemon's recorded time series,
/// the series `serve --timeseries-out` saves for `paydemand alerts`.
#[test]
fn ingest_alerts_fire_over_the_recorded_series() {
    let dir = fresh_dir("alerts");
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.queue_capacity = 2; // saturates with one 2-event batch

    let recorder = Recorder::enabled();
    let ts = TimeSeries::with_capacity(16);
    recorder.attach_timeseries(&ts);
    let daemon = Daemon::start(config, &recorder).expect("daemon starts");
    let addr = daemon.local_addr();

    // Each round: fill the queue (100% saturation), then overflow it
    // (a shed), then tick. Three such rounds complete both the
    // 3-round saturation streak and the 2-round shedding streak.
    for round in 1..=4u32 {
        assert_eq!(post(addr, "/events", &round_events(round)).status, 202);
        assert_eq!(post(addr, "/events", &round_events(round + 10)).status, 429);
        assert_eq!(post(addr, "/tick", "").status, 200);
    }
    daemon.shutdown().unwrap();

    let events = evaluate_series(&AlertRule::defaults(), &ts.samples());
    let fired: Vec<String> = events.iter().map(|e| e.rule.clone()).collect();
    assert!(fired.contains(&"ingest_shedding".to_owned()), "firings: {fired:?}");
    assert!(fired.contains(&"ingest_queue_saturation".to_owned()), "firings: {fired:?}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fresh_start_refuses_occupied_state_dir() {
    let dir = fresh_dir("occupied");
    let (daemon, _recorder) = start(DaemonConfig::new(scenario(), dir.clone()));
    daemon.shutdown().unwrap();

    let err = Daemon::start(DaemonConfig::new(scenario(), dir.clone()), &Recorder::enabled())
        .expect_err("occupied dir refused");
    assert!(err.to_string().contains("--resume"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

/// The tentpole guarantee: a daemon killed without ceremony mid-run
/// and restarted with `--resume` produces exactly the run the
/// uninterrupted daemon produces — same prices, same total paid, same
/// checkpoint and lineage bytes.
#[test]
fn kill9_recovery_is_bit_identical() {
    for checkpoint_every in [1u32, 3] {
        // Reference: uninterrupted run, events every round, tick to
        // end. It compacts the WAL on the same rounds as the crash leg,
        // so their events get the same WAL offsets.
        let ref_dir = fresh_dir(&format!("ref-every{checkpoint_every}"));
        let mut config = DaemonConfig::new(scenario(), ref_dir.clone());
        config.checkpoint_every = checkpoint_every;
        let (reference, _r1) = start(config);
        let ref_addr = reference.local_addr();
        for round in 1..=8u32 {
            assert_eq!(post(ref_addr, "/events", &round_events(round)).status, 202);
            assert_eq!(post(ref_addr, "/tick", "").status, 200);
        }
        let ref_prices = get(ref_addr, "/prices").body;
        let ref_status = get(ref_addr, "/status").body;
        reference.shutdown().unwrap();
        let ref_ck = std::fs::read(ref_dir.join("checkpoint.ck")).unwrap();
        let ref_lineage = std::fs::read(ref_dir.join(LINEAGE_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(ref_dir);

        // Crash leg: same stream, but the daemon dies after round 3's
        // events were acknowledged and NOT yet ticked — the WAL alone
        // carries them — then again mid-run after round 5.
        let dir = fresh_dir(&format!("crash-every{checkpoint_every}"));
        let mut config = DaemonConfig::new(scenario(), dir.clone());
        config.checkpoint_every = checkpoint_every;
        let (daemon, _r) = start(config);
        let addr = daemon.local_addr();
        for round in 1..=2u32 {
            assert_eq!(post(addr, "/events", &round_events(round)).status, 202);
            assert_eq!(post(addr, "/tick", "").status, 200);
        }
        // Round 3's events are acked but never ticked before the kill.
        assert_eq!(post(addr, "/events", &round_events(3)).status, 202);
        daemon.crash();

        let mut config = DaemonConfig::new(scenario(), dir.clone());
        config.resume = true;
        config.checkpoint_every = checkpoint_every;
        let (daemon, _r) = start(config);
        let addr = daemon.local_addr();
        assert_eq!(post(addr, "/tick", "").status, 200); // applies round 3's events
        for round in 4..=5u32 {
            assert_eq!(post(addr, "/events", &round_events(round)).status, 202);
            assert_eq!(post(addr, "/tick", "").status, 200);
        }
        daemon.crash();

        let mut config = DaemonConfig::new(scenario(), dir.clone());
        config.resume = true;
        config.checkpoint_every = checkpoint_every;
        let (daemon, _r) = start(config);
        let addr = daemon.local_addr();
        for round in 6..=8u32 {
            assert_eq!(post(addr, "/events", &round_events(round)).status, 202);
            assert_eq!(post(addr, "/tick", "").status, 200);
        }
        assert!(daemon.is_finished());
        let prices = get(addr, "/prices").body;
        let status = get(addr, "/status").body;
        daemon.shutdown().unwrap();
        let ck = std::fs::read(dir.join("checkpoint.ck")).unwrap();

        assert_eq!(prices, ref_prices, "prices diverged (checkpoint_every={checkpoint_every})");
        assert_eq!(
            extract(&status, "total_paid"),
            extract(&ref_status, "total_paid"),
            "total paid diverged (checkpoint_every={checkpoint_every})"
        );
        assert_eq!(ck, ref_ck, "checkpoint bytes diverged (checkpoint_every={checkpoint_every})");
        // Every frame, WAL offsets included: an event acked after a
        // resume lands where it would have in the uninterrupted WAL.
        let lineage = std::fs::read(dir.join(LINEAGE_FILE)).unwrap();
        assert!(
            lineage == ref_lineage,
            "lineage.idx bytes diverged (checkpoint_every={checkpoint_every})"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A crash in the replay window (acked events, barrier written, no
/// checkpoint yet) followed by a *second* crash immediately after
/// resume still recovers — recovery itself is crash-safe because it
/// writes a fresh checkpoint before serving and leaves the WAL as it
/// found it, so the next recovery skips the barriers that checkpoint
/// covers and returns the same events to the queue.
#[test]
fn double_crash_recovers() {
    let dir = fresh_dir("double");
    let (daemon, _r) = start(DaemonConfig::new(scenario(), dir.clone()));
    let addr = daemon.local_addr();
    assert_eq!(post(addr, "/events", &round_events(1)).status, 202);
    assert_eq!(post(addr, "/tick", "").status, 200);
    assert_eq!(post(addr, "/events", &round_events(2)).status, 202);
    daemon.crash();

    for _ in 0..2 {
        let mut config = DaemonConfig::new(scenario(), dir.clone());
        config.resume = true;
        let (daemon, _r) = start(config);
        daemon.crash(); // die again right after recovery
    }

    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.resume = true;
    let (daemon, _r) = start(config);
    let addr = daemon.local_addr();
    // Round 2's events survived three deaths; apply and check.
    let tick = post(addr, "/tick", "");
    assert!(tick.body.contains("\"applied\": 2"), "{}", tick.body);
    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

/// Server deadlines while hostile clients run: short, as in
/// `http_fuzz`, so the stalling shapes resolve quickly.
const HOSTILE_DEADLINE: Duration = Duration::from_millis(500);
/// Every hostile connection must resolve (an answer or a close) inside
/// this budget: well above the deadlines, far below a hang.
const HOSTILE_BUDGET: Duration = Duration::from_secs(4);
const HONEST_CLIENTS: u32 = 3;
const HONEST_POSTS: u32 = 10;
/// The pause between one honest client's POSTs, which spreads them
/// over the whole hostile phase.
const HONEST_PAUSE: Duration = Duration::from_millis(80);
const HOSTILE_CLIENTS: usize = 3;

/// The hostile request shapes, each sent on a connection of its own.
#[derive(Debug, Clone, Copy)]
enum Hostile {
    /// A request head trickled out past the head deadline.
    SlowLoris,
    /// Part of a promised body, then the client hangs up.
    MidBodyDisconnect,
    /// Bytes that are not HTTP where a request line should be.
    Garbage,
    /// A `Content-Length` far past the body cap, and a flood after it.
    OversizedLength,
    /// Exact framing around a body of truncated JSON.
    TruncatedJson,
    /// A request with junk pipelined after it.
    PipelinedJunk,
}

const HOSTILE: [Hostile; 6] = [
    Hostile::SlowLoris,
    Hostile::MidBodyDisconnect,
    Hostile::Garbage,
    Hostile::OversizedLength,
    Hostile::TruncatedJson,
    Hostile::PipelinedJunk,
];

/// Sends one hostile connection and returns how long the daemon took
/// to resolve it.
fn send_hostile(addr: SocketAddr, shape: Hostile) -> Duration {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, HOSTILE_BUDGET).expect("daemon accepts");
    stream.set_read_timeout(Some(HOSTILE_BUDGET)).unwrap();
    stream.set_write_timeout(Some(HOSTILE_BUDGET)).unwrap();
    // Write errors are expected: the daemon may hang up first.
    match shape {
        Hostile::SlowLoris => {
            for chunk in [&b"POST "[..], b"/even", b"ts HT"] {
                if stream.write_all(chunk).is_err() {
                    break;
                }
                std::thread::sleep(HOSTILE_DEADLINE / 2);
            }
        }
        Hostile::MidBodyDisconnect => {
            let _ =
                stream.write_all(b"POST /events HTTP/1.1\r\nContent-Length: 1000\r\n\r\n{\"events");
            let _ = stream.shutdown(Shutdown::Write);
        }
        Hostile::Garbage => {
            let junk: Vec<u8> =
                (0..512u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect();
            let _ = stream.write_all(&junk);
            let _ = stream.write_all(b"\r\n\r\n");
        }
        Hostile::OversizedLength => {
            let _ = stream.write_all(b"POST /events HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
            let _ = stream.write_all(&[b'x'; 4096]);
        }
        Hostile::TruncatedJson => {
            let body = b"{\"events\": [{\"type\": ";
            let head = format!("POST /events HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(body);
        }
        Hostile::PipelinedJunk => {
            let _ = stream.write_all(
                b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n\
                  GET /junk HTTP/1.1\r\n\r\ntrailing nonsense",
            );
        }
    }
    let _ = stream.read_to_end(&mut Vec::new());
    started.elapsed()
}

/// Hostile clients sending every malformed shape race honest clients
/// posting valid batches. No honest POST may be refused, no hostile
/// connection may hang or kill a worker, the daemon must count exactly
/// the acked events, and a kill-9 must lose none of them.
#[test]
fn hostile_clients_never_cost_honest_ones_an_event() {
    let dir = fresh_dir("hostile");
    let mut config = DaemonConfig::new(scenario(), dir.clone());
    config.limits = HttpLimits {
        head_deadline: HOSTILE_DEADLINE,
        body_deadline: HOSTILE_DEADLINE,
        write_timeout: HOSTILE_DEADLINE,
        ..HttpLimits::default()
    };
    // Room for exactly the honest events (two per `round_events`
    // batch): nothing may be shed, and a hostile request that queued an
    // event would push one out.
    let honest_events = 2 * HONEST_CLIENTS * HONEST_POSTS;
    config.queue_capacity = honest_events as usize;
    let (daemon, recorder) = start(config.clone());
    let addr = daemon.local_addr();

    let go = Arc::new(Barrier::new(HONEST_CLIENTS as usize + HOSTILE_CLIENTS));
    let honest: Vec<_> = (0..HONEST_CLIENTS)
        .map(|client| {
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                go.wait();
                let mut acked = 0u64;
                for post_no in 1..=HONEST_POSTS {
                    let round = client * HONEST_POSTS + post_no;
                    let response = post(addr, "/events", &round_events(round));
                    assert_eq!(response.status, 202, "honest POST refused: {}", response.body);
                    acked += extract(&response.body, "accepted").parse::<u64>().unwrap();
                    std::thread::sleep(HONEST_PAUSE);
                }
                acked
            })
        })
        .collect();
    // Each hostile client sends every shape, from a different start, so
    // the slow-loris connections do not all hold workers at once.
    let hostile: Vec<_> = (0..HOSTILE_CLIENTS)
        .map(|client| {
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                go.wait();
                (0..HOSTILE.len())
                    .map(|i| {
                        let shape = HOSTILE[(i + 2 * client) % HOSTILE.len()];
                        (shape, send_hostile(addr, shape))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let acked: u64 = honest.into_iter().map(|h| h.join().expect("honest client")).sum();
    for (shape, took) in hostile.into_iter().flat_map(|h| h.join().expect("hostile client")) {
        assert!(took < HOSTILE_BUDGET, "a {shape:?} connection took {took:?} to resolve");
    }

    assert_eq!(acked, u64::from(honest_events));
    assert_eq!(
        recorder.counter("worker_restarts_total").get(),
        0,
        "a hostile client killed a worker"
    );
    assert_eq!(recorder.counter("ingest_events_total").get(), acked);
    let health = get(addr, "/healthz");
    assert!(health.body.contains("\"status\": \"serving\""), "healthz: {}", health.body);
    daemon.crash();

    config.resume = true;
    let (daemon, _r) = start(config);
    let health = get(daemon.local_addr(), "/healthz");
    assert_eq!(extract(&health.body, "queue_depth"), acked.to_string(), "{}", health.body);
    let outcome = daemon.tick().expect("tick after resume");
    assert_eq!(outcome.applied as u64, acked);
    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

/// Pulls `"name": <token>` out of a flat JSON body for comparisons.
fn extract(body: &str, name: &str) -> String {
    let needle = format!("\"{name}\": ");
    let at =
        body.find(&needle).unwrap_or_else(|| panic!("{name} missing in {body}")) + needle.len();
    body[at..].split([',', '}']).next().unwrap().to_owned()
}
