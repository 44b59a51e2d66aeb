//! Seeded HTTP fuzz/property battery against a live daemon.
//!
//! Every case throws hostile bytes at a shared daemon — truncations,
//! oversized bodies, invalid UTF-8, random garbage, pipelined junk,
//! lying Content-Lengths, mutated and deeply nested batches — and
//! asserts the two properties the hardening layer exists for:
//!
//! 1. **never panic**: `worker_restarts_total` stays 0 for the whole
//!    battery, and `/healthz` answers 200 after every case;
//! 2. **never hang past the deadline**: each connection resolves
//!    (response or close) within a small multiple of the server's
//!    configured head/body deadlines.
//!
//! The vendored proptest samples cases from a fixed per-test seed, so
//! any failure reproduces exactly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use paydemand_obs::json::MAX_DEPTH;
use paydemand_obs::Recorder;
use paydemand_serve::{http, Daemon, DaemonConfig, HttpLimits};
use paydemand_sim::{MechanismKind, Scenario, SelectorKind};

/// Server-side deadlines for the fuzz daemon: short, so stall-style
/// cases resolve quickly and the battery stays fast.
const HEAD_DEADLINE: Duration = Duration::from_millis(500);
/// The time budget each case must resolve within: comfortably above
/// the server's deadline, far below "hung".
const CASE_BUDGET: Duration = Duration::from_secs(4);

struct Fixture {
    addr: SocketAddr,
    restarts: paydemand_obs::Counter,
    // Held, never joined: the daemon serves for the whole process.
    _daemon: Daemon,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("paydemand-serve-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = Scenario::paper_default()
            .with_users(30)
            .with_tasks(10)
            .with_max_rounds(1000)
            .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
            .with_mechanism(MechanismKind::OnDemand)
            .with_seed(0xF0220);
        let mut config = DaemonConfig::new(scenario, dir);
        config.limits = HttpLimits {
            head_deadline: HEAD_DEADLINE,
            body_deadline: HEAD_DEADLINE,
            write_timeout: HEAD_DEADLINE,
            ..HttpLimits::default()
        };
        config.workers = 4;
        let recorder = Recorder::enabled();
        let daemon = Daemon::start(config, &recorder).expect("fuzz daemon starts");
        Fixture {
            addr: daemon.local_addr(),
            restarts: recorder.counter("worker_restarts_total"),
            _daemon: daemon,
        }
    })
}

/// Fires `payload` at the daemon as raw bytes, enforces the two
/// battery properties for this case and returns the response bytes
/// (empty when the server closed without one).
fn fire(payload: &[u8]) -> Vec<u8> {
    let fx = fixture();
    let started = Instant::now();
    let mut sink = Vec::new();
    if let Ok(mut stream) = TcpStream::connect_timeout(&fx.addr, CASE_BUDGET) {
        let _ = stream.set_read_timeout(Some(CASE_BUDGET));
        let _ = stream.set_write_timeout(Some(CASE_BUDGET));
        let _ = stream.write_all(payload);
        let _ = stream.read_to_end(&mut sink);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < CASE_BUDGET,
        "connection outlived the case budget: {elapsed:?} for {} payload bytes",
        payload.len()
    );
    // The daemon must still be alive and panic-free.
    let health = http::request(fx.addr, "GET", "/healthz", b"", CASE_BUDGET)
        .expect("daemon still answers /healthz");
    assert_eq!(health.status, 200, "healthz degraded: {}", health.body);
    assert_eq!(fx.restarts.get(), 0, "a fuzz case panicked a worker");
    sink
}

/// A well-formed events batch of `event_count` moves.
fn valid_body(event_count: usize) -> String {
    let mut body = String::from("{\"events\": [");
    for i in 0..event_count {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!(
            "{{\"type\": \"move\", \"user\": {}, \"x\": 10.5, \"y\": 20.5}}",
            i % 30
        ));
    }
    body.push_str("]}");
    body
}

/// A `POST /events` request framed exactly around `body`.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut request =
        format!("POST /events HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    request.extend_from_slice(body);
    request
}

/// A well-formed events request, the honest baseline the mutations
/// start from.
fn valid_request(event_count: usize) -> Vec<u8> {
    framed(valid_body(event_count).as_bytes())
}

/// The status code of a response, `None` when the server closed
/// without one.
fn status_of(response: &[u8]) -> Option<u16> {
    String::from_utf8_lossy(response).split(' ').nth(1)?.parse().ok()
}

// One proptest! block per property, plain comments inside: the
// vendored macro's matcher takes `#[test] fn` items only, and doc
// comments (or too many tests per block) overflow its recursion.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Truncated requests: every prefix of a valid request either gets
    // a response or a clean close — never a wedge.
    #[test]
    fn truncated_requests_resolve(events in 1usize..6, frac in 0.0..1.0f64) {
        let full = valid_request(events);
        let cut = ((full.len() as f64) * frac) as usize;
        fire(&full[..cut.min(full.len())]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random garbage where HTTP should be.
    #[test]
    fn garbage_bytes_resolve(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        fire(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Invalid UTF-8 spliced into an otherwise plausible head.
    #[test]
    fn invalid_utf8_head_is_rejected(junk in proptest::collection::vec(128u8..=255, 1..64)) {
        let mut payload = b"POST /events HTTP/1.1\r\nX-Fuzz: ".to_vec();
        payload.extend_from_slice(&junk);
        payload.extend_from_slice(b"\r\nContent-Length: 0\r\n\r\n");
        fire(&payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Declared body sizes way past the cap must be refused without
    // reading the flood.
    #[test]
    fn oversized_bodies_are_refused(mib in 1u64..64) {
        let payload = format!(
            "POST /events HTTP/1.1\r\nContent-Length: {}\r\n\r\nxxxx",
            mib * 1024 * 1024
        );
        fire(payload.as_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Lying Content-Length: header promises more bytes than sent.
    #[test]
    fn short_bodies_time_out_cleanly(promised in 1usize..4096, sent_frac in 0.0..1.0f64) {
        let sent = ((promised as f64) * sent_frac) as usize;
        let mut payload =
            format!("POST /events HTTP/1.1\r\nContent-Length: {promised}\r\n\r\n").into_bytes();
        payload.extend(std::iter::repeat_n(b'z', sent.min(promised.saturating_sub(1))));
        fire(&payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Pipelined junk after a valid request: the first request is
    // served, the excess is discarded with the connection.
    #[test]
    fn pipelined_garbage_resolves(tail in proptest::collection::vec(0u8..=255, 0..512)) {
        let mut payload = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec();
        payload.extend_from_slice(&tail);
        fire(&payload);
    }
}

/// Non-property edge cases worth pinning exactly.
#[test]
fn exact_edge_cases_resolve() {
    // Empty connection (connect, say nothing, close happens via drop
    // after the server times the head read out).
    fire(b"");
    // Bare CRLFs.
    fire(b"\r\n\r\n");
    // Past a cap is a typed refusal, never a response to the truncated
    // prefix: a request line past its cap is a 414, a header flood past
    // the head cap a 431.
    let limits = HttpLimits::default();
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(limits.max_request_line_bytes));
    assert_eq!(status_of(&fire(long_line.as_bytes())), Some(414));
    let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while flood.len() < limits.max_head_bytes + 1024 {
        flood.extend_from_slice(b"X-Flood: yes\r\n");
    }
    assert_eq!(status_of(&fire(&flood)), Some(431));
    // Null bytes in the request line.
    fire(b"GET /\x00\x00 HTTP/1.1\r\n\r\n");
    // Negative and non-numeric Content-Length.
    fire(b"POST /events HTTP/1.1\r\nContent-Length: -5\r\n\r\n");
    fire(b"POST /events HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    // A body framed two ways, which a proxy and the server could split
    // differently: conflicting lengths are a 400 (RFC 9112 §6.3), a
    // transfer coding a 501 (§6.1). Identical duplicates are served.
    let body = valid_body(1);
    let status = |headers: String| {
        status_of(&fire(format!("POST /events HTTP/1.1\r\n{headers}\r\n{body}").as_bytes()))
    };
    let n = body.len();
    let conflicting = status(format!("Content-Length: 0\r\nContent-Length: {n}\r\n"));
    assert_eq!(conflicting, Some(400));
    let coded = status(format!("Transfer-Encoding: chunked\r\nContent-Length: {n}\r\n"));
    assert_eq!(coded, Some(501));
    let duplicate = status(format!("Content-Length: {n}\r\nContent-Length: {n}\r\n"));
    assert_eq!(duplicate, Some(202));
    // Whitespace before a field name's colon is a 400 (RFC 9112 §5.1),
    // and so is a sign on a length whose grammar is `1*DIGIT`.
    let spaced = status(format!("Content-Length : {n}\r\n"));
    assert_eq!(spaced, Some(400));
    let signed = status(format!("Content-Length: +{n}\r\n"));
    assert_eq!(signed, Some(400));
}

/// A seeded mutation pass over one valid batch, each mutant framed
/// exactly so that the daemon judges the body alone: the body cut at
/// every byte, single bytes replaced, and the batch wrapped in arrays
/// and objects up to far past the JSON reader's depth bound. Every
/// mutant is answered, with a 2xx or a 4xx.
#[test]
fn mutated_batches_are_answered_2xx_or_4xx() {
    let body = valid_body(3).into_bytes();
    let mut mutants: Vec<Vec<u8>> = (0..body.len()).map(|cut| body[..cut].to_vec()).collect();
    // SplitMix64 from a fixed seed: the same flips on every run.
    let mut state = 0x5EED_0F11_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..256 {
        let word = next();
        let mut flipped = body.clone();
        let at = (word % body.len() as u64) as usize;
        flipped[at] = word.to_le_bytes()[7];
        mutants.push(flipped);
    }
    for depth in [1, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 1_000, 30_000] {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            mutants.push(
                [open.repeat(depth).as_bytes(), &body, close.repeat(depth).as_bytes()].concat(),
            );
        }
    }
    for mutant in &mutants {
        assert!(mutant.len() <= HttpLimits::default().max_body_bytes);
        let status = status_of(&fire(&framed(mutant)));
        assert!(
            matches!(status, Some(200..=299 | 400..=499)),
            "{status:?} for {:?}",
            String::from_utf8_lossy(&mutant[..mutant.len().min(200)])
        );
    }
}

/// The slow-loris case proper: bytes trickled slower than the head
/// deadline must be cut off by the *total* deadline, not granted a
/// fresh per-read allowance each time.
#[test]
fn slow_loris_is_cut_off_by_total_deadline() {
    let fx = fixture();
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&fx.addr, CASE_BUDGET).unwrap();
    stream.set_read_timeout(Some(CASE_BUDGET)).unwrap();
    stream.set_write_timeout(Some(CASE_BUDGET)).unwrap();
    // Each write is well inside the per-read window; the sum is far
    // past the total head deadline.
    for _ in 0..20 {
        if stream.write_all(b"G").is_err() {
            break; // server already hung up — exactly what we want
        }
        std::thread::sleep(HEAD_DEADLINE / 4);
        if started.elapsed() > 3 * HEAD_DEADLINE {
            break;
        }
    }
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    let elapsed = started.elapsed();
    assert!(
        elapsed < CASE_BUDGET,
        "slow-loris held the connection {elapsed:?}; total deadline not enforced"
    );
    let health = http::request(fx.addr, "GET", "/healthz", b"", CASE_BUDGET).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(fx.restarts.get(), 0);
}
