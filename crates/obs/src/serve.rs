//! An embedded, zero-dependency metrics endpoint.
//!
//! [`MetricsServer::start`] binds a std [`TcpListener`] and serves four
//! read-only GET routes from one background thread, so a long run or
//! sweep can be watched while it executes:
//!
//! | Route | Body |
//! |---|---|
//! | `/metrics` | the recorder's live snapshot in Prometheus text exposition |
//! | `/healthz` | a small JSON liveness document |
//! | `/rounds.json` | the live per-round time series ([`TimeSeries::to_json`](crate::TimeSeries::to_json)) |
//! | `/alerts.json` | alert rules and firings ([`Alerts::to_json`](crate::Alerts::to_json)) |
//!
//! The server holds only a cloned [`Recorder`]; the time series and
//! alert evaluator attached to that recorder are reachable through it,
//! so the serving thread shares exactly the state the engine updates.
//! One request is handled at a time (scrapes are rare and cheap),
//! read and answered through [`crate::http`] — the daemon's hardened
//! parser, with its default [`HttpLimits`] — and every response closes
//! its connection. [`MetricsServer::stop`] shuts the thread down
//! deterministically; dropping the handle without calling it leaves
//! the thread serving until the process exits, which is the desired
//! behaviour for a long-lived `--serve-metrics` run.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::http::{self, HttpLimits};
use crate::recorder::Recorder;

const TEXT: &str = "text/plain; charset=utf-8";

/// A handle to the background serving thread.
#[derive(Debug)]
pub struct MetricsServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free one)
    /// and starts serving `recorder`'s state.
    ///
    /// # Errors
    ///
    /// The bind error, e.g. when the port is taken.
    pub fn start(addr: &str, recorder: Recorder) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("paydemand-metrics".to_owned())
            .spawn(move || serve_loop(&listener, &recorder, &flag))?;
        Ok(MetricsServer { local_addr, shutdown, handle: Some(handle) })
    }

    /// The actually-bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the serving thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept() call; an error just means the thread
        // already noticed the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_loop(listener: &TcpListener, recorder: &Recorder, shutdown: &AtomicBool) {
    let limits = HttpLimits::default();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // A stalled client must not wedge the (single) serving thread:
        // the reader holds the head to a total deadline, the writer to
        // a socket timeout.
        let _ = stream.set_write_timeout(Some(limits.write_timeout));
        handle_connection(stream, recorder, &limits);
    }
}

fn handle_connection(mut stream: TcpStream, recorder: &Recorder, limits: &HttpLimits) {
    let request = match http::read_request(&mut stream, limits) {
        Ok(request) => request,
        Err(error) => {
            // No status means the peer is gone (or never spoke).
            if let Some((status, message)) = error.status() {
                http::respond(&mut stream, status, TEXT, &format!("{message}\n"));
            }
            return;
        }
    };
    if request.method != "GET" {
        http::respond(&mut stream, 405, TEXT, "only GET is supported\n");
        return;
    }
    let path = request.path.split_once('?').map_or(request.path.as_str(), |(path, _)| path);
    match path {
        "/metrics" => {
            let body = recorder.snapshot().to_prometheus();
            http::respond(&mut stream, 200, "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        "/healthz" => {
            let body = format!(
                "{{\"status\": \"ok\", \"metrics_enabled\": {}, \"rounds_observed\": {}, \
                 \"alerts_fired\": {}}}\n",
                recorder.is_enabled(),
                recorder.timeseries().len(),
                recorder.alerts().fired_total(),
            );
            http::respond(&mut stream, 200, "application/json; charset=utf-8", &body);
        }
        "/rounds.json" => {
            let body = recorder.timeseries().to_json();
            http::respond(&mut stream, 200, "application/json; charset=utf-8", &body);
        }
        "/alerts.json" => {
            let body = recorder.alerts().to_json();
            http::respond(&mut stream, 200, "application/json; charset=utf-8", &body);
        }
        _ => http::respond(&mut stream, 404, TEXT, "not found\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alerts, TimeSeries};
    use std::io::{Read as _, Write as _};
    use std::time::{Duration, Instant};

    /// A blocking single-request HTTP client good enough for loopback.
    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or_default()
            .to_owned();
        (status, content_type, body.to_owned())
    }

    fn fixture_recorder() -> Recorder {
        let recorder = Recorder::enabled();
        recorder.counter("engine_rounds_total").add(3);
        let ts = TimeSeries::with_capacity(8);
        ts.record(1, recorder.snapshot());
        recorder.attach_timeseries(&ts);
        recorder.attach_alerts(&Alerts::with_defaults());
        recorder
    }

    #[test]
    fn serves_all_routes_with_valid_payloads() {
        let server = MetricsServer::start("127.0.0.1:0", fixture_recorder()).unwrap();
        let addr = server.local_addr();

        let (status, content_type, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(content_type.starts_with("text/plain"), "{content_type}");
        assert!(body.contains("engine_rounds_total 3"), "{body}");

        let (status, content_type, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(content_type.starts_with("application/json"));
        let health = crate::json::parse_json(&body).unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("rounds_observed").unwrap().as_u64(), Some(1));
        assert_eq!(health.get("alerts_fired").unwrap().as_u64(), Some(0));

        let (status, _, body) = get(addr, "/rounds.json");
        assert_eq!(status, 200);
        let rounds = crate::json::parse_json(&body).unwrap();
        let samples = rounds.get("rounds").unwrap().as_array().unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].get("round").unwrap().as_u64(), Some(1));

        let (status, _, body) = get(addr, "/alerts.json");
        assert_eq!(status, 200);
        let alerts = crate::json::parse_json(&body).unwrap();
        assert_eq!(alerts.get("rules").unwrap().as_array().unwrap().len(), 9);

        for route in ["/nope", "/profile"] {
            assert_eq!(get(addr, route).0, 404, "{route}");
        }

        server.stop();
    }

    #[test]
    fn live_updates_are_visible_between_scrapes() {
        let recorder = Recorder::enabled();
        let ts = TimeSeries::with_capacity(8);
        recorder.attach_timeseries(&ts);
        let server = MetricsServer::start("127.0.0.1:0", recorder.clone()).unwrap();
        let addr = server.local_addr();
        let (_, _, before) = get(addr, "/healthz");
        assert!(before.contains("\"rounds_observed\": 0"), "{before}");
        recorder.counter("engine_rounds_total").inc();
        ts.record(1, recorder.snapshot());
        let (_, _, after) = get(addr, "/healthz");
        assert!(after.contains("\"rounds_observed\": 1"), "{after}");
        let (_, _, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("engine_rounds_total 1"), "{metrics}");
        server.stop();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = MetricsServer::start("127.0.0.1:0", Recorder::enabled()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.stop();
    }

    #[test]
    fn silent_client_cannot_wedge_the_serve_loop() {
        let server = MetricsServer::start("127.0.0.1:0", fixture_recorder()).unwrap();
        let addr = server.local_addr();
        // Connects, says nothing, holds the socket open well past the
        // head deadline. The serving thread must cut it off and keep
        // serving other clients.
        let silent = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(
            started.elapsed() < HttpLimits::default().head_deadline + Duration::from_secs(3),
            "silent client wedged the loop for {:?}",
            started.elapsed()
        );
        drop(silent);
        server.stop();
    }

    #[test]
    fn slow_trickle_is_bounded_by_the_total_deadline() {
        let head_deadline = HttpLimits::default().head_deadline;
        let server = MetricsServer::start("127.0.0.1:0", fixture_recorder()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let started = Instant::now();
        // Each write is far inside a naive per-read window; the sum
        // crosses the total deadline, which must win.
        loop {
            if stream.write_all(b"G").is_err() || started.elapsed() > 2 * head_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(
            started.elapsed() < 2 * head_deadline + Duration::from_secs(2),
            "trickling client held the connection {:?}",
            started.elapsed()
        );
        // Whatever the trickler got (408 or a hang-up), the loop lives.
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn oversized_heads_are_rejected_not_served_truncated() {
        let limits = HttpLimits::default();
        let server = MetricsServer::start("127.0.0.1:0", fixture_recorder()).unwrap();
        let addr = server.local_addr();

        // Header flood past the head cap: 431, and crucially not a 200
        // for the (valid-looking) truncated prefix.
        let mut flood = b"GET /metrics HTTP/1.1\r\n".to_vec();
        while flood.len() <= limits.max_head_bytes {
            flood.extend_from_slice(b"X-Flood: ffffffffffffffffffffffffffffffff\r\n");
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&flood).unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");

        // Request line alone past its cap: 414.
        let mut stream = TcpStream::connect(addr).unwrap();
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(limits.max_request_line_bytes));
        let _ = stream.write_all(long.as_bytes());
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 414"), "{response}");

        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn stop_joins_the_thread_and_frees_the_port() {
        let server = MetricsServer::start("127.0.0.1:0", Recorder::enabled()).unwrap();
        let addr = server.local_addr();
        server.stop();
        // After stop, a rebind of the same port must succeed.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after stop: {rebind:?}");
    }
}
