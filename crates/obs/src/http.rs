//! A hardened, zero-dependency blocking HTTP/1.1 layer.
//!
//! Both servers in the workspace read and answer requests through this
//! one module: the `paydemand serve` daemon (which re-exports it as
//! `paydemand_serve::http`) and the embedded metrics endpoint
//! ([`crate::MetricsServer`]). Both face real sockets, so the parser
//! assumes the peer is hostile until proven otherwise:
//!
//! * every read honours a *total* head deadline, not just a per-read
//!   socket timeout — a slow-loris client dripping one byte per second
//!   is cut off when the deadline lapses, no matter how alive the
//!   socket looks;
//! * the request line, the head and the body each have independent
//!   size caps, exceeded caps map to typed 4xx statuses
//!   (414 / 431 / 413) rather than truncated parses;
//! * malformed framing (bad request line, whitespace in a header name,
//!   a `Content-Length` that is not plain digits) is a 400, never a
//!   panic;
//! * a body is framed one way only: two `Content-Length`s that
//!   disagree are a 400 (RFC 9112 §6.3) and any `Transfer-Encoding`,
//!   which this layer does not implement, a 501 (§6.1), so no
//!   intermediary can read a request's end differently from us;
//! * a peer that closes early is a clean [`ParseError::ClientClosed`]
//!   — the connection is dropped without a response, and without
//!   counting as a server failure.
//!
//! The module also carries [`request`], the minimal blocking client
//! the tests and the end-to-end benchmark drive the daemon with.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Size and time limits enforced while reading one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpLimits {
    /// Longest accepted request head (request line + headers).
    pub max_head_bytes: usize,
    /// Longest accepted request line (method + path + version).
    pub max_request_line_bytes: usize,
    /// Longest accepted body.
    pub max_body_bytes: usize,
    /// Wall-clock budget for receiving the complete head.
    pub head_deadline: Duration,
    /// Wall-clock budget for receiving the body once the head is in.
    pub body_deadline: Duration,
    /// Socket-level write timeout for the response.
    pub write_timeout: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_request_line_bytes: 2 * 1024,
            max_body_bytes: 256 * 1024,
            head_deadline: Duration::from_secs(2),
            body_deadline: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, upper-cased as received.
    pub method: String,
    /// The request target (path only; no normalisation).
    pub path: String,
    /// The body, exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each variant maps to one wire
/// behaviour via [`ParseError::status`].
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed (or reset) before a complete request arrived.
    /// No response is owed; drop the connection.
    ClientClosed,
    /// The head or body did not arrive within its deadline.
    Timeout,
    /// The request line exceeded [`HttpLimits::max_request_line_bytes`].
    RequestLineTooLong,
    /// The head exceeded [`HttpLimits::max_head_bytes`].
    HeadTooLarge,
    /// The declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// Unparsable framing (request line, header syntax, content length,
    /// conflicting content lengths).
    Malformed(&'static str),
    /// The request names a transfer coding; none is implemented.
    TransferCoding,
    /// A socket error other than timeout/close.
    Io(std::io::Error),
}

impl ParseError {
    /// The response status this error earns, or `None` when the
    /// connection should simply be dropped (peer gone / socket error).
    #[must_use]
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            ParseError::ClientClosed | ParseError::Io(_) => None,
            ParseError::Timeout => Some((408, "request timed out")),
            ParseError::RequestLineTooLong => Some((414, "request line too long")),
            ParseError::HeadTooLarge => Some((431, "request head too large")),
            ParseError::BodyTooLarge => Some((413, "request body too large")),
            ParseError::Malformed(what) => Some((400, what)),
            ParseError::TransferCoding => Some((501, "transfer codings are not implemented")),
        }
    }
}

/// Reads one complete request from `stream` under `limits`.
///
/// # Errors
///
/// [`ParseError`] describing the violated limit or framing rule; see
/// [`ParseError::status`] for the wire mapping.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, ParseError> {
    let start = Instant::now();
    let head = read_head(stream, limits, start)?;
    let head_text = std::str::from_utf8(&head.bytes[..head.len])
        .map_err(|_| ParseError::Malformed("request head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line_bytes {
        return Err(ParseError::RequestLineTooLong);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(ParseError::Malformed("empty request line"))?;
    let path = parts.next().ok_or(ParseError::Malformed("request line has no target"))?;
    let version = parts.next().ok_or(ParseError::Malformed("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) || method.is_empty() {
        return Err(ParseError::Malformed("invalid method"));
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed("header line without a colon"));
        };
        // A field name is a token: whitespace before the colon is a 400
        // (RFC 9112 §5.1), and so is a folded line's leading space (§5.2).
        if name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(ParseError::Malformed("whitespace in a header name"));
        }
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT` (RFC 9110 §8.6): `usize::from_str` alone takes a `+`.
            let digits = value.trim();
            if !digits.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::Malformed("unparsable content length"));
            }
            let length = digits
                .parse::<usize>()
                .map_err(|_| ParseError::Malformed("unparsable content length"))?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(ParseError::Malformed("conflicting content lengths"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::TransferCoding);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge);
    }

    // Bytes past the head separator already read belong to the body.
    let mut body = head.bytes[head.len..].to_vec();
    if body.len() > content_length {
        // Pipelined garbage after the declared body: take what was
        // declared, ignore the rest (the connection closes after one
        // response anyway).
        body.truncate(content_length);
    }
    read_exact_deadline(stream, &mut body, content_length, limits)?;
    Ok(Request { method: method.to_owned(), path: path.to_owned(), body })
}

/// The raw head buffer plus where the `\r\n\r\n` separator ended.
struct Head {
    bytes: Vec<u8>,
    /// Byte offset one past the head separator (start of body bytes).
    len: usize,
}

fn read_head(
    stream: &mut TcpStream,
    limits: &HttpLimits,
    start: Instant,
) -> Result<Head, ParseError> {
    let mut bytes: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        // The socket timeout is re-armed with the *remaining* deadline
        // each iteration, so the total wait is bounded regardless of
        // how slowly the peer dribbles bytes.
        let remaining = limits.head_deadline.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(if bytes.is_empty() {
                ParseError::ClientClosed
            } else {
                ParseError::Timeout
            });
        }
        stream.set_read_timeout(Some(remaining)).map_err(ParseError::Io)?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if bytes.is_empty() {
                    ParseError::ClientClosed
                } else {
                    ParseError::Timeout
                })
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(if bytes.is_empty() {
                    ParseError::ClientClosed
                } else {
                    ParseError::Timeout
                })
            }
            Err(e)
                if e.kind() == ErrorKind::ConnectionReset
                    || e.kind() == ErrorKind::ConnectionAborted
                    || e.kind() == ErrorKind::BrokenPipe =>
            {
                return Err(ParseError::ClientClosed)
            }
            Err(e) => return Err(ParseError::Io(e)),
        };
        bytes.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_head_end(&bytes) {
            return Ok(Head { bytes, len: pos });
        }
        // No separator yet: a head this large is rejected before more
        // is buffered. An overlong first line fails even earlier.
        if bytes.len() > limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge);
        }
        if !bytes.contains(&b'\n') && bytes.len() > limits.max_request_line_bytes {
            return Err(ParseError::RequestLineTooLong);
        }
    }
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Grows `body` to exactly `want` bytes, bounded by the body deadline.
fn read_exact_deadline(
    stream: &mut TcpStream,
    body: &mut Vec<u8>,
    want: usize,
    limits: &HttpLimits,
) -> Result<(), ParseError> {
    let start = Instant::now();
    let mut chunk = [0u8; 4096];
    while body.len() < want {
        let remaining = limits.body_deadline.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(ParseError::Timeout);
        }
        stream.set_read_timeout(Some(remaining)).map_err(ParseError::Io)?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(ParseError::ClientClosed),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(ParseError::Timeout)
            }
            Err(e)
                if e.kind() == ErrorKind::ConnectionReset
                    || e.kind() == ErrorKind::ConnectionAborted
                    || e.kind() == ErrorKind::BrokenPipe =>
            {
                return Err(ParseError::ClientClosed)
            }
            Err(e) => return Err(ParseError::Io(e)),
        };
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(want);
    Ok(())
}

/// Writes a complete response and flushes. Write errors are swallowed:
/// if the peer is gone there is nobody left to tell.
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    respond_with(stream, status, content_type, body, &[]);
}

/// [`respond`] with extra headers (e.g. `Retry-After`).
pub fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) {
    let reason = reason_phrase(status);
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// A JSON error document: `{"error": "<message>"}` with escaping.
#[must_use]
pub fn error_body(message: &str) -> String {
    let mut escaped = String::with_capacity(message.len() + 16);
    for c in message.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(escaped, "\\u{:04x}", c as u32);
            }
            c => escaped.push(c),
        }
    }
    format!("{{\"error\": \"{escaped}\"}}\n")
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// A parsed response from the blocking test/load client.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Raw header lines (after the status line, before the body).
    pub headers: Vec<String>,
    /// The body as text.
    pub body: String,
}

impl Response {
    /// The value of `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// A minimal blocking HTTP client for loopback use: sends one request,
/// reads until close, parses the status line and headers.
///
/// # Errors
///
/// Propagates socket errors (connect, write, read) and malformed
/// responses as `InvalidData`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    let mut stream = stream;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: paydemand\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "response without head"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidData, "response without status")
        })?;
    Ok(Response { status, headers: lines.map(str::to_owned).collect(), body: body.to_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_body_escapes_controls_and_quotes() {
        let body = error_body("bad \"json\"\nline\t\u{1}");
        assert!(body.contains("\\\"json\\\""));
        assert!(body.contains("\\n"));
        assert!(body.contains("\\t"));
        assert!(body.contains("\\u0001"));
    }

    #[test]
    fn head_end_is_found_across_chunk_joins() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nBODY"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn parse_error_statuses_are_typed() {
        assert_eq!(ParseError::Timeout.status(), Some((408, "request timed out")));
        assert_eq!(ParseError::BodyTooLarge.status().map(|s| s.0), Some(413));
        assert_eq!(ParseError::HeadTooLarge.status().map(|s| s.0), Some(431));
        assert_eq!(ParseError::RequestLineTooLong.status().map(|s| s.0), Some(414));
        assert_eq!(ParseError::TransferCoding.status().map(|s| s.0), Some(501));
        assert!(ParseError::ClientClosed.status().is_none());
    }
}
