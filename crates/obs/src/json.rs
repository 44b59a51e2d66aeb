//! A minimal JSON reader for the crate's own emitted documents.
//!
//! The workspace builds offline, so there is no `serde_json`. The
//! exporters in this crate hand-roll their JSON output; this module is
//! the matching reader, used by `paydemand alerts` (reloading a saved
//! time series) and by schema tests that validate emitted documents
//! (trace events, the daemon's HTTP endpoints). It is a strict
//! recursive-descent parser over the full JSON grammar minus the
//! corners the crate never emits: no `\uXXXX` surrogate pairs beyond
//! the BMP, no tolerance for trailing garbage and no nesting deeper
//! than [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are sorted (duplicates keep the last value).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object's field `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number rounded to `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(63) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The object's map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest. The parser recurses once a
/// level, and so does dropping the tree it builds; the daemon parses
/// every `POST /events` body on a worker thread, so an unbounded
/// document of `[`s would overflow that thread's stack and abort the
/// process. No document the workspace writes nests past a handful.
pub const MAX_DEPTH: usize = 128;

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing content is an error).
///
/// # Errors
///
/// A [`JsonError`] naming the byte offset and the expectation that
/// failed.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> JsonError {
        JsonError { offset: self.pos, message: format!("expected {expected}") }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(text))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("at most {MAX_DEPTH} levels of nesting")));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{', "{")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', ":")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err(", or }")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[', "[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err(", or ]")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "\"")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing \"")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("escape character"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|b| std::str::from_utf8(b).ok())
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("4 hex digits"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or_else(|| self.err("a BMP scalar"))?);
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                }
                Some(byte) if byte < 0x20 => return Err(self.err("no raw control characters")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte sequence is already valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("valid UTF-8"))?;
                    out.push_str(text);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(JsonValue::Number).map_err(|_| JsonError {
            offset: start,
            message: format!("expected a number, got `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(parse_json("\"a\\nb\"").unwrap(), JsonValue::String("a\nb".into()));
        let doc = parse_json("{\"xs\": [1, 2, {\"y\": \"z\"}], \"n\": null}").unwrap();
        assert_eq!(doc.get("xs").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("xs").unwrap().as_array().unwrap()[2].get("y").unwrap().as_str(),
            Some("z")
        );
        assert_eq!(doc.get("n"), Some(&JsonValue::Null));
    }

    #[test]
    fn round_trips_crate_emitted_reports() {
        let recorder = crate::Recorder::enabled();
        recorder.counter_with("fault_events_total", "kind", "dropout").add(2);
        recorder.gauge("depth").set(-3);
        recorder.histogram("engine_round_seconds").record(1024);
        let doc = parse_json(&recorder.snapshot().to_json()).unwrap();
        let counters = doc.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters[0].get("name").unwrap().as_str(), Some("fault_events_total"));
        assert_eq!(counters[0].get("value").unwrap().as_u64(), Some(2));
        assert_eq!(
            doc.get("gauges").unwrap().as_array().unwrap()[0].get("value").unwrap().as_f64(),
            Some(-3.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "\"open", "1 2", "{\"a\":1,}"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
        let err = parse_json("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn nesting_is_bounded_with_a_named_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH - 1) + "{}" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse_json(&objects).is_ok());
        let too_deep = format!("expected at most {MAX_DEPTH} levels of nesting");
        for (doc, offset) in [
            (nested(MAX_DEPTH + 1), MAX_DEPTH),
            ("[".repeat(250_000), MAX_DEPTH),
            ("{\"a\":".repeat(MAX_DEPTH + 1), 5 * MAX_DEPTH),
        ] {
            let err = parse_json(&doc).unwrap_err();
            assert_eq!((err.offset, &err.message), (offset, &too_deep), "{err}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse_json("\"\\u00e9\"").unwrap(), JsonValue::String("é".into()));
        assert!(parse_json("\"\\ud800\"").is_err(), "lone surrogate rejected");
    }
}
