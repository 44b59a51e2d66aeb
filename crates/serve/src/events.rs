//! The `POST /events` wire codec.
//!
//! A batch is a JSON document:
//!
//! ```json
//! {"events": [
//!   {"type": "move",   "user": 0, "x": 120.0, "y": 355.5},
//!   {"type": "upload", "user": 3, "task": 7, "value": 0.82}
//! ]}
//! ```
//!
//! Decoding distinguishes *transport* failures (not UTF-8, not JSON —
//! a 400) from *schema* failures (valid JSON of the wrong shape — a
//! 422), so clients can tell a corrupted request from a wrong one.
//! Range validation (user/task ids, area bounds) happens a layer up,
//! in [`ExternalEvent::validate`], the one check the daemon's ingest
//! and [`Engine::enqueue_event`](paydemand_sim::Engine::enqueue_event)
//! share.

use paydemand_obs::{parse_json, JsonValue};
use paydemand_sim::ExternalEvent;

/// Why a batch failed to decode; maps to the response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The body is not UTF-8 or not JSON at all → 400.
    Transport(String),
    /// The JSON does not match the batch schema → 422.
    Schema(String),
}

impl DecodeError {
    /// The HTTP status this decode failure earns.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            DecodeError::Transport(_) => 400,
            DecodeError::Schema(_) => 422,
        }
    }

    /// The human-readable complaint.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            DecodeError::Transport(m) | DecodeError::Schema(m) => m,
        }
    }
}

/// Decodes a `POST /events` body into engine events.
///
/// # Errors
///
/// [`DecodeError::Transport`] for non-UTF-8 / non-JSON bodies,
/// [`DecodeError::Schema`] for JSON of the wrong shape (including
/// non-finite numbers, which JSON cannot carry anyway).
pub fn decode_batch(body: &[u8]) -> Result<Vec<ExternalEvent>, DecodeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| DecodeError::Transport("body is not UTF-8".to_owned()))?;
    let doc =
        parse_json(text).map_err(|e| DecodeError::Transport(format!("body is not JSON: {e}")))?;
    let events = doc
        .get("events")
        .ok_or_else(|| DecodeError::Schema("missing \"events\" array".to_owned()))?
        .as_array()
        .ok_or_else(|| DecodeError::Schema("\"events\" is not an array".to_owned()))?;
    let mut decoded = Vec::with_capacity(events.len());
    for (i, entry) in events.iter().enumerate() {
        decoded.push(
            decode_event(entry).map_err(|m| DecodeError::Schema(format!("events[{i}]: {m}")))?,
        );
    }
    Ok(decoded)
}

fn decode_event(entry: &JsonValue) -> Result<ExternalEvent, String> {
    let kind = entry
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing \"type\"".to_owned())?;
    let user = field_u32(entry, "user")?;
    match kind {
        "move" => {
            Ok(ExternalEvent::Move { user, x: field_f64(entry, "x")?, y: field_f64(entry, "y")? })
        }
        "upload" => Ok(ExternalEvent::Upload {
            user,
            task: field_u32(entry, "task")?,
            value: field_f64(entry, "value")?,
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

fn field_u32(entry: &JsonValue, name: &str) -> Result<u32, String> {
    let value = entry
        .get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer \"{name}\""))?;
    u32::try_from(value).map_err(|_| format!("\"{name}\" out of range"))
}

fn field_f64(entry: &JsonValue, name: &str) -> Result<f64, String> {
    entry
        .get(name)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric \"{name}\""))
}

/// Encodes a batch into the wire JSON the daemon accepts. Used by the
/// end-to-end benchmark and the tests; round-trips through
/// [`decode_batch`].
#[must_use]
pub fn encode_batch(events: &[ExternalEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48 + 16);
    out.push_str("{\"events\": [");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match event {
            ExternalEvent::Move { user, x, y } => {
                out.push_str(&format!(
                    "{{\"type\": \"move\", \"user\": {user}, \"x\": {x}, \"y\": {y}}}"
                ));
            }
            ExternalEvent::Upload { user, task, value } => {
                out.push_str(&format!(
                    "{{\"type\": \"upload\", \"user\": {user}, \"task\": {task}, \"value\": {value}}}"
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_round_trip() {
        let events = vec![
            ExternalEvent::Move { user: 0, x: 12.5, y: 800.0 },
            ExternalEvent::Upload { user: 3, task: 7, value: 0.25 },
        ];
        let wire = encode_batch(&events);
        assert_eq!(decode_batch(wire.as_bytes()).unwrap(), events);
        assert_eq!(decode_batch(b"{\"events\": []}").unwrap(), vec![]);
    }

    #[test]
    fn transport_and_schema_errors_are_distinguished() {
        assert_eq!(decode_batch(&[0xff, 0xfe]).unwrap_err().status(), 400);
        assert_eq!(decode_batch(b"{\"events\": [").unwrap_err().status(), 400);
        assert_eq!(decode_batch(b"{}").unwrap_err().status(), 422);
        assert_eq!(decode_batch(b"{\"events\": 3}").unwrap_err().status(), 422);
        assert_eq!(
            decode_batch(b"{\"events\": [{\"type\": \"warp\", \"user\": 0}]}")
                .unwrap_err()
                .status(),
            422
        );
        let err = decode_batch(b"{\"events\": [{\"type\": \"move\", \"user\": 1}]}").unwrap_err();
        assert_eq!(err.status(), 422);
        assert!(err.message().contains("events[0]"), "{err:?}");
        // Negative or fractional ids are schema errors, not panics.
        assert_eq!(
            decode_batch(
                b"{\"events\": [{\"type\": \"upload\", \"user\": -1, \"task\": 0, \"value\": 1}]}"
            )
            .unwrap_err()
            .status(),
            422
        );
    }
}
