//! A fixed-capacity per-round time series of metric snapshots.
//!
//! The Recorder's [`Snapshot`](crate::Snapshot) is an end-of-run
//! aggregate; this module keeps the *trajectory*: the engine records
//! one snapshot per round boundary into a bounded ring, which the alert
//! rules are evaluated over ([`evaluate_series`](crate::evaluate_series))
//! and which `--timeseries-out` dumps for offline analysis.
//!
//! Like the Recorder, the disabled handle ([`TimeSeries::disabled`],
//! also [`Default`]) is a true no-op — no storage, no locks, no clock —
//! so simulation results are bit-identical with the time series on or
//! off. The ring drops the *oldest* sample once `capacity` is reached
//! and counts the evictions in [`TimeSeries::dropped`], which the alert
//! report names.
//!
//! Exported values are raw (counters and histogram sums in their native
//! units, `*_seconds` histograms in nanoseconds) so a reloaded series
//! evaluates alert rules exactly as the run's own series did; the alert
//! flattener applies the seconds scaling, as the exporters do.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::export::{fmt_value, json_labels, scale_of};
use crate::json::{parse_json, JsonValue};
use crate::metrics::{HistogramSnapshot, BUCKETS};
use crate::recorder::{MetricKey, Snapshot};

/// One ring entry: the cumulative snapshot taken at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSample {
    /// The 1-based round the sample closes.
    pub round: u32,
    /// Cumulative metric values as of that boundary.
    pub snapshot: Snapshot,
}

#[derive(Debug)]
struct Ring {
    samples: VecDeque<RoundSample>,
    dropped: u64,
}

#[derive(Debug)]
struct TimeSeriesInner {
    capacity: usize,
    ring: Mutex<Ring>,
}

/// A cloneable handle to a bounded per-round snapshot ring.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    inner: Option<Arc<TimeSeriesInner>>,
}

impl TimeSeries {
    /// The no-op handle: records nothing, exports empty documents.
    #[must_use]
    pub fn disabled() -> Self {
        TimeSeries { inner: None }
    }

    /// A live ring holding at most `capacity` samples (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TimeSeries {
            inner: Some(Arc::new(TimeSeriesInner {
                capacity: capacity.max(1),
                ring: Mutex::new(Ring { samples: VecDeque::new(), dropped: 0 }),
            })),
        }
    }

    /// Whether [`record`](Self::record) stores anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends a sample, evicting the oldest once full. A no-op on the
    /// disabled handle.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex was poisoned by a panicking thread.
    pub fn record(&self, round: u32, snapshot: Snapshot) {
        let Some(inner) = &self.inner else { return };
        let mut ring = inner.ring.lock().expect("time series poisoned");
        if ring.samples.len() == inner.capacity {
            ring.samples.pop_front();
            ring.dropped += 1;
        }
        ring.samples.push_back(RoundSample { round, snapshot });
    }

    /// The stored samples, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn samples(&self) -> Vec<RoundSample> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                inner.ring.lock().expect("time series poisoned").samples.iter().cloned().collect()
            }
        }
    }

    /// Number of samples currently stored.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.ring.lock().expect("time series poisoned").samples.len())
    }

    /// Whether no samples are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted because the ring was full.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.ring.lock().expect("time series poisoned").dropped)
    }

    /// The ring capacity (0 for the disabled handle).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.capacity)
    }

    /// Renders the series as a JSON document:
    /// `{"capacity": …, "dropped": …, "rounds": [{"round": …,
    /// "counters": […], "gauges": […], "histograms": […]}]}`.
    /// Histogram entries carry their full bucket vectors (trailing
    /// zeros trimmed), so [`TimeSeries::from_json`] reconstructs the
    /// series losslessly and offline alert evaluation matches the run's
    /// own bit for bit.
    #[must_use]
    pub fn to_json(&self) -> String {
        let samples = self.samples();
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"capacity\": {},", self.capacity());
        let _ = write!(out, "\n  \"dropped\": {},", self.dropped());
        out.push_str("\n  \"rounds\": [");
        for (i, sample) in samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"round\": {},", sample.round);
            out.push_str(" \"counters\": [");
            push_series(&mut out, &sample.snapshot.counters, |entry, value| {
                let _ = write!(entry, "\"value\": {value}");
            });
            out.push_str("], \"gauges\": [");
            push_series(&mut out, &sample.snapshot.gauges, |entry, value| {
                let _ = write!(entry, "\"value\": {value}");
            });
            out.push_str("], \"histograms\": [");
            push_series(&mut out, &sample.snapshot.histograms, |entry, hist| {
                let min = if hist.count == 0 { 0 } else { hist.min };
                let _ = write!(
                    entry,
                    "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                    hist.count, hist.sum, min, hist.max
                );
                let occupied = BUCKETS - hist.buckets.iter().rev().take_while(|&&b| b == 0).count();
                for (b, bucket) in hist.buckets[..occupied].iter().enumerate() {
                    if b > 0 {
                        entry.push(',');
                    }
                    let _ = write!(entry, "{bucket}");
                }
                entry.push(']');
            });
            out.push_str("]}");
        }
        if !samples.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the series as CSV with header
    /// `round,kind,metric,value`: one row per counter and gauge series,
    /// and `:count` / `:sum` / `:p50` / `:p99` rows per histogram
    /// series. Values of `*_seconds` histograms are scaled to seconds
    /// (the human-facing convention); this format is for spreadsheets
    /// and is not reloadable — use JSON for that.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,kind,metric,value\n");
        for sample in self.samples() {
            for (key, value) in &sample.snapshot.counters {
                let _ = writeln!(out, "{},counter,{},{value}", sample.round, csv_metric(key));
            }
            for (key, value) in &sample.snapshot.gauges {
                let _ = writeln!(out, "{},gauge,{},{value}", sample.round, csv_metric(key));
            }
            for (key, hist) in &sample.snapshot.histograms {
                let scale = scale_of(&key.name);
                let metric = csv_metric(key);
                let round = sample.round;
                let _ = writeln!(out, "{round},histogram,{metric}:count,{}", hist.count);
                let _ =
                    writeln!(out, "{round},histogram,{metric}:sum,{}", fmt_value(hist.sum, scale));
                let _ = writeln!(
                    out,
                    "{round},histogram,{metric}:p50,{}",
                    fmt_value(hist.p50(), scale)
                );
                let _ = writeln!(
                    out,
                    "{round},histogram,{metric}:p99,{}",
                    fmt_value(hist.p99(), scale)
                );
            }
        }
        out
    }

    /// Reloads a series from [`TimeSeries::to_json`] output.
    ///
    /// # Errors
    ///
    /// A human-readable message when the document is not valid JSON or
    /// not shaped like an exported time series.
    pub fn from_json(text: &str) -> Result<TimeSeries, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let capacity = doc
            .get("capacity")
            .and_then(JsonValue::as_u64)
            .ok_or("time series JSON: missing numeric `capacity`")?;
        let dropped = doc
            .get("dropped")
            .and_then(JsonValue::as_u64)
            .ok_or("time series JSON: missing numeric `dropped`")?;
        let rounds = doc
            .get("rounds")
            .and_then(JsonValue::as_array)
            .ok_or("time series JSON: missing `rounds` array")?;
        let mut samples = VecDeque::with_capacity(rounds.len());
        for (i, entry) in rounds.iter().enumerate() {
            let context = |what: &str| format!("time series JSON: rounds[{i}]: {what}");
            let round = entry
                .get("round")
                .and_then(JsonValue::as_u64)
                .and_then(|r| u32::try_from(r).ok())
                .ok_or_else(|| context("missing `round`"))?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let counters = parse_scalar_series(entry, "counters", &context)?
                .into_iter()
                .map(|(key, v)| (key, v as u64))
                .collect();
            #[allow(clippy::cast_possible_truncation)]
            let gauges = parse_scalar_series(entry, "gauges", &context)?
                .into_iter()
                .map(|(key, v)| (key, v as i64))
                .collect();
            let histograms = parse_histogram_series(entry, &context)?;
            samples.push_back(RoundSample {
                round,
                snapshot: Snapshot { counters, gauges, histograms },
            });
        }
        let capacity = usize::try_from(capacity).map_err(|e| e.to_string())?.max(samples.len());
        Ok(TimeSeries {
            inner: Some(Arc::new(TimeSeriesInner {
                capacity: capacity.max(1),
                ring: Mutex::new(Ring { samples, dropped }),
            })),
        })
    }
}

/// `name` or `name{key=value}` — CSV cells never need quoting because
/// metric names and label values contain no commas or newlines.
fn csv_metric(key: &MetricKey) -> String {
    match &key.label {
        None => key.name.clone(),
        Some((k, v)) => format!("{}{{{k}={v}}}", key.name),
    }
}

fn push_series<T>(
    out: &mut String,
    entries: &[(MetricKey, T)],
    mut body: impl FnMut(&mut String, &T),
) {
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"labels\": {}, ",
            crate::export::json_escape(&key.name),
            json_labels(key)
        );
        body(out, value);
        out.push('}');
    }
}

fn parse_key(entry: &JsonValue) -> Option<MetricKey> {
    let name = entry.get("name")?.as_str()?.to_owned();
    let labels = entry.get("labels")?.as_object()?;
    let label = match labels.iter().next() {
        None => None,
        Some((k, v)) => Some((k.clone(), v.as_str()?.to_owned())),
    };
    if labels.len() > 1 {
        return None;
    }
    Some(MetricKey { name, label })
}

fn parse_scalar_series(
    round: &JsonValue,
    field: &str,
    context: &impl Fn(&str) -> String,
) -> Result<Vec<(MetricKey, f64)>, String> {
    let entries = round
        .get(field)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| context(&format!("missing `{field}` array")))?;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let key =
            parse_key(entry).ok_or_else(|| context(&format!("bad series key in `{field}`")))?;
        let value = entry
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| context(&format!("missing `value` in `{field}`")))?;
        out.push((key, value));
    }
    Ok(out)
}

fn parse_histogram_series(
    round: &JsonValue,
    context: &impl Fn(&str) -> String,
) -> Result<Vec<(MetricKey, HistogramSnapshot)>, String> {
    let entries = round
        .get("histograms")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| context("missing `histograms` array"))?;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let key = parse_key(entry).ok_or_else(|| context("bad series key in `histograms`"))?;
        let number = |field: &str| {
            entry
                .get(field)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| context(&format!("missing `{field}` in `histograms`")))
        };
        let count = number("count")?;
        let sum = number("sum")?;
        let min = number("min")?;
        let max = number("max")?;
        let raw = entry
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| context("missing `buckets` in `histograms`"))?;
        if raw.len() > BUCKETS {
            return Err(context(&format!("more than {BUCKETS} buckets")));
        }
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(raw) {
            *slot = bucket.as_u64().ok_or_else(|| context("non-integer bucket in `histograms`"))?;
        }
        let min = if count == 0 { u64::MAX } else { min };
        out.push((key, HistogramSnapshot { buckets, count, sum, min, max }));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_recorder(hits: u64) -> Recorder {
        let r = Recorder::enabled();
        r.counter("demand_cache_hits_total").add(hits);
        r.gauge("engine_retry_queue_depth").set(2);
        let h = r.histogram_with("selector_solve_seconds", "selector", "dp");
        h.record(1024);
        h.record(4096);
        r
    }

    #[test]
    fn disabled_handle_is_inert() {
        let ts = TimeSeries::disabled();
        assert!(!ts.is_enabled());
        ts.record(1, sample_recorder(1).snapshot());
        assert!(ts.is_empty());
        assert_eq!(ts.capacity(), 0);
        assert_eq!(ts.to_csv(), "round,kind,metric,value\n");
        assert!(TimeSeries::default().samples().is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ts = TimeSeries::with_capacity(3);
        for round in 1..=5 {
            ts.record(round, sample_recorder(u64::from(round)).snapshot());
        }
        let samples = ts.samples();
        assert_eq!(samples.iter().map(|s| s.round).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(ts.dropped(), 2);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn golden_json_document() {
        let ts = TimeSeries::with_capacity(4);
        ts.record(1, sample_recorder(12).snapshot());
        let expected = "{
  \"capacity\": 4,
  \"dropped\": 0,
  \"rounds\": [
    {\"round\": 1, \"counters\": [{\"name\": \"demand_cache_hits_total\", \"labels\": {}, \"value\": 12}], \"gauges\": [{\"name\": \"engine_retry_queue_depth\", \"labels\": {}, \"value\": 2}], \"histograms\": [{\"name\": \"selector_solve_seconds\", \"labels\": {\"selector\": \"dp\"}, \"count\": 2, \"sum\": 5120, \"min\": 1024, \"max\": 4096, \"buckets\": [0,0,0,0,0,0,0,0,0,0,1,0,1]}]}
  ]
}
";
        assert_eq!(ts.to_json(), expected);
    }

    #[test]
    fn golden_csv_document() {
        let ts = TimeSeries::with_capacity(4);
        ts.record(1, sample_recorder(12).snapshot());
        let expected = "round,kind,metric,value
1,counter,demand_cache_hits_total,12
1,gauge,engine_retry_queue_depth,2
1,histogram,selector_solve_seconds{selector=dp}:count,2
1,histogram,selector_solve_seconds{selector=dp}:sum,0.00000512
1,histogram,selector_solve_seconds{selector=dp}:p50,0.000002047
1,histogram,selector_solve_seconds{selector=dp}:p99,0.000004096
";
        assert_eq!(ts.to_csv(), expected);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let ts = TimeSeries::with_capacity(8);
        for round in 1..=3 {
            ts.record(round, sample_recorder(u64::from(round) * 7).snapshot());
        }
        let reloaded = TimeSeries::from_json(&ts.to_json()).unwrap();
        assert_eq!(reloaded.samples(), ts.samples());
        assert_eq!(reloaded.capacity(), ts.capacity());
        assert_eq!(reloaded.dropped(), ts.dropped());
        assert_eq!(reloaded.to_json(), ts.to_json());
    }

    #[test]
    fn from_json_names_shape_errors() {
        assert!(TimeSeries::from_json("[]").unwrap_err().contains("capacity"));
        assert!(TimeSeries::from_json("{\"capacity\": 1, \"dropped\": 0}")
            .unwrap_err()
            .contains("rounds"));
        let bad_round = "{\"capacity\": 1, \"dropped\": 0, \"rounds\": [{\"round\": 1}]}";
        assert!(TimeSeries::from_json(bad_round).unwrap_err().contains("rounds[0]"));
        assert!(TimeSeries::from_json("not json").unwrap_err().contains("JSON error"));
    }

    #[test]
    fn empty_histogram_min_round_trips_to_sentinel() {
        let ts = TimeSeries::with_capacity(2);
        let r = Recorder::enabled();
        let _ = r.histogram("empty_h");
        ts.record(1, r.snapshot());
        assert!(ts.to_json().contains("\"min\": 0"), "sentinel not serialised raw");
        let reloaded = TimeSeries::from_json(&ts.to_json()).unwrap();
        let hist = &reloaded.samples()[0].snapshot.histograms[0].1;
        assert_eq!(hist.min, u64::MAX, "empty-histogram convention restored");
    }
}
