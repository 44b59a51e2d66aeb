//! `paydemand profile`: fold the Chrome traces that `run
//! --trace-events` writes into per-stack self time (see
//! `docs/PROFILING.md`).
//!
//! Each `"ph": "X"` span joins the stack its `args.parent` chain names
//! (`job;round;demand`), and its self time is its `dur` less its
//! children's. `report` ranks one trace's stacks; `diff` ranks the
//! per-stack deltas of two traces, worst regression first. A span
//! whose parent the trace dropped at its capacity bound folds under a
//! `(dropped)` root, and `report` prints the trace's own drop count.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use paydemand_obs::{parse_json, JsonValue};

use crate::args::ProfileCommand;

/// The root of a span's stack when its parent is not in the trace.
const DROPPED_ROOT: &str = "(dropped)";

/// Runs one `paydemand profile` subcommand.
pub fn dispatch(cmd: &ProfileCommand) -> Result<(), String> {
    match cmd {
        ProfileCommand::Report { path, top } => print!("{}", read_trace(path)?.report(*top)),
        ProfileCommand::Diff { before, after, top } => {
            print!("{}", diff(&read_trace(before)?, &read_trace(after)?, *top));
        }
    }
    Ok(())
}

fn read_trace(path: &str) -> Result<Folded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    fold(&text).map_err(|e| format!("{path}: {e}"))
}

/// Self time and span count of one stack.
#[derive(Debug, Default, PartialEq, Eq)]
struct StackTime {
    self_ns: u64,
    spans: u64,
}

/// A trace folded by stack.
#[derive(Debug, Default)]
struct Folded {
    /// Keyed by the stack's span names, outermost first, `;`-joined.
    stacks: BTreeMap<String, StackTime>,
    /// `otherData.dropped_events`: what the span log turned away.
    dropped: u64,
}

/// One `"ph": "X"` event: its name, its parent's id and its `dur`.
struct Span<'a> {
    name: &'a str,
    parent: Option<u64>,
    dur_ns: u64,
}

/// Folds a Chrome trace into per-stack self time. Durations are read
/// as whole nanoseconds, so the sums are exact; a trace's outsized
/// durations saturate rather than wrap.
fn fold(text: &str) -> Result<Folded, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("no `traceEvents` array: not a Chrome trace")?;
    let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let arg = |key| event.get("args").and_then(|args| args.get(key));
        let id = arg("id").and_then(JsonValue::as_u64).ok_or("a span has no integer `args.id`")?;
        let span = Span {
            name: event
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("span {id} has no name"))?,
            parent: arg("parent").and_then(JsonValue::as_u64),
            dur_ns: event
                .get("dur")
                .and_then(JsonValue::as_f64)
                .and_then(micros_to_ns)
                .ok_or_else(|| format!("span {id} has no valid `dur`"))?,
        };
        if spans.insert(id, span).is_some() {
            return Err(format!("duplicate span id {id}"));
        }
    }
    let mut children_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.values() {
        if let Some(parent) = span.parent.filter(|parent| spans.contains_key(parent)) {
            let sum = children_ns.entry(parent).or_default();
            *sum = sum.saturating_add(span.dur_ns);
        }
    }
    let dropped = doc.get("otherData").and_then(|other| other.get("dropped_events"));
    let mut folded =
        Folded { dropped: dropped.and_then(JsonValue::as_u64).unwrap_or(0), ..Folded::default() };
    for (id, span) in &spans {
        let self_ns = span.dur_ns.saturating_sub(children_ns.get(id).copied().unwrap_or(0));
        let stack = folded.stacks.entry(stack_of(&spans, span)?).or_default();
        stack.self_ns = stack.self_ns.saturating_add(self_ns);
        stack.spans += 1;
    }
    Ok(folded)
}

/// The `;`-joined names from `span`'s outermost ancestor down to it.
fn stack_of(spans: &BTreeMap<u64, Span>, span: &Span) -> Result<String, String> {
    let mut names = vec![span.name];
    let mut next = span.parent;
    while let Some(id) = next {
        let Some(parent) = spans.get(&id) else {
            names.push(DROPPED_ROOT);
            break;
        };
        if names.len() > spans.len() {
            return Err(format!("span {id} is its own ancestor"));
        }
        names.push(parent.name);
        next = parent.parent;
    }
    names.reverse();
    Ok(names.join(";"))
}

/// Trace microseconds as whole nanoseconds.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn micros_to_ns(micros: f64) -> Option<u64> {
    (micros.is_finite() && micros >= 0.0).then(|| (micros * 1000.0).round() as u64)
}

#[allow(clippy::cast_precision_loss)]
fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl Folded {
    /// A header with the span and drop counts, then the `top` stacks
    /// with the most self time.
    fn report(&self, top: usize) -> String {
        let total = self.stacks.values().fold(0, |sum, stack| stack.self_ns.saturating_add(sum));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} spans in {} stacks, {:.4}s of span time ({} events dropped)",
            self.stacks.values().map(|stack| stack.spans).sum::<u64>(),
            self.stacks.len(),
            seconds(total),
            self.dropped,
        );
        if self.stacks.is_empty() {
            let _ = writeln!(out, "  (no spans in the trace)");
            return out;
        }
        let mut ranked: Vec<(&String, &StackTime)> = self.stacks.iter().collect();
        ranked.sort_by_key(|&(name, stack)| (Reverse(stack.self_ns), name));
        let _ = writeln!(out, "  {:>9}  {:>6}  {:>8}  stack", "seconds", "share", "spans");
        for (name, stack) in ranked.into_iter().take(top) {
            #[allow(clippy::cast_precision_loss)]
            let share = if total == 0 { 0.0 } else { stack.self_ns as f64 / total as f64 * 100.0 };
            let _ = writeln!(
                out,
                "  {:>9.4}  {:>5.1}%  {:>8}  {name}",
                seconds(stack.self_ns),
                share,
                stack.spans,
            );
        }
        out
    }
}

/// The `top` per-stack self-time deltas from `before` to `after`,
/// largest increase first (ties by stack name).
fn diff(before: &Folded, after: &Folded, top: usize) -> String {
    let mut merged: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, stack) in &before.stacks {
        merged.entry(name).or_default().0 = stack.self_ns;
    }
    for (name, stack) in &after.stacks {
        merged.entry(name).or_default().1 = stack.self_ns;
    }
    let mut ranked: Vec<(&str, (u64, u64))> = merged.into_iter().collect();
    ranked.sort_by_key(|&(name, (before, after))| {
        (Reverse(i128::from(after) - i128::from(before)), name)
    });
    let mut out = String::new();
    let _ = writeln!(out, "  {:>9}  {:>9}  {:>9}  stack", "delta s", "before s", "after s");
    for (name, (before, after)) in ranked.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:>+9.4}  {:>9.4}  {:>9.4}  {name}",
            seconds(*after) - seconds(*before),
            seconds(*before),
            seconds(*after),
        );
    }
    if ranked.is_empty() {
        let _ = writeln!(out, "  (no spans in either trace)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_obs::SpanLog;
    use std::sync::Arc;

    /// A `"ph": "X"` event as `SpanLog::to_trace_json` writes it.
    fn span(id: u64, parent: Option<u64>, name: &str, dur_us: &str) -> String {
        let parent = parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        format!(
            "{{\"name\": \"{name}\", \"cat\": \"paydemand\", \"ph\": \"X\", \"ts\": 0.000, \
             \"dur\": {dur_us}, \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}"
        )
    }

    fn trace(dropped: u64, events: &[String]) -> String {
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"otherData\": {{\"dropped_events\": {dropped}}}, \
             \"traceEvents\": [{}]}}",
            events.join(",\n")
        )
    }

    /// Two rounds of one job, durations in µs: the first round with
    /// demand and pricing, the second with demand only, and a counter
    /// sample.
    fn job(job: u64, round: u64, demand: u64, pricing: u64) -> String {
        trace(
            0,
            &[
                span(1, None, "job", &format!("{job}.000")),
                span(2, Some(1), "round", &format!("{round}.000")),
                span(3, Some(2), "demand", &format!("{demand}.000")),
                span(4, Some(2), "pricing", &format!("{pricing}.000")),
                span(5, Some(1), "round", "30000.000"),
                span(6, Some(5), "demand", "4500.000"),
                "{\"name\": \"memory_live_bytes\", \"cat\": \"paydemand\", \"ph\": \"C\", \
                 \"ts\": 1.000, \"pid\": 1, \"tid\": 0, \"args\": {\"value\": 4096}}"
                    .to_owned(),
            ],
        )
    }

    fn baseline() -> String {
        job(100_000, 60_000, 20_500, 10_000)
    }

    fn stack(self_us: u64, spans: u64) -> StackTime {
        StackTime { self_ns: self_us * 1000, spans }
    }

    #[test]
    fn self_time_is_duration_less_children_summed_per_stack() {
        let folded = fold(&baseline()).unwrap();
        let expected: BTreeMap<String, StackTime> = [
            ("job", stack(10_000, 1)),
            ("job;round", stack(29_500 + 25_500, 2)),
            ("job;round;demand", stack(20_500 + 4_500, 2)),
            ("job;round;pricing", stack(10_000, 1)),
        ]
        .into_iter()
        .map(|(name, time)| (name.to_owned(), time))
        .collect();
        // The `ph: C` counter sample is no span, so it has no stack.
        assert_eq!(folded.stacks, expected);
        // Self times telescope to the root's duration.
        assert_eq!(folded.stacks.values().map(|s| s.self_ns).sum::<u64>(), 100_000_000);

        // The exporter's own output folds the same way.
        let log = Arc::new(SpanLog::new(8));
        let job = log.open("job");
        log.open("round").finish();
        job.finish();
        let names: Vec<String> = fold(&log.to_trace_json()).unwrap().stacks.into_keys().collect();
        assert_eq!(names, ["job", "job;round"]);
    }

    #[test]
    fn an_orphan_span_folds_under_the_dropped_root() {
        // Span 1 (the round) was turned away at the capacity bound;
        // its children were kept.
        let text = trace(
            3,
            &[
                span(2, Some(1), "demand", "7000.000"),
                span(3, Some(1), "pricing", "2000.000"),
                span(4, Some(3), "inner", "500.000"),
            ],
        );
        let folded = fold(&text).unwrap();
        assert_eq!(folded.dropped, 3);
        let names: Vec<&str> = folded.stacks.keys().map(String::as_str).collect();
        assert_eq!(names, ["(dropped);demand", "(dropped);pricing", "(dropped);pricing;inner"]);
        assert_eq!(folded.stacks["(dropped);pricing"], stack(1_500, 1));
        let header = folded.report(10).lines().next().unwrap().to_owned();
        assert!(header.starts_with("profile: 3 spans in 3 stacks"), "{header}");
        assert!(header.ends_with("(3 events dropped)"), "{header}");
    }

    #[test]
    fn malformed_traces_are_named_errors() {
        let duplicate = trace(0, &[span(1, None, "job", "1.0"), span(1, None, "job", "2.0")]);
        assert_eq!(fold(&duplicate).unwrap_err(), "duplicate span id 1");
        let err = fold("{\"displayTimeUnit\": \"ms\"}").unwrap_err();
        assert!(err.contains("traceEvents"), "{err}");
        let cycle = trace(0, &[span(1, Some(2), "a", "1.0"), span(2, Some(1), "b", "1.0")]);
        assert_eq!(fold(&cycle).unwrap_err(), "span 2 is its own ancestor");
    }

    #[test]
    fn diff_ranks_the_largest_increase_first() {
        let before = fold(&baseline()).unwrap();
        // Demand 20 ms slower and pricing 5 ms faster; the enclosing
        // round and job grow and shrink with them, so their own self
        // times hold.
        let after = fold(&job(115_000, 75_000, 40_500, 5_000)).unwrap();
        let table = diff(&before, &after, 10);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows[0], "    delta s   before s    after s  stack");
        assert_eq!(rows[1], "    +0.0200     0.0250     0.0450  job;round;demand");
        assert_eq!(rows[2], "    +0.0000     0.0100     0.0100  job");
        assert_eq!(rows[3], "    +0.0000     0.0550     0.0550  job;round");
        assert_eq!(rows[4], "    -0.0050     0.0100     0.0050  job;round;pricing");
        assert_eq!(rows.len(), 5);
        assert_eq!(diff(&before, &after, 1).lines().count(), 2, "--top bounds the rows");

        let same = diff(&before, &before, 10);
        assert_eq!(same.lines().count(), 5);
        for row in same.lines().skip(1) {
            assert!(row.trim_start().starts_with("+0.0000 "), "{same}");
        }
    }
}
