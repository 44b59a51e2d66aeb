//! Implementation of the `paydemand trace` subcommand family.
//!
//! Every subcommand reads a journal written by `run --trace-out`,
//! decodes it with [`paydemand_sim::trace::decode`], and renders a
//! human-readable (or JSON Lines) view. Rendering is pure — each
//! subcommand builds a `String` so the formatting is unit-testable
//! without capturing stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use paydemand_sim::replay;
use paydemand_sim::trace::{self, fault_kind_label, solver_label, TraceEvent};

use crate::args::TraceCommand;

/// Runs one trace subcommand, printing its report to stdout.
pub fn dispatch(cmd: &TraceCommand) -> Result<(), String> {
    let report = match cmd {
        TraceCommand::Inspect { path } => inspect(&load(path)?),
        TraceCommand::ExplainTask { path, task } => explain_task(&decode(path)?, *task),
        TraceCommand::ExplainUser { path, user } => explain_user(&decode(path)?, *user),
        TraceCommand::Diff { a, b } => Ok(diff(&decode(a)?, &decode(b)?)),
        TraceCommand::Export { path, rounds } => Ok(export_jsonl(&decode(path)?, *rounds)),
        TraceCommand::Verify { path } => verify(&load(path)?),
    }?;
    print!("{report}");
    Ok(())
}

fn load(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{path}: {e}"))
}

fn decode(path: &str) -> Result<Vec<TraceEvent>, String> {
    trace::decode(&load(path)?).map_err(|e| format!("{path}: {e}"))
}

/// `trace inspect` — frame counts, rounds, totals, faults.
fn inspect(bytes: &[u8]) -> Result<String, String> {
    let events = trace::decode(bytes).map_err(|e| e.to_string())?;
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut faults: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut rounds = 0u32;
    let mut measurements = 0u64;
    let mut total_paid = 0.0f64;
    let mut completed = 0usize;
    for event in &events {
        *counts.entry(frame_name(event)).or_insert(0) += 1;
        match event {
            TraceEvent::RoundEnd { round } => rounds = rounds.max(*round),
            TraceEvent::Submit { reward, .. } => {
                measurements += 1;
                total_paid += reward;
            }
            TraceEvent::TaskComplete { .. } => completed += 1,
            TraceEvent::Fault { kind, .. } => {
                *faults.entry(fault_kind_label(*kind)).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "format:          decision journal v{} (PDTJ)", trace::JOURNAL_VERSION);
    let _ = writeln!(out, "frames:          {}", events.len());
    let _ = writeln!(out, "bytes:           {}", bytes.len());
    let _ = writeln!(out, "rounds:          {rounds}");
    let _ = writeln!(out, "measurements:    {measurements}");
    let _ = writeln!(out, "total paid:      {total_paid}");
    let _ = writeln!(out, "tasks completed: {completed}");
    let _ = writeln!(out, "frame counts:");
    for (name, n) in &counts {
        let _ = writeln!(out, "  {name:<14} {n}");
    }
    if !faults.is_empty() {
        let _ = writeln!(out, "faults:");
        for (label, n) in &faults {
            let _ = writeln!(out, "  {label:<14} {n}");
        }
    }
    Ok(out)
}

/// `trace explain-task T` — demand/level/reward trajectory for one task.
fn explain_task(events: &[TraceEvent], task: u32) -> Result<String, String> {
    let mut out = String::new();
    let mut round = 0u32;
    let mut seen = false;
    let mut submits_this_round = 0u32;
    let mut row: Option<String> = None;
    let _ = writeln!(
        out,
        "{:>5}  {:>9}  {:>9}  {:>9}  {:>9}  {:>5}  {:>8}  {:>7}  notes",
        "round", "deadline", "progress", "scarcity", "score", "level", "reward", "submits"
    );
    let flush = |out: &mut String, row: &mut Option<String>, submits: &mut u32| {
        if let Some(prefix) = row.take() {
            let _ = writeln!(out, "{prefix}{:>9}", submits);
        }
        *submits = 0;
    };
    for event in events {
        match event {
            TraceEvent::RoundStart { round: r } => {
                flush(&mut out, &mut row, &mut submits_this_round);
                round = *r;
            }
            TraceEvent::TaskDemand {
                task: t,
                deadline_criterion,
                progress_criterion,
                scarcity_criterion,
                score,
                level,
                reward,
                stale,
            } if *t == task => {
                seen = true;
                let notes = if *stale { "  stale" } else { "" };
                row = Some(format!(
                    "{round:>5}  {deadline_criterion:>9.4}  {progress_criterion:>9.4}  \
                     {scarcity_criterion:>9.4}  {score:>9.4}  {level:>5}  {reward:>8.2}{notes}  "
                ));
            }
            TraceEvent::Submit { task: t, .. } if *t == task => submits_this_round += 1,
            TraceEvent::TaskComplete { task: t, round: r } if *t == task => {
                flush(&mut out, &mut row, &mut submits_this_round);
                let _ = writeln!(out, "task {task} completed in round {r}");
            }
            _ => {}
        }
    }
    flush(&mut out, &mut row, &mut submits_this_round);
    if !seen {
        return Err(format!("task {task} never appears in this journal"));
    }
    Ok(out)
}

/// `trace explain-user U` — selection decisions and earnings for one user.
fn explain_user(events: &[TraceEvent], user: u32) -> Result<String, String> {
    let mut out = String::new();
    let mut round = 0u32;
    let mut seen = false;
    let mut earned = 0.0f64;
    let mut measurements = 0u64;
    let mut offline_rounds: Vec<u32> = Vec::new();
    let _ = writeln!(
        out,
        "{:>5}  {:<12}  {:>10}  {:>10}  {:>8}  {:>7}  route",
        "round", "solver", "candidates", "predicted", "states", "iters"
    );
    for event in events {
        match event {
            TraceEvent::RoundStart { round: r } => round = *r,
            TraceEvent::Selection {
                user: u,
                solver,
                candidates,
                route,
                profit,
                states_expanded,
                iterations,
                ..
            } if *u == user => {
                seen = true;
                let route_s: Vec<String> = route.iter().map(u32::to_string).collect();
                let _ = writeln!(
                    out,
                    "{round:>5}  {:<12}  {candidates:>10}  {profit:>10.4}  {states_expanded:>8}  \
                     {iterations:>7}  [{}]",
                    solver_label(*solver),
                    route_s.join(", ")
                );
            }
            TraceEvent::Submit { user: u, reward, .. } if *u == user => {
                earned += reward;
                measurements += 1;
            }
            TraceEvent::Fault { kind, user: u, round: r, .. }
                if *u == user && *kind == trace::FAULT_USER_OFFLINE =>
            {
                seen = true;
                offline_rounds.push(*r);
            }
            _ => {}
        }
    }
    if !seen {
        return Err(format!("user {user} never appears in this journal"));
    }
    if !offline_rounds.is_empty() {
        let rounds_s: Vec<String> = offline_rounds.iter().map(u32::to_string).collect();
        let _ = writeln!(out, "offline (fault-injected) in rounds: {}", rounds_s.join(", "));
    }
    let _ = writeln!(out, "user {user} earned {earned} across {measurements} measurements");
    Ok(out)
}

/// `trace diff A B` — first frame where two journals diverge.
fn diff(a: &[TraceEvent], b: &[TraceEvent]) -> String {
    for (i, (ea, eb)) in a.iter().zip(b.iter()).enumerate() {
        if ea != eb {
            return format!(
                "journals diverge at frame {i}:\n  a: {}\n  b: {}\n",
                event_jsonl(ea),
                event_jsonl(eb)
            );
        }
    }
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Equal => format!("journals are identical ({} frames)\n", a.len()),
        std::cmp::Ordering::Less => format!(
            "journals agree for {} frames, then b continues:\n  b: {}\n",
            a.len(),
            event_jsonl(&b[a.len()])
        ),
        std::cmp::Ordering::Greater => format!(
            "journals agree for {} frames, then a continues:\n  a: {}\n",
            b.len(),
            event_jsonl(&a[b.len()])
        ),
    }
}

/// `trace export` — one JSON object per frame, optionally restricted
/// to the rounds in the inclusive `A..B` window. The round is tracked
/// from `round-start` frames; preamble frames before the first
/// `round-start` belong to the window only when it opens at round 1.
fn export_jsonl(events: &[TraceEvent], rounds: Option<(u32, u32)>) -> String {
    let mut out = String::new();
    let mut round = 0u32;
    for event in events {
        if let TraceEvent::RoundStart { round: r } = event {
            round = *r;
        }
        if let Some((first, last)) = rounds {
            let in_window = if round == 0 { first <= 1 } else { (first..=last).contains(&round) };
            if !in_window {
                continue;
            }
        }
        out.push_str(&event_jsonl(event));
        out.push('\n');
    }
    out
}

/// `trace verify` — the self-contained audit from [`replay::audit`].
fn verify(bytes: &[u8]) -> Result<String, String> {
    let summary = replay::audit(bytes).map_err(|e| e.to_string())?;
    let (demand, selection, fault) = summary.decision_frames;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ok: {} rounds, {} measurements, total paid {}",
        summary.rounds, summary.measurements, summary.total_paid
    );
    let _ = writeln!(
        out,
        "decision frames: {demand} demand, {selection} selection, {fault} fault; \
         {} tasks completed",
        summary.completions.len()
    );
    Ok(out)
}

fn frame_name(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::RoundStart { .. } => "round-start",
        TraceEvent::Publish { .. } => "publish",
        TraceEvent::Submit { .. } => "submit",
        TraceEvent::RoundEnd { .. } => "round-end",
        TraceEvent::TaskComplete { .. } => "task-complete",
        TraceEvent::TaskDemand { .. } => "task-demand",
        TraceEvent::Selection { .. } => "selection",
        TraceEvent::Budget { .. } => "budget",
        TraceEvent::Fault { .. } => "fault",
        _ => "unknown",
    }
}

/// JSON-encodes an `f64` (finite → shortest decimal, else `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Hand-rolled single-line JSON for one event. Every field name and
/// value is JSON-safe by construction (no strings from user input).
fn event_jsonl(event: &TraceEvent) -> String {
    match event {
        TraceEvent::RoundStart { round } => {
            format!(r#"{{"type":"round-start","round":{round}}}"#)
        }
        TraceEvent::Publish { task, reward } => {
            format!(r#"{{"type":"publish","task":{task},"reward":{}}}"#, json_f64(*reward))
        }
        TraceEvent::Submit { user, task, reward } => format!(
            r#"{{"type":"submit","user":{user},"task":{task},"reward":{}}}"#,
            json_f64(*reward)
        ),
        TraceEvent::RoundEnd { round } => {
            format!(r#"{{"type":"round-end","round":{round}}}"#)
        }
        TraceEvent::TaskComplete { task, round } => {
            format!(r#"{{"type":"task-complete","task":{task},"round":{round}}}"#)
        }
        TraceEvent::TaskDemand {
            task,
            deadline_criterion,
            progress_criterion,
            scarcity_criterion,
            score,
            level,
            reward,
            stale,
        } => format!(
            r#"{{"type":"task-demand","task":{task},"deadline":{},"progress":{},"scarcity":{},"score":{},"level":{level},"reward":{},"stale":{stale}}}"#,
            json_f64(*deadline_criterion),
            json_f64(*progress_criterion),
            json_f64(*scarcity_criterion),
            json_f64(*score),
            json_f64(*reward),
        ),
        TraceEvent::Selection {
            user,
            solver,
            candidates,
            route,
            profit,
            states_expanded,
            nodes_pruned,
            iterations,
        } => {
            let route_s: Vec<String> = route.iter().map(u32::to_string).collect();
            format!(
                r#"{{"type":"selection","user":{user},"solver":"{}","candidates":{candidates},"route":[{}],"profit":{},"states_expanded":{states_expanded},"nodes_pruned":{nodes_pruned},"iterations":{iterations}}}"#,
                solver_label(*solver),
                route_s.join(","),
                json_f64(*profit),
            )
        }
        TraceEvent::Budget { round, total_paid, spend_cap } => format!(
            r#"{{"type":"budget","round":{round},"total_paid":{},"spend_cap":{}}}"#,
            json_f64(*total_paid),
            spend_cap.map_or_else(|| "null".to_string(), json_f64),
        ),
        TraceEvent::Fault { round, kind, user, task, detail } => {
            let user_s = if *user == u32::MAX { "null".to_string() } else { user.to_string() };
            let task_s = if *task == u32::MAX { "null".to_string() } else { task.to_string() };
            format!(
                r#"{{"type":"fault","round":{round},"kind":"{}","user":{user_s},"task":{task_s},"detail":{}}}"#,
                fault_kind_label(*kind),
                json_f64(*detail),
            )
        }
        _ => r#"{"type":"unknown"}"#.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_obs::Recorder;
    use paydemand_sim::engine;
    use paydemand_sim::{MechanismKind, Scenario, SelectorKind};

    fn journal() -> (Vec<u8>, paydemand_sim::SimulationResult) {
        let scenario = Scenario::paper_default()
            .with_users(20)
            .with_tasks(8)
            .with_max_rounds(6)
            .with_mechanism(MechanismKind::OnDemand)
            .with_selector(SelectorKind::GreedyTwoOpt)
            .with_seed(404);
        let recorder = Recorder::disabled();
        let (result, bytes) = engine::run_traced(&scenario, &recorder).unwrap();
        (bytes.to_vec(), result)
    }

    #[test]
    fn inspect_summarises_a_journal() {
        let (bytes, result) = journal();
        let report = inspect(&bytes).unwrap();
        assert!(report.contains("decision journal v2 (PDTJ)"));
        assert!(report.contains(&format!("measurements:    {}", result.total_measurements())));
        assert!(report.contains(&format!("total paid:      {}", result.total_paid)));
        assert!(report.contains("round-start"));
        assert!(report.contains("task-demand"));
        assert!(report.contains("selection"));
        assert!(report.contains("budget"));
    }

    #[test]
    fn explain_task_renders_a_trajectory() {
        let (bytes, _) = journal();
        let events = trace::decode(&bytes).unwrap();
        let report = explain_task(&events, 0).unwrap();
        assert!(report.contains("round"));
        assert!(report.lines().count() >= 2, "expected at least one data row:\n{report}");
        assert!(explain_task(&events, 9_999).is_err());
    }

    #[test]
    fn explain_user_renders_decisions() {
        let (bytes, result) = journal();
        let events = trace::decode(&bytes).unwrap();
        // Find a user that actually earned something.
        let user = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Submit { user, .. } => Some(*user),
                _ => None,
            })
            .expect("some user submitted");
        let report = explain_user(&events, user).unwrap();
        assert!(report.contains("solver"));
        assert!(report.contains(&format!("user {user} earned")));
        assert!(explain_user(&events, u32::from(u16::MAX)).is_err());
        let _ = result;
    }

    #[test]
    fn diff_finds_the_first_divergence() {
        let (bytes, _) = journal();
        let events = trace::decode(&bytes).unwrap();
        assert!(diff(&events, &events).contains("identical"));

        let mut mutated = events.clone();
        if let TraceEvent::RoundStart { round } = &mut mutated[0] {
            *round += 41;
        }
        let report = diff(&events, &mutated);
        assert!(report.contains("diverge at frame 0"), "{report}");

        let truncated = &events[..events.len() - 1];
        assert!(diff(&events, truncated).contains("then a continues"));
    }

    #[test]
    fn export_emits_one_json_object_per_frame() {
        let (bytes, _) = journal();
        let events = trace::decode(&bytes).unwrap();
        let jsonl = export_jsonl(&events, None);
        assert_eq!(jsonl.lines().count(), events.len());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
            assert!(line.contains(r#""type":""#), "no type field: {line}");
        }
        assert!(jsonl.contains(r#""type":"task-demand""#));
        assert!(jsonl.contains(r#""type":"selection""#));
    }

    #[test]
    fn export_round_window_keeps_only_those_rounds() {
        let (bytes, _) = journal();
        let events = trace::decode(&bytes).unwrap();
        let window = export_jsonl(&events, Some((2, 3)));
        assert!(window.contains(r#"{"type":"round-start","round":2}"#));
        assert!(window.contains(r#"{"type":"round-end","round":3}"#));
        assert!(!window.contains(r#""round":1}"#), "round 1 excluded:\n{window}");
        assert!(!window.contains(r#""round":4}"#), "round 4 excluded:\n{window}");
        // A window opening at round 1 carries any preamble frames and,
        // stitched to the complementary windows, reassembles the full export.
        let head = export_jsonl(&events, Some((1, 1)));
        let tail = export_jsonl(&events, Some((4, u32::MAX)));
        let full = export_jsonl(&events, None);
        assert_eq!(format!("{head}{window}{tail}"), full);
        // An empty window exports nothing.
        assert!(export_jsonl(&events, Some((900, 901))).is_empty());
    }

    #[test]
    fn verify_accepts_a_real_journal_and_rejects_garbage() {
        let (bytes, result) = journal();
        let report = verify(&bytes).unwrap();
        assert!(report.starts_with("ok:"), "{report}");
        assert!(report.contains(&format!("total paid {}", result.total_paid)));
        assert!(verify(&[0xFF, 0x00, 0x01]).is_err());
    }
}
