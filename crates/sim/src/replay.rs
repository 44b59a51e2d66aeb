//! Replay verification: recompute a run's outcome purely from its
//! decoded decision journal and check it against the live result.
//!
//! The journal is only worth trusting if it is *complete*: every
//! payment, price and completion the engine produced must be derivable
//! from the frames alone. [`verify`] enforces exactly that — it walks
//! the decoded events, rebuilds per-round prices, per-round measurement
//! counts, task completions and the cumulative payment stream, and
//! compares each against the live [`SimulationResult`] **bitwise**
//! (f64s by bit pattern, never with a tolerance).
//!
//! Bitwise payment equality is sound because the platform accumulates
//! `total_paid += reward` once per accepted submission, in engine
//! submission order — the same order Submit frames are journalled in —
//! so summing frame rewards in frame order replays the identical
//! floating-point operation sequence.
//!
//! [`audit`] runs the weaker, self-contained half of the checks (round
//! framing, submissions priced as published) for when only the journal
//! is at hand — the CLI's `trace verify` on a file from disk.

use std::collections::BTreeMap;

use crate::trace::{decode, TraceError, TraceEvent};
use crate::SimulationResult;

/// What replay recomputed from the journal alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Rounds the journal covers.
    pub rounds: u32,
    /// Total measurements delivered (Submit frames).
    pub measurements: u64,
    /// Total paid, summed in frame order.
    pub total_paid: f64,
    /// Tasks that completed, with their completion round.
    pub completions: BTreeMap<u32, u32>,
    /// Decision frames seen: (demand breakdowns, selections, faults).
    pub decision_frames: (usize, usize, usize),
}

/// Why a journal failed verification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The journal bytes would not decode.
    Trace(TraceError),
    /// The journal's structure is broken (framing, ordering).
    Malformed(String),
    /// Replay disagrees with the live result.
    Mismatch(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "undecodable trace: {e}"),
            ReplayError::Malformed(m) => write!(f, "malformed journal: {m}"),
            ReplayError::Mismatch(m) => write!(f, "replay mismatch: {m}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<ReplayError> for crate::SimError {
    fn from(e: ReplayError) -> Self {
        crate::SimError::invariant(format!("replay verification failed: {e}"))
    }
}

fn malformed(msg: impl Into<String>) -> ReplayError {
    ReplayError::Malformed(msg.into())
}

fn mismatch(msg: impl Into<String>) -> ReplayError {
    ReplayError::Mismatch(msg.into())
}

/// One round's worth of replayed state.
#[derive(Debug, Default)]
struct RoundReplay {
    round: u32,
    /// Published reward per task id, bit-exact.
    prices: BTreeMap<u32, f64>,
    /// Submit count per task id.
    submits: BTreeMap<u32, u32>,
}

/// The full journal walked into per-round state plus run totals.
#[derive(Debug, Default)]
struct Replayed {
    rounds: Vec<RoundReplay>,
    completions: BTreeMap<u32, u32>,
    /// Paid rewards accumulated in frame order (bit-exact vs live).
    total_paid: f64,
    measurements: u64,
    demand_frames: usize,
    selection_frames: usize,
    fault_frames: usize,
    /// `Budget` frames as (round, total_paid_bits) for trajectory checks.
    budget_track: Vec<(u32, f64)>,
}

/// Walks the event stream, enforcing well-formed round framing:
/// `RoundStart r` … frames … `RoundEnd r`, rounds strictly increasing
/// from 1, every event inside a round.
fn walk(events: &[TraceEvent]) -> Result<Replayed, ReplayError> {
    let mut out = Replayed::default();
    let mut open: Option<RoundReplay> = None;
    for event in events {
        match event {
            TraceEvent::RoundStart { round } => {
                if open.is_some() {
                    return Err(malformed(format!("round {round} starts inside an open round")));
                }
                let expected = out.rounds.len() as u32 + 1;
                if *round != expected {
                    return Err(malformed(format!(
                        "round {round} starts out of order (expected {expected})"
                    )));
                }
                open = Some(RoundReplay { round: *round, ..RoundReplay::default() });
            }
            TraceEvent::RoundEnd { round } => {
                let cur = open.take().ok_or_else(|| {
                    malformed(format!("round {round} ends without a matching start"))
                })?;
                if cur.round != *round {
                    return Err(malformed(format!(
                        "round {} start closed by round {round} end",
                        cur.round
                    )));
                }
                out.rounds.push(cur);
            }
            TraceEvent::Publish { task, reward } => {
                let cur =
                    open.as_mut().ok_or_else(|| malformed("publish outside an open round"))?;
                if cur.prices.insert(*task, *reward).is_some() {
                    return Err(malformed(format!(
                        "task {task} published twice in round {}",
                        cur.round
                    )));
                }
            }
            TraceEvent::Submit { task, reward, .. } => {
                let cur = open.as_mut().ok_or_else(|| malformed("submit outside an open round"))?;
                *cur.submits.entry(*task).or_insert(0) += 1;
                out.total_paid += reward;
                out.measurements += 1;
            }
            TraceEvent::TaskComplete { task, round } => {
                if open.is_none() {
                    return Err(malformed("completion outside an open round"));
                }
                if out.completions.insert(*task, *round).is_some() {
                    return Err(malformed(format!("task {task} completed twice")));
                }
            }
            TraceEvent::TaskDemand { .. } => {
                if open.is_none() {
                    return Err(malformed("demand breakdown outside an open round"));
                }
                out.demand_frames += 1;
            }
            TraceEvent::Selection { .. } => {
                if open.is_none() {
                    return Err(malformed("selection outside an open round"));
                }
                out.selection_frames += 1;
            }
            TraceEvent::Budget { round, total_paid, .. } => {
                if open.is_none() {
                    return Err(malformed("budget frame outside an open round"));
                }
                out.budget_track.push((*round, *total_paid));
            }
            TraceEvent::Fault { .. } => {
                out.fault_frames += 1;
            }
        }
    }
    if let Some(cur) = open {
        return Err(malformed(format!("round {} never ends", cur.round)));
    }
    Ok(out)
}

/// Internal-consistency checks that need no live result: every Submit
/// settles at that round's published price for the task, or at 0 when
/// the task is unpublished (a retried upload of a withheld task pays
/// nothing), and the Budget trajectory equals the running payment sum.
fn self_check(events: &[TraceEvent], replayed: &Replayed) -> Result<(), ReplayError> {
    let mut round_idx: usize = 0;
    let mut running_paid = 0.0f64;
    for event in events {
        match event {
            TraceEvent::RoundStart { round } => round_idx = (*round - 1) as usize,
            TraceEvent::Submit { task, reward, user } => {
                running_paid += reward;
                let posted = replayed.rounds[round_idx].prices.get(task).copied().unwrap_or(0.0);
                if reward.to_bits() != posted.to_bits() {
                    return Err(malformed(format!(
                        "round {}: user {user} paid {reward} for task {task} posted at {posted}",
                        round_idx + 1
                    )));
                }
            }
            TraceEvent::Budget { round, total_paid, .. }
                if total_paid.to_bits() != running_paid.to_bits() =>
            {
                return Err(malformed(format!(
                    "round {round}: budget frame says {total_paid} paid, submits sum to {running_paid}"
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

impl Replayed {
    fn summary(&self) -> ReplaySummary {
        ReplaySummary {
            rounds: self.rounds.len() as u32,
            measurements: self.measurements,
            total_paid: self.total_paid,
            completions: self.completions.clone(),
            decision_frames: (self.demand_frames, self.selection_frames, self.fault_frames),
        }
    }
}

/// Audits a journal's internal consistency without a live result:
/// well-formed round framing, every payment priced as published, and a
/// budget trajectory that matches the payment stream.
///
/// # Errors
///
/// [`ReplayError::Trace`] for undecodable bytes, otherwise
/// [`ReplayError::Malformed`].
pub fn audit(bytes: &[u8]) -> Result<ReplaySummary, ReplayError> {
    let events = decode(bytes)?;
    let replayed = walk(&events)?;
    self_check(&events, &replayed)?;
    Ok(replayed.summary())
}

/// Verifies journal `bytes` against the live `result`: recomputes
/// per-round prices, per-round measurement counts, completions and the
/// total payment stream purely from the decoded frames, and requires
/// bit-identical agreement.
///
/// # Errors
///
/// [`ReplayError::Trace`] / [`ReplayError::Malformed`] as [`audit`];
/// [`ReplayError::Mismatch`] when replay disagrees with `result`.
pub fn verify(bytes: &[u8], result: &SimulationResult) -> Result<ReplaySummary, ReplayError> {
    let events = decode(bytes)?;
    verify_events(&events, result)
}

/// [`verify`] over already-decoded events.
///
/// # Errors
///
/// As [`verify`], minus the decode step.
pub fn verify_events(
    events: &[TraceEvent],
    result: &SimulationResult,
) -> Result<ReplaySummary, ReplayError> {
    let replayed = walk(events)?;
    self_check(events, &replayed)?;

    if replayed.rounds.len() != result.rounds.len() {
        return Err(mismatch(format!(
            "journal covers {} rounds, result ran {}",
            replayed.rounds.len(),
            result.rounds.len()
        )));
    }

    for (rep, rr) in replayed.rounds.iter().zip(&result.rounds) {
        if rep.round != rr.round {
            return Err(mismatch(format!("round {} replayed as {}", rr.round, rep.round)));
        }
        // Per-round prices: every Publish frame must match the record,
        // bit for bit, and cover exactly the record's published set.
        for (task, recorded) in rr.rewards.iter().enumerate() {
            let replay_price = rep.prices.get(&(task as u32));
            match (recorded, replay_price) {
                (Some(live), Some(rep_price)) if live.to_bits() == rep_price.to_bits() => {}
                (None, None) => {}
                _ => {
                    return Err(mismatch(format!(
                        "round {}: task {task} priced {recorded:?} live, {replay_price:?} replayed",
                        rr.round
                    )));
                }
            }
        }
        if rep.prices.len() != rr.rewards.iter().flatten().count() {
            return Err(mismatch(format!(
                "round {}: journal published {} tasks, result {}",
                rr.round,
                rep.prices.len(),
                rr.rewards.iter().flatten().count()
            )));
        }
        // Per-round completion counts.
        for (task, &live) in rr.new_measurements.iter().enumerate() {
            let replayed_count = rep.submits.get(&(task as u32)).copied().unwrap_or(0);
            if replayed_count != live {
                return Err(mismatch(format!(
                    "round {}: task {task} got {live} measurements live, {replayed_count} replayed",
                    rr.round
                )));
            }
        }
    }

    // Completions: the journal's (task -> round) map must equal the
    // result's completed_round vector exactly.
    for (task, live) in result.completed_round.iter().enumerate() {
        let replayed_round = replayed.completions.get(&(task as u32)).copied();
        if replayed_round != *live {
            return Err(mismatch(format!(
                "task {task} completed {live:?} live, {replayed_round:?} replayed"
            )));
        }
    }
    if replayed.completions.len() != result.completed_round.iter().flatten().count() {
        return Err(mismatch("journal completes tasks the result does not".to_string()));
    }

    // Totals, bit for bit.
    if replayed.measurements != result.total_measurements() {
        return Err(mismatch(format!(
            "{} measurements live, {} replayed",
            result.total_measurements(),
            replayed.measurements
        )));
    }
    if replayed.total_paid.to_bits() != result.total_paid.to_bits() {
        return Err(mismatch(format!(
            "total paid {} live, {} replayed (bitwise)",
            result.total_paid, replayed.total_paid
        )));
    }

    Ok(replayed.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceWriter;
    use crate::{engine, FaultKind, FaultPlan, Scenario, SelectorKind};

    fn scenario() -> Scenario {
        Scenario::paper_default()
            .with_users(20)
            .with_tasks(8)
            .with_max_rounds(6)
            .with_selector(SelectorKind::GreedyTwoOpt)
            .with_seed(11)
    }

    #[test]
    fn traced_run_verifies_against_its_own_result() {
        let (result, journal) =
            engine::run_traced(&scenario(), &paydemand_obs::Recorder::disabled()).unwrap();
        let summary = verify(&journal, &result).unwrap();
        assert_eq!(u64::from(summary.rounds), result.rounds.len() as u64);
        assert_eq!(summary.measurements, result.total_measurements());
        assert_eq!(summary.total_paid.to_bits(), result.total_paid.to_bits());
        assert!(summary.decision_frames.0 > 0, "no demand breakdowns journalled");
        assert!(summary.decision_frames.1 > 0, "no selections journalled");
        // And the self-contained audit agrees.
        let audited = audit(&journal).unwrap();
        assert_eq!(audited, summary);
    }

    #[test]
    fn traced_faulted_run_verifies_and_journals_fault_frames() {
        let plan = FaultPlan::new(7)
            .with(FaultKind::Dropout { rate: 0.2 })
            .with(FaultKind::DroppedUploads { rate: 0.2 })
            .with(FaultKind::StragglerUploads { rate: 0.3, max_retries: 2, backoff_rounds: 1 })
            .with(FaultKind::DemandOutage { rate: 0.3 })
            .with(FaultKind::BudgetShock { round: 3, factor: 0.5 });
        let s = scenario().with_users(25).with_faults(plan);
        let (result, journal) =
            engine::run_traced(&s, &paydemand_obs::Recorder::disabled()).unwrap();
        let summary = verify(&journal, &result).unwrap();
        assert!(summary.decision_frames.2 > 0, "no fault frames journalled");
    }

    #[test]
    fn tampered_journals_are_rejected() {
        let (result, journal) =
            engine::run_traced(&scenario(), &paydemand_obs::Recorder::disabled()).unwrap();
        let events = decode(&journal).unwrap();

        // Dropping a Submit frame breaks measurement counts.
        let dropped: Vec<TraceEvent> = {
            let mut seen = false;
            events
                .iter()
                .filter(|e| {
                    if !seen && matches!(e, TraceEvent::Submit { .. }) {
                        seen = true;
                        false
                    } else {
                        true
                    }
                })
                .cloned()
                .collect()
        };
        assert!(verify_events(&dropped, &result).is_err());

        // Perturbing one payment by 1 ulp fails the bitwise check.
        let perturbed: Vec<TraceEvent> = {
            let mut done = false;
            events
                .iter()
                .map(|e| match e {
                    TraceEvent::Submit { user, task, reward } if !done => {
                        done = true;
                        TraceEvent::Submit {
                            user: *user,
                            task: *task,
                            reward: f64::from_bits(reward.to_bits() + 1),
                        }
                    }
                    other => other.clone(),
                })
                .collect()
        };
        assert!(verify_events(&perturbed, &result).is_err());

        // Reordering rounds is malformed.
        let mut w = TraceWriter::journal();
        w.record(TraceEvent::RoundStart { round: 2 });
        w.record(TraceEvent::RoundEnd { round: 2 });
        assert!(matches!(audit(&w.finish()), Err(ReplayError::Malformed(_))));

        // A dangling round start is malformed.
        let mut w = TraceWriter::journal();
        w.record(TraceEvent::RoundStart { round: 1 });
        assert!(matches!(audit(&w.finish()), Err(ReplayError::Malformed(_))));
    }

    #[test]
    fn verifying_against_the_wrong_result_fails() {
        let (_, journal) =
            engine::run_traced(&scenario(), &paydemand_obs::Recorder::disabled()).unwrap();
        let other = engine::run(&scenario().with_seed(12)).unwrap();
        assert!(matches!(verify(&journal, &other), Err(ReplayError::Mismatch(_))));
    }

    #[test]
    fn undecodable_bytes_surface_the_trace_error() {
        assert!(matches!(
            verify(&[0xFF], &engine::run(&scenario()).unwrap()),
            Err(ReplayError::Trace(TraceError::MissingHeader))
        ));
    }
}
