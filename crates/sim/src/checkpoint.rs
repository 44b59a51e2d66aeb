//! Round-granular engine checkpoints.
//!
//! [`encode`] serialises an [`Engine`]'s complete mutable state at a
//! round boundary into a versioned, self-describing byte buffer;
//! [`resume`] rebuilds an engine from those bytes whose remaining
//! rounds are byte-identical to the uninterrupted run (the chaos test
//! battery enforces this for plain, faulted, street-grid and wandering
//! scenarios).
//!
//! The codec is hand-rolled over [`crate::frame`] and the `bytes`
//! writers — the vendored `serde` is a marker-trait stub with no real
//! serialisation — and is bit-exact: every `f64` travels as its
//! IEEE-754 bit pattern, every RNG as its raw xoshiro state. The
//! layout is:
//!
//! ```text
//! magic "PDCK" | version u8 | scenario fingerprint u64
//! next_round u32 | done u8 | main rng 4×u64 | travel rng 4×u64
//! workload | locations | contributed | quality_received | estimates
//! wander | round records | platform state | injector | retry queue
//! ```
//!
//! Integers are little-endian. Variable-length sections carry `u32`
//! counts. The fingerprint is an FNV-1a 64 hash of the scenario's
//! `Debug` rendering: resuming under a scenario that differs *in any
//! field* (seed, fault plan, mechanism, …) is refused up front rather
//! than silently diverging.
//!
//! Decoding never panics on corrupt input: every read goes through a
//! bounds-checked [`Cursor`] and surfaces [`SimError::Checkpoint`].

use std::collections::HashSet;

use rand::rngs::StdRng;

use paydemand_core::{PlatformState, TaskId, TaskSpec, UserId, UserProfile};
use paydemand_faults::FaultInjector;
use paydemand_geo::mobility::{MobilityState, RandomWaypoint};
use paydemand_geo::{Point, Rect};
use paydemand_obs::Recorder;

use crate::engine::{build_mechanism, build_selector, EngineInstruments, PendingUpload};
use crate::engine::{Engine, RoundRecord};
use crate::frame::{fnv1a64, BufMut, Cursor, CursorError, Header, HeaderError};
use crate::sensing::Estimate;
use crate::{Scenario, SimError, UserMotion, Workload};

const VERSION: u8 = 1;
const HEADER: Header = Header { magic: *b"PDCK", version: VERSION };

/// FNV-1a 64 over the scenario's `Debug` rendering: cheap, stable
/// within a build, and sensitive to every scenario field including the
/// fault plan.
fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    fnv1a64(format!("{scenario:?}").as_bytes())
}

impl From<CursorError> for SimError {
    fn from(e: CursorError) -> Self {
        match e {
            CursorError::Truncated { need, have } => {
                SimError::checkpoint(format!("truncated: need {need} more bytes, have {have}"))
            }
            CursorError::InvalidFlag(b) => SimError::checkpoint(format!("invalid flag byte {b}")),
        }
    }
}

fn put_point(buf: &mut Vec<u8>, p: Point) {
    buf.put_f64_le(p.x);
    buf.put_f64_le(p.y);
}

fn put_rng_state(buf: &mut Vec<u8>, state: [u64; 4]) {
    for word in state {
        buf.put_u64_le(word);
    }
}

/// Serialises `engine` at its current round boundary.
pub(crate) fn encode(engine: &Engine) -> Result<Vec<u8>, SimError> {
    let state = engine.platform.export_state().map_err(|e| {
        SimError::checkpoint(format!("platform state not at a round boundary: {e}"))
    })?;
    let w = &engine.workload;
    let m = w.tasks.len();
    let n = w.users.len();
    let mut buf = Vec::with_capacity(1024 + 128 * (m + n));

    buf.put_slice(&HEADER.bytes());
    buf.put_u64_le(scenario_fingerprint(&engine.scenario));
    buf.put_u32_le(engine.next_round);
    buf.put_u8(u8::from(engine.done));
    put_rng_state(&mut buf, engine.rng.to_state());
    put_rng_state(&mut buf, engine.travel_rng_state);

    // Workload. Task and user ids are their indices by construction.
    put_point(&mut buf, w.area.min());
    put_point(&mut buf, w.area.max());
    buf.put_u32_le(m as u32);
    for t in &w.tasks {
        put_point(&mut buf, t.location());
        buf.put_u32_le(t.deadline());
        buf.put_u32_le(t.required());
    }
    buf.put_u32_le(n as u32);
    for u in &w.users {
        put_point(&mut buf, u.location());
        buf.put_f64_le(u.time_budget());
        buf.put_f64_le(u.speed());
        buf.put_f64_le(u.cost_per_meter());
    }
    for &q in &w.qualities {
        buf.put_f64_le(q);
    }
    for &t in &w.truths {
        buf.put_f64_le(t);
    }

    // The SoA store serialises exactly as the old `Vec<Point>` did —
    // x,y little-endian pairs in index order — so PDCK v1 stays
    // byte-identical across the layout change.
    for p in engine.locations.iter() {
        put_point(&mut buf, p);
    }
    for set in &engine.contributed {
        let mut ids: Vec<u32> = set.iter().map(|t| t.0 as u32).collect();
        ids.sort_unstable();
        buf.put_u32_le(ids.len() as u32);
        for id in ids {
            buf.put_u32_le(id);
        }
    }
    for &q in &engine.quality_received {
        buf.put_f64_le(q);
    }
    for e in &engine.estimates {
        buf.put_u32_le(e.count);
        buf.put_f64_le(e.sum);
        buf.put_f64_le(e.sum_sq);
    }

    // Wander state, present only for Wander motion.
    if engine.wander.is_empty() {
        buf.put_u8(0);
    } else {
        buf.put_u8(1);
        for state in &engine.wander {
            let MobilityState::RandomWaypoint(rw) = state else {
                return Err(SimError::checkpoint("unexpected mobility state variant"));
            };
            buf.put_f64_le(rw.speed());
            match rw.waypoint() {
                Some(p) => {
                    buf.put_u8(1);
                    put_point(&mut buf, p);
                }
                None => buf.put_u8(0),
            }
        }
    }

    // Completed round records.
    buf.put_u32_le(engine.rounds.len() as u32);
    for rr in &engine.rounds {
        buf.put_u32_le(rr.round);
        for reward in &rr.rewards {
            match reward {
                Some(v) => {
                    buf.put_u8(1);
                    buf.put_f64_le(*v);
                }
                None => buf.put_u8(0),
            }
        }
        for &c in &rr.new_measurements {
            buf.put_u32_le(c);
        }
        for &p in &rr.user_profits {
            buf.put_f64_le(p);
        }
        for &s in &rr.user_selected {
            buf.put_u32_le(s);
        }
    }

    // Platform state.
    for &r in &state.received {
        buf.put_u32_le(r);
    }
    for cr in &state.completed_round {
        match cr {
            Some(round) => {
                buf.put_u8(1);
                buf.put_u32_le(*round);
            }
            None => buf.put_u8(0),
        }
    }
    for ids in &state.contributors {
        buf.put_u32_le(ids.len() as u32);
        for &id in ids {
            buf.put_u32_le(id as u32);
        }
    }
    for &r in &state.current_rewards {
        buf.put_f64_le(r);
    }
    for receipts in &state.round_receipts {
        buf.put_u32_le(receipts.len() as u32);
        for &r in receipts {
            buf.put_u32_le(r);
        }
    }
    buf.put_u32_le(state.round);
    buf.put_f64_le(state.total_paid);
    match state.spend_cap {
        Some(cap) => {
            buf.put_u8(1);
            buf.put_f64_le(cap);
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(state.mechanism.len() as u32);
    buf.put_slice(&state.mechanism);

    // Fault injector RNG (arrival rounds are redrawn deterministically
    // at rebuild, then the stream is restored over them).
    match &engine.injector {
        Some(inj) => {
            buf.put_u8(1);
            put_rng_state(&mut buf, inj.rng_state());
        }
        None => buf.put_u8(0),
    }

    // Retry queue.
    buf.put_u32_le(engine.pending.len() as u32);
    for up in &engine.pending {
        buf.put_u32_le(up.user as u32);
        buf.put_u32_le(up.task.0 as u32);
        buf.put_f64_le(up.value);
        buf.put_u32_le(up.attempts);
        buf.put_u32_le(up.due_round);
    }

    Ok(buf)
}

fn point(r: &mut Cursor<'_>) -> Result<Point, CursorError> {
    let x = r.f64()?;
    let y = r.f64()?;
    Ok(Point::new(x, y))
}

fn rng_state(r: &mut Cursor<'_>) -> Result<[u64; 4], CursorError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

/// Rebuilds an engine from `bytes` under `scenario`; see
/// [`Engine::resume`].
pub(crate) fn resume(
    scenario: &Scenario,
    bytes: &[u8],
    recorder: &Recorder,
) -> Result<Engine, SimError> {
    scenario.validate()?;
    let mut r = Cursor::new(bytes);

    HEADER.check(&mut r).map_err(|e| match e {
        HeaderError::Truncated(e) => e.into(),
        HeaderError::Magic => SimError::checkpoint("bad magic: not a checkpoint"),
        HeaderError::Version(v) => {
            SimError::checkpoint(format!("unsupported checkpoint version {v} (expected {VERSION})"))
        }
    })?;
    let fingerprint = r.u64()?;
    if fingerprint != scenario_fingerprint(scenario) {
        return Err(SimError::checkpoint(
            "scenario does not match the checkpointed run (fingerprint mismatch)",
        ));
    }

    let next_round = r.u32()?;
    let done = r.flag()?;
    let main_rng_state = rng_state(&mut r)?;
    let travel_rng_state = rng_state(&mut r)?;

    // Workload.
    let area_min = point(&mut r)?;
    let area_max = point(&mut r)?;
    let area = Rect::new(area_min, area_max)
        .map_err(|e| SimError::checkpoint(format!("bad area: {e}")))?;
    let m = r.u32()? as usize;
    let mut tasks = Vec::new();
    for i in 0..m {
        let location = point(&mut r)?;
        let deadline = r.u32()?;
        let required = r.u32()?;
        tasks.push(
            TaskSpec::new(TaskId(i), location, deadline, required)
                .map_err(|e| SimError::checkpoint(format!("bad task {i}: {e}")))?,
        );
    }
    let n = r.u32()? as usize;
    let mut users = Vec::new();
    for i in 0..n {
        let location = point(&mut r)?;
        let time_budget = r.f64()?;
        let speed = r.f64()?;
        let cost_per_meter = r.f64()?;
        users.push(
            UserProfile::new(UserId(i), location, time_budget, speed, cost_per_meter)
                .map_err(|e| SimError::checkpoint(format!("bad user {i}: {e}")))?,
        );
    }
    let mut qualities = Vec::new();
    for _ in 0..n {
        qualities.push(r.f64()?);
    }
    let mut truths = Vec::new();
    for _ in 0..m {
        truths.push(r.f64()?);
    }
    let workload = Workload { area, tasks, users, qualities, truths };

    let mut locations = paydemand_geo::PositionStore::default();
    for _ in 0..n {
        locations.push(point(&mut r)?);
    }
    let mut contributed: Vec<HashSet<TaskId>> = Vec::new();
    for _ in 0..n {
        let k = r.u32()? as usize;
        let mut set = HashSet::new();
        for _ in 0..k {
            set.insert(TaskId(r.u32()? as usize));
        }
        contributed.push(set);
    }
    let mut quality_received = Vec::new();
    for _ in 0..m {
        quality_received.push(r.f64()?);
    }
    let mut estimates = Vec::new();
    for _ in 0..m {
        let count = r.u32()?;
        let sum = r.f64()?;
        let sum_sq = r.f64()?;
        estimates.push(Estimate { count, sum, sum_sq });
    }

    let wander = if r.flag()? {
        if !matches!(scenario.user_motion, UserMotion::Wander { .. }) {
            return Err(SimError::checkpoint("wander state present for a non-wander scenario"));
        }
        let mut states = Vec::new();
        for _ in 0..n {
            let speed = r.f64()?;
            // `with_waypoint` panics on a speed it could not walk at.
            if !(speed.is_finite() && speed > 0.0) {
                return Err(SimError::checkpoint(format!("bad wander speed {speed}")));
            }
            let waypoint = if r.flag()? { Some(point(&mut r)?) } else { None };
            states.push(MobilityState::RandomWaypoint(RandomWaypoint::with_waypoint(
                speed, waypoint,
            )));
        }
        states
    } else {
        if matches!(scenario.user_motion, UserMotion::Wander { .. }) {
            return Err(SimError::checkpoint("wander state missing for a wander scenario"));
        }
        Vec::new()
    };

    let round_count = r.u32()? as usize;
    let mut rounds = Vec::new();
    for _ in 0..round_count {
        let round = r.u32()?;
        let mut rewards = Vec::new();
        for _ in 0..m {
            rewards.push(if r.flag()? { Some(r.f64()?) } else { None });
        }
        let mut new_measurements = Vec::new();
        for _ in 0..m {
            new_measurements.push(r.u32()?);
        }
        let mut user_profits = Vec::new();
        for _ in 0..n {
            user_profits.push(r.f64()?);
        }
        let mut user_selected = Vec::new();
        for _ in 0..n {
            user_selected.push(r.u32()?);
        }
        rounds.push(RoundRecord { round, rewards, new_measurements, user_profits, user_selected });
    }

    // Platform state.
    let mut received = Vec::new();
    for _ in 0..m {
        received.push(r.u32()?);
    }
    let mut completed_round = Vec::new();
    for _ in 0..m {
        completed_round.push(if r.flag()? { Some(r.u32()?) } else { None });
    }
    let mut contributors = Vec::new();
    for _ in 0..m {
        let k = r.u32()? as usize;
        let mut ids = Vec::new();
        for _ in 0..k {
            ids.push(r.u32()? as usize);
        }
        contributors.push(ids);
    }
    let mut current_rewards = Vec::new();
    for _ in 0..m {
        current_rewards.push(r.f64()?);
    }
    let mut round_receipts = Vec::new();
    for _ in 0..m {
        let k = r.u32()? as usize;
        let mut receipts = Vec::new();
        for _ in 0..k {
            receipts.push(r.u32()?);
        }
        round_receipts.push(receipts);
    }
    let platform_round = r.u32()?;
    let total_paid = r.f64()?;
    let spend_cap = if r.flag()? { Some(r.f64()?) } else { None };
    let mech_len = r.u32()? as usize;
    let mechanism_state = r.take(mech_len)?.to_vec();
    let state = PlatformState {
        received,
        completed_round,
        contributors,
        current_rewards,
        round_receipts,
        round: platform_round,
        total_paid,
        spend_cap,
        mechanism: mechanism_state,
    };

    let injector_state = if r.flag()? { Some(rng_state(&mut r)?) } else { None };

    let pending_count = r.u32()? as usize;
    let mut pending = Vec::new();
    for _ in 0..pending_count {
        let user = r.u32()? as usize;
        let task = TaskId(r.u32()? as usize);
        let value = r.f64()?;
        let attempts = r.u32()?;
        let due_round = r.u32()?;
        if user >= n || task.0 >= m {
            return Err(SimError::checkpoint(format!(
                "pending upload references unknown user {user} or task {}",
                task.0
            )));
        }
        pending.push(PendingUpload { user, task, value, attempts, due_round });
    }

    if r.remaining() > 0 {
        return Err(SimError::checkpoint(format!(
            "{} trailing bytes after checkpoint payload",
            r.remaining()
        )));
    }

    // Reassemble the engine: immutable parts rebuilt from the scenario
    // (mechanism, platform shell, travel context, selector), mutable
    // parts restored from the decoded state.
    let mechanism = build_mechanism(scenario)?;
    let mut platform = paydemand_core::Platform::new(
        workload.tasks.clone(),
        mechanism,
        workload.area,
        scenario.neighbor_radius,
    )?;
    platform.set_publish_expired(scenario.publish_expired);
    platform.set_indexing_mode(scenario.indexing);
    platform.set_recorder(recorder);
    platform
        .restore_state(state)
        .map_err(|e| SimError::checkpoint(format!("platform restore failed: {e}")))?;

    let mut travel_rng = StdRng::from_state(travel_rng_state);
    let travel =
        crate::engine::TravelContext::for_scenario(scenario, workload.area, &mut travel_rng)?;

    let injector = match (&scenario.faults, injector_state) {
        (Some(plan), Some(rng_state)) if !plan.is_empty() => {
            let mut inj = FaultInjector::new(plan, scenario.seed, n, recorder)
                .map_err(|e| SimError::checkpoint(format!("fault plan rebuild failed: {e}")))?;
            inj.restore_rng(rng_state);
            Some(inj)
        }
        (Some(plan), None) if !plan.is_empty() => {
            return Err(SimError::checkpoint(
                "scenario has a fault plan but the checkpoint has no injector state",
            ));
        }
        (_, Some(_)) => {
            return Err(SimError::checkpoint(
                "checkpoint has injector state but the scenario has no fault plan",
            ));
        }
        _ => None,
    };

    let selector = build_selector(scenario.selector);
    let metrics_on = recorder.is_enabled();
    let instruments = EngineInstruments::new(recorder, selector.name());
    instruments.runs_total.inc();

    Ok(Engine {
        scenario: scenario.clone(),
        workload,
        rng: StdRng::from_state(main_rng_state),
        travel_rng_state,
        travel,
        platform,
        selector,
        locations,
        contributed,
        quality_received,
        estimates,
        wander,
        rounds,
        next_round,
        done,
        injector,
        pending,
        inbox: Vec::new(),
        last_outcomes: Vec::new(),
        recorder: recorder.clone(),
        metrics_on,
        instruments,
        trace: crate::trace::TraceSink::disabled(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan, SelectorKind};

    fn scenario() -> Scenario {
        Scenario::paper_default()
            .with_users(15)
            .with_tasks(6)
            .with_max_rounds(5)
            .with_selector(SelectorKind::Greedy)
            .with_seed(21)
    }

    fn faulted() -> Scenario {
        scenario().with_faults(
            FaultPlan::new(4)
                .with(FaultKind::DroppedUploads { rate: 0.2 })
                .with(FaultKind::StragglerUploads { rate: 0.3, max_retries: 2, backoff_rounds: 1 })
                .with(FaultKind::GpsNoise { sigma: 20.0 }),
        )
    }

    #[test]
    fn checkpoint_bytes_are_stable_across_resume() {
        // Resuming and immediately re-checkpointing must reproduce the
        // exact bytes: the codec loses nothing.
        for s in [scenario(), faulted()] {
            let recorder = Recorder::disabled();
            let mut engine = Engine::new(&s, &recorder).unwrap();
            engine.step_round().unwrap();
            engine.step_round().unwrap();
            let bytes = engine.checkpoint().unwrap();
            let resumed = Engine::resume(&s, &bytes, &recorder).unwrap();
            let again = resumed.checkpoint().unwrap();
            assert_eq!(bytes, again, "re-encoded checkpoint diverged for {s:?}");
        }
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let s = scenario();
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let bytes = engine.checkpoint().unwrap();
        for cut in 0..bytes.len() {
            let result = Engine::resume(&s, &bytes[..cut], &Recorder::disabled());
            assert!(
                matches!(result, Err(SimError::Checkpoint { .. })),
                "cut at {cut} did not produce a checkpoint error"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let s = scenario();
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let mut bytes = engine.checkpoint().unwrap();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            Engine::resume(&s, &wrong_magic, &Recorder::disabled()),
            Err(SimError::Checkpoint { .. })
        ));
        bytes[4] = VERSION + 1;
        let err = Engine::resume(&s, &bytes, &Recorder::disabled()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let s = scenario();
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let mut bytes = engine.checkpoint().unwrap();
        bytes.push(0);
        let err = Engine::resume(&s, &bytes, &Recorder::disabled()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn fault_plan_presence_must_match() {
        // A scenario with a plan cannot resume a plain checkpoint even
        // if we bypass the fingerprint by corrupting it to match — the
        // fingerprint already refuses this pairing up front.
        let plain = scenario();
        let engine = Engine::new(&plain, &Recorder::disabled()).unwrap();
        let bytes = engine.checkpoint().unwrap();
        assert!(matches!(
            Engine::resume(&faulted(), &bytes, &Recorder::disabled()),
            Err(SimError::Checkpoint { .. })
        ));
    }

    #[test]
    fn checkpoint_metrics_are_recorded() {
        let recorder = Recorder::enabled();
        let s = scenario();
        let mut engine = Engine::new(&s, &recorder).unwrap();
        engine.step_round().unwrap();
        let bytes = engine.checkpoint().unwrap();
        let _ = Engine::resume(&s, &bytes, &recorder).unwrap();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter_value("checkpoint_writes_total", None), Some(1));
        assert_eq!(snap.counter_value("checkpoint_resumes_total", None), Some(1));
        assert!(snap.counter_value("checkpoint_bytes_total", None).unwrap_or(0) > 0);
    }
}
