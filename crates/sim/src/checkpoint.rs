//! Round-granular engine checkpoints.
//!
//! [`encode`] serialises an [`Engine`]'s live state at a round boundary
//! into a versioned, self-describing byte buffer; [`resume`] rebuilds
//! an engine from those bytes whose remaining rounds are byte-identical
//! to the uninterrupted run (the chaos test battery enforces this for
//! plain, faulted, street-grid and wandering scenarios).
//!
//! The codec is hand-rolled over [`crate::frame`] and the `bytes`
//! writers — the vendored `serde` is a marker-trait stub with no real
//! serialisation — and is bit-exact: every `f64` travels as its
//! IEEE-754 bit pattern, every RNG as its raw xoshiro state. The
//! layout is:
//!
//! ```text
//! magic "PDCK" | version u8 = 2 | scenario fingerprint u64
//! next_round u32 | done u8 | main rng 4×u64 | travel rng 4×u64
//! m u32 | n u32 | workload hash u64
//! locations | contributed | quality_received | estimates
//! wander | round records | platform state | injector | retry queue
//! checksum u64
//! ```
//!
//! Integers are little-endian. Variable-length sections carry `u32`
//! counts. The fingerprint is an FNV-1a 64 hash of the scenario's
//! `Debug` rendering: resuming under a scenario that differs *in any
//! field* (seed, fault plan, mechanism, …) is refused up front rather
//! than silently diverging.
//!
//! Only state that changes is written. The workload (tasks, user
//! profiles, qualities, truths) is never stored: [`resume`] draws it
//! again from the scenario seed, and refuses the file unless the draw
//! leaves the main RNG exactly on the stored travel state and hashes to
//! the stored workload hash. Per-user data is sparse, in user order:
//! `contributed` lists only users with a contribution (`user u32 | k
//! u32 | k task ids`, strictly increasing), and each round record lists
//! only the users with an entry (`user u32 | profit f64 | selected
//! u32`).
//!
//! The checksum trailer is [`fnv1a64_words`] over every byte before it,
//! read as little-endian words (the last one zero-padded). It is
//! checked right after the magic and version, so a damaged or cut file
//! is refused before any field is read, and a file of another version
//! is refused by its version. Decoding never panics on corrupt input:
//! every read goes through a bounds-checked [`Cursor`] and surfaces
//! [`SimError::Checkpoint`].

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use paydemand_core::{PlatformState, TaskId};
use paydemand_faults::FaultInjector;
use paydemand_geo::mobility::RandomWaypoint;
use paydemand_geo::Point;
use paydemand_obs::Recorder;

use crate::engine::{build_mechanism, EngineInstruments, PendingUpload};
use crate::engine::{Engine, RoundRecord, UserRound};
use crate::frame::{fnv1a64, fnv1a64_words, BufMut, Cursor, CursorError, Header, HeaderError};
use crate::sensing::Estimate;
use crate::{Scenario, SimError, UserMotion, Workload};

const VERSION: u8 = 2;
const HEADER: Header = Header { magic: *b"PDCK", version: VERSION };
const TRAILER_LEN: usize = 8;

/// FNV-1a 64 over the scenario's `Debug` rendering: cheap, stable
/// within a build, and sensitive to every scenario field including the
/// fault plan.
fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    fnv1a64(format!("{scenario:?}").as_bytes())
}

/// Every field of `w`, each `f64` by its bits, as one word hash.
pub(crate) fn workload_hash(w: &Workload) -> u64 {
    let point = |p: Point| [p.x.to_bits(), p.y.to_bits()];
    let area = point(w.area.min()).into_iter().chain(point(w.area.max()));
    let tasks = w.tasks.iter().flat_map(|t| {
        let [x, y] = point(t.location());
        [x, y, u64::from(t.deadline()), u64::from(t.required())]
    });
    let users = w.users.iter().flat_map(|u| {
        let [x, y] = point(u.location());
        [x, y, u.time_budget().to_bits(), u.speed().to_bits(), u.cost_per_meter().to_bits()]
    });
    let values = w.qualities.iter().chain(&w.truths).map(|v| v.to_bits());
    fnv1a64_words(area.chain(tasks).chain(users).chain(values))
}

/// The trailer over `body`: its little-endian words, the last one
/// zero-padded.
fn checksum(body: &[u8]) -> u64 {
    let (words, tail) = body.as_chunks::<8>();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    let last = (!tail.is_empty()).then_some(u64::from_le_bytes(last));
    fnv1a64_words(words.iter().map(|w| u64::from_le_bytes(*w)).chain(last))
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
    let per_user = if engine.wander.is_empty() { 16 } else { 41 };
    let mut buf = Vec::with_capacity(1024 + per_user * n + (64 + 16 * engine.rounds.len()) * m);

    buf.put_slice(&HEADER.bytes());
    buf.put_u64_le(scenario_fingerprint(&engine.scenario));
    buf.put_u32_le(engine.next_round);
    buf.put_u8(u8::from(engine.done));
    put_rng_state(&mut buf, engine.rng.to_state());
    put_rng_state(&mut buf, engine.travel_rng_state);

    // The workload itself is drawn again at resume.
    buf.put_u32_le(m as u32);
    buf.put_u32_le(n as u32);
    buf.put_u64_le(*engine.workload_hash.get_or_init(|| workload_hash(w)));

    for p in engine.locations.iter() {
        put_point(&mut buf, p);
    }
    let contributors = engine.contributed.iter().enumerate().filter(|(_, ids)| !ids.is_empty());
    buf.put_u32_le(contributors.clone().count() as u32);
    for (user, ids) in contributors {
        buf.put_u32_le(user as u32);
        buf.put_u32_le(ids.len() as u32);
        for id in ids {
            buf.put_u32_le(id.0 as u32);
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
        for walker in &engine.wander {
            buf.put_f64_le(walker.speed());
            match walker.waypoint() {
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
        buf.put_u32_le(rr.users.len() as u32);
        for u in &rr.users {
            buf.put_u32_le(u.user);
            buf.put_f64_le(u.profit);
            buf.put_u32_le(u.selected);
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

    let sum = checksum(&buf);
    buf.put_u64_le(sum);
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

/// Reads a user id that must name one of `n` users and, within one
/// sparse list, come after `prev`.
fn next_user(r: &mut Cursor<'_>, prev: Option<u32>, n: usize) -> Result<u32, SimError> {
    let user = r.u32()?;
    if user as usize >= n || prev.is_some_and(|p| user <= p) {
        return Err(SimError::checkpoint(format!("user {user} is unknown or out of order")));
    }
    Ok(user)
}

/// Rebuilds an engine from `bytes` under `scenario`; see
/// [`Engine::resume`].
pub(crate) fn resume(
    scenario: &Scenario,
    bytes: &[u8],
    recorder: &Recorder,
) -> Result<Engine, SimError> {
    scenario.validate()?;
    let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(TRAILER_LEN));
    let mut r = Cursor::new(body);

    HEADER.check(&mut r).map_err(|e| match e {
        HeaderError::Truncated(e) => e.into(),
        HeaderError::Magic => SimError::checkpoint("bad magic: not a checkpoint"),
        HeaderError::Version(v) => {
            SimError::checkpoint(format!("unsupported checkpoint version {v} (expected {VERSION})"))
        }
    })?;
    // The header left a body, so the trailer is whole.
    if Cursor::new(trailer).u64()? != checksum(body) {
        return Err(SimError::checkpoint("checksum mismatch: the checkpoint is damaged"));
    }
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

    // Workload: drawn again from the scenario seed, as `Engine::new`
    // drew it, and checked against the checkpointed engine's.
    let m = r.u32()? as usize;
    let n = r.u32()? as usize;
    let stored_hash = r.u64()?;
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let workload = Workload::generate(scenario, &mut rng)?;
    if (workload.tasks.len(), workload.users.len()) != (m, n) {
        return Err(SimError::checkpoint(format!(
            "checkpoint has {m} tasks and {n} users; the scenario draws {} and {}",
            workload.tasks.len(),
            workload.users.len()
        )));
    }
    if rng.to_state() != travel_rng_state {
        return Err(SimError::checkpoint(
            "the scenario's workload draw does not end on the checkpointed RNG state",
        ));
    }
    let hash = workload_hash(&workload);
    if hash != stored_hash {
        return Err(SimError::checkpoint(
            "workload does not match the checkpointed run (workload hash mismatch)",
        ));
    }

    let mut locations = paydemand_geo::PositionStore::default();
    for _ in 0..n {
        locations.push(point(&mut r)?);
    }
    let mut contributed: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    let mut prev = None;
    for _ in 0..r.u32()? {
        let user = next_user(&mut r, prev, n)?;
        prev = Some(user);
        let k = r.u32()?;
        // `encode` writes only users who contributed: an empty list
        // would resume, then checkpoint without this entry.
        if k == 0 {
            return Err(SimError::checkpoint(format!("user {user}'s contributed list is empty")));
        }
        // The engine binary-searches these lists, so each must be
        // strictly increasing task ids of this workload.
        let ids = &mut contributed[user as usize];
        for _ in 0..k {
            let id = r.u32()? as usize;
            if id >= m || ids.last().is_some_and(|last| id <= last.0) {
                return Err(SimError::checkpoint(format!(
                    "user {user}'s contributed task {id} is unknown or out of order"
                )));
            }
            ids.push(TaskId(id));
        }
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
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            let speed = r.f64()?;
            // `with_waypoint` panics on a speed it could not walk at.
            if !(speed.is_finite() && speed > 0.0) {
                return Err(SimError::checkpoint(format!("bad wander speed {speed}")));
            }
            let waypoint = if r.flag()? { Some(point(&mut r)?) } else { None };
            states.push(RandomWaypoint::with_waypoint(speed, waypoint));
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
        let mut users = Vec::new();
        let mut prev = None;
        for _ in 0..r.u32()? {
            let user = next_user(&mut r, prev, n)?;
            prev = Some(user);
            let profit = r.f64()?;
            let selected = r.u32()?;
            users.push(UserRound { user, profit, selected });
        }
        rounds.push(RoundRecord { round, rewards, new_measurements, users });
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

    let metrics_on = recorder.is_enabled();
    let instruments = EngineInstruments::new(recorder, scenario.selector.label());
    instruments.runs_total.inc();

    Ok(Engine {
        scenario: scenario.clone(),
        workload,
        workload_hash: OnceLock::from(hash),
        rng: StdRng::from_state(main_rng_state),
        travel_rng_state,
        travel,
        platform,
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
        order: Vec::new(),
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
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn a_workload_the_scenario_does_not_draw_is_refused() {
        // `with_workload` engines checkpoint like any other, but resume
        // draws the workload from the scenario seed and finds another.
        let s = scenario();
        let recorder = Recorder::disabled();
        let resume_error = |workload: Workload, rng: StdRng| {
            let engine = Engine::with_workload(&s, workload, rng, &recorder).unwrap();
            let bytes = engine.checkpoint().unwrap();
            match Engine::resume(&s, &bytes, &recorder) {
                Err(SimError::Checkpoint { message }) => message,
                other => panic!("resumed a foreign workload: {other:?}"),
            }
        };
        let mut rng = StdRng::seed_from_u64(s.seed);
        let mut edited = Workload::generate(&s, &mut rng).unwrap();
        edited.qualities[3] = 0.5;
        assert!(resume_error(edited, rng).contains("workload hash"));
        let mut other_seed = StdRng::seed_from_u64(s.seed + 1);
        let other = Workload::generate(&s, &mut other_seed).unwrap();
        assert!(resume_error(other, other_seed).contains("RNG state"));
    }

    #[test]
    fn resume_keeps_the_workload_and_its_hash() {
        let s = faulted();
        let recorder = Recorder::disabled();
        let mut engine = Engine::new(&s, &recorder).unwrap();
        engine.step_round().unwrap();
        let bytes = engine.checkpoint().unwrap();
        let resumed = Engine::resume(&s, &bytes, &recorder).unwrap();
        assert_eq!(resumed.workload, engine.workload);
        assert_eq!(resumed.workload_hash.get(), engine.workload_hash.get());
        assert_eq!(resumed.workload_hash.get(), Some(&workload_hash(&engine.workload)));
    }

    /// `bytes` with its body changed by `edit` and signed again, as a
    /// file written by another build would be.
    fn resigned(mut bytes: Vec<u8>, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        bytes.truncate(bytes.len() - TRAILER_LEN);
        edit(&mut bytes);
        let sum = checksum(&bytes);
        bytes.put_u64_le(sum);
        bytes
    }

    /// Offset of the `contributed` section of an `n`-user checkpoint:
    /// after the header, fingerprint, round, done flag, both RNGs, m, n,
    /// the workload hash and the locations.
    fn contributed_at(n: usize) -> usize {
        5 + 8 + 4 + 1 + 2 * 32 + 4 + 4 + 8 + 16 * n
    }

    fn refusal(s: &Scenario, bytes: &[u8]) -> String {
        match Engine::resume(s, bytes, &Recorder::disabled()) {
            Err(SimError::Checkpoint { message }) => message,
            other => panic!("resumed or failed otherwise: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn signed_round_entries_with_unknown_or_out_of_order_users_are_refused() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.step_round().unwrap();
        let n = engine.workload.users.len() as u32;
        let entry = |user| UserRound { user, profit: 1.0, selected: 1 };
        for users in [vec![entry(3), entry(1)], vec![entry(2), entry(2)], vec![entry(n)]] {
            engine.rounds[0].users = users;
            let bytes = engine.checkpoint().unwrap();
            assert!(refusal(&s, &bytes).contains("unknown or out of order"));
        }
    }

    #[test]
    fn signed_contributions_with_unknown_or_out_of_order_users_are_refused() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.contributed[1].push(TaskId(0));
        engine.contributed[2].push(TaskId(1));
        let bytes = engine.checkpoint().unwrap();
        assert!(Engine::resume(&s, &bytes, &Recorder::disabled()).is_ok());
        let n = engine.workload.users.len();
        let at = contributed_at(n);
        let words: Vec<u32> = bytes[at..at + 28]
            .chunks(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        // count | user 1 | k | task 0 | user 2 | k | task 1
        assert_eq!(words, [2, 1, 1, 0, 2, 1, 1]);
        for second in [0, 1, n as u32] {
            let damaged = resigned(bytes.clone(), |body| {
                body[at + 16..at + 20].copy_from_slice(&second.to_le_bytes());
            });
            assert!(refusal(&s, &damaged).contains("unknown or out of order"), "user {second}");
        }
    }

    #[test]
    fn a_signed_empty_contribution_list_is_refused() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.contributed[1].push(TaskId(0));
        engine.contributed[2].push(TaskId(1));
        let mut bytes = engine.checkpoint().unwrap();
        let at = contributed_at(engine.workload.users.len());
        // count | user 1 | k | task 0 | user 2 | k | task 1: drop user
        // 1's one task and set its k to 0.
        bytes.drain(at + 12..at + 16);
        let damaged = resigned(bytes, |body| {
            body[at + 8..at + 12].copy_from_slice(&0u32.to_le_bytes());
        });
        assert!(refusal(&s, &damaged).contains("user 1's contributed list is empty"));
    }

    #[test]
    fn signed_contributed_tasks_that_are_unknown_or_out_of_order_are_refused() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.contributed[1] = vec![TaskId(2), TaskId(5)];
        let bytes = engine.checkpoint().unwrap();
        let resumed = Engine::resume(&s, &bytes, &Recorder::disabled()).unwrap();
        assert_eq!(resumed.contributed[1], [TaskId(2), TaskId(5)]);
        let (m, n) = (engine.workload.tasks.len() as u32, engine.workload.users.len());
        let at = contributed_at(n);
        let words: Vec<u32> = bytes[at..at + 20]
            .chunks(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        // count | user 1 | k | task 2 | task 5
        assert_eq!(words, [1, 1, 2, 2, 5]);
        for (first, second) in [(5, 2), (2, 2), (2, m), (m, m + 1)] {
            let damaged = resigned(bytes.clone(), |body| {
                body[at + 12..at + 16].copy_from_slice(&first.to_le_bytes());
                body[at + 16..at + 20].copy_from_slice(&second.to_le_bytes());
            });
            assert!(
                refusal(&s, &damaged).contains("unknown or out of order"),
                "tasks {first}, {second}"
            );
        }
    }

    #[test]
    fn a_signed_wander_speed_that_cannot_be_walked_is_refused() {
        let mut s = scenario();
        s.user_motion = UserMotion::Wander { seconds: 60.0 };
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let (m, n) = (engine.workload.tasks.len(), engine.workload.users.len());
        let bytes = engine.checkpoint().unwrap();
        // After an empty `contributed` list, `quality_received` and the
        // estimates: the wander flag, then the first user's speed.
        let at = contributed_at(n) + 4 + 28 * m;
        assert_eq!(bytes[at], 1);
        assert_eq!(bytes[at + 1..at + 9], engine.wander[0].speed().to_le_bytes());
        for speed in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let damaged = resigned(bytes.clone(), |body| {
                body[at + 1..at + 9].copy_from_slice(&speed.to_le_bytes());
            });
            assert!(refusal(&s, &damaged).contains("bad wander speed"), "speed {speed}");
        }
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
