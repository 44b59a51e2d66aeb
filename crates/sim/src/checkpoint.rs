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
//! magic "PDCK" | version u8 = 3 | scenario fingerprint u64
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
//! Only state that changes is written. The workload (tasks, the
//! users' homes and time budgets, qualities, truths) is never stored:
//! [`resume`] draws it again from the scenario seed, and refuses the
//! file unless the draw leaves the main RNG exactly on the stored
//! travel state and hashes to the stored workload hash. Per-user data
//! is sparse, in user order:
//!
//! * `locations` holds ⌈n/64⌉ `u64` words, then one point (x, y) for
//!   each set bit, in user order. Bit `i % 64` of word `i / 64` is set
//!   when user `i` is away: their position differs from their drawn
//!   home by bits (`-0.0` against a `0.0` home is away). A user at home
//!   costs one bit.
//! * `contributed` lists only users with a contribution (`user u32 | k
//!   u32 | k task ids`, strictly increasing).
//! * each round record lists only the users with an entry (`user u32 |
//!   profit f64 | selected u32`).
//!
//! The wander section, present (flag 1) only under `Wander` motion,
//! holds n waypoints of 16 bytes as the walkers keep them: a walker
//! with none writes the two canonical NaNs. Every user walks at the
//! scenario's speed, so no speed is stored.
//!
//! The checksum trailer is [`fnv1a64_words`] over every byte before it,
//! read as little-endian words (the last one zero-padded). It is
//! checked right after the magic and version, so a damaged or cut file
//! is refused before any field is read, and a file of another version
//! (v1, v2) is refused by its version. Decoding never panics on corrupt
//! input: every read goes through a bounds-checked [`Cursor`] and
//! surfaces [`SimError::Checkpoint`].
//!
//! State moves in bulk. [`encode`] counts the file's exact length
//! first (a compare pass counts the away users) and allocates it once,
//! then writes each run of fixed-size fields (the away words, waypoints,
//! per-task arrays, contributor lists, round entries, the retry queue)
//! as one slice, straight from the engine's vectors and the platform's
//! borrowed [`PlatformState`]. [`resume`] reads those runs back with one
//! bounds check each, into vectors allocated at their final length from
//! counts already checked: m and n against the workload the scenario
//! draws, every other count against the bytes that remain. It also
//! refuses what `encode` could not have written: an away bit past user
//! n, an away user whose stored position is their home, a position or
//! waypoint outside the area (a NaN other than a walker's no-waypoint
//! pair included), and a sorted id list (a user's contributed tasks, a
//! task's contributors) that is not strictly increasing or names an
//! unknown id.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use paydemand_core::{PlatformState, TaskId, UserId};
use paydemand_faults::FaultInjector;
use paydemand_geo::mobility::RandomWaypoint;
use paydemand_geo::{Point, PositionStore, Rect};
use paydemand_obs::Recorder;

use crate::contributions::Contributions;
use crate::engine::{build_mechanism, EngineInstruments, PendingUpload};
use crate::engine::{Engine, RoundRecord, UserRound};
use crate::frame::{fnv1a64, fnv1a64_words, BufMut, Cursor, CursorError, Header, HeaderError};
use crate::sensing::Estimate;
use crate::{Scenario, SimError, UserMotion, Workload};

const VERSION: u8 = 3;
const HEADER: Header = Header { magic: *b"PDCK", version: VERSION };
const TRAILER_LEN: usize = 8;
/// Bytes before the locations: the header, fingerprint, round, done
/// flag, both RNGs, m, n and the workload hash.
const PREFIX_LEN: usize = 5 + 8 + 4 + 1 + 2 * 32 + 4 + 4 + 8;

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
    let (speed, cost) = (w.speed.to_bits(), w.cost_per_meter.to_bits());
    let users = w.homes.iter().zip(&w.time_budgets).flat_map(|(home, budget)| {
        let [x, y] = point(*home);
        [x, y, budget.to_bits(), speed, cost]
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

fn put_rng_state(buf: &mut Vec<u8>, state: [u64; 4]) {
    for word in state {
        buf.put_u64_le(word);
    }
}

/// Appends a run of fixed-size chunks in one resize of `buf`: one
/// capacity check for the run instead of one per field.
fn put_chunks<const N: usize>(buf: &mut Vec<u8>, chunks: impl ExactSizeIterator<Item = [u8; N]>) {
    let at = buf.len();
    buf.resize(at + N * chunks.len(), 0);
    for (slot, chunk) in buf[at..].as_chunks_mut().0.iter_mut().zip(chunks) {
        *slot = chunk;
    }
}

/// `fields` end to end, as one `N`-byte chunk.
#[inline]
fn chunk<const N: usize>(fields: &[&[u8]]) -> [u8; N] {
    let mut out = [0; N];
    let mut at = 0;
    for field in fields {
        out[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    assert_eq!(at, N, "fields do not fill the chunk");
    out
}

/// A `u32` count, then the ids one by one: lists are short, so a resize
/// per list would cost more than its ids.
fn put_list(buf: &mut Vec<u8>, ids: impl ExactSizeIterator<Item = u32>) {
    buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
    }
}

/// A 0/1 flag, then `value`'s bytes when it is present.
fn put_flagged<const N: usize>(buf: &mut Vec<u8>, value: Option<[u8; N]>) {
    match value {
        Some(bytes) => {
            buf.push(1);
            buf.extend_from_slice(&bytes);
        }
        None => buf.push(0),
    }
}

/// The encoded length of a flagged field of `len` bytes.
fn flagged_len<T>(value: &Option<T>, len: usize) -> usize {
    1 + if value.is_some() { len } else { 0 }
}

/// The encoded length of lists written by [`put_list`].
fn lists_len<T>(lists: &[Vec<T>]) -> usize {
    lists.iter().map(|list| 4 + 4 * list.len()).sum()
}

fn point_bytes(p: Point) -> [u8; 16] {
    chunk(&[&p.x.to_le_bytes(), &p.y.to_le_bytes()])
}

/// What a walker with no waypoint keeps, and the file holds for it: two
/// canonical NaNs.
const NO_WAYPOINT: Point = Point { x: f64::NAN, y: f64::NAN };

/// Whether `a` and `b` are the same point bit for bit: `-0.0` is not
/// `0.0`, and a NaN is only its own bits.
#[inline]
fn same_bits(a: Point, b: Point) -> bool {
    (a.x.to_bits() ^ b.x.to_bits()) | (a.y.to_bits() ^ b.y.to_bits()) == 0
}

/// Bit `i` set when the position (`xs[i]`, `ys[i]`) differs from
/// `homes[i]` by bits, for up to 64 users.
#[inline]
fn away_word(xs: &[f64], ys: &[f64], homes: &[Point]) -> u64 {
    let mut word = 0;
    for (i, ((x, y), home)) in xs.iter().zip(ys).zip(homes).enumerate() {
        word |= u64::from(!same_bits(Point::new(*x, *y), *home)) << i;
    }
    word
}

/// The locations section's words: 64 users a word, bit set when the
/// user is away from home.
fn away_words(engine: &Engine) -> impl ExactSizeIterator<Item = u64> + '_ {
    let (xs, ys) = (engine.locations.xs(), engine.locations.ys());
    xs.chunks(64)
        .zip(ys.chunks(64))
        .zip(engine.workload.homes.chunks(64))
        .map(|((xs, ys), homes)| away_word(xs, ys, homes))
}

/// The users whose bits are set in `words`, ascending.
fn set_users(words: &[[u8; 8]]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, word)| {
        let mut bits = u64::from_le_bytes(*word);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let user = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                user
            })
        })
    })
}

/// The exact length of `engine`'s checkpoint, trailer included, with
/// `away` users away from home.
fn encoded_len(engine: &Engine, state: &PlatformState<'_>, away: usize) -> usize {
    let (m, n) = (engine.workload.tasks.len(), engine.workload.homes.len());
    let rounds: usize = engine
        .rounds
        .iter()
        .map(|rr| {
            let rewards: usize = rr.rewards.iter().map(|r| flagged_len(r, 8)).sum();
            4 + rewards + 4 * m + 4 + 16 * rr.users.len()
        })
        .sum();
    let completed: usize = state.completed_round.iter().map(|c| flagged_len(c, 4)).sum();
    let platform = 4 * m
        + completed
        + lists_len(&state.contributors)
        + 8 * m
        + lists_len(&state.round_receipts)
        + 4
        + 8
        + flagged_len(&state.spend_cap, 8)
        + 4
        + state.mechanism.len();
    PREFIX_LEN
        + 8 * n.div_ceil(64)
        + 16 * away
        + 4
        + 8 * engine.contributed.users()
        + 4 * engine.contributed.ids()
        + 28 * m
        + 1
        + 16 * engine.wander.len()
        + 4
        + rounds
        + platform
        + flagged_len(&engine.injector, 32)
        + 4
        + 24 * engine.pending.len()
        + TRAILER_LEN
}

/// Serialises `engine` at its current round boundary into one buffer
/// of the checkpoint's exact length. Each run of fixed-size fields
/// (the away words and points, waypoints, per-task arrays, contributor
/// lists, round entries) is written as one slice, straight from the
/// engine's and the platform's own vectors.
pub(crate) fn encode(engine: &Engine) -> Result<Vec<u8>, SimError> {
    let state = engine.platform.export_state().map_err(|e| {
        SimError::checkpoint(format!("platform state not at a round boundary: {e}"))
    })?;
    let w = &engine.workload;
    let (m, n) = (w.tasks.len(), w.homes.len());
    let away = away_words(engine).map(|word| word.count_ones() as usize).sum();
    let len = encoded_len(engine, &state, away);
    let mut buf = Vec::with_capacity(len);

    buf.put_slice(&HEADER.bytes());
    buf.put_u64_le(
        *engine.scenario_fingerprint.get_or_init(|| scenario_fingerprint(&engine.scenario)),
    );
    buf.put_u32_le(engine.next_round);
    buf.put_u8(u8::from(engine.done));
    put_rng_state(&mut buf, engine.rng.to_state());
    put_rng_state(&mut buf, engine.travel_rng_state);

    // The workload itself is drawn again at resume.
    buf.put_u32_le(m as u32);
    buf.put_u32_le(n as u32);
    buf.put_u64_le(*engine.workload_hash.get_or_init(|| workload_hash(w)));

    // Locations: the away words, then each away user's position.
    let words_at = buf.len();
    put_chunks(&mut buf, away_words(engine).map(u64::to_le_bytes));
    let points_at = buf.len();
    buf.resize(points_at + 16 * away, 0);
    let (head, points) = buf.split_at_mut(points_at);
    let words = head[words_at..].as_chunks::<8>().0;
    for (slot, user) in points.as_chunks_mut::<16>().0.iter_mut().zip(set_users(words)) {
        *slot = point_bytes(engine.locations.point(user));
    }
    buf.put_u32_le(engine.contributed.users() as u32);
    for (user, ids) in engine.contributed.iter() {
        buf.extend_from_slice(&(user as u32).to_le_bytes());
        put_list(&mut buf, ids.iter().map(|id| id.0 as u32));
    }
    put_chunks(&mut buf, engine.quality_received.iter().map(|q| q.to_le_bytes()));
    put_chunks(
        &mut buf,
        engine.estimates.iter().map(|e| {
            chunk::<20>(&[&e.count.to_le_bytes(), &e.sum.to_le_bytes(), &e.sum_sq.to_le_bytes()])
        }),
    );

    // Wander state, present only for Wander motion: each walker's
    // waypoint, or the no-waypoint NaNs.
    buf.put_u8(u8::from(!engine.wander.is_empty()));
    put_chunks(
        &mut buf,
        engine.wander.iter().map(|w| point_bytes(w.waypoint().unwrap_or(NO_WAYPOINT))),
    );

    // Completed round records.
    buf.put_u32_le(engine.rounds.len() as u32);
    for rr in &engine.rounds {
        buf.extend_from_slice(&rr.round.to_le_bytes());
        for reward in &rr.rewards {
            put_flagged(&mut buf, reward.map(f64::to_le_bytes));
        }
        put_chunks(&mut buf, rr.new_measurements.iter().map(|c| c.to_le_bytes()));
        buf.extend_from_slice(&(rr.users.len() as u32).to_le_bytes());
        put_chunks(
            &mut buf,
            rr.users.iter().map(|u| {
                chunk::<16>(&[
                    &u.user.to_le_bytes(),
                    &u.profit.to_le_bytes(),
                    &u.selected.to_le_bytes(),
                ])
            }),
        );
    }

    // Platform state, borrowed from the platform.
    put_chunks(&mut buf, state.received.iter().map(|r| r.to_le_bytes()));
    for round in state.completed_round.iter() {
        put_flagged(&mut buf, round.map(u32::to_le_bytes));
    }
    for users in state.contributors.iter() {
        put_list(&mut buf, users.iter().map(|u| u.0 as u32));
    }
    put_chunks(&mut buf, state.current_rewards.iter().map(|r| r.to_le_bytes()));
    for receipts in state.round_receipts.iter() {
        put_list(&mut buf, receipts.iter().copied());
    }
    buf.put_u32_le(state.round);
    buf.put_f64_le(state.total_paid);
    put_flagged(&mut buf, state.spend_cap.map(f64::to_le_bytes));
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
    put_chunks(
        &mut buf,
        engine.pending.iter().map(|up| {
            chunk::<24>(&[
                &(up.user as u32).to_le_bytes(),
                &(up.task.0 as u32).to_le_bytes(),
                &up.value.to_le_bytes(),
                &up.attempts.to_le_bytes(),
                &up.due_round.to_le_bytes(),
            ])
        }),
    );

    let sum = checksum(&buf);
    buf.put_u64_le(sum);
    debug_assert_eq!(buf.len(), len, "checkpoint length miscounted");
    Ok(buf)
}

fn point_from([x, y]: &[[u8; 8]; 2]) -> Point {
    Point::new(f64::from_le_bytes(*x), f64::from_le_bytes(*y))
}

fn rng_state(r: &mut Cursor<'_>) -> Result<[u64; 4], CursorError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

fn u32s(chunks: &[[u8; 4]]) -> Vec<u32> {
    chunks.iter().map(|c| u32::from_le_bytes(*c)).collect()
}

fn f64s(chunks: &[[u8; 8]]) -> Vec<f64> {
    chunks.iter().map(|c| f64::from_le_bytes(*c)).collect()
}

/// `p`, if it lies in `area`. Every position a run holds does (its
/// placement, validated moves and clamped walks keep it there), and an
/// engine resumed with one outside would fail its next demand count.
fn inside(area: Rect, p: Point, what: &str, user: usize) -> Result<Point, SimError> {
    if area.contains(p) {
        return Ok(p);
    }
    Err(SimError::checkpoint(format!("user {user}'s {what} {p} lies outside the area")))
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

/// Reads `k` ids, each below `bound` and above the one before it, as
/// the engine and the platform keep their lists for binary search;
/// `refusal` names the first id that is not.
fn ascending<T>(
    r: &mut Cursor<'_>,
    k: usize,
    bound: usize,
    id: impl Fn(usize) -> T,
    refusal: impl Fn(usize) -> String,
) -> Result<Vec<T>, SimError> {
    let words = r.chunks::<4>(k)?;
    let mut ids = Vec::with_capacity(k);
    let mut least = 0;
    for word in words {
        let raw = u32::from_le_bytes(*word) as usize;
        if raw < least || raw >= bound {
            return Err(SimError::checkpoint(refusal(raw)));
        }
        least = raw + 1;
        ids.push(id(raw));
    }
    Ok(ids)
}

/// Rebuilds an engine from `bytes` under `scenario`; see
/// [`Engine::resume`].
///
/// Every vector is allocated once, at its final length, from a count
/// already checked: m and n against the workload the scenario draws,
/// every other count against the bytes that remain.
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
    if (workload.tasks.len(), workload.homes.len()) != (m, n) {
        return Err(SimError::checkpoint(format!(
            "checkpoint has {m} tasks and {n} users; the scenario draws {} and {}",
            workload.tasks.len(),
            workload.homes.len()
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
    let area = workload.area;

    // Locations: the drawn homes, with each away user's stored
    // position over theirs.
    let words = r.chunks::<8>(n.div_ceil(64))?;
    if let (Some(last), 1..) = (words.last(), n % 64) {
        if u64::from_le_bytes(*last) >> (n % 64) != 0 {
            return Err(SimError::checkpoint(format!(
                "an away bit names a user beyond the {n} users"
            )));
        }
    }
    let away: usize = words.iter().map(|w| u64::from_le_bytes(*w).count_ones() as usize).sum();
    let points = r.chunks::<8>(2 * away)?.as_chunks::<2>().0;
    let mut locations = PositionStore::from_points(&workload.homes);
    for (user, pair) in set_users(words).zip(points) {
        let p = inside(area, point_from(pair), "position", user)?;
        // `encode` marks only users whose position differs from home.
        if same_bits(p, workload.homes[user]) {
            return Err(SimError::checkpoint(format!(
                "user {user} is marked away but stored at their home {p}"
            )));
        }
        locations.set(user, p);
    }
    // Each entry holds at least its user, its count and one task.
    let contributors = r.u32()? as usize;
    r.need(contributors.saturating_mul(12))?;
    let mut contributed = Contributions::with_capacity(n, contributors);
    let mut prev = None;
    for _ in 0..contributors {
        let user = next_user(&mut r, prev, n)?;
        prev = Some(user);
        let k = r.u32()? as usize;
        // `encode` writes only users who contributed: an empty list
        // would resume, then checkpoint without this entry.
        if k == 0 {
            return Err(SimError::checkpoint(format!("user {user}'s contributed list is empty")));
        }
        let tasks = ascending(&mut r, k, m, TaskId, |id| {
            format!("user {user}'s contributed task {id} is unknown or out of order")
        })?;
        contributed.restore(user as usize, tasks);
    }
    let quality_received = f64s(r.chunks(m)?);
    let mut estimates = Vec::with_capacity(m);
    for _ in 0..m {
        estimates.push(Estimate { count: r.u32()?, sum: r.f64()?, sum_sq: r.f64()? });
    }

    let wander = if r.flag()? {
        if !matches!(scenario.user_motion, UserMotion::Wander { .. }) {
            return Err(SimError::checkpoint("wander state present for a non-wander scenario"));
        }
        let mut states = Vec::with_capacity(n);
        for (user, pair) in r.chunks::<8>(2 * n)?.as_chunks::<2>().0.iter().enumerate() {
            let p = point_from(pair);
            let waypoint = if same_bits(p, NO_WAYPOINT) {
                None
            } else {
                Some(inside(area, p, "waypoint", user)?)
            };
            states.push(RandomWaypoint::with_waypoint(waypoint));
        }
        states
    } else {
        if matches!(scenario.user_motion, UserMotion::Wander { .. }) {
            return Err(SimError::checkpoint("wander state missing for a wander scenario"));
        }
        Vec::new()
    };

    // A round record holds at least its number, m flags, m counts and
    // its entry count.
    let round_count = r.u32()? as usize;
    r.need(round_count.saturating_mul(5 * m + 8))?;
    let mut rounds = Vec::with_capacity(round_count);
    for _ in 0..round_count {
        let round = r.u32()?;
        let mut rewards = Vec::with_capacity(m);
        for _ in 0..m {
            rewards.push(if r.flag()? { Some(r.f64()?) } else { None });
        }
        let new_measurements = u32s(r.chunks(m)?);
        let entries = r.u32()? as usize;
        r.need(entries.saturating_mul(16))?;
        let mut users = Vec::with_capacity(entries);
        let mut prev = None;
        for _ in 0..entries {
            let user = next_user(&mut r, prev, n)?;
            prev = Some(user);
            users.push(UserRound { user, profit: r.f64()?, selected: r.u32()? });
        }
        rounds.push(RoundRecord { round, rewards, new_measurements, users });
    }

    // Platform state.
    let received = u32s(r.chunks(m)?);
    let mut completed_round = Vec::with_capacity(m);
    for _ in 0..m {
        completed_round.push(if r.flag()? { Some(r.u32()?) } else { None });
    }
    let mut contributors = Vec::with_capacity(m);
    for task in 0..m {
        let k = r.u32()? as usize;
        contributors.push(ascending(&mut r, k, n, UserId, |user| {
            format!("task {task}'s contributor {user} is unknown or out of order")
        })?);
    }
    let current_rewards = f64s(r.chunks(m)?);
    let mut round_receipts = Vec::with_capacity(m);
    for _ in 0..m {
        let k = r.u32()? as usize;
        round_receipts.push(u32s(r.chunks(k)?));
    }
    let platform_round = r.u32()?;
    let total_paid = r.f64()?;
    let spend_cap = if r.flag()? { Some(r.f64()?) } else { None };
    let mech_len = r.u32()? as usize;
    let mechanism_state = r.take(mech_len)?.to_vec();
    let state = PlatformState {
        received: received.into(),
        completed_round: completed_round.into(),
        contributors: contributors.into(),
        current_rewards: current_rewards.into(),
        round_receipts: round_receipts.into(),
        round: platform_round,
        total_paid,
        spend_cap,
        mechanism: mechanism_state,
    };

    let injector_state = if r.flag()? { Some(rng_state(&mut r)?) } else { None };

    let pending_count = r.u32()? as usize;
    r.need(pending_count.saturating_mul(24))?;
    let mut pending = Vec::with_capacity(pending_count);
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
        scenario_fingerprint: OnceLock::from(fingerprint),
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

    /// Offset of the locations section: after the header, fingerprint,
    /// round, done flag, both RNGs, m, n and the workload hash.
    const LOCATIONS_AT: usize = 5 + 8 + 4 + 1 + 2 * 32 + 4 + 4 + 8;

    /// The users whose position differs from their home by bits.
    fn away_users(engine: &Engine) -> Vec<usize> {
        let homes = &engine.workload.homes;
        (0..homes.len()).filter(|&u| !same_bits(engine.locations.point(u), homes[u])).collect()
    }

    /// Offset of the `contributed` section of `engine`'s checkpoint:
    /// after the locations' ⌈n/64⌉ away words and 16 bytes per away user.
    fn contributed_at(engine: &Engine) -> usize {
        LOCATIONS_AT + 8 * engine.workload.homes.len().div_ceil(64) + 16 * away_users(engine).len()
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
        let n = engine.workload.homes.len() as u32;
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
        engine.contributed.note(1, TaskId(0));
        engine.contributed.note(2, TaskId(1));
        let bytes = engine.checkpoint().unwrap();
        assert!(Engine::resume(&s, &bytes, &Recorder::disabled()).is_ok());
        let n = engine.workload.homes.len();
        let at = contributed_at(&engine);
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
        engine.contributed.note(1, TaskId(0));
        engine.contributed.note(2, TaskId(1));
        let mut bytes = engine.checkpoint().unwrap();
        let at = contributed_at(&engine);
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
        engine.contributed.note(1, TaskId(5));
        engine.contributed.note(1, TaskId(2));
        let bytes = engine.checkpoint().unwrap();
        let resumed = Engine::resume(&s, &bytes, &Recorder::disabled()).unwrap();
        assert_eq!(resumed.contributed.of(1), [TaskId(2), TaskId(5)]);
        let m = engine.workload.tasks.len() as u32;
        let at = contributed_at(&engine);
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

    /// Bytes of an engine's `contributed` section: its count, then
    /// `user | k | k task ids` per contributing user.
    fn contributed_len(engine: &Engine) -> usize {
        4 + engine.contributed.iter().map(|(_, ids)| 8 + 4 * ids.len()).sum::<usize>()
    }

    #[test]
    fn signed_positions_and_waypoints_outside_the_area_are_refused() {
        // Every position a run holds lies in the area. One outside it,
        // NaN included, used to resume and fail the next demand count.
        let mut s = scenario();
        s.user_motion = UserMotion::Wander { seconds: 60.0 };
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.step_round().unwrap();
        let bytes = engine.checkpoint().unwrap();
        let (m, n) = (engine.workload.tasks.len(), engine.workload.homes.len());
        // User 0 walked, so their position is the first away point,
        // after the away words; their waypoint follows the wander flag.
        assert_eq!(away_users(&engine).first(), Some(&0));
        let position = LOCATIONS_AT + 8 * n.div_ceil(64);
        assert_eq!(bytes[position..position + 8], engine.locations.point(0).x.to_le_bytes());
        let waypoint = contributed_at(&engine) + contributed_len(&engine) + 28 * m + 1;
        let walked_to = engine.wander[0].waypoint().expect("a walked user has a waypoint");
        assert_eq!(bytes[waypoint..waypoint + 8], walked_to.x.to_le_bytes());
        for (at, what) in [(position, "user 0's position"), (waypoint, "user 0's waypoint")] {
            for x in [1e9, -1.0, f64::NAN, f64::INFINITY] {
                let damaged = resigned(bytes.clone(), |body| {
                    body[at..at + 8].copy_from_slice(&x.to_le_bytes());
                });
                let message = refusal(&s, &damaged);
                assert!(
                    message.contains(what) && message.contains("outside the area"),
                    "{message}"
                );
            }
        }
    }

    #[test]
    fn only_users_away_from_home_are_stored() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let n = engine.workload.homes.len();
        let at_home = engine.checkpoint().unwrap();
        assert_eq!(at_home[LOCATIONS_AT..LOCATIONS_AT + 8], [0; 8]);
        engine.step_round().unwrap();
        let away = away_users(&engine);
        assert!(!away.is_empty() && away.len() < n, "{away:?}");
        let bytes = engine.checkpoint().unwrap();
        let word = u64::from_le_bytes(bytes[LOCATIONS_AT..LOCATIONS_AT + 8].try_into().unwrap());
        assert_eq!(word, away.iter().map(|u| 1 << u).sum::<u64>());
        let points = &bytes[LOCATIONS_AT + 8..];
        for (point, &user) in points.chunks(16).zip(&away) {
            assert_eq!(point, point_bytes(engine.locations.point(user)));
        }
    }

    #[test]
    fn a_signed_away_bit_past_the_last_user_is_refused() {
        let s = scenario();
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let n = engine.workload.homes.len();
        assert!(n < 64 && away_users(&engine).is_empty());
        let bytes = engine.checkpoint().unwrap();
        for bit in [n, 63] {
            let damaged = resigned(bytes.clone(), |body| {
                body[LOCATIONS_AT..LOCATIONS_AT + 8].copy_from_slice(&(1u64 << bit).to_le_bytes());
            });
            assert!(refusal(&s, &damaged).contains("beyond the 15 users"), "bit {bit}");
        }
    }

    #[test]
    fn a_signed_away_user_stored_at_home_is_refused() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.step_round().unwrap();
        let user = away_users(&engine)[0];
        let bytes = engine.checkpoint().unwrap();
        let at = LOCATIONS_AT + 8;
        assert_eq!(bytes[at..at + 16], point_bytes(engine.locations.point(user)));
        let damaged = resigned(bytes, |body| {
            body[at..at + 16].copy_from_slice(&point_bytes(engine.workload.homes[user]));
        });
        let message = refusal(&s, &damaged);
        assert!(message.contains(&format!("user {user} is marked away")), "{message}");
    }

    #[test]
    fn minus_zero_against_a_zero_home_is_away_and_keeps_its_sign() {
        // Hotspots far wider than the area clamp many homes onto its
        // edges, at exactly 0.0.
        let mut s = scenario().with_users(60);
        s.user_placement =
            paydemand_geo::placement::Placement::Clustered { clusters: 1, sigma: 1e5 };
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let homes = &engine.workload.homes;
        let user = homes.iter().position(|h| h.x.to_bits() == 0).expect("a home on the x = 0 edge");
        let home = homes[user];
        engine.locations.set(user, Point::new(-0.0, home.y));
        assert_eq!(away_users(&engine), [user]);
        let bytes = engine.checkpoint().unwrap();
        let resumed = Engine::resume(&s, &bytes, &Recorder::disabled()).unwrap();
        assert_eq!(resumed.locations.point(user).x.to_bits(), (-0.0f64).to_bits());
        assert_eq!(resumed.checkpoint().unwrap(), bytes);
    }

    #[test]
    fn signed_away_points_past_the_file_are_refused_before_anything_is_sized() {
        // 1,000 users at home: 16 words and no points. Every bit set
        // asks for 16,000 bytes of points the file does not hold.
        let s = scenario().with_users(1000);
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let bytes = engine.checkpoint().unwrap();
        assert!(bytes.len() < LOCATIONS_AT + 16 * 8 + 16 * 1000);
        let damaged = resigned(bytes, |body| {
            let words = &mut body[LOCATIONS_AT..LOCATIONS_AT + 16 * 8];
            words.fill(0xff);
            // User 999 is bit 39 of the last word: clear the bits past it.
            words[15 * 8..].copy_from_slice(&((1u64 << 40) - 1).to_le_bytes());
        });
        assert!(refusal(&s, &damaged).contains("truncated"));
    }

    #[test]
    fn a_signed_waypoint_that_is_not_the_no_waypoint_nan_is_refused() {
        // Before the first walk every walker has no waypoint, written as
        // two canonical NaNs; any other NaN is no position in the area.
        let mut s = scenario();
        s.user_motion = UserMotion::Wander { seconds: 60.0 };
        let engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        let m = engine.workload.tasks.len();
        let bytes = engine.checkpoint().unwrap();
        let at = contributed_at(&engine) + 4 + 28 * m + 1;
        assert_eq!(bytes[at - 1], 1);
        assert_eq!(bytes[at..at + 16], point_bytes(NO_WAYPOINT));
        let canonical = f64::NAN.to_bits();
        let negative = canonical | 1 << 63;
        for (x, y) in [(canonical | 1, canonical), (canonical, canonical | 1), (negative, negative)]
        {
            let damaged = resigned(bytes.clone(), |body| {
                body[at..at + 8].copy_from_slice(&x.to_le_bytes());
                body[at + 8..at + 16].copy_from_slice(&y.to_le_bytes());
            });
            let message = refusal(&s, &damaged);
            assert!(message.contains("user 0's waypoint") && message.contains("outside the area"));
        }
    }

    #[test]
    fn signed_platform_contributors_that_are_unknown_or_out_of_order_are_refused() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.step_round().unwrap();
        let bytes = engine.checkpoint().unwrap();
        let state = engine.platform.export_state().unwrap();
        let (m, n) = (engine.workload.tasks.len(), engine.workload.homes.len());
        // The platform's lists sit before its rewards, receipts, round,
        // total paid, spend cap flag, empty mechanism blob, injector
        // flag, empty retry queue and the trailer.
        assert!(state.spend_cap.is_none() && state.mechanism.is_empty());
        assert!(engine.injector.is_none() && engine.pending.is_empty());
        let tail = 8 * m + lists_len(&state.round_receipts) + 4 + 8 + 1 + 4 + 1 + 4 + TRAILER_LEN;
        let mut at = bytes.len() - tail - lists_len(&state.contributors);
        let (task, users) =
            state.contributors.iter().enumerate().find(|(_, users)| users.len() >= 2).unwrap();
        at += lists_len(&state.contributors[..task]);
        let word =
            |i: usize| u32::from_le_bytes(bytes[at + 4 * i..at + 4 * i + 4].try_into().unwrap());
        assert_eq!(word(0) as usize, users.len());
        assert_eq!((word(1) as usize, word(2) as usize), (users[0].0, users[1].0));
        for (first, second) in [(word(2), word(1)), (word(1), word(1)), (word(1), n as u32)] {
            let damaged = resigned(bytes.clone(), |body| {
                body[at + 4..at + 8].copy_from_slice(&first.to_le_bytes());
                body[at + 8..at + 12].copy_from_slice(&second.to_le_bytes());
            });
            let message = refusal(&s, &damaged);
            assert!(
                message.contains(&format!("task {task}'s contributor"))
                    && message.contains("unknown or out of order"),
                "users {first}, {second}: {message}"
            );
        }
    }

    #[test]
    fn a_signed_round_count_beyond_the_file_is_refused_before_allocating() {
        let s = scenario();
        let mut engine = Engine::new(&s, &Recorder::disabled()).unwrap();
        engine.step_round().unwrap();
        let bytes = engine.checkpoint().unwrap();
        let m = engine.workload.tasks.len();
        // After the contributed lists, the per-task arrays and the
        // absent wander flag.
        let at = contributed_at(&engine) + contributed_len(&engine) + 28 * m + 1;
        assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes());
        let damaged = resigned(bytes, |body| {
            body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(refusal(&s, &damaged).contains("truncated"));
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
