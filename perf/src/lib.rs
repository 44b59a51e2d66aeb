//! End-to-end benchmark of the paydemand simulator and daemon.
//!
//! Four workloads ([`Workload`]) each stress a different part of the
//! system; each reports the same end-to-end metrics ([`spec::END_TO_END`],
//! measured with tracing off) or, in a separate traced run, the same
//! per-layer metrics ([`spec::PER_LAYER`]). A run also checks that the
//! program's outputs are correct and records every failed check in
//! [`Outcome::failures`].
//!
//! Work per run is fixed by [`Sizes`], never by a wall-clock loop, so two
//! commits always measure the same work. `Sizes::for_seconds` scales it
//! so that one run measures for about that many seconds on a 2-core
//! machine; the tests use [`Sizes::tiny`]. End-to-end times are reported
//! at a fixed reference pace of the machine (see `pace.rs`); per-layer
//! times are as measured.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use paydemand_obs::{HistogramSnapshot, Recorder, Snapshot, Span};

mod city;
mod ingest;
mod pace;
mod paper;
mod serve;
pub mod spec;
pub mod stats;
mod tick;

/// The benchmark's workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §VI sweep: many complete small simulations.
    Paper,
    /// One large city: 1M users, demand recount dominates every round.
    City,
    /// An in-process daemon under open-loop HTTP ingest.
    Ingest,
    /// Durable daemon ticks over a 50k-user engine, then crash recovery.
    Tick,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::Paper, Workload::City, Workload::Ingest, Workload::Tick];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::City => "city",
            Workload::Ingest => "ingest",
            Workload::Tick => "tick",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `paper`: `Scenario::paper_default()` at each user count, once per
/// derived seed.
#[derive(Debug, Clone)]
pub struct PaperSize {
    /// User counts of the sweep (the paper's Fig. 6–9 x-axis).
    pub users: Vec<usize>,
    /// Seeds per user count.
    pub seeds: usize,
}

/// `city`: one large wandering population.
#[derive(Debug, Clone)]
pub struct CitySize {
    /// Registered users.
    pub users: usize,
    /// Sensing tasks.
    pub tasks: usize,
    /// Timed rounds.
    pub rounds: u32,
}

/// `ingest`: sessions of open-loop visits (a write, then a read) and
/// closed-loop bursts of writes, each session ending in crash recovery.
#[derive(Debug, Clone)]
pub struct IngestSize {
    /// Users in the daemon's engine.
    pub users: usize,
    /// Tasks in the daemon's engine.
    pub tasks: usize,
    /// Open-loop visits per second.
    pub rate: f64,
    /// Events per `POST /events`.
    pub events_per_post: usize,
    /// Length of one open-loop segment.
    pub segment: Duration,
    /// Requests of one closed-loop burst.
    pub burst: usize,
    /// Daemons started, loaded, crashed and resumed in turn.
    pub sessions: usize,
    /// Segment-then-burst cycles per session.
    pub cycles: usize,
}

/// `tick`: sessions of POSTs then a durable tick, repeated, then crash
/// recovery.
#[derive(Debug, Clone)]
pub struct TickSize {
    /// Users in the daemon's engine.
    pub users: usize,
    /// Tasks in the daemon's engine.
    pub tasks: usize,
    /// Daemons started, ticked, crashed and resumed in turn.
    pub sessions: usize,
    /// Timed ticks per session.
    pub ticks: u32,
    /// `POST /events` requests before each tick.
    pub posts_per_tick: usize,
    /// Events per POST.
    pub events_per_post: usize,
}

/// How much work each workload does in one run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `paper` sizes.
    pub paper: PaperSize,
    /// `city` sizes.
    pub city: CitySize,
    /// `ingest` sizes.
    pub ingest: IngestSize,
    /// `tick` sizes.
    pub tick: TickSize,
    /// Set-ups per `paper` and `city` run; `setup_s` is their median
    /// (`ingest` and `tick` set up in every session).
    pub setups: usize,
    /// Recoveries per `paper` and `city` run; `recovery_ms` is their
    /// median (`ingest` and `tick` recover in every session).
    pub recoveries: usize,
}

impl Sizes {
    /// Full-size workloads, each measuring for about `seconds` on a
    /// 2-core machine. Work grows linearly with `seconds`.
    #[must_use]
    pub fn for_seconds(seconds: u32) -> Sizes {
        let s = seconds.max(1);
        Sizes {
            paper: PaperSize { users: vec![40, 60, 80, 100, 120, 140], seeds: 30 * s as usize },
            city: CitySize { users: 1_000_000, tasks: 1_000, rounds: (13 * s).div_ceil(10) },
            ingest: IngestSize {
                users: 200,
                tasks: 30,
                // 40k events/s: the event rate of 2k POSTs/s of 20
                // events, in `loadgen`'s 200-event batches.
                rate: 200.0,
                events_per_post: 200,
                segment: Duration::from_millis(500),
                burst: 400,
                sessions: s.div_ceil(2) as usize,
                cycles: 2,
            },
            tick: TickSize {
                users: 50_000,
                tasks: 1_000,
                sessions: s as usize,
                ticks: 15,
                posts_per_tick: 4,
                events_per_post: 500,
            },
            setups: 9,
            recoveries: 9,
        }
    }

    /// Tiny workloads for tests: every code path, a fraction of a second.
    #[must_use]
    pub fn tiny() -> Sizes {
        Sizes {
            paper: PaperSize { users: vec![40, 60], seeds: 2 },
            city: CitySize { users: 5_000, tasks: 50, rounds: 3 },
            ingest: IngestSize {
                users: 50,
                tasks: 10,
                rate: 100.0,
                events_per_post: 5,
                segment: Duration::from_millis(300),
                burst: 50,
                sessions: 2,
                // Enough cycles that acked ids settle and are read back.
                cycles: 3,
            },
            tick: TickSize {
                users: 2_000,
                tasks: 50,
                sessions: 2,
                ticks: 4,
                posts_per_tick: 2,
                events_per_post: 20,
            },
            setups: 2,
            recoveries: 2,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed or were refused.
    pub failed: u64,
    /// Correctness checks that did not hold; empty on a correct run.
    pub failures: Vec<String>,
    /// Metric name → value, in the unit `spec` gives it.
    pub metrics: BTreeMap<String, f64>,
    /// A digest of the run's results that tracing must not change:
    /// traced and untraced runs of one seed report the same value.
    pub checksum: u64,
    /// Chrome `trace_event` JSON of a traced run's spans.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Whether every correctness check held and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub(crate) fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Folds `value` into the run checksum.
    pub(crate) fn fold(&mut self, value: u64) {
        self.checksum = derive_seed(self.checksum ^ value, 0);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding the metrics of `specs` in order.
    #[must_use]
    pub fn json_line(&self, specs: &[spec::MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .filter_map(|m| {
                let value = self.metrics.get(m.name)?;
                Some(format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` once: the end-to-end metrics, or with `traced` the
/// per-layer ones. Scratch state goes in a directory under `out_dir`
/// that is deleted before return.
///
/// # Errors
///
/// A message when the workload cannot run at all (the daemon does not
/// start, a state directory cannot be written). Wrong *results* are not
/// errors; they land in [`Outcome::failures`].
pub fn run(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    traced: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let scratch = out_dir.join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let layers = Layers::new(traced);
    let mut pace = pace::Pace::new(match workload {
        Workload::Paper => paper::ELASTICITY,
        Workload::City => city::ELASTICITY,
        Workload::Ingest => ingest::ELASTICITY,
        Workload::Tick => tick::ELASTICITY,
    });
    // A traced run reports no end-to-end metric, so it repeats no
    // set-up or recovery.
    let sizes = if traced { &Sizes { setups: 1, recoveries: 1, ..sizes.clone() } } else { sizes };
    let result = match workload {
        Workload::Paper => paper::run(sizes, seed, &layers, &mut pace, &scratch),
        Workload::City => city::run(sizes, seed, &layers, &mut pace, &scratch),
        Workload::Ingest => ingest::run(sizes, seed, &layers, &mut pace, &scratch),
        Workload::Tick => tick::run(sizes, seed, &layers, &mut pace, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut outcome = result?;
    if traced {
        outcome.trace_json = layers.recorder.trace_events_json();
    } else {
        match peak_rss_mb() {
            Some(mb) => outcome.set("peak_rss_mb", mb),
            None => outcome.failures.push("peak RSS is unreadable on this platform".to_owned()),
        }
    }
    let wanted = if traced { spec::PER_LAYER } else { spec::END_TO_END };
    for m in wanted {
        match outcome.metrics.get(m.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => outcome.failures.push(format!("metric {} is not finite ({v})", m.name)),
            None => outcome.failures.push(format!("metric {} was not measured", m.name)),
        }
    }
    outcome.metrics.retain(|name, _| wanted.iter().any(|m| m.name == name));
    Ok(outcome)
}

/// Bench-side spans around each call into a layer. On a traced run the
/// spans land in one enabled recorder — the same one the engine and the
/// daemon report their phases to — and in its trace-event log; on an
/// untraced run the recorder is disabled and every span is inert.
#[derive(Debug, Clone)]
pub(crate) struct Layers {
    recorder: Recorder,
}

/// The histogram family bench-side spans record into.
const LAYER_FAMILY: &str = "perf_layer_seconds";
/// Span events kept for the trace file; later ones are counted, not kept.
const SPAN_CAPACITY: usize = 200_000;

impl Layers {
    fn new(traced: bool) -> Self {
        if traced {
            let recorder = Recorder::enabled();
            recorder.enable_trace_events(SPAN_CAPACITY);
            Layers { recorder }
        } else {
            Layers { recorder: Recorder::disabled() }
        }
    }

    pub(crate) fn traced(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// The recorder to hand the engine or daemon under test.
    pub(crate) fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Opens a span for one call into `layer`.
    pub(crate) fn span(&self, layer: &str) -> Span {
        self.recorder.scoped(layer, &self.recorder.histogram_with(LAYER_FAMILY, "layer", layer))
    }

    /// Runs `f` inside a span for `layer`.
    pub(crate) fn time<T>(&self, layer: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(layer);
        f()
    }

    /// Total seconds spent in bench-side spans named `layer`.
    pub(crate) fn seconds(&self, snapshot: &Snapshot, layer: &str) -> f64 {
        histogram(snapshot, LAYER_FAMILY, Some(("layer", layer))).sum as f64 * 1e-9
    }
}

/// A histogram from `snapshot` (empty when never registered).
pub(crate) fn histogram(
    snapshot: &Snapshot,
    name: &str,
    label: Option<(&str, &str)>,
) -> HistogramSnapshot {
    snapshot.histogram_snapshot(name, label).copied().unwrap_or_else(HistogramSnapshot::empty)
}

/// What `after` recorded since `before`: counter and histogram
/// contents subtract (gauges keep their latest value).
pub(crate) fn delta(after: &Snapshot, before: &Snapshot) -> Snapshot {
    let counters = after
        .counters
        .iter()
        .map(|(key, v)| {
            let was = before.counters.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
            (key.clone(), v.saturating_sub(was))
        })
        .collect();
    let histograms = after
        .histograms
        .iter()
        .map(|(key, h)| {
            let mut h = *h;
            if let Some((_, was)) = before.histograms.iter().find(|(k, _)| k == key) {
                for (bucket, old) in h.buckets.iter_mut().zip(was.buckets) {
                    *bucket = bucket.saturating_sub(old);
                }
                h.count = h.count.saturating_sub(was.count);
                h.sum = h.sum.saturating_sub(was.sum);
            }
            (key.clone(), h)
        })
        .collect();
    Snapshot { counters, gauges: after.gauges.clone(), histograms }
}

/// Reports the engine's per-round metrics out of `snapshot`: the mean
/// round wall, each `round_phase_seconds{phase}` as a share of it, and
/// the `selector_*` and demand-cache counters. Returns the phases'
/// total seconds, the named part of the rounds' wall.
pub(crate) fn engine_layers(snapshot: &Snapshot, out: &mut Outcome) -> f64 {
    let round = histogram(snapshot, "engine_round_seconds", None);
    let rounds = round.count.max(1) as f64;
    let phase = |p: &str| histogram(snapshot, "round_phase_seconds", Some(("phase", p))).sum;
    let phases = [
        ("neighbors.count_share", phase("demand")),
        ("incentive.price_share", phase("pricing")),
        ("selection.solve_share", phase("selection")),
        ("platform.settle_share", phase("settlement")),
        ("mobility.move_share", phase("movement")),
    ];
    let mut named = 0u64;
    for (name, ns) in phases {
        out.set(name, ratio(ns as f64, round.sum as f64));
        named += ns;
    }
    out.set("engine.round_ms", round.sum as f64 / rounds * 1e-6);
    out.set("engine.other_share", ratio(round.sum.saturating_sub(named) as f64, round.sum as f64));

    let counter = |name: &str| snapshot.counter_total(name).unwrap_or(0) as f64;
    let solves = counter("selector_solves_total");
    out.set("selection.solves", solves / rounds);
    out.set("selection.states_per_solve", ratio(counter("selector_states_expanded_total"), solves));
    let hits = counter("demand_cache_hits_total");
    let lookups = hits + counter("demand_cache_misses_total") + counter("demand_cache_dirty_total");
    out.set("incentive.cache_hit_frac", ratio(hits, lookups));
    named as f64 * 1e-9
}

/// Per-layer metrics of the daemon's ingest and tick paths.
pub(crate) const DAEMON_LAYERS: &[&str] = &[
    "events.decode_share",
    "wal.append_share",
    "wal.barrier_share",
    "engine.enqueue_share",
    "engine.step_share",
    "trace.take_share",
    "trace.decode_share",
    "lineage.join_share",
    "lineage.append_share",
    "wal.compact_share",
    "wal.scan_share",
    "ingest.validate_share",
    "ingest.enqueue_share",
    "ingest.wait_share",
    "ingest.read_ratio",
    "loadgen.late_frac",
    "wal.events_per_fsync",
    "wal.bytes",
    "lineage.bytes",
    "trace.journal_bytes",
];

/// Reports the workload's operations, timed raw (`walls_ms`): their
/// count, mean and p90, and how much slower than the reference pace
/// the machine ran.
pub(crate) fn op_layers(out: &mut Outcome, walls_ms: &[f64], pace: &pace::Pace) {
    out.set("bench.ops", walls_ms.len() as f64);
    out.set("bench.op_ms", ratio(walls_ms.iter().sum(), walls_ms.len() as f64));
    out.set("bench.op_ms_p90", stats::quantile(walls_ms, 0.9));
    out.set("bench.slowdown", pace.slowdown());
}

/// Reports 0 for each layer in `names` the workload never calls
/// (leaving any the workload did measure).
pub(crate) fn not_called(out: &mut Outcome, names: &[&str]) {
    for name in names {
        out.metrics.entry((*name).to_owned()).or_insert(0.0);
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Fails the run unless the named layers cover at least 90% of the
/// traced wall, naming the gap.
pub(crate) fn check_coverage(out: &mut Outcome, named_s: f64, wall_s: f64, gap: &str) {
    let coverage = ratio(named_s, wall_s);
    out.set("bench.coverage_frac", coverage);
    out.check(coverage >= 0.9, || {
        format!(
            "named layers cover {:.1}% of the traced wall (< 90%); the gap is {gap}",
            coverage * 100.0
        )
    });
}

/// The `i`-th seed derived from `seed` (SplitMix64), so workloads draw
/// independent inputs from the one `--seed`.
#[must_use]
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for request bodies.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix(u64);

impl SplitMix {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        derive_seed(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// Milliseconds in `d`.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` `times` times and returns the median wall of the calls, in
/// seconds, with the last call's value. Each value is dropped before the
/// next call, so large set-ups never coexist.
pub(crate) fn median_of<T>(
    times: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = f()?;
        walls.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("median_of ran nothing")?;
    Ok((stats::median(&walls), value))
}

/// Writes `bytes` to `path` the way the daemon lands a checkpoint:
/// tmp file, fsync, rename.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    {
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        std::io::Write::write_all(&mut file, bytes).map_err(io)?;
        file.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)
}

/// Copies the regular files of `from` into a fresh directory `to`.
pub(crate) fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.file_type().map_err(io)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
        }
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
