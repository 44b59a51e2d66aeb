//! Hand-rolled argument parsing (the approved dependency set has no
//! CLI crate). One table lists every flag, the subcommands that accept
//! it and what it sets; one token loop reads every subcommand's flags
//! from it.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use paydemand_obs::LogLevel;
use paydemand_serve::DaemonConfig;
use paydemand_sim::{
    presets, FaultKind, FaultPlan, IndexingMode, MechanismKind, Scenario, SelectorKind, TravelModel,
};
use Arity::{Switch, Value, ValueFor};

/// Top-level usage text.
pub const USAGE: &str = "\
paydemand — demand-based dynamic incentives for mobile crowdsensing (ICDCS'18)

USAGE:
    paydemand run     [OPTIONS]   run one configuration, print metrics
    paydemand compare [OPTIONS]   run every mechanism on identical workloads
    paydemand serve   --state-dir DIR [OPTIONS]
                                  run the crash-safe ingest daemon:
                                  POST /events, GET /prices /demand
                                  /status /metrics (see docs/SERVING.md)
    paydemand trace   SUBCOMMAND  inspect/explain/verify a decision journal
    paydemand lineage SUBCOMMAND  inspect/audit a daemon state directory's
                                  event lineage index (event id → WAL
                                  offset → round → disposition → price)
    paydemand alerts  PATH [--rule SPEC]... [--fatal]
                                  evaluate alert rules offline against a
                                  time series saved by --timeseries-out
    paydemand profile SUBCOMMAND  fold span traces written by
                                  --trace-events into per-stack self
                                  time (see docs/PROFILING.md)
    paydemand --help

PROFILE SUBCOMMANDS (over Chrome traces written by `run --trace-events`;
a span's self time is its duration less its children's, summed per
stack of span names such as job;round;demand):
    profile report PATH [--top N] print the stacks with the most self
                                  time, and the spans the trace dropped
    profile diff BEFORE AFTER [--top N]
                                  per-stack self-time delta, worst
                                  regression first

TRACE SUBCOMMANDS (over a journal written by `run --trace-out`):
    trace inspect PATH            frame counts, rounds, totals, faults
    trace explain-task PATH T     task T's demand/level/reward trajectory
    trace explain-user PATH U     user U's selections and earnings
    trace diff PATH_A PATH_B      first divergence between two journals
    trace export PATH [--rounds A..B]
                                  decode every frame to stdout, optionally
                                  only rounds A through B inclusive
    trace verify PATH             audit internal consistency (framing,
                                  payments vs posted prices, budget)

LINEAGE SUBCOMMANDS (over a stopped/crashed daemon's --state-dir;
verify re-runs the engine, so pass the same scenario flags the daemon
ran with — --preset --users --tasks --rounds --area --radius --budget
--seed --selector --travel --mechanism --enforce-budget):
    lineage show --state-dir DIR        frame counts, per-round spend,
                                        disposition breakdown
    lineage trace-event ID --state-dir DIR
                                        one event's full lineage: request,
                                        WAL offset, round, disposition,
                                        pay, round pricing
    lineage verify --state-dir DIR [scenario flags]
                                        replay the WAL against the
                                        checkpoint with the daemon's
                                        recovery semantics and prove
                                        every acked event's frame is
                                        present and bit-identical

ALERTS (over a time series saved by run/compare --timeseries-out X.json):
    --rule METRIC,CMP,THRESHOLD,FOR_ROUNDS[,NAME]
                       extra rule on top of the shipped defaults, e.g.
                       --rule engine_retry_queue_depth,>=,5,2,deep-queue
                       (CMP is one of > >= < <=)
    --fatal            exit non-zero if any rule fired

OPTIONS (both commands):
    --preset NAME      paper | dense-downtown | sparse-rural |
                       commuter-town | flaky-fleet (applied first,
                       wherever it appears: the other flags override
                       preset fields; the last --preset wins)
    --users N          number of mobile users          [default: 100]
    --tasks N          number of sensing tasks         [default: 20]
    --rounds N         sensing rounds                  [default: 15]
    --area METERS      square region side              [default: 3000]
    --radius METERS    neighbour radius R              [default: 1000]
    --budget DOLLARS   platform reward budget B        [default: 1000]
    --selector NAME    dp | dp-exact | greedy | greedy2opt | insertion |
                       branch-bound                    [default: dp]
    --travel MODEL     euclidean | manhattan | streets:COLSxROWS:CLOSURE
                                                       [default: euclidean]
    --sensing-time S   seconds per measurement         [default: 0]
    --dropout P        per-round user dropout rate     [default: 0]
    --reps N           repetitions (averaged)          [default: 10]
    --seed N           master seed                     [default: 24157]
    --threads N        worker threads (0 = all cores)  [default: 0]
    --enforce-budget   refuse payments past the budget
    --indexing MODE    cell | naive neighbour counting (identical
                       results; naive is the reference)  [default: cell]
    --metrics-out PATH write collected metrics to PATH (implies recording;
                       round-phase latencies and selector counters):
                       JSON when PATH ends in .json, Prometheus text
                       otherwise
    --profile          record metrics and print a latency/counter summary,
                       then the alert table, to stderr (identical
                       simulation results either way)
    --alloc-profile    attribute heap allocations to engine phases and
                       export per-phase byte/count/peak families
                       (identical simulation results either way)
    --timeseries-out PATH   snapshot every metric family at each round
                       boundary and write the per-round series to PATH
                       (.csv extension = CSV, anything else = JSON; the
                       JSON form feeds `paydemand alerts`)
    --trace-events PATH     write span timings as Chrome trace_event
                       JSON, openable in Perfetto / speedscope /
                       chrome://tracing; `paydemand profile` folds it
    --alerts-fatal     evaluate the default alert rules over the run's
                       round samples and exit non-zero if any fired

    --faults SPEC      comma-separated fault arms, injected from their
                       own seeded RNG stream (zero rates change nothing):
                         dropout:RATE
                         late:FRACTION:LATEST_ROUND
                         drop-upload:RATE
                         straggler:RATE:MAX_RETRIES:BACKOFF_ROUNDS
                         gps:SIGMA_METERS
                         budget-shock:ROUND:FACTOR
                         outage:RATE
                       e.g. --faults dropout:0.2,gps:25,outage:0.1
    --fault-seed N     fault-stream seed (needs --faults)  [default: 0]

OPTIONS (serve only; the scenario flags --preset --users --tasks
--rounds --area --radius --budget --seed --selector --travel
--mechanism --enforce-budget apply as in `run`):
    --state-dir DIR    directory for checkpoint.ck + events.wal
                       (required; an occupied directory is refused
                       unless --resume is passed)
    --resume           continue from the state directory after a crash
                       or kill -9: reload the checkpoint, replay the
                       WAL, continue bit-identically
    --addr ADDR        bind address [default: 127.0.0.1:9300]
                       (port 0 picks a free one, printed on startup)
    --tick-ms N        advance one round every N milliseconds;
                       0 = rounds advance only via POST /tick
                       [default: 1000]
    --queue-cap N      ingest queue capacity in events; past it,
                       requests are shed with 429 + Retry-After
                       [default: 4096]
    --http-workers N   connection worker threads; each survives a
                       handler's panic               [default: 4]
    --checkpoint-every-ticks N
                       checkpoint + compact the WAL after every round
                       that is a multiple of N (every N ticks from a
                       fresh start)                  [default: 1]
    --max-body-bytes N largest accepted request body  [default: 262144]
    --no-fsync         skip the per-append WAL fsync (throughput
                       experiments only; weakens kill -9 durability)
    --timeseries-out PATH   write the per-round series on shutdown
                       (same format as run's; feeds `paydemand alerts`)
    --log-level LEVEL  debug | info | warn | error — minimum severity
                       kept in the flight recorder and served at
                       GET /logs.json              [default: info]
    --log-json PATH    tee every log entry to PATH as JSON lines
                       (appending; sink errors are counted, not fatal)
    --debug-panic-route     expose POST /debug/panic, whose handler
                       panics (panic-isolation testing only)

OPTIONS (run only):
    --mechanism NAME   on-demand | fixed | steered | steered-paper |
                       proportional | hybrid:ALPHA     [default: on-demand]
    --trace-out PATH   journal repetition 0's decision trace to PATH
                       (demand breakdowns, selections, payments, faults),
                       replay-verified against the live result before
                       writing; read it back with `paydemand trace`
    --checkpoint-every N    checkpoint the engine every N rounds
                            (single run; needs --checkpoint-file and --reps 1)
    --checkpoint-file PATH  where checkpoints are written (atomic overwrite)
    --resume PATH           resume a checkpointed run; the scenario flags
                            must rebuild the checkpointed scenario exactly
";

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Run one mechanism.
    Run(Options),
    /// Run all paper mechanisms on the same workloads.
    Compare(Options),
    /// Run the long-lived ingest daemon.
    Serve(Box<ServeCommand>),
    /// Inspect, explain, diff, export, or verify a decision journal.
    Trace(TraceCommand),
    /// Inspect or audit a daemon state directory's lineage index.
    Lineage(Box<LineageCommand>),
    /// Evaluate alert rules offline against a saved time series.
    Alerts(AlertsCommand),
    /// Fold or diff `--trace-events` span traces.
    Profile(ProfileCommand),
}

/// The `paydemand profile` subcommand family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileCommand {
    /// Print the stacks with the most self time in one trace.
    Report {
        /// Chrome trace file.
        path: String,
        /// Stacks to show.
        top: usize,
    },
    /// Per-stack self-time deltas between two traces.
    Diff {
        /// Baseline trace.
        before: String,
        /// Trace to compare against the baseline.
        after: String,
        /// Entries to show.
        top: usize,
    },
}

/// A `paydemand serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCommand {
    /// The daemon's configuration, scenario and state directory included.
    pub config: DaemonConfig,
    /// Write the per-round time series here on shutdown.
    pub timeseries_out: Option<String>,
    /// Minimum severity kept by the daemon's flight recorder.
    pub log_level: LogLevel,
    /// Tee log entries to this path as JSON lines.
    pub log_json: Option<String>,
}

/// A `paydemand lineage` invocation over a daemon state directory.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageCommand {
    /// The scenario the daemon ran (`verify` re-runs the engine;
    /// `show` and `trace-event` only read the index and ignore it).
    pub scenario: Scenario,
    /// The daemon's `--state-dir` (checkpoint + WAL + lineage index).
    pub state_dir: String,
    /// Which lineage subcommand to run.
    pub action: LineageAction,
}

/// The `paydemand lineage` subcommand family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageAction {
    /// Summarise the index: frames, rounds, dispositions, spend.
    Show,
    /// Print one event's full lineage join.
    TraceEvent {
        /// The ingest-assigned event id to trace.
        id: u64,
    },
    /// Replay the WAL against the checkpoint and audit every frame.
    Verify,
}

/// A `paydemand alerts` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertsCommand {
    /// Time-series JSON written by `--timeseries-out`.
    pub path: String,
    /// Extra rule specs (each `METRIC,CMP,THRESHOLD,FOR_ROUNDS[,NAME]`)
    /// evaluated alongside the defaults.
    pub rules: Vec<String>,
    /// Exit non-zero if any rule fired.
    pub fatal: bool,
}

/// A `paydemand trace` subcommand over a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCommand {
    /// Summarise a journal: frame counts, rounds, payments, faults.
    Inspect {
        /// Journal file written by `run --trace-out`.
        path: String,
    },
    /// Print one task's demand/level/reward trajectory.
    ExplainTask {
        /// Journal file.
        path: String,
        /// Task id to explain.
        task: u32,
    },
    /// Print one user's selection decisions and earnings.
    ExplainUser {
        /// Journal file.
        path: String,
        /// User id to explain.
        user: u32,
    },
    /// Report the first frame where two journals diverge.
    Diff {
        /// First journal.
        a: String,
        /// Second journal.
        b: String,
    },
    /// Decode every frame to stdout as JSON Lines.
    Export {
        /// Journal file.
        path: String,
        /// Only frames from rounds A..=B (`--rounds A..B`), plus any
        /// pre-round preamble when A is the first round.
        rounds: Option<(u32, u32)>,
    },
    /// Audit a journal's internal consistency.
    Verify {
        /// Journal file.
        path: String,
    },
}

/// The options of `run` and `compare`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Options {
    /// The fully-configured scenario.
    pub scenario: Scenario,
    /// Repetitions to average over.
    pub reps: usize,
    /// Worker threads (`None` = one per available core).
    pub threads: Option<usize>,
    /// Where to write collected metrics, if anywhere (JSON iff the path
    /// ends in `.json`, Prometheus text otherwise).
    pub metrics_out: Option<String>,
    /// Print a profile summary to stderr after the run.
    pub profile: bool,
    /// Attribute heap allocations to engine phases via the tracking
    /// allocator and export the per-phase memory families.
    pub alloc_profile: bool,
    /// Checkpoint the (single-repetition) run every this many rounds.
    pub checkpoint_every: Option<u32>,
    /// Where checkpoints go.
    pub checkpoint_file: Option<String>,
    /// Resume from this checkpoint file instead of starting fresh.
    pub resume_from: Option<String>,
    /// Write repetition 0's decision journal here (run only).
    pub trace_out: Option<String>,
    /// Write the per-round time series here (CSV iff the path ends in
    /// `.csv`, JSON otherwise).
    pub timeseries_out: Option<String>,
    /// Write Chrome trace_event JSON of span timings here.
    pub trace_events_out: Option<String>,
    /// Exit non-zero when any default alert rule fired.
    pub alerts_fatal: bool,
}

impl Options {
    /// Whether the run should record metrics at all.
    #[must_use]
    pub fn recording(&self) -> bool {
        self.profile
            || self.alloc_profile
            || self.metrics_out.is_some()
            || self.timeseries_out.is_some()
            || self.trace_events_out.is_some()
            || self.alerts_fatal
    }

    /// Whether a round-boundary time series, which the alert rules are
    /// evaluated over, should be attached to the recorder. Plain
    /// `--metrics-out` runs skip it so their exports carry exactly the
    /// historical families.
    #[must_use]
    pub fn telemetry(&self) -> bool {
        self.profile || self.timeseries_out.is_some() || self.alerts_fatal
    }
}

/// Master seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 24157;

/// A set of subcommands, one bit each.
type Subs = u8;
const RUN: Subs = 1;
const COMPARE: Subs = 1 << 1;
const SERVE: Subs = 1 << 2;
const LINEAGE: Subs = 1 << 3;
const TRACE: Subs = 1 << 4;
const PROFILE: Subs = 1 << 5;
const ALERTS: Subs = 1 << 6;
/// The subcommands that simulate repetitions.
const SIM: Subs = RUN | COMPARE;
/// The subcommands that build a scenario.
const WORLD: Subs = SIM | SERVE | LINEAGE;
/// The subcommands whose next word is an action (`trace inspect`).
const WITH_ACTION: Subs = LINEAGE | TRACE | PROFILE;
/// The subcommands that take positional arguments.
const POSITIONAL: Subs = WITH_ACTION | ALERTS;

const SUBCOMMANDS: &[(&str, Subs)] = &[
    ("run", RUN),
    ("compare", COMPARE),
    ("serve", SERVE),
    ("lineage", LINEAGE),
    ("trace", TRACE),
    ("profile", PROFILE),
    ("alerts", ALERTS),
];

/// What follows a flag on the command line.
#[derive(Clone, Copy)]
enum Arity {
    /// Nothing: the flag is a switch.
    Switch,
    /// One required value.
    Value,
    /// A required value for these subcommands; a switch for the rest.
    ValueFor(Subs),
}

/// A flag as it appeared on the command line.
struct Arg<'a> {
    flag: &'static str,
    value: Option<&'a str>,
}

impl Arg<'_> {
    fn text(&self) -> &str {
        self.value.unwrap_or_default()
    }

    fn path(&self) -> Option<String> {
        self.value.map(str::to_string)
    }

    fn num<T: FromStr>(&self) -> Result<T, String>
    where
        T::Err: Display,
    {
        parse_num(self.flag, self.text())
    }

    /// A count that must be at least 1.
    fn positive<T: FromStr + Default + PartialEq>(&self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let n: T = self.num()?;
        if n == T::default() {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(n)
    }
}

/// What a flag does to the invocation being parsed.
type Setter = fn(&mut Parsed, &Arg) -> Result<(), String>;

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// The subcommands that accept the flag.
    subs: Subs,
    arity: Arity,
    set: Setter,
}

const fn flag(name: &'static str, subs: Subs, arity: Arity, set: Setter) -> Flag {
    Flag { name, subs, arity, set }
}

/// Stores a flag's parsed value, or passes its parse error on.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

const PRESET: &str = "--preset";

/// Every flag of every subcommand. The scenario rows are the one place
/// that sets `Scenario` fields for run, compare, serve and lineage.
const FLAGS: &[Flag] = &[
    flag(PRESET, WORLD, Value, |p, a| {
        let name = a.text();
        let preset = presets::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = presets::all().iter().map(|(n, _)| *n).collect();
            format!("unknown preset `{name}`; available: {names:?}")
        })?;
        p.scenario = preset.with_seed(DEFAULT_SEED);
        Ok(())
    }),
    flag("--users", WORLD, Value, |p, a| put(&mut p.scenario.users, a.num())),
    flag("--tasks", WORLD, Value, |p, a| put(&mut p.scenario.tasks, a.num())),
    flag("--rounds", WORLD | TRACE, Value, |p, a| match p.sub {
        TRACE => put(&mut p.trace_rounds, parse_round_range(a.text()).map(Some)),
        _ => put(&mut p.scenario.max_rounds, a.num()),
    }),
    flag("--area", WORLD, Value, |p, a| put(&mut p.scenario.area_side, a.num())),
    flag("--radius", WORLD, Value, |p, a| put(&mut p.scenario.neighbor_radius, a.num())),
    flag("--budget", WORLD, Value, |p, a| put(&mut p.scenario.reward_budget, a.num())),
    flag("--seed", WORLD, Value, |p, a| put(&mut p.scenario.seed, a.num())),
    flag("--selector", WORLD, Value, |p, a| {
        put(&mut p.scenario.selector, lookup(SELECTORS, "selector", a.text()))
    }),
    flag("--travel", WORLD, Value, |p, a| put(&mut p.scenario.travel, parse_travel(a.text()))),
    flag("--mechanism", RUN | SERVE | LINEAGE, Value, |p, a| {
        put(&mut p.scenario.mechanism, parse_mechanism(a.text()))
    }),
    flag("--enforce-budget", WORLD, Switch, |p, _| put(&mut p.scenario.enforce_budget, Ok(true))),
    flag("--sensing-time", SIM, Value, |p, a| put(&mut p.scenario.sensing_seconds, a.num())),
    flag("--dropout", SIM, Value, |p, a| put(&mut p.scenario.dropout_rate, a.num())),
    flag("--indexing", SIM, Value, |p, a| {
        put(&mut p.scenario.indexing, lookup(INDEXING_MODES, "indexing mode", a.text()))
    }),
    flag("--faults", SIM, Value, |p, a| put(&mut p.faults, parse_faults(a.text()).map(Some))),
    flag("--fault-seed", SIM, Value, |p, a| put(&mut p.fault_seed, a.num().map(Some))),
    flag("--reps", SIM, Value, |p, a| put(&mut p.options.reps, a.positive())),
    flag("--threads", SIM, Value, |p, a| {
        put(&mut p.options.threads, a.num().map(|n| (n > 0).then_some(n)))
    }),
    flag("--metrics-out", SIM, Value, |p, a| put(&mut p.options.metrics_out, Ok(a.path()))),
    flag("--profile", SIM, Switch, |p, _| put(&mut p.options.profile, Ok(true))),
    flag("--alloc-profile", SIM, Switch, |p, _| put(&mut p.options.alloc_profile, Ok(true))),
    flag("--timeseries-out", SIM | SERVE, Value, |p, a| {
        put(&mut p.options.timeseries_out, Ok(a.path()))
    }),
    flag("--trace-events", SIM, Value, |p, a| put(&mut p.options.trace_events_out, Ok(a.path()))),
    flag("--alerts-fatal", SIM, Switch, |p, _| put(&mut p.options.alerts_fatal, Ok(true))),
    flag("--checkpoint-every", RUN, Value, |p, a| {
        put(&mut p.options.checkpoint_every, a.positive().map(Some))
    }),
    flag("--checkpoint-file", RUN, Value, |p, a| put(&mut p.options.checkpoint_file, Ok(a.path()))),
    flag("--trace-out", RUN, Value, |p, a| put(&mut p.options.trace_out, Ok(a.path()))),
    // `run --resume PATH` resumes a checkpoint file; `serve --resume`
    // resumes the state directory.
    flag("--resume", RUN | SERVE, ValueFor(RUN), |p, a| match a.value {
        Some(_) => put(&mut p.options.resume_from, Ok(a.path())),
        None => put(&mut p.serve.config.resume, Ok(true)),
    }),
    flag("--state-dir", SERVE | LINEAGE, Value, |p, a| put(&mut p.state_dir, Ok(a.path()))),
    flag("--addr", SERVE, Value, |p, a| put(&mut p.serve.config.addr, Ok(a.text().to_string()))),
    flag("--tick-ms", SERVE, Value, |p, a| {
        let every = a.num().map(|ms| (ms > 0).then_some(Duration::from_millis(ms)));
        put(&mut p.serve.config.tick_interval, every)
    }),
    flag("--queue-cap", SERVE, Value, |p, a| put(&mut p.serve.config.queue_capacity, a.positive())),
    flag("--http-workers", SERVE, Value, |p, a| put(&mut p.serve.config.workers, a.positive())),
    flag("--checkpoint-every-ticks", SERVE, Value, |p, a| {
        put(&mut p.serve.config.checkpoint_every, a.positive())
    }),
    flag("--max-body-bytes", SERVE, Value, |p, a| {
        put(&mut p.serve.config.limits.max_body_bytes, a.num())
    }),
    flag("--no-fsync", SERVE, Switch, |p, _| put(&mut p.serve.config.fsync, Ok(false))),
    flag("--log-level", SERVE, Value, |p, a| {
        put(&mut p.serve.log_level, LogLevel::parse(a.text()))
    }),
    flag("--log-json", SERVE, Value, |p, a| put(&mut p.serve.log_json, Ok(a.path()))),
    flag("--debug-panic-route", SERVE, Switch, |p, _| {
        put(&mut p.serve.config.debug_panic_route, Ok(true))
    }),
    flag("--top", PROFILE, Value, |p, a| put(&mut p.top, a.positive())),
    flag("--rule", ALERTS, Value, |p, a| {
        // Validate eagerly so a typo is reported before the run.
        paydemand_obs::AlertRule::parse(a.text())?;
        p.rules.push(a.text().to_string());
        Ok(())
    }),
    flag("--fatal", ALERTS, Switch, |p, _| put(&mut p.fatal, Ok(true))),
];

/// `--selector` values.
const SELECTORS: &[(&str, SelectorKind)] = &[
    ("dp", SelectorKind::Dp { candidate_cap: Some(14) }),
    ("dp-exact", SelectorKind::exact_dp()),
    ("greedy", SelectorKind::Greedy),
    ("greedy2opt", SelectorKind::GreedyTwoOpt),
    ("insertion", SelectorKind::Insertion),
    ("branch-bound", SelectorKind::BranchBound),
];

/// `--mechanism` values, besides `hybrid:ALPHA`.
const MECHANISMS: &[(&str, MechanismKind)] = &[
    ("on-demand", MechanismKind::OnDemand),
    ("fixed", MechanismKind::Fixed),
    ("steered", MechanismKind::Steered),
    ("steered-paper", MechanismKind::SteeredPaperConstants),
    ("proportional", MechanismKind::Proportional),
];
const HYBRID: &str = "hybrid:";

/// `--travel` values, besides `streets:COLSxROWS:CLOSURE`.
const TRAVEL_MODELS: &[(&str, TravelModel)] =
    &[("euclidean", TravelModel::Euclidean), ("manhattan", TravelModel::Manhattan)];
const STREETS: &str = "streets:";

/// `--indexing` values.
const INDEXING_MODES: &[(&str, IndexingMode)] =
    &[("cell", IndexingMode::CellSweep), ("naive", IndexingMode::NaiveReference)];

/// Reads a fault arm's next `:`-separated parameter, named for errors.
type Param<'a> = dyn FnMut(&str) -> Result<f64, String> + 'a;

/// Builds a fault from its parameters, read in order.
type FaultArm = fn(&mut Param) -> Result<FaultKind, String>;

/// `--faults` arms.
const FAULT_ARMS: &[(&str, FaultArm)] = &[
    ("dropout", |p| Ok(FaultKind::Dropout { rate: p("RATE")? })),
    ("late", |p| {
        Ok(FaultKind::LateArrival {
            fraction: p("FRACTION")?,
            latest_round: p("LATEST_ROUND")? as u32,
        })
    }),
    ("drop-upload", |p| Ok(FaultKind::DroppedUploads { rate: p("RATE")? })),
    ("straggler", |p| {
        Ok(FaultKind::StragglerUploads {
            rate: p("RATE")?,
            max_retries: p("MAX_RETRIES")? as u32,
            backoff_rounds: p("BACKOFF_ROUNDS")? as u32,
        })
    }),
    ("gps", |p| Ok(FaultKind::GpsNoise { sigma: p("SIGMA_METERS")? })),
    ("budget-shock", |p| {
        Ok(FaultKind::BudgetShock { round: p("ROUND")? as u32, factor: p("FACTOR")? })
    }),
    ("outage", |p| Ok(FaultKind::DemandOutage { rate: p("RATE")? })),
];

/// Everything the flags can set, at its default until a flag sets it.
struct Parsed {
    sub: Subs,
    scenario: Scenario,
    faults: Option<Vec<FaultKind>>,
    fault_seed: Option<u64>,
    /// Run and compare options; their scenario is filled in last.
    options: Options,
    /// Daemon options; the config's scenario and state directory are
    /// filled in last.
    serve: ServeCommand,
    state_dir: Option<String>,
    trace_rounds: Option<(u32, u32)>,
    top: usize,
    rules: Vec<String>,
    fatal: bool,
}

impl Parsed {
    fn new(sub: Subs) -> Self {
        let mut config = DaemonConfig::new(Scenario::default(), PathBuf::new());
        config.addr = "127.0.0.1:9300".to_string();
        config.tick_interval = Some(Duration::from_millis(1000));
        Parsed {
            sub,
            scenario: Scenario::paper_default().with_seed(DEFAULT_SEED),
            faults: None,
            fault_seed: None,
            options: Options { reps: 10, ..Options::default() },
            serve: ServeCommand {
                config,
                timeseries_out: None,
                log_level: LogLevel::Info,
                log_json: None,
            },
            state_dir: None,
            trace_rounds: None,
            top: 20,
            rules: Vec::new(),
            fatal: false,
        }
    }

    /// The scenario with its fault plan attached, validated.
    fn take_scenario(&mut self) -> Result<Scenario, String> {
        let mut scenario = std::mem::take(&mut self.scenario);
        match (self.faults.take(), self.fault_seed) {
            (Some(faults), seed) => {
                scenario.faults = Some(FaultPlan { seed: seed.unwrap_or(0), faults });
            }
            (None, Some(_)) => return Err("--fault-seed needs --faults".into()),
            (None, None) => {}
        }
        scenario.validate().map_err(|e| e.to_string())?;
        Ok(scenario)
    }
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// A human-readable message naming the offending flag or argument.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().map(String::as_str);
    // Nothing, `help` or `--help` where a subcommand or an action
    // belongs asks for the usage.
    let mut word = || it.next().filter(|w| !matches!(*w, "--help" | "-h" | "help"));
    let Some(first) = word() else { return Ok(Command::Help) };
    let &(name, sub) = SUBCOMMANDS
        .iter()
        .find(|(name, _)| *name == first)
        .ok_or_else(|| format!("unknown command `{first}`"))?;
    let action = match sub & WITH_ACTION {
        0 => "",
        _ => match word() {
            Some(action) => action,
            None => return Ok(Command::Help),
        },
    };
    let label = if action.is_empty() { name.to_string() } else { format!("{name} {action}") };

    let mut args: Vec<(&Flag, Arg)> = Vec::new();
    let mut positional: Vec<&str> = Vec::new();
    while let Some(token) = it.next() {
        if matches!(token, "--help" | "-h") {
            return Ok(Command::Help);
        }
        if !token.starts_with("--") {
            if sub & POSITIONAL == 0 {
                return Err(format!("unexpected argument `{token}` for `{label}`"));
            }
            positional.push(token);
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == token && f.subs & sub != 0)
            .ok_or_else(|| format!("unknown flag `{token}` for `{label}`"))?;
        let value = match flag.arity {
            Switch => None,
            ValueFor(subs) if subs & sub == 0 => None,
            Value | ValueFor(_) => Some(it.next().ok_or_else(|| format!("{token} needs a value"))?),
        };
        args.push((flag, Arg { flag: flag.name, value }));
    }

    // A preset lays down a whole world, so it applies before the flags
    // that edit one, wherever it appears; the last preset wins.
    args.sort_by_key(|(flag, _)| flag.name != PRESET);
    let mut p = Parsed::new(sub);
    for (flag, arg) in &args {
        (flag.set)(&mut p, arg)?;
    }
    build(p, &label, action, &positional)
}

/// Turns the parsed flags and positional arguments into the command,
/// checking what no single flag can.
fn build(mut p: Parsed, label: &str, action: &str, positional: &[&str]) -> Result<Command, String> {
    Ok(match p.sub {
        RUN | COMPARE => {
            let options = Options { scenario: p.take_scenario()?, ..p.options };
            let checkpointed = options.checkpoint_every.is_some() || options.resume_from.is_some();
            if options.checkpoint_every.is_some() && options.checkpoint_file.is_none() {
                return Err("--checkpoint-every needs --checkpoint-file".into());
            }
            if checkpointed && options.reps != 1 {
                return Err("checkpointed runs are single-repetition: add --reps 1".into());
            }
            if checkpointed && options.trace_out.is_some() {
                return Err("--trace-out does not combine with checkpointed runs".into());
            }
            if p.sub == RUN {
                Command::Run(options)
            } else {
                Command::Compare(options)
            }
        }
        SERVE => {
            let state_dir =
                p.state_dir.take().ok_or("serve needs --state-dir DIR (checkpoint + WAL home)")?;
            let scenario = p.take_scenario()?;
            let mut serve = ServeCommand { timeseries_out: p.options.timeseries_out, ..p.serve };
            serve.config.scenario = scenario;
            serve.config.state_dir = PathBuf::from(state_dir);
            Command::Serve(Box::new(serve))
        }
        LINEAGE => {
            let state_dir = p
                .state_dir
                .take()
                .ok_or("lineage needs --state-dir DIR (the daemon's state directory)")?;
            let scenario = p.take_scenario()?;
            let action = match action {
                "show" => {
                    let [] = takes(label, positional, "no positional arguments")?;
                    LineageAction::Show
                }
                "trace-event" => {
                    let [id] = takes(label, positional, "one event id")?;
                    LineageAction::TraceEvent { id: parse_num("event id", id)? }
                }
                "verify" => {
                    let [] = takes(label, positional, "no positional arguments")?;
                    LineageAction::Verify
                }
                other => return Err(format!("unknown lineage subcommand `{other}`")),
            };
            Command::Lineage(Box::new(LineageCommand { scenario, state_dir, action }))
        }
        TRACE => {
            if p.trace_rounds.is_some() && action != "export" {
                return Err(format!("--rounds only applies to `trace export`, not `{label}`"));
            }
            let journal = || takes::<1>(label, positional, "one journal path").map(|[path]| path);
            Command::Trace(match action {
                "inspect" => TraceCommand::Inspect { path: journal()?.into() },
                "explain-task" => {
                    let [path, task] = takes(label, positional, "a journal path and a task id")?;
                    TraceCommand::ExplainTask {
                        path: path.into(),
                        task: parse_num("task id", task)?,
                    }
                }
                "explain-user" => {
                    let [path, user] = takes(label, positional, "a journal path and a user id")?;
                    TraceCommand::ExplainUser {
                        path: path.into(),
                        user: parse_num("user id", user)?,
                    }
                }
                "diff" => {
                    let [a, b] = takes(label, positional, "two journal paths")?;
                    TraceCommand::Diff { a: a.into(), b: b.into() }
                }
                "export" => {
                    TraceCommand::Export { path: journal()?.into(), rounds: p.trace_rounds }
                }
                "verify" => TraceCommand::Verify { path: journal()?.into() },
                other => return Err(format!("unknown trace subcommand `{other}`")),
            })
        }
        PROFILE => Command::Profile(match action {
            "report" => {
                let [path] = takes(label, positional, "one trace path")?;
                ProfileCommand::Report { path: path.into(), top: p.top }
            }
            "diff" => {
                let [before, after] = takes(label, positional, "two trace paths (BEFORE AFTER)")?;
                ProfileCommand::Diff { before: before.into(), after: after.into(), top: p.top }
            }
            other => return Err(format!("unknown profile subcommand `{other}`")),
        }),
        _ => {
            let [path] = takes(label, positional, "one time-series path")?;
            Command::Alerts(AlertsCommand { path: path.into(), rules: p.rules, fatal: p.fatal })
        }
    })
}

/// The positional arguments, when there are exactly `N`.
fn takes<'a, const N: usize>(
    label: &str,
    positional: &[&'a str],
    usage: &str,
) -> Result<[&'a str; N], String> {
    positional.try_into().map_err(|_| format!("`{label}` takes {usage}"))
}

/// Parses `A..B` (inclusive on both ends) for `trace export --rounds`.
fn parse_round_range(spec: &str) -> Result<(u32, u32), String> {
    let (a, b) = spec
        .split_once("..")
        .ok_or_else(|| format!("--rounds: `{spec}` is not a range; expected A..B, e.g. 2..5"))?;
    let first: u32 = parse_num("--rounds start", a)?;
    let last: u32 = parse_num("--rounds end", b)?;
    if first == 0 {
        return Err("--rounds: rounds are 1-based; start at 1".into());
    }
    if first > last {
        return Err(format!("--rounds: empty range {first}..{last}"));
    }
    Ok((first, last))
}

fn parse_num<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: cannot parse `{value}`: {e}"))
}

/// Looks `value` up in a table of names; the error says what was asked for.
fn lookup<T: Copy>(table: &[(&str, T)], what: &str, value: &str) -> Result<T, String> {
    table
        .iter()
        .find(|(name, _)| *name == value)
        .map(|&(_, found)| found)
        .ok_or_else(|| format!("unknown {what} `{value}`"))
}

fn parse_travel(value: &str) -> Result<TravelModel, String> {
    let Some(spec) = value.strip_prefix(STREETS) else {
        return lookup(TRAVEL_MODELS, "travel model", value);
    };
    // Format: COLSxROWS:CLOSURE, e.g. streets:20x20:0.3
    let (dims, closure) = spec.split_once(':').ok_or("streets needs COLSxROWS:CLOSURE")?;
    let (cols, rows) = dims.split_once('x').ok_or("streets needs COLSxROWS")?;
    Ok(TravelModel::StreetGrid {
        cols: cols.parse().map_err(|e| format!("street cols: {e}"))?,
        rows: rows.parse().map_err(|e| format!("street rows: {e}"))?,
        closure: closure.parse().map_err(|e| format!("street closure: {e}"))?,
    })
}

fn parse_mechanism(value: &str) -> Result<MechanismKind, String> {
    let Some(alpha) = value.strip_prefix(HYBRID) else {
        return lookup(MECHANISMS, "mechanism", value);
    };
    let alpha: f64 = alpha.parse().map_err(|e| format!("hybrid alpha `{alpha}`: {e}"))?;
    Ok(MechanismKind::Hybrid { alpha })
}

fn parse_faults(value: &str) -> Result<Vec<FaultKind>, String> {
    value
        .split(',')
        .map(|arm| {
            let mut parts = arm.split(':');
            let name = parts.next().unwrap_or_default();
            let build = lookup(FAULT_ARMS, "fault", name)?;
            let kind = build(&mut |what| {
                let raw = parts.next().ok_or_else(|| format!("fault `{name}` needs {what}"))?;
                raw.parse().map_err(|e| format!("fault `{name}` {what} `{raw}`: {e}"))
            })?;
            if parts.next().is_some() {
                return Err(format!("fault `{name}` has too many parameters in `{arm}`"));
            }
            Ok(kind)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("run --help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(opts) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.reps, 10);
        assert_eq!(opts.scenario.users, 100);
        assert_eq!(opts.scenario.mechanism, MechanismKind::OnDemand);
    }

    #[test]
    fn full_flag_set() {
        let Command::Run(opts) = parse(&argv(
            "run --users 40 --tasks 10 --rounds 8 --area 2000 --radius 500 \
             --budget 750 --selector greedy --reps 3 --seed 9 \
             --mechanism hybrid:0.25 --enforce-budget",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.scenario.users, 40);
        assert_eq!(opts.scenario.tasks, 10);
        assert_eq!(opts.scenario.max_rounds, 8);
        assert_eq!(opts.scenario.area_side, 2000.0);
        assert_eq!(opts.scenario.neighbor_radius, 500.0);
        assert_eq!(opts.scenario.reward_budget, 750.0);
        assert_eq!(opts.scenario.selector, SelectorKind::Greedy);
        assert_eq!(opts.reps, 3);
        assert_eq!(opts.scenario.seed, 9);
        assert_eq!(opts.scenario.mechanism, MechanismKind::Hybrid { alpha: 0.25 });
        assert!(opts.scenario.enforce_budget);
    }

    #[test]
    fn compare_rejects_mechanism_flag() {
        let err = parse(&argv("compare --mechanism fixed")).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn all_selectors_and_mechanisms_parse() {
        for s in ["dp", "dp-exact", "greedy", "greedy2opt", "insertion", "branch-bound"] {
            assert!(lookup(SELECTORS, "selector", s).is_ok(), "{s}");
        }
        for m in ["on-demand", "fixed", "steered", "steered-paper", "proportional"] {
            assert!(parse_mechanism(m).is_ok(), "{m}");
        }
        assert_eq!(parse_mechanism("hybrid:0.5").unwrap(), MechanismKind::Hybrid { alpha: 0.5 });
    }

    #[test]
    fn presets_parse_and_compose_with_overrides() {
        let Command::Run(opts) = parse(&argv("run --preset dense-downtown --users 33")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(opts.scenario.area_side, 1500.0);
        assert_eq!(opts.scenario.users, 33, "later flags override the preset");
        let err = parse(&argv("run --preset atlantis")).unwrap_err();
        assert!(err.contains("unknown preset"), "{err}");
        assert!(err.contains("dense-downtown"), "error lists options: {err}");
    }

    #[test]
    fn sensing_time_and_dropout_parse() {
        let Command::Run(opts) = parse(&argv("run --sensing-time 120 --dropout 0.25")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(opts.scenario.sensing_seconds, 120.0);
        assert_eq!(opts.scenario.dropout_rate, 0.25);
        assert!(parse(&argv("run --dropout 1.5")).unwrap_err().contains("dropout"));
        assert!(parse(&argv("run --sensing-time -3")).unwrap_err().contains("sensing"));
    }

    #[test]
    fn threads_and_indexing_flags_parse() {
        let Command::Run(opts) = parse(&argv("run --threads 4 --indexing naive")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.scenario.indexing, IndexingMode::NaiveReference);

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(defaults.threads, None);
        assert_eq!(defaults.scenario.indexing, IndexingMode::CellSweep);

        let Command::Run(zero) = parse(&argv("run --threads 0")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(zero.threads, None, "0 means all cores");

        assert!(parse(&argv("run --indexing quantum"))
            .unwrap_err()
            .contains("unknown indexing mode"));
        // Every round prices straight from Eqs. 3–7; there is no
        // pricing cache to switch off.
        for cmd in ["run --no-cache", "compare --no-cache --threads 2"] {
            assert!(parse(&argv(cmd)).unwrap_err().contains("unknown flag `--no-cache`"), "{cmd}");
        }
    }

    #[test]
    fn demand_backend_flags_parse() {
        // `--indexing` is the one name for the Eq. 5 backend.
        assert!(parse(&argv("run --demand-backend naive"))
            .unwrap_err()
            .contains("unknown flag `--demand-backend`"));
        for removed in ["incremental", "rebuild", "cell-sweep"] {
            assert!(parse(&argv(&format!("run --indexing {removed}")))
                .unwrap_err()
                .contains("unknown indexing mode"));
        }
        assert!(parse(&argv("run --demand-threads 4")).unwrap_err().contains("--demand-threads"));
    }

    #[test]
    fn metrics_flags_parse() {
        let Command::Run(opts) = parse(&argv("run --profile --metrics-out /tmp/m.json")).unwrap()
        else {
            panic!("expected run");
        };
        assert!(opts.profile);
        assert_eq!(opts.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert!(opts.recording());

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert!(!defaults.profile);
        assert_eq!(defaults.metrics_out, None);
        assert!(!defaults.recording());

        let Command::Run(out_only) = parse(&argv("run --metrics-out /tmp/m.prom")).unwrap() else {
            panic!("expected run");
        };
        assert!(out_only.recording(), "--metrics-out alone implies recording");

        assert!(parse(&argv("compare --profile")).is_ok());
        // The path's suffix picks the format; there is no format flag.
        for sub in ["run", "compare"] {
            let err = parse(&argv(&format!("{sub} --metrics-format json"))).unwrap_err();
            assert!(err.contains(&format!("unknown flag `--metrics-format` for `{sub}`")), "{err}");
        }
    }

    #[test]
    fn alloc_profile_flag_parses_and_implies_recording() {
        let Command::Run(opts) = parse(&argv("run --alloc-profile")).unwrap() else {
            panic!("expected run");
        };
        assert!(opts.alloc_profile);
        assert!(opts.recording(), "--alloc-profile alone implies recording");

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert!(!defaults.alloc_profile);
        assert!(parse(&argv("compare --alloc-profile")).is_ok());
    }

    #[test]
    fn the_sampling_profiler_flags_are_unknown() {
        for sub in ["run", "compare"] {
            for flag in ["--profile-cpu", "--profile-out"] {
                let err = parse(&argv(&format!("{sub} {flag} 99"))).unwrap_err();
                assert!(err.contains(&format!("unknown flag `{flag}` for `{sub}`")), "{err}");
            }
        }
    }

    #[test]
    fn profile_subcommands_parse() {
        assert_eq!(
            parse(&argv("profile report /tmp/a.json --top 3")).unwrap(),
            Command::Profile(ProfileCommand::Report { path: "/tmp/a.json".into(), top: 3 })
        );
        assert_eq!(
            parse(&argv("profile diff /tmp/a.json /tmp/b.json")).unwrap(),
            Command::Profile(ProfileCommand::Diff {
                before: "/tmp/a.json".into(),
                after: "/tmp/b.json".into(),
                top: 20,
            })
        );
        assert_eq!(parse(&argv("profile --help")).unwrap(), Command::Help);
        // Traces are recorded by `run --trace-events OUT`.
        assert!(parse(&argv("profile record /tmp/a.json"))
            .unwrap_err()
            .contains("unknown profile subcommand"));
        assert!(parse(&argv("profile diff /tmp/a.json")).unwrap_err().contains("two trace"));
        assert!(parse(&argv("profile report /tmp/a.json --top 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("profile report /tmp/a.json --hz 9"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("profile flamethrow")).unwrap_err().contains("unknown profile"));
    }

    #[test]
    fn travel_models_parse() {
        assert_eq!(parse_travel("euclidean").unwrap(), TravelModel::Euclidean);
        assert_eq!(parse_travel("manhattan").unwrap(), TravelModel::Manhattan);
        assert_eq!(
            parse_travel("streets:20x15:0.3").unwrap(),
            TravelModel::StreetGrid { cols: 20, rows: 15, closure: 0.3 }
        );
        assert!(parse_travel("streets:20").is_err());
        assert!(parse_travel("streets:20x15").is_err());
        assert!(parse_travel("hyperloop").is_err());
        // Invalid street parameters are caught by scenario validation.
        let argv: Vec<String> =
            "run --travel streets:1x5:0.3".split_whitespace().map(str::to_string).collect();
        assert!(parse(&argv).unwrap_err().contains("travel"));
    }

    #[test]
    fn faults_flag_builds_a_plan() {
        let Command::Run(opts) = parse(&argv(
            "run --faults dropout:0.2,drop-upload:0.1,straggler:0.2:3:1,gps:25,\
             budget-shock:6:0.5,outage:0.15,late:0.3:5 --fault-seed 7",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        let plan = opts.scenario.faults.expect("plan attached");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.faults.len(), 7);
        assert!(plan.faults.contains(&FaultKind::Dropout { rate: 0.2 }));
        assert!(plan.faults.contains(&FaultKind::StragglerUploads {
            rate: 0.2,
            max_retries: 3,
            backoff_rounds: 1
        }));
        assert!(plan.faults.contains(&FaultKind::BudgetShock { round: 6, factor: 0.5 }));

        // Seed defaults to 0; --fault-seed alone is a user error.
        let Command::Run(defaulted) = parse(&argv("run --faults gps:10")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(defaulted.scenario.faults.unwrap().seed, 0);
        assert!(parse(&argv("run --fault-seed 3")).unwrap_err().contains("--faults"));

        // Bad arms are named; invalid rates surface scenario validation.
        assert!(parse(&argv("run --faults warp:0.1")).unwrap_err().contains("unknown fault"));
        assert!(parse(&argv("run --faults dropout")).unwrap_err().contains("needs RATE"));
        assert!(parse(&argv("run --faults gps:10:4")).unwrap_err().contains("too many"));
        assert!(parse(&argv("run --faults dropout:1.5")).unwrap_err().contains("faults"));
        // Compare accepts fault plans too (all mechanisms get the same plan).
        assert!(parse(&argv("compare --faults dropout:0.1")).is_ok());
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let Command::Run(opts) =
            parse(&argv("run --reps 1 --checkpoint-every 3 --checkpoint-file /tmp/c.ck")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(opts.checkpoint_every, Some(3));
        assert_eq!(opts.checkpoint_file.as_deref(), Some("/tmp/c.ck"));
        assert_eq!(opts.resume_from, None);

        let Command::Run(resume) = parse(&argv("run --reps 1 --resume /tmp/c.ck")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(resume.resume_from.as_deref(), Some("/tmp/c.ck"));

        assert!(parse(&argv("run --reps 1 --checkpoint-every 3"))
            .unwrap_err()
            .contains("--checkpoint-file"));
        assert!(parse(&argv("run --reps 1 --checkpoint-every 0 --checkpoint-file /tmp/c"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("run --checkpoint-every 3 --checkpoint-file /tmp/c"))
            .unwrap_err()
            .contains("--reps 1"));
        assert!(parse(&argv("run --resume /tmp/c.ck")).unwrap_err().contains("--reps 1"));
        // Checkpointing is a `run` feature.
        assert!(parse(&argv("compare --resume /tmp/c.ck")).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn trace_out_parses_on_run_only() {
        let Command::Run(opts) = parse(&argv("run --trace-out /tmp/r.trace")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/r.trace"));

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(defaults.trace_out, None);

        assert!(parse(&argv("compare --trace-out /tmp/r.trace"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("run --reps 1 --trace-out /t --resume /tmp/c.ck"))
            .unwrap_err()
            .contains("does not combine"));
    }

    #[test]
    fn trace_subcommands_parse() {
        assert_eq!(
            parse(&argv("trace inspect /tmp/a.trace")).unwrap(),
            Command::Trace(TraceCommand::Inspect { path: "/tmp/a.trace".into() })
        );
        assert_eq!(
            parse(&argv("trace explain-task /tmp/a.trace 7")).unwrap(),
            Command::Trace(TraceCommand::ExplainTask { path: "/tmp/a.trace".into(), task: 7 })
        );
        assert_eq!(
            parse(&argv("trace explain-user /tmp/a.trace 12")).unwrap(),
            Command::Trace(TraceCommand::ExplainUser { path: "/tmp/a.trace".into(), user: 12 })
        );
        assert_eq!(
            parse(&argv("trace diff /tmp/a.trace /tmp/b.trace")).unwrap(),
            Command::Trace(TraceCommand::Diff {
                a: "/tmp/a.trace".into(),
                b: "/tmp/b.trace".into()
            })
        );
        // JSON Lines is the only export format; there is no flag for it.
        assert!(parse(&argv("trace export /tmp/a.trace --format jsonl"))
            .unwrap_err()
            .contains("unknown flag `--format`"));
        assert_eq!(
            parse(&argv("trace export /tmp/a.trace")).unwrap(),
            Command::Trace(TraceCommand::Export { path: "/tmp/a.trace".into(), rounds: None })
        );
        assert_eq!(
            parse(&argv("trace export /tmp/a.trace --rounds 2..5")).unwrap(),
            Command::Trace(TraceCommand::Export {
                path: "/tmp/a.trace".into(),
                rounds: Some((2, 5))
            })
        );
        assert_eq!(
            parse(&argv("trace verify /tmp/a.trace")).unwrap(),
            Command::Trace(TraceCommand::Verify { path: "/tmp/a.trace".into() })
        );
        assert_eq!(parse(&argv("trace")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("trace --help")).unwrap(), Command::Help);
    }

    #[test]
    fn trace_errors_name_the_problem() {
        assert!(parse(&argv("trace explode /x")).unwrap_err().contains("unknown trace subcommand"));
        assert!(parse(&argv("trace inspect")).unwrap_err().contains("one journal path"));
        assert!(parse(&argv("trace inspect /a /b")).unwrap_err().contains("one journal path"));
        assert!(parse(&argv("trace explain-task /a")).unwrap_err().contains("task id"));
        assert!(parse(&argv("trace explain-task /a pony")).unwrap_err().contains("cannot parse"));
        assert!(parse(&argv("trace diff /a")).unwrap_err().contains("two journal paths"));
        assert!(parse(&argv("trace inspect /a --format jsonl"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("trace export /a --banana")).unwrap_err().contains("unknown flag"));
        assert!(parse(&argv("trace export /a --rounds 5")).unwrap_err().contains("A..B"));
        assert!(parse(&argv("trace export /a --rounds 5..2")).unwrap_err().contains("empty"));
        assert!(parse(&argv("trace export /a --rounds 0..2")).unwrap_err().contains("1-based"));
        assert!(parse(&argv("trace inspect /a --rounds 1..2"))
            .unwrap_err()
            .contains("only applies to `trace export`"));
    }

    #[test]
    fn telemetry_flags_parse() {
        let Command::Run(opts) = parse(&argv(
            "run --timeseries-out /tmp/ts.json --trace-events /tmp/t.json --alerts-fatal",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.timeseries_out.as_deref(), Some("/tmp/ts.json"));
        assert_eq!(opts.trace_events_out.as_deref(), Some("/tmp/t.json"));
        assert!(opts.alerts_fatal);
        assert!(opts.recording(), "telemetry flags imply recording");
        assert!(opts.telemetry());

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert!(!defaults.telemetry());
        let Command::Run(metrics_only) = parse(&argv("run --metrics-out /tmp/m.prom")).unwrap()
        else {
            panic!("expected run");
        };
        assert!(metrics_only.recording() && !metrics_only.telemetry());
        assert!(parse(&argv("compare --timeseries-out /tmp/ts.csv")).is_ok());
        // A batch run's telemetry is read from its files once it ends.
        for sub in ["run", "compare"] {
            let err = parse(&argv(&format!("{sub} --serve-metrics 127.0.0.1:0"))).unwrap_err();
            assert!(err.contains(&format!("unknown flag `--serve-metrics` for `{sub}`")), "{err}");
        }
    }

    #[test]
    fn alerts_subcommand_parses() {
        assert_eq!(
            parse(&argv("alerts /tmp/ts.json")).unwrap(),
            Command::Alerts(AlertsCommand {
                path: "/tmp/ts.json".into(),
                rules: vec![],
                fatal: false
            })
        );
        assert_eq!(
            parse(&argv("alerts /tmp/ts.json --rule engine_retry_queue_depth,>=,5,2 --fatal"))
                .unwrap(),
            Command::Alerts(AlertsCommand {
                path: "/tmp/ts.json".into(),
                rules: vec!["engine_retry_queue_depth,>=,5,2".into()],
                fatal: true
            })
        );
        assert!(parse(&argv("alerts")).unwrap_err().contains("time-series"));
        assert!(parse(&argv("alerts /a /b")).unwrap_err().contains("one time-series path"));
        assert!(parse(&argv("alerts /a --rule nonsense")).unwrap_err().contains("expected"));
        assert!(parse(&argv("alerts /a --banana")).unwrap_err().contains("unknown flag"));
        assert_eq!(parse(&argv("alerts --help")).unwrap(), Command::Help);
    }

    #[test]
    fn serve_defaults_and_full_flag_set_parse() {
        let Command::Serve(cmd) = parse(&argv("serve --state-dir /tmp/pd-state")).unwrap() else {
            panic!("expected serve");
        };
        let config = &cmd.config;
        assert_eq!(config.state_dir, PathBuf::from("/tmp/pd-state"));
        assert_eq!(config.addr, "127.0.0.1:9300");
        assert_eq!(config.tick_interval, Some(Duration::from_millis(1000)));
        assert_eq!(config.queue_capacity, 4096);
        assert_eq!(config.workers, 4);
        assert_eq!(config.checkpoint_every, 1);
        assert_eq!(config.limits.max_body_bytes, 256 * 1024);
        assert!(!config.resume && config.fsync && !config.debug_panic_route);
        assert_eq!(cmd.timeseries_out, None);
        assert_eq!(config.scenario.seed, 24157);

        let Command::Serve(full) = parse(&argv(
            "serve --state-dir /d --resume --addr 0.0.0.0:0 --tick-ms 0 \
             --queue-cap 64 --http-workers 2 --checkpoint-every-ticks 3 \
             --max-body-bytes 1024 --no-fsync --timeseries-out /tmp/ts.json \
             --debug-panic-route --users 30 --tasks 10 --rounds 8 --seed 7 \
             --selector greedy --mechanism fixed --enforce-budget",
        ))
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(full.timeseries_out.as_deref(), Some("/tmp/ts.json"));
        let full = full.config;
        assert!(full.resume && !full.fsync && full.debug_panic_route);
        assert_eq!(full.addr, "0.0.0.0:0");
        assert_eq!(full.tick_interval, None, "0 means manual POST /tick");
        assert_eq!(full.queue_capacity, 64);
        assert_eq!(full.workers, 2);
        assert_eq!(full.checkpoint_every, 3);
        assert_eq!(full.limits.max_body_bytes, 1024);
        assert_eq!(full.scenario.users, 30);
        assert_eq!(full.scenario.seed, 7);
        assert_eq!(full.scenario.selector, SelectorKind::Greedy);
        assert_eq!(full.scenario.mechanism, MechanismKind::Fixed);
        assert!(full.scenario.enforce_budget);
    }

    #[test]
    fn serve_errors_name_the_problem() {
        assert!(parse(&argv("serve")).unwrap_err().contains("--state-dir"));
        assert!(parse(&argv("serve --state-dir /d --queue-cap 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("serve --state-dir /d --http-workers 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("serve --state-dir /d --checkpoint-every-ticks 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("serve --state-dir /d --reps 3"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("serve --state-dir /d --users 0")).unwrap_err().contains("users"));
        assert_eq!(parse(&argv("serve --help")).unwrap(), Command::Help);
        // Presets compose like in `run`.
        let Command::Serve(preset) =
            parse(&argv("serve --state-dir /d --preset dense-downtown --users 33")).unwrap()
        else {
            panic!("expected serve");
        };
        assert_eq!(preset.config.scenario.area_side, 1500.0);
        assert_eq!(preset.config.scenario.users, 33);
    }

    #[test]
    fn serve_log_flags_parse() {
        let Command::Serve(cmd) = parse(&argv("serve --state-dir /d")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(cmd.log_level, LogLevel::Info, "info is the default");
        assert_eq!(cmd.log_json, None);

        let Command::Serve(cmd) =
            parse(&argv("serve --state-dir /d --log-level debug --log-json /tmp/d.jsonl")).unwrap()
        else {
            panic!("expected serve");
        };
        assert_eq!(cmd.log_level, LogLevel::Debug);
        assert_eq!(cmd.log_json.as_deref(), Some("/tmp/d.jsonl"));

        assert!(parse(&argv("serve --state-dir /d --log-level loud"))
            .unwrap_err()
            .contains("unknown log level"));
    }

    #[test]
    fn lineage_subcommands_parse() {
        let Command::Lineage(cmd) = parse(&argv("lineage show --state-dir /tmp/pd")).unwrap()
        else {
            panic!("expected lineage");
        };
        assert_eq!(cmd.state_dir, "/tmp/pd");
        assert_eq!(cmd.action, LineageAction::Show);

        let Command::Lineage(cmd) =
            parse(&argv("lineage trace-event 42 --state-dir /tmp/pd")).unwrap()
        else {
            panic!("expected lineage");
        };
        assert_eq!(cmd.action, LineageAction::TraceEvent { id: 42 });

        let Command::Lineage(cmd) = parse(&argv(
            "lineage verify --state-dir /tmp/pd --users 30 --tasks 10 --seed 7 \
             --selector greedy --mechanism fixed --enforce-budget",
        ))
        .unwrap() else {
            panic!("expected lineage");
        };
        assert_eq!(cmd.action, LineageAction::Verify);
        assert_eq!(cmd.scenario.users, 30);
        assert_eq!(cmd.scenario.seed, 7);
        assert_eq!(cmd.scenario.selector, SelectorKind::Greedy);
        assert_eq!(cmd.scenario.mechanism, MechanismKind::Fixed);
        assert!(cmd.scenario.enforce_budget);

        assert_eq!(parse(&argv("lineage")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("lineage --help")).unwrap(), Command::Help);
    }

    #[test]
    fn lineage_errors_name_the_problem() {
        assert!(parse(&argv("lineage explode --state-dir /d"))
            .unwrap_err()
            .contains("unknown lineage subcommand"));
        assert!(parse(&argv("lineage show")).unwrap_err().contains("--state-dir"));
        assert!(parse(&argv("lineage trace-event --state-dir /d"))
            .unwrap_err()
            .contains("one event id"));
        assert!(parse(&argv("lineage trace-event pony --state-dir /d"))
            .unwrap_err()
            .contains("cannot parse"));
        assert!(parse(&argv("lineage show 7 --state-dir /d"))
            .unwrap_err()
            .contains("no positional"));
        assert!(parse(&argv("lineage verify --state-dir /d --reps 3"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("lineage verify --state-dir /d --users 0"))
            .unwrap_err()
            .contains("users"));
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(parse(&argv("explode")).unwrap_err().contains("unknown command"));
        assert!(parse(&argv("run --users")).unwrap_err().contains("needs a value"));
        assert!(parse(&argv("run --users abc")).unwrap_err().contains("cannot parse"));
        assert!(parse(&argv("run --selector magic")).unwrap_err().contains("unknown selector"));
        assert!(parse(&argv("run --mechanism magic")).unwrap_err().contains("unknown mechanism"));
        assert!(parse(&argv("run --reps 0")).unwrap_err().contains("at least 1"));
        // Scenario-level validation also surfaces.
        assert!(parse(&argv("run --users 0")).unwrap_err().contains("users"));
        assert!(parse(&argv("run --mechanism hybrid:7")).unwrap_err().contains("alpha"));
    }

    #[test]
    fn an_unknown_flag_is_named_not_asked_for_a_value() {
        assert_eq!(parse(&argv("run --bogus")).unwrap_err(), "unknown flag `--bogus` for `run`");
    }

    #[test]
    fn a_stray_word_is_an_unexpected_argument() {
        assert_eq!(
            parse(&argv("run --users 10 stray")).unwrap_err(),
            "unexpected argument `stray` for `run`"
        );
    }

    #[test]
    fn a_switch_takes_no_value() {
        assert_eq!(
            parse(&argv("run --enforce-budget true")).unwrap_err(),
            "unexpected argument `true` for `run`"
        );
    }

    #[test]
    fn a_flag_another_subcommand_takes_is_unknown_before_its_value() {
        assert_eq!(
            parse(&argv("compare --mechanism")).unwrap_err(),
            "unknown flag `--mechanism` for `compare`"
        );
    }

    #[test]
    fn serve_resume_is_a_switch() {
        assert_eq!(
            parse(&argv("serve --state-dir /d --resume /x")).unwrap_err(),
            "unexpected argument `/x` for `serve`"
        );
    }

    /// The scenario each subcommand that builds one parses from `tail`.
    fn scenarios(tail: &str) -> [Scenario; 3] {
        let run = match parse(&argv(&format!("run {tail}"))).unwrap() {
            Command::Run(opts) => opts.scenario,
            other => panic!("expected run, got {other:?}"),
        };
        let serve = match parse(&argv(&format!("serve --state-dir /d {tail}"))).unwrap() {
            Command::Serve(cmd) => cmd.config.scenario,
            other => panic!("expected serve, got {other:?}"),
        };
        let lineage = match parse(&argv(&format!("lineage verify --state-dir /d {tail}"))).unwrap()
        {
            Command::Lineage(cmd) => cmd.scenario,
            other => panic!("expected lineage, got {other:?}"),
        };
        [run, serve, lineage]
    }

    #[test]
    fn a_preset_applies_first_wherever_it_appears() {
        for scenario in scenarios("--users 33 --preset dense-downtown") {
            assert_eq!(scenario.area_side, 1500.0, "the preset's world");
            assert_eq!(scenario.users, 33, "the flag before the preset survives");
            assert_eq!(scenario.seed, 24157, "the default seed");
        }
        for scenario in scenarios("--enforce-budget --seed 7 --preset paper") {
            assert!(scenario.enforce_budget, "the budget cap survives the preset");
            assert_eq!(scenario.seed, 7);
        }
        for scenario in scenarios("--preset dense-downtown --preset paper") {
            assert_eq!(scenario.area_side, 3000.0, "the last preset wins");
        }
        let Command::Run(opts) = parse(&argv(
            "run --users 20 --preset paper --tasks 5 --rounds 3 --reps 1 --selector greedy",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(
            (opts.scenario.users, opts.scenario.tasks, opts.scenario.max_rounds),
            (20, 5, 3)
        );
        assert_eq!(opts.scenario.selector, SelectorKind::Greedy);
    }

    /// Whether `word` occurs in `text` with no flag-name character on
    /// either side.
    fn mentions(text: &str, word: &str) -> bool {
        let name_char = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        text.match_indices(word).any(|(at, _)| {
            !text[..at].ends_with(name_char) && !text[at + word.len()..].starts_with(name_char)
        })
    }

    #[test]
    fn usage_and_parser_name_the_same_flags_and_values() {
        let mut accepted: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        accepted.extend(SELECTORS.iter().map(|(n, _)| *n));
        accepted.extend(MECHANISMS.iter().map(|(n, _)| *n));
        accepted.extend(TRAVEL_MODELS.iter().map(|(n, _)| *n));
        accepted.extend(INDEXING_MODES.iter().map(|(n, _)| *n));
        accepted.extend(FAULT_ARMS.iter().map(|(n, _)| *n));
        accepted.extend(SUBCOMMANDS.iter().map(|(n, _)| *n));
        accepted.extend([HYBRID, STREETS].map(|prefix| prefix.trim_end_matches(':')));
        let presets = paydemand_sim::presets::all();
        accepted.extend(presets.iter().map(|(n, _)| *n));
        let missing: Vec<&str> = accepted.into_iter().filter(|n| !mentions(USAGE, n)).collect();
        assert!(missing.is_empty(), "--help never mentions {missing:?}");

        let unknown: Vec<&str> = USAGE
            .match_indices("--")
            .map(|(at, _)| {
                let len = USAGE[at + 2..]
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(USAGE.len() - at - 2);
                &USAGE[at..at + 2 + len]
            })
            .filter(|flag| *flag != "--help" && FLAGS.iter().all(|f| f.name != *flag))
            .collect();
        assert!(unknown.is_empty(), "--help documents flags no subcommand takes: {unknown:?}");
    }
}
