//! Hand-rolled argument parsing (the approved dependency set has no
//! CLI crate; the grammar is small enough that a table-driven parser
//! stays readable).

use paydemand_obs::LogLevel;
use paydemand_sim::{
    FaultKind, FaultPlan, IndexingMode, MechanismKind, PricingCacheMode, Scenario, SelectorKind,
    TravelModel,
};

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
    paydemand profile SUBCOMMAND  record, report, and diff sampling-
                                  profiler captures (see docs/PROFILING.md)
    paydemand --help

PROFILE SUBCOMMANDS (captures are the folded-stack text written by
`profile record`, `run --profile-cpu --profile-out`, or GET /profile):
    profile record OUT [--hz N] [--users N --tasks N --rounds N --seed N
                        --selector NAME --mechanism NAME --budget D]
                                  run one simulation under the sampler
                                  and write the capture to OUT
    profile report PATH [--top N] print the hottest stacks of a capture
    profile diff BEFORE AFTER [--top N]
                                  differential profile: per-stack seconds
                                  delta, worst regression first

TRACE SUBCOMMANDS (over a journal written by `run --trace-out`):
    trace inspect PATH            frame counts, rounds, totals, faults
    trace explain-task PATH T     task T's demand/level/reward trajectory
    trace explain-user PATH U     user U's selections and earnings
    trace diff PATH_A PATH_B      first divergence between two journals
    trace export PATH [--format jsonl] [--rounds A..B]
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
                       commuter-town | flaky-fleet (apply first; later
                       flags override preset fields)
    --users N          number of mobile users          [default: 100]
    --tasks N          number of sensing tasks         [default: 20]
    --rounds N         sensing rounds                  [default: 15]
    --area METERS      square region side              [default: 3000]
    --radius METERS    neighbour radius R              [default: 1000]
    --budget DOLLARS   platform reward budget B        [default: 1000]
    --selector NAME    dp | greedy | greedy2opt | insertion | branch-bound
                                                       [default: dp]
    --travel MODEL     euclidean | manhattan | streets:COLSxROWS:CLOSURE
                                                       [default: euclidean]
    --sensing-time S   seconds per measurement         [default: 0]
    --dropout P        per-round user dropout rate     [default: 0]
    --reps N           repetitions (averaged)          [default: 10]
    --seed N           master seed                     [default: 24157]
    --threads N        worker threads (0 = all cores)  [default: 0]
    --enforce-budget   refuse payments past the budget
    --no-cache         disable the demand/pricing cache (identical
                       results; exists for benchmarking and debugging)
    --indexing MODE    cell | naive neighbour counting (identical
                       results; naive is the reference)  [default: cell]
    --demand-backend MODE   alias for --indexing (names the Eq. 5
                       counting backend)
    --metrics-out PATH write collected metrics to PATH (implies recording;
                       round-phase latencies, cache and selector counters)
    --metrics-format F prom | json exporter for --metrics-out [default: prom]
    --profile          record metrics and print a latency/counter summary
                       to stderr (identical simulation results either way)
    --alloc-profile    attribute heap allocations to engine phases and
                       export per-phase byte/count/peak families
                       (identical simulation results either way)
    --profile-cpu [HZ] sample the run's span stacks at HZ (default 99)
                       and print the hottest stacks to stderr
                       (identical simulation results either way)
    --profile-out PATH write the --profile-cpu capture to PATH instead
                       (read it back with `paydemand profile`)
    --timeseries-out PATH   snapshot every metric family at each round
                       boundary and write the per-round series to PATH
                       (.csv extension = CSV, anything else = JSON; the
                       JSON form feeds `paydemand alerts`)
    --trace-events PATH     write span timings as Chrome trace_event
                       JSON, openable in Perfetto / chrome://tracing
    --serve-metrics ADDR    serve /metrics, /healthz, /rounds.json and
                       /alerts.json over HTTP while the run executes
                       (e.g. 127.0.0.1:9090; port 0 picks a free one)
    --alerts-fatal     evaluate the default alert rules each round and
                       exit non-zero if any fired

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
    --http-workers N   connection worker threads (panic-isolated,
                       restarted by the supervisor)   [default: 4]
    --checkpoint-every-ticks N
                       checkpoint + compact the WAL every N ticks
                       [default: 1]
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
    --debug-panic-route     expose POST /debug/panic, which kills the
                       handling worker (supervisor testing only)

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
    /// Record, report, or diff sampling-profiler captures.
    Profile(ProfileCommand),
}

/// The `paydemand profile` subcommand family.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileCommand {
    /// Run one simulation under the sampling profiler and write the
    /// capture.
    Record {
        /// The scenario to run while sampling.
        scenario: Box<Scenario>,
        /// Sampling rate in Hz.
        hz: u32,
        /// Where the capture is written.
        out: String,
    },
    /// Print the hottest stacks of a saved capture.
    Report {
        /// Capture file.
        path: String,
        /// Stacks to show.
        top: usize,
    },
    /// Differential profile between two captures.
    Diff {
        /// Baseline capture.
        before: String,
        /// Capture to compare against the baseline.
        after: String,
        /// Entries to show.
        top: usize,
    },
}

/// A `paydemand serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCommand {
    /// The scenario the daemon's engine runs.
    pub scenario: Scenario,
    /// Bind address; port 0 picks a free one.
    pub addr: String,
    /// Directory holding `checkpoint.ck` and `events.wal`.
    pub state_dir: String,
    /// Continue from the state directory's checkpoint + WAL.
    pub resume: bool,
    /// Milliseconds between automatic ticks; 0 = manual `POST /tick`.
    pub tick_ms: u64,
    /// Ingest queue capacity in events.
    pub queue_cap: usize,
    /// Connection worker threads.
    pub http_workers: usize,
    /// Checkpoint (and WAL-compaction) cadence in ticks.
    pub checkpoint_every_ticks: u32,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// Skip the per-append WAL fsync (throughput experiments only).
    pub no_fsync: bool,
    /// Write the per-round time series here on shutdown.
    pub timeseries_out: Option<String>,
    /// Minimum severity kept by the daemon's flight recorder.
    pub log_level: LogLevel,
    /// Tee log entries to this path as JSON lines.
    pub log_json: Option<String>,
    /// Expose `POST /debug/panic` for supervisor testing.
    pub debug_panic_route: bool,
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

/// Options shared by the subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The fully-configured scenario.
    pub scenario: Scenario,
    /// Repetitions to average over.
    pub reps: usize,
    /// Worker threads (`None` = one per available core).
    pub threads: Option<usize>,
    /// Where to write collected metrics, if anywhere.
    pub metrics_out: Option<String>,
    /// Exporter for `metrics_out`.
    pub metrics_format: MetricsFormat,
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
    /// Serve live metrics over HTTP at this address during the run.
    pub serve_metrics: Option<String>,
    /// Exit non-zero when any default alert rule fired.
    pub alerts_fatal: bool,
    /// Sample the run's span stacks at this rate (`--profile-cpu`).
    pub profile_cpu: Option<u32>,
    /// Where the `--profile-cpu` capture goes; stderr report if unset.
    pub profile_out: Option<String>,
}

impl Options {
    /// Whether the run should record metrics at all.
    #[must_use]
    pub fn recording(&self) -> bool {
        self.profile
            || self.alloc_profile
            || self.profile_cpu.is_some()
            || self.metrics_out.is_some()
            || self.timeseries_out.is_some()
            || self.trace_events_out.is_some()
            || self.serve_metrics.is_some()
            || self.alerts_fatal
    }

    /// Whether round-boundary telemetry (time series + alert rules)
    /// should be attached to the recorder. Plain `--metrics-out` runs
    /// skip it so their exports carry exactly the historical families.
    #[must_use]
    pub fn telemetry(&self) -> bool {
        self.profile
            || self.timeseries_out.is_some()
            || self.serve_metrics.is_some()
            || self.alerts_fatal
    }
}

/// Exporter format for `--metrics-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Prometheus text exposition.
    #[default]
    Prometheus,
    /// A flat JSON document.
    Json,
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// A human-readable message naming the offending flag.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().map(String::as_str).peekable();
    let sub = match it.next() {
        None | Some("--help" | "-h" | "help") => return Ok(Command::Help),
        Some("serve") => return parse_serve(&mut it),
        Some("trace") => return parse_trace(&mut it),
        Some("lineage") => return parse_lineage(&mut it),
        Some("alerts") => return parse_alerts(&mut it),
        Some("profile") => return parse_profile(&mut it),
        Some(sub @ ("run" | "compare")) => sub,
        Some(other) => return Err(format!("unknown command `{other}`")),
    };

    let mut scenario = Scenario::paper_default().with_seed(24157);
    let mut reps = 10usize;
    let mut threads: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_format = MetricsFormat::default();
    let mut profile = false;
    let mut alloc_profile = false;
    let mut fault_kinds: Option<Vec<FaultKind>> = None;
    let mut fault_seed: Option<u64> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut checkpoint_file: Option<String> = None;
    let mut resume_from: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut timeseries_out: Option<String> = None;
    let mut trace_events_out: Option<String> = None;
    let mut serve_metrics: Option<String> = None;
    let mut alerts_fatal = false;
    let mut profile_cpu: Option<u32> = None;
    let mut profile_out: Option<String> = None;

    while let Some(flag) = it.next() {
        match flag {
            "--help" | "-h" => return Ok(Command::Help),
            "--enforce-budget" => scenario.enforce_budget = true,
            "--profile" => profile = true,
            "--alloc-profile" => alloc_profile = true,
            "--alerts-fatal" => alerts_fatal = true,
            // The Hz operand is optional: `--profile-cpu 250` sets the
            // rate, `--profile-cpu --seed 7` falls back to the default.
            "--profile-cpu" => {
                profile_cpu = Some(match it.peek().and_then(|v| v.parse::<u32>().ok()) {
                    Some(hz) => {
                        it.next();
                        if hz == 0 {
                            return Err("--profile-cpu: rate must be at least 1 Hz".into());
                        }
                        hz
                    }
                    None => DEFAULT_PROFILE_HZ,
                });
            }
            "--no-cache" => scenario.pricing_cache = PricingCacheMode::Disabled,
            "--preset" => {
                let name = it.next().ok_or("--preset needs a name")?;
                let seed = scenario.seed;
                scenario = paydemand_sim::presets::by_name(name)
                    .ok_or_else(|| {
                        let names: Vec<&str> =
                            paydemand_sim::presets::all().iter().map(|(n, _)| *n).collect();
                        format!("unknown preset `{name}`; available: {names:?}")
                    })?
                    .with_seed(seed);
            }
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--users" => scenario.users = parse_num(flag, value)?,
                    "--tasks" => scenario.tasks = parse_num(flag, value)?,
                    "--rounds" => scenario.max_rounds = parse_num(flag, value)?,
                    "--area" => scenario.area_side = parse_num(flag, value)?,
                    "--radius" => scenario.neighbor_radius = parse_num(flag, value)?,
                    "--budget" => scenario.reward_budget = parse_num(flag, value)?,
                    "--reps" => reps = parse_num(flag, value)?,
                    "--seed" => scenario.seed = parse_num(flag, value)?,
                    "--threads" => {
                        let n: usize = parse_num(flag, value)?;
                        threads = if n == 0 { None } else { Some(n) };
                    }
                    "--metrics-out" => metrics_out = Some(value.to_string()),
                    "--profile-out" => profile_out = Some(value.to_string()),
                    "--timeseries-out" => timeseries_out = Some(value.to_string()),
                    "--trace-events" => trace_events_out = Some(value.to_string()),
                    "--serve-metrics" => serve_metrics = Some(value.to_string()),
                    "--metrics-format" => {
                        metrics_format = match value {
                            "prom" | "prometheus" => MetricsFormat::Prometheus,
                            "json" => MetricsFormat::Json,
                            other => return Err(format!("unknown metrics format `{other}`")),
                        };
                    }
                    "--indexing" | "--demand-backend" => {
                        scenario.indexing = parse_indexing(value)?;
                    }
                    "--selector" => scenario.selector = parse_selector(value)?,
                    "--travel" => scenario.travel = parse_travel(value)?,
                    "--sensing-time" => scenario.sensing_seconds = parse_num(flag, value)?,
                    "--dropout" => scenario.dropout_rate = parse_num(flag, value)?,
                    "--faults" => fault_kinds = Some(parse_faults(value)?),
                    "--fault-seed" => fault_seed = Some(parse_num(flag, value)?),
                    "--mechanism" if sub == "run" => {
                        scenario.mechanism = parse_mechanism(value)?;
                    }
                    "--checkpoint-every" if sub == "run" => {
                        checkpoint_every = Some(parse_num(flag, value)?);
                    }
                    "--checkpoint-file" if sub == "run" => {
                        checkpoint_file = Some(value.to_string());
                    }
                    "--resume" if sub == "run" => resume_from = Some(value.to_string()),
                    "--trace-out" if sub == "run" => trace_out = Some(value.to_string()),
                    other => return Err(format!("unknown flag `{other}` for `{sub}`")),
                }
            }
        }
    }
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    match (fault_kinds, fault_seed) {
        (Some(kinds), seed) => {
            scenario.faults = Some(FaultPlan { seed: seed.unwrap_or(0), faults: kinds });
        }
        (None, Some(_)) => return Err("--fault-seed needs --faults".into()),
        (None, None) => {}
    }
    if checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if checkpoint_every.is_some() && checkpoint_file.is_none() {
        return Err("--checkpoint-every needs --checkpoint-file".into());
    }
    if (checkpoint_every.is_some() || resume_from.is_some()) && reps != 1 {
        return Err("checkpointed runs are single-repetition: add --reps 1".into());
    }
    if trace_out.is_some() && (checkpoint_every.is_some() || resume_from.is_some()) {
        return Err("--trace-out does not combine with checkpointed runs".into());
    }
    if profile_out.is_some() && profile_cpu.is_none() {
        return Err("--profile-out needs --profile-cpu".into());
    }
    scenario.validate().map_err(|e| e.to_string())?;
    let options = Options {
        scenario,
        reps,
        threads,
        metrics_out,
        metrics_format,
        profile,
        alloc_profile,
        checkpoint_every,
        checkpoint_file,
        resume_from,
        trace_out,
        timeseries_out,
        trace_events_out,
        serve_metrics,
        alerts_fatal,
        profile_cpu,
        profile_out,
    };
    Ok(match sub {
        "run" => Command::Run(options),
        _ => Command::Compare(options),
    })
}

/// Parses the `paydemand serve` tail: daemon knobs plus the shared
/// scenario flags (a subset of `run`'s; one scenario, no repetitions).
fn parse_serve<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> Result<Command, String> {
    let mut scenario = Scenario::paper_default().with_seed(24157);
    let mut addr = "127.0.0.1:9300".to_string();
    let mut state_dir: Option<String> = None;
    let mut resume = false;
    let mut tick_ms = 1000u64;
    let mut queue_cap = 4096usize;
    let mut http_workers = 4usize;
    let mut checkpoint_every_ticks = 1u32;
    let mut max_body_bytes = 256 * 1024usize;
    let mut no_fsync = false;
    let mut timeseries_out: Option<String> = None;
    let mut log_level = LogLevel::Info;
    let mut log_json: Option<String> = None;
    let mut debug_panic_route = false;

    while let Some(flag) = it.next() {
        match flag {
            "--help" | "-h" => return Ok(Command::Help),
            "--resume" => resume = true,
            "--no-fsync" => no_fsync = true,
            "--debug-panic-route" => debug_panic_route = true,
            "--enforce-budget" => scenario.enforce_budget = true,
            "--preset" => {
                let name = it.next().ok_or("--preset needs a name")?;
                let seed = scenario.seed;
                scenario = paydemand_sim::presets::by_name(name)
                    .ok_or_else(|| {
                        let names: Vec<&str> =
                            paydemand_sim::presets::all().iter().map(|(n, _)| *n).collect();
                        format!("unknown preset `{name}`; available: {names:?}")
                    })?
                    .with_seed(seed);
            }
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--users" => scenario.users = parse_num(flag, value)?,
                    "--tasks" => scenario.tasks = parse_num(flag, value)?,
                    "--rounds" => scenario.max_rounds = parse_num(flag, value)?,
                    "--area" => scenario.area_side = parse_num(flag, value)?,
                    "--radius" => scenario.neighbor_radius = parse_num(flag, value)?,
                    "--budget" => scenario.reward_budget = parse_num(flag, value)?,
                    "--seed" => scenario.seed = parse_num(flag, value)?,
                    "--selector" => scenario.selector = parse_selector(value)?,
                    "--travel" => scenario.travel = parse_travel(value)?,
                    "--mechanism" => scenario.mechanism = parse_mechanism(value)?,
                    "--addr" => addr = value.to_string(),
                    "--state-dir" => state_dir = Some(value.to_string()),
                    "--tick-ms" => tick_ms = parse_num(flag, value)?,
                    "--queue-cap" => queue_cap = parse_num(flag, value)?,
                    "--http-workers" => http_workers = parse_num(flag, value)?,
                    "--checkpoint-every-ticks" => {
                        checkpoint_every_ticks = parse_num(flag, value)?;
                    }
                    "--max-body-bytes" => max_body_bytes = parse_num(flag, value)?,
                    "--timeseries-out" => timeseries_out = Some(value.to_string()),
                    "--log-level" => log_level = LogLevel::parse(value)?,
                    "--log-json" => log_json = Some(value.to_string()),
                    other => return Err(format!("unknown flag `{other}` for `serve`")),
                }
            }
        }
    }
    let state_dir = state_dir.ok_or("serve needs --state-dir DIR (checkpoint + WAL home)")?;
    if queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    if http_workers == 0 {
        return Err("--http-workers must be at least 1".into());
    }
    if checkpoint_every_ticks == 0 {
        return Err("--checkpoint-every-ticks must be at least 1".into());
    }
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(Command::Serve(Box::new(ServeCommand {
        scenario,
        addr,
        state_dir,
        resume,
        tick_ms,
        queue_cap,
        http_workers,
        checkpoint_every_ticks,
        max_body_bytes,
        no_fsync,
        timeseries_out,
        log_level,
        log_json,
        debug_panic_route,
    })))
}

/// Parses the `paydemand lineage` tail: a subcommand, `--state-dir`,
/// and (for `verify`, which re-runs the engine) the serve scenario
/// flags.
fn parse_lineage<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> Result<Command, String> {
    let action = match it.next() {
        None | Some("--help" | "-h" | "help") => return Ok(Command::Help),
        Some(action) => action,
    };
    let mut scenario = Scenario::paper_default().with_seed(24157);
    let mut state_dir: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Ok(Command::Help),
            "--enforce-budget" => scenario.enforce_budget = true,
            "--preset" => {
                let name = it.next().ok_or("--preset needs a name")?;
                let seed = scenario.seed;
                scenario = paydemand_sim::presets::by_name(name)
                    .ok_or_else(|| {
                        let names: Vec<&str> =
                            paydemand_sim::presets::all().iter().map(|(n, _)| *n).collect();
                        format!("unknown preset `{name}`; available: {names:?}")
                    })?
                    .with_seed(seed);
            }
            flag if flag.starts_with("--") => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--state-dir" => state_dir = Some(value.to_string()),
                    "--users" => scenario.users = parse_num(flag, value)?,
                    "--tasks" => scenario.tasks = parse_num(flag, value)?,
                    "--rounds" => scenario.max_rounds = parse_num(flag, value)?,
                    "--area" => scenario.area_side = parse_num(flag, value)?,
                    "--radius" => scenario.neighbor_radius = parse_num(flag, value)?,
                    "--budget" => scenario.reward_budget = parse_num(flag, value)?,
                    "--seed" => scenario.seed = parse_num(flag, value)?,
                    "--selector" => scenario.selector = parse_selector(value)?,
                    "--travel" => scenario.travel = parse_travel(value)?,
                    "--mechanism" => scenario.mechanism = parse_mechanism(value)?,
                    other => {
                        return Err(format!("unknown flag `{other}` for `lineage {action}`"));
                    }
                }
            }
            value => positional.push(value),
        }
    }
    let state_dir =
        state_dir.ok_or("lineage needs --state-dir DIR (the daemon's state directory)")?;
    scenario.validate().map_err(|e| e.to_string())?;
    let arity = |n: usize, usage: &str| -> Result<(), String> {
        if positional.len() == n {
            Ok(())
        } else {
            Err(format!("`lineage {action}` takes {usage}"))
        }
    };
    let action = match action {
        "show" => {
            arity(0, "no positional arguments")?;
            LineageAction::Show
        }
        "trace-event" => {
            arity(1, "one event id")?;
            LineageAction::TraceEvent { id: parse_num("event id", positional[0])? }
        }
        "verify" => {
            arity(0, "no positional arguments")?;
            LineageAction::Verify
        }
        other => return Err(format!("unknown lineage subcommand `{other}`")),
    };
    Ok(Command::Lineage(Box::new(LineageCommand { scenario, state_dir, action })))
}

fn parse_trace<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> Result<Command, String> {
    let action = match it.next() {
        None | Some("--help" | "-h" | "help") => return Ok(Command::Help),
        Some(action) => action,
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut format: Option<&str> = None;
    let mut rounds: Option<(u32, u32)> = None;
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Ok(Command::Help),
            "--format" => {
                format = Some(it.next().ok_or("--format needs a value")?);
            }
            "--rounds" => {
                let spec = it.next().ok_or("--rounds needs a range like 2..5")?;
                rounds = Some(parse_round_range(spec)?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `trace {action}`"));
            }
            value => positional.push(value),
        }
    }
    if format.is_some() && action != "export" {
        return Err(format!("--format only applies to `trace export`, not `trace {action}`"));
    }
    if rounds.is_some() && action != "export" {
        return Err(format!("--rounds only applies to `trace export`, not `trace {action}`"));
    }
    if let Some(fmt) = format {
        if fmt != "jsonl" {
            return Err(format!("unknown export format `{fmt}` (only `jsonl`)"));
        }
    }
    let arity = |n: usize, usage: &str| -> Result<(), String> {
        if positional.len() == n {
            Ok(())
        } else {
            Err(format!("`trace {action}` takes {usage}"))
        }
    };
    let cmd = match action {
        "inspect" => {
            arity(1, "one journal path")?;
            TraceCommand::Inspect { path: positional[0].to_string() }
        }
        "explain-task" => {
            arity(2, "a journal path and a task id")?;
            TraceCommand::ExplainTask {
                path: positional[0].to_string(),
                task: parse_num("task id", positional[1])?,
            }
        }
        "explain-user" => {
            arity(2, "a journal path and a user id")?;
            TraceCommand::ExplainUser {
                path: positional[0].to_string(),
                user: parse_num("user id", positional[1])?,
            }
        }
        "diff" => {
            arity(2, "two journal paths")?;
            TraceCommand::Diff { a: positional[0].to_string(), b: positional[1].to_string() }
        }
        "export" => {
            arity(1, "one journal path")?;
            TraceCommand::Export { path: positional[0].to_string(), rounds }
        }
        "verify" => {
            arity(1, "one journal path")?;
            TraceCommand::Verify { path: positional[0].to_string() }
        }
        other => return Err(format!("unknown trace subcommand `{other}`")),
    };
    Ok(Command::Trace(cmd))
}

/// Default sampling rate for `--profile-cpu` and `profile record`.
const DEFAULT_PROFILE_HZ: u32 = 99;

/// Parses the `paydemand profile` tail: a subcommand, its positional
/// capture paths, and (for `record`) the sampling rate plus a subset of
/// the scenario flags.
fn parse_profile<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> Result<Command, String> {
    let action = match it.next() {
        None | Some("--help" | "-h" | "help") => return Ok(Command::Help),
        Some(action) => action,
    };
    let mut scenario = Scenario::paper_default().with_seed(24157);
    let mut hz = DEFAULT_PROFILE_HZ;
    let mut top = 20usize;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Ok(Command::Help),
            flag if flag.starts_with("--") => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--hz" if action == "record" => {
                        hz = parse_num(flag, value)?;
                        if hz == 0 {
                            return Err("--hz must be at least 1".into());
                        }
                    }
                    "--top" if action != "record" => {
                        top = parse_num(flag, value)?;
                        if top == 0 {
                            return Err("--top must be at least 1".into());
                        }
                    }
                    "--users" if action == "record" => scenario.users = parse_num(flag, value)?,
                    "--tasks" if action == "record" => scenario.tasks = parse_num(flag, value)?,
                    "--rounds" if action == "record" => {
                        scenario.max_rounds = parse_num(flag, value)?;
                    }
                    "--seed" if action == "record" => scenario.seed = parse_num(flag, value)?,
                    "--budget" if action == "record" => {
                        scenario.reward_budget = parse_num(flag, value)?;
                    }
                    "--selector" if action == "record" => {
                        scenario.selector = parse_selector(value)?;
                    }
                    "--mechanism" if action == "record" => {
                        scenario.mechanism = parse_mechanism(value)?;
                    }
                    other => return Err(format!("unknown flag `{other}` for `profile {action}`")),
                }
            }
            value => positional.push(value),
        }
    }
    let arity = |n: usize, usage: &str| -> Result<(), String> {
        if positional.len() == n {
            Ok(())
        } else {
            Err(format!("`profile {action}` takes {usage}"))
        }
    };
    let cmd = match action {
        "record" => {
            arity(1, "one output path")?;
            scenario.validate().map_err(|e| e.to_string())?;
            ProfileCommand::Record {
                scenario: Box::new(scenario),
                hz,
                out: positional[0].to_string(),
            }
        }
        "report" => {
            arity(1, "one capture path")?;
            ProfileCommand::Report { path: positional[0].to_string(), top }
        }
        "diff" => {
            arity(2, "two capture paths (BEFORE AFTER)")?;
            ProfileCommand::Diff {
                before: positional[0].to_string(),
                after: positional[1].to_string(),
                top,
            }
        }
        other => return Err(format!("unknown profile subcommand `{other}`")),
    };
    Ok(Command::Profile(cmd))
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

/// Parses the `paydemand alerts PATH [--rule SPEC]... [--fatal]` tail.
fn parse_alerts<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> Result<Command, String> {
    let mut path: Option<String> = None;
    let mut rules: Vec<String> = Vec::new();
    let mut fatal = false;
    while let Some(arg) = it.next() {
        match arg {
            "--help" | "-h" => return Ok(Command::Help),
            "--fatal" => fatal = true,
            "--rule" => {
                let spec = it.next().ok_or("--rule needs METRIC,CMP,THRESHOLD,FOR_ROUNDS")?;
                // Validate eagerly so a typo is reported before the run.
                paydemand_obs::AlertRule::parse(spec)?;
                rules.push(spec.to_string());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `alerts`"));
            }
            value if path.is_none() => path = Some(value.to_string()),
            extra => return Err(format!("`alerts` takes one time-series path, got `{extra}` too")),
        }
    }
    let path = path.ok_or("`alerts` needs a time-series JSON path (from --timeseries-out)")?;
    Ok(Command::Alerts(AlertsCommand { path, rules, fatal }))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: cannot parse `{value}`: {e}"))
}

fn parse_selector(value: &str) -> Result<SelectorKind, String> {
    Ok(match value {
        "dp" => SelectorKind::Dp { candidate_cap: Some(14) },
        "dp-exact" => SelectorKind::exact_dp(),
        "greedy" => SelectorKind::Greedy,
        "greedy2opt" => SelectorKind::GreedyTwoOpt,
        "insertion" => SelectorKind::Insertion,
        "branch-bound" => SelectorKind::BranchBound,
        other => return Err(format!("unknown selector `{other}`")),
    })
}

fn parse_indexing(value: &str) -> Result<IndexingMode, String> {
    Ok(match value {
        "cell" => IndexingMode::CellSweep,
        "naive" => IndexingMode::NaiveReference,
        other => return Err(format!("unknown indexing mode `{other}`")),
    })
}

fn parse_travel(value: &str) -> Result<TravelModel, String> {
    if let Some(spec) = value.strip_prefix("streets:") {
        // Format: COLSxROWS:CLOSURE, e.g. streets:20x20:0.3
        let (dims, closure) = spec.split_once(':').ok_or("streets needs COLSxROWS:CLOSURE")?;
        let (cols, rows) = dims.split_once('x').ok_or("streets needs COLSxROWS")?;
        return Ok(TravelModel::StreetGrid {
            cols: cols.parse().map_err(|e| format!("street cols: {e}"))?,
            rows: rows.parse().map_err(|e| format!("street rows: {e}"))?,
            closure: closure.parse().map_err(|e| format!("street closure: {e}"))?,
        });
    }
    Ok(match value {
        "euclidean" => TravelModel::Euclidean,
        "manhattan" => TravelModel::Manhattan,
        other => return Err(format!("unknown travel model `{other}`")),
    })
}

fn parse_faults(value: &str) -> Result<Vec<FaultKind>, String> {
    let mut kinds = Vec::new();
    for arm in value.split(',') {
        let mut parts = arm.split(':');
        let name = parts.next().unwrap_or_default();
        let mut param = |what: &str| -> Result<f64, String> {
            let raw = parts.next().ok_or_else(|| format!("fault `{name}` needs {what}"))?;
            raw.parse().map_err(|e| format!("fault `{name}` {what} `{raw}`: {e}"))
        };
        let kind = match name {
            "dropout" => FaultKind::Dropout { rate: param("RATE")? },
            "late" => FaultKind::LateArrival {
                fraction: param("FRACTION")?,
                latest_round: param("LATEST_ROUND")? as u32,
            },
            "drop-upload" => FaultKind::DroppedUploads { rate: param("RATE")? },
            "straggler" => FaultKind::StragglerUploads {
                rate: param("RATE")?,
                max_retries: param("MAX_RETRIES")? as u32,
                backoff_rounds: param("BACKOFF_ROUNDS")? as u32,
            },
            "gps" => FaultKind::GpsNoise { sigma: param("SIGMA_METERS")? },
            "budget-shock" => {
                FaultKind::BudgetShock { round: param("ROUND")? as u32, factor: param("FACTOR")? }
            }
            "outage" => FaultKind::DemandOutage { rate: param("RATE")? },
            other => return Err(format!("unknown fault `{other}`")),
        };
        if parts.next().is_some() {
            return Err(format!("fault `{name}` has too many parameters in `{arm}`"));
        }
        kinds.push(kind);
    }
    Ok(kinds)
}

fn parse_mechanism(value: &str) -> Result<MechanismKind, String> {
    if let Some(alpha) = value.strip_prefix("hybrid:") {
        let alpha: f64 = alpha.parse().map_err(|e| format!("hybrid alpha `{alpha}`: {e}"))?;
        return Ok(MechanismKind::Hybrid { alpha });
    }
    Ok(match value {
        "on-demand" => MechanismKind::OnDemand,
        "fixed" => MechanismKind::Fixed,
        "steered" => MechanismKind::Steered,
        "steered-paper" => MechanismKind::SteeredPaperConstants,
        "proportional" => MechanismKind::Proportional,
        other => return Err(format!("unknown mechanism `{other}`")),
    })
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
            assert!(parse_selector(s).is_ok(), "{s}");
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
    fn threads_cache_and_indexing_flags_parse() {
        let Command::Run(opts) =
            parse(&argv("run --threads 4 --no-cache --indexing naive")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.scenario.pricing_cache, PricingCacheMode::Disabled);
        assert_eq!(opts.scenario.indexing, IndexingMode::NaiveReference);

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(defaults.threads, None);
        assert_eq!(defaults.scenario.pricing_cache, PricingCacheMode::Enabled);
        assert_eq!(defaults.scenario.indexing, IndexingMode::CellSweep);

        let Command::Run(zero) = parse(&argv("run --threads 0")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(zero.threads, None, "0 means all cores");

        assert!(parse(&argv("run --indexing quantum"))
            .unwrap_err()
            .contains("unknown indexing mode"));
        assert!(parse(&argv("compare --no-cache --threads 2")).is_ok());
    }

    #[test]
    fn demand_backend_flags_parse() {
        let Command::Run(opts) = parse(&argv("run --demand-backend naive")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.scenario.indexing, IndexingMode::NaiveReference);

        let Command::Run(cell) =
            parse(&argv("run --indexing naive --demand-backend cell")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(cell.scenario.indexing, IndexingMode::CellSweep);

        for removed in ["incremental", "rebuild", "cell-sweep"] {
            assert!(parse(&argv(&format!("run --demand-backend {removed}")))
                .unwrap_err()
                .contains("unknown indexing mode"));
        }
        assert!(parse(&argv("run --demand-threads 4")).unwrap_err().contains("--demand-threads"));
    }

    #[test]
    fn metrics_flags_parse() {
        let Command::Run(opts) =
            parse(&argv("run --profile --metrics-out /tmp/m.json --metrics-format json")).unwrap()
        else {
            panic!("expected run");
        };
        assert!(opts.profile);
        assert_eq!(opts.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert_eq!(opts.metrics_format, MetricsFormat::Json);
        assert!(opts.recording());

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert!(!defaults.profile);
        assert_eq!(defaults.metrics_out, None);
        assert_eq!(defaults.metrics_format, MetricsFormat::Prometheus);
        assert!(!defaults.recording());

        let Command::Run(out_only) = parse(&argv("run --metrics-out /tmp/m.prom")).unwrap() else {
            panic!("expected run");
        };
        assert!(out_only.recording(), "--metrics-out alone implies recording");

        assert!(parse(&argv("compare --profile")).is_ok());
        assert!(parse(&argv("run --metrics-format yaml"))
            .unwrap_err()
            .contains("unknown metrics format"));
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
    fn profile_cpu_flag_parses_with_and_without_a_rate() {
        let Command::Run(opts) = parse(&argv("run --profile-cpu 250 --seed 7")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.profile_cpu, Some(250));
        assert_eq!(opts.scenario.seed, 7, "the rate operand must not eat --seed");
        assert!(opts.recording(), "--profile-cpu alone implies recording");

        // No operand: the next flag survives and the rate defaults.
        let Command::Run(opts) = parse(&argv("run --profile-cpu --seed 7")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.profile_cpu, Some(99));
        assert_eq!(opts.scenario.seed, 7);

        // Trailing position works too.
        let Command::Run(opts) = parse(&argv("run --profile-cpu")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.profile_cpu, Some(99));

        let Command::Run(opts) =
            parse(&argv("run --profile-cpu 99 --profile-out /tmp/run.prof")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(opts.profile_out.as_deref(), Some("/tmp/run.prof"));

        let Command::Run(defaults) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(defaults.profile_cpu, None);
        assert!(parse(&argv("run --profile-cpu 0")).unwrap_err().contains("at least 1"));
        assert!(parse(&argv("run --profile-out /tmp/p")).unwrap_err().contains("--profile-cpu"));
        assert!(parse(&argv("compare --profile-cpu 50")).is_ok());
    }

    #[test]
    fn profile_subcommands_parse() {
        let Command::Profile(ProfileCommand::Record { scenario, hz, out }) =
            parse(&argv("profile record /tmp/a.prof --hz 500 --users 40 --rounds 6 --seed 3"))
                .unwrap()
        else {
            panic!("expected profile record");
        };
        assert_eq!(out, "/tmp/a.prof");
        assert_eq!(hz, 500);
        assert_eq!(scenario.users, 40);
        assert_eq!(scenario.max_rounds, 6);
        assert_eq!(scenario.seed, 3);

        let Command::Profile(ProfileCommand::Record { hz, .. }) =
            parse(&argv("profile record /tmp/a.prof")).unwrap()
        else {
            panic!("expected profile record");
        };
        assert_eq!(hz, 99, "default rate");

        assert_eq!(
            parse(&argv("profile report /tmp/a.prof --top 3")).unwrap(),
            Command::Profile(ProfileCommand::Report { path: "/tmp/a.prof".into(), top: 3 })
        );
        assert_eq!(
            parse(&argv("profile diff /tmp/a.prof /tmp/b.prof")).unwrap(),
            Command::Profile(ProfileCommand::Diff {
                before: "/tmp/a.prof".into(),
                after: "/tmp/b.prof".into(),
                top: 20,
            })
        );
        assert_eq!(parse(&argv("profile --help")).unwrap(), Command::Help);
        assert!(parse(&argv("profile record")).unwrap_err().contains("one output path"));
        assert!(parse(&argv("profile diff /tmp/a.prof")).unwrap_err().contains("two capture"));
        assert!(parse(&argv("profile record /tmp/a.prof --hz 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("profile report /tmp/a.prof --hz 9"))
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
        assert_eq!(
            parse(&argv("trace export /tmp/a.trace --format jsonl")).unwrap(),
            Command::Trace(TraceCommand::Export { path: "/tmp/a.trace".into(), rounds: None })
        );
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
        assert!(parse(&argv("trace export /a --format xml")).unwrap_err().contains("jsonl"));
        assert!(parse(&argv("trace inspect /a --format jsonl"))
            .unwrap_err()
            .contains("only applies to `trace export`"));
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
            "run --timeseries-out /tmp/ts.json --trace-events /tmp/t.json \
             --serve-metrics 127.0.0.1:0 --alerts-fatal",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opts.timeseries_out.as_deref(), Some("/tmp/ts.json"));
        assert_eq!(opts.trace_events_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(opts.serve_metrics.as_deref(), Some("127.0.0.1:0"));
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
        // Compare serves sweep-style workloads too.
        assert!(parse(&argv("compare --serve-metrics 127.0.0.1:0")).is_ok());
        assert!(parse(&argv("compare --timeseries-out /tmp/ts.csv")).is_ok());
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
        assert_eq!(cmd.state_dir, "/tmp/pd-state");
        assert_eq!(cmd.addr, "127.0.0.1:9300");
        assert_eq!(cmd.tick_ms, 1000);
        assert_eq!(cmd.queue_cap, 4096);
        assert_eq!(cmd.http_workers, 4);
        assert_eq!(cmd.checkpoint_every_ticks, 1);
        assert_eq!(cmd.max_body_bytes, 256 * 1024);
        assert!(!cmd.resume && !cmd.no_fsync && !cmd.debug_panic_route);
        assert_eq!(cmd.timeseries_out, None);
        assert_eq!(cmd.scenario.seed, 24157);

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
        assert!(full.resume && full.no_fsync && full.debug_panic_route);
        assert_eq!(full.addr, "0.0.0.0:0");
        assert_eq!(full.tick_ms, 0, "0 means manual POST /tick");
        assert_eq!(full.queue_cap, 64);
        assert_eq!(full.http_workers, 2);
        assert_eq!(full.checkpoint_every_ticks, 3);
        assert_eq!(full.max_body_bytes, 1024);
        assert_eq!(full.timeseries_out.as_deref(), Some("/tmp/ts.json"));
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
        assert_eq!(preset.scenario.area_side, 1500.0);
        assert_eq!(preset.scenario.users, 33);
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
}
