//! The instrumentation layer must never perturb the simulation.
//!
//! The recorder threads through `engine::run_recorded` and the
//! parallel runner; these tests pin the two promises the obs crate
//! makes: (1) metrics on vs off yields bit-identical results across
//! the whole thread matrix, and (2) an enabled recorder actually
//! captures every metric family the acceptance criteria name.

use paydemand::faults::{FaultKind, FaultPlan};
use paydemand::obs::{evaluate_series, parse_json, AlertRule, Alerts, Recorder, TimeSeries};
use paydemand::sim::{engine, runner, MechanismKind, Scenario, SelectorKind};

fn scenario() -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(8)
        .with_selector(SelectorKind::Dp { candidate_cap: Some(12) })
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(0xD5EED)
}

#[test]
fn metrics_do_not_change_results() {
    let off = engine::run(&scenario()).unwrap();
    let recorder = Recorder::enabled();
    let on = engine::run_recorded(&scenario(), &recorder).unwrap();
    assert_eq!(off, on, "recording changed the simulation result");
}

#[test]
fn metrics_do_not_change_results_across_threads() {
    let s = scenario();
    let baseline = runner::run_repetitions_parallel(&s, 5, 1).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let recorder = Recorder::enabled();
        let batch = runner::run_repetitions_parallel_recorded(&s, 5, threads, &recorder).unwrap();
        assert_eq!(baseline, batch, "{threads}-thread recorded batch diverged");
    }
}

#[test]
fn enabled_recorder_captures_every_required_family() {
    let recorder = Recorder::enabled();
    runner::run_repetitions_parallel_recorded(&scenario(), 3, 2, &recorder).unwrap();
    let snap = recorder.snapshot();

    // Per-phase round latencies.
    for phase in ["demand", "pricing", "selection", "settlement", "movement"] {
        let h = snap
            .histogram_snapshot("round_phase_seconds", Some(("phase", phase)))
            .unwrap_or_else(|| panic!("missing round_phase_seconds{{phase={phase}}}"));
        assert!(h.count > 0, "phase {phase} recorded nothing");
    }
    let rounds = snap.histogram_snapshot("engine_round_seconds", None).unwrap();
    assert_eq!(rounds.count, snap.counter_value("engine_rounds_total", None).unwrap());
    assert_eq!(snap.counter_value("engine_runs_total", None), Some(3));

    // Cell-sweep counters.
    let full_sweeps = snap.counter_value("cell_sweep_full_sweeps_total", None).unwrap();
    let deltas = snap.counter_value("cell_sweep_delta_rounds_total", None).unwrap();
    assert!(full_sweeps >= 3, "every run primes the cell sweep with a full sweep");
    let rounds_total = snap.counter_value("engine_rounds_total", None).unwrap();
    assert_eq!(full_sweeps + deltas, rounds_total, "one neighbour count per engine round");

    // Per-selector solve timings.
    let solves = snap.counter_value("selector_solves_total", Some(("selector", "dp"))).unwrap();
    assert!(solves > 0);
    let solve =
        snap.histogram_snapshot("selector_solve_seconds", Some(("selector", "dp"))).unwrap();
    assert_eq!(solve.count, solves);

    // Runner-side accounting.
    assert_eq!(snap.counter_value("runner_jobs_total", None), Some(3));
    assert_eq!(snap.gauge_value("runner_queue_depth", None), Some(0));
    assert_eq!(snap.gauge_value("runner_threads", None), Some(2));

    // Both exporters render the snapshot.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE round_phase_seconds summary"), "{prom}");
    assert!(prom.contains("engine_runs_total 3"), "{prom}");
    let json = snap.to_json();
    assert!(json.contains("\"selector_solve_seconds\""), "{json}");
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'), "{json}");
}

/// Attaches the full telemetry stack (time series, default alerts,
/// trace events) to a fresh enabled recorder.
fn telemetry_recorder() -> Recorder {
    let recorder = Recorder::enabled();
    recorder.attach_timeseries(&TimeSeries::with_capacity(4096));
    recorder.attach_alerts(&Alerts::with_defaults());
    recorder.enable_trace_events(1 << 14);
    recorder
}

#[test]
fn telemetry_does_not_change_results_across_threads() {
    // The full stack — per-round snapshots, alert evaluation, span
    // tracing — must be as invisible to the simulation as bare metrics.
    let s = scenario();
    let baseline = runner::run_repetitions_parallel(&s, 5, 1).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let recorder = telemetry_recorder();
        let batch = runner::run_repetitions_parallel_recorded(&s, 5, threads, &recorder).unwrap();
        assert_eq!(baseline, batch, "{threads}-thread telemetry batch diverged");
        assert!(!recorder.timeseries().is_empty(), "round snapshots were captured");
        assert!(recorder.span_log().is_some(), "span log was attached");
    }
}

#[test]
fn shared_recorder_across_concurrent_engines_sums_exactly() {
    let a = scenario();
    let b = scenario().with_users(24).with_seed(0xB0B);

    // Reference: each engine with a private recorder.
    let (solo_a, solo_b) = (Recorder::enabled(), Recorder::enabled());
    let result_a = engine::run_recorded(&a, &solo_a).unwrap();
    let result_b = engine::run_recorded(&b, &solo_b).unwrap();
    let expected = solo_a.snapshot().merge(&solo_b.snapshot());

    // Both engines race on one shared recorder.
    let shared = Recorder::enabled();
    let (shared_a, shared_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| engine::run_recorded(&a, &shared).unwrap());
        let hb = scope.spawn(|| engine::run_recorded(&b, &shared).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(shared_a, result_a, "sharing a recorder changed engine A's result");
    assert_eq!(shared_b, result_b, "sharing a recorder changed engine B's result");

    // No lost updates: every counter and histogram count is exactly
    // the sum of the two solo runs.
    let snap = shared.snapshot();
    assert_eq!(snap.counter_value("engine_runs_total", None), Some(2));
    for (key, expected_value) in &expected.counters {
        let label = key.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()));
        assert_eq!(
            snap.counter_value(&key.name, label),
            Some(*expected_value),
            "counter {} diverged under sharing",
            key.name
        );
    }
    for (key, expected_hist) in &expected.histograms {
        let label = key.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()));
        let shared_hist = snap
            .histogram_snapshot(&key.name, label)
            .unwrap_or_else(|| panic!("histogram {} missing under sharing", key.name));
        assert_eq!(
            shared_hist.count, expected_hist.count,
            "histogram {} lost observations under sharing",
            key.name
        );
    }
}

#[test]
fn trace_events_json_is_valid_and_spans_nest() {
    let recorder = Recorder::enabled();
    recorder.enable_trace_events(1 << 14);
    engine::run_recorded(&scenario(), &recorder).unwrap();
    let json = recorder.trace_events_json().expect("trace events were enabled");
    let doc = parse_json(&json).expect("chrome trace JSON parses");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "an engine run emits span events");
    let mut names = std::collections::BTreeSet::new();
    for event in events {
        assert_eq!(event.get("ph").unwrap().as_str(), Some("X"));
        assert!(event.get("ts").is_some() && event.get("dur").is_some());
        assert!(event.get("pid").is_some() && event.get("tid").is_some());
        names.insert(event.get("name").unwrap().as_str().unwrap().to_owned());
    }
    for expected in ["round", "movement", "demand", "pricing"] {
        assert!(names.contains(expected), "span `{expected}` missing; saw {names:?}");
    }
    // Phase spans carry the round span as parent — the tree nests.
    let nested = events
        .iter()
        .any(|e| e.get("args").and_then(|a| a.get("parent")).is_some_and(|p| p.as_u64().is_some()));
    assert!(nested, "no span recorded a parent");
}

#[test]
fn a_panic_mid_span_leaves_the_open_span_stack_empty() {
    // Spans unwind with the panic, so the thread's stack of open spans
    // is empty after it: the next span is a root, and the trace's
    // parent links (what `paydemand profile` folds) stay true.
    let recorder = Recorder::enabled();
    recorder.enable_trace_events(64);
    let hist = recorder.histogram("round_phase_seconds");
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _round = recorder.scoped("round", &hist);
        let _demand = recorder.scoped("demand", &hist);
        panic!("boom mid-span");
    }));
    assert!(caught.is_err());
    drop(recorder.scoped("next", &hist));
    let events = recorder.span_log().unwrap().events();
    let by_name = |name: &str| events.iter().find(|e| e.name == name).unwrap();
    assert_eq!(events.len(), 3, "both unwound spans completed: {events:?}");
    assert_eq!(by_name("demand").parent, Some(by_name("round").id));
    assert_eq!(by_name("next").parent, None, "a panic left spans open");
}

#[test]
fn default_alerts_fire_on_faults_and_stay_silent_on_the_golden_run() {
    // The healthy golden run must not page anyone.
    let recorder = telemetry_recorder();
    engine::run_recorded(&scenario(), &recorder).unwrap();
    assert_eq!(recorder.alerts().events(), Vec::new(), "default rules fired on a healthy run");

    // A sponsor slashing the remaining budget to 2% at round 3 plus
    // heavy upload delay must trip the budget and straggler rules.
    let plan = FaultPlan::new(9)
        .with(FaultKind::BudgetShock { round: 3, factor: 0.02 })
        .with(FaultKind::StragglerUploads { rate: 0.6, max_retries: 3, backoff_rounds: 1 });
    let faulted = scenario().with_faults(plan);
    let recorder = telemetry_recorder();
    engine::run_recorded(&faulted, &recorder).unwrap();
    let alerts = recorder.alerts();
    let events = alerts.events();
    let rules_fired: std::collections::BTreeSet<&str> =
        events.iter().map(|e| e.rule.as_str()).collect();
    assert!(
        rules_fired.contains("budget_overrun_proximity"),
        "budget shock did not trip the budget rule: {events:?}"
    );
    assert!(
        rules_fired.contains("straggler_queue_growth"),
        "stragglers did not trip the queue rule: {events:?}"
    );
    let snap = recorder.snapshot();
    assert_eq!(
        snap.counter_total("alerts_total"),
        Some(events.len() as u64),
        "alerts_total disagrees with the event log"
    );

    // Offline replay of the saved series reports the same firings.
    let replayed = evaluate_series(&AlertRule::defaults(), &recorder.timeseries().samples());
    assert_eq!(replayed, events, "offline replay diverged from live evaluation");
}

#[test]
fn disabled_recorder_records_nothing() {
    let recorder = Recorder::disabled();
    runner::run_repetitions_parallel_recorded(&scenario(), 2, 2, &recorder).unwrap();
    let snap = recorder.snapshot();
    assert_eq!(snap.counter_value("engine_runs_total", None), None);
    assert_eq!(snap.histogram_snapshot("engine_round_seconds", None), None);
    assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
}
