//! Threshold alert rules evaluated over a recorded time series.
//!
//! A rule names a *per-round metric view* key (see below), a
//! comparator, a threshold, and how many consecutive rounds the
//! condition must hold before the alert fires (Prometheus' `for:`
//! semantics). The engine records one [`RoundSample`] per round
//! boundary into the attached [`TimeSeries`](crate::TimeSeries);
//! [`evaluate_series`] steps the rules over those samples and
//! [`render_table`] prints the firings. `--alerts-fatal`, `--profile`
//! and the offline `paydemand alerts` subcommand all read the series
//! through these two functions, so a run and the replay of its saved
//! series report the same firings.
//!
//! # Metric view keys
//!
//! Each round, the cumulative snapshot pair (previous, current) is
//! flattened into named values a rule can reference:
//!
//! * `name` / `name{key="value"}` — a counter's cumulative value or a
//!   gauge's current value;
//! * `…:delta` — a counter's increase over the round, or a gauge's
//!   change since the previous round (absent until the gauge has a
//!   prior reading);
//! * `…:count` / `…:delta_count` — a histogram's cumulative /
//!   per-round observation count;
//! * `…:p99` — the p99 of a histogram's *per-round* observations
//!   (bucket-delta estimate), in seconds for `*_seconds` histograms;
//!   also aggregated across labels under the bare family name;
//! * `ingest_ack_slo_burn_rate` — per-round
//!   `(Δingest_ack_slo_breaches_total / Δingest_ack_total) / 0.01`
//!   (the 1% error budget of the 99% ack-latency SLO), present only in
//!   rounds that acked at least one ingest batch.
//!
//! A key absent in a given round (e.g. the burn rate in a round with no
//! acks) resets the rule's streak rather than firing it.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::export::{label_suffix, scale_of};
use crate::metrics::HistogramSnapshot;
use crate::recorder::Snapshot;
use crate::timeseries::RoundSample;

/// How a rule compares the observed value to its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    /// Fires when `value > threshold`.
    Gt,
    /// Fires when `value >= threshold`.
    Ge,
    /// Fires when `value < threshold`.
    Lt,
    /// Fires when `value <= threshold`.
    Le,
}

impl Comparator {
    /// Whether `value` satisfies the comparison against `threshold`.
    #[must_use]
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Comparator::Gt => value > threshold,
            Comparator::Ge => value >= threshold,
            Comparator::Lt => value < threshold,
            Comparator::Le => value <= threshold,
        }
    }

    /// Parses `>`, `>=`, `<` or `<=`.
    ///
    /// # Errors
    ///
    /// A message naming the unknown operator.
    pub fn parse(text: &str) -> Result<Self, String> {
        Ok(match text {
            ">" => Comparator::Gt,
            ">=" => Comparator::Ge,
            "<" => Comparator::Lt,
            "<=" => Comparator::Le,
            other => return Err(format!("unknown comparator `{other}` (>, >=, <, <=)")),
        })
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Comparator::Gt => ">",
            Comparator::Ge => ">=",
            Comparator::Lt => "<",
            Comparator::Le => "<=",
        })
    }
}

/// One threshold rule over the per-round metric view.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name, shown in reports.
    pub name: String,
    /// Metric view key the rule watches (module docs list the forms).
    pub metric: String,
    /// Comparison direction.
    pub comparator: Comparator,
    /// Threshold the observed value is compared against.
    pub threshold: f64,
    /// Consecutive rounds the condition must hold before firing
    /// (minimum 1).
    pub for_rounds: u32,
}

impl AlertRule {
    /// The shipped default rules:
    ///
    /// | Rule | Fires when |
    /// |---|---|
    /// | `budget_overrun_proximity` | spend reaches 95% of the cap (`engine_budget_spent_permille >= 950`) for 2 rounds |
    /// | `straggler_queue_growth` | `engine_retry_queue_depth >= 1` for 2 rounds |
    /// | `solve_latency_p99_regression` | per-round `selector_solve_seconds:p99 > 0.05` (50 ms) for 2 rounds |
    /// | `memory_leak_suspected` | live heap strictly grows (`memory_live_bytes:delta > 0`) for 5 consecutive rounds |
    /// | `peak_rss_high` | `process_peak_rss_bytes >= 2 GiB` for 1 round |
    /// | `ingest_queue_saturation` | the daemon's ingest queue is ≥ 90% full (`ingest_queue_saturation_permille >= 900`) for 3 rounds |
    /// | `ingest_shedding` | the daemon shed events (`shed_total:delta > 0`) for 2 rounds |
    /// | `ingest_ack_slo_fast_burn` | the ack-latency SLO burns its error budget ≥ 14× the sustainable rate (`ingest_ack_slo_burn_rate >= 14`) for 2 rounds |
    /// | `ingest_ack_slo_slow_burn` | the budget burns at or above the sustainable rate (`ingest_ack_slo_burn_rate >= 1`) for 6 rounds |
    ///
    /// The two memory rules reference families that only exist when
    /// alloc profiling is on, and the ingest/SLO rules families only
    /// the `paydemand serve` daemon emits; where the keys stay absent
    /// the rules never accumulate a streak. The burn-rate pair follows
    /// the SRE multiwindow pattern: with a 99% availability objective
    /// (1% error budget), `burn_rate = (Δbreaches/Δacks) / 0.01` — the
    /// fast rule catches sudden outages, the slow rule sustained
    /// degradation.
    #[must_use]
    pub fn defaults() -> Vec<AlertRule> {
        let rule = |name: &str, metric: &str, comparator, threshold, for_rounds| AlertRule {
            name: name.to_owned(),
            metric: metric.to_owned(),
            comparator,
            threshold,
            for_rounds,
        };
        vec![
            rule(
                "budget_overrun_proximity",
                "engine_budget_spent_permille",
                Comparator::Ge,
                950.0,
                2,
            ),
            rule("straggler_queue_growth", "engine_retry_queue_depth", Comparator::Ge, 1.0, 2),
            rule(
                "solve_latency_p99_regression",
                "selector_solve_seconds:p99",
                Comparator::Gt,
                0.05,
                2,
            ),
            rule("memory_leak_suspected", "memory_live_bytes:delta", Comparator::Gt, 0.0, 5),
            rule("peak_rss_high", "process_peak_rss_bytes", Comparator::Ge, 2_147_483_648.0, 1),
            rule(
                "ingest_queue_saturation",
                "ingest_queue_saturation_permille",
                Comparator::Ge,
                900.0,
                3,
            ),
            rule("ingest_shedding", "shed_total:delta", Comparator::Gt, 0.0, 2),
            rule("ingest_ack_slo_fast_burn", "ingest_ack_slo_burn_rate", Comparator::Ge, 14.0, 2),
            rule("ingest_ack_slo_slow_burn", "ingest_ack_slo_burn_rate", Comparator::Ge, 1.0, 6),
        ]
    }

    /// Parses `METRIC,CMP,THRESHOLD,FOR_ROUNDS[,NAME]` (commas never
    /// appear inside metric view keys). `NAME` defaults to the metric
    /// key.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn parse(spec: &str) -> Result<AlertRule, String> {
        let parts: Vec<&str> = spec.split(',').collect();
        if !(4..=5).contains(&parts.len()) {
            return Err(format!(
                "alert rule `{spec}`: expected METRIC,CMP,THRESHOLD,FOR_ROUNDS[,NAME]"
            ));
        }
        let metric = parts[0].trim();
        if metric.is_empty() {
            return Err(format!("alert rule `{spec}`: empty metric"));
        }
        let comparator = Comparator::parse(parts[1].trim())?;
        let threshold: f64 =
            parts[2].trim().parse().map_err(|e| format!("alert rule `{spec}`: threshold: {e}"))?;
        let for_rounds: u32 =
            parts[3].trim().parse().map_err(|e| format!("alert rule `{spec}`: for_rounds: {e}"))?;
        if for_rounds == 0 {
            return Err(format!("alert rule `{spec}`: for_rounds must be at least 1"));
        }
        let name = parts.get(4).map_or(metric, |n| n.trim()).to_owned();
        Ok(AlertRule { name, metric: metric.to_owned(), comparator, threshold, for_rounds })
    }
}

/// A rule transitioning to the firing state at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Name of the rule that fired.
    pub rule: String,
    /// Metric view key the rule watches.
    pub metric: String,
    /// Round whose boundary completed the `for_rounds` streak.
    pub round: u32,
    /// Observed value at that boundary.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// The rule's comparison direction.
    pub comparator: Comparator,
}

#[derive(Debug)]
struct RuleState {
    streak: u32,
    firing: bool,
}

/// Steps `rules` over a recorded time series, oldest sample first, and
/// returns every transition into the firing state in series order.
/// This is the only alert evaluator: `--alerts-fatal`, `--profile` and
/// `paydemand alerts` all call it, so a run and the replay of its saved
/// series report the same firings. Several engines recording into one
/// series (a threaded run) interleave their samples, so deltas and
/// streaks mix their progress; a single-engine series attributes every
/// round exactly.
#[must_use]
pub fn evaluate_series(rules: &[AlertRule], samples: &[RoundSample]) -> Vec<AlertEvent> {
    let mut states: Vec<RuleState> =
        rules.iter().map(|_| RuleState { streak: 0, firing: false }).collect();
    let mut events = Vec::new();
    let mut prev: Option<&Snapshot> = None;
    for sample in samples {
        let view = flatten(prev, &sample.snapshot);
        for (rule, state) in rules.iter().zip(&mut states) {
            if let Some(event) = step_rule(rule, state, sample.round, &view) {
                events.push(event);
            }
        }
        prev = Some(&sample.snapshot);
    }
    events
}

/// Renders firings as an aligned table, one row per firing, closed by a
/// count line; `rounds` is the number of samples evaluated and
/// `dropped` the older samples the series evicted before them, which
/// the report names so a tail is never read as the whole run.
#[must_use]
pub fn render_table(
    rules: &[AlertRule],
    rounds: usize,
    dropped: u64,
    events: &[AlertEvent],
) -> String {
    let mut over = format!("{} rules over {rounds} round samples", rules.len());
    if dropped > 0 {
        let _ = write!(over, "; {dropped} older samples were dropped");
    }
    if events.is_empty() {
        return format!("alerts: none fired ({over})\n");
    }
    let width = events.iter().map(|e| e.rule.len()).chain([5]).max().unwrap_or(5);
    let mut out = format!("{:<width$} {:>6} {:>14} condition\n", "alert", "round", "value");
    for event in events {
        let _ = writeln!(
            out,
            "{:<width$} {:>6} {:>14} {} {} {}",
            event.rule, event.round, event.value, event.metric, event.comparator, event.threshold,
        );
    }
    let _ = writeln!(out, "{} firing(s) from {over}", events.len());
    out
}

/// Advances one rule's streak for one round; `Some` on the transition
/// into the firing state.
fn step_rule(
    rule: &AlertRule,
    state: &mut RuleState,
    round: u32,
    view: &BTreeMap<String, f64>,
) -> Option<AlertEvent> {
    match view.get(&rule.metric) {
        Some(&value) if rule.comparator.holds(value, rule.threshold) => {
            state.streak += 1;
            if state.streak >= rule.for_rounds && !state.firing {
                state.firing = true;
                return Some(AlertEvent {
                    rule: rule.name.clone(),
                    metric: rule.metric.clone(),
                    round,
                    value,
                    threshold: rule.threshold,
                    comparator: rule.comparator,
                });
            }
        }
        _ => {
            state.streak = 0;
            state.firing = false;
        }
    }
    None
}

#[allow(clippy::cast_precision_loss)]
fn as_f64(value: u64) -> f64 {
    value as f64
}

/// Flattens a (previous, current) snapshot pair into the per-round
/// metric view described in the module docs.
#[must_use]
pub fn flatten(prev: Option<&Snapshot>, cur: &Snapshot) -> BTreeMap<String, f64> {
    let mut view = BTreeMap::new();
    for (key, value) in &cur.counters {
        let series = format!("{}{}", key.name, label_suffix(key));
        let before = prev.and_then(|p| p.counter_value(&key.name, label_pair(key))).unwrap_or(0);
        view.insert(format!("{series}:delta"), as_f64(value.saturating_sub(before)));
        view.insert(series, as_f64(*value));
    }
    #[allow(clippy::cast_precision_loss)]
    for (key, value) in &cur.gauges {
        let series = format!("{}{}", key.name, label_suffix(key));
        // A gauge delta only exists once the gauge has a previous
        // reading; the key stays absent in the first round (streak
        // reset, not a spurious zero). Memory-leak rules watch
        // `memory_live_bytes:delta` so cumulative baselines cancel.
        if let Some(before) =
            prev.and_then(|p| p.gauges.iter().find(|(k, _)| k == key).map(|(_, v)| *v))
        {
            view.insert(format!("{series}:delta"), (*value - before) as f64);
        }
        view.insert(series, *value as f64);
    }
    let mut family_deltas: BTreeMap<&str, HistogramSnapshot> = BTreeMap::new();
    for (key, hist) in &cur.histograms {
        let series = format!("{}{}", key.name, label_suffix(key));
        let before = prev.and_then(|p| p.histogram_snapshot(&key.name, label_pair(key)));
        let delta = delta_histogram(before, hist);
        view.insert(format!("{series}:count"), as_f64(hist.count));
        view.insert(format!("{series}:delta_count"), as_f64(delta.count));
        if delta.count > 0 {
            let scale = scale_of(&key.name);
            view.insert(format!("{series}:p99"), as_f64(delta.quantile(0.99)) / scale);
            let entry = family_deltas.entry(&key.name).or_insert_with(HistogramSnapshot::empty);
            *entry = entry.merge(&delta);
        }
    }
    for (family, delta) in family_deltas {
        let scale = scale_of(family);
        view.entry(format!("{family}:p99")).or_insert(as_f64(delta.quantile(0.99)) / scale);
    }
    let counter_delta = |name: &str| {
        let now = cur.counter_total(name).unwrap_or(0);
        let before = prev.and_then(|p| p.counter_total(name)).unwrap_or(0);
        now.saturating_sub(before)
    };
    // Ack-latency SLO burn rate: fraction of the round's acks that
    // breached the latency objective, normalised by the 1% error
    // budget. 1.0 = burning exactly the sustainable rate; 100.0 =
    // every ack breached.
    let acks = counter_delta("ingest_ack_total");
    if acks > 0 {
        let breaches = counter_delta("ingest_ack_slo_breaches_total");
        view.insert(
            "ingest_ack_slo_burn_rate".to_owned(),
            (as_f64(breaches) / as_f64(acks)) / 0.01,
        );
    }
    view
}

fn label_pair(key: &crate::MetricKey) -> Option<(&str, &str)> {
    key.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()))
}

/// The per-round histogram: current buckets minus previous. `min`/`max`
/// are unknowable from cumulative snapshots, so the delta uses the
/// no-clamp sentinels and quantiles fall back to pure bucket
/// interpolation.
fn delta_histogram(prev: Option<&HistogramSnapshot>, cur: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = HistogramSnapshot {
        buckets: cur.buckets,
        count: cur.count,
        sum: cur.sum,
        min: 0,
        max: u64::MAX,
    };
    if let Some(prev) = prev {
        for (slot, before) in delta.buckets.iter_mut().zip(&prev.buckets) {
            *slot = slot.saturating_sub(*before);
        }
        delta.count = delta.count.saturating_sub(prev.count);
        delta.sum = delta.sum.saturating_sub(prev.sum);
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn snap(f: impl Fn(&Recorder)) -> Snapshot {
        let r = Recorder::enabled();
        f(&r);
        r.snapshot()
    }

    /// Numbers `snapshots` as rounds 1, 2, … of a recorded series.
    fn series(snapshots: impl IntoIterator<Item = Snapshot>) -> Vec<RoundSample> {
        (1..).zip(snapshots).map(|(round, snapshot)| RoundSample { round, snapshot }).collect()
    }

    /// Firings over the series' first `rounds` samples: what a run
    /// that stopped there would report.
    fn fired_by(rules: &[AlertRule], samples: &[RoundSample], rounds: usize) -> usize {
        evaluate_series(rules, &samples[..rounds]).len()
    }

    #[test]
    fn comparators_hold_and_round_trip() {
        assert!(Comparator::Gt.holds(2.0, 1.0));
        assert!(!Comparator::Gt.holds(1.0, 1.0));
        assert!(Comparator::Ge.holds(1.0, 1.0));
        assert!(Comparator::Lt.holds(0.5, 1.0));
        assert!(Comparator::Le.holds(1.0, 1.0));
        for text in [">", ">=", "<", "<="] {
            assert_eq!(Comparator::parse(text).unwrap().to_string(), text);
        }
        assert!(Comparator::parse("==").is_err());
    }

    #[test]
    fn rule_spec_parses_and_validates() {
        let rule = AlertRule::parse("engine_retry_queue_depth,>=,1,2,queue").unwrap();
        assert_eq!(rule.name, "queue");
        assert_eq!(rule.metric, "engine_retry_queue_depth");
        assert_eq!(rule.comparator, Comparator::Ge);
        assert_eq!((rule.threshold, rule.for_rounds), (1.0, 2));
        let unnamed = AlertRule::parse("x:p99,>,0.5,1").unwrap();
        assert_eq!(unnamed.name, "x:p99");
        assert!(AlertRule::parse("x").unwrap_err().contains("expected"));
        assert!(AlertRule::parse("x,>>,1,1").unwrap_err().contains("comparator"));
        assert!(AlertRule::parse("x,>,zebra,1").unwrap_err().contains("threshold"));
        assert!(AlertRule::parse("x,>,1,0").unwrap_err().contains("at least 1"));
        assert!(AlertRule::parse(",>,1,1").unwrap_err().contains("empty metric"));
    }

    #[test]
    #[allow(clippy::float_cmp)] // counter deltas and small ratios are exact in f64
    fn flatten_exposes_values_deltas_and_burn_rate() {
        let first = snap(|r| {
            r.counter("ingest_ack_total").add(4);
            r.counter("ingest_ack_slo_breaches_total").add(1);
            r.gauge("engine_retry_queue_depth").set(2);
            r.histogram_with("selector_solve_seconds", "selector", "dp").record(2_000_000);
        });
        let second = snap(|r| {
            r.counter("ingest_ack_total").add(104);
            r.counter("ingest_ack_slo_breaches_total").add(1);
            r.gauge("engine_retry_queue_depth").set(0);
            let h = r.histogram_with("selector_solve_seconds", "selector", "dp");
            h.record(2_000_000);
            h.record(600_000_000);
        });
        let view = flatten(Some(&first), &second);
        assert_eq!(view["ingest_ack_slo_breaches_total"], 1.0);
        assert_eq!(view["ingest_ack_slo_breaches_total:delta"], 0.0);
        assert_eq!(view["ingest_ack_total:delta"], 100.0);
        assert_eq!(view["engine_retry_queue_depth"], 0.0);
        assert_eq!(view["ingest_ack_slo_burn_rate"], 0.0);
        assert_eq!(view["selector_solve_seconds{selector=\"dp\"}:count"], 2.0);
        assert_eq!(view["selector_solve_seconds{selector=\"dp\"}:delta_count"], 1.0);
        let p99 = view["selector_solve_seconds:p99"];
        assert!(p99 > 0.25 && p99 < 1.1, "per-round p99 in seconds, got {p99}");

        // No prior snapshot: deltas equal the cumulative values.
        let cold = flatten(None, &first);
        assert_eq!(cold["ingest_ack_total:delta"], 4.0);
        assert_eq!(cold["ingest_ack_slo_burn_rate"], 25.0);

        // No acks in the round: the burn rate key is absent.
        let idle = flatten(Some(&second), &second);
        assert!(!idle.contains_key("ingest_ack_slo_burn_rate"));
        assert!(!idle.contains_key("selector_solve_seconds:p99"), "no new observations");
    }

    #[test]
    fn streaks_fire_once_and_reset() {
        let rules = [AlertRule {
            name: "queue".into(),
            metric: "engine_retry_queue_depth".into(),
            comparator: Comparator::Ge,
            threshold: 1.0,
            for_rounds: 2,
        }];
        let depth = |d: i64| {
            snap(|r| {
                r.gauge("engine_retry_queue_depth").set(d);
            })
        };
        let samples = series([1, 3, 5, 0, 2, 2].map(depth));
        assert_eq!(fired_by(&rules, &samples, 1), 0, "streak of 1 < for_rounds");
        assert_eq!(fired_by(&rules, &samples, 2), 1, "streak reached for_rounds");
        assert_eq!(fired_by(&rules, &samples, 3), 1, "still firing, no re-fire");
        let events = evaluate_series(&rules, &samples);
        assert_eq!(events.len(), 2, "cleared then re-fired");
        assert_eq!((events[0].round, events[0].value), (2, 3.0));
        assert_eq!(events[1].round, 6);
    }

    #[test]
    fn missing_metric_resets_the_streak() {
        let rules = [AlertRule {
            name: "burn".into(),
            metric: "ingest_ack_slo_burn_rate".into(),
            comparator: Comparator::Ge,
            threshold: 1.0,
            for_rounds: 2,
        }];
        // Every ack breaches, so any round with acks burns at 100×.
        let acked = |n: u64| {
            snap(|r| {
                r.counter("ingest_ack_total").add(n);
                r.counter("ingest_ack_slo_breaches_total").add(n);
            })
        };
        let samples = series([5, 5, 6, 7].map(acked));
        assert_eq!(fired_by(&rules, &samples, 2), 0, "round 2 had no acks: reset");
        assert_eq!(fired_by(&rules, &samples, 4), 1);
    }

    #[test]
    fn a_reloaded_series_evaluates_the_same() {
        let rules = AlertRule::defaults();
        let ts = crate::TimeSeries::with_capacity(16);
        for round in 1..=6u32 {
            let snapshot = snap(|r| {
                r.gauge("engine_budget_spent_permille").set(if round >= 3 { 990 } else { 400 });
                r.gauge("engine_retry_queue_depth").set(i64::from(round % 2));
            });
            ts.record(round, snapshot);
        }
        let events = evaluate_series(&rules, &ts.samples());
        assert_eq!(events.len(), 1, "only the budget rule fires: {events:?}");
        assert_eq!(events[0].rule, "budget_overrun_proximity");
        assert_eq!(events[0].round, 4, "held at rounds 3 and 4");
        let reloaded = crate::TimeSeries::from_json(&ts.to_json()).unwrap();
        assert_eq!(evaluate_series(&rules, &reloaded.samples()), events, "JSON round trip");
    }

    #[test]
    #[allow(clippy::float_cmp)] // gauge deltas are exact integer differences in f64
    fn gauge_deltas_appear_once_a_prior_reading_exists() {
        let first = snap(|r| {
            r.gauge("memory_live_bytes").set(1_000);
        });
        let second = snap(|r| {
            r.gauge("memory_live_bytes").set(1_400);
        });
        let cold = flatten(None, &first);
        assert_eq!(cold["memory_live_bytes"], 1_000.0);
        assert!(!cold.contains_key("memory_live_bytes:delta"), "no prior reading");
        let warm = flatten(Some(&first), &second);
        assert_eq!(warm["memory_live_bytes:delta"], 400.0);
        // A gauge absent from the previous snapshot has no delta either.
        let fresh = snap(|r| {
            r.gauge("process_rss_bytes").set(7);
        });
        let mixed = flatten(Some(&first), &fresh);
        assert!(!mixed.contains_key("process_rss_bytes:delta"));
    }

    #[test]
    fn memory_leak_rule_fires_after_five_growing_rounds() {
        let rules = AlertRule::defaults();
        let live = |bytes: i64| {
            snap(|r| {
                r.gauge("memory_live_bytes").set(bytes);
            })
        };
        // Round 1 establishes the baseline (no delta yet); rounds 2-6
        // each grow strictly, completing the 5-round streak at round 6.
        // The flat round 7 resets the streak, so rounds 8-11 are only
        // four growth rounds: no second firing.
        let samples =
            series([100, 200, 300, 400, 500, 600, 600, 700, 800, 900, 1_000i64].map(live));
        let events = evaluate_series(&rules, &samples[..6]);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].rule, "memory_leak_suspected");
        assert_eq!(events[0].round, 6);
        assert_eq!(fired_by(&rules, &samples, 11), 1, "only 4 growth rounds since the reset");
    }

    #[test]
    fn peak_rss_rule_fires_immediately_at_threshold() {
        let hot = snap(|r| {
            r.gauge("process_peak_rss_bytes").set(3 * 1024 * 1024 * 1024);
        });
        let events = evaluate_series(&AlertRule::defaults(), &series([hot]));
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].rule, "peak_rss_high");
    }

    #[test]
    fn ingest_queue_saturation_rule_fires_after_three_hot_rounds() {
        let rules = AlertRule::defaults();
        let saturation = |permille: i64| {
            snap(|r| {
                r.gauge("ingest_queue_saturation_permille").set(permille);
            })
        };
        // Dipping below 90% at round 4 clears the streak.
        let samples = series([950, 900, 980, 500, 950, 950].map(saturation));
        assert_eq!(fired_by(&rules, &samples, 2), 0, "two hot rounds are not enough");
        let events = evaluate_series(&rules, &samples[..3]);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].rule, "ingest_queue_saturation");
        assert_eq!(events[0].round, 3);
        assert_eq!(fired_by(&rules, &samples, 6), 1, "streak was reset by the cool round");
    }

    #[test]
    fn ingest_shedding_rule_watches_the_per_round_delta() {
        let rules = AlertRule::defaults();
        let shed = |total: u64| {
            snap(|r| {
                r.counter("shed_total").add(total);
            })
        };
        // Cumulative 5 → 5 → 9: sheds in rounds 1 and 3, none in 2 —
        // the flat round must reset the streak even though the
        // cumulative counter stays positive.
        let samples = series([5, 5, 9, 12].map(shed));
        assert_eq!(fired_by(&rules, &samples, 3), 0, "never two shedding rounds in a row");
        let events = evaluate_series(&rules, &samples);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].rule, "ingest_shedding");
        assert_eq!(events[0].round, 4);
    }

    #[test]
    #[allow(clippy::float_cmp)] // breach/ack ratios over small integers are exact in f64
    fn slo_burn_rate_is_derived_and_drives_both_burn_rules() {
        // 2 breaches out of 100 acks = 2% of acks over a 1% budget:
        // burn rate 2.0.
        let first = snap(|r| {
            r.counter("ingest_ack_total").add(100);
            r.counter("ingest_ack_slo_breaches_total").add(2);
        });
        let view = flatten(None, &first);
        assert_eq!(view["ingest_ack_slo_burn_rate"], 2.0);
        // A round with no acks exposes no burn rate at all.
        let idle = flatten(Some(&first), &first);
        assert!(!idle.contains_key("ingest_ack_slo_burn_rate"));

        let rules = AlertRule::defaults();
        let burn = |acks: u64, breaches: u64| {
            snap(|r| {
                r.counter("ingest_ack_total").add(acks);
                r.counter("ingest_ack_slo_breaches_total").add(breaches);
            })
        };
        // Rounds 1-2: 20% of acks breach → burn rate 20 ≥ 14, the fast
        // rule fires at round 2. The slow rule (≥ 1 for 6) keeps
        // accumulating through round 6. Rounds 3-6 keep the cumulative
        // series monotonic: +100 acks and +6 breaches per round (burn
        // rate 6 — below the fast threshold, above the slow one).
        let later = (3..=6u64).map(|round| burn(round * 100, 40 + (round - 2) * 6));
        let samples = series([burn(100, 20), burn(200, 40)].into_iter().chain(later));
        let events = evaluate_series(&rules, &samples[..2]);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].rule, "ingest_ack_slo_fast_burn");
        let rules_fired: Vec<String> =
            evaluate_series(&rules, &samples).iter().map(|e| e.rule.clone()).collect();
        assert!(
            rules_fired.contains(&"ingest_ack_slo_slow_burn".to_owned()),
            "slow burn after 6 burning rounds: {rules_fired:?}"
        );
    }

    #[test]
    fn render_table_lists_firings_and_names_dropped_samples() {
        let rules = AlertRule::defaults();
        let hot = snap(|r| {
            r.gauge("engine_budget_spent_permille").set(999);
        });
        let samples = series([hot.clone(), hot]);
        let table = render_table(&rules, samples.len(), 0, &evaluate_series(&rules, &samples));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "{table}");
        let words = |line: &str| line.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(words(lines[0]), ["alert", "round", "value", "condition"]);
        assert_eq!(
            words(lines[1]),
            ["budget_overrun_proximity", "2", "999", "engine_budget_spent_permille", ">=", "950"]
        );
        assert_eq!(lines[2], "1 firing(s) from 9 rules over 2 round samples");
        let value_end = |line: &str, word: &str| line.find(word).map(|at| at + word.len());
        assert_eq!(value_end(lines[0], "value"), value_end(lines[1], "999"), "{table}");
        assert_eq!(
            render_table(&rules, 2, 0, &[]),
            "alerts: none fired (9 rules over 2 round samples)\n"
        );

        // A ring keeps only its tail; the report says how much it lost.
        let ring = crate::TimeSeries::with_capacity(2);
        for round in 1..=5 {
            ring.record(round, snap(|_| {}));
        }
        let kept = ring.samples();
        let table = render_table(&rules, kept.len(), ring.dropped(), &[]);
        assert!(table.contains("over 2 round samples; 3 older samples were dropped"), "{table}");
    }
}
