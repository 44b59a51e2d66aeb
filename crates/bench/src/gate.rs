//! The bench regression gate: compares a freshly generated
//! `BENCH_scaling.json` against the committed baseline and fails on a
//! >25% wall-clock regression in any arm.
//!
//! The parser is deliberately tiny and format-specific — it reads only
//! the flat document [`crate::scaling::to_json_full`] emits, so the
//! workspace stays dependency-free. Microsecond-scale arms are noisy on
//! shared CI runners, so a regression only counts when it clears both
//! the relative threshold *and* a small absolute grace.

use std::collections::BTreeMap;

/// Relative wall-clock regression that fails the gate (25%).
pub const MAX_REGRESSION: f64 = 0.25;
/// Absolute grace: a slowdown below this many seconds never fails,
/// whatever the ratio — sub-millisecond arms flap on scheduler noise.
pub const ABSOLUTE_GRACE_SECONDS: f64 = 0.005;
/// Trace-journal overhead above this fraction draws a warning (the
/// target is <15% on the 10k-user arm).
pub const TRACE_OVERHEAD_TARGET: f64 = 0.15;
/// Live-telemetry (time series + alerts + span trace) overhead above
/// this fraction draws a warning on the same arm.
pub const TELEMETRY_OVERHEAD_TARGET: f64 = 0.15;
/// Relative allocation-metric growth that fails the gate (25%),
/// applied to bytes/round, allocs/round, and peak live bytes.
pub const MAX_ALLOC_REGRESSION: f64 = 0.25;
/// Absolute grace for byte-valued allocation metrics: growth below
/// 64 KiB never fails, whatever the ratio.
pub const ALLOC_BYTES_GRACE: f64 = 65_536.0;
/// Absolute grace for allocation counts: growth below 64 allocations
/// per round never fails.
pub const ALLOC_COUNT_GRACE: f64 = 64.0;
/// User population at or above which the cell arm's steady-state
/// demand phase must allocate exactly zero times per round.
pub const ZERO_ALLOC_MIN_USERS: f64 = 100_000.0;

/// One arm's wall-clock seconds, keyed by `"{users}x{tasks}:{arm}"`.
pub type ArmSeconds = BTreeMap<String, f64>;

/// Everything the gate needs from one `BENCH_scaling.json`.
#[derive(Debug, Clone, Default)]
pub struct BenchDoc {
    /// Per-arm wall-clock seconds.
    pub arms: ArmSeconds,
    /// Per-arm heap bytes allocated per round (absent in baselines
    /// written before allocation profiling existed).
    pub alloc_bytes_per_round: BTreeMap<String, f64>,
    /// Per-arm heap allocations per round.
    pub allocs_per_round: BTreeMap<String, f64>,
    /// Per-arm peak additional live bytes.
    pub peak_live_bytes: BTreeMap<String, f64>,
    /// Per-arm steady-state demand-phase allocations per round.
    pub demand_allocs_per_round: BTreeMap<String, f64>,
    /// Per-arm demand-phase wall-clock seconds (for phase attribution
    /// when an arm regresses).
    pub demand_seconds: BTreeMap<String, f64>,
    /// Per-arm pricing-phase wall-clock seconds.
    pub pricing_seconds: BTreeMap<String, f64>,
    /// Any point where the arms disagreed on outputs.
    pub any_non_identical: bool,
    /// The `"trace"` object's `overhead_fraction`, when present.
    pub trace_overhead: Option<f64>,
    /// The `"trace"` object's `identical` flag, when present.
    pub trace_identical: Option<bool>,
    /// The `"telemetry"` object's `overhead_fraction`, when present.
    pub telemetry_overhead: Option<f64>,
    /// The `"telemetry"` object's `identical` flag, when present.
    pub telemetry_identical: Option<bool>,
}

/// Extracts the raw text of `"key": value` from a JSON fragment.
fn field<'a>(fragment: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let start = fragment.find(&pattern)? + pattern.len();
    let rest = &fragment[start..];
    let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn num(fragment: &str, key: &str) -> Option<f64> {
    field(fragment, key)?.parse().ok()
}

/// Parses the parts of a `BENCH_scaling.json` document the gate reads.
///
/// # Errors
///
/// A message naming the malformed line.
pub fn parse(doc: &str) -> Result<BenchDoc, String> {
    let mut out = BenchDoc::default();
    for line in doc.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("\"trace\":") {
            out.trace_overhead = num(line, "overhead_fraction");
            out.trace_identical = field(line, "identical").map(|v| v == "true");
            continue;
        }
        if trimmed.starts_with("\"telemetry\":") {
            out.telemetry_overhead = num(line, "overhead_fraction");
            out.telemetry_identical = field(line, "identical").map(|v| v == "true");
            continue;
        }
        if !trimmed.starts_with('{') || !line.contains("\"arms\":") {
            continue;
        }
        let users = num(line, "users").ok_or_else(|| format!("point without users: {line}"))?;
        let tasks = num(line, "tasks").ok_or_else(|| format!("point without tasks: {line}"))?;
        if field(line, "identical") == Some("false") {
            out.any_non_identical = true;
        }
        // Each arm object starts with its label; split on that marker.
        for fragment in line.split("{\"arm\": ").skip(1) {
            let arm = fragment.split('"').nth(1).ok_or_else(|| format!("bad arm: {line}"))?;
            let seconds =
                num(fragment, "seconds").ok_or_else(|| format!("arm without seconds: {line}"))?;
            let key = format!("{users}x{tasks}:{arm}");
            // Allocation metrics are optional: baselines committed
            // before allocation profiling simply skip these rules.
            if let Some(v) = num(fragment, "alloc_bytes_per_round") {
                out.alloc_bytes_per_round.insert(key.clone(), v);
            }
            if let Some(v) = num(fragment, "allocs_per_round") {
                out.allocs_per_round.insert(key.clone(), v);
            }
            if let Some(v) = num(fragment, "peak_live_bytes") {
                out.peak_live_bytes.insert(key.clone(), v);
            }
            if let Some(v) = num(fragment, "demand_allocs_per_round") {
                out.demand_allocs_per_round.insert(key.clone(), v);
            }
            if let Some(v) = num(fragment, "demand_seconds") {
                out.demand_seconds.insert(key.clone(), v);
            }
            if let Some(v) = num(fragment, "pricing_seconds") {
                out.pricing_seconds.insert(key.clone(), v);
            }
            out.arms.insert(key, seconds);
        }
    }
    if out.arms.is_empty() {
        return Err("no benchmark points found".into());
    }
    Ok(out)
}

/// One gate verdict line, machine-checkable in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Arm key (`"{users}x{tasks}:{arm}"`).
    pub key: String,
    /// Baseline seconds.
    pub baseline: f64,
    /// Fresh seconds.
    pub fresh: f64,
    /// Whether this arm fails the gate.
    pub regressed: bool,
}

/// Compares a fresh document against the baseline. Returns every arm's
/// verdict plus the overall failure messages (empty = gate passes).
#[must_use]
pub fn compare(baseline: &BenchDoc, fresh: &BenchDoc) -> (Vec<Verdict>, Vec<String>) {
    let mut verdicts = Vec::new();
    let mut failures = Vec::new();
    for (key, &base_seconds) in &baseline.arms {
        let Some(&fresh_seconds) = fresh.arms.get(key) else {
            failures.push(format!("arm {key} disappeared from the fresh run"));
            continue;
        };
        let regressed = fresh_seconds > base_seconds * (1.0 + MAX_REGRESSION)
            && fresh_seconds - base_seconds > ABSOLUTE_GRACE_SECONDS;
        if regressed {
            failures.push(format!(
                "arm {key} regressed: {base_seconds:.6}s -> {fresh_seconds:.6}s \
                 ({:+.1}%)",
                100.0 * (fresh_seconds / base_seconds - 1.0)
            ));
        }
        verdicts.push(Verdict {
            key: key.clone(),
            baseline: base_seconds,
            fresh: fresh_seconds,
            regressed,
        });
    }
    if fresh.any_non_identical {
        failures.push("fresh run has non-identical arms; timings are invalid".into());
    }
    // Allocation regression: each metric present in both documents
    // must not grow by more than MAX_ALLOC_REGRESSION past its
    // absolute grace. Baselines without the metrics skip silently.
    let alloc_rule = |name: &str,
                      base_map: &BTreeMap<String, f64>,
                      fresh_map: &BTreeMap<String, f64>,
                      grace: f64,
                      failures: &mut Vec<String>| {
        for (key, &base) in base_map {
            let Some(&now) = fresh_map.get(key) else { continue };
            if now > base * (1.0 + MAX_ALLOC_REGRESSION) && now - base > grace {
                failures.push(format!(
                    "arm {key} {name} regressed: {base:.0} -> {now:.0} ({:+.1}%)",
                    100.0 * (now / base - 1.0)
                ));
            }
        }
    };
    alloc_rule(
        "alloc_bytes_per_round",
        &baseline.alloc_bytes_per_round,
        &fresh.alloc_bytes_per_round,
        ALLOC_BYTES_GRACE,
        &mut failures,
    );
    alloc_rule(
        "allocs_per_round",
        &baseline.allocs_per_round,
        &fresh.allocs_per_round,
        ALLOC_COUNT_GRACE,
        &mut failures,
    );
    alloc_rule(
        "peak_live_bytes",
        &baseline.peak_live_bytes,
        &fresh.peak_live_bytes,
        ALLOC_BYTES_GRACE,
        &mut failures,
    );
    // Zero-allocation pin: at scale, the cell arm's steady-state
    // demand phase must not allocate at all.
    for (key, &allocs) in &fresh.demand_allocs_per_round {
        let Some((point, arm)) = key.split_once(':') else { continue };
        if arm != "cell" {
            continue;
        }
        let users: f64 = point.split('x').next().and_then(|u| u.parse().ok()).unwrap_or(0.0);
        if users >= ZERO_ALLOC_MIN_USERS && allocs > 0.0 {
            failures.push(format!(
                "arm {key}: steady-state demand phase allocated {allocs:.1} times per round \
                 (must be exactly 0 at >= {ZERO_ALLOC_MIN_USERS:.0} users)"
            ));
        }
    }
    if fresh.trace_identical == Some(false) {
        failures.push("fresh trace-enabled run diverged from the plain run".into());
    }
    if fresh.telemetry_identical == Some(false) {
        failures.push("fresh telemetry-enabled run diverged from the plain run".into());
    }
    (verdicts, failures)
}

/// Phase-attribution lines for one regressed arm: how each per-phase
/// metric moved between the baseline and the fresh run, so a wall-clock
/// failure points at the phase (and allocator behaviour) that moved.
/// Metrics absent from either document are skipped.
#[must_use]
pub fn phase_deltas(baseline: &BenchDoc, fresh: &BenchDoc, key: &str) -> Vec<String> {
    type Phases<'a> = (&'a str, &'a BTreeMap<String, f64>, &'a BTreeMap<String, f64>);
    let metrics: [Phases; 3] = [
        ("demand_seconds", &baseline.demand_seconds, &fresh.demand_seconds),
        ("pricing_seconds", &baseline.pricing_seconds, &fresh.pricing_seconds),
        ("alloc_bytes_per_round", &baseline.alloc_bytes_per_round, &fresh.alloc_bytes_per_round),
    ];
    let mut lines = Vec::new();
    for (name, base_map, fresh_map) in metrics {
        let (Some(&base), Some(&now)) = (base_map.get(key), fresh_map.get(key)) else { continue };
        let change = if base > 0.0 {
            format!("{:+.1}%", 100.0 * (now / base - 1.0))
        } else if now > 0.0 {
            "new".to_owned()
        } else {
            "unchanged".to_owned()
        };
        lines.push(format!("{name}: {base:.6} -> {now:.6} ({change})"));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(naive: f64, cell: f64, trace: Option<(f64, bool)>) -> String {
        let trace_line = trace.map_or(String::new(), |(overhead, identical)| {
            format!(
                "  \"trace\": {{\"users\": 10000, \"tasks\": 100, \"rounds\": 8, \
                 \"plain_seconds\": 1.0, \"traced_seconds\": {:.3}, \
                 \"overhead_fraction\": {overhead:.4}, \"journal_bytes\": 9, \
                 \"identical\": {identical}}},\n",
                1.0 + overhead
            )
        });
        format!(
            "{{\n  \"benchmark\": \"round_loop_scaling\",\n{trace_line}  \"points\": [\n    \
             {{\"users\": 100, \"tasks\": 100, \"rounds\": 8, \"radius_m\": 200, \
             \"move_fraction\": 0.1, \"identical\": true, \"arms\": [{{\"arm\": \"naive\", \
             \"seconds\": {naive:.6}, \"demand_seconds\": 0.0, \"pricing_seconds\": 0.0, \
             \"delta_rounds\": 0, \"rebuilds\": 0}}, {{\"arm\": \"cell\", \
             \"seconds\": {cell:.6}, \"demand_seconds\": 0.0, \"pricing_seconds\": 0.0, \
             \"delta_rounds\": 7, \"rebuilds\": 1}}]}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn parses_the_real_committed_baseline_format() {
        let parsed = parse(&doc(0.1, 0.05, Some((0.08, true)))).unwrap();
        assert_eq!(parsed.arms.len(), 2);
        assert_eq!(parsed.arms["100x100:naive"], 0.1);
        assert_eq!(parsed.arms["100x100:cell"], 0.05);
        assert_eq!(parsed.trace_overhead, Some(0.08));
        assert_eq!(parsed.trace_identical, Some(true));
        assert!(!parsed.any_non_identical);
        // Trace section is optional (pre-existing baselines).
        let old = parse(&doc(0.1, 0.05, None)).unwrap();
        assert_eq!(old.trace_overhead, None);
    }

    #[test]
    fn passes_when_fresh_is_no_slower() {
        let baseline = parse(&doc(0.1, 0.05, None)).unwrap();
        let fresh = parse(&doc(0.11, 0.05, Some((0.05, true)))).unwrap();
        let (verdicts, failures) = compare(&baseline, &fresh);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| !v.regressed));
    }

    #[test]
    fn fails_on_a_large_regression() {
        let baseline = parse(&doc(0.1, 0.05, None)).unwrap();
        let fresh = parse(&doc(0.2, 0.05, None)).unwrap();
        let (_, failures) = compare(&baseline, &fresh);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("100x100:naive"), "{failures:?}");
    }

    #[test]
    fn small_absolute_slowdowns_never_fail() {
        // 100% relative regression but only 2ms absolute: noise, not a
        // regression.
        let baseline = parse(&doc(0.002, 0.001, None)).unwrap();
        let fresh = parse(&doc(0.004, 0.001, None)).unwrap();
        let (_, failures) = compare(&baseline, &fresh);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn missing_arms_and_divergence_fail() {
        let baseline = parse(&doc(0.1, 0.05, None)).unwrap();
        let mut fresh = parse(&doc(0.1, 0.05, None)).unwrap();
        fresh.arms.remove("100x100:naive");
        let (_, failures) = compare(&baseline, &fresh);
        assert!(failures.iter().any(|f| f.contains("disappeared")), "{failures:?}");

        let diverged = parse(&doc(0.1, 0.05, Some((0.05, false)))).unwrap();
        let (_, failures) = compare(&baseline, &diverged);
        assert!(failures.iter().any(|f| f.contains("diverged")), "{failures:?}");
    }

    #[test]
    fn telemetry_section_parses_and_gates_identity() {
        let with_telemetry = |overhead: f64, identical: bool| {
            let base = doc(0.1, 0.05, None);
            base.replacen(
                "  \"points\":",
                &format!(
                    "  \"telemetry\": {{\"users\": 10000, \"tasks\": 100, \"rounds\": 8, \
                     \"plain_seconds\": 1.0, \"telemetry_seconds\": {:.3}, \
                     \"overhead_fraction\": {overhead:.4}, \"round_samples\": 8, \
                     \"span_events\": 40, \"identical\": {identical}}},\n  \"points\":",
                    1.0 + overhead
                ),
                1,
            )
        };
        let parsed = parse(&with_telemetry(0.07, true)).unwrap();
        assert_eq!(parsed.telemetry_overhead, Some(0.07));
        assert_eq!(parsed.telemetry_identical, Some(true));
        // Pre-existing baselines carry no telemetry section.
        assert_eq!(parse(&doc(0.1, 0.05, None)).unwrap().telemetry_overhead, None);

        let baseline = parse(&doc(0.1, 0.05, None)).unwrap();
        let healthy = parse(&with_telemetry(0.3, true)).unwrap();
        let (_, failures) = compare(&baseline, &healthy);
        assert!(failures.is_empty(), "overhead above target warns, never fails: {failures:?}");
        let diverged = parse(&with_telemetry(0.05, false)).unwrap();
        let (_, failures) = compare(&baseline, &diverged);
        assert!(
            failures.iter().any(|f| f.contains("telemetry-enabled run diverged")),
            "{failures:?}"
        );
    }

    #[test]
    fn phase_deltas_attribute_a_regression() {
        let phased = |demand: f64, pricing: f64| {
            format!(
                "{{\n  \"points\": [\n    {{\"users\": 10000, \"tasks\": 100, \"rounds\": 8, \
                 \"identical\": true, \"arms\": [{{\"arm\": \"cell\", \"seconds\": 0.1, \
                 \"demand_seconds\": {demand:.6}, \"pricing_seconds\": {pricing:.6}, \
                 \"alloc_bytes_per_round\": 4096.0}}]}}\n  ]\n}}\n"
            )
        };
        let baseline = parse(&phased(0.010, 0.020)).unwrap();
        assert_eq!(baseline.demand_seconds["10000x100:cell"], 0.010);
        assert_eq!(baseline.pricing_seconds["10000x100:cell"], 0.020);
        let fresh = parse(&phased(0.030, 0.020)).unwrap();
        let lines = phase_deltas(&baseline, &fresh, "10000x100:cell");
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("demand_seconds") && lines[0].contains("+200.0%"), "{lines:?}");
        assert!(lines[1].contains("pricing_seconds") && lines[1].contains("+0.0%"), "{lines:?}");
        assert!(lines[2].contains("alloc_bytes_per_round"), "{lines:?}");
        // Keys absent from either document produce nothing.
        assert!(phase_deltas(&baseline, &fresh, "999x999:naive").is_empty());
        // Old baselines without phase columns skip those metrics.
        let legacy = parse(&doc(0.1, 0.05, None)).unwrap();
        assert!(legacy.demand_seconds["100x100:naive"] == 0.0);
    }

    #[test]
    fn garbage_documents_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("{\"benchmark\": \"x\"}").is_err());
    }

    fn alloc_doc(users: u64, arm: &str, bytes: f64, allocs: f64, peak: f64, demand: f64) -> String {
        format!(
            "{{\n  \"points\": [\n    {{\"users\": {users}, \"tasks\": 100, \"rounds\": 8, \
             \"identical\": true, \"arms\": [{{\"arm\": \"{arm}\", \"seconds\": 0.01, \
             \"alloc_bytes_per_round\": {bytes:.1}, \"allocs_per_round\": {allocs:.1}, \
             \"peak_live_bytes\": {peak:.0}, \"demand_allocs_per_round\": {demand:.1}}}]}}\n  \
             ]\n}}\n"
        )
    }

    #[test]
    fn alloc_metrics_parse_and_old_baselines_skip_the_rules() {
        let parsed = parse(&alloc_doc(10_000, "cell", 4096.0, 12.0, 1_000_000.0, 0.0)).unwrap();
        assert_eq!(parsed.alloc_bytes_per_round["10000x100:cell"], 4096.0);
        assert_eq!(parsed.allocs_per_round["10000x100:cell"], 12.0);
        assert_eq!(parsed.peak_live_bytes["10000x100:cell"], 1_000_000.0);
        assert_eq!(parsed.demand_allocs_per_round["10000x100:cell"], 0.0);
        // A pre-alloc-profiling baseline has empty maps and the alloc
        // rules never fire against it.
        let old = parse(&doc(0.1, 0.05, None)).unwrap();
        assert!(old.alloc_bytes_per_round.is_empty());
        let fresh = parse(&alloc_doc(100, "naive", 1e9, 1e6, 1e9, 50.0)).unwrap();
        let (_, failures) = compare(&old, &fresh);
        assert!(failures.iter().all(|f| !f.contains("alloc")), "{failures:?}");
    }

    #[test]
    fn alloc_regressions_fail_past_relative_and_absolute_thresholds() {
        let baseline = parse(&alloc_doc(10_000, "cell", 1e6, 1000.0, 1e7, 0.0)).unwrap();
        // +30% bytes, well past the 64 KiB grace: fails.
        let bloated = parse(&alloc_doc(10_000, "cell", 1.3e6, 1000.0, 1e7, 0.0)).unwrap();
        let (_, failures) = compare(&baseline, &bloated);
        assert!(failures.iter().any(|f| f.contains("alloc_bytes_per_round")), "{failures:?}");
        // +30% but only ~300 bytes absolute: inside the grace, passes.
        let tiny_base = parse(&alloc_doc(10_000, "cell", 1000.0, 10.0, 2000.0, 0.0)).unwrap();
        let tiny_fresh = parse(&alloc_doc(10_000, "cell", 1300.0, 13.0, 2600.0, 0.0)).unwrap();
        let (_, failures) = compare(&tiny_base, &tiny_fresh);
        assert!(failures.is_empty(), "{failures:?}");
        // Peak and count regressions fail through their own rules.
        let peaky = parse(&alloc_doc(10_000, "cell", 1e6, 2000.0, 2e7, 0.0)).unwrap();
        let (_, failures) = compare(&baseline, &peaky);
        assert!(failures.iter().any(|f| f.contains("allocs_per_round")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("peak_live_bytes")), "{failures:?}");
    }

    #[test]
    fn cell_arm_must_be_zero_alloc_at_scale() {
        let baseline = parse(&alloc_doc(100_000, "cell", 1e6, 1000.0, 1e7, 0.0)).unwrap();
        let leaky = parse(&alloc_doc(100_000, "cell", 1e6, 1000.0, 1e7, 2.0)).unwrap();
        let (_, failures) = compare(&baseline, &leaky);
        assert!(failures.iter().any(|f| f.contains("must be exactly 0")), "{failures:?}");
        // Below the scale floor the pin does not apply.
        let small = parse(&alloc_doc(10_000, "cell", 1e6, 1000.0, 1e7, 2.0)).unwrap();
        let (_, failures) = compare(&baseline, &small);
        assert!(failures.iter().all(|f| !f.contains("must be exactly 0")), "{failures:?}");
        // Other arms may allocate freely at any scale.
        let naive = parse(&alloc_doc(1_000_000, "naive", 1e9, 1e6, 1e9, 500.0)).unwrap();
        let (_, failures) = compare(&baseline, &naive);
        assert!(failures.iter().all(|f| !f.contains("must be exactly 0")), "{failures:?}");
    }
}
