//! Implementation of the `paydemand alerts` subcommand: replay alert
//! rules offline over a time series saved by `--timeseries-out`.
//!
//! The evaluation is [`paydemand_obs::evaluate_series`] and the report
//! [`paydemand_obs::render_table`], as for a run's own `--alerts-fatal`
//! and `--profile` over the series it holds in memory, so a run and the
//! replay of its saved series report identical firings.

use paydemand_obs::{evaluate_series, render_table, AlertRule, TimeSeries};

use crate::args::AlertsCommand;

/// Runs the subcommand, printing its report to stdout. `Ok(true)` when
/// at least one rule fired (the `--fatal` exit decision is the
/// caller's).
pub fn dispatch(cmd: &AlertsCommand) -> Result<bool, String> {
    let text = std::fs::read_to_string(&cmd.path).map_err(|e| format!("{}: {e}", cmd.path))?;
    let series = TimeSeries::from_json(&text).map_err(|e| format!("{}: {e}", cmd.path))?;
    let mut rules = AlertRule::defaults();
    for spec in &cmd.rules {
        rules.push(AlertRule::parse(spec)?);
    }
    let samples = series.samples();
    let events = evaluate_series(&rules, &samples);
    print!("{}", render_table(&rules, samples.len(), series.dropped(), &events));
    Ok(!events.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_obs::Recorder;

    /// Saves a three-round series where the retry queue sits at depth 4
    /// from round 2 on — deep enough for a custom rule, silent for the
    /// defaults' threshold streaks.
    fn series_path(name: &str) -> String {
        let recorder = Recorder::enabled();
        let ts = TimeSeries::with_capacity(8);
        let depth = recorder.gauge("engine_retry_queue_depth");
        for round in 1..=3u32 {
            depth.set(if round >= 2 { 4 } else { 0 });
            ts.record(round, recorder.snapshot());
        }
        let dir = std::env::temp_dir().join("paydemand-alerts-cmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, ts.to_json()).unwrap();
        path.display().to_string()
    }

    #[test]
    fn offline_evaluation_reports_firings() {
        let path = series_path("fire.json");
        // The default straggler rule (depth >= 1 for 2 rounds) fires at
        // round 3 on this series.
        let fired = dispatch(&AlertsCommand { path, rules: vec![], fatal: false }).unwrap();
        assert!(fired, "default straggler rule fires on a growing queue");
    }

    #[test]
    fn custom_rules_extend_the_defaults() {
        let path = series_path("custom.json");
        let fired = dispatch(&AlertsCommand {
            path,
            rules: vec!["engine_retry_queue_depth,>=,10,1,deep".into()],
            fatal: true,
        })
        .unwrap();
        // The custom rule's threshold (10) never holds; the default
        // straggler rule still does.
        assert!(fired);
    }

    #[test]
    fn missing_and_malformed_files_error_cleanly() {
        let err = dispatch(&AlertsCommand {
            path: "/nonexistent/ts.json".into(),
            rules: vec![],
            fatal: false,
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/ts.json"), "{err}");
        let dir = std::env::temp_dir().join("paydemand-alerts-cmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"rounds\": 7}").unwrap();
        let err = dispatch(&AlertsCommand {
            path: bad.display().to_string(),
            rules: vec![],
            fatal: false,
        })
        .unwrap_err();
        assert!(err.contains("bad.json"), "{err}");
    }
}
