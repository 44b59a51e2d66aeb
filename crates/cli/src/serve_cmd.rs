//! Implementation of the `paydemand serve` subcommand: run the
//! crash-safe ingest daemon until SIGTERM/SIGINT or `POST /shutdown`,
//! then print the final accounting.
//!
//! The daemon itself lives in the `paydemand-serve` crate; this module
//! only attaches the telemetry the flags ask for, starts the daemon on
//! the parsed [`paydemand_serve::DaemonConfig`], and renders the
//! [`ShutdownReport`].

use std::fmt::Write as _;
use std::path::Path;

use paydemand_obs::{Alerts, Logger, Recorder, TimeSeries, DEFAULT_LOG_CAPACITY};
use paydemand_serve::{Daemon, ShutdownReport};

use crate::args::ServeCommand;

/// Retained round samples for `--timeseries-out` (a daemon can run
/// indefinitely; the ring keeps the most recent rounds).
const TIMESERIES_CAP: usize = 4096;

/// Runs the daemon to completion. Blocks until shutdown.
pub fn dispatch(cmd: &ServeCommand) -> Result<(), String> {
    let config = &cmd.config;
    let recorder = Recorder::enabled();
    if cmd.timeseries_out.is_some() {
        let rounds = (config.scenario.max_rounds as usize).clamp(1, TIMESERIES_CAP);
        recorder.attach_timeseries(&TimeSeries::with_capacity(rounds));
        recorder.attach_alerts(&Alerts::with_defaults());
    }
    let log = Logger::enabled(DEFAULT_LOG_CAPACITY, cmd.log_level, &recorder);
    if let Some(path) = &cmd.log_json {
        log.set_file_sink(Path::new(path)).map_err(|e| format!("--log-json {path}: {e}"))?;
    }
    recorder.attach_logger(&log);
    let daemon = Daemon::start(config.clone(), &recorder).map_err(|e| e.to_string())?;
    println!("serve: listening on http://{}", daemon.local_addr());
    if config.resume {
        println!(
            "serve: resumed from {} (replayed {} journaled events)",
            config.state_dir.display(),
            daemon.replayed_events()
        );
    }
    match config.tick_interval {
        None => println!("serve: manual rounds — advance with POST /tick"),
        Some(every) => println!("serve: one round every {} ms", every.as_millis()),
    }
    let report = daemon.run().map_err(|e| e.to_string())?;
    if let Some(path) = &cmd.timeseries_out {
        let series = recorder.timeseries();
        let payload = if path.ends_with(".csv") { series.to_csv() } else { series.to_json() };
        std::fs::write(path, payload)
            .map_err(|e| format!("writing --timeseries-out {path}: {e}"))?;
        println!("timeseries: wrote {} round samples -> {path}", series.len());
    }
    print!("{}", render(&report));
    Ok(())
}

/// Renders the final accounting, one `key value` row per line.
fn render(report: &ShutdownReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "serve: shut down cleanly");
    let _ = writeln!(out, "  rounds_run       {}", report.rounds_run);
    let _ = writeln!(out, "  finished         {}", report.finished);
    let _ = writeln!(out, "  total_paid       {}", report.total_paid);
    let _ = writeln!(out, "  ingested_events  {}", report.ingested_events);
    let _ = writeln!(out, "  replayed_events  {}", report.replayed_events);
    let _ = writeln!(out, "  shed_events      {}", report.shed_events);
    let _ = writeln!(out, "  worker_restarts  {}", report.worker_restarts);
    out
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::time::Duration;

    use super::*;
    use crate::args::parse;

    fn serve_cmd(tail: &str) -> ServeCommand {
        let argv: Vec<String> =
            format!("serve {tail}").split_whitespace().map(str::to_string).collect();
        match parse(&argv).unwrap() {
            crate::args::Command::Serve(cmd) => *cmd,
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn config_mirrors_the_flags() {
        let config = serve_cmd(
            "--state-dir /tmp/pd --resume --addr 127.0.0.1:0 --tick-ms 0 \
             --queue-cap 16 --http-workers 2 --checkpoint-every-ticks 5 \
             --max-body-bytes 2048 --no-fsync --debug-panic-route",
        )
        .config;
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.state_dir, PathBuf::from("/tmp/pd"));
        assert!(config.resume);
        assert_eq!(config.tick_interval, None, "0 means manual ticks");
        assert_eq!(config.queue_capacity, 16);
        assert_eq!(config.workers, 2);
        assert_eq!(config.checkpoint_every, 5);
        assert_eq!(config.limits.max_body_bytes, 2048);
        assert!(!config.fsync);
        assert!(config.debug_panic_route);

        let timed = serve_cmd("--state-dir /d --tick-ms 250").config;
        assert_eq!(timed.tick_interval, Some(Duration::from_millis(250)));
        assert!(timed.fsync, "fsync is on unless --no-fsync");
    }

    #[test]
    fn report_renders_every_field() {
        let report = ShutdownReport {
            rounds_run: 8,
            finished: true,
            total_paid: 721.0,
            ingested_events: 12,
            replayed_events: 3,
            shed_events: 1,
            worker_restarts: 0,
        };
        let text = render(&report);
        for needle in [
            "rounds_run       8",
            "finished         true",
            "total_paid       721",
            "shed_events      1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
