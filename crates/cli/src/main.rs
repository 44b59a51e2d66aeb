//! `paydemand` — run crowdsensing incentive simulations from the shell.
//!
//! ```sh
//! paydemand run --users 100 --mechanism on-demand --reps 20
//! paydemand compare --users 80 --reps 20
//! paydemand --help
//! ```

use std::process::ExitCode;

mod alerts_cmd;
mod args;
mod commands;
mod lineage_cmd;
mod profile_cmd;
mod serve_cmd;
mod trace_cmd;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args::parse(&argv) {
        Ok(args::Command::Help) => {
            println!("{}", args::USAGE);
            Ok(())
        }
        Ok(args::Command::Run(opts)) => run_status(commands::run(&opts)),
        Ok(args::Command::Compare(opts)) => run_status(commands::compare(&opts)),
        Ok(args::Command::Serve(cmd)) => serve_cmd::dispatch(&cmd),
        Ok(args::Command::Trace(cmd)) => trace_cmd::dispatch(&cmd),
        Ok(args::Command::Lineage(cmd)) => lineage_cmd::dispatch(&cmd),
        Ok(args::Command::Profile(cmd)) => profile_cmd::dispatch(&cmd),
        Ok(args::Command::Alerts(cmd)) => match alerts_cmd::dispatch(&cmd) {
            Ok(true) if cmd.fatal => Err("alert rule(s) fired (--fatal)".to_string()),
            fired => fired.map(drop),
        },
        Err(msg) => {
            eprintln!("{msg}\n\n{}", args::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_status(result: Result<commands::RunStatus, paydemand_sim::SimError>) -> Result<(), String> {
    match result.map_err(|e| e.to_string())? {
        commands::RunStatus::Clean => Ok(()),
        commands::RunStatus::AlertsFired(n) => {
            Err(format!("{n} alert rule(s) fired (--alerts-fatal)"))
        }
    }
}
