//! `paydemand profile`: report and diff sampling-profiler captures
//! (see `docs/PROFILING.md`; `run --profile-cpu --profile-out` records
//! them).
//!
//! `report` prints a saved capture's hottest stacks; `diff` normalises
//! two captures to seconds-per-stack and ranks the deltas
//! worst-regression-first — point it at a before/after pair to see
//! exactly which phase slowed down.

use paydemand_obs::{prof, Profile};

use crate::args::ProfileCommand;

/// Runs one `paydemand profile` subcommand.
pub fn dispatch(cmd: &ProfileCommand) -> Result<(), String> {
    match cmd {
        ProfileCommand::Report { path, top } => {
            let profile = read_capture(path)?;
            print!("{}", profile.render_report(*top));
            Ok(())
        }
        ProfileCommand::Diff { before, after, top } => {
            let before_profile = read_capture(before)?;
            let after_profile = read_capture(after)?;
            print!("{}", prof::diff(&before_profile, &after_profile).render(*top));
            Ok(())
        }
    }
}

fn read_capture(path: &str) -> Result<Profile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Profile::from_capture(&text).map_err(|e| format!("{path}: {e}"))
}
