//! Helpers shared by the integration tests that include this module.

use paydemand::obs::Recorder;
use paydemand::sim::frame::fnv1a64_words;
use paydemand::sim::{Engine, Scenario};

/// What a checkpoint holds, whatever its layout: the checkpoint resumed
/// under `scenario` and run to completion, folded as the finished
/// result's total paid bits, then each round's new measurements and
/// user entries (user, profit bits, selected count).
pub fn held(scenario: &Scenario, checkpoint: &[u8]) -> u64 {
    let mut engine = Engine::resume(scenario, checkpoint, &Recorder::disabled()).unwrap();
    engine.run_to_completion().unwrap();
    let result = engine.finish().unwrap();
    let rounds = result.rounds.iter().flat_map(|rr| {
        let measurements = rr.new_measurements.iter().map(|&c| u64::from(c));
        let users = rr
            .users
            .iter()
            .flat_map(|u| [u64::from(u.user), u.profit.to_bits(), u64::from(u.selected)]);
        measurements.chain(users)
    });
    fnv1a64_words(std::iter::once(result.total_paid.to_bits()).chain(rounds))
}
