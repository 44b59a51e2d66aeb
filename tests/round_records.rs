//! Sparse round records keep every per-user figure bit for bit.
//!
//! A `RoundRecord` lists only the users whose profit bits or selected
//! count are nonzero. Every reader sums those entries in user order, so
//! each figure must come out with the exact bits the dense per-user
//! vectors gave. The hashes below were taken from the dense records of
//! the same runs: per round, `average_profit_at_round` and every user's
//! profit and selected count (absent users read as `+0.0` and 0) with
//! the round's total selected; then `user_total_profits` and
//! `total_paid`.

use paydemand::sim::frame::fnv1a64;
use paydemand::sim::sat::{run_sat, AuctionPricing, SatConfig};
use paydemand::sim::{
    engine, metrics, FaultKind, FaultPlan, RoundRecord, Scenario, SelectorKind, SimulationResult,
};

/// The paper's sweep: 40–140 users under its DP selector, two seeds.
fn paper_sweep() -> Vec<Scenario> {
    let mut out = Vec::new();
    for seed in [1, 2] {
        for users in (40..=140).step_by(20) {
            out.push(Scenario::paper_default().with_users(users).with_seed(seed));
        }
    }
    out
}

/// Dropped and straggler uploads (negative and late-paid profits), and
/// a run whose tasks fill early, leaving rounds nobody earns in.
fn faulted() -> Vec<Scenario> {
    let plan = FaultPlan::new(9)
        .with(FaultKind::DroppedUploads { rate: 0.2 })
        .with(FaultKind::StragglerUploads { rate: 0.3, max_retries: 3, backoff_rounds: 1 });
    let mut out: Vec<Scenario> = [3, 4]
        .into_iter()
        .map(|seed| {
            Scenario::paper_default()
                .with_users(60)
                .with_selector(SelectorKind::Greedy)
                .with_seed(seed)
                .with_faults(plan.clone())
        })
        .collect();
    out.push(Scenario {
        tasks: 4,
        required_per_task: 3,
        max_rounds: 6,
        ..Scenario::paper_default().with_users(40).with_selector(SelectorKind::Greedy).with_seed(5)
    });
    out
}

fn sat() -> Vec<SimulationResult> {
    [AuctionPricing::FirstPrice, AuctionPricing::SecondPrice]
        .into_iter()
        .map(|pricing| {
            let config = SatConfig { pricing, ..SatConfig::default() };
            run_sat(&Scenario::paper_default().with_users(80).with_seed(6), &config).unwrap()
        })
        .collect()
}

fn run_all(scenarios: Vec<Scenario>) -> Vec<SimulationResult> {
    scenarios.iter().map(|s| engine::run(s).unwrap()).collect()
}

/// The round's entries as dense per-user `(profit, selected)`, after
/// checking the sparse shape: user order, known users, none all-zero.
fn dense(rr: &RoundRecord, n: usize) -> Vec<(f64, u32)> {
    let mut out = vec![(0.0, 0); n];
    for pair in rr.users.windows(2) {
        assert!(pair[0].user < pair[1].user, "round {}: out of user order", rr.round);
    }
    for u in &rr.users {
        assert!(u.profit.to_bits() != 0 || u.selected != 0, "round {}: {u:?}", rr.round);
        out[u.user as usize] = (u.profit, u.selected);
    }
    out
}

fn fingerprint(results: &[SimulationResult]) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        let n = r.workload.homes.len();
        for k in 1..=r.rounds.len() as u32 {
            bytes.extend(metrics::average_profit_at_round(r, k).to_bits().to_le_bytes());
        }
        for p in metrics::user_total_profits(r) {
            bytes.extend(p.to_bits().to_le_bytes());
        }
        for rr in &r.rounds {
            let users = dense(rr, n);
            bytes.extend(users.iter().map(|&(_, s)| s).sum::<u32>().to_le_bytes());
            for &(_, s) in &users {
                bytes.extend(s.to_le_bytes());
            }
            for &(p, _) in &users {
                bytes.extend(p.to_bits().to_le_bytes());
            }
        }
        bytes.extend(r.total_paid.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[test]
fn the_paper_sweep_keeps_its_dense_bits() {
    assert_eq!(fingerprint(&run_all(paper_sweep())), 0x643f_f63f_c965_0e8b);
}

#[test]
fn faulted_runs_keep_their_dense_bits() {
    let results = run_all(faulted());
    assert_eq!(fingerprint(&results), 0xd687_9f35_ef39_4717);
    let entries = || results.iter().flat_map(|r| &r.rounds).flat_map(|rr| &rr.users);
    assert!(entries().any(|u| u.profit < 0.0), "no upload was lost after travel");
    assert!(entries().any(|u| u.profit > 0.0 && u.selected == 0), "no straggler paid late");
    // A round nobody earned in has no entries and averages +0.0, not
    // the −0.0 an empty `Sum` starts at.
    let quiet = results
        .iter()
        .flat_map(|r| (1..=r.rounds.len() as u32).map(move |k| (r, k)))
        .filter(|&(r, k)| r.rounds[k as usize - 1].users.is_empty())
        .inspect(|&(r, k)| assert_eq!(metrics::average_profit_at_round(r, k).to_bits(), 0))
        .count();
    assert!(quiet > 0, "no round without earnings");
}

#[test]
fn sat_runs_keep_their_dense_bits() {
    assert_eq!(fingerprint(&sat()), 0xad48_5ab0_9261_4e84);
}
