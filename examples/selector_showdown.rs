//! Selector showdown: the paper's Fig. 5 in miniature — optimal DP vs
//! greedy vs greedy+2-opt on identical selection problems, plus solver
//! timing.
//!
//! ```sh
//! cargo run --release --example selector_showdown
//! ```

use std::time::Instant;

use paydemand::core::selection::{SelectionProblem, SelectorKind};
use paydemand::core::{PublishedTask, TaskId};
use paydemand::geo::Rect;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let area = Rect::square(3000.0)?;

    println!("selector showdown — 200 random selection problems, 14 tasks each");
    println!("{:-<72}", "");

    let selectors = [SelectorKind::exact_dp(), SelectorKind::Greedy, SelectorKind::GreedyTwoOpt];
    let mut total_profit = [0.0f64; 3];
    let mut total_time = [std::time::Duration::ZERO; 3];
    let mut greedy_optimal = 0usize;
    let trials = 200;

    for _ in 0..trials {
        let user = area.sample_uniform(&mut rng);
        let tasks: Vec<PublishedTask> = (0..14)
            .map(|i| PublishedTask {
                id: TaskId(i),
                location: area.sample_uniform(&mut rng),
                reward: rng.gen_range(0.5..=2.5),
            })
            .collect();
        let time_budget = rng.gen_range(600.0..1200.0);
        let problem = SelectionProblem::new(user, &tasks, time_budget, 2.0, 0.002)?;

        let mut profits = [0.0f64; 3];
        for (k, selector) in selectors.iter().enumerate() {
            let t = Instant::now();
            let (outcome, _) = selector.solve(&problem)?;
            total_time[k] += t.elapsed();
            profits[k] = outcome.profit();
            total_profit[k] += outcome.profit();
        }
        if (profits[0] - profits[1]).abs() < 1e-9 {
            greedy_optimal += 1;
        }
        assert!(profits[0] >= profits[1] - 1e-9, "greedy beat the optimum?!");
        assert!(profits[0] >= profits[2] - 1e-9, "2-opt beat the optimum?!");
    }

    println!("{:<14} {:>16} {:>18}", "selector", "mean profit ($)", "mean solve time");
    for (k, selector) in selectors.iter().enumerate() {
        println!(
            "{:<14} {:>16.3} {:>18?}",
            selector.label(),
            total_profit[k] / trials as f64,
            total_time[k] / trials as u32
        );
    }
    println!("{:-<72}", "");
    println!(
        "greedy matched the optimum in {greedy_optimal}/{trials} problems; the paper's \
         Fig. 5 shows the same picture — close, but dp always wins."
    );
    Ok(())
}
