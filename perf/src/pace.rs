//! The machine's pace, for reporting times at a fixed reference speed.
//!
//! A 2-vCPU VM shares its physical cores with other tenants, and how
//! much they compute moves this machine's speed by up to half for
//! minutes at a time: in sets of ten runs of one commit, `paper`,
//! `city` and `tick` latencies spread 10–40% (relative IQR), `ingest`
//! 7–12%. A speed that holds for minutes cannot be averaged away inside
//! one run. So every workload times two fixed bench-side kernels
//! between its operations — a chain of dependent loads through a 256
//! KiB table (it stays in a core's L2 cache; touched once before each
//! timed chase, so its time does not depend on what the workload left
//! in the cache) and an integer ALU loop — and divides each time it
//! reports by how much slower than nominal the kernels ran around it,
//! raised to the workload's [`Elasticity`].
//!
//! The elasticities come from 2-second stretches of 20 runs per
//! workload, regressing the log of the operations' median time on the
//! log of each kernel's: `paper` slowed 2.0 times as fast as the chase
//! (r = 0.95; 1.5 is used, as 2 over-corrected runs made under heavier
//! load), `city` 1.1 and `tick` 0.95 times as fast (r = 0.80, 0.76),
//! and `ingest`, whose visits mostly wait on fsync and the network
//! stack, followed only the ALU loop (1.1, r = 0.59). Of the kernels
//! tried (ALU, chases through 256 KiB, 1 MiB and 4 MiB, cold and warm,
//! a streaming sum, a sort, map inserts), these tracked best. Paced,
//! the same runs spread 3–10%.
//!
//! Pacing cannot correct load the kernels do not feel: a neighbour
//! saturating the host's disk, or the host descheduling this VM's
//! vCPUs, slows `ingest` and `tick` up to threefold while the kernels
//! slow a third, and those runs stay slow.

use std::time::Instant;

/// Entries of the chase table: 256 KiB of `u32`.
const ENTRIES: u32 = 1 << 16;
/// Dependent loads per chase.
const CHASE_STEPS: u32 = 100_000;
/// Iterations of the ALU loop.
const ALU_STEPS: u64 = 150_000;
/// What the chase and the ALU loop take at the reference pace, ms: the
/// fastest tenth of their times on a 2.1 GHz Xeon vCPU.
const NOMINAL_MS: [f64; 2] = [0.48, 0.52];
/// Samples taken on each side of an instant to set the pace there.
const NEAR: usize = 2;

/// How a workload's times scale with each kernel's slowdown: a time
/// measured while the chase ran `c` times and the ALU loop `a` times
/// slower than nominal is divided by `c^chase × a^alu`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Elasticity {
    pub(crate) chase: f64,
    pub(crate) alu: f64,
}

/// The pace kernels and the samples a run took of them.
#[derive(Debug)]
pub(crate) struct Pace {
    elasticity: Elasticity,
    /// `table[i]` is the entry after `i` in one cycle through them all.
    table: Vec<u32>,
    /// When each sample started and its slowdown, in time order.
    samples: Vec<(Instant, f64)>,
}

impl Pace {
    pub(crate) fn new(elasticity: Elasticity) -> Pace {
        // Sattolo's shuffle: a random permutation that is one cycle, so
        // the chase visits every entry before it repeats.
        let mut table: Vec<u32> = (0..ENTRIES).collect();
        let mut rng = crate::SplitMix::new(0x9ace);
        for i in (1..ENTRIES).rev() {
            table.swap(i as usize, rng.below(i) as usize);
        }
        Pace { elasticity, table, samples: Vec::new() }
    }

    /// Times both kernels once.
    pub(crate) fn sample(&mut self) {
        let warm = self.table.iter().fold(0, |acc, &next| acc ^ next);
        std::hint::black_box(warm);
        let start = Instant::now();
        let mut at = 0;
        for _ in 0..std::hint::black_box(CHASE_STEPS) {
            at = self.table[at as usize];
        }
        std::hint::black_box(at);
        let chase_ms = crate::ms(start.elapsed());

        let alu_start = Instant::now();
        let mut acc = 0x1234_5678_u64;
        for i in 0..std::hint::black_box(ALU_STEPS) {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            acc ^= acc >> 29;
            if acc & 7 == 3 {
                acc = acc.rotate_left(5);
            }
        }
        std::hint::black_box(acc);
        let alu_ms = crate::ms(alu_start.elapsed());

        let Elasticity { chase, alu } = self.elasticity;
        let slowdown = (chase_ms / NOMINAL_MS[0]).powf(chase) * (alu_ms / NOMINAL_MS[1]).powf(alu);
        self.samples.push((start, slowdown));
    }

    /// Times both kernels `times` times.
    pub(crate) fn samples(&mut self, times: usize) {
        for _ in 0..times {
            self.sample();
        }
    }

    /// How many times slower than the reference pace the workload ran
    /// around `at`: the median slowdown of the [`NEAR`] samples on each
    /// side (1 before any sample).
    pub(crate) fn slowdown_at(&self, at: Instant) -> f64 {
        let split = self.samples.partition_point(|&(start, _)| start < at);
        let near =
            &self.samples[split.saturating_sub(NEAR)..(split + NEAR).min(self.samples.len())];
        median_slowdown(near)
    }

    /// The median slowdown over the whole run (1 before any sample).
    pub(crate) fn slowdown(&self) -> f64 {
        median_slowdown(&self.samples)
    }

    /// Each `(start, time)` at the reference pace: the time over the
    /// slowdown around its start.
    pub(crate) fn paced_all(&self, timed: &[(Instant, f64)]) -> Vec<f64> {
        timed.iter().map(|&(at, time)| time / self.slowdown_at(at)).collect()
    }
}

fn median_slowdown(samples: &[(Instant, f64)]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let slowdowns: Vec<f64> = samples.iter().map(|&(_, s)| s).collect();
    crate::stats::median(&slowdowns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_through_every_entry() {
        let pace = Pace::new(Elasticity { chase: 1.0, alu: 0.0 });
        let (mut at, mut steps) = (0u32, 0u32);
        loop {
            at = pace.table[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
    }

    #[test]
    fn the_pace_at_an_instant_comes_from_the_samples_around_it() {
        let mut pace = Pace::new(Elasticity { chase: 1.0, alu: 0.0 });
        assert_eq!(pace.slowdown_at(Instant::now()), 1.0);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        pace.samples =
            vec![(at(0), 1.0), (at(10), 1.0), (at(20), 2.0), (at(30), 2.0), (at(40), 2.0)];
        assert_eq!(pace.slowdown_at(at(5)), 1.0);
        assert_eq!(pace.slowdown_at(at(35)), 2.0);
        assert_eq!(pace.slowdown(), 2.0);
        assert_eq!(pace.paced_all(&[(at(5), 3.0), (at(35), 3.0)]), vec![3.0, 1.5]);
    }

    #[test]
    fn a_sample_weighs_each_kernel_by_its_elasticity() {
        let mut pace = Pace::new(Elasticity { chase: 0.0, alu: 0.0 });
        pace.sample();
        assert_eq!(pace.slowdown(), 1.0);
    }
}
