//! Generic parameter sweeps: vary one scenario knob over a range, run
//! repetitions at each point for each mechanism, and package the means
//! as a [`Figure`]. The figure harnesses of [`experiments`] are
//! specialised sweeps; this module is the general tool for ad-hoc
//! studies and the ablation binary.
//!
//! [`experiments`]: crate::experiments
//!
//! # Examples
//!
//! ```
//! use paydemand_sim::sweep::{Axis, Sweep};
//! use paydemand_sim::{metrics, MechanismKind, Scenario, SelectorKind};
//!
//! let sweep = Sweep {
//!     base: Scenario::paper_default()
//!         .with_users(20)
//!         .with_max_rounds(4)
//!         .with_selector(SelectorKind::Greedy),
//!     axis: Axis::new("users", vec![10.0, 20.0], |s, v| {
//!         s.with_users(v as usize)
//!     }),
//!     mechanisms: vec![MechanismKind::OnDemand],
//!     reps: 2,
//!     threads: 1,
//! };
//! let figure = sweep.run("demo", "coverage (%)", |r| 100.0 * r.coverage())?;
//! assert_eq!(figure.x, vec![10.0, 20.0]);
//! assert_eq!(figure.series.len(), 1);
//! # Ok::<(), paydemand_sim::SimError>(())
//! ```

use crate::report::{Figure, Series};
use crate::runner;
use crate::stats::Summary;
use crate::{MechanismKind, Scenario, SimError, SimulationResult};

/// One sweep axis: a label, the values to visit, and how a value
/// transforms the base scenario.
pub struct Axis {
    label: String,
    values: Vec<f64>,
    apply: Box<dyn Fn(Scenario, f64) -> Scenario + Sync>,
}

impl Axis {
    /// Creates an axis.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        values: Vec<f64>,
        apply: impl Fn(Scenario, f64) -> Scenario + Sync + 'static,
    ) -> Self {
        Axis { label: label.into(), values, apply: Box::new(apply) }
    }

    /// The axis label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The values the sweep visits.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("label", &self.label)
            .field("values", &self.values)
            .finish_non_exhaustive()
    }
}

/// A configured sweep: base scenario × axis × mechanisms × repetitions.
#[derive(Debug)]
pub struct Sweep {
    /// The scenario every point starts from.
    pub base: Scenario,
    /// The knob being varied.
    pub axis: Axis,
    /// Mechanisms to run at each point (one series each).
    pub mechanisms: Vec<MechanismKind>,
    /// Repetitions per point.
    pub reps: usize,
    /// Worker threads. The whole sweep — every (mechanism, point,
    /// repetition) triple, not just repetitions within one point — is
    /// flattened into one job batch and spread across these threads, so
    /// sweeps with few repetitions but many points still parallelise.
    pub threads: usize,
}

impl Sweep {
    /// Runs the sweep, averaging `metric` over repetitions at each
    /// point, and returns the resulting figure.
    ///
    /// Every (mechanism, point, repetition) job derives its seed
    /// deterministically from the base scenario's seed via
    /// [`runner::rep_seed`], independent of scheduling — the figure is
    /// identical for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first failure from any point.
    pub fn run(
        &self,
        id: &str,
        y_label: &str,
        metric: impl Fn(&SimulationResult) -> f64 + Copy,
    ) -> Result<Figure, SimError> {
        // Flatten the whole sweep into independent, pre-seeded jobs.
        let mut jobs =
            Vec::with_capacity(self.mechanisms.len() * self.axis.values.len() * self.reps);
        for &mechanism in &self.mechanisms {
            for &value in &self.axis.values {
                let scenario =
                    (self.axis.apply)(self.base.clone(), value).with_mechanism(mechanism);
                for rep in 0..self.reps {
                    jobs.push(scenario.clone().with_seed(runner::rep_seed(scenario.seed, rep)));
                }
            }
        }
        let results = runner::run_scenarios_parallel(&jobs, self.threads)?;

        // Reassemble in (mechanism, point) order.
        let mut series = Vec::with_capacity(self.mechanisms.len());
        let mut cursor = results.chunks_exact(self.reps.max(1));
        for &mechanism in &self.mechanisms {
            let mut y = Vec::with_capacity(self.axis.values.len());
            for _ in &self.axis.values {
                let point_results: &[SimulationResult] =
                    if self.reps == 0 { &[] } else { cursor.next().expect("job per point") };
                let values = runner::collect_metric(point_results, metric);
                y.push(Summary::of(&values).mean);
            }
            series.push(Series { label: mechanism.label().to_string(), y });
        }
        Ok(Figure {
            id: id.into(),
            title: format!("{y_label} vs {}", self.axis.label),
            x_label: self.axis.label.clone(),
            y_label: y_label.into(),
            x: self.axis.values.clone(),
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectorKind;

    fn base() -> Scenario {
        Scenario::paper_default()
            .with_users(15)
            .with_tasks(6)
            .with_max_rounds(3)
            .with_selector(SelectorKind::Greedy)
            .with_seed(50)
    }

    #[test]
    fn sweep_produces_one_series_per_mechanism() {
        let sweep = Sweep {
            base: base(),
            axis: Axis::new("radius", vec![500.0, 1500.0], |s, v| s.with_neighbor_radius(v)),
            mechanisms: vec![MechanismKind::OnDemand, MechanismKind::Fixed],
            reps: 2,
            threads: 1,
        };
        let f = sweep.run("radius_sweep", "coverage (%)", |r| 100.0 * r.coverage()).unwrap();
        assert_eq!(f.x, vec![500.0, 1500.0]);
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].label, "on-demand");
        assert!(f.series.iter().all(|s| s.y.len() == 2));
        assert_eq!(f.x_label, "radius");
    }

    #[test]
    fn axis_accessors_and_debug() {
        let axis = Axis::new("users", vec![1.0, 2.0], |s, v| s.with_users(v as usize));
        assert_eq!(axis.label(), "users");
        assert_eq!(axis.values(), &[1.0, 2.0]);
        assert!(format!("{axis:?}").contains("users"));
    }

    #[test]
    fn sweep_points_parallelise_with_single_rep() {
        // One repetition per point used to serialise the whole sweep;
        // points themselves must now spread across threads, bit-identically.
        let make = |threads| Sweep {
            base: base(),
            axis: Axis::new("users", vec![8.0, 10.0, 12.0, 14.0], |s, v| s.with_users(v as usize)),
            mechanisms: vec![MechanismKind::OnDemand, MechanismKind::Fixed],
            reps: 1,
            threads,
        };
        let reference = make(1).run("p", "coverage", |r| r.coverage()).unwrap();
        for threads in [2, 4, 8] {
            let f = make(threads).run("p", "coverage", |r| r.coverage()).unwrap();
            assert_eq!(reference, f, "{threads} threads");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let make = || Sweep {
            base: base(),
            axis: Axis::new("users", vec![10.0], |s, v| s.with_users(v as usize)),
            mechanisms: vec![MechanismKind::Steered],
            reps: 3,
            threads: 2,
        };
        let a = make().run("x", "y", |r| r.total_paid).unwrap();
        let b = make().run("x", "y", |r| r.total_paid).unwrap();
        assert_eq!(a, b);
    }
}
