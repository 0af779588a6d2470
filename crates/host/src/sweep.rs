//! Parameter sweeps: speedup-vs-core-count curves.
//!
//! The evaluation figures of the paper are families of speedup curves over the
//! core count (1–256 cores for the hardware managers, 1–32 for Nanos, which is
//! bounded by the real machine used to measure it). [`speedup_curve`] runs one
//! trace under one manager family over a list of core counts and returns the
//! curve; the paper report of `nexus-bench` prints these as the rows of
//! Figs. 7, 8 and 9 and derives Table IV from their maxima.

use crate::driver::{simulate, HostConfig};
use crate::manager::TaskManager;
use crate::metrics::SimOutcome;
use nexus_trace::Trace;
use serde::{Deserialize, Serialize};

/// The core counts used throughout the paper's figures.
pub const PAPER_CORE_COUNTS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Core counts available to the software runtime (the 40-core Xeon E7-4870;
/// the paper plots Nanos up to 32 cores).
pub const NANOS_CORE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One point of a speedup curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupPoint {
    /// Worker-core count.
    pub cores: usize,
    /// Measured speedup vs. the single-core ideal execution time.
    pub speedup: f64,
    /// The full simulation outcome (for diagnostics).
    pub outcome: SimOutcome,
}

/// A speedup curve for one (benchmark, manager) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupCurve {
    /// Benchmark name.
    pub benchmark: String,
    /// Manager name.
    pub manager: String,
    /// Points in increasing core order.
    pub points: Vec<SpeedupPoint>,
}

impl SpeedupCurve {
    /// The maximum speedup over the curve (the Table IV statistic).
    pub fn max_speedup(&self) -> f64 {
        self.points.iter().map(|p| p.speedup).fold(0.0, f64::max)
    }

    /// The speedup at a specific core count, if simulated.
    pub fn at(&self, cores: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.cores == cores)
            .map(|p| p.speedup)
    }
}

/// Runs `trace` for every core count in `cores`, constructing a fresh manager
/// for each run via `make_manager` (which receives the core count, letting
/// software runtimes model per-thread contention).
pub fn speedup_curve<F>(trace: &Trace, cores: &[usize], mut make_manager: F) -> SpeedupCurve
where
    F: FnMut(usize) -> Box<dyn TaskManager>,
{
    let mut points = Vec::with_capacity(cores.len());
    let mut manager_name = String::new();
    for &n in cores {
        let mut manager = make_manager(n);
        manager_name = manager.name();
        let outcome = simulate(trace, manager.as_mut(), &HostConfig::with_workers(n));
        points.push(SpeedupPoint {
            cores: n,
            speedup: outcome.speedup(),
            outcome,
        });
    }
    SpeedupCurve {
        benchmark: trace.name.clone(),
        manager: manager_name,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::IdealManager;
    use nexus_sim::SimDuration;
    use nexus_trace::generators::micro;

    #[test]
    fn ideal_curve_is_monotone_and_saturates_at_available_parallelism() {
        let trace = micro::independent_tasks(32, 1, SimDuration::from_us(100));
        let curve = speedup_curve(&trace, &[1, 2, 4, 8, 16, 32, 64], |_| {
            Box::new(IdealManager::new())
        });
        assert_eq!(curve.manager, "No Overhead");
        for w in curve.points.windows(2) {
            assert!(w[1].speedup >= w[0].speedup - 1e-9, "curve not monotone");
        }
        assert!((curve.max_speedup() - 32.0).abs() < 1e-6);
        assert_eq!(curve.at(4), Some(4.0));
        assert!(curve.at(3).is_none());
    }
}
