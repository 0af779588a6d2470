//! Simulation outcomes and derived metrics.

use nexus_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The result of one host simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Name of the benchmark trace.
    pub benchmark: String,
    /// Name of the task manager.
    pub manager: String,
    /// Number of worker cores simulated.
    pub workers: usize,
    /// End-to-end execution time (last retirement / master completion).
    pub makespan: SimDuration,
    /// Sum of all task durations.
    pub total_work: SimDuration,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Time the master spent blocked on barriers (`taskwait` / `taskwait on`).
    pub master_barrier_time: SimDuration,
    /// Time the master spent blocked on task-pool back-pressure.
    pub master_backpressure_time: SimDuration,
    /// Manager diagnostic summary (name/value pairs).
    pub manager_stats: Vec<(String, f64)>,
}

impl SimOutcome {
    /// Speedup relative to the single-core ideal execution time, which the
    /// paper defines as the sum of the task durations ("All speedup results are
    /// calculated against the single core execution time of the ideal curve").
    pub fn speedup(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.total_work.as_us_f64() / self.makespan.as_us_f64()
        }
    }

    /// Parallel efficiency: speedup divided by the number of workers.
    pub fn efficiency(&self) -> f64 {
        if self.workers == 0 {
            0.0
        } else {
            self.speedup() / self.workers as f64
        }
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<24} {:<18} {:>4} cores  makespan {:>12}  speedup {:>7.2}x  eff {:>5.1}%",
            self.benchmark,
            self.manager,
            self.workers,
            format!("{}", self.makespan),
            self.speedup(),
            self.efficiency() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(makespan_us: u64, work_us: u64, workers: usize) -> SimOutcome {
        SimOutcome {
            benchmark: "unit".into(),
            manager: "test".into(),
            workers,
            makespan: SimDuration::from_us(makespan_us),
            total_work: SimDuration::from_us(work_us),
            tasks: 1,
            master_barrier_time: SimDuration::ZERO,
            master_backpressure_time: SimDuration::ZERO,
            manager_stats: vec![],
        }
    }

    #[test]
    fn speedup_and_efficiency() {
        let o = outcome(250, 1000, 8);
        assert!((o.speedup() - 4.0).abs() < 1e-12);
        assert!((o.efficiency() - 0.5).abs() < 1e-12);
        assert!(o.summary().contains("4.00x"));
    }

    #[test]
    fn zero_makespan_is_benign() {
        let o = outcome(0, 0, 4);
        assert_eq!(o.speedup(), 0.0);
    }
}
