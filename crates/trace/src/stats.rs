//! Trace statistics — the columns of Table II and Table III.

use crate::trace::Trace;
use nexus_sim::stats::OnlineStats;
use serde::{Deserialize, Serialize};

/// Summary statistics of a trace, matching the columns the paper reports for
/// its benchmarks ("# tasks", "total work (ms)", "avg task size (µs)",
/// "# deps") plus a few extra columns useful for the harness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceStats {
    /// Benchmark name.
    pub name: String,
    /// Number of tasks in the trace.
    pub tasks: u64,
    /// Sum of all task durations, in milliseconds.
    pub total_work_ms: f64,
    /// Average task duration, in microseconds.
    pub avg_task_us: f64,
    /// Median task duration, in microseconds (not in the paper's table but
    /// useful because several benchmarks have heavy-tailed distributions).
    pub median_task_us: f64,
    /// Minimum number of parameters over all tasks.
    pub min_params: usize,
    /// Maximum number of parameters over all tasks.
    pub max_params: usize,
    /// Average number of parameters per task.
    pub avg_params: f64,
    /// Number of `taskwait` barriers.
    pub taskwaits: u64,
    /// Number of `taskwait on` barriers.
    pub taskwait_ons: u64,
}

impl TraceStats {
    /// Computes the statistics of a trace.
    pub fn of(trace: &Trace) -> Self {
        let mut dur = OnlineStats::new();
        let mut params = OnlineStats::new();
        let mut min_params = usize::MAX;
        let mut max_params = 0usize;
        let mut durations_us: Vec<f64> = Vec::new();
        for t in trace.tasks() {
            dur.push(t.duration.as_us_f64());
            durations_us.push(t.duration.as_us_f64());
            params.push(t.num_params() as f64);
            min_params = min_params.min(t.num_params());
            max_params = max_params.max(t.num_params());
        }
        if durations_us.is_empty() {
            min_params = 0;
        }
        let median_task_us = if durations_us.is_empty() {
            0.0
        } else {
            durations_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
            durations_us[durations_us.len() / 2]
        };
        let taskwait_ons = trace.taskwait_on_count() as u64;
        TraceStats {
            name: trace.name.clone(),
            tasks: dur.count(),
            total_work_ms: trace.total_work().as_ms_f64(),
            avg_task_us: dur.mean(),
            median_task_us,
            min_params,
            max_params,
            avg_params: params.mean(),
            taskwaits: trace.barrier_count() as u64 - taskwait_ons,
            taskwait_ons,
        }
    }

    /// The "# deps" column of Table II, formatted like the paper
    /// (single number or `min-max` range).
    pub fn deps_column(&self) -> String {
        if self.min_params == self.max_params {
            format!("{}", self.min_params)
        } else {
            format!("{}-{}", self.min_params, self.max_params)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskDescriptor;
    use crate::trace::TraceBuilder;

    #[test]
    fn stats_of_a_small_trace() {
        let mut b = TraceBuilder::new("mini");
        for i in 0..4u64 {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .input(0x100)
                    .inout(0x200 + i * 64)
                    .duration_us(10.0 * (i + 1) as f64)
                    .build()
            });
        }
        b.taskwait();
        b.taskwait_on(0x200);
        let trace = b.finish();
        let s = TraceStats::of(&trace);
        assert_eq!(s.tasks, 4);
        assert!((s.total_work_ms - 0.1).abs() < 1e-9);
        assert!((s.avg_task_us - 25.0).abs() < 1e-9);
        assert_eq!(s.min_params, 2);
        assert_eq!(s.max_params, 2);
        assert_eq!(s.deps_column(), "2");
        assert_eq!(s.taskwaits, 1);
        assert_eq!(s.taskwait_ons, 1);
        assert!((s.avg_params - 2.0).abs() < 1e-12);
        assert_eq!(s.median_task_us, 30.0);
    }

    #[test]
    fn deps_column_shows_range() {
        let mut b = TraceBuilder::new("range");
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .inout(1)
                .duration_us(1.0)
                .build()
        });
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .input(1)
                .input(2)
                .inout(3)
                .duration_us(1.0)
                .build()
        });
        let s = TraceStats::of(&b.finish());
        assert_eq!(s.deps_column(), "1-3");
    }

    #[test]
    fn empty_trace_is_benign() {
        let s = TraceStats::of(&Trace::new("empty"));
        assert_eq!(s.tasks, 0);
        assert_eq!(s.total_work_ms, 0.0);
        assert_eq!(s.min_params, 0);
        assert_eq!(s.max_params, 0);
    }
}
