//! Analytic pipeline schedules (Fig. 1 reproduction).
//!
//! Independent of the full discrete-event model, this module computes the
//! per-stage cycle schedule of inserting a stream of tasks through the Nexus++
//! pipeline under ideal conditions (no stalls, empty task graph). The benchmark
//! harness uses it to regenerate the pipeline walk-throughs of Fig. 1 and to
//! compare against the Nexus# schedules of Fig. 4 / Fig. 5.

use crate::config::{insert_cycles, ip_cycles, FIFO_LATENCY_CYCLES, WRITEBACK_CYCLES};
use serde::{Deserialize, Serialize};

/// One pipeline-stage occupancy interval, in cycles relative to the start of
/// the schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Task index within the submitted stream.
    pub task: usize,
    /// Stage name ("IP", "Insert", "WB").
    pub stage: &'static str,
    /// First cycle of the stage (inclusive).
    pub start_cycle: u64,
    /// One past the last cycle of the stage.
    pub end_cycle: u64,
}

impl StageSpan {
    /// Stage length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// Computes the ideal-case schedule of pushing `tasks` back-to-back tasks with
/// `params_per_task` parameters each through the Nexus++ pipeline, assuming all
/// tasks are independent (every one reaches Write Back).
///
/// Returns the stage spans plus the total cycle count (the cycle at which the
/// last write-back completes).
pub fn pipeline_schedule(tasks: usize, params_per_task: usize) -> (Vec<StageSpan>, u64) {
    let mut spans = Vec::with_capacity(tasks * 3);
    let mut ip_free = 0u64;
    let mut insert_free = 0u64;
    let mut wb_free = 0u64;
    let mut total = 0u64;

    for t in 0..tasks {
        // Stage 1: Input Parser (serial per task, a whole task at a time).
        let ip_start = ip_free;
        let ip_end = ip_start + ip_cycles(params_per_task);
        ip_free = ip_end;
        spans.push(StageSpan {
            task: t,
            stage: "IP",
            start_cycle: ip_start,
            end_cycle: ip_end,
        });

        // Stage 2: Insert — data must be fully buffered (FIFO latency) and the
        // stage must be free.
        let ins_start = (ip_end + FIFO_LATENCY_CYCLES).max(insert_free);
        let ins_end = ins_start + insert_cycles(params_per_task);
        insert_free = ins_end;
        spans.push(StageSpan {
            task: t,
            stage: "Insert",
            start_cycle: ins_start,
            end_cycle: ins_end,
        });

        // Stage 3: Write Back (only for ready tasks; all tasks are independent
        // here).
        let wb_start = (ins_end + FIFO_LATENCY_CYCLES).max(wb_free);
        let wb_end = wb_start + WRITEBACK_CYCLES;
        wb_free = wb_end;
        spans.push(StageSpan {
            task: t,
            stage: "WB",
            start_cycle: wb_start,
            end_cycle: wb_end,
        });
        total = total.max(wb_end);
    }
    (spans, total)
}

/// The steady-state initiation interval of the pipeline (cycles between
/// consecutive write-backs) for tasks of a given parameter count: dominated by
/// the longest stage, which for Nexus++ is the Insert stage (18 cycles for the
/// 4-parameter example — "the write back stage … took place every other 18
/// cycles in the old pipeline").
pub fn initiation_interval(params_per_task: usize) -> u64 {
    ip_cycles(params_per_task)
        .max(insert_cycles(params_per_task))
        .max(WRITEBACK_CYCLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_parameter_example_matches_fig1() {
        let (spans, total) = pipeline_schedule(1, 4);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].cycles(), 12);
        assert_eq!(spans[1].cycles(), 18);
        assert_eq!(spans[2].cycles(), 3);
        // 12 (IP) + 3 (fifo) + 18 (Insert) + 3 (fifo) + 3 (WB) = 39 cycles.
        assert_eq!(total, 39);
    }

    #[test]
    fn steady_state_is_limited_by_the_insert_stage() {
        assert_eq!(initiation_interval(4), 18);
        let (spans, _) = pipeline_schedule(4, 4);
        // Write-backs of consecutive tasks are 18 cycles apart in steady state.
        let wb: Vec<&StageSpan> = spans.iter().filter(|s| s.stage == "WB").collect();
        let deltas: Vec<u64> = wb
            .windows(2)
            .map(|w| w[1].end_cycle - w[0].end_cycle)
            .collect();
        assert!(deltas.iter().skip(1).all(|&d| d == 18), "{deltas:?}");
    }

    #[test]
    fn stages_never_overlap_on_the_same_resource() {
        let (spans, _) = pipeline_schedule(6, 3);
        for stage in ["IP", "Insert", "WB"] {
            let mut last_end = 0;
            for s in spans.iter().filter(|s| s.stage == stage) {
                assert!(s.start_cycle >= last_end, "{stage} overlaps");
                last_end = s.end_cycle;
            }
        }
    }
}
