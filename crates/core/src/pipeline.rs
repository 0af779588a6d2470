//! Analytic Nexus# pipeline schedules (Fig. 4, Fig. 5 and the §IV-E
//! micro-benchmark).
//!
//! These schedules assume ideal conditions (empty task graphs, no structural
//! stalls) and an even assignment of parameters to task graphs, exactly like
//! the walk-throughs in the paper. The discrete-event model in
//! [`crate::manager`] is the general-purpose version; this module exists so the
//! benchmark harness can print the per-stage cycle layout and compare the two
//! pipelines stage by stage.

use crate::config::{
    ARBITER_CYCLES_PER_RESULT, ARBITER_DECIDE_CYCLES, ARGS_FIFO_LATENCY_CYCLES,
    INSERT_CYCLES_PER_PARAM, IP_CYCLES_PER_PARAM, IP_FINALIZE_CYCLES, IP_HEADER_CYCLES,
    READY_FIFO_LATENCY_CYCLES, WRITEBACK_CYCLES,
};
use serde::{Deserialize, Serialize};

/// One stage occupancy interval, in cycles from the start of the schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharpStageSpan {
    /// Task index in the submitted stream.
    pub task: usize,
    /// Parameter index within the task (`None` for whole-task stages).
    pub param: Option<usize>,
    /// Stage name: "IPh", "IP", "IPf", "IN", "AR", "WB".
    pub stage: &'static str,
    /// First cycle (inclusive).
    pub start_cycle: u64,
    /// One past the last cycle.
    pub end_cycle: u64,
}

impl SharpStageSpan {
    /// Stage length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// Whether the schedule models the average case (parameters stream in through
/// the Input Parser, Fig. 4) or the best case (parameters already wait in the
/// New Args. buffers, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineCase {
    /// Fig. 4: the Input Parser distributes parameters as they arrive.
    Average,
    /// Fig. 5: all parameters are already buffered at the task graphs.
    BestCase,
}

/// Computes the ideal schedule of `tasks` back-to-back independent tasks with
/// `params_per_task` parameters each, parameters assigned round-robin over
/// `task_graphs` task graphs. Returns the spans and the cycle at which the
/// last write-back completes.
pub fn sharp_pipeline_schedule(
    task_graphs: usize,
    tasks: usize,
    params_per_task: usize,
    case: PipelineCase,
) -> (Vec<SharpStageSpan>, u64) {
    let n_tg = task_graphs.max(1);
    let mut spans = Vec::new();
    let mut ip_free = 0u64;
    let mut tg_free = vec![0u64; n_tg];
    let mut arbiter_free = 0u64;
    let mut wb_free = 0u64;
    let mut total = 0u64;

    for t in 0..tasks {
        let mut last_gather = 0u64;

        // IPh: header reception (skipped in the best case, where the whole
        // descriptor is assumed buffered).
        let header_end = if case == PipelineCase::Average {
            let start = ip_free;
            let end = start + IP_HEADER_CYCLES;
            spans.push(SharpStageSpan {
                task: t,
                param: None,
                stage: "IPh",
                start_cycle: start,
                end_cycle: end,
            });
            ip_free = end;
            end
        } else {
            ip_free
        };

        let mut ip_cursor = header_end;
        for p in 0..params_per_task {
            // IP: receive + distribute this parameter (average case only).
            let avail = if case == PipelineCase::Average {
                let start = ip_cursor;
                let end = start + IP_CYCLES_PER_PARAM;
                spans.push(SharpStageSpan {
                    task: t,
                    param: Some(p),
                    stage: "IP",
                    start_cycle: start,
                    end_cycle: end,
                });
                ip_cursor = end;
                ip_free = end;
                end + ARGS_FIFO_LATENCY_CYCLES
            } else {
                // Already sitting at the output of the New Args. buffer.
                0
            };

            // IN: insertion at the parameter's task graph.
            let tg = p % n_tg;
            let start = avail.max(tg_free[tg]);
            let end = start + INSERT_CYCLES_PER_PARAM;
            tg_free[tg] = end;
            spans.push(SharpStageSpan {
                task: t,
                param: Some(p),
                stage: "IN",
                start_cycle: start,
                end_cycle: end,
            });

            // AR: the arbiter gathers this result.
            let ar_start = end.max(arbiter_free);
            let ar_end = ar_start + ARBITER_CYCLES_PER_RESULT;
            arbiter_free = ar_end;
            spans.push(SharpStageSpan {
                task: t,
                param: Some(p),
                stage: "AR",
                start_cycle: ar_start,
                end_cycle: ar_end,
            });
            last_gather = last_gather.max(ar_end);
        }

        if case == PipelineCase::Average {
            // IPf: store the descriptor in the Task Pool.
            let start = ip_cursor;
            let end = start + IP_FINALIZE_CYCLES;
            spans.push(SharpStageSpan {
                task: t,
                param: None,
                stage: "IPf",
                start_cycle: start,
                end_cycle: end,
            });
            ip_free = end;
        }

        // Final dependence-count decision, ready FIFO and write back.
        let decide_end = last_gather.max(arbiter_free) + ARBITER_DECIDE_CYCLES;
        arbiter_free = decide_end;
        let wb_start = (decide_end + READY_FIFO_LATENCY_CYCLES).max(wb_free);
        let wb_end = wb_start + WRITEBACK_CYCLES;
        wb_free = wb_end;
        spans.push(SharpStageSpan {
            task: t,
            param: None,
            stage: "WB",
            start_cycle: wb_start,
            end_cycle: wb_end,
        });
        total = total.max(wb_end);
    }
    (spans, total)
}

/// The cycle count of the §IV-E micro-benchmark: 5 independent tasks with two
/// parameters each, pushed through a single-task-graph Nexus# (the paper
/// reports 78 cycles, vs. 172 cycles for the task-superscalar prototype
/// of Yazdanpanah et al.).
pub fn micro_benchmark_cycles() -> u64 {
    sharp_pipeline_schedule(1, 5, 2, PipelineCase::Average).1
}

/// Span (in cycles) of the insertion phase of a single task on `task_graphs`
/// task graphs: the interval from the first parameter starting insertion to
/// the last finishing. The paper
/// quotes 11 cycles for the 4-parameter average case (vs. 18 cycles for the
/// monolithic Nexus++ insert stage) and 5 cycles for the best case.
pub fn insertion_span_cycles(task_graphs: usize, params: usize, case: PipelineCase) -> u64 {
    let (spans, _) = sharp_pipeline_schedule(task_graphs, 1, params, case);
    let ins: Vec<&SharpStageSpan> = spans.iter().filter(|s| s.stage == "IN").collect();
    let start = ins.iter().map(|s| s.start_cycle).min().unwrap_or(0);
    let end = ins.iter().map(|s| s.end_cycle).max().unwrap_or(0);
    end - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_case_insertion_span_matches_fig4() {
        // "The Insertion stage in the new pipeline consumed 11 cycles,
        // compared to 18 cycles in the old pipeline."
        assert_eq!(insertion_span_cycles(4, 4, PipelineCase::Average), 11);
    }

    #[test]
    fn best_case_insertion_span_matches_fig5() {
        // With all four parameters already buffered at four different task
        // graphs, insertion takes exactly one 5-cycle slot.
        assert_eq!(insertion_span_cycles(4, 4, PipelineCase::BestCase), 5);
    }

    #[test]
    fn best_case_initiation_interval_is_five_cycles() {
        // "In this scenario, the Write Back stage will take place every other
        // 5 cycles."
        let (spans, _) = sharp_pipeline_schedule(4, 6, 4, PipelineCase::BestCase);
        let wb: Vec<u64> = spans
            .iter()
            .filter(|s| s.stage == "WB")
            .map(|s| s.end_cycle)
            .collect();
        let deltas: Vec<u64> = wb.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().skip(1).all(|&d| d == 5), "{deltas:?}");
    }

    #[test]
    fn average_case_initiation_interval_is_eleven_cycles() {
        // "this number decreased significantly to 11 cycles in the new
        // pipeline" — the steady-state write-back interval equals the Input
        // Parser occupancy per task (2 + 2*4 + 1 = 11 cycles).
        let (spans, _) = sharp_pipeline_schedule(4, 8, 4, PipelineCase::Average);
        let wb: Vec<u64> = spans
            .iter()
            .filter(|s| s.stage == "WB")
            .map(|s| s.end_cycle)
            .collect();
        let deltas: Vec<u64> = wb.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            deltas.iter().skip(2).all(|&d| d == 11),
            "steady-state deltas {deltas:?}"
        );
    }

    #[test]
    fn micro_benchmark_is_well_under_the_task_superscalar_172_cycles() {
        let cycles = micro_benchmark_cycles();
        // The paper reports 78 cycles for its VHDL prototype; our analytic
        // model lands in the same range and far below the 172 cycles of [19].
        assert!(cycles >= 50, "{cycles}");
        assert!(cycles <= 100, "{cycles}");
    }

    #[test]
    fn stages_never_overlap_on_their_resource() {
        let (spans, _) = sharp_pipeline_schedule(3, 5, 4, PipelineCase::Average);
        // The input parser stages (IPh/IP/IPf) are serial.
        let mut last_end = 0;
        for s in spans
            .iter()
            .filter(|s| matches!(s.stage, "IPh" | "IP" | "IPf"))
        {
            assert!(s.start_cycle >= last_end);
            last_end = s.end_cycle;
        }
        // Each task graph's IN slots are serial.
        for tg in 0..3usize {
            let mut last_end = 0;
            for s in spans
                .iter()
                .filter(|s| s.stage == "IN" && s.param.map(|p| p % 3) == Some(tg))
            {
                assert!(s.start_cycle >= last_end, "TG {tg} overlaps");
                last_end = s.end_cycle;
            }
        }
    }
}
