//! Nexus# configuration: the knobs the evaluation turns, and the pipeline's
//! cycle costs as constants.
//!
//! The paper varies the number of task graphs and their clock (Table I, Figs.
//! 7–9), and the repository's ablations vary the address distribution and the
//! Task Pool; those five values are [`NexusSharpConfig`]'s fields. Every cycle
//! cost is fixed by the design, so each is a named constant below with the
//! figure or section it reproduces. The submission path's constants
//! reproduce the pipeline of Fig. 4: the Input Parser spends 2 cycles on the
//! header and 2 cycles per parameter (one 48-bit address = two 32-bit PCIe
//! words), distributes each parameter immediately, and finally writes the
//! descriptor to the Task Pool in one cycle (11 cycles for the 4-parameter
//! example); the New-Args FIFOs have a 3-cycle forwarding latency; insertion
//! takes 5 cycles per parameter at the task graph; the arbiter gathers each
//! result and the ready id passes a 3-cycle FIFO and a 3-cycle Write Back.
//! §IV-B and §IV-C describe the finished-task path (the Input Parser
//! re-distributes the input/output list from the Task Pool, the task graphs
//! delete the entries and walk the kick-off lists, the arbiter decrements the
//! waiters' counts) and the overflow and kick-off-list chaining without
//! cycle counts; their constants are the model's assumptions, in the range
//! of the submission path's. Every task graph uses
//! [`nexus_taskgraph::SetAssocConfig::default`].

use crate::distribution::DistributionPolicy;
use nexus_resources::{ManagerConfig, ResourceModel};
use nexus_sim::ClockDomain;
use nexus_taskgraph::taskpool::RetirementOrder;
use serde::{Deserialize, Serialize};

/// IPh: Input Parser cycles to receive a task's header word (Fig. 4).
pub const IP_HEADER_CYCLES: u64 = 2;
/// IP: Input Parser cycles per parameter, two 32-bit words per 48-bit
/// address (Fig. 4).
pub const IP_CYCLES_PER_PARAM: u64 = 2;
/// IPf: Input Parser cycles to store the descriptor in the Task Pool (Fig. 4).
pub const IP_FINALIZE_CYCLES: u64 = 1;
/// Forwarding latency of the New Args. and Finished Args. buffers (Fig. 4).
pub const ARGS_FIFO_LATENCY_CYCLES: u64 = 3;
/// IN: task-graph insertion cycles per parameter (Fig. 4).
pub const INSERT_CYCLES_PER_PARAM: u64 = 5;
/// AR: arbiter cycles to gather one parameter's result (Fig. 4).
pub const ARBITER_CYCLES_PER_RESULT: u64 = 1;
/// Arbiter cycles to conclude a task's final dependence count (Fig. 4).
pub const ARBITER_DECIDE_CYCLES: u64 = 1;
/// Forwarding latency of the Internal Ready Tasks buffer (Fig. 4).
pub const READY_FIFO_LATENCY_CYCLES: u64 = 3;
/// WB: Write Back cycles per ready task (Fig. 4).
pub const WRITEBACK_CYCLES: u64 = 3;
/// Cycles to receive a finished-task notification (assumed; §IV-B gives no
/// count).
pub const FINISH_RECEIVE_CYCLES: u64 = 2;
/// Input Parser cycles per parameter to re-distribute a finished task's
/// input/output list from the Task Pool, as for a new one (assumed).
pub const FINISH_DISTRIBUTE_CYCLES_PER_PARAM: u64 = 2;
/// Task-graph cleanup cycles per parameter of a finished task, as for an
/// insertion (assumed).
pub const DELETE_CYCLES_PER_PARAM: u64 = 5;
/// Arbiter cycles per dependence-count decrement of a released task
/// (assumed).
pub const WAITER_DECREMENT_CYCLES: u64 = 1;
/// Extra cycles to reach an entry in the overflow (dummy-entry) area
/// (assumed; §IV-C).
pub const OVERFLOW_PENALTY_CYCLES: u64 = 4;
/// Extra cycles per chained kick-off-list segment (assumed; §IV-C).
pub const KICKOFF_SEGMENT_PENALTY_CYCLES: u64 = 2;

/// The settable parameters of the Nexus# model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NexusSharpConfig {
    /// Number of task-graph units (the paper synthesizes 1–8 and selects 6).
    pub task_graphs: usize,
    /// Management clock frequency in MHz.
    pub clock_mhz: f64,
    /// Address distribution policy (the paper's XOR hash by default).
    pub distribution: DistributionPolicy,
    /// Task-pool capacity (in-flight task window).
    pub task_pool_capacity: usize,
    /// Task-pool recycling discipline (free list — out-of-order — for Nexus#).
    pub retirement: RetirementOrder,
}

impl Default for NexusSharpConfig {
    fn default() -> Self {
        Self::paper(6)
    }
}

impl NexusSharpConfig {
    /// The paper's evaluation configuration for a given number of task graphs,
    /// clocked at the Table I *test* frequency of that configuration
    /// (e.g. 6 task graphs at 55.56 MHz — the configuration used in Fig. 8).
    pub fn paper(task_graphs: usize) -> Self {
        let model = ResourceModel::paper_calibrated();
        let freq = model
            .estimate(ManagerConfig::NexusSharp {
                task_graphs: task_graphs as u32,
            })
            .test_freq_mhz;
        Self::at_mhz(task_graphs, freq)
    }

    /// A configuration forced to a specific frequency regardless of the number
    /// of task graphs (Fig. 7(a) runs every configuration at 100 MHz).
    pub fn at_mhz(task_graphs: usize, clock_mhz: f64) -> Self {
        NexusSharpConfig {
            task_graphs,
            clock_mhz,
            distribution: DistributionPolicy::XorHash,
            task_pool_capacity: 512,
            retirement: RetirementOrder::FreeList,
        }
    }

    /// The clock domain of the manager.
    pub fn clock(&self) -> ClockDomain {
        ClockDomain::from_mhz(self.clock_mhz)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.task_graphs == 0 || self.task_graphs > 32 {
            return Err(format!(
                "task graph count must be in 1..=32 (5-bit id), got {}",
                self.task_graphs
            ));
        }
        if self.clock_mhz <= 0.0 {
            return Err("clock frequency must be positive".into());
        }
        if self.task_pool_capacity == 0 {
            return Err("task pool capacity must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_use_table1_test_frequencies() {
        assert!((NexusSharpConfig::paper(1).clock_mhz - 100.0).abs() < 0.05);
        assert!((NexusSharpConfig::paper(2).clock_mhz - 100.0).abs() < 0.05);
        assert!((NexusSharpConfig::paper(4).clock_mhz - 83.33).abs() < 0.05);
        assert!((NexusSharpConfig::paper(6).clock_mhz - 55.56).abs() < 0.05);
        assert!((NexusSharpConfig::paper(8).clock_mhz - 41.66).abs() < 0.05);
    }

    #[test]
    fn four_param_input_parsing_matches_fig4() {
        let c = NexusSharpConfig::at_mhz(6, 100.0);
        // IPh (2) + 4 x IP (2) + IPf (1) = 11 cycles.
        assert_eq!(
            IP_HEADER_CYCLES + 4 * IP_CYCLES_PER_PARAM + IP_FINALIZE_CYCLES,
            11
        );
        assert!(c.validate().is_ok());
        assert_eq!(c.clock().period(), nexus_sim::SimDuration::from_ns(10));
    }

    #[test]
    fn default_is_the_six_task_graph_configuration() {
        let c = NexusSharpConfig::default();
        assert_eq!(c.task_graphs, 6);
        assert_eq!(c.retirement, RetirementOrder::FreeList);
        assert_eq!(c.distribution, DistributionPolicy::XorHash);
    }

    #[test]
    fn validation_rejects_out_of_range_configs() {
        let mut c = NexusSharpConfig::paper(6);
        c.task_graphs = 0;
        assert!(c.validate().is_err());
        c.task_graphs = 64;
        assert!(c.validate().is_err());
        let mut c = NexusSharpConfig::paper(6);
        c.clock_mhz = -1.0;
        assert!(c.validate().is_err());
    }
}
