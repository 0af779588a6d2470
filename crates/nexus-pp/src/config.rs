//! Nexus++ configuration: the Task Pool knobs, and the pipeline's clock and
//! cycle costs as constants.
//!
//! The repository varies only the Nexus++ Task Pool (its ablations try a
//! free-list pool and a larger one), so [`NexusPPConfig`] holds those two
//! values. The clock and every cycle cost are named constants below. The
//! submission pipeline's constants reproduce the numbers §III gives for the
//! running 4-parameter example of Fig. 1: Input Parser 12 cycles (4
//! header/sync + 2 per parameter), Insert 18 cycles (2 + 4 per parameter),
//! Write Back 3 cycles. §III describes the finished-task pipeline and the
//! overflow and kick-off-list chaining without cycle counts; their constants
//! are the model's assumptions, in the same range. The single task graph
//! uses [`nexus_taskgraph::SetAssocConfig::default`].

use nexus_taskgraph::taskpool::RetirementOrder;
use serde::{Deserialize, Serialize};

/// Management clock frequency in MHz (Table I: Nexus++'s 100 MHz test
/// frequency).
pub const CLOCK_MHZ: f64 = 100.0;
/// Input Parser: header and synchronization cycles per task (Fig. 1).
pub const IP_HEADER_CYCLES: u64 = 4;
/// Input Parser: cycles per parameter, two 32-bit PCIe words per 48-bit
/// address (Fig. 1).
pub const IP_CYCLES_PER_PARAM: u64 = 2;
/// Forwarding latency of the FIFOs between pipeline stages (Fig. 1).
pub const FIFO_LATENCY_CYCLES: u64 = 3;
/// Insert stage: fixed cycles per task (Fig. 1).
pub const INSERT_BASE_CYCLES: u64 = 2;
/// Insert stage: cycles per parameter (Fig. 1).
pub const INSERT_CYCLES_PER_PARAM: u64 = 4;
/// Write Back stage: cycles per ready task (Fig. 1).
pub const WRITEBACK_CYCLES: u64 = 3;
/// Finished-task pipeline: cycles to receive a completion notification
/// (assumed; §III gives no count).
pub const FINISH_RECEIVE_CYCLES: u64 = 4;
/// Finished-task pipeline: cleanup cycles per parameter (assumed).
pub const DELETE_CYCLES_PER_PARAM: u64 = 4;
/// Finished-task pipeline: cycles per kicked-off waiting task (assumed).
pub const KICKOFF_CYCLES_PER_WAITER: u64 = 2;
/// Extra cycles to reach an entry in the overflow (dummy-entry) area
/// (assumed).
pub const OVERFLOW_PENALTY_CYCLES: u64 = 4;
/// Extra cycles per chained kick-off-list segment (assumed).
pub const KICKOFF_SEGMENT_PENALTY_CYCLES: u64 = 2;

/// Input Parser cycles for a task with `params` parameters (12 for the
/// 4-parameter example of Fig. 1).
pub fn ip_cycles(params: usize) -> u64 {
    IP_HEADER_CYCLES + IP_CYCLES_PER_PARAM * params as u64
}

/// Insert-stage cycles for a task with `params` parameters (18 for the
/// 4-parameter example of Fig. 1).
pub fn insert_cycles(params: usize) -> u64 {
    INSERT_BASE_CYCLES + INSERT_CYCLES_PER_PARAM * params as u64
}

/// The settable parameters of the Nexus++ model: its Task Pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NexusPPConfig {
    /// Task-pool capacity (in-flight task window).
    pub task_pool_capacity: usize,
    /// Task-pool slot recycling discipline (Nexus++ uses a circular buffer).
    pub retirement: RetirementOrder,
}

impl Default for NexusPPConfig {
    fn default() -> Self {
        NexusPPConfig {
            task_pool_capacity: 256,
            retirement: RetirementOrder::InOrder,
        }
    }
}

impl NexusPPConfig {
    /// The paper's evaluation configuration (100 MHz, Table I).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
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
    fn defaults_reproduce_the_papers_stage_lengths() {
        assert_eq!(ip_cycles(4), 12, "Fig. 1: 12 cycles of input parsing");
        assert_eq!(insert_cycles(4), 18, "Fig. 1: 18-cycle insert stage");
        assert_eq!(WRITEBACK_CYCLES, 3, "Fig. 1: 3-cycle write back");
        let clock = nexus_sim::ClockDomain::from_mhz(CLOCK_MHZ);
        assert_eq!(clock.period(), nexus_sim::SimDuration::from_ns(10));
        assert!(NexusPPConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = NexusPPConfig {
            task_pool_capacity: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
