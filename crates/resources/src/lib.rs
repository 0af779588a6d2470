//! # nexus-resources — FPGA utilization and clock-frequency model
//!
//! The paper synthesizes Nexus++ and Nexus# (1–8 task graphs) for the Xilinx
//! ZYNQ-7 ZC706 board and reports device utilization and maximum/test clock
//! frequencies (Table I). Those frequencies then drive the performance
//! evaluation: Fig. 7(b) and Fig. 8 run each configuration at its *test*
//! frequency (100 MHz for 1–2 task graphs down to 41.66 MHz for 8).
//!
//! There is no HDL synthesis ecosystem for Rust, so this crate substitutes an
//! **analytical resource model** calibrated to Table I (`EXPERIMENTS.md`
//! prints the model beside the paper's values):
//!
//! * register / LUT / block-RAM counts grow linearly with the number of task
//!   graphs (a shared front-end plus a per-task-graph block), matching the
//!   paper's observation that "the number of block RAMs almost doubles due to
//!   using multiple task graphs, and the number of LUTs also doubles because of
//!   the extra work the Input Parser and the Dependence Counts Arbiter blocks
//!   have to manage",
//! * the maximum frequency is interpolated from the paper's measured points,
//!   and the *test* frequency is derived the same way the authors appear to
//!   have chosen theirs: the fastest integer divider of a 500 MHz source clock
//!   that does not exceed the achievable frequency.
//!
//! The crate also embeds the paper's reported Table I rows verbatim
//! ([`paper_table1`]) so the paper report can print model-vs-paper ratios.

#![warn(missing_docs)]

pub mod model;
pub mod table1;

pub use model::{DeviceCapacity, ManagerConfig, ResourceEstimate, ResourceModel};
pub use table1::{paper_table1, PaperTable1Row};
