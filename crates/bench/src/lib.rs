//! # nexus-bench — the evaluation harness
//!
//! One bench target per table/figure of the paper (see DESIGN.md §4 for the
//! full experiment index), plus Criterion micro-benchmarks of the core data
//! structures. This library holds the shared plumbing: manager construction,
//! curve sweeps, paper reference values, scaling of the workloads and table
//! formatting.
//!
//! ## Workload scaling
//!
//! The full-size traces (650 k tasks for streamcluster, 4.5 M tasks for the
//! 3000×3000 Gaussian elimination) are faithful to Table II but make a full
//! `cargo bench` run take tens of minutes. The harness therefore runs a scaled
//! configuration by default and prints the scale it used.
//! `NEXUS_BENCH_SCALE=<0..1>` is the task-count scale factor (default 0.1;
//! `1` runs the full-size traces).
//!
//! Scaling shrinks the *number* of tasks (fewer frames/lines/groups), not their
//! durations or dependency structure, so speedup curves keep their shape.
//!
//! ## Knobs
//!
//! `NEXUS_BENCH_SCALE` and `NEXUS_FEEDBACK=off|place|reclaim|full` (default
//! `off`, read by the cluster benches) are the harness's only environment
//! knobs; a typo in either aborts with exit 2 and lists the valid values.
//! Every other setting is fixed in the bench that uses it.

#![warn(missing_docs)]

pub mod managers;
pub mod paper;
pub mod report;
pub mod runner;

pub use managers::ManagerKind;
pub use report::Table;
pub use runner::{bench_scale, curves_for, gaussian_core_counts, hw_core_counts};
