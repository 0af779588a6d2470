//! # nexus-bench — the evaluation harness
//!
//! The paper's evaluation (Tables I–IV, Figs. 1 and 3–9) comes from one
//! binary, `paper_report`, which prints every table as Markdown with a
//! measured/paper ratio beside each value the paper reports; its full-scale
//! output is committed as `EXPERIMENTS.md`:
//!
//! ```text
//! NEXUS_BENCH_SCALE=1 cargo run --release -p nexus-bench --bin paper_report > EXPERIMENTS.md
//! ```
//!
//! Its Part II covers what the paper's tables do not: ablations of the
//! distribution function and of the structural deltas between Nexus++ and
//! Nexus#, and sweeps of a cluster of Nexus# nodes (node scaling, placement ×
//! stealing × feedback, fabrics, an open-loop service). The one bench target,
//! `micro_structures`, holds Criterion micro-benchmarks of the core data
//! structures. This library holds the report's plumbing: manager
//! construction, curve sweeps, paper reference values, scaling of the
//! workloads and table formatting.
//!
//! ## Workload scaling
//!
//! The full-size traces (650 k tasks for streamcluster, 4.5 M tasks for the
//! 3000×3000 Gaussian elimination) are faithful to Table II but take minutes
//! to simulate. The harness therefore runs a scaled configuration by default
//! and prints the scale it used. `NEXUS_BENCH_SCALE=<0.001..1>` is the
//! task-count scale factor (default 0.1; `1` runs the full-size traces).
//!
//! Scaling shrinks the *number* of tasks (fewer frames/lines/groups), not their
//! durations or dependency structure, so speedup curves keep their shape.
//!
//! ## Knobs
//!
//! `NEXUS_BENCH_SCALE` is the harness's only environment knob; a value that
//! does not parse or lies outside 0.001..=1.0 aborts with exit 2. Every other
//! setting is fixed in the report section that uses it.

#![warn(missing_docs)]

pub mod managers;
pub mod paper;
pub mod report;
pub mod runner;

pub use managers::ManagerKind;
pub use report::Table;
pub use runner::{bench_scale, gaussian_core_counts, hw_core_counts, Curves};
