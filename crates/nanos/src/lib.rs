//! # nexus-nanos — the software runtime-system (Nanos) cost model
//!
//! Nanos is the official OmpSs runtime and the software baseline of the paper's
//! evaluation (§V-B, §VI). The paper measured it on the real 32-core machine;
//! we substitute a cost model executed on the simulated host, calibrated per
//! benchmark (see [`calibration`]; `EXPERIMENTS.md` sets its Fig. 8 curves and
//! Table IV maxima beside the paper's):
//!
//! * task creation and dependency insertion run on the **master** core,
//! * scheduling (ready-queue pop) and dependency release run on the **worker**
//!   that dispatches/finishes the task,
//! * every graph/scheduler operation additionally serializes on a central
//!   **runtime lock** whose hold time grows with the number of active threads
//!   (cache-line bouncing), which is what caps the scalability of fine-grained
//!   workloads and makes the curves *drop* at high core counts — the behaviour
//!   visible in Fig. 8 for Nanos.
//!
//! Absolute per-benchmark overheads are not given in the paper, so
//! [`calibration`] holds per-benchmark scale factors chosen to land the
//! 32-core caps near Table IV; the model structure (what is serialized where)
//! is the load-bearing part.

#![warn(missing_docs)]

pub mod calibration;
pub mod config;
pub mod manager;

pub use calibration::benchmark_overhead_scale;
pub use config::NanosConfig;
pub use manager::NanosRuntime;
