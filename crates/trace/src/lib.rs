//! # nexus-trace — task model and workload generators
//!
//! The Nexus# evaluation is trace-driven: the testbench replays a stream of task
//! submissions (each task carrying its `in`/`out`/`inout` memory footprint and its
//! measured execution time) plus the synchronization pragmas (`taskwait`,
//! `taskwait on`). This crate provides:
//!
//! * the task and trace data model ([`TaskDescriptor`], [`Trace`], [`TraceOp`]),
//! * deterministic synthetic generators for every workload in the paper's
//!   evaluation section ([`generators`]): the Starbench benchmarks *c-ray*,
//!   *rot-cc*, *streamcluster*, *h264dec* (four task granularities), the OmpSs
//!   *sparselu* kernel, the *Gaussian elimination* micro-benchmark of Fig. 6 /
//!   Table III, and the micro traces used for the pipeline cycle studies,
//! * trace statistics reproducing the columns of Table II and Table III
//!   ([`stats`]).
//!
//! The real traces were collected on a 40-core Xeon E7-4870 and are not
//! available; the generators reproduce each benchmark's *dependency pattern*,
//! *parameter counts* and *duration distribution* as described in §V-A of the
//! paper. Each generator's module doc records how it departs from the real
//! trace, and `EXPERIMENTS.md` compares the generated Table II and Table III
//! with the paper's.

#![warn(missing_docs)]

pub mod addr;
pub mod arrivals;
pub mod generators;
pub mod stats;
pub mod task;
pub mod trace;

pub use addr::AddrRegion;
pub use arrivals::ArrivalOverlay;
pub use generators::{standard_suite, Benchmark};
pub use stats::TraceStats;
pub use task::{Direction, FunctionId, TaskDescriptor, TaskId, TaskParam};
pub use trace::{Trace, TraceOp};

/// Convenience prelude.
pub mod prelude {
    pub use crate::addr::AddrRegion;
    pub use crate::arrivals::ArrivalOverlay;
    pub use crate::generators::{standard_suite, Benchmark};
    pub use crate::stats::TraceStats;
    pub use crate::task::{Direction, FunctionId, TaskDescriptor, TaskId, TaskParam};
    pub use crate::trace::{Trace, TraceOp};
}
