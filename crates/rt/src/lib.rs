//! # nexus-rt — a real threaded cluster runtime for the simulator's policies
//!
//! Everything else in this workspace *simulates* the Nexus# cluster design:
//! discrete events stand in for threads, and simulated clocks stand in for
//! contention. This crate closes the loop — it **executes** tasks on real OS
//! threads, with per-node state machines exchanging messages in place of the
//! interconnect, while consuming the *same* policy objects as the simulator:
//!
//! - placement and dependence edges come from the one shared
//!   `DepScanner` (`nexus-cluster`), so a task's home node is identical
//!   under simulation and execution;
//! - work stealing calls the same [`StealPolicy`](nexus_sched::StealPolicy)
//!   trait objects (`nexus-sched`), fed from live lock-free load boards;
//! - trace replay drives the same `MasterSm` master state machine
//!   (`nexus-host`), so program order, `taskwait`, and `taskwait on` mean
//!   exactly what they mean in the simulators.
//!
//! That sharing is what the conformance suite leans on: a live run and a
//! simulated run of the same trace under the same config must admit the same
//! tasks at the same homes, retire in *some* legal topological order of the
//! same dependence graph, and converge to the same final last-writer table.
//!
//! Dependences follow the simulator's rule: full OmpSs ordering of the
//! `in`/`out`/`inout` clauses among tasks homed on the same node, and only
//! last-writer edges across nodes (cross-node anti-dependences are left to
//! renaming). A one-node runtime, `RtConfig::new(1, workers)`, therefore
//! orders every dependence and serves as a plain task-parallel library.
//!
//! Observability mirrors the simulator's: attach a
//! [`SharedRecorder`] via [`RtConfig::with_recorder`] and every thread
//! stamps the same `nexus-obs` span schema (`Submitted` → `Placed` →
//! `Dispatched` → `Started` → `Retired`, plus `Stolen`) in monotonic
//! wall-clock nanoseconds, ready for the shared Chrome-trace exporter; the
//! [`ShutdownReport`] carries a metrics [`Registry`]
//! whose counter names match `ClusterOutcome::metrics`.
//!
//! A node has no thread of its own: its state sits behind a lock, and the
//! thread that has work for it drives it — the submitting thread, one of
//! the node's workers retiring a task, or a node's idle worker asking for a
//! move. The only threads are the workers (see the [`runtime`] module docs
//! for the protocol).
//!
//! The lifecycle is tokio-style, split across two types: a non-cloneable
//! owner ([`ClusterRuntime`]) whose `new` spawns nothing, whose `start`
//! spawns the worker threads exactly once, and whose `shutdown_timeout` /
//! `shutdown_background` stop them — and a cheap cloneable
//! [`RuntimeHandle`] that submits tasks and waits on barriers from any
//! thread.
//!
//! ```
//! use nexus_rt::{ClusterRuntime, RtConfig, RtTask};
//! use nexus_trace::TaskDescriptor;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let mut rt = ClusterRuntime::new(RtConfig::new(2, 2));
//! let handle = rt.start();
//!
//! let counter = Arc::new(AtomicU64::new(0));
//! for i in 0..16u64 {
//!     let counter = Arc::clone(&counter);
//!     // Four inout chains interleaved over two nodes.
//!     let desc = TaskDescriptor::builder(i).inout(0x100 + i % 4).build();
//!     handle
//!         .submit(RtTask::new(desc).with_body(move || {
//!             counter.fetch_add(1, Ordering::Relaxed);
//!         }))
//!         .unwrap();
//! }
//! handle.taskwait();
//! assert_eq!(counter.load(Ordering::Relaxed), 16);
//!
//! let report = rt.shutdown_timeout(Duration::from_secs(5));
//! assert_eq!(report.pending, 0);
//! assert_eq!(report.retired, 16);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod runtime;
pub mod task;

pub use config::RtConfig;
pub use nexus_obs::{MemRecorder, Registry, SharedRecorder, SpanEvent, TimeBase};
pub use runtime::{
    ClusterRuntime, NodeStatsSnapshot, RuntimeHandle, ShutdownReport, TraceRunReport,
};
pub use task::{RtTask, SubmitError};
