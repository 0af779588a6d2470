//! # nexus-host — the simulated multicore host ("the testbench")
//!
//! §V-B of the paper: "The test bench simulates the RTS. It submits new tasks to
//! Nexus#, receives ready task information from it, schedules ready tasks to
//! worker cores and simulates their execution, and finally notifies Nexus# of
//! finished tasks."
//!
//! This crate provides exactly that, generalized over a [`TaskManager`]
//! implementation so the same driver runs the *No Overhead* ideal manager, the
//! Nanos software-runtime model, Nexus++ and Nexus#:
//!
//! * [`TaskManager`] — the manager-side interface (submit / finish / readiness
//!   and retirement notifications / capacity back-pressure),
//! * [`IdealManager`] — the paper's "No Overhead" configuration,
//! * [`simulate`] / [`HostConfig`] — the event-driven multicore simulation with
//!   a master thread replaying the trace (including `taskwait` and `taskwait
//!   on` semantics, with escalation when the manager lacks support) and a pool
//!   of worker cores,
//! * [`SimOutcome`] — makespan, speedup and diagnostic counters,
//! * [`WorkerPool`] — the per-node ready-queue / free-worker state machine,
//!   shared with the multi-node cluster driver (`nexus-cluster`),
//! * [`MasterSm`] — the master-thread state machine (`taskwait` / `taskwait
//!   on` escalation, barrier and back-pressure time bookkeeping), also shared
//!   with the cluster driver,
//! * [`sweep`] — speedup-vs-core-count curves and suite sweeps used by the
//!   benchmark harness to regenerate Figs. 7–9 and Table IV.

#![warn(missing_docs)]

pub mod driver;
pub mod ideal;
pub mod manager;
pub mod master;
pub mod metrics;
pub mod pool;
pub mod sweep;

pub use driver::{simulate, HostConfig};
pub use ideal::IdealManager;
pub use manager::{ManagerEvent, TaskManager};
pub use master::{MasterSm, MasterStep};
pub use metrics::SimOutcome;
pub use pool::WorkerPool;
pub use sweep::{speedup_curve, SpeedupCurve, SpeedupPoint};
