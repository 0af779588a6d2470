//! # nexus-core — the Nexus# distributed hardware task manager
//!
//! This crate models the paper's primary contribution (§IV): a task-dependency
//! manager whose task graph is **distributed** over `N` independent task-graph
//! units so that the memory addresses of incoming tasks can be inserted in
//! parallel — both the addresses of a single task and those of different tasks.
//!
//! The block structure follows Fig. 2:
//!
//! * **Nexus IO / Input Parser** — receives task descriptors word by word and
//!   *immediately* forwards every incoming address to its task graph (chosen by
//!   the XOR [`distribution`] function), instead of waiting for the whole task;
//!   it finally stores the descriptor in the **Task Pool**,
//! * **Task graphs (×N)** — each owns a slice of the address space in a
//!   set-associative table with kick-off lists
//!   ([`nexus_taskgraph::DependencyTracker`]: per address, a queue of the
//!   outstanding accesses and counters), fed through *New Args.* / *Finished
//!   Args.* buffers,
//! * **Dependence Counts Arbiter** — gathers the per-address outcomes, maintains
//!   the per-task dependence counts (Sim. Tasks Dep. Counts buffer + global Dep.
//!   Counts table), decrements counts when finished tasks kick off waiters, and
//!   forwards ready task ids. The model keeps each task's parameter list
//!   (with each parameter's tracker access) and its dependence count,
//!   gathered during `submit` and decremented by releases, in its record in
//!   the Task Pool ([`nexus_taskgraph::TaskPool`]), which reuses the lists
//!   from task to task,
//! * **Write Back** — returns ready task ids (via the Function Pointers table)
//!   to the Nexus IO unit.
//!
//! Unlike Nexus++, Nexus# supports the `taskwait on` pragma, and its task pool
//! recycles slots out of order.
//!
//! Two views are provided:
//!
//! * [`NexusSharp`] — the discrete-event model implementing
//!   [`nexus_host::TaskManager`], used for the paper's performance evaluation,
//! * [`pipeline`] — analytic cycle schedules reproducing the pipeline
//!   walk-throughs of Fig. 4 / Fig. 5 and the §IV-E micro-benchmark.

#![warn(missing_docs)]

pub mod config;
pub mod distribution;
pub mod manager;
pub mod pipeline;

pub use config::NexusSharpConfig;
pub use distribution::{DistributionPolicy, Distributor};
pub use manager::NexusSharp;
pub use pipeline::{sharp_pipeline_schedule, SharpStageSpan};
