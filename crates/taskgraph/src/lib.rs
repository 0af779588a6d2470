//! # nexus-taskgraph — task-graph storage and dependency tracking
//!
//! This crate implements the data structures both hardware task managers are
//! built from (§III and §IV-C of the paper):
//!
//! * [`SetAssocTable`] — the "set-associative cache-like structure" that maps a
//!   parameter memory address to its tracking entry, with a bounded number of
//!   ways per set and an overflow (dummy-entry) area (one map of entries, each
//!   with its placement, and a count of the ways in use per set),
//! * [`DependencyTracker`] — the functional dependency-resolution core: full
//!   OmpSs `in`/`out`/`inout` semantics per address, reporting for every
//!   parameter insertion whether the task must wait and, on task retirement,
//!   which waiting tasks become released. Each address keeps one queue of its
//!   outstanding accesses in insertion order plus counters (writers inserted,
//!   newest outstanding writer), from which it derives who waits and who is
//!   released. It also models each address's kick-off list, the per-address
//!   list of waiting tasks, as an occupancy count segmented with dummy-entry
//!   chaining, so its length is not statically limited (the property the
//!   Gaussian-elimination benchmark validates),
//! * [`ReferenceGraph`] — a deliberately simple software dependency graph used
//!   as a test oracle and by the software-runtime (Nanos) model,
//! * [`TaskPool`] — the bounded in-flight task storage of the managers,
//!   supporting both free-list and in-order (circular-buffer) retirement. It
//!   is the managers' only store of in-flight tasks: each task's parameter
//!   list (addresses with their tracker accesses, re-distributed when the
//!   task finishes) and its dependence count (its entry of the Dependence
//!   Counts table of Nexus#), with the lists recycled from task to task.

#![warn(missing_docs)]

pub mod assoc;
pub mod refgraph;
pub mod taskpool;
pub mod tracker;

pub use assoc::{SetAssocConfig, SetAssocTable};
pub use refgraph::ReferenceGraph;
pub use taskpool::{RetirementOrder, TaskPool};
pub use tracker::{AccessId, DependencyTracker, InsertOutcome, RetireOutcome};
