//! # nexus-taskgraph — task-graph storage and dependency tracking
//!
//! This crate implements the data structures both hardware task managers are
//! built from (§III and §IV-C of the paper):
//!
//! * [`SetAssocTable`] — the "set-associative cache-like structure" that maps a
//!   parameter memory address to its tracking entry, with a bounded number of
//!   ways per set and an overflow (dummy-entry) area,
//! * [`DependencyTracker`] — the functional dependency-resolution core: full
//!   OmpSs `in`/`out`/`inout` semantics per address, reporting for every
//!   parameter insertion whether the task must wait and, on task retirement,
//!   which waiting tasks become released. It also models each address's
//!   kick-off list, the per-address list of waiting tasks, segmented with
//!   dummy-entry chaining so its length is not statically limited (the
//!   property the Gaussian-elimination benchmark validates),
//! * [`ReferenceGraph`] — a deliberately simple software dependency graph used
//!   as a test oracle and by the software-runtime (Nanos) model,
//! * [`TaskPool`] — the bounded in-flight task storage of the managers,
//!   supporting both free-list and in-order (circular-buffer) retirement,
//! * [`DepCountsTable`] — the per-task outstanding-dependence counters
//!   gathered by the Dependence Counts Arbiter.

#![warn(missing_docs)]

pub mod assoc;
pub mod depcounts;
pub mod refgraph;
pub mod taskpool;
pub mod tracker;

pub use assoc::{SetAssocConfig, SetAssocTable};
pub use depcounts::DepCountsTable;
pub use refgraph::ReferenceGraph;
pub use taskpool::{RetirementOrder, TaskPool};
pub use tracker::{DependencyTracker, InsertOutcome, RetireOutcome};

/// Convenience prelude.
pub mod prelude {
    pub use crate::assoc::{SetAssocConfig, SetAssocTable};
    pub use crate::depcounts::DepCountsTable;
    pub use crate::refgraph::ReferenceGraph;
    pub use crate::taskpool::{RetirementOrder, TaskPool};
    pub use crate::tracker::{DependencyTracker, InsertOutcome, RetireOutcome};
}
