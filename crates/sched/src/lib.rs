//! # nexus-sched — pluggable placement and work-stealing policies
//!
//! The paper distributes task management *within* a chip with a fixed XOR
//! hash; the cluster driver (`nexus-cluster`) initially lifted exactly that
//! function to whole-node scope. But at cluster scale the placement decision
//! and dynamic load balancing — not the hash — determine makespan and link
//! traffic (compare DuctTeip's data-locality-driven placement and the
//! distributed runtime of Bosch et al.). This crate makes both decisions
//! pluggable:
//!
//! * [`PlacementPolicy`] — which node a submitted task calls home. Built-ins:
//!   [`XorHash`] (affinity hint, then the paper's XOR distribution function —
//!   the original cluster routing), [`AffinityFirst`] (hint, then least
//!   loaded) and [`TopologyAware`] (hint, then distance-weighted edge-cost
//!   minimization over the fabric's `nexus-topo`
//!   [`DistanceMatrix`](nexus_topo::DistanceMatrix) — on a flat fabric, greedy
//!   remote-edge minimization).
//! * [`StealPolicy`] — whether an idle node pulls pending descriptors from a
//!   loaded neighbour, paying the descriptor re-forwarding cost over the
//!   interconnect. Built-ins: [`NoStealing`], [`StealMostLoaded`] and
//!   [`HierarchicalSteal`] (nearest-tier victims first, escalating only when
//!   the near tier has nothing eligible, with half-backlog batches).
//!
//! * **Runtime feedback** — [`LoadView`] live load digests (pending,
//!   in-flight, retire-rate, staleness age) with integer exponential decay,
//!   consumed by [`FeedbackPlacement`] (hint, then decayed-load ×
//!   distance-weight minimization) and by the `choose_reclaim_victim` /
//!   `reclaim_batch` hooks on [`StealPolicy`], which let an idle node pull
//!   dependence-*blocked* descriptors ([`NodeLoad::reclaimable`]) out of a
//!   loaded pool — work a steal can never reach. [`FeedbackKind`] selects
//!   which consumers are active; everything is off (and bit-identical to the
//!   static path) by default.
//!
//! Both are selected through `ClusterConfig` (see `nexus-cluster`) via the
//! serializable [`PolicyKind`] / [`StealKind`] / [`FeedbackKind`] handles,
//! whose `FromStr` implementations are case-insensitive and list the valid
//! spellings on a typo — the benches hook [`FeedbackKind`] up to
//! `NEXUS_FEEDBACK`.
//!
//! ## Example
//!
//! ```
//! use nexus_sched::{PlacementCtx, PlacementPolicy, PlacedLoad, PolicyKind};
//! use nexus_topo::DistanceMatrix;
//! use nexus_trace::TaskDescriptor;
//!
//! let mut policy = "Topo".parse::<PolicyKind>().unwrap().build();
//! let loads = vec![PlacedLoad::default(); 2];
//! let flat = DistanceMatrix::uniform(2);
//! let consumer = TaskDescriptor::builder(7).input(0x100).output(0x200).build();
//! let ctx = PlacementCtx {
//!     nodes: 2,
//!     loads: &loads,
//!     producer_homes: &[1],
//!     distances: &flat,
//!     live: None,
//! };
//! // The consumer's only producer lives on node 1: keep the edge local.
//! assert_eq!(policy.place(&consumer, &ctx), 1);
//! ```

#![warn(missing_docs)]

pub mod feedback;
pub mod place;
pub mod steal;

pub use feedback::{FeedbackKind, LiveLoad, LoadView};
pub use place::{
    primary_addr, xor_home, AffinityFirst, FeedbackPlacement, PlacedLoad, PlacementCtx,
    PlacementPolicy, PolicyKind, TopologyAware, XorHash,
};
pub use steal::{HierarchicalSteal, NoStealing, NodeLoad, StealKind, StealMostLoaded, StealPolicy};

/// Convenience prelude.
pub mod prelude {
    pub use crate::feedback::{FeedbackKind, LiveLoad, LoadView};
    pub use crate::place::{PlacedLoad, PlacementCtx, PlacementPolicy, PolicyKind};
    pub use crate::steal::{NodeLoad, StealKind, StealPolicy};
}
