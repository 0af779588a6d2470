//! # nexus-sched — placement and work-stealing policies
//!
//! The paper distributes task management *within* a chip with a fixed XOR
//! hash; the cluster driver (`nexus-cluster`) initially lifted exactly that
//! function to whole-node scope. But at cluster scale the placement decision
//! and dynamic load balancing — not the hash — determine makespan and link
//! traffic (compare DuctTeip's data-locality-driven placement and the
//! distributed runtime of Bosch et al.). This crate defines both decisions
//! once, as plain values both clocks (the simulator and the live runtime)
//! select from their configuration:
//!
//! * [`PolicyKind`] — which node a submitted task calls home
//!   ([`PolicyKind::place`]): [`PolicyKind::XorHash`] (affinity hint, then
//!   the paper's XOR distribution function — the original cluster routing),
//!   [`PolicyKind::AffinityFirst`] (hint, then least loaded) and
//!   [`PolicyKind::TopologyAware`] (hint, then distance-weighted edge-cost
//!   minimization over the fabric's `nexus-topo`
//!   [`DistanceMatrix`](nexus_topo::DistanceMatrix) — on a flat fabric,
//!   greedy remote-edge minimization).
//! * [`StealKind`] — whether an idle node pulls pending descriptors from a
//!   loaded neighbour, paying the descriptor re-forwarding cost over the
//!   interconnect, from whom ([`StealKind::choose_victim`]) and how many
//!   ([`StealKind::batch_for`]): [`StealKind::Disabled`],
//!   [`StealKind::MostLoaded`] and [`StealKind::Hierarchical`]
//!   (nearest-tier victims first, escalating only when the near tier has
//!   nothing eligible, with half-backlog batches).
//!
//! * **Runtime feedback** — [`LoadView`] live load digests (pending,
//!   in-flight, staleness age) with integer exponential decay, folded into a
//!   [`LoadTracker`] and read through [`LiveLoad`]. With digests, every
//!   placement kind applies one feedback rule (hint, then decayed-load ×
//!   distance-weight minimization), and [`choose_reclaim_victim`] /
//!   [`reclaim_batch`] let an idle node pull dependence-*blocked*
//!   descriptors ([`NodeLoad::reclaimable`]) out of a loaded pool — work a
//!   steal can never reach. [`FeedbackKind`] selects which consumers are
//!   active; everything is off (and bit-identical to the static path) by
//!   default.
//!
//! All three are selected through `ClusterConfig` (see `nexus-cluster`) via
//! the serializable [`PolicyKind`] / [`StealKind`] / [`FeedbackKind`]
//! values, whose `FromStr` implementations are case-insensitive and list the
//! valid spellings on a typo.
//!
//! ## Example
//!
//! ```
//! use nexus_sched::{PlacementCtx, PlacedLoad, PolicyKind};
//! use nexus_topo::DistanceMatrix;
//! use nexus_trace::TaskDescriptor;
//!
//! let policy = "Topo".parse::<PolicyKind>().unwrap();
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

pub use feedback::{FeedbackKind, LiveLoad, LoadTracker, LoadView};
pub use place::{primary_addr, xor_home, PlacedLoad, PlacementCtx, PolicyKind};
pub use steal::{choose_reclaim_victim, reclaim_batch, NodeLoad, StealKind};

/// Convenience prelude.
pub mod prelude {
    pub use crate::feedback::{FeedbackKind, LiveLoad, LoadTracker, LoadView};
    pub use crate::place::{PlacedLoad, PlacementCtx, PolicyKind};
    pub use crate::steal::{NodeLoad, StealKind};
}
