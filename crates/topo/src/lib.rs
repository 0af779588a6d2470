//! # nexus-topo — non-uniform interconnect topologies
//!
//! The cluster simulation (`nexus-cluster`) originally modelled only uniform
//! wiring: one shared bus or a full mesh of identical links, so every node
//! pair was equidistant. Real fabrics are tiered — intra-rack links are short
//! and fat, inter-rack trunks are long, shared and thin — and, as the
//! transaction-level analysis of clustered hardware task managers (Gregorek
//! et al.) and DuctTeip's hierarchical task distribution both show, the tiers
//! change which placement and stealing strategies win. This crate models the
//! fabric as an explicit graph:
//!
//! * [`Fabric`] — directed links (latency, bandwidth, locality *tier*) plus a
//!   precomputed multi-hop route per ordered node pair,
//! * [`DistanceMatrix`] — the schedulers' summary: per-pair hop count,
//!   aggregate latency and highest tier crossed (with a
//!   [`uniform`](DistanceMatrix::uniform) fallback),
//! * [`TopologyKind`] — serializable selector over the built-in fabrics:
//!   the degenerate uniform [`SharedBus`](TopologyKind::SharedBus) /
//!   [`FullMesh`](TopologyKind::FullMesh), plus tiered
//!   [`RackTiers`](TopologyKind::RackTiers), [`Torus2D`](TopologyKind::Torus2D)
//!   and [`Dragonfly`](TopologyKind::Dragonfly).
//!
//! `nexus-cluster` instantiates one serializing wire per fabric link and
//! forwards messages hop by hop (store-and-forward), so multi-hop routes pay
//! per-hop serialization and shared trunks contend. `nexus-sched` consumes
//! the [`DistanceMatrix`] for distance-aware placement and hierarchical
//! victim selection.
//!
//! ## Example
//!
//! ```
//! use nexus_sim::SimDuration;
//! use nexus_topo::TopologyKind;
//!
//! let us = SimDuration::from_us;
//! // 4 nodes in racks of 2: two tiers, cross-rack routes cost more.
//! let fabric = TopologyKind::RackTiers.build(4, us(1), us(1));
//! let d = fabric.distances();
//! assert_eq!(d.tier(0, 1), 0); // same rack
//! assert_eq!(d.tier(0, 2), 1); // crosses the inter-rack trunk
//! assert!(d.weight(1, 3) > d.weight(0, 1));
//! ```

#![warn(missing_docs)]

pub mod fabric;
pub mod kinds;

pub use fabric::{DistanceMatrix, Fabric, LinkSpec};
pub use kinds::{
    dragonfly, full_mesh, rack_tiers, shared_bus, torus2d, torus_dims, TopologyKind,
    DRAGONFLY_GLOBAL_LATENCY_X, RACK_TRUNK_LATENCY_X, RACK_TRUNK_PER_WORD_X,
};
