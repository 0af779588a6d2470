//! # nexus-cluster — multi-node distributed task-manager simulation
//!
//! The paper's Nexus# distributes dependency tracking over task graphs within
//! one chip; this crate lifts the same design one level up, in the spirit of
//! hierarchically distributed task-based runtimes (DuctTeip, the distributed
//! runtime of Bosch et al.): `N` Nexus# nodes — each with its own task
//! manager and worker pool — connected by a configurable interconnect.
//!
//! * [`ClusterConfig`] / [`LinkConfig`] / [`Topology`] — cluster shape and
//!   interconnect timing (latency, bandwidth, serialization) plus the wiring:
//!   the uniform `SharedBus` / `FullMesh` or a tiered `nexus-topo` fabric
//!   (`RackTiers`, `Torus2D`, `Dragonfly` — multi-hop routes, shared trunks,
//!   per-tier traffic accounting), and the placement and work-stealing policy
//!   selection ([`PolicyKind`] / [`StealKind`] from `nexus-sched`),
//! * [`ClusterDriver`] / [`simulate_cluster`] — the event-driven cluster
//!   simulation: a master streams the trace, each task is placed on its home
//!   node once, as the master submits it, by the configured placement policy
//!   (affinity hint + the paper's XOR
//!   distribution function by default; distance-aware policies see the
//!   fabric's distance matrix), cross-node dependency notifications are
//!   forwarded hop by hop over the links, and — when enabled — idle nodes
//!   steal pending descriptors from loaded neighbours at descriptor
//!   re-forwarding cost ([`simulate_cluster_on`] runs on an explicit custom
//!   fabric). With runtime feedback enabled ([`FeedbackKind`]), retirement
//!   notifications piggyback live per-node load digests that steer that
//!   placement, and idle nodes may *reclaim* dependence-blocked descriptors
//!   a steal could never reach,
//! * [`ClusterOutcome`] — aggregate and per-node results plus interconnect
//!   traffic (total and per fabric tier) and steal statistics,
//! * [`stream`] / [`simulate_streaming`] — service-mode (open-loop) runs:
//!   a [`StreamingSource`] releases submissions at arrival times through
//!   bounded per-node admission queues with back-pressure to the source,
//!   and [`StreamOutcome`] adds per-task submit→retire latencies and
//!   back-pressure counts on top of the closed-loop fields,
//! * [`routing`] — the policy-driven dependence scanner and the remote-edge
//!   census used by benchmarks and tests,
//! * [`moves`] — [`MoveKind`], the idle rule and the steal and reclaim
//!   decisions the simulator and the live runtime (`nexus-rt`) share,
//! * observability — [`simulate_cluster_traced`] /
//!   [`ClusterDriver::run_recorded`] attach a `nexus-obs`
//!   [`Recorder`] to the event loop (task-lifecycle
//!   span events in virtual time; outcomes stay bit-identical with tracing
//!   on or off), every outcome carries a metrics
//!   [`Registry`], and
//!   [`ClusterDriver::run_profiled`] reports the event loop's handler wall
//!   time per event kind and its queue counts.
//!
//! Node-partitioned workloads with a tunable remote-edge fraction are
//! generated by `nexus_trace::generators::distributed`.
//!
//! ## Example
//!
//! ```
//! use nexus_cluster::{simulate_cluster, ClusterConfig, LinkConfig};
//! use nexus_host::IdealManager;
//! use nexus_sim::SimDuration;
//! use nexus_trace::generators::distributed;
//!
//! // Four independent wavefront domains, one per node.
//! let trace = distributed::wavefront(4, 0.0, 8, 8, SimDuration::from_us(50), 1);
//! let cfg = ClusterConfig::new(4, 8).with_link(LinkConfig::rdma());
//! let out = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
//! assert_eq!(out.tasks, 4 * 64);
//! assert!(out.speedup() > 1.0);
//! ```

#![warn(missing_docs)]

mod arena;
pub mod config;
pub mod driver;
pub mod interconnect;
pub mod moves;
pub mod outcome;
pub mod routing;
pub mod stream;

pub use config::{ClusterConfig, LinkConfig, Topology};
pub use driver::{
    simulate_cluster, simulate_cluster_on, simulate_cluster_traced, simulate_streaming,
    ClusterDriver, NOTIFY_WORDS,
};
pub use interconnect::Interconnect;
pub use moves::{IdleNode, MoveKind, RECLAIM_WORDS, STEAL_WORDS};
pub use nexus_obs::{MemRecorder, Recorder, Registry, SpanEvent, TimeBase};
pub use nexus_sched::{FeedbackKind, PolicyKind, StealKind};
pub use nexus_topo::{DistanceMatrix, Fabric};
pub use outcome::{ClusterOutcome, LinkStats, TierStats};
pub use routing::{edge_stats, edge_stats_with, home_of, remote_edge_fraction, EdgeStats};
pub use stream::{AdmissionConfig, StreamOutcome, StreamingSource};
