//! Cluster and interconnect configuration.

use nexus_sched::{FeedbackKind, PolicyKind, StealKind};
use nexus_sim::{EngineKind, SimDuration};
use nexus_topo::Fabric;
use serde::{Deserialize, Serialize};

/// How the nodes are wired together — re-exported from `nexus-topo`, which
/// owns the fabric builders. `SharedBus` / `FullMesh` are the degenerate
/// uniform cases the cluster shipped with; `RackTiers`, `Torus2D` and
/// `Dragonfly` are genuinely non-uniform (multi-hop routes, locality tiers).
pub use nexus_topo::TopologyKind as Topology;

/// Timing parameters of the interconnect links.
///
/// `latency` / `per_word` describe a *base* (tier-0, most local) link; the
/// non-uniform topologies derive their higher tiers from it (e.g. an
/// inter-rack trunk is 8× the latency at ¼ the bandwidth — see
/// `nexus_topo::kinds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Propagation latency added to every message after serialization.
    pub latency: SimDuration,
    /// Serialization cost per 32-bit word (the inverse of bandwidth).
    pub per_word: SimDuration,
    /// Wiring between the nodes.
    pub topology: Topology,
}

impl LinkConfig {
    /// An infinitely fast interconnect — the shared-memory limit, useful as a
    /// baseline to isolate pure interconnect effects.
    pub fn ideal() -> Self {
        LinkConfig {
            latency: SimDuration::ZERO,
            per_word: SimDuration::ZERO,
            topology: Topology::FullMesh,
        }
    }

    /// A low-latency RDMA-class fabric: 1.5 µs end-to-end latency, 10 GB/s per
    /// link (0.4 ns per 32-bit word), dedicated links per node pair.
    pub fn rdma() -> Self {
        LinkConfig {
            latency: SimDuration::from_ns(1500),
            per_word: SimDuration::from_ps(400),
            topology: Topology::FullMesh,
        }
    }

    /// A commodity-Ethernet-class network: 50 µs latency, ~1.25 GB/s
    /// (3.2 ns per 32-bit word), one shared medium.
    pub fn ethernet() -> Self {
        LinkConfig {
            latency: SimDuration::from_us(50),
            per_word: SimDuration::from_ps(3200),
            topology: Topology::SharedBus,
        }
    }

    /// Same parameters with a different topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builds the interconnect fabric for `nodes` nodes (see
    /// [`Topology::build`]).
    pub fn fabric(&self, nodes: usize) -> Fabric {
        self.topology.build(nodes, self.latency, self.per_word)
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::rdma()
    }
}

/// Configuration of a multi-node cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of Nexus# nodes. Node 0 additionally hosts the master thread
    /// that replays the trace.
    pub nodes: usize,
    /// Worker cores per node (each node also has its own task manager).
    pub workers_per_node: usize,
    /// Interconnect timing and topology.
    pub link: LinkConfig,
    /// Task-to-node placement policy, applied once per task as the master
    /// submits it. The default, [`PolicyKind::XorHash`], is the
    /// affinity-then-XOR routing the cluster driver shipped with.
    pub placement: PolicyKind,
    /// Work-stealing policy for idle nodes. Disabled by default (stolen
    /// descriptors pay the re-forwarding cost over the interconnect).
    pub stealing: StealKind,
    /// Runtime feedback mode: live load digests piggybacked on retirement
    /// notifications, consumed by placement at submit and/or task-pool
    /// reclamation. [`FeedbackKind::Off`] (the default) computes no digests,
    /// so every task is placed by [`ClusterConfig::placement`]'s static rule.
    #[serde(default)]
    pub feedback: FeedbackKind,
}

impl ClusterConfig {
    /// Safety limit on the events of one cluster simulation (guards against
    /// model bugs producing infinite event loops): 10¹⁰ is ~25× what the
    /// largest full-size paper workload generates cluster-wide.
    pub const DEFAULT_MAX_EVENTS: u64 = 10_000_000_000;

    /// A cluster of `nodes` nodes with `workers_per_node` worker cores each,
    /// connected by the default RDMA-class interconnect.
    pub fn new(nodes: usize, workers_per_node: usize) -> Self {
        ClusterConfig {
            nodes,
            workers_per_node,
            link: LinkConfig::default(),
            placement: PolicyKind::default(),
            stealing: StealKind::default(),
            feedback: FeedbackKind::default(),
        }
    }

    /// Same cluster with a different interconnect.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Same cluster with a different placement policy.
    pub fn with_placement(mut self, placement: PolicyKind) -> Self {
        self.placement = placement;
        self
    }

    /// Same cluster with a different work-stealing policy.
    pub fn with_stealing(mut self, stealing: StealKind) -> Self {
        self.stealing = stealing;
        self
    }

    /// Same cluster with a different runtime-feedback mode (see
    /// [`ClusterConfig::feedback`]).
    pub fn with_feedback(mut self, feedback: FeedbackKind) -> Self {
        self.feedback = feedback;
        self
    }

    /// Returns the cluster unchanged: the simulator has one event queue, the
    /// calendar queue. Kept only for perfbench, which calls
    /// `cfg.with_engine(EngineKind::Calendar)` and changes only together with
    /// the benchmark; drop it and [`EngineKind`] then.
    pub fn with_engine(self, _: EngineKind) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = ClusterConfig::new(4, 8)
            .with_link(LinkConfig::ethernet().with_topology(Topology::FullMesh));
        assert_eq!(cfg.link.topology, Topology::FullMesh);
        assert_eq!(LinkConfig::default(), LinkConfig::rdma());
        assert!(LinkConfig::ideal().latency.is_zero());
    }

    #[test]
    fn fabric_builder_honours_the_selected_topology() {
        let rack = LinkConfig::rdma().with_topology(Topology::RackTiers);
        let f = rack.fabric(4);
        assert_eq!(f.nodes(), 4);
        assert_eq!(f.tier_count(), 2, "4 nodes split into racks of 2");
        let mesh = LinkConfig::rdma().fabric(4);
        assert_eq!(mesh.tier_count(), 1);
        assert_eq!(mesh.links().len(), 16);
    }

    #[test]
    fn policy_defaults_reproduce_the_original_routing() {
        let cfg = ClusterConfig::new(2, 4);
        assert_eq!(cfg.placement, PolicyKind::XorHash);
        assert_eq!(cfg.stealing, StealKind::Disabled);
        assert_eq!(cfg.feedback, FeedbackKind::Off);
        let cfg = cfg
            .with_placement(PolicyKind::TopologyAware)
            .with_stealing(StealKind::MostLoaded)
            .with_feedback(FeedbackKind::Full);
        assert_eq!(cfg.placement, PolicyKind::TopologyAware);
        assert!(cfg.stealing.is_enabled());
        assert!(cfg.feedback.place_enabled() && cfg.feedback.reclaim_enabled());
    }
}
