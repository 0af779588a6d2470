//! Runtime configuration.

use nexus_cluster::{ClusterConfig, LinkConfig};
use nexus_obs::SharedRecorder;
use nexus_sched::{FeedbackKind, PolicyKind, StealKind};

/// Configuration of a [`ClusterRuntime`](crate::ClusterRuntime).
///
/// The shape mirrors `nexus_cluster::ClusterConfig` on purpose: a runtime
/// built from the same node count, placement policy, stealing policy and link
/// topology routes every task to the *same* home node as the event simulator
/// (both feed the one `DepScanner` definition of placement and dependence
/// edges), which is what makes the conformance suite's cross-checks exact.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Number of runtime nodes (one state machine each, driven by whichever
    /// thread has work for it).
    pub nodes: usize,
    /// Worker threads per node.
    pub workers_per_node: usize,
    /// Task-to-node placement policy (applied at submission time).
    pub placement: PolicyKind,
    /// Work-stealing policy, consulted whenever the idle rule
    /// (`nexus_cluster::MoveKind::may_ask`) lets a node ask for work.
    pub stealing: StealKind,
    /// Runtime feedback mode, mirroring `ClusterConfig::feedback`: every
    /// retirement publishes the retiring node's live load digest to one
    /// shared digest board (a `LoadTracker`; no digest rides a node message),
    /// submit-time placement reads it (`Place`/`Full`), and idle nodes
    /// reclaim dependence-blocked descriptors out of loaded pools
    /// (`Reclaim`/`Full`), choosing the victim from the same board. Off by
    /// default — nothing is then published and the reclaim path is never
    /// entered.
    pub feedback: FeedbackKind,
    /// Interconnect description. Messages between the runtime's nodes carry
    /// no simulated latency; the link config only supplies the fabric's
    /// distance matrix to distance-aware placement and tiered steal policies,
    /// exactly as the cluster driver wires them.
    pub link: LinkConfig,
    /// Real nanoseconds a worker sleeps per simulated microsecond of task
    /// duration. `0` — the default — skips the sleep entirely: task bodies
    /// still run, which is what the conformance grid wants.
    pub time_scale_ns_per_us: u64,
    /// Optional span recorder the runtime threads stamp task-lifecycle
    /// events into (wall-clock nanoseconds since the recorder's epoch). The
    /// schema matches the event simulator's, so one exporter serves both.
    /// Keep a clone to snapshot after the run; `None` — the default — makes
    /// every emission site a branch on a cold `Option`.
    pub recorder: Option<SharedRecorder>,
}

impl RtConfig {
    /// A runtime of `nodes` nodes with `workers_per_node` workers each and
    /// the same policy defaults as `ClusterConfig` (XOR-hash placement, no
    /// stealing, RDMA-class full-mesh fabric).
    pub fn new(nodes: usize, workers_per_node: usize) -> Self {
        RtConfig {
            nodes,
            workers_per_node,
            placement: PolicyKind::default(),
            stealing: StealKind::default(),
            feedback: FeedbackKind::default(),
            link: LinkConfig::default(),
            time_scale_ns_per_us: 0,
            recorder: None,
        }
    }

    /// A runtime matching `cfg`'s shape and policies — the configuration the
    /// conformance suite uses to compare a live run against
    /// `nexus_cluster::simulate_cluster` on the same trace.
    pub fn from_cluster(cfg: &ClusterConfig) -> Self {
        RtConfig {
            nodes: cfg.nodes,
            workers_per_node: cfg.workers_per_node,
            placement: cfg.placement,
            stealing: cfg.stealing,
            feedback: cfg.feedback,
            link: cfg.link,
            time_scale_ns_per_us: 0,
            recorder: None,
        }
    }

    /// Same runtime with a different placement policy.
    pub fn with_placement(mut self, placement: PolicyKind) -> Self {
        self.placement = placement;
        self
    }

    /// Same runtime with a different work-stealing policy.
    pub fn with_stealing(mut self, stealing: StealKind) -> Self {
        self.stealing = stealing;
        self
    }

    /// Same runtime with a different feedback mode (see [`RtConfig::feedback`]).
    pub fn with_feedback(mut self, feedback: FeedbackKind) -> Self {
        self.feedback = feedback;
        self
    }

    /// Same runtime with a different link/fabric description (see
    /// [`RtConfig::link`] for what the runtime uses it for).
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Same runtime with simulated task durations mapped to real sleeps at
    /// `ns_per_us` nanoseconds per simulated microsecond (see
    /// [`RtConfig::time_scale_ns_per_us`]).
    pub fn with_time_scale(mut self, ns_per_us: u64) -> Self {
        self.time_scale_ns_per_us = ns_per_us;
        self
    }

    /// Same runtime with a span recorder attached (see
    /// [`RtConfig::recorder`]). Pass a clone and keep the original to
    /// [`snapshot`](SharedRecorder::snapshot) the log after the run.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_and_mirror_the_cluster_config() {
        let cfg = RtConfig::new(4, 2)
            .with_stealing(StealKind::MostLoaded)
            .with_time_scale(500);
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.workers_per_node, 2);
        assert_eq!(cfg.stealing, StealKind::MostLoaded);
        assert_eq!(cfg.time_scale_ns_per_us, 500);

        let sim = ClusterConfig::new(3, 8)
            .with_stealing(StealKind::Hierarchical)
            .with_feedback(FeedbackKind::Reclaim);
        let rt = RtConfig::from_cluster(&sim);
        assert_eq!(rt.nodes, 3);
        assert_eq!(rt.workers_per_node, 8);
        assert_eq!(rt.placement, sim.placement);
        assert_eq!(rt.stealing, StealKind::Hierarchical);
        assert_eq!(rt.feedback, FeedbackKind::Reclaim);
        assert_eq!(
            RtConfig::new(1, 1).feedback,
            FeedbackKind::Off,
            "feedback defaults off"
        );
        assert_eq!(
            RtConfig::new(1, 1)
                .with_feedback(FeedbackKind::Full)
                .feedback,
            FeedbackKind::Full
        );
        assert_eq!(rt.link, sim.link);
        assert_eq!(rt.time_scale_ns_per_us, 0);
        assert!(rt.recorder.is_none());
    }

    #[test]
    fn with_recorder_shares_one_log_with_the_caller_clone() {
        let rec = SharedRecorder::new();
        let cfg = RtConfig::new(1, 1).with_recorder(rec.clone());
        let attached = cfg.recorder.expect("recorder attached");
        attached.record_now(nexus_obs::SpanEvent::Submitted { task: 0 });
        assert_eq!(rec.len(), 1);
    }
}
