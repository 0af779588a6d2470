//! Cluster simulation outcomes: per-node [`SimOutcome`]s plus aggregate and
//! interconnect metrics.

use crate::routing::EdgeStats;
use nexus_host::SimOutcome;
use nexus_obs::Registry;
use nexus_sim::SimDuration;
use nexus_trace::TaskId;
use serde::{Deserialize, Serialize};

/// Traffic aggregated over one fabric tier (e.g. all intra-rack links, or
/// all inter-rack trunks).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TierStats {
    /// Tier index (0 = most local).
    pub tier: usize,
    /// Tier name from the fabric (e.g. `"intra-rack"`, `"inter-rack"`,
    /// `"global"`, `"hop"`).
    pub name: String,
    /// Physical links in the tier.
    pub links: usize,
    /// Messages that entered a link of this tier (multi-hop messages count
    /// once per hop).
    pub messages: u64,
    /// Link-words that crossed this tier.
    pub words: u64,
    /// Aggregate wire-busy (serialization) time over the tier's links.
    pub busy_time: SimDuration,
    /// Aggregate time messages queued behind earlier traffic on this tier.
    pub wait_time: SimDuration,
}

/// Aggregate interconnect traffic of one cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages that entered a link (multi-hop messages count once per hop).
    pub messages: u64,
    /// 32-bit link-words that crossed the network (multi-hop messages pay
    /// their words on every hop).
    pub words: u64,
    /// Aggregate wire-busy (serialization) time over all links.
    pub busy_time: SimDuration,
    /// Aggregate time messages queued behind earlier traffic.
    pub wait_time: SimDuration,
    /// Utilization of the busiest link over the makespan.
    pub peak_utilization: f64,
    /// Per-tier traffic, in tier order (tier 0 first). Uniform fabrics have
    /// exactly one tier.
    pub per_tier: Vec<TierStats>,
}

impl LinkStats {
    /// Link-words that crossed the tier called `name`, 0 if the fabric has no
    /// such tier (e.g. `tier_words("inter-rack")` on a full mesh).
    pub fn tier_words(&self, name: &str) -> u64 {
        self.per_tier
            .iter()
            .filter(|t| t.name == name)
            .map(|t| t.words)
            .sum()
    }
}

/// The result of one multi-node cluster simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Name of the benchmark trace.
    pub benchmark: String,
    /// Name of the per-node task manager.
    pub manager: String,
    /// Name of the placement policy that routed the tasks.
    pub placement: String,
    /// Name of the work-stealing policy (`"off"` when disabled).
    pub stealing: String,
    /// Name of the interconnect fabric the run was wired with (includes the
    /// derived shape, e.g. `"racktiers-r2"`).
    pub topology: String,
    /// Number of nodes simulated.
    pub nodes: usize,
    /// Worker cores per node.
    pub workers_per_node: usize,
    /// End-to-end cluster execution time.
    pub makespan: SimDuration,
    /// Sum of all task durations.
    pub total_work: SimDuration,
    /// Number of tasks executed (cluster-wide).
    pub tasks: u64,
    /// Time the master spent blocked on barriers.
    pub master_barrier_time: SimDuration,
    /// One [`SimOutcome`] per node (local makespan, work, idle time, manager
    /// diagnostics).
    pub per_node: Vec<SimOutcome>,
    /// Dependency-edge census of the placements the run made (each task's
    /// home as the master submitted it, before any migration).
    pub edges: EdgeStats,
    /// Cross-node dependency notifications forwarded over the interconnect.
    pub notifications: u64,
    /// Descriptors stolen by idle nodes (re-forwarded over the interconnect).
    pub steals: u64,
    /// Steal requests that found no eligible descriptor at the victim.
    pub steal_failures: u64,
    /// Dependence-blocked descriptors reclaimed out of loaded pools by idle
    /// nodes (0 unless [`FeedbackKind`](nexus_sched::FeedbackKind) enables
    /// reclamation).
    #[serde(default)]
    pub reclaims: u64,
    /// Reclaim requests that found no blocked descriptor at the victim.
    #[serde(default)]
    pub reclaim_failures: u64,
    /// Discrete events processed by the cluster event loop (the simulator's
    /// unit of work — `sim_events / wall_seconds` is its events/sec).
    pub sim_events: u64,
    /// Interconnect traffic summary.
    pub link: LinkStats,
    /// Deepest per-node backlog of tasks waiting for remote dependencies or
    /// manager capacity.
    pub max_pending_depth: usize,
    /// The master's final last-writer table — `(address, producer)` pairs in
    /// ascending address order at the end of the run. This is the semantic
    /// fingerprint of the dataflow execution: any runtime executing the same
    /// trace under the same routing must converge to the same table (the
    /// `nexus-rt` conformance suite checks exactly that).
    pub master_last_writer: Vec<(u64, TaskId)>,
    /// The metrics registry the scalar fields above are views over
    /// (`task.*`, `steal.*`, `notify.*`, `link.*`, `sim.*`; plus `stream.*`
    /// on open-loop streaming runs). Key names are shared with the live
    /// runtime's `ShutdownReport` so the conformance suite can compare both
    /// sides directly. Deterministic — the determinism grids compare it bit
    /// for bit across reruns.
    pub metrics: Registry,
}

impl ClusterOutcome {
    /// Speedup relative to the single-core ideal execution time (the paper's
    /// definition, extended cluster-wide).
    pub fn speedup(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.total_work.as_us_f64() / self.makespan.as_us_f64()
        }
    }

    /// Parallel efficiency over all worker cores in the cluster.
    pub fn efficiency(&self) -> f64 {
        let workers = self.nodes * self.workers_per_node;
        if workers == 0 {
            0.0
        } else {
            self.speedup() / workers as f64
        }
    }

    /// Fraction of dependency edges that crossed nodes.
    pub fn remote_edge_fraction(&self) -> f64 {
        self.edges.remote_fraction()
    }

    /// Tasks executed per node.
    pub fn node_tasks(&self) -> Vec<u64> {
        self.per_node.iter().map(|o| o.tasks).collect()
    }

    /// A one-line human-readable summary. `link busy` sums the wire time of
    /// every link.
    pub fn summary(&self) -> String {
        format!(
            "{:<28} {:<18} {}x{:<3} cores  makespan {:>12}  speedup {:>7.2}x  remote {:>5.1}%  link busy {:>10}",
            self.benchmark,
            self.manager,
            self.nodes,
            self.workers_per_node,
            format!("{}", self.makespan),
            self.speedup(),
            self.remote_edge_fraction() * 100.0,
            format!("{}", self.link.busy_time),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(makespan_us: u64, work_us: u64) -> ClusterOutcome {
        ClusterOutcome {
            benchmark: "unit".into(),
            manager: "test".into(),
            placement: "xorhash".into(),
            stealing: "off".into(),
            topology: "mesh".into(),
            nodes: 2,
            workers_per_node: 4,
            makespan: SimDuration::from_us(makespan_us),
            total_work: SimDuration::from_us(work_us),
            tasks: 10,
            master_barrier_time: SimDuration::ZERO,
            per_node: Vec::new(),
            edges: EdgeStats {
                total: 10,
                remote: 3,
            },
            notifications: 3,
            steals: 0,
            steal_failures: 0,
            reclaims: 0,
            reclaim_failures: 0,
            sim_events: 42,
            link: LinkStats {
                messages: 3,
                words: 6,
                busy_time: SimDuration::ZERO,
                wait_time: SimDuration::ZERO,
                peak_utilization: 0.0,
                per_tier: vec![
                    TierStats {
                        tier: 0,
                        name: "intra-rack".into(),
                        links: 4,
                        messages: 2,
                        words: 4,
                        busy_time: SimDuration::ZERO,
                        wait_time: SimDuration::ZERO,
                    },
                    TierStats {
                        tier: 1,
                        name: "inter-rack".into(),
                        links: 2,
                        messages: 1,
                        words: 2,
                        busy_time: SimDuration::ZERO,
                        wait_time: SimDuration::ZERO,
                    },
                ],
            },
            max_pending_depth: 1,
            master_last_writer: Vec::new(),
            metrics: Registry::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let mut o = outcome(250, 1000);
        o.link.busy_time = SimDuration::from_ns(2_500);
        assert!((o.speedup() - 4.0).abs() < 1e-12);
        assert!((o.efficiency() - 0.5).abs() < 1e-12);
        assert!((o.remote_edge_fraction() - 0.3).abs() < 1e-12);
        let summary = o.summary();
        assert!(summary.contains("4.00x"), "{summary}");
        assert!(summary.ends_with("link busy    2.500us"), "{summary}");
    }

    #[test]
    fn zero_makespan_is_benign() {
        let o = outcome(0, 0);
        assert_eq!(o.speedup(), 0.0);
    }

    #[test]
    fn tier_words_sum_by_name_and_ignore_missing_tiers() {
        let o = outcome(10, 10);
        assert_eq!(o.link.tier_words("intra-rack"), 4);
        assert_eq!(o.link.tier_words("inter-rack"), 2);
        assert_eq!(o.link.tier_words("global"), 0);
    }
}
