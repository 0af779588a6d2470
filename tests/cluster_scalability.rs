//! Integration: the multi-node cluster simulation scales where it should and
//! degrades where it should (the acceptance criteria of the `nexus-cluster`
//! subsystem).
//!
//! * A node-partitioned sparselu trace with ≤10% remote dependency edges must
//!   get *faster* as nodes are added (1 → 2 → 4).
//! * A fully-coupled trace (every task carries a halo read) must show
//!   measurable interconnect-bound degradation: the same workload on the same
//!   cluster gets slower when the links go from ideal to slow.

use nexus::cluster::{remote_edge_fraction, simulate_cluster, ClusterConfig, LinkConfig, Topology};
use nexus::prelude::*;
use nexus::trace::generators::distributed;
use nexus::trace::Trace;

const WORKERS_PER_NODE: usize = 8;

fn run(trace: &Trace, nodes: usize, link: LinkConfig) -> ClusterOutcome {
    let cfg = ClusterConfig::new(nodes, WORKERS_PER_NODE).with_link(link);
    simulate_cluster(trace, &cfg, |_| NexusSharp::paper(6))
}

#[test]
fn partitioned_sparselu_speeds_up_from_one_to_four_nodes() {
    // Four sparselu domains, lightly coupled: ≤10% of dependency edges cross
    // nodes when routed onto 4 nodes.
    let trace = distributed::sparselu(4, 0.1, 42, 0.004);
    let remote = remote_edge_fraction(&trace, 4);
    assert!(
        remote > 0.0 && remote <= 0.10,
        "coupling outside the target band: {remote}"
    );

    let one = run(&trace, 1, LinkConfig::rdma());
    let two = run(&trace, 2, LinkConfig::rdma());
    let four = run(&trace, 4, LinkConfig::rdma());
    assert_eq!(one.tasks, four.tasks);
    assert!(
        two.makespan < one.makespan,
        "2 nodes must beat 1: {} vs {}",
        two.makespan,
        one.makespan
    );
    assert!(
        four.makespan < two.makespan,
        "4 nodes must beat 2: {} vs {}",
        four.makespan,
        two.makespan
    );
    // The improvement must be substantial, not marginal: 4 nodes with 4x the
    // workers should at least halve the makespan on a lightly-coupled trace.
    assert!(
        four.makespan.as_us_f64() < 0.55 * one.makespan.as_us_f64(),
        "4 nodes only reached {} vs {} on 1 node",
        four.makespan,
        one.makespan
    );
    // Cross-node dependencies actually exercised the interconnect.
    assert!(four.notifications > 0);
    assert!(four.link.messages > 0);
}

#[test]
fn fully_remote_trace_is_interconnect_bound() {
    // Every task carries a halo read from a neighbouring node's domain.
    let trace = distributed::sparselu(4, 1.0, 42, 0.004);
    assert!(remote_edge_fraction(&trace, 4) > 0.20);

    let lightly_coupled = distributed::sparselu(4, 0.1, 42, 0.004);
    let coupled = run(&trace, 4, LinkConfig::ideal());
    let reference = run(&lightly_coupled, 4, LinkConfig::ideal());
    // Dependency coupling alone already hurts (the halo chains serialize the
    // domains) …
    assert!(
        coupled.makespan > reference.makespan,
        "full coupling must cost parallelism: {} vs {}",
        coupled.makespan,
        reference.makespan
    );

    // … and on a slow shared bus the interconnect itself becomes the
    // bottleneck: same trace, same cluster, only the links change.
    let slow = LinkConfig {
        latency: nexus::sim::SimDuration::from_us(200),
        per_word: nexus::sim::SimDuration::from_ns(3),
        topology: Topology::SharedBus,
    };
    let bound = run(&trace, 4, slow);
    assert!(
        bound.makespan.as_us_f64() > 1.10 * coupled.makespan.as_us_f64(),
        "slow links must measurably degrade the coupled trace: {} vs {}",
        bound.makespan,
        coupled.makespan
    );
    assert_eq!(bound.notifications, coupled.notifications);
    assert!(bound.link.busy_time > coupled.link.busy_time);
}

#[test]
fn node_local_outcomes_are_consistent_with_the_aggregate() {
    let trace = distributed::wavefront(4, 0.1, 8, 8, SimDuration::from_us(40), 3);
    let out = run(&trace, 4, LinkConfig::rdma());
    assert_eq!(out.per_node.len(), 4);
    assert_eq!(out.per_node.iter().map(|n| n.tasks).sum::<u64>(), out.tasks);
    assert_eq!(
        out.per_node
            .iter()
            .map(|n| n.total_work)
            .sum::<SimDuration>(),
        out.total_work
    );
    for node in &out.per_node {
        assert!(node.makespan <= out.makespan);
        assert!(node.tasks > 0, "{}: starved node", node.benchmark);
    }
}
