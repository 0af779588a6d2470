//! **Cluster scalability** — makespan of a node-partitioned sparselu workload
//! on 1/2/4/8 Nexus# nodes, swept over the remote-edge fraction.
//!
//! This is the scenario the paper's title promises one level up: *distributed*
//! task management across nodes, with an explicit interconnect. Each node runs
//! its own Nexus# (6 TGs) manager and worker pool; the trace partitions one
//! sparselu factorization per node domain and couples a configurable fraction
//! of tasks to a neighbouring domain (halo reads). With few remote edges the
//! cluster scales with the node count; at 100 % remote edges every task pays
//! the interconnect and the cluster becomes link-bound.
//!
//! Run with: `cargo bench -p nexus-bench --bench cluster_scalability`
//! Environment: `NEXUS_BENCH_SCALE=<0..1>` (default 0.1), `NEXUS_FULL=1`,
//! `NEXUS_LINK=rdma|ethernet|ideal` (default rdma),
//! `NEXUS_POLICY=xorhash|affinity|topo` (default xorhash),
//! `NEXUS_STEAL=off|steal|hier` (default off),
//! `NEXUS_FEEDBACK=off|place|reclaim|full` (default off),
//! `NEXUS_TOPO=bus|mesh|racktiers|torus|dragonfly` (default: the link
//! preset's wiring). All knobs are case-insensitive.

use nexus_bench::report::Table;
use nexus_bench::runner::{
    bench_scale, cluster_feedback, cluster_link, cluster_node_counts, cluster_policy,
    cluster_steal, cluster_topology, event_engine,
};
use nexus_cluster::{remote_edge_fraction, simulate_cluster, ClusterConfig};
use nexus_core::NexusSharp;
use nexus_trace::generators::distributed;

fn main() {
    // The distributed trace grows with the node count; keep the per-domain
    // scale small enough that the 8-node sweep stays quick.
    let scale = (bench_scale() * 0.02).clamp(0.001, 0.05);
    let mut link = cluster_link();
    if let Some(topology) = cluster_topology() {
        link = link.with_topology(topology);
    }
    let placement = cluster_policy();
    let stealing = cluster_steal();
    let feedback = cluster_feedback();
    let engine = event_engine();
    let workers_per_node = 8;
    println!(
        "per-domain sparselu scale: {scale}, link: {link:?}, placement: {placement}, \
         stealing: {stealing}, feedback: {feedback}, engine: {engine}, \
         {workers_per_node} workers/node\n"
    );

    for remote in [0.0, 0.1, 0.5, 1.0] {
        let mut table = Table::new(
            format!(
                "Cluster scalability — dist-sparselu, {:.0}% halo coupling",
                remote * 100.0
            ),
            &[
                "nodes",
                "tasks",
                "remote edges",
                "makespan",
                "speedup",
                "notifications",
                "link peak util",
            ],
        );
        // The same 8-domain workload on every cluster size, so makespans are
        // directly comparable (affinity hints wrap modulo the node count).
        let trace = distributed::sparselu(8, remote, 42, scale);
        for &nodes in &cluster_node_counts() {
            let cfg = ClusterConfig::new(nodes, workers_per_node)
                .with_link(link)
                .with_placement(placement)
                .with_stealing(stealing)
                .with_feedback(feedback)
                .with_engine(engine);
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                format!("{nodes}"),
                format!("{}", out.tasks),
                format!("{:.1}%", remote_edge_fraction(&trace, nodes) * 100.0),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.notifications),
                format!("{:.1}%", out.link.peak_utilization * 100.0),
            ]);
        }
        table.print();
    }
}
