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
//! Every run uses the RDMA link, `xorhash` placement and no stealing.
//!
//! Run with: `cargo bench -p nexus-bench --bench cluster_scalability`
//! Environment: `NEXUS_BENCH_SCALE=<0..1>` (default 0.1),
//! `NEXUS_FEEDBACK=off|place|reclaim|full` (default off, case-insensitive).

use nexus_bench::report::Table;
use nexus_bench::runner::{bench_scale, cluster_feedback, cluster_node_counts};
use nexus_cluster::{remote_edge_fraction, simulate_cluster, ClusterConfig, LinkConfig};
use nexus_core::NexusSharp;
use nexus_trace::generators::distributed;

fn main() {
    // The distributed trace grows with the node count; keep the per-domain
    // scale small enough that the 8-node sweep stays quick.
    let scale = (bench_scale() * 0.02).clamp(0.001, 0.05);
    let feedback = cluster_feedback();
    let workers_per_node = 8;
    println!(
        "per-domain sparselu scale: {scale}, link: {:?}, feedback: {feedback}, \
         {workers_per_node} workers/node\n",
        LinkConfig::rdma()
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
            let cfg = ClusterConfig::new(nodes, workers_per_node).with_feedback(feedback);
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
