//! **Topology comparison** — non-uniform interconnect fabrics × scheduling
//! policies on the multi-node cluster.
//!
//! Three questions, three sweeps:
//!
//! 1. **What does the wiring cost?** The same rack-clustered trace (coupling
//!    inside the racks) runs over every built-in fabric. The uniform
//!    `bus`/`mesh` anchor the two ends; `racktiers`/`torus`/`dragonfly` show
//!    how multi-hop routes and shared trunks move words and makespan.
//! 2. **Do topology-aware policies exploit the tiers?** An un-hinted
//!    rack-clustered trace (rack heads own 3× the chains) runs on a
//!    rack-tiered fabric under the flat stack (`xorhash` placement + flat
//!    `steal`) and the aware stack (`topo` placement + `hier` stealing).
//!    The aware stack should win makespan *and* move fewer words over the
//!    inter-rack trunks.
//! 3. **Do the tiers bite?** A trace whose every coupled edge crosses racks
//!    (`cross_rack = 1`) runs on `mesh` vs `racktiers`: the tiered fabric
//!    must degrade, because the traffic fights the wiring.
//!
//! Every fabric runs at the RDMA link's latency and bandwidth.
//!
//! Run with: `cargo bench -p nexus-bench --bench topology_comparison`
//! Environment: `NEXUS_BENCH_SCALE=<0..1>` (default 0.1).

use nexus_bench::report::Table;
use nexus_bench::runner::bench_scale;
use nexus_cluster::{simulate_cluster, ClusterConfig, ClusterOutcome, LinkConfig, Topology};
use nexus_core::NexusSharp;
use nexus_sched::{PolicyKind, StealKind};
use nexus_sim::SimDuration;
use nexus_trace::generators::distributed;
use nexus_trace::Trace;

fn tier_summary(out: &ClusterOutcome) -> String {
    out.link
        .per_tier
        .iter()
        .map(|t| format!("{} {}w", t.name, t.words))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let link = LinkConfig::rdma();
    let scale = bench_scale();
    let workers_per_node = 4;
    let us = SimDuration::from_us;
    let chains = ((scale * 60.0) as u64).clamp(4, 60);
    println!("link: {link:?}, chains/node: {chains}, scale: {scale}\n");

    // Sweep 1 — the same matched trace over every fabric. The rack shapes
    // (2x2, 3x3) line up with the fabrics' derived rack/group sizes, so the
    // intra-rack coupling of the trace really is intra-rack on the wire.
    for (racks, nodes_per_rack) in [(2usize, 2usize), (3, 3)] {
        let trace = distributed::rack_clustered(
            racks,
            nodes_per_rack,
            chains,
            10,
            1.0,
            0.5,
            0.0,
            us(30),
            42,
        );
        let nodes = racks * nodes_per_rack;
        let mut table = Table::new(
            format!(
                "Fabric sweep — {} on {nodes} nodes, Nexus# 6TG per node",
                trace.name
            ),
            &["topology", "makespan", "speedup", "link words", "per tier"],
        );
        for topology in Topology::ALL {
            let cfg =
                ClusterConfig::new(nodes, workers_per_node).with_link(link.with_topology(topology));
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                out.topology.clone(),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.link.words),
                tier_summary(&out),
            ]);
        }
        table.print();
    }

    // Sweep 2 — flat vs topology-aware stacks on a tiered fabric.
    let fabric_kind = Topology::RackTiers;
    let skewed = distributed::unhinted(&distributed::rack_clustered(
        2,
        2,
        chains,
        10,
        3.0,
        0.6,
        0.0,
        us(30),
        11,
    ));
    let stacks: [(&str, PolicyKind, StealKind); 2] = [
        ("flat", PolicyKind::XorHash, StealKind::MostLoaded),
        ("aware", PolicyKind::TopologyAware, StealKind::Hierarchical),
    ];
    let mut table = Table::new(
        format!(
            "Scheduling stacks — {} on 4 nodes over {fabric_kind}, Nexus# 6TG per node",
            skewed.name
        ),
        &[
            "stack",
            "placement",
            "stealing",
            "makespan",
            "steals",
            "per tier",
        ],
    );
    for (label, placement, stealing) in stacks {
        let cfg = ClusterConfig::new(4, workers_per_node)
            .with_link(link.with_topology(fabric_kind))
            .with_placement(placement)
            .with_stealing(stealing);
        let out = simulate_cluster(&skewed, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            label.to_string(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.steals),
            tier_summary(&out),
        ]);
    }
    table.print();

    // Sweep 3 — traffic that matches vs fights the fabric.
    let mut table = Table::new(
        "Match vs fight — rack-clustered traffic direction × fabric, 4 nodes".to_string(),
        &["trace", "topology", "makespan", "speedup", "per tier"],
    );
    for cross_rack in [0.0, 1.0] {
        let trace: Trace =
            distributed::rack_clustered(2, 2, chains, 10, 1.0, 1.0, cross_rack, us(30), 13);
        for topology in [Topology::FullMesh, Topology::RackTiers] {
            let cfg =
                ClusterConfig::new(4, workers_per_node).with_link(link.with_topology(topology));
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                trace.name.clone(),
                out.topology.clone(),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                tier_summary(&out),
            ]);
        }
    }
    table.print();
}
