//! **Policy comparison** — placement policies × work stealing on the
//! multi-node cluster.
//!
//! Three questions, three sweeps:
//!
//! 1. **Does stealing recover makespan on imbalanced work?** A deliberately
//!    skewed partition (node 0 owns 6× the tasks of the last node, affinity
//!    hints pin the imbalance) is run with stealing off and on. Idle nodes
//!    pull eligible descriptors from the overloaded node's input queue,
//!    paying the descriptor re-forwarding cost — the makespan should drop
//!    toward the balanced bound while link words rise.
//! 2. **Does locality-aware placement cut link traffic?** The same un-hinted
//!    (affinity-stripped) sparselu partition is routed by every placement
//!    policy. `topo` keeps producer→consumer chains on one node, so it
//!    should move fewer notification words over the interconnect than the
//!    address-hash `xorhash` baseline at equal node counts.
//! 3. **Does runtime feedback beat the static stack?** A chain-skewed
//!    partition (`chained_imbalanced`: node 0 owns 36 serial dependence
//!    chains, the rest a geometric tail) is run under every `FeedbackKind`
//!    against the strongest static stack (`TopologyAware` placement +
//!    `Hierarchical` stealing). Stealing only ever sees the eligible chain
//!    heads; idle nodes must *reclaim* the dependence-blocked tails out of
//!    node 0's pool to take over whole chains. The sweep *asserts* the full
//!    feedback stack lands ≥10% below the static makespan on this fixed
//!    trace, so a feedback regression fails the bench.
//!
//! Every run uses the RDMA link; the stealing sweep places tasks with
//! `xorhash`. Sweeps 1 and 2 run each configuration under every
//! `FeedbackKind` too, so the live-digest and reclamation paths run on
//! both traces.
//!
//! Run with: `cargo bench -p nexus-bench --bench policy_comparison`
//! Environment: `NEXUS_BENCH_SCALE=<0.001..1>` (default 0.1).

use nexus_bench::report::Table;
use nexus_bench::runner::bench_scale;
use nexus_cluster::{simulate_cluster, ClusterConfig, FeedbackKind, PolicyKind, StealKind};
use nexus_core::NexusSharp;
use nexus_sim::SimDuration;
use nexus_trace::generators::distributed;

fn main() {
    let scale = bench_scale();
    let workers_per_node = 8;
    println!("scale: {scale}\n");

    // Part 1 — imbalanced domains: stealing recovers the makespan.
    let base_tasks = ((scale * 1920.0) as u64).clamp(96, 1920);
    for nodes in [2usize, 4, 8] {
        let trace =
            distributed::imbalanced(nodes, base_tasks, 6.0, SimDuration::from_us(50), 0.0, 42);
        let mut table = Table::new(
            format!(
                "Work stealing — {} on {nodes} nodes, Nexus# 6TG per node",
                trace.name
            ),
            &[
                "feedback",
                "stealing",
                "makespan",
                "speedup",
                "steals",
                "failed",
                "link words",
            ],
        );
        for (feedback, stealing) in FeedbackKind::ALL
            .into_iter()
            .flat_map(|f| StealKind::ALL.map(|s| (f, s)))
        {
            let cfg = ClusterConfig::new(nodes, workers_per_node)
                .with_stealing(stealing)
                .with_feedback(feedback);
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                feedback.to_string(),
                out.stealing.clone(),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.steals),
                format!("{}", out.steal_failures),
                format!("{}", out.link.words),
            ]);
        }
        table.print();
    }

    // Part 2 — un-hinted placement: locality vs hash vs balance.
    let lu_scale = (scale * 0.04).clamp(0.001, 0.05);
    for nodes in [2usize, 4, 8] {
        let trace = distributed::unhinted(&distributed::sparselu(nodes, 0.3, 42, lu_scale));
        let mut table = Table::new(
            format!(
                "Placement — {} on {nodes} nodes, Nexus# 6TG per node",
                trace.name
            ),
            &[
                "feedback",
                "placement",
                "makespan",
                "speedup",
                "remote edges",
                "notifications",
                "link words",
            ],
        );
        for (feedback, placement) in FeedbackKind::ALL
            .into_iter()
            .flat_map(|f| PolicyKind::ALL.map(|p| (f, p)))
        {
            let cfg = ClusterConfig::new(nodes, workers_per_node)
                .with_placement(placement)
                .with_feedback(feedback);
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                feedback.to_string(),
                out.placement.clone(),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{:.1}%", out.remote_edge_fraction() * 100.0),
                format!("{}", out.notifications),
                format!("{}", out.link.words),
            ]);
        }
        table.print();
    }

    // Part 3 — runtime feedback: live digests + pool reclamation against the
    // strongest static stack. The trace skews dependence *chains* onto node 0
    // (geometrically — 36/6/1/1 chains of 16 serial links), so at any instant
    // a stealing policy sees at most one eligible head per chain while the
    // blocked tails clog node 0's pool; only the reclamation path can move
    // them. The reference row is feedback `off` on the same TopologyAware +
    // Hierarchical stack. Everything here is pinned — a fixed trace size,
    // independent of `NEXUS_BENCH_SCALE` — because the sweep *asserts* on
    // the deterministic makespans.
    let coupled = distributed::chained_imbalanced(4, 36, 16, 6.0, SimDuration::from_us(20));
    let mut table = Table::new(
        format!(
            "Feedback — {} on 4 nodes, TopologyAware + Hierarchical, Nexus# 6TG per node",
            coupled.name
        ),
        &[
            "feedback",
            "makespan",
            "speedup",
            "steals",
            "reclaims",
            "link words",
        ],
    );
    let mut makespans = Vec::new();
    for mode in FeedbackKind::ALL {
        let cfg = ClusterConfig::new(4, workers_per_node)
            .with_placement(PolicyKind::TopologyAware)
            .with_stealing(StealKind::Hierarchical)
            .with_feedback(mode);
        let out = simulate_cluster(&coupled, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            mode.to_string(),
            format!("{}", out.makespan),
            format!("{:.2}x", out.speedup()),
            format!("{}", out.steals),
            format!("{}", out.reclaims),
            format!("{}", out.link.words),
        ]);
        makespans.push((mode, out.makespan));
    }
    table.print();

    let ms = |wanted: FeedbackKind| {
        makespans
            .iter()
            .find(|(mode, _)| *mode == wanted)
            .map(|(_, m)| m.as_us_f64())
            .expect("every feedback mode was swept")
    };
    let static_ms = ms(FeedbackKind::Off);
    let full_ms = ms(FeedbackKind::Full);
    let gain = 1.0 - full_ms / static_ms;
    println!(
        "feedback full vs static stack: {:.1}% makespan reduction (assert ≥ 10%)\n",
        gain * 100.0
    );
    assert!(
        full_ms <= static_ms * 0.90,
        "full feedback must beat the static TopologyAware+Hierarchical stack by ≥10% \
         on the imbalanced coupled trace (static {static_ms:.1} us, full {full_ms:.1} us)"
    );
}
