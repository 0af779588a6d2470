//! Integration: the acceptance criteria of the `nexus-sched` subsystem.
//!
//! * Work stealing must *strictly* improve the makespan of a deliberately
//!   imbalanced partition at 2 and 4 nodes (idle nodes drain the overloaded
//!   node's input backlog, paying descriptor re-forwarding).
//! * `TopologyAware` placement (remote-edge minimization on the uniform
//!   mesh) must reduce aggregate interconnect words (and the remote-edge
//!   census) versus the `XorHash` baseline on un-hinted traces at equal node
//!   counts.
//! * In a closed loop with stealing off, XorHash and TopologyAware under
//!   live placement (`place` feedback) both reproduce static TopologyAware
//!   exactly on an un-hinted sparselu, on a mesh and on rack tiers.
//! * Full runtime feedback must beat the strongest static stack
//!   (`TopologyAware` + `Hierarchical`, feedback off) by at least 10%
//!   makespan on chain-skewed work, which only reclamation can spread.
//! * Every placement × stealing combination must be bit-identical across
//!   reruns.
//! * `XorHash` with stealing disabled must reproduce the original
//!   (pre-`nexus-sched`) cluster routing exactly.

use nexus::cluster::routing::DepScanner;
use nexus::cluster::{
    home_of, simulate_cluster, ClusterConfig, ClusterOutcome, FeedbackKind, LinkConfig, Topology,
};
use nexus::prelude::*;
use nexus::sched::{PolicyKind, StealKind};
use nexus::sharp::NexusSharpConfig;
use nexus::trace::generators::distributed;
use nexus::trace::Trace;

/// A Nexus# manager with a deliberately small task pool: overloaded nodes
/// back-pressure early, which keeps the tests fast while still building the
/// pending backlog that stealing feeds on.
fn tight_sharp() -> NexusSharp {
    let mut cfg = NexusSharpConfig::paper(6);
    cfg.task_pool_capacity = 16;
    NexusSharp::new(cfg)
}

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

#[test]
fn stealing_strictly_improves_makespan_on_the_skewed_trace() {
    // Node 0 owns 6x the tasks of the last node; affinity hints pin the
    // imbalance, so without stealing the makespan is node 0's backlog.
    let trace = distributed::imbalanced(4, 48, 6.0, us(50), 0.0, 5);
    for nodes in [2usize, 4] {
        let cfg = ClusterConfig::new(nodes, 2).with_link(LinkConfig::rdma());
        let frozen = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        let stolen = simulate_cluster(&trace, &cfg.with_stealing(StealKind::MostLoaded), |_| {
            tight_sharp()
        });
        assert_eq!(frozen.tasks, stolen.tasks, "{nodes} nodes");
        assert_eq!(frozen.steals, 0);
        assert!(stolen.steals > 0, "{nodes} nodes: stealing must happen");
        // Strict improvement, with slack: at least 10% off the makespan.
        assert!(
            stolen.makespan.as_us_f64() < 0.90 * frozen.makespan.as_us_f64(),
            "{nodes} nodes: stealing only reached {} vs {}",
            stolen.makespan,
            frozen.makespan
        );
        // The recovered time was paid for over the interconnect.
        assert!(stolen.link.words > frozen.link.words, "{nodes} nodes");
    }
}

#[test]
fn locality_placement_cuts_link_traffic_on_unhinted_traces() {
    // Affinity-stripped partition: routing is entirely the policy's call.
    let trace = distributed::unhinted(&distributed::sparselu(4, 0.3, 42, 0.002));
    let run = |placement: PolicyKind| -> ClusterOutcome {
        let cfg = ClusterConfig::new(4, 8)
            .with_link(LinkConfig::rdma())
            .with_placement(placement);
        simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6))
    };
    let xor = run(PolicyKind::XorHash);
    let loc = run(PolicyKind::TopologyAware);
    assert_eq!(xor.tasks, loc.tasks);
    assert_eq!(xor.edges.total, loc.edges.total, "same census");
    // The greedy placement keeps most producer→consumer edges node-local …
    assert!(
        (loc.edges.remote as f64) < 0.6 * xor.edges.remote as f64,
        "remote edges: locality {} vs xorhash {}",
        loc.edges.remote,
        xor.edges.remote
    );
    assert!(loc.notifications < xor.notifications);
    // … which shows up as fewer aggregate words on the wire (with slack).
    assert!(
        (loc.link.words as f64) < 0.95 * xor.link.words as f64,
        "link words: locality {} vs xorhash {}",
        loc.link.words,
        xor.link.words
    );
}

#[test]
fn closed_loop_place_feedback_matches_static_topology_aware() {
    // In a closed loop with stealing off, `place` makes XorHash place like
    // TopologyAware on this trace: on the mesh static XorHash takes 1.252 s
    // and 125,916 link words, XorHash + `place` 1.189 s and 85,306 words,
    // the same as static TopologyAware.
    let trace = distributed::unhinted(&distributed::sparselu(4, 0.3, 42, 0.05));
    for topology in [Topology::FullMesh, Topology::RackTiers] {
        let run = |placement: PolicyKind, feedback: FeedbackKind| -> ClusterOutcome {
            let cfg = ClusterConfig::new(4, 4)
                .with_link(LinkConfig::rdma().with_topology(topology))
                .with_placement(placement)
                .with_feedback(feedback);
            simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6))
        };
        let static_topo = run(PolicyKind::TopologyAware, FeedbackKind::Off);
        for placement in [PolicyKind::XorHash, PolicyKind::TopologyAware] {
            let live = run(placement, FeedbackKind::Place);
            let what = format!("{topology:?}, {placement} + place");
            assert_eq!(live.makespan, static_topo.makespan, "{what}");
            assert_eq!(live.steals, static_topo.steals, "{what}");
            assert_eq!(live.link.words, static_topo.link.words, "{what}");
        }
    }
}

#[test]
fn full_feedback_beats_the_static_stack_on_chain_skewed_work() {
    // Node 0 owns 36 serial chains of 16 tasks, the other nodes a geometric
    // tail (6, 1, 1). Stealing sees at most one eligible head per chain, so
    // the blocked tails leave node 0 only when idle nodes reclaim them. The
    // paper report's Part II prints every feedback mode on this trace.
    let trace = distributed::chained_imbalanced(4, 36, 16, 6.0, us(20));
    let run = |feedback: FeedbackKind| -> ClusterOutcome {
        let cfg = ClusterConfig::new(4, 8)
            .with_placement(PolicyKind::TopologyAware)
            .with_stealing(StealKind::Hierarchical)
            .with_feedback(feedback);
        simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6))
    };
    let (off, full) = (run(FeedbackKind::Off), run(FeedbackKind::Full));
    assert_eq!(off.tasks, full.tasks);
    assert_eq!(off.reclaims, 0);
    assert!(
        full.reclaims > 0,
        "full feedback must reclaim blocked tails"
    );
    assert!(
        full.makespan.as_us_f64() <= 0.90 * off.makespan.as_us_f64(),
        "full feedback must beat the static stack by at least 10%: off {}, full {}",
        off.makespan,
        full.makespan
    );
}

#[test]
fn every_policy_combination_is_deterministic() {
    let trace = distributed::unhinted(&distributed::sparselu(3, 0.4, 7, 0.002));
    for placement in PolicyKind::ALL {
        for stealing in StealKind::ALL {
            let cfg = ClusterConfig::new(3, 4)
                .with_placement(placement)
                .with_stealing(stealing);
            let a = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            let b = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            assert_eq!(
                a.makespan, b.makespan,
                "{placement}/{stealing}: makespan must be bit-identical"
            );
            assert_eq!(a.steals, b.steals, "{placement}/{stealing}");
            assert_eq!(a.notifications, b.notifications, "{placement}/{stealing}");
            assert_eq!(a.link.words, b.link.words, "{placement}/{stealing}");
            assert_eq!(a.node_tasks(), b.node_tasks(), "{placement}/{stealing}");
            assert_eq!(a.placement, placement.name());
            assert_eq!(a.stealing, stealing.name());
        }
    }
}

#[test]
fn xorhash_without_stealing_reproduces_the_original_routing() {
    let traces: Vec<Trace> = vec![
        distributed::sparselu(4, 0.3, 42, 0.002),
        distributed::unhinted(&distributed::sparselu(4, 0.3, 42, 0.002)),
        distributed::wavefront(4, 0.2, 6, 6, us(20), 3),
    ];
    for trace in &traces {
        // The policy-driven scanner agrees with the original home function on
        // every single task.
        let mut scanner = DepScanner::new(4);
        let mut expected_tasks = vec![0u64; 4];
        for task in trace.tasks() {
            let home = scanner.scan_full(task).home;
            assert_eq!(home, home_of(task, 4), "{}: {}", trace.name, task.id);
            expected_tasks[home] += 1;
        }

        // And the driver under the default config places tasks exactly there:
        // the explicit policy selection is a no-op relative to PR 2.
        let defaults = ClusterConfig::new(4, 4);
        let explicit = defaults
            .with_placement(PolicyKind::XorHash)
            .with_stealing(StealKind::Disabled);
        let a = simulate_cluster(trace, &defaults, |_| NexusSharp::paper(6));
        let b = simulate_cluster(trace, &explicit, |_| NexusSharp::paper(6));
        assert_eq!(a.node_tasks(), expected_tasks, "{}", trace.name);
        assert_eq!(a.makespan, b.makespan, "{}", trace.name);
        assert_eq!(a.notifications, b.notifications, "{}", trace.name);
        assert_eq!(a.link.words, b.link.words, "{}", trace.name);
        assert_eq!(a.steals, 0, "{}", trace.name);
    }
}
