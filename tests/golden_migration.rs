//! Golden values for the migration path (work stealing and pool reclamation).
//!
//! The determinism grids elsewhere compare runs with each other, and the
//! baseline compare tolerates ±15% drift; neither notices a change that moves
//! a simulated bit the same way in every run. These two runs pin exact scalar
//! outcomes instead. Both engage stealing with adaptive batches and the
//! reclamation of dependence-blocked descriptors under full feedback, so any
//! change to the order in which moves are requested, granted or taken in at
//! the thief shows up here.
//!
//! A deliberate model change must re-record the values and say why.

use nexus::cluster::{
    simulate_cluster, simulate_streaming, ClusterConfig, LinkConfig, StreamingSource, Topology,
};
use nexus::prelude::*;
use nexus::sched::{FeedbackKind, PolicyKind, StealKind};
use nexus::trace::arrivals::ArrivalOverlay;
use nexus::trace::generators::distributed;

/// Nexus# with a 16-entry task pool, so loaded nodes back-pressure and build
/// the pending backlogs that stealing and reclamation feed on.
fn tight_sharp() -> NexusSharp {
    let mut cfg = NexusSharpConfig::paper(6);
    cfg.task_pool_capacity = 16;
    NexusSharp::new(cfg)
}

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

#[test]
fn chained_imbalanced_on_rack_tiers_with_full_feedback() {
    let trace = distributed::unhinted(&distributed::chained_imbalanced(4, 64, 16, 2.0, us(20)));
    let cfg = ClusterConfig::new(4, 2)
        .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
        .with_placement(PolicyKind::TopologyAware)
        .with_stealing(StealKind::Hierarchical)
        .with_feedback(FeedbackKind::Full);
    let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
    assert_eq!(out.tasks, 1_920);
    assert_eq!(out.makespan.as_ps(), 5_225_526_000);
    assert_eq!(out.sim_events, 17_048);
    assert_eq!(out.steals, 435);
    assert_eq!(out.steal_failures, 4);
    assert_eq!(out.reclaims, 419);
    assert_eq!(out.reclaim_failures, 0);
    assert_eq!(out.notifications, 807);
    assert_eq!(out.link.messages, 5_705);
    assert_eq!(out.link.words, 17_620);
}

#[test]
fn open_loop_sparselu_on_mesh_with_full_feedback() {
    let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
    let arrivals: Vec<SimTime> = (0..trace.task_count())
        .map(|i| SimTime::ZERO + us(5) * i as u64)
        .collect();
    let overlay = ArrivalOverlay::new(arrivals).expect("arrivals are nondecreasing");
    let source = StreamingSource::open_loop(overlay, AdmissionConfig::new(4));
    let cfg = ClusterConfig::new(4, 4)
        .with_link(LinkConfig::rdma().with_topology(Topology::FullMesh))
        .with_stealing(StealKind::MostLoaded)
        .with_feedback(FeedbackKind::Full);
    let out = simulate_streaming(&trace, &source, &cfg, |_| tight_sharp());
    assert_eq!(out.cluster.tasks, 560);
    assert_eq!(out.cluster.makespan.as_ps(), 40_737_626_990);
    assert_eq!(out.cluster.sim_events, 6_081);
    assert_eq!(out.cluster.steals, 147);
    assert_eq!(out.cluster.reclaims, 82);
    assert_eq!(out.backpressure_events, 115);
    assert_eq!(out.max_admission_depth, 4);
}
