//! Golden values: exact simulated outcomes pinned scalar by scalar.
//!
//! The determinism grids elsewhere compare runs with each other, so they
//! cannot notice a change that moves a simulated bit the same way in every
//! run. The tests here pin exact outcomes instead:
//!
//! * two migration runs that engage stealing with adaptive batches and the
//!   reclamation of dependence-blocked descriptors under full feedback, so
//!   any change to the order in which moves are requested, granted or taken
//!   in at the thief shows up;
//! * seven reference scenarios spanning one to eight nodes, flat and
//!   rack-tiered fabrics, every steal policy, the full feedback stack and an
//!   open-loop service.
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
    assert_eq!(out.cluster.makespan.as_ps(), 39_864_887_981);
    assert_eq!(out.cluster.sim_events, 6_165);
    assert_eq!(out.cluster.steals, 152);
    assert_eq!(out.cluster.reclaims, 103);
    assert_eq!(out.backpressure_events, 125);
    assert_eq!(out.max_admission_depth, 4);
}

/// The scalars pinned for each reference scenario.
#[derive(Debug, PartialEq)]
struct Pinned {
    tasks: u64,
    makespan_ps: u64,
    sim_events: u64,
    steals: u64,
    steal_failures: u64,
    reclaims: u64,
    notifications: u64,
    link_messages: u64,
    /// Link words per fabric tier, in tier order.
    tier_words: Vec<(String, u64)>,
    /// The open-loop scenario's latency percentiles and back-pressure.
    service: Option<ServicePinned>,
}

#[derive(Debug, PartialEq)]
struct ServicePinned {
    p50_ps: u64,
    p99_ps: u64,
    p999_ps: u64,
    backpressure_events: u64,
}

impl Pinned {
    fn of(out: &ClusterOutcome) -> Self {
        Pinned {
            tasks: out.tasks,
            makespan_ps: out.makespan.as_ps(),
            sim_events: out.sim_events,
            steals: out.steals,
            steal_failures: out.steal_failures,
            reclaims: out.reclaims,
            notifications: out.notifications,
            link_messages: out.link.messages,
            tier_words: out
                .link
                .per_tier
                .iter()
                .map(|t| (t.name.clone(), t.words))
                .collect(),
            service: None,
        }
    }
}

/// Runs the named reference scenario. Every scenario runs Nexus#
/// with 6 task graphs and 8 workers per node; sparse LU is generated at
/// scale 0.01 and every trace and arrival process from seed 42.
fn run_scenario(name: &str) -> Pinned {
    let cfg = |nodes: usize| ClusterConfig::new(nodes, 8);
    let batch = |trace: &Trace, cfg: ClusterConfig| {
        Pinned::of(&simulate_cluster(trace, &cfg, |_| NexusSharp::paper(6)))
    };
    let sparselu = |nodes: usize, remote: f64| distributed::sparselu(nodes, remote, 42, 0.01);
    match name {
        "sparselu-8d-r0.0-n1-mesh" => batch(&sparselu(8, 0.0), cfg(1)),
        "sparselu-8d-r0.0-n8-mesh" => batch(&sparselu(8, 0.0), cfg(8)),
        "sparselu-8d-r0.5-n8-mesh" => batch(&sparselu(8, 0.5), cfg(8)),
        "sparselu-8d-r0.5-n8-racktiers-topo-hier" => batch(
            &sparselu(8, 0.5),
            cfg(8)
                .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
                .with_placement(PolicyKind::TopologyAware)
                .with_stealing(StealKind::Hierarchical),
        ),
        "imbalanced-4n-mostloaded" => batch(
            &distributed::imbalanced(4, 160, 6.0, us(50), 0.0, 42),
            cfg(4).with_stealing(StealKind::MostLoaded),
        ),
        // Serial dependence chains skewed onto node 0 (36/6/1/1 chains of
        // 16 links): stealing only ever sees the eligible heads, so idle
        // nodes must reclaim the blocked tails.
        "feedback-imbalanced-n4" => batch(
            &distributed::chained_imbalanced(4, 36, 16, 6.0, us(20)),
            cfg(4)
                .with_placement(PolicyKind::TopologyAware)
                .with_stealing(StealKind::Hierarchical)
                .with_feedback(FeedbackKind::Full),
        ),
        "service-poisson-n4-depth16" => {
            let arrivals = ArrivalConfig::new(ArrivalKind::Poisson, us(40), 42);
            let service = ServiceConfig::new(arrivals).with_admission(AdmissionConfig::new(16));
            let out = simulate_service(&sparselu(4, 0.3), &service, &cfg(4), |_| {
                NexusSharp::paper(6)
            });
            Pinned {
                service: Some(ServicePinned {
                    p50_ps: out.p50().as_ps(),
                    p99_ps: out.p99().as_ps(),
                    p999_ps: out.p999().as_ps(),
                    backpressure_events: out.backpressure_events(),
                }),
                ..Pinned::of(&out.stream.cluster)
            }
        }
        other => panic!("unknown scenario {other}"),
    }
}

/// The reference scenarios and their pinned outcomes.
fn reference_scenarios() -> Vec<(&'static str, Pinned)> {
    let tiers = |words: &[(&str, u64)]| -> Vec<(String, u64)> {
        words.iter().map(|&(t, w)| (t.to_string(), w)).collect()
    };
    vec![
        (
            "sparselu-8d-r0.0-n1-mesh",
            Pinned {
                tasks: 5_200,
                makespan_ps: 448_031_306_320,
                sim_events: 36_938,
                steals: 0,
                steal_failures: 0,
                reclaims: 0,
                notifications: 0,
                link_messages: 0,
                tier_words: tiers(&[("link", 0)]),
                service: None,
            },
        ),
        (
            "sparselu-8d-r0.0-n8-mesh",
            Pinned {
                tasks: 5_200,
                makespan_ps: 64_173_483_737,
                sim_events: 40_501,
                steals: 0,
                steal_failures: 0,
                reclaims: 0,
                notifications: 0,
                link_messages: 9_100,
                tier_words: tiers(&[("link", 43_316)]),
                service: None,
            },
        ),
        (
            "sparselu-8d-r0.5-n8-mesh",
            Pinned {
                tasks: 5_200,
                makespan_ps: 282_093_104_028,
                sim_events: 42_318,
                steals: 0,
                steal_failures: 0,
                reclaims: 0,
                notifications: 2_641,
                link_messages: 11_741,
                tier_words: tiers(&[("link", 53_198)]),
                service: None,
            },
        ),
        (
            "sparselu-8d-r0.5-n8-racktiers-topo-hier",
            Pinned {
                tasks: 5_200,
                makespan_ps: 283_809_574_428,
                sim_events: 47_197,
                steals: 1,
                steal_failures: 0,
                reclaims: 0,
                notifications: 2_642,
                link_messages: 16_620,
                tier_words: tiers(&[("intra-rack", 39_530), ("inter-rack", 36_206)]),
                service: None,
            },
        ),
        (
            "imbalanced-4n-mostloaded",
            Pinned {
                tasks: 2_240,
                makespan_ps: 5_055_890_000,
                sim_events: 18_015,
                steals: 152,
                steal_failures: 0,
                reclaims: 0,
                notifications: 0,
                link_messages: 2_899,
                tier_words: tiers(&[("link", 11_526)]),
                service: None,
            },
        ),
        (
            "feedback-imbalanced-n4",
            Pinned {
                tasks: 704,
                makespan_ps: 907_736_400,
                sim_events: 6_498,
                steals: 32,
                steal_failures: 111,
                reclaims: 475,
                notifications: 476,
                link_messages: 1_473,
                tier_words: tiers(&[("link", 4_216)]),
                service: None,
            },
        ),
        (
            "service-poisson-n4-depth16",
            Pinned {
                tasks: 2_600,
                makespan_ps: 171_184_005_778,
                sim_events: 23_632,
                steals: 0,
                steal_failures: 0,
                reclaims: 0,
                notifications: 800,
                link_messages: 4_700,
                tier_words: tiers(&[("link", 21_358)]),
                service: Some(ServicePinned {
                    p50_ps: 3_556_769_791,
                    p99_ps: 7_650_410_495,
                    p999_ps: 9_126_805_503,
                    backpressure_events: 161,
                }),
            },
        ),
    ]
}

#[test]
fn reference_scenarios_reproduce_exactly() {
    for (name, pinned) in reference_scenarios() {
        assert_eq!(run_scenario(name), pinned, "{name}");
    }
}
