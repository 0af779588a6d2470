//! Golden values: exact simulated outcomes pinned scalar by scalar.
//!
//! The determinism grids elsewhere compare runs with each other, so they
//! cannot notice a change that moves a simulated bit the same way in every
//! run. The tests here pin exact outcomes instead:
//!
//! * migration runs that engage stealing with adaptive batches and the
//!   reclamation of dependence-blocked descriptors under full feedback, on 4
//!   nodes and on 16 and 32 mostly idle ones, so any change to the order in
//!   which moves are requested, granted or taken in at the thief shows up;
//! * seven reference scenarios spanning one to eight nodes, flat and
//!   rack-tiered fabrics, every steal policy, the full feedback stack and an
//!   open-loop service;
//! * the single-node makespans of the paper's manager models (ideal, Nanos,
//!   Nexus++ and Nexus#) on every Table II benchmark and on Fig. 9's
//!   smallest matrix, so a change to a manager model fails here and not only
//!   in the numbers of `EXPERIMENTS.md`.
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

/// The same chains on 16 and 32 rack-tiered nodes of two workers: most
/// nodes sit idle and ask for work of both kinds, and many of their requests
/// come back empty.
#[test]
fn chained_imbalanced_on_16_and_32_rack_tiered_nodes() {
    let run = |nodes: usize| {
        let chains = distributed::chained_imbalanced(nodes, 64, 8, 2.0, us(20));
        let cfg = ClusterConfig::new(nodes, 2)
            .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
            .with_placement(PolicyKind::TopologyAware)
            .with_stealing(StealKind::Hierarchical)
            .with_feedback(FeedbackKind::Full);
        let out = simulate_cluster(&distributed::unhinted(&chains), &cfg, |_| tight_sharp());
        // Tasks, makespan in ps, events, steals and failures, reclaims and
        // failures, notifications, link messages and words.
        [
            out.tasks,
            out.makespan.as_ps(),
            out.sim_events,
            out.steals,
            out.steal_failures,
            out.reclaims,
            out.reclaim_failures,
            out.notifications,
            out.link.messages,
            out.link.words,
        ]
    };
    assert_eq!(
        run(16),
        [1_088, 807_420_800, 9_460, 46, 16, 59, 13, 95, 3_578, 10_614]
    );
    assert_eq!(
        run(32),
        [1_216, 509_032_800, 10_819, 7, 26, 29, 23, 34, 4_198, 12_404]
    );
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

/// The single-node manager models of the paper's evaluation (Figs. 8 and 9,
/// Table IV), built for `workers` cores on `bench`.
fn paper_manager(label: &str, bench: &str, workers: usize) -> Box<dyn TaskManager> {
    match label {
        "ideal" => Box::new(IdealManager::new()),
        "Nanos" => Box::new(NanosRuntime::for_benchmark(bench, workers)),
        "Nexus++" => Box::new(NexusPP::paper()),
        "Nexus# 6TG" => Box::new(NexusSharp::paper(6)),
        "Nexus# 1TG@100MHz" => Box::new(NexusSharp::at_mhz(1, 100.0)),
        "Nexus# 2TG@100MHz" => Box::new(NexusSharp::at_mhz(2, 100.0)),
        other => panic!("unknown manager {other}"),
    }
}

/// Makespans in ps of the paper's managers on every Table II benchmark and
/// on the 250×250 Gaussian elimination, each generated by
/// `trace_scaled(42, 0.01)`: (benchmark, manager, workers, makespan).
fn paper_manager_makespans() -> Vec<(String, &'static str, usize, u64)> {
    let fig8: [(&str, [usize; 2]); 4] = [
        ("ideal", [16, 256]),
        ("Nexus++", [16, 256]),
        ("Nexus# 6TG", [16, 256]),
        ("Nanos", [16, 32]),
    ];
    let fig9: [(&str, [usize; 2]); 3] = [
        ("Nexus++", [1, 64]),
        ("Nexus# 1TG@100MHz", [1, 64]),
        ("Nexus# 2TG@100MHz", [1, 64]),
    ];
    let runs = Benchmark::table2_suite()
        .into_iter()
        .map(|bench| (bench, &fig8[..]))
        .chain([(Benchmark::Gaussian { dim: 250 }, &fig9[..])]);
    let mut makespans = Vec::new();
    for (bench, managers) in runs {
        let trace = bench.trace_scaled(42, 0.01);
        for &(label, workers) in managers {
            for n in workers {
                let mut manager = paper_manager(label, &trace.name, n);
                let out = simulate(&trace, manager.as_mut(), &HostConfig::with_workers(n));
                makespans.push((bench.name(), label, n, out.makespan.as_ps()));
            }
        }
    }
    makespans
}

/// The pinned [`paper_manager_makespans`].
const PAPER_MANAGER_MAKESPANS_PS: &[(&str, &str, usize, u64)] = &[
    ("c-ray", "ideal", 16, 6_982_705_532),
    ("c-ray", "ideal", 256, 6_982_705_532),
    ("c-ray", "Nexus++", 16, 6_983_625_532),
    ("c-ray", "Nexus++", 256, 6_983_625_532),
    ("c-ray", "Nexus# 6TG", 16, 6_984_181_532),
    ("c-ray", "Nexus# 6TG", 256, 6_984_181_532),
    ("c-ray", "Nanos", 16, 7_046_145_532),
    ("c-ray", "Nanos", 32, 7_057_585_532),
    ("rot-cc", "ideal", 16, 5_399_481_605),
    ("rot-cc", "ideal", 256, 1_130_922_223),
    ("rot-cc", "Nexus++", 16, 5_412_231_290),
    ("rot-cc", "Nexus++", 256, 1_139_952_223),
    ("rot-cc", "Nexus# 6TG", 16, 5_412_987_290),
    ("rot-cc", "Nexus# 6TG", 256, 1_144_620_223),
    ("rot-cc", "Nanos", 16, 5_560_995_789),
    ("rot-cc", "Nanos", 32, 3_238_837_527),
    ("sparselu", "ideal", 16, 38_582_231_170),
    ("sparselu", "ideal", 256, 24_113_456_470),
    ("sparselu", "Nexus++", 16, 38_593_771_170),
    ("sparselu", "Nexus++", 256, 24_125_560_429),
    ("sparselu", "Nexus# 6TG", 16, 38_602_549_324),
    ("sparselu", "Nexus# 6TG", 256, 24_128_670_429),
    ("sparselu", "Nanos", 16, 39_634_247_076),
    ("sparselu", "Nanos", 32, 30_024_638_231),
    ("streamcluster", "ideal", 16, 175_748_544_288),
    ("streamcluster", "ideal", 256, 61_908_385_637),
    ("streamcluster", "Nexus++", 16, 175_784_557_263),
    ("streamcluster", "Nexus++", 256, 121_471_564_436),
    ("streamcluster", "Nexus# 6TG", 16, 175_791_601_503),
    ("streamcluster", "Nexus# 6TG", 256, 62_465_187_557),
    ("streamcluster", "Nanos", 16, 419_897_710_742),
    ("streamcluster", "Nanos", 32, 522_856_621_917),
    ("h264dec-1x1-10f", "ideal", 16, 435_492_199),
    ("h264dec-1x1-10f", "ideal", 256, 435_118_884),
    ("h264dec-1x1-10f", "Nexus++", 16, 792_358_901),
    ("h264dec-1x1-10f", "Nexus++", 256, 792_358_901),
    ("h264dec-1x1-10f", "Nexus# 6TG", 16, 495_862_982),
    ("h264dec-1x1-10f", "Nexus# 6TG", 256, 498_082_781),
    ("h264dec-1x1-10f", "Nanos", 16, 9_053_676_148),
    ("h264dec-1x1-10f", "Nanos", 32, 10_130_306_958),
    ("h264dec-2x2-10f", "ideal", 16, 714_059_048),
    ("h264dec-2x2-10f", "ideal", 256, 714_059_048),
    ("h264dec-2x2-10f", "Nexus++", 16, 736_365_095),
    ("h264dec-2x2-10f", "Nexus++", 256, 736_365_095),
    ("h264dec-2x2-10f", "Nexus# 6TG", 16, 729_359_166),
    ("h264dec-2x2-10f", "Nexus# 6TG", 256, 729_359_166),
    ("h264dec-2x2-10f", "Nanos", 16, 2_613_035_479),
    ("h264dec-2x2-10f", "Nanos", 32, 2_926_695_259),
    ("h264dec-4x4-10f", "ideal", 16, 1_427_350_229),
    ("h264dec-4x4-10f", "ideal", 256, 1_427_350_229),
    ("h264dec-4x4-10f", "Nexus++", 16, 1_433_830_229),
    ("h264dec-4x4-10f", "Nexus++", 256, 1_433_830_229),
    ("h264dec-4x4-10f", "Nexus# 6TG", 16, 1_434_370_229),
    ("h264dec-4x4-10f", "Nexus# 6TG", 256, 1_434_370_229),
    ("h264dec-4x4-10f", "Nanos", 16, 1_649_714_023),
    ("h264dec-4x4-10f", "Nanos", 32, 1_708_538_799),
    ("h264dec-8x8-10f", "ideal", 16, 2_364_739_838),
    ("h264dec-8x8-10f", "ideal", 256, 2_364_739_838),
    ("h264dec-8x8-10f", "Nexus++", 16, 2_367_609_838),
    ("h264dec-8x8-10f", "Nexus++", 256, 2_367_609_838),
    ("h264dec-8x8-10f", "Nexus# 6TG", 16, 2_368_159_838),
    ("h264dec-8x8-10f", "Nexus# 6TG", 256, 2_368_159_838),
    ("h264dec-8x8-10f", "Nanos", 16, 2_462_864_753),
    ("h264dec-8x8-10f", "Nanos", 32, 2_485_744_753),
    ("gaussian-250", "Nexus++", 1, 108_656_000),
    ("gaussian-250", "Nexus++", 64, 108_356_000),
    ("gaussian-250", "Nexus# 1TG@100MHz", 1, 75_097_000),
    ("gaussian-250", "Nexus# 1TG@100MHz", 64, 74_757_000),
    ("gaussian-250", "Nexus# 2TG@100MHz", 1, 50_355_500),
    ("gaussian-250", "Nexus# 2TG@100MHz", 64, 49_855_500),
];

#[test]
fn paper_managers_reproduce_exactly() {
    let measured = paper_manager_makespans();
    assert_eq!(measured.len(), PAPER_MANAGER_MAKESPANS_PS.len());
    for (got, &want) in measured.iter().zip(PAPER_MANAGER_MAKESPANS_PS) {
        assert_eq!((got.0.as_str(), got.1, got.2, got.3), want);
    }
}
