//! `quick_report` — a fast end-to-end sanity run of the whole evaluation.
//!
//! Runs every Table II benchmark at a small scale under the four Fig. 8
//! managers on a few core counts and prints measured vs. paper maximum
//! speedups, followed by small cluster, policy, topology, service and
//! event-engine samples. Useful as a smoke test before launching the full
//! `cargo bench` reproduction, and as a quickstart demonstration of the
//! library.
//!
//! ```text
//! cargo run --release -p nexus-bench --bin quick_report
//! NEXUS_BENCH_SCALE=0.3 cargo run --release -p nexus-bench --bin quick_report
//! ```
//!
//! It takes no arguments. `NEXUS_BENCH_SCALE` sizes the Table II traces
//! (capped at 0.05) and `NEXUS_FEEDBACK` applies to the policy table; a typo
//! in either aborts with exit 2 before anything runs.

use nexus_bench::managers::ManagerKind;
use nexus_bench::paper::table4_row;
use nexus_bench::report::{fmt_speedup, Table};
use nexus_bench::runner::{bench_scale, cluster_feedback, curves_for};
use nexus_cluster::{
    simulate_cluster, ClusterConfig, ClusterDriver, FeedbackKind, LinkConfig, PolicyKind,
    StealKind, Topology,
};
use nexus_core::NexusSharp;
use nexus_flow::{ArrivalConfig, ArrivalKind, ServiceConfig};
use nexus_sim::SimDuration;
use nexus_trace::generators::distributed;
use nexus_trace::Benchmark;
use std::time::Instant;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "error: quick_report takes no arguments (got {arg:?}); \
             size it with NEXUS_BENCH_SCALE and NEXUS_FEEDBACK instead"
        );
        std::process::exit(2);
    }
    // Read both knobs up front, so a typo aborts before any simulation runs.
    let scale = bench_scale().min(0.05);
    let feedback = cluster_feedback();
    report_tables(scale);
    cluster_section();
    policy_section(feedback);
    topology_section();
    service_section();
    engine_profile_section();
}

fn report_tables(scale: f64) {
    println!("quick_report: workload scale = {scale} (set NEXUS_BENCH_SCALE for more)\n");
    let managers = ManagerKind::fig8_set();
    let mut table = Table::new(
        "Quick evaluation: max speedup (measured | paper Table IV)",
        &[
            "benchmark",
            "ideal",
            "Nanos",
            "Nanos(paper)",
            "Nexus++",
            "Nexus++(paper)",
            "Nexus# 6TG",
            "Nexus#(paper)",
        ],
    );

    for bench in Benchmark::table2_suite() {
        let t0 = Instant::now();
        let curves = curves_for(bench, &managers, scale, 42);
        let get = |label: &str| -> f64 {
            curves
                .iter()
                .find(|c| c.manager == label)
                .map(|c| c.max_speedup())
                .unwrap_or(f64::NAN)
        };
        let paper = table4_row(&bench.name());
        table.row(vec![
            bench.name(),
            fmt_speedup(get("ideal")),
            fmt_speedup(get("Nanos")),
            paper.map(|p| fmt_speedup(p.nanos_max)).unwrap_or_default(),
            fmt_speedup(get("Nexus++")),
            paper
                .map(|p| fmt_speedup(p.nexus_pp_max))
                .unwrap_or_default(),
            fmt_speedup(get("Nexus# 6TG")),
            paper
                .map(|p| fmt_speedup(p.nexus_sharp_max))
                .unwrap_or_default(),
        ]);
        eprintln!("  [{}] done in {:?}", bench.name(), t0.elapsed());
    }
    table.print();
}

/// Profiles the pluggable event engines on one 8-node run: per-event-kind
/// handler wall time plus queue pop/push/coalesce counters, calendar vs.
/// heap. This is the measurement behind the roadmap's claim that the
/// per-node manager model (the `master_step`/`pump` handlers), not the event
/// queue, dominates the 8-node hot path. Wall-clock numbers,
/// machine-dependent.
fn engine_profile_section() {
    let trace = distributed::sparselu(8, 0.5, 42, 0.002);
    let mut table = Table::new(
        "Quick engine profile: dist-sparselu, 8 nodes, Nexus# 6TG per node",
        &[
            "engine",
            "events",
            "pops",
            "coalesced",
            "hottest event kinds (count, handler wall)",
        ],
    );
    for engine in [nexus_sim::EngineKind::Calendar, nexus_sim::EngineKind::Heap] {
        let cfg = ClusterConfig::new(8, 8).with_engine(engine);
        let driver = ClusterDriver::new(&cfg, |_| NexusSharp::paper(6));
        let (out, prof) = driver.run_profiled(&trace);
        // The three hottest handlers by accumulated wall time.
        let mut kinds: Vec<(String, u64, u64)> = prof
            .counters_with_prefix("engine.event.")
            .filter_map(|(key, wall)| {
                let kind = key.strip_suffix(".wall_ns")?.to_string();
                let count = prof.counter(&format!("{kind}.count"));
                Some((kind, count, wall))
            })
            .collect();
        kinds.sort_by_key(|&(_, _, wall)| std::cmp::Reverse(wall));
        let hottest = kinds
            .iter()
            .take(3)
            .map(|(kind, count, wall)| {
                let name = kind.strip_prefix("engine.event.").unwrap_or(kind);
                format!("{name} ({count}, {:.2} ms)", *wall as f64 / 1e6)
            })
            .collect::<Vec<_>>()
            .join("  ");
        table.row(vec![
            engine.name().into(),
            format!("{}", out.sim_events),
            format!("{}", prof.counter("engine.pops")),
            format!("{}", prof.counter("engine.inline_coalesced")),
            hottest,
        ]);
    }
    table.print();
}

/// A small cluster-scalability sample: a 4-domain partitioned sparselu under
/// Nexus# (6 TGs) per node, at low and full halo coupling.
fn cluster_section() {
    let mut table = Table::new(
        "Quick cluster run: dist-sparselu, Nexus# 6TG per node, 8 workers/node",
        &["nodes", "coupling", "makespan", "speedup", "notifications"],
    );
    for &remote in &[0.05, 1.0] {
        let trace = distributed::sparselu(4, remote, 42, 0.002);
        for &nodes in &[1usize, 2, 4] {
            let cfg = ClusterConfig::new(nodes, 8);
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                format!("{nodes}"),
                format!("{:.0}%", remote * 100.0),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.notifications),
            ]);
        }
    }
    table.print();
}

/// A small policy comparison: work stealing on a skewed partition, and the
/// three placement policies on an un-hinted partition (see the
/// `policy_comparison` bench for the full sweep). `feedback` (from
/// `NEXUS_FEEDBACK`) applies to every row, so the same table doubles as a
/// live-feedback smoke run.
fn policy_section(feedback: FeedbackKind) {
    let mut table = Table::new(
        format!(
            "Quick policy run: 4 nodes, Nexus# 6TG per node, 8 workers/node, feedback {feedback}"
        ),
        &[
            "trace",
            "placement",
            "stealing",
            "makespan",
            "steals",
            "reclaims",
            "link words",
        ],
    );
    // Skewed independent tasks: node 0 owns 6x the last node's work.
    let skewed = distributed::imbalanced(4, 160, 6.0, SimDuration::from_us(50), 0.0, 42);
    for stealing in StealKind::ALL {
        let cfg = ClusterConfig::new(4, 8)
            .with_stealing(stealing)
            .with_feedback(feedback);
        let out = simulate_cluster(&skewed, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            skewed.name.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.steals),
            format!("{}", out.reclaims),
            format!("{}", out.link.words),
        ]);
    }
    // Un-hinted sparselu: placement policy decides everything.
    let unhinted = distributed::unhinted(&distributed::sparselu(4, 0.3, 42, 0.002));
    for placement in PolicyKind::ALL {
        let cfg = ClusterConfig::new(4, 8)
            .with_placement(placement)
            .with_feedback(feedback);
        let out = simulate_cluster(&unhinted, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            unhinted.name.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.steals),
            format!("{}", out.reclaims),
            format!("{}", out.link.words),
        ]);
    }
    table.print();
}

/// A small topology sample: one rack-clustered trace over every fabric, plus
/// the flat vs topology-aware scheduling stacks on the rack-tiered fabric
/// (see the `topology_comparison` bench for the full sweep).
fn topology_section() {
    let link = LinkConfig::rdma();
    let us = SimDuration::from_us;
    let matched = distributed::rack_clustered(2, 2, 8, 8, 1.0, 0.5, 0.0, us(30), 42);
    let mut table = Table::new(
        "Quick topology run: 4 nodes, Nexus# 6TG per node, 4 workers/node",
        &[
            "trace",
            "topology",
            "placement",
            "stealing",
            "makespan",
            "link words",
        ],
    );
    for topology in Topology::ALL {
        let cfg = ClusterConfig::new(4, 4).with_link(link.with_topology(topology));
        let out = simulate_cluster(&matched, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            matched.name.clone(),
            out.topology.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.link.words),
        ]);
    }
    // Flat vs aware stacks on the tiered fabric (un-hinted, rack heads 3x).
    let skewed = distributed::unhinted(&distributed::rack_clustered(
        2,
        2,
        8,
        8,
        3.0,
        0.6,
        0.0,
        us(30),
        11,
    ));
    for (placement, stealing) in [
        (PolicyKind::XorHash, StealKind::MostLoaded),
        (PolicyKind::TopologyAware, StealKind::Hierarchical),
    ] {
        let cfg = ClusterConfig::new(4, 4)
            .with_link(link.with_topology(Topology::RackTiers))
            .with_placement(placement)
            .with_stealing(stealing);
        let out = simulate_cluster(&skewed, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            skewed.name.clone(),
            out.topology.clone(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.link.words),
        ]);
    }
    table.print();
}

/// A small open-loop service sample: a knee sweep of Poisson arrivals at the
/// default admission depth over a fixed 4-node sparselu trace (see the
/// `service_latency` bench for the full sweep). Points above the knee show
/// back-pressure and a climbing p99.
fn service_section() {
    let kind = ArrivalKind::Poisson;
    let trace = distributed::sparselu(4, 0.3, 42, 0.002);
    let base = ServiceConfig::new(ArrivalConfig::new(kind, SimDuration::from_us(40), 42));
    let cfg = ClusterConfig::new(4, 8);
    let report = nexus_flow::knee_sweep(&trace, &base, &cfg, &[0.25, 0.5, 1.0, 2.0, 8.0], |_| {
        NexusSharp::paper(6)
    });
    let mut table = Table::new(
        format!(
            "Quick service run: dist-sparselu, {kind} arrivals, depth {}, 4 nodes",
            base.admission.depth
        ),
        &[
            "load",
            "offered/s",
            "done/s",
            "p50",
            "p99",
            "p99.9",
            "backpressure",
        ],
    );
    for p in &report.points {
        table.row(vec![
            format!("{:.2}x", p.load_factor),
            format!("{:.0}", p.offered_per_sec),
            format!("{:.0}", p.completed_per_sec),
            format!("{}", p.p50),
            format!("{}", p.p99),
            format!("{}", p.p999),
            format!("{}", p.backpressure_events),
        ]);
    }
    table.print();
    match report.knee() {
        Some(k) => println!(
            "knee: {:.0} offered/s sustained without back-pressure\n",
            k.offered_per_sec
        ),
        None => println!("knee: below the lowest point of the ramp\n"),
    }
}
