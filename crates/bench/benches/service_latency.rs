//! **Service latency** — open-loop arrivals driving the cluster as a service:
//! latency percentiles, admission back-pressure, and the sustainable-
//! throughput knee.
//!
//! A closed-loop run measures makespan: every task is available at t=0 and
//! the question is how fast the cluster drains them. A *service* is driven
//! open-loop: tasks arrive on a clock the cluster does not control, and the
//! question becomes which offered load keeps p99 bounded. This bench runs the
//! same distributed sparselu trace three ways:
//!
//! 1. **under-driven** — arrivals well below capacity: back-pressure must be
//!    exactly zero and p99 stays near the closed-loop per-task latency;
//! 2. **over-driven** — arrivals far above capacity through a shallow
//!    admission queue: back-pressure must engage (and no task is lost);
//! 3. **knee ramp** — a load sweep locating the highest sustained rate.
//!
//! Arrivals are Poisson over the RDMA link; the under-driven case admits up
//! to the default depth of 64 tasks per node.
//!
//! Run with: `cargo bench -p nexus-bench --bench service_latency`
//! Environment: `NEXUS_BENCH_SCALE=<0.001..1>` (default 0.1).

use nexus_bench::report::Table;
use nexus_bench::runner::bench_scale;
use nexus_cluster::{simulate_cluster, AdmissionConfig, ClusterConfig};
use nexus_core::NexusSharp;
use nexus_flow::{knee_sweep, simulate_service, ArrivalConfig, ArrivalKind, ServiceConfig};
use nexus_sim::SimDuration;
use nexus_trace::generators::distributed;

fn main() {
    let scale = (bench_scale() * 0.02).clamp(0.001, 0.05);
    let kind = ArrivalKind::Poisson;
    let depth = AdmissionConfig::DEFAULT_DEPTH;
    let nodes = 4;
    let trace = distributed::sparselu(nodes, 0.3, 42, scale);
    let cfg = ClusterConfig::new(nodes, 8);
    println!(
        "service-latency: dist-sparselu scale {scale}, {} tasks, arrivals: {kind}, \
         admission depth {depth}\n",
        trace.task_count()
    );

    // Capacity estimate from the closed-loop run: at full drive the cluster
    // retires one task every makespan/tasks on average.
    let closed = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
    let tasks = trace.task_count() as u64;
    let capacity_gap = SimDuration::from_ns((closed.makespan.as_ns() / tasks.max(1)).max(1));
    println!(
        "closed-loop reference: makespan {}, ~{:.0} tasks/s capacity",
        closed.makespan,
        1e9 / capacity_gap.as_ns() as f64
    );

    let mut table = Table::new(
        format!("Service latency — {kind} arrivals, admission depth per case"),
        &[
            "case",
            "gap",
            "depth",
            "p50",
            "p99",
            "p99.9",
            "backpressure",
            "max depth",
        ],
    );
    let run = |label: &str, gap: SimDuration, depth: usize, table: &mut Table| {
        let service = ServiceConfig::new(ArrivalConfig::new(kind, gap, 42))
            .with_admission(AdmissionConfig::new(depth));
        let out = simulate_service(&trace, &service, &cfg, |_| NexusSharp::paper(6));
        assert_eq!(out.histogram.count(), tasks, "every task must retire once");
        assert!(
            out.stream.max_admission_depth <= depth,
            "admission depth bound violated"
        );
        table.row(vec![
            label.into(),
            format!("{gap}"),
            format!("{depth}"),
            format!("{}", out.p50()),
            format!("{}", out.p99()),
            format!("{}", out.p999()),
            format!("{}", out.backpressure_events()),
            format!("{}", out.stream.max_admission_depth),
        ]);
        out
    };

    // Under-driven: 12.5% of estimated capacity through the configured depth.
    let under = run("under", capacity_gap * 8, depth, &mut table);
    // Over-driven: arrivals every 1 ns through a 4-deep admission queue.
    let over = run("over", SimDuration::from_ns(1), 4, &mut table);
    table.print();

    assert_eq!(
        under.backpressure_events(),
        0,
        "an under-driven service must never back-pressure"
    );
    assert!(
        over.backpressure_events() > 0,
        "an over-driven service must back-pressure"
    );

    // The knee ramp: same trace, load factors around the capacity estimate.
    let base = ServiceConfig::new(ArrivalConfig::new(kind, capacity_gap * 8, 42))
        .with_admission(AdmissionConfig::new(depth.min(8)));
    let report = knee_sweep(
        &trace,
        &base,
        &cfg,
        &[0.5, 1.0, 2.0, 4.0, 16.0, 64.0],
        |_| NexusSharp::paper(6),
    );
    let mut ramp = Table::new(
        "Knee ramp — load factor over 1/8th-capacity base rate",
        &["load", "offered/s", "done/s", "p99", "backpressure", "lag"],
    );
    for p in &report.points {
        ramp.row(vec![
            format!("{:.1}x", p.load_factor),
            format!("{:.0}", p.offered_per_sec),
            format!("{:.0}", p.completed_per_sec),
            format!("{}", p.p99),
            format!("{}", p.backpressure_events),
            format!("{}", p.source_lag),
        ]);
    }
    ramp.print();
    match report.knee() {
        Some(k) => println!("knee: {:.0} offered/s sustained", k.offered_per_sec),
        None => println!("knee: below the lowest point of the ramp"),
    }
}
