//! Integration: the service mode (open-loop arrivals + bounded admission +
//! latency percentiles) — the acceptance criteria of the `nexus-flow`
//! subsystem.
//!
//! * Closed-loop streaming is a strict no-op: it reproduces the batch
//!   `simulate_cluster` makespan exactly on every trace/config sampled here,
//!   whether driven by a closed-loop source or by a service whose arrival
//!   kind is `ClosedLoop`.
//! * Admission is an invariant, not a hint: the observed queue depth never
//!   exceeds the bound, and no task is lost or duplicated under back-pressure.
//! * Under-driven services never back-pressure and keep p99 bounded;
//!   over-driven services must back-pressure (the source clock blocks, tasks
//!   are never dropped).
//! * A load ramp demonstrates the sustainable-throughput knee.
//! * The whole pipeline is deterministic: identical seeds give bit-identical
//!   percentiles across repeated runs and across both event engines.
//! * Live placement under load retires every task: each task is placed once,
//!   when the master submits it, so no notification is counted twice.

use nexus::cluster::{simulate_streaming, FeedbackKind, LinkConfig, StreamingSource, Topology};
use nexus::flow::knee_sweep;
use nexus::prelude::*;
use nexus::sim::EngineKind;
use nexus::trace::generators::distributed;

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

fn service(kind: ArrivalKind, gap: SimDuration, depth: usize) -> ServiceConfig {
    ServiceConfig::new(ArrivalConfig::new(kind, gap, 42))
        .with_admission(AdmissionConfig::new(depth))
}

#[test]
fn closed_loop_streaming_reproduces_batch_makespans_exactly() {
    let traces = [
        distributed::sparselu(4, 0.3, 42, 0.002),
        distributed::sparselu(2, 0.0, 7, 0.002),
        distributed::imbalanced(4, 80, 6.0, us(50), 0.0, 42),
    ];
    for trace in &traces {
        for (nodes, stealing) in [(1, StealKind::Disabled), (4, StealKind::MostLoaded)] {
            let cfg = ClusterConfig::new(nodes, 4).with_stealing(stealing);
            let batch = simulate_cluster(trace, &cfg, |_| NexusSharp::paper(6));
            let stream = simulate_streaming(trace, &StreamingSource::closed_loop(), &cfg, |_| {
                NexusSharp::paper(6)
            });
            assert_eq!(
                stream.cluster.makespan, batch.makespan,
                "{}/{nodes}n: closed-loop streaming must not perturb the makespan",
                trace.name
            );
            assert_eq!(
                stream.cluster.sim_events, batch.sim_events,
                "{}",
                trace.name
            );
            assert_eq!(stream.backpressure_events, 0, "{}", trace.name);
            assert_eq!(stream.latencies.len(), trace.task_count(), "{}", trace.name);
            let closed =
                ServiceConfig::new(ArrivalConfig::new(ArrivalKind::ClosedLoop, us(40), 42));
            let served = simulate_service(trace, &closed, &cfg, |_| NexusSharp::paper(6));
            assert_eq!(
                served.stream.cluster.makespan, batch.makespan,
                "{}/{nodes}n: a closed-loop service must not perturb the makespan",
                trace.name
            );
            assert_eq!(
                served.histogram.count(),
                trace.task_count() as u64,
                "{}",
                trace.name
            );
        }
    }
}

#[test]
fn admission_depth_is_a_hard_bound_and_no_task_is_lost_under_overdrive() {
    let trace = distributed::sparselu(4, 0.3, 42, 0.002);
    for depth in [1usize, 2, 4, 16] {
        // 1 ns gaps drive the source far past capacity at any depth.
        let svc = service(ArrivalKind::Poisson, SimDuration::from_ns(1), depth);
        let cfg = ClusterConfig::new(4, 4);
        let out = simulate_service(&trace, &svc, &cfg, |_| NexusSharp::paper(6));
        assert!(
            out.stream.max_admission_depth <= depth,
            "depth {depth}: observed {}",
            out.stream.max_admission_depth
        );
        assert!(
            out.backpressure_events() > 0,
            "depth {depth}: an over-driven source must back-pressure"
        );
        // Conservation: every submitted task retired exactly once.
        assert_eq!(out.histogram.count(), trace.task_count() as u64);
        assert_eq!(out.stream.cluster.tasks, trace.task_count() as u64);
        // Blocking shifted the source clock instead of dropping arrivals.
        assert!(out.stream.source_lag > SimDuration::ZERO, "depth {depth}");
    }
}

#[test]
fn underdriven_service_never_backpressures_and_keeps_p99_bounded() {
    let trace = distributed::sparselu(4, 0.3, 42, 0.002);
    let cfg = ClusterConfig::new(4, 8);
    // Estimate capacity from the closed-loop run, then offer an eighth of it.
    let closed = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
    let capacity_gap = closed.makespan.as_ns() / trace.task_count() as u64;
    let gap = SimDuration::from_ns(capacity_gap * 8);
    let out = simulate_service(
        &trace,
        &service(ArrivalKind::Poisson, gap, AdmissionConfig::DEFAULT_DEPTH),
        &cfg,
        |_| NexusSharp::paper(6),
    );
    assert_eq!(out.backpressure_events(), 0);
    assert_eq!(out.stream.source_lag, SimDuration::ZERO);
    assert_eq!(out.histogram.count(), trace.task_count() as u64);
    // At 1/8th capacity, waiting is dependency-driven, not congestion-driven:
    // p99 stays within a small multiple of the closed-loop makespan fraction.
    assert!(
        out.p99() < closed.makespan,
        "p99 {} vs closed-loop makespan {}",
        out.p99(),
        closed.makespan
    );
    assert!(out.p50() <= out.p99() && out.p99() <= out.p999());
}

#[test]
fn knee_sweep_demonstrates_the_throughput_knee() {
    let trace = distributed::sparselu(4, 0.3, 42, 0.002);
    let cfg = ClusterConfig::new(4, 8);
    let closed = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
    let base_gap = SimDuration::from_ns(closed.makespan.as_ns() / trace.task_count() as u64 * 8);
    let base = service(ArrivalKind::Poisson, base_gap, 8);
    let report = knee_sweep(
        &trace,
        &base,
        &cfg,
        &[0.5, 1.0, 2.0, 4.0, 16.0, 64.0],
        |_| NexusSharp::paper(6),
    );
    assert!(
        report.demonstrates_knee(),
        "the ramp must cross the knee: {:?}",
        report
            .points
            .iter()
            .map(|p| (p.load_factor, p.backpressure_events))
            .collect::<Vec<_>>()
    );
    let knee = report.knee().expect("at least one point must be sustained");
    // p99 above the knee is strictly worse than at the knee.
    let worst = report.points.last().unwrap();
    assert!(worst.p99 > knee.p99, "{} vs {}", worst.p99, knee.p99);
    // Offered and completed rates agree below the knee (nothing queues up
    // forever), diverge above it (the source is throttled).
    assert!(knee.completed_per_sec > 0.8 * knee.offered_per_sec);
}

#[test]
fn service_percentiles_are_bit_identical_across_engines_and_reruns() {
    let trace = distributed::sparselu(4, 0.4, 7, 0.002);
    for kind in [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty,
        ArrivalKind::Diurnal,
    ] {
        let svc = service(kind, us(30), 4);
        let run = |engine: EngineKind| {
            let cfg = ClusterConfig::new(4, 4)
                .with_stealing(StealKind::MostLoaded)
                .with_engine(engine);
            simulate_service(&trace, &svc, &cfg, |_| NexusSharp::paper(6))
        };
        let heap = run(EngineKind::Heap);
        let heap2 = run(EngineKind::Heap);
        let calendar = run(EngineKind::Calendar);
        // Full-outcome equality (latency vectors, histogram, back-pressure).
        assert_eq!(
            format!("{heap:?}"),
            format!("{heap2:?}"),
            "{kind}: reruns diverged"
        );
        assert_eq!(
            format!("{heap:?}"),
            format!("{calendar:?}"),
            "{kind}: engines diverged"
        );
        assert_eq!(heap.p50(), calendar.p50(), "{kind}");
        assert_eq!(heap.p99(), calendar.p99(), "{kind}");
        assert_eq!(heap.p999(), calendar.p999(), "{kind}");
    }
}

#[test]
fn live_placement_with_migration_retires_every_task() {
    // Regression: the simulator used to place every task twice, once in a
    // routing pre-pass and again at submit in `place` mode. The second
    // placement recounted the task's outstanding notifications from scratch,
    // so one already in flight was counted twice and this run died with
    // "remaining_remote underflow: task 4798 at node 3, t=194.226ms".
    let trace = distributed::unhinted(&distributed::sparselu(4, 0.3, 42, 0.02));
    let svc = service(ArrivalKind::Poisson, us(40), 16);
    let cfg = ClusterConfig::new(4, 8)
        .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
        .with_placement(PolicyKind::TopologyAware)
        .with_stealing(StealKind::Hierarchical)
        .with_feedback(FeedbackKind::Place);
    let out = simulate_service(&trace, &svc, &cfg, |_| NexusSharp::paper(6));
    assert_eq!(trace.task_count(), 4_960);
    assert_eq!(out.stream.cluster.tasks, 4_960);
    assert_eq!(out.stream.latencies.len(), 4_960);
    assert!(out.stream.cluster.steals > 0, "the run must migrate work");
}
