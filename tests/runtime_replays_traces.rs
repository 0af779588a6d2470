//! Integration: the live runtime (`nexus-rt`) at one node executes the
//! dependency structure of the paper's generated workloads correctly — every
//! task runs exactly once and never before any of its predecessors, as the
//! reference dependency graph built from the trace defines them (the full
//! OmpSs edge set, write-after-read included).

use nexus::cluster::routing::DepScanner;
use nexus::prelude::*;
use nexus::taskgraph::ReferenceGraph;
use nexus::trace::generators::MbGrouping;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn oracle(trace: &Trace) -> ReferenceGraph {
    let mut oracle = ReferenceGraph::new();
    for task in trace.tasks() {
        oracle.insert(task);
    }
    oracle
}

/// Replays a trace's task graph on one node of `workers` workers. Task bodies
/// record a global completion sequence number; afterwards we assert that
/// every task's sequence number is greater than those of all of its direct
/// dependencies.
fn replay_and_check(trace: &Trace, workers: usize) {
    let oracle = oracle(trace);
    let n = trace.task_count();
    let mut rt = ClusterRuntime::new(RtConfig::new(1, workers));
    let handle = rt.start();
    let finish_order: Arc<Vec<AtomicU64>> =
        Arc::new((0..n).map(|_| AtomicU64::new(u64::MAX)).collect());
    let counter = Arc::new(AtomicU64::new(0));

    for task in trace.tasks() {
        let idx = task.id.0 as usize;
        let finish_order = Arc::clone(&finish_order);
        let counter = Arc::clone(&counter);
        let task = RtTask::new(task.clone()).with_body(move || {
            let seq = counter.fetch_add(1, Ordering::SeqCst);
            finish_order[idx].store(seq, Ordering::SeqCst);
        });
        handle.submit(task).expect("runtime is running");
    }
    handle.taskwait();
    let report = rt.shutdown_timeout(Duration::from_secs(30));

    assert_eq!(
        report.retired, n as u64,
        "{}: not all tasks ran",
        trace.name
    );
    assert_eq!(
        counter.load(Ordering::SeqCst),
        n as u64,
        "{}: a body ran twice or never",
        trace.name
    );
    for task in trace.tasks() {
        let own = finish_order[task.id.0 as usize].load(Ordering::SeqCst);
        assert_ne!(own, u64::MAX, "{}: task {} never ran", trace.name, task.id);
        for dep in oracle.direct_deps(task.id).unwrap_or(&[]) {
            let dep_seq = finish_order[dep.0 as usize].load(Ordering::SeqCst);
            assert!(
                dep_seq < own,
                "{}: task {} (seq {}) finished before its dependency {} (seq {})",
                trace.name,
                task.id,
                own,
                dep,
                dep_seq
            );
        }
    }
}

#[test]
fn runtime_replays_the_wavefront_decoder() {
    let trace = Benchmark::H264Dec(MbGrouping::G4x4).trace_scaled(3, 0.05);
    replay_and_check(&trace, 8);
}

#[test]
fn runtime_replays_sparselu() {
    let trace = Benchmark::SparseLu.trace_scaled(5, 0.005);
    replay_and_check(&trace, 6);
}

#[test]
fn runtime_replays_gaussian_elimination_fan_out() {
    let trace = Benchmark::Gaussian { dim: 60 }.trace_scaled(7, 1.0);
    replay_and_check(&trace, 4);
}

#[test]
fn runtime_replays_streamcluster_groups() {
    let trace = Benchmark::Streamcluster.trace_scaled(9, 0.002);
    replay_and_check(&trace, 8);
}

#[test]
fn runtime_replays_rewritten_addresses() {
    // Eight addresses, each written, read three times, then written again,
    // four rounds over. Task ids are submission indices.
    let mut trace = Trace::new("rewrites");
    let next = |trace: &Trace| TaskDescriptor::builder(trace.task_count() as u64);
    for _round in 0..4 {
        for a in 0..8u64 {
            let addr = 0x1000 + a * 64;
            trace.submit(next(&trace).output(addr).build());
            for _ in 0..3 {
                trace.submit(next(&trace).input(addr).build());
            }
        }
    }
    // The oracle orders each rewrite after the reads before it; the
    // last-writer scan does not, so this replay checks write-after-read.
    let oracle = oracle(&trace);
    let mut scanner = DepScanner::new(1);
    let war_edges: usize = trace
        .tasks()
        .map(|t| {
            let producers = scanner.scan_full(t).producers;
            let deps = oracle.direct_deps(t.id).unwrap_or(&[]);
            deps.iter()
                .filter(|d| !producers.contains(&(d.0 as usize)))
                .count()
        })
        .sum();
    assert!(war_edges > 0, "no write-after-read edge to check");
    replay_and_check(&trace, 4);
}
