//! Criterion micro-benchmarks of the core data structures and of the
//! simulation engine itself: dependency-tracker insert/retire throughput, the
//! XOR distribution hash, the reference graph, and end-to-end simulated-task
//! throughput of the host driver under each manager.
//!
//! Run with: `cargo bench -p nexus-bench --bench micro_structures`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nexus_core::distribution::xor_hash_tg;
use nexus_core::NexusSharp;
use nexus_host::{simulate, HostConfig, IdealManager};
use nexus_nanos::NanosRuntime;
use nexus_pp::NexusPP;
use nexus_sim::SimDuration;
use nexus_taskgraph::{DependencyTracker, ReferenceGraph};
use nexus_trace::generators::micro;
use nexus_trace::{Benchmark, Direction, TaskId};
use std::hint::black_box;

fn bench_distribution_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("distribution_hash");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(1024));
    group.bench_function("xor_hash_1024_addrs", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..1024u64 {
                acc += xor_hash_tg(black_box(0x7f3a_0000_0000 + i * 64), 6);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_dependency_tracker(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency_tracker");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for contended in [false, true] {
        let name = if contended {
            "contended_chain"
        } else {
            "independent"
        };
        group.throughput(Throughput::Elements(4096));
        group.bench_function(BenchmarkId::new("insert_retire", name), |b| {
            b.iter(|| {
                let mut t = DependencyTracker::with_default_geometry();
                let addr = |i: u64| if contended { 0x1000 } else { 0x1000 + i * 64 };
                let accesses: Vec<_> = (0..4096u64)
                    .map(|i| t.insert_param(TaskId(i), addr(i), Direction::InOut).access)
                    .collect();
                let mut released = Vec::new();
                for (i, access) in (0..4096u64).zip(accesses) {
                    t.retire_param(TaskId(i), addr(i), access, &mut released);
                }
                black_box((released.len(), t.stats()))
            })
        });
    }
    group.finish();
}

fn bench_reference_graph(c: &mut Criterion) {
    let trace = micro::wavefront(32, 32, SimDuration::from_us(1));
    let tasks: Vec<_> = trace.tasks().cloned().collect();
    let mut group = c.benchmark_group("reference_graph");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(tasks.len() as u64));
    group.bench_function("insert_retire_wavefront_32x32", |b| {
        b.iter(|| {
            let mut g = ReferenceGraph::new();
            for t in &tasks {
                g.insert(t);
            }
            for t in &tasks {
                g.retire(t.id);
            }
            black_box(g.stats())
        })
    });
    group.finish();
}

fn bench_end_to_end_simulation(c: &mut Criterion) {
    // One small but realistic workload (one coarse h264dec frame) through each
    // manager: measures simulated-tasks-per-second of the whole stack.
    let trace = Benchmark::H264Dec(nexus_trace::generators::MbGrouping::G4x4).trace_scaled(3, 0.05);
    let tasks = trace.task_count() as u64;
    let cfg = HostConfig::with_workers(32);
    let mut group = c.benchmark_group("host_simulation");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(tasks));
    group.bench_function("ideal", |b| {
        b.iter(|| black_box(simulate(&trace, &mut IdealManager::new(), &cfg).makespan))
    });
    group.bench_function("nanos", |b| {
        b.iter(|| {
            black_box(
                simulate(
                    &trace,
                    &mut NanosRuntime::for_benchmark(&trace.name, 32),
                    &cfg,
                )
                .makespan,
            )
        })
    });
    group.bench_function("nexus_pp", |b| {
        b.iter(|| black_box(simulate(&trace, &mut NexusPP::paper(), &cfg).makespan))
    });
    group.bench_function("nexus_sharp_6tg", |b| {
        b.iter(|| black_box(simulate(&trace, &mut NexusSharp::paper(6), &cfg).makespan))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_distribution_hash,
    bench_dependency_tracker,
    bench_reference_graph,
    bench_end_to_end_simulation
);
criterion_main!(benches);
