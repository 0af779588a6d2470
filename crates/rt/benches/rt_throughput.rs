//! Criterion benchmarks of the live runtime at one node: submission +
//! execution throughput of independent tasks at 1/2/4 workers and of
//! interleaved dependence chains. Each iteration starts a fresh runtime,
//! submits every task, waits for them and shuts down.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nexus_rt::{ClusterRuntime, RtConfig, RtTask};
use nexus_trace::TaskDescriptor;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TASKS: u64 = 2_000;

/// Runs `TASKS` tasks on one node of `workers` workers; task `i` has the
/// footprint `footprint(i)` and adds `i` to a shared accumulator.
fn run_once(workers: usize, footprint: impl Fn(u64) -> TaskDescriptor) -> u64 {
    let mut rt = ClusterRuntime::new(RtConfig::new(1, workers));
    let handle = rt.start();
    let acc = Arc::new(AtomicU64::new(0));
    for i in 0..TASKS {
        let acc = Arc::clone(&acc);
        let task = RtTask::new(footprint(i)).with_body(move || {
            acc.fetch_add(black_box(i), Ordering::Relaxed);
        });
        handle.submit(task).expect("runtime is running");
    }
    handle.taskwait();
    rt.shutdown_timeout(Duration::from_secs(30));
    acc.load(Ordering::Relaxed)
}

fn bench_independent_tasks(c: &mut Criterion) {
    let mut group = c.benchmark_group("rt_independent_tasks");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(TASKS));
    for workers in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                black_box(run_once(workers, |i| {
                    TaskDescriptor::builder(i).output(i * 64).build()
                }))
            })
        });
    }
    group.finish();
}

fn bench_dependency_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("rt_dependency_chains");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(TASKS));
    // 16 chains of TASKS/16 tasks each, interleaved: exercises the release
    // path.
    group.bench_function("16_chains", |b| {
        b.iter(|| {
            black_box(run_once(4, |i| {
                TaskDescriptor::builder(i).inout((i % 16) * 64).build()
            }))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_independent_tasks, bench_dependency_chains);
criterion_main!(benches);
