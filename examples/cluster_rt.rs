//! Live execution on the threaded cluster runtime (`nexus-rt`).
//!
//! Everything else in this repository simulates the cluster; this example
//! runs it. A skewed imbalanced trace (node 0 deliberately overloaded) is
//! replayed twice on real manager + worker threads — once with stealing off,
//! once under the most-loaded steal policy — and the per-node statistics
//! show descriptors actually migrating between the live nodes. The same
//! placement scanner, steal policy objects, and master state machine as the
//! simulators are doing the work; only the clock is real.
//!
//! Run with: `cargo run --release --example cluster_rt`

use nexus::prelude::*;
use nexus::sched::StealKind;
use nexus::sim::SimDuration;
use nexus::trace::generators::distributed;
use std::time::{Duration, Instant};

fn main() {
    let (nodes, workers) = (4, 2);

    // Node 0 owns 6x the last node's work — the reproducible test bed for
    // work stealing. A small time scale maps the simulated 30 us tasks to
    // real sleeps so the backlog is alive long enough to steal from.
    let trace = distributed::imbalanced(nodes, 160, 6.0, SimDuration::from_us(30), 0.1, 42);
    println!(
        "== live runtime: {} ({} tasks) on {nodes} nodes x {workers} workers ==\n",
        trace.name,
        trace.task_count()
    );

    for stealing in [StealKind::Disabled, StealKind::MostLoaded] {
        let cfg = RtConfig::new(nodes, workers)
            .with_stealing(stealing)
            .with_time_scale(2_000);
        let mut rt = ClusterRuntime::new(cfg);
        let handle = rt.start();
        let t0 = Instant::now();
        let run = handle
            .run_trace(&trace)
            .expect("runtime shut down mid-replay");
        let wall = t0.elapsed();
        let stats = handle.node_stats();
        let report = rt.shutdown_timeout(Duration::from_secs(60));
        assert_eq!(report.pending, 0, "the run must drain completely");

        println!(
            "-- stealing {:<10} {:>8.1} ms wall, {:>7.0} tasks/sec",
            format!("{:?}", stealing),
            wall.as_secs_f64() * 1e3,
            run.retired as f64 / wall.as_secs_f64().max(1e-9),
        );
        for s in &stats {
            println!(
                "   node {}: admitted {:>4}  executed {:>4}  stolen in {:>3} / out {:>3}  per-worker {:?}",
                s.node,
                s.admitted.len(),
                s.executed,
                s.stolen_in,
                s.stolen_out,
                s.per_worker_done,
            );
        }
        println!();
    }
}
