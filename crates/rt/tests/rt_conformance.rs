//! Conformance of the threaded runtime against the event simulator.
//!
//! For every workload × stealing mode × node count in the grid, the same
//! trace is run through `nexus_cluster::simulate_cluster` (simulated) and
//! through a live `ClusterRuntime` (`run_trace`, real threads). The live run
//! must:
//!
//! 1. retire exactly the simulator's task count (nothing lost, nothing
//!    duplicated);
//! 2. converge to the **same final last-writer table** — the semantic
//!    fingerprint of the dataflow execution;
//! 3. produce a retire log that is a **legal topological order** of the
//!    dependence graph as defined by the shared `DepScanner` (every consumer
//!    retires after all of its producers);
//! 4. admit each task at the same home node the scanner assigns, in
//!    program order;
//! 5. with stealing off, execute every task on its home node; with stealing
//!    on, still execute every task exactly once somewhere;
//! 6. report zero pending tasks after a drained shutdown.

use nexus_cluster::routing::DepScanner;
use nexus_cluster::{simulate_cluster, ClusterConfig};
use nexus_host::IdealManager;
use nexus_rt::{ClusterRuntime, RtConfig};
use nexus_sched::{FeedbackKind, StealKind};
use nexus_sim::{FxHashMap, SimDuration};
use nexus_trace::generators::distributed;
use nexus_trace::{TaskDescriptor, TaskId, Trace};
use std::time::Duration;

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// The workload grid: every generator family the repo benchmarks, sized
/// small enough that the full 30-case grid stays in test-suite budget.
fn workloads(nodes: usize) -> Vec<Trace> {
    let (racks, per_rack) = match nodes {
        1 => (1, 1),
        2 => (2, 1),
        4 => (2, 2),
        n => (n, 1),
    };
    vec![
        distributed::sparselu(nodes, 0.3, 7, 0.002),
        distributed::gaussian(nodes, 0.3, 8, 11),
        distributed::wavefront(nodes, 0.3, 8, 8, us(20), 3),
        distributed::imbalanced(nodes, 30, 3.0, us(20), 0.3, 5),
        distributed::rack_clustered(racks, per_rack, 4, 6, 2.0, 0.4, 0.3, us(20), 9),
    ]
}

/// Rebuilds the dependence graph exactly as the runtime's master saw it — a
/// fresh scanner fed the trace in program order — and returns, per task, the
/// submission indices of its producers plus its home node.
fn rescan(trace: &Trace, cfg: &ClusterConfig) -> Vec<(TaskId, usize, Vec<usize>)> {
    let mut scanner = DepScanner::with_policy(cfg.nodes, cfg.placement.build())
        .with_distances(cfg.link.fabric(cfg.nodes).distances());
    trace
        .tasks()
        .map(|t| {
            let rec = scanner.scan_full(t);
            (t.id, rec.home, rec.producers)
        })
        .collect()
}

fn check_case(trace: &Trace, nodes: usize, stealing: StealKind) {
    let cfg = ClusterConfig::new(nodes, 2).with_stealing(stealing);
    let sim = simulate_cluster(trace, &cfg, |_| IdealManager::new());

    let mut rt = ClusterRuntime::new(RtConfig::from_cluster(&cfg));
    let handle = rt.start();
    let run = handle
        .run_trace(trace)
        .expect("runtime shut down mid-replay");
    let log = handle.retire_log();
    let stats = handle.node_stats();
    let report = rt.shutdown_timeout(Duration::from_secs(30));

    let ctx = format!("[{} n={nodes} steal={stealing:?}]", trace.name);
    let tasks = trace.task_count() as u64;

    // (1) identical retirement census, live vs simulated.
    assert_eq!(run.submitted, tasks, "{ctx} submitted");
    assert_eq!(run.retired, tasks, "{ctx} retired");
    assert_eq!(sim.tasks, tasks, "{ctx} sim task census");
    assert_eq!(log.len() as u64, tasks, "{ctx} retire log length");

    // (2) identical final last-writer tables.
    assert_eq!(
        run.last_writer, sim.master_last_writer,
        "{ctx} last-writer tables diverge"
    );

    // (3) the retire log is a legal topological order of the scanner's
    // dependence graph.
    let graph = rescan(trace, &cfg);
    let mut pos: FxHashMap<TaskId, usize> = FxHashMap::default();
    for (i, id) in log.iter().enumerate() {
        assert!(
            pos.insert(*id, i).is_none(),
            "{ctx} task {id:?} retired twice"
        );
    }
    for (consumer_idx, (id, _, producers)) in graph.iter().enumerate() {
        let cp = pos[id];
        for &p in producers {
            let (pid, _, _) = &graph[p];
            assert!(
                pos[pid] < cp,
                "{ctx} task {id:?} (submission {consumer_idx}) retired before \
                 its producer {pid:?} (submission {p})"
            );
        }
    }

    // (4) every task was admitted at its scanner home, in program order.
    for (node, stat) in stats.iter().enumerate() {
        let expected: Vec<TaskId> = graph
            .iter()
            .filter(|(_, home, _)| *home == node)
            .map(|(id, _, _)| *id)
            .collect();
        assert_eq!(
            stat.admitted, expected,
            "{ctx} node {node} admission mismatch"
        );
    }

    // (5) execution census: stealing off pins work to the home node;
    // stealing on still executes everything exactly once.
    let executed: u64 = stats.iter().map(|s| s.executed).sum();
    assert_eq!(executed, tasks, "{ctx} executed census");
    if !stealing.is_enabled() {
        for (node, stat) in stats.iter().enumerate() {
            assert_eq!(
                stat.executed,
                stat.admitted.len() as u64,
                "{ctx} node {node} executed off-home work with stealing off"
            );
            assert_eq!(stat.stolen_in, 0, "{ctx} node {node} stole work");
        }
    }

    // (6) a drained shutdown reports nothing pending.
    assert_eq!(report.pending, 0, "{ctx} pending after drain");
    assert_eq!(report.retired, tasks, "{ctx} report retired");

    // (7) the live metrics registry agrees with the simulator's under the
    // shared key names — the execution census is identical on both sides.
    assert_eq!(
        report.metrics.counter("task.executed"),
        sim.metrics.counter("task.executed"),
        "{ctx} executed census diverges between live and simulated registries"
    );
    assert_eq!(
        report.metrics.counter("task.retired"),
        sim.metrics.counter("task.retired"),
        "{ctx} retired census diverges between live and simulated registries"
    );
    if !stealing.is_enabled() {
        assert_eq!(
            report.metrics.counter("steal.stolen") + report.metrics.counter("steal.grants"),
            0,
            "{ctx} stealing disabled but the registry recorded steals"
        );
    }
}

fn run_grid(stealing: StealKind) {
    for nodes in [1usize, 2, 4] {
        for trace in workloads(nodes) {
            check_case(&trace, nodes, stealing);
        }
    }
}

#[test]
fn conformance_without_stealing() {
    run_grid(StealKind::Disabled);
}

#[test]
fn conformance_with_stealing() {
    run_grid(StealKind::MostLoaded);
}

/// Feedback-driven scheduling preserves the dataflow semantics. Under
/// `FeedbackKind::Full` the live runtime's placement follows wall-clock
/// digests, so homes are not pinnable event for event — but every
/// placement-independent invariant must still hold against the simulator:
/// the retirement census, the final last-writer fingerprint, topological
/// retire order against the (placement-independent) producer sets, and the
/// shared `reclaim.*` registry keys mirroring the per-node statistics.
#[test]
fn feedback_full_preserves_the_dataflow_semantics() {
    for nodes in [2usize, 4] {
        for trace in workloads(nodes) {
            let cfg = ClusterConfig::new(nodes, 2)
                .with_stealing(StealKind::Hierarchical)
                .with_feedback(FeedbackKind::Full);
            let sim = simulate_cluster(&trace, &cfg, |_| IdealManager::new());

            let mut rt = ClusterRuntime::new(RtConfig::from_cluster(&cfg));
            let handle = rt.start();
            let run = handle
                .run_trace(&trace)
                .expect("runtime shut down mid-replay");
            let log = handle.retire_log();
            let report = rt.shutdown_timeout(Duration::from_secs(30));

            let ctx = format!("[{} n={nodes} feedback=full]", trace.name);
            let tasks = trace.task_count() as u64;
            assert_eq!(run.submitted, tasks, "{ctx} submitted");
            assert_eq!(run.retired, tasks, "{ctx} retired");
            assert_eq!(sim.tasks, tasks, "{ctx} sim census");
            assert_eq!(
                run.last_writer, sim.master_last_writer,
                "{ctx} last-writer tables diverge"
            );
            assert_eq!(report.pending, 0, "{ctx} pending after drain");

            // The retire log stays a legal topological order (the producer
            // sets are last-writer chains — identical under any placement).
            let graph = rescan(&trace, &cfg);
            let mut pos: FxHashMap<TaskId, usize> = FxHashMap::default();
            for (i, id) in log.iter().enumerate() {
                assert!(pos.insert(*id, i).is_none(), "{ctx} {id:?} retired twice");
            }
            for (id, _, producers) in &graph {
                for &p in producers {
                    let (pid, _, _) = &graph[p];
                    assert!(
                        pos[pid] < pos[id],
                        "{ctx} task {id:?} retired before its producer {pid:?}"
                    );
                }
            }

            // Shared registry keys: the live reclaim census is internally
            // consistent and keyed exactly like the simulator's.
            let reclaimed: u64 = report.per_node.iter().map(|s| s.reclaimed_in).sum();
            let out: u64 = report.per_node.iter().map(|s| s.reclaimed_out).sum();
            assert_eq!(reclaimed, out, "{ctx} reclaim handoffs must balance");
            assert_eq!(
                report.metrics.counter("reclaim.reclaimed"),
                reclaimed,
                "{ctx}"
            );
            assert_eq!(
                sim.metrics.counter("reclaim.reclaimed"),
                sim.reclaims,
                "{ctx} sim registry mirrors its scalar"
            );
        }
    }
}

/// The reclaim protocol moves real blocked work in the live runtime, and the
/// `reclaim.*` census is live on *both* sides of the conformance pair on a
/// workload stealing cannot touch (six interleaved chains pinned to node 0:
/// only the chain fronts are ever steal-eligible). Exact counts are
/// wall-clock-dependent live, so both sides are pinned to be nonzero,
/// internally balanced, and lifecycle-conserving rather than equal.
#[test]
fn reclamation_census_is_live_on_both_sides() {
    let mut b = nexus_trace::trace::TraceBuilder::new("reclaim-chains-live");
    for i in 0..48u64 {
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .inout(0x100 + (i % 6) * 0x40)
                .duration(us(20))
                .affinity(0)
                .build()
        });
    }
    b.taskwait();
    let trace = b.finish();

    let cfg = ClusterConfig::new(2, 2).with_feedback(FeedbackKind::Reclaim);
    // The simulated side needs a manager whose pool actually backs up — the
    // paper's Nexus# with a tight task pool, as the driver's own tests use.
    let sim = simulate_cluster(&trace, &cfg, |_| {
        let mut mgr = nexus_core::NexusSharpConfig::paper(6);
        mgr.task_pool_capacity = 16;
        nexus_core::NexusSharp::new(mgr)
    });
    assert!(sim.reclaims > 0, "simulator reclaimed nothing");
    assert_eq!(sim.metrics.counter("reclaim.reclaimed"), sim.reclaims);

    let rec = nexus_rt::SharedRecorder::new();
    let mut rt = ClusterRuntime::new(
        RtConfig::from_cluster(&cfg)
            .with_time_scale(100_000)
            .with_recorder(rec.clone()),
    );
    let handle = rt.start();
    handle.run_trace(&trace).expect("replay failed");
    let report = rt.shutdown_timeout(Duration::from_secs(60));
    assert_eq!(report.pending, 0);

    let reclaimed: u64 = report.per_node.iter().map(|s| s.reclaimed_in).sum();
    let out: u64 = report.per_node.iter().map(|s| s.reclaimed_out).sum();
    assert!(
        reclaimed > 0,
        "live runtime reclaimed nothing: {:?}",
        report.per_node
    );
    assert_eq!(reclaimed, out, "reclaim handoffs must balance");
    assert_eq!(report.metrics.counter("reclaim.reclaimed"), reclaimed);
    assert!(
        report.per_node[1].executed > 0,
        "node 1 never executed reclaimed work"
    );

    let snap = rec.snapshot();
    let conserved = nexus_obs::check_conservation(&snap.events)
        .expect("live reclaim lifecycle breaks conservation");
    assert_eq!(conserved.retired, 48);
    assert_eq!(conserved.reclaimed as u64, reclaimed);
}

/// The imbalanced workload under stealing actually moves descriptors in the
/// live runtime (the thief side of the protocol is exercised, not just
/// compiled).
#[test]
fn stealing_moves_real_work() {
    let trace = distributed::imbalanced(4, 200, 8.0, us(20), 0.0, 5);
    let cfg = ClusterConfig::new(4, 2).with_stealing(StealKind::MostLoaded);
    // A small time scale keeps node 0's backlog alive while the idle nodes'
    // workers park and while later steps let them ask.
    let rec = nexus_rt::SharedRecorder::new();
    let mut rt = ClusterRuntime::new(
        RtConfig::from_cluster(&cfg)
            .with_time_scale(2_000)
            .with_recorder(rec.clone()),
    );
    let handle = rt.start();
    handle.run_trace(&trace).expect("replay failed");
    let stats = handle.node_stats();
    let report = rt.shutdown_timeout(Duration::from_secs(30));
    assert_eq!(report.pending, 0);
    let stolen: u64 = stats.iter().map(|s| s.stolen_in).sum();
    assert!(stolen > 0, "no descriptor was ever stolen: {stats:?}");
    let executed: u64 = stats.iter().map(|s| s.executed).sum();
    assert_eq!(executed, trace.task_count() as u64);

    // The victim side accounts every grant, and the registry surfaces the
    // same totals (stolen_in at the thieves == Stolen spans at the victims).
    let grants: u64 = stats.iter().map(|s| s.steal_grants).sum();
    assert!(grants > 0, "steals happened but no grant was counted");
    assert_eq!(report.metrics.counter("steal.stolen"), stolen);
    assert_eq!(report.metrics.counter("steal.grants"), grants);

    let snap = rec.snapshot();
    let conserved =
        nexus_obs::check_conservation(&snap.events).expect("live span log breaks conservation");
    assert_eq!(conserved.retired, trace.task_count());
    assert_eq!(
        conserved.stolen as u64, stolen,
        "Stolen spans != stolen_in census"
    );
}
