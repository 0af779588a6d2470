//! An allocation budget for the cluster simulator's event loop.
//!
//! A counting global allocator counts every call that obtains memory
//! (`alloc`, `alloc_zeroed` and `realloc`). The test counts the calls made
//! while [`ClusterDriver::run`] or [`ClusterDriver::run_streaming`] runs,
//! after [`ClusterDriver::new`] has built the cluster, and subtracts the
//! ones made inside the node managers' own calls (a wrapper [`TaskManager`]
//! adds those up), so what is left is the driver's: task bookkeeping,
//! subscriptions, moves, relays, the event queue and the master. Over the
//! whole run it must stay under a budget of allocations per task: the
//! driver keeps its per-task state in per-run arenas and recycles its
//! buffers and relay slots, so only growth to a run's peak allocates.
//!
//! It runs two traces: skewed serial chains on the rack-tiered cluster
//! with stealing, reclaims and full feedback (steal and reclaim grants,
//! re-homing, multi-hop relays, load digests), and an open-loop sparse LU
//! with Poisson arrivals through bounded admission queues (back-pressure).
//!
//! Building a cluster has a budget too: [`ClusterDriver::new`] with Nexus#
//! (6 task graphs, 512-set tables each) at every node may make at most
//! [`BUILD_BUDGET`] allocations per node, counted on the same two cluster
//! shapes (8 × 8 and 4 × 8). Each node's managers, worker pool and queues
//! are a fixed number of allocations, not one per table set.
//!
//! `cargo test --release -p nexus-cluster --test alloc_budget --
//! --nocapture` prints the counts.
//!
//! The file holds a single test, so no other test allocates while it
//! counts.

use nexus_cluster::{
    AdmissionConfig, ClusterConfig, ClusterDriver, FeedbackKind, LinkConfig, PolicyKind, StealKind,
    StreamingSource, Topology,
};
use nexus_core::NexusSharp;
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_sim::{SimDuration, SimRng, SimTime};
use nexus_trace::generators::distributed;
use nexus_trace::{ArrivalOverlay, TaskDescriptor, TaskId, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations per task the driver may make outside the managers'
/// calls, over a run.
const BUDGET: f64 = 0.5;

/// Most allocations per node `ClusterDriver::new` may make.
const BUILD_BUDGET: f64 = 64.0;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `call`, adding the allocations it makes to `tally`.
fn tallied<R>(tally: &Cell<u64>, call: impl FnOnce() -> R) -> R {
    let before = allocations();
    let result = call();
    tally.set(tally.get() + allocations() - before);
    result
}

/// Forwards to `inner`, adding the allocations made inside every call to a
/// tally all nodes' managers share.
struct Counted<M> {
    inner: M,
    inside: Rc<Cell<u64>>,
}

impl<M: TaskManager> TaskManager for Counted<M> {
    fn name(&self) -> String {
        tallied(&self.inside, || self.inner.name())
    }

    fn can_accept(&self, now: SimTime) -> bool {
        tallied(&self.inside, || self.inner.can_accept(now))
    }

    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        let m = &mut self.inner;
        tallied(&self.inside, || m.submit(task, now))
    }

    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        let m = &mut self.inner;
        tallied(&self.inside, || m.finish(task, now))
    }

    fn dispatch_cost(&mut self, task: TaskId, now: SimTime) -> SimDuration {
        let m = &mut self.inner;
        tallied(&self.inside, || m.dispatch_cost(task, now))
    }

    fn supports_taskwait_on(&self) -> bool {
        tallied(&self.inside, || self.inner.supports_taskwait_on())
    }

    fn drain_events(&mut self) -> Vec<ManagerEvent> {
        let m = &mut self.inner;
        tallied(&self.inside, || m.drain_events())
    }

    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        let m = &mut self.inner;
        tallied(&self.inside, || m.drain_events_into(out))
    }

    fn stats_summary(&self) -> Vec<(String, f64)> {
        tallied(&self.inside, || self.inner.stats_summary())
    }
}

/// Poisson arrival times for `n` submissions at mean gap `mean`.
fn poisson(n: usize, mean: SimDuration, seed: u64) -> ArrivalOverlay {
    let mut rng = SimRng::new(seed);
    let mut t = SimTime::ZERO;
    let times = (0..n)
        .map(|_| {
            t += SimDuration::from_ns_f64(-(1.0 - rng.next_f64()).ln() * mean.as_ns() as f64);
            t
        })
        .collect();
    ArrivalOverlay::new(times).expect("accumulated gaps are nondecreasing")
}

/// Allocations per task the driver makes outside the managers' calls over
/// one run of `trace` on `cfg` fed by `source`, with Nexus# (6 TGs) at
/// every node. Building the cluster is not counted.
fn allocations_per_task(trace: &Trace, cfg: &ClusterConfig, source: &StreamingSource) -> f64 {
    let inside = Rc::new(Cell::new(0));
    let driver = ClusterDriver::new(cfg, |_| Counted {
        inner: NexusSharp::paper(6),
        inside: Rc::clone(&inside),
    });
    let before = allocations();
    let inside_before = inside.get();
    let out = driver.run_streaming(trace, source);
    let total = allocations() - before;
    let managers = inside.get() - inside_before;
    assert_eq!(out.cluster.tasks as usize, trace.task_count());
    println!(
        "{} on {} nodes ({} tasks): {total} allocations in the run, {managers} inside the \
         managers' calls, {:.3} per task outside them",
        trace.name,
        cfg.nodes,
        trace.task_count(),
        (total - managers) as f64 / trace.task_count() as f64
    );
    (total - managers) as f64 / trace.task_count() as f64
}

/// Allocations per node `ClusterDriver::new` makes building `cfg` with
/// Nexus# (6 TGs) at every node.
fn build_allocations_per_node(cfg: &ClusterConfig) -> f64 {
    let before = allocations();
    let driver = ClusterDriver::new(cfg, |_| NexusSharp::paper(6));
    let made = allocations() - before;
    drop(driver);
    println!(
        "ClusterDriver::new on {} x {}: {made} allocations, {:.1} per node",
        cfg.nodes,
        cfg.workers_per_node,
        made as f64 / cfg.nodes as f64
    );
    made as f64 / cfg.nodes as f64
}

#[test]
fn cluster_driver_stays_within_its_allocation_budget() {
    let chains = distributed::chained_imbalanced(8, 64, 32, 2.0, SimDuration::from_us(20));
    let steal = ClusterConfig::new(8, 8)
        .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
        .with_placement(PolicyKind::TopologyAware)
        .with_stealing(StealKind::Hierarchical)
        .with_feedback(FeedbackKind::Full);
    let service = distributed::sparselu(4, 0.3, 42, 0.05);
    let arrivals = poisson(service.task_count(), SimDuration::from_us(80), 42);
    let open = StreamingSource::open_loop(arrivals, AdmissionConfig::new(16));
    let runs = [
        (
            "chains, steal + reclaim",
            allocations_per_task(&chains, &steal, &StreamingSource::closed_loop()),
        ),
        (
            "sparselu, open loop",
            allocations_per_task(&service, &ClusterConfig::new(4, 8), &open),
        ),
    ];
    let over: Vec<String> = runs
        .iter()
        .filter(|(_, per_task)| *per_task > BUDGET)
        .map(|(what, per_task)| format!("{what}: {per_task:.3}"))
        .collect();
    assert!(
        over.is_empty(),
        "over the budget of {BUDGET} allocations per task: {over:?}"
    );

    let builds = [
        ("8 x 8, rack tiers", build_allocations_per_node(&steal)),
        (
            "4 x 8",
            build_allocations_per_node(&ClusterConfig::new(4, 8)),
        ),
    ];
    let over: Vec<String> = builds
        .iter()
        .filter(|(_, per_node)| *per_node > BUILD_BUDGET)
        .map(|(what, per_node)| format!("{what}: {per_node:.1}"))
        .collect();
    assert!(
        over.is_empty(),
        "ClusterDriver::new over the budget of {BUILD_BUDGET} allocations per node: {over:?}"
    );
}
