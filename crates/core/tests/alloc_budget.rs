//! An allocation budget for the hardware manager models.
//!
//! A counting global allocator counts every call that obtains memory
//! (`alloc`, `alloc_zeroed` and `realloc`). A wrapper [`TaskManager`] adds up
//! only the calls made inside the model's `submit`, `finish` and
//! `drain_events_into`, so the host driver's own bookkeeping does not count,
//! and the host simulator runs Nexus# (6 TGs) and Nexus++ on a chain trace
//! and a sparse-LU trace. Over the whole run, warm-up included, each model
//! must stay under a budget of allocations per task: their task-graph state,
//! in-flight records and buffers are recycled, so only growth to the peak
//! in-flight size allocates.
//!
//! The file holds a single test, so no other test allocates while it
//! counts.

use nexus_core::NexusSharp;
use nexus_host::driver::{simulate, HostConfig};
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_pp::NexusPP;
use nexus_sim::{SimDuration, SimTime};
use nexus_trace::generators::distributed;
use nexus_trace::{TaskDescriptor, TaskId, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// Most allocations per task a model may make inside its calls, over a run.
const BUDGET: f64 = 0.5;

/// Forwards to `inner`, counting the allocations made inside the calls the
/// drivers make on their event hot path.
struct Counted<M> {
    inner: M,
    allocations: u64,
}

impl<M: TaskManager> Counted<M> {
    fn count<R>(&mut self, call: impl FnOnce(&mut M) -> R) -> R {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let result = call(&mut self.inner);
        self.allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        result
    }
}

impl<M: TaskManager> TaskManager for Counted<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn can_accept(&self, now: SimTime) -> bool {
        self.inner.can_accept(now)
    }

    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        self.count(|m| m.submit(task, now))
    }

    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        self.count(|m| m.finish(task, now))
    }

    fn dispatch_cost(&mut self, task: TaskId, now: SimTime) -> SimDuration {
        self.inner.dispatch_cost(task, now)
    }

    fn supports_taskwait_on(&self) -> bool {
        self.inner.supports_taskwait_on()
    }

    fn drain_events(&mut self) -> Vec<ManagerEvent> {
        self.inner.drain_events()
    }

    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        self.count(|m| m.drain_events_into(out))
    }
}

/// Allocations per task inside `manager`'s calls over one host-simulator run
/// of `trace` on 8 workers.
fn allocations_per_task(trace: &Trace, manager: impl TaskManager) -> f64 {
    let mut counted = Counted {
        inner: manager,
        allocations: 0,
    };
    let out = simulate(trace, &mut counted, &HostConfig::with_workers(8));
    assert_eq!(out.tasks as usize, trace.task_count());
    counted.allocations as f64 / trace.task_count() as f64
}

#[test]
fn manager_models_stay_within_their_allocation_budget() {
    let traces = [
        distributed::chained_imbalanced(1, 64, 32, 2.0, SimDuration::from_us(20)),
        distributed::sparselu(1, 0.0, 7, 0.2),
    ];
    let mut over = Vec::new();
    for trace in &traces {
        let runs = [
            (
                "Nexus# (6 TGs)",
                allocations_per_task(trace, NexusSharp::paper(6)),
            ),
            ("Nexus++", allocations_per_task(trace, NexusPP::paper())),
        ];
        for (model, per_task) in runs {
            println!(
                "{model} on {} ({} tasks): {per_task:.2} allocations per task",
                trace.name,
                trace.task_count()
            );
            if per_task > BUDGET {
                over.push(format!("{model} on {}: {per_task:.2}", trace.name));
            }
        }
    }
    assert!(
        over.is_empty(),
        "over the budget of {BUDGET} allocations per task: {over:?}"
    );
}
