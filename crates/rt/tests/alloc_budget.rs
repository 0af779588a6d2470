//! An allocation budget for the live runtime's hot path.
//!
//! A counting global allocator counts every call that obtains memory
//! (`alloc`, `alloc_zeroed` and `realloc`). A 2 × 1 runtime takes pre-built
//! body-less descriptors in rounds separated by `taskwait`: the first round
//! warms up the runtime's tables and buffers, and the rounds after it must
//! stay under a budget of allocations per task. Submission, delivery, the
//! node steps and retirement all count, on every thread; building the
//! descriptors does not.
//!
//! The file holds a single test, so no other test allocates while it
//! counts.

use nexus_rt::{ClusterRuntime, RtConfig, RtTask};
use nexus_trace::generators::distributed;
use nexus_trace::{TaskDescriptor, TaskId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

const ROUNDS: usize = 6;

/// Allocations per task after the first round, over `ROUNDS` rounds of
/// `round` on a fresh 2 × 1 runtime. Each round renumbers the task ids.
fn allocations_per_task(round: &[TaskDescriptor]) -> f64 {
    let rounds: Vec<Vec<RtTask>> = (0..ROUNDS)
        .map(|r| {
            round
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let mut t = t.clone();
                    t.id = TaskId((r * round.len() + i) as u64);
                    RtTask::new(t)
                })
                .collect()
        })
        .collect();
    let mut rt = ClusterRuntime::new(RtConfig::new(2, 1));
    let handle = rt.start();
    let mut counted = 0;
    for (r, tasks) in rounds.into_iter().enumerate() {
        if r == 1 {
            counted = ALLOCATIONS.load(Ordering::Relaxed);
        }
        for task in tasks {
            handle.submit(task).expect("the runtime is running");
        }
        handle.taskwait();
    }
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - counted;
    let report = rt.shutdown_timeout(Duration::from_secs(10));
    assert_eq!(report.retired, (ROUNDS * round.len()) as u64);
    counted as f64 / ((ROUNDS - 1) * round.len()) as f64
}

#[test]
fn the_live_hot_path_stays_within_its_allocation_budget() {
    // Eight interleaved chains of 64 read-modify-writes each.
    let chains: Vec<TaskDescriptor> = (0..512u64)
        .map(|i| {
            TaskDescriptor::builder(i)
                .inout(0x100 + (i % 8) * 64)
                .build()
        })
        .collect();
    let sparselu: Vec<TaskDescriptor> = distributed::sparselu(2, 0.3, 7, 0.002)
        .tasks()
        .cloned()
        .collect();
    // Each budget lies about halfway between the counts measured before
    // and after the runtime reused its out-lists and per-producer lists:
    // 2.4-2.7 and 1.0 on the chains, 3.6-4.4 and 1.4-1.8 on sparselu.
    for (shape, round, budget) in [("chains", chains, 1.75), ("sparselu", sparselu, 2.6)] {
        let per_task = allocations_per_task(&round);
        println!("{shape}: {per_task:.2} allocations per task");
        assert!(
            per_task <= budget,
            "{shape}: {per_task:.2} allocations per task, over the budget of {budget}"
        );
    }
}
