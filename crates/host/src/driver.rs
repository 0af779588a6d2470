//! The event-driven multicore host simulation.
//!
//! One master thread replays the trace in program order (submitting tasks,
//! honouring `taskwait` / `taskwait on`, and stalling when the manager's task
//! pool back-pressures); a pool of identical worker cores executes ready tasks;
//! the manager under test decides *when* tasks become ready and retired.

use crate::manager::{ManagerEvent, TaskManager};
use crate::master::{MasterSm, MasterStep};
use crate::metrics::SimOutcome;
use crate::pool::WorkerPool;
use nexus_sim::{EventQueue, FxHashMap, SimDuration, SimTime};
use nexus_trace::{TaskDescriptor, TaskId, Trace};

/// Host machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostConfig {
    /// Number of worker cores (the master runs on its own core, as in the
    /// paper's testbench).
    pub workers: usize,
}

impl HostConfig {
    /// A host with `workers` worker cores.
    pub fn with_workers(workers: usize) -> Self {
        HostConfig { workers }
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        Self::with_workers(32)
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// The master attempts to execute its next trace operation.
    MasterStep,
    /// A worker core finished executing a task.
    WorkerFinish(TaskId, usize),
    /// A worker core becomes available again (after its finish-notification
    /// cost).
    WorkerFree(usize),
    /// A ready notification becomes visible to the scheduler.
    ReadyVisible(TaskId),
    /// A retirement becomes visible (barrier / back-pressure bookkeeping).
    RetiredVisible(TaskId),
}

/// Runs `trace` on a simulated machine with `cfg.workers` worker cores managed
/// by `manager`. Panics if the simulation deadlocks (which would indicate a
/// model bug — the property tests guard against it).
pub fn simulate(trace: &Trace, manager: &mut dyn TaskManager, cfg: &HostConfig) -> SimOutcome {
    assert!(cfg.workers > 0, "need at least one worker core");
    let tasks: FxHashMap<TaskId, &TaskDescriptor> = trace.tasks().map(|t| (t.id, t)).collect();

    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut mgr_events: Vec<ManagerEvent> = Vec::new();
    let mut pool = WorkerPool::new(cfg.workers);
    let mut master = MasterSm::new();
    let mut executed: u64 = 0;
    let mut makespan = SimTime::ZERO;

    // Diagnostics.
    let mut idle_worker_area = SimDuration::ZERO; // worker·time with tasks outstanding
    let mut last_accounting = SimTime::ZERO;
    let mut outstanding_tasks: u64 = 0;

    queue.schedule(SimTime::ZERO, Event::MasterStep);

    macro_rules! drain_manager {
        ($now:expr) => {
            manager.drain_events_into(&mut mgr_events);
            for ev in mgr_events.drain(..) {
                match ev {
                    ManagerEvent::Ready { task, at } => {
                        queue.schedule(at.max($now), Event::ReadyVisible(task));
                    }
                    ManagerEvent::Retired { task, at } => {
                        queue.schedule(at.max($now), Event::RetiredVisible(task));
                    }
                }
            }
        };
    }

    while let Some(ev) = queue.pop() {
        let now = ev.time;
        makespan = makespan.max(now);

        // Integrate idle-worker area (workers idle while work is outstanding).
        let dt = now.saturating_since(last_accounting);
        if outstanding_tasks > 0 && pool.free() > 0 {
            idle_worker_area += dt * pool.free().min(outstanding_tasks as usize) as u64;
        }
        last_accounting = now;

        match ev.payload {
            Event::MasterStep => {
                // Execute exactly one trace operation (or block).
                match master.step(trace, now, manager.supports_taskwait_on()) {
                    MasterStep::Submit(task) => {
                        if !manager.can_accept(now) {
                            master.block_on_capacity(now);
                            continue;
                        }
                        let release = manager.submit(task, now);
                        drain_manager!(now);
                        master.commit_submit(task, now);
                        outstanding_tasks += 1;
                        queue.schedule(release.max(now), Event::MasterStep);
                    }
                    MasterStep::Compute(d) => {
                        queue.schedule(now + d, Event::MasterStep);
                    }
                    MasterStep::Continue => {
                        queue.schedule(now, Event::MasterStep);
                    }
                    MasterStep::Waiting | MasterStep::Done => {}
                }
            }

            Event::ReadyVisible(task) => {
                pool.enqueue(task);
                // Dispatch as many ready tasks as there are free workers.
                pool.dispatch(|next, worker, speed| {
                    let extra = manager.dispatch_cost(next, now);
                    drain_manager!(now);
                    let dur = tasks[&next].duration * 1000 / speed;
                    queue.schedule(now + extra + dur, Event::WorkerFinish(next, worker));
                });
            }

            Event::WorkerFinish(task, worker) => {
                executed += 1;
                let worker_free_at = manager.finish(task, now);
                drain_manager!(now);
                queue.schedule(worker_free_at.max(now), Event::WorkerFree(worker));
            }

            Event::WorkerFree(worker) => {
                pool.release(worker);
                pool.dispatch(|next, worker, speed| {
                    let extra = manager.dispatch_cost(next, now);
                    drain_manager!(now);
                    let dur = tasks[&next].duration * 1000 / speed;
                    queue.schedule(now + extra + dur, Event::WorkerFinish(next, worker));
                });
            }

            Event::RetiredVisible(task) => {
                outstanding_tasks -= 1;
                if master.on_retired(task, now) {
                    queue.schedule(now, Event::MasterStep);
                }
            }
        }
    }

    assert!(
        master.is_done(),
        "master never finished the trace ({}/{}; deadlock?)",
        trace.name,
        manager.name()
    );
    assert_eq!(
        executed as usize,
        tasks.len(),
        "not all tasks executed ({}/{})",
        trace.name,
        manager.name()
    );
    assert_eq!(
        master.retired_count() as usize,
        tasks.len(),
        "not all tasks retired ({}/{})",
        trace.name,
        manager.name()
    );

    SimOutcome {
        benchmark: trace.name.clone(),
        manager: manager.name(),
        workers: cfg.workers,
        makespan: makespan.since(SimTime::ZERO),
        total_work: trace.total_work(),
        tasks: executed,
        master_barrier_time: master.barrier_time(),
        master_backpressure_time: master.backpressure_time(),
        worker_idle_time: idle_worker_area,
        manager_stats: manager.stats_summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::IdealManager;
    use nexus_trace::generators::micro;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    #[test]
    fn independent_tasks_scale_perfectly_under_the_ideal_manager() {
        let trace = micro::independent_tasks(64, 2, us(100));
        for workers in [1usize, 2, 4, 8, 16, 64] {
            let mut mgr = IdealManager::new();
            let out = simulate(&trace, &mut mgr, &HostConfig::with_workers(workers));
            let expected = 64.0 / (64usize.div_ceil(workers)) as f64;
            assert!(
                (out.speedup() - expected).abs() < 1e-6,
                "{workers} workers: {} vs {}",
                out.speedup(),
                expected
            );
        }
    }

    #[test]
    fn chain_never_exceeds_speedup_one() {
        let trace = micro::chain(40, us(50));
        let mut mgr = IdealManager::new();
        let out = simulate(&trace, &mut mgr, &HostConfig::with_workers(16));
        assert!((out.speedup() - 1.0).abs() < 1e-6, "{}", out.speedup());
        assert_eq!(out.tasks, 40);
    }

    #[test]
    fn wavefront_is_limited_by_its_critical_path() {
        let trace = micro::wavefront(8, 8, us(10));
        let mut mgr = IdealManager::new();
        let out = simulate(&trace, &mut mgr, &HostConfig::with_workers(64));
        // Critical path = 2*(rows-1) + cols tasks = 22 tasks -> 220 us.
        assert_eq!(out.makespan, us(220));
        let p = nexus_taskgraph::refgraph::ParallelismProfile::of(&trace);
        assert!((out.speedup() - p.average_parallelism()).abs() < 1e-6);
    }

    #[test]
    fn taskwait_blocks_the_master_until_all_retired() {
        let trace = micro::independent_tasks(4, 1, us(100));
        // The trace ends with a taskwait; with 1 worker the makespan is 400 us.
        let mut mgr = IdealManager::new();
        let out = simulate(&trace, &mut mgr, &HostConfig::with_workers(1));
        assert_eq!(out.makespan, us(400));
        assert!(out.master_barrier_time > SimDuration::ZERO);
    }

    #[test]
    fn single_worker_speedup_is_about_one_for_every_micro_pattern() {
        for trace in [
            micro::five_independent_tasks(),
            micro::fork_join(8, us(20)),
            micro::wavefront(5, 5, us(7)),
        ] {
            let mut mgr = IdealManager::new();
            let out = simulate(&trace, &mut mgr, &HostConfig::with_workers(1));
            assert!((out.speedup() - 1.0).abs() < 1e-6, "{}", trace.name);
        }
    }
}
