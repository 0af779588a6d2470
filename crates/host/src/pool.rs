//! The per-node worker-core pool.
//!
//! Both the single-node host driver ([`crate::driver::simulate`]) and the
//! multi-node cluster driver (`nexus-cluster`) run the same inner loop on each
//! simulated node: ready tasks queue up, free worker cores pull from the queue
//! in FIFO order, and a finished worker immediately looks for more work.
//! [`WorkerPool`] is that loop's state machine, extracted so every driver
//! shares one implementation.
//!
//! Every core is a standard core: it executes a task in the task's traced
//! duration. Dispatch hands the next ready task to the lowest-index free core.

use nexus_trace::TaskId;
use std::collections::VecDeque;

/// FIFO ready-queue plus free-worker accounting for one node (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct WorkerPool {
    ready: VecDeque<TaskId>,
    busy: Vec<bool>,
    free: usize,
}

impl WorkerPool {
    /// Creates a pool of `workers` idle worker cores.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker core");
        WorkerPool {
            ready: VecDeque::new(),
            busy: vec![false; workers],
            free: workers,
        }
    }

    /// Total worker cores in the pool.
    #[inline]
    pub fn workers(&self) -> usize {
        self.busy.len()
    }

    /// Worker cores currently idle.
    #[inline]
    pub fn free(&self) -> usize {
        self.free
    }

    /// Ready tasks waiting for a worker.
    #[inline]
    pub fn queued(&self) -> usize {
        self.ready.len()
    }

    /// Appends a ready task to the queue (it does not start until
    /// [`WorkerPool::dispatch`] hands it to a free worker).
    pub fn enqueue(&mut self, task: TaskId) {
        self.ready.push_back(task);
    }

    /// Returns core `worker` to the pool after its finish-notification cost.
    pub fn release(&mut self, worker: usize) {
        debug_assert!(self.busy[worker], "released a core that was not busy");
        self.busy[worker] = false;
        self.free += 1;
    }

    /// Hands queued tasks to free workers in FIFO order — lowest-index free
    /// core first — invoking `start(task, worker)` for each dispatch. The
    /// callback typically charges the manager's dispatch cost and schedules
    /// the task's completion event after its duration.
    pub fn dispatch(&mut self, mut start: impl FnMut(TaskId, usize)) {
        while self.free > 0 {
            let Some(task) = self.ready.pop_front() else {
                break;
            };
            let worker = self
                .busy
                .iter()
                .position(|&busy| !busy)
                .expect("free count positive but no idle core");
            self.busy[worker] = true;
            self.free -= 1;
            start(task, worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_fifo_and_bounded_by_free_workers() {
        let mut pool = WorkerPool::new(2);
        for id in 0..4 {
            pool.enqueue(TaskId(id));
        }
        let mut started = Vec::new();
        pool.dispatch(|t, _| started.push(t));
        assert_eq!(started, vec![TaskId(0), TaskId(1)]);
        assert_eq!(pool.free(), 0);
        assert_eq!(pool.queued(), 2);

        pool.release(0);
        pool.dispatch(|t, _| started.push(t));
        assert_eq!(started.last(), Some(&TaskId(2)));
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn dispatch_takes_the_lowest_index_free_cores() {
        let mut pool = WorkerPool::new(4);
        for id in 0..4 {
            pool.enqueue(TaskId(id));
        }
        let mut picked = Vec::new();
        pool.dispatch(|t, w| picked.push((t, w)));
        let first: Vec<_> = (0..4).map(|i| (TaskId(i), i as usize)).collect();
        assert_eq!(picked, first);
        // Free cores 3 and 1: the next two tasks go to 1, then 3.
        pool.release(3);
        pool.release(1);
        for id in 4..6 {
            pool.enqueue(TaskId(id));
        }
        picked.clear();
        pool.dispatch(|t, w| picked.push((t, w)));
        assert_eq!(picked, vec![(TaskId(4), 1), (TaskId(5), 3)]);
    }

    #[test]
    fn idle_pool_dispatches_nothing() {
        let mut pool = WorkerPool::new(3);
        pool.dispatch(|_, _| panic!("nothing queued"));
        assert_eq!(pool.free(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pool_rejected() {
        let _ = WorkerPool::new(0);
    }
}
