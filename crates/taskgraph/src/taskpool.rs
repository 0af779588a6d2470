//! The Task Pool: bounded storage for in-flight task descriptors.
//!
//! "After having distributed all the memory addresses in the new task's
//! input/output list, the Input Parser stores the new task in the Task Pool.
//! This is important at the end of a task's life cycle; i.e., after running it
//! … the Input Parser will read its input/output list from the Task Pool, and
//! distribute them subsequently" (§IV-B).
//!
//! The pool is a fixed-size hardware structure: when it is full the manager
//! back-pressures the submitting runtime. Two retirement disciplines are
//! modelled:
//!
//! * [`RetirementOrder::FreeList`] — any finished slot is immediately reusable
//!   (Nexus#),
//! * [`RetirementOrder::InOrder`] — slots are recycled in allocation order
//!   (a circular buffer, the simpler hardware used by the Nexus++ baseline);
//!   a long-running early task then blocks slot reuse (head-of-line blocking),
//!   which is one of the structural reasons the central design falls behind on
//!   irregular workloads.

use nexus_sim::FxHashSet;
use nexus_trace::TaskId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Slot recycling discipline of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetirementOrder {
    /// Finished slots are reusable immediately (free-list allocation).
    FreeList,
    /// Slots are recycled strictly in allocation order (circular buffer).
    InOrder,
}

/// Occupancy statistics of the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskPoolStats {
    /// Tasks ever admitted.
    pub admitted: u64,
    /// Tasks retired (slot made reusable).
    pub recycled: u64,
    /// Admission attempts rejected because the pool was full.
    pub rejections: u64,
    /// Peak occupancy.
    pub peak_occupancy: usize,
}

/// A bounded pool of in-flight task descriptors. Only the slots are
/// modelled: the pool keeps the ids of the tasks that hold one, not copies
/// of their descriptors.
#[derive(Debug, Clone)]
pub struct TaskPool {
    capacity: usize,
    order: RetirementOrder,
    /// Tasks holding a slot (admitted and not yet recycled).
    tasks: FxHashSet<TaskId>,
    /// Allocation order — maintained only under in-order recycling (free-list
    /// slots have no positional identity, so keeping this queue would cost an
    /// O(occupancy) scan per retirement for nothing).
    fifo: VecDeque<TaskId>,
    /// Tasks finished but whose slot is not yet recyclable (in-order mode only).
    finished_pending: FxHashSet<TaskId>,
    stats: TaskPoolStats,
}

impl TaskPool {
    /// Creates a pool with the given capacity and retirement discipline.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, order: RetirementOrder) -> Self {
        assert!(capacity > 0, "task pool capacity must be non-zero");
        TaskPool {
            capacity,
            order,
            tasks: FxHashSet::default(),
            fifo: VecDeque::with_capacity(capacity),
            finished_pending: FxHashSet::default(),
            stats: TaskPoolStats::default(),
        }
    }

    /// Pool capacity in tasks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retirement discipline.
    pub fn order(&self) -> RetirementOrder {
        self.order
    }

    /// Number of occupied slots (admitted and not yet recycled).
    pub fn occupancy(&self) -> usize {
        self.tasks.len()
    }

    /// True if a new task can be admitted right now.
    pub fn has_free_slot(&self) -> bool {
        self.occupancy() < self.capacity
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TaskPoolStats {
        self.stats
    }

    /// Admits the task `id`. Returns `Err(id)` if the pool is full.
    pub fn admit(&mut self, id: TaskId) -> Result<(), TaskId> {
        if !self.has_free_slot() {
            self.stats.rejections += 1;
            return Err(id);
        }
        self.stats.admitted += 1;
        let fresh = self.tasks.insert(id);
        debug_assert!(fresh, "{id} admitted twice");
        if self.order == RetirementOrder::InOrder {
            self.fifo.push_back(id);
        }
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy());
        Ok(())
    }

    /// Marks a task as finished and recycles whatever slots the retirement
    /// discipline allows. Returns the number of slots made reusable by this
    /// call (0 is possible under in-order recycling when an older task is
    /// still running).
    pub fn finish(&mut self, id: TaskId) -> usize {
        debug_assert!(self.tasks.contains(&id), "finishing unknown task {id}");
        match self.order {
            RetirementOrder::FreeList => {
                self.tasks.remove(&id);
                self.stats.recycled += 1;
                1
            }
            RetirementOrder::InOrder => {
                self.finished_pending.insert(id);
                let mut recycled = 0;
                while let Some(&head) = self.fifo.front() {
                    if self.finished_pending.remove(&head) {
                        self.fifo.pop_front();
                        self.tasks.remove(&head);
                        recycled += 1;
                    } else {
                        break;
                    }
                }
                self.stats.recycled += recycled as u64;
                recycled
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_list_recycles_immediately() {
        let mut p = TaskPool::new(2, RetirementOrder::FreeList);
        p.admit(TaskId(0)).unwrap();
        p.admit(TaskId(1)).unwrap();
        assert!(!p.has_free_slot());
        assert!(p.admit(TaskId(2)).is_err());
        assert_eq!(p.stats().rejections, 1);
        // Finishing the *second* task frees a slot immediately.
        assert_eq!(p.finish(TaskId(1)), 1);
        assert!(p.has_free_slot());
        p.admit(TaskId(2)).unwrap();
        assert_eq!(p.occupancy(), 2);
        // Task 0 still holds its slot.
        assert_eq!(p.finish(TaskId(0)), 1);
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn in_order_recycling_suffers_head_of_line_blocking() {
        let mut p = TaskPool::new(3, RetirementOrder::InOrder);
        p.admit(TaskId(0)).unwrap();
        p.admit(TaskId(1)).unwrap();
        p.admit(TaskId(2)).unwrap();
        // Tasks 1 and 2 finish, but task 0 (the head) is still running:
        // no slot can be recycled.
        assert_eq!(p.finish(TaskId(1)), 0);
        assert_eq!(p.finish(TaskId(2)), 0);
        assert!(!p.has_free_slot());
        // When the head finishes, all three slots recycle at once.
        assert_eq!(p.finish(TaskId(0)), 3);
        assert_eq!(p.occupancy(), 0);
        assert_eq!(p.stats().recycled, 3);
    }

    #[test]
    fn peak_occupancy_is_tracked() {
        let mut p = TaskPool::new(8, RetirementOrder::FreeList);
        for i in 0..5 {
            p.admit(TaskId(i)).unwrap();
        }
        for i in 0..5 {
            p.finish(TaskId(i));
        }
        assert_eq!(p.stats().peak_occupancy, 5);
        assert_eq!(p.stats().admitted, 5);
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = TaskPool::new(0, RetirementOrder::FreeList);
    }
}
