//! The Task Pool: bounded storage for in-flight task descriptors.
//!
//! "After having distributed all the memory addresses in the new task's
//! input/output list, the Input Parser stores the new task in the Task Pool.
//! This is important at the end of a task's life cycle; i.e., after running it
//! … the Input Parser will read its input/output list from the Task Pool, and
//! distribute them subsequently" (§IV-B).
//!
//! The pool is the managers' only store of in-flight tasks. It keeps one
//! record per admitted task until the task finishes: its input/output list
//! (each parameter's address with the tracker access it holds, see
//! [`crate::DependencyTracker::insert_param`]) and its outstanding dependence
//! count (its entry of the Dependence Counts table, §IV-C), which each
//! released waiter decrements. A finished task's list is handed to the
//! manager to re-distribute and then handed back, emptied, for a later
//! admission to fill, so the pool allocates only while it grows to its peak.
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
//!   irregular workloads. A finished task's record is gone, but its slot
//!   stays occupied until every older task has finished, so the pool counts
//!   its occupied slots apart from its records.

use crate::tracker::AccessId;
use nexus_sim::{FxHashMap, FxHashSet};
use nexus_trace::TaskId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A task's input/output list: each parameter's address with its tracker
/// access, in submission order.
pub type ParamList = Vec<(u64, AccessId)>;

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

/// One in-flight task.
#[derive(Debug, Clone)]
struct TaskRecord {
    params: ParamList,
    deps: u32,
}

/// A bounded pool of in-flight task records.
#[derive(Debug, Clone)]
pub struct TaskPool {
    capacity: usize,
    order: RetirementOrder,
    /// Occupied slots (admitted and not yet recycled).
    occupied: usize,
    /// The record of every admitted task that has not finished.
    records: FxHashMap<TaskId, TaskRecord>,
    /// Emptied lists of finished tasks, reused by later admissions.
    spare: Vec<ParamList>,
    /// Allocation order — maintained only under in-order recycling (free-list
    /// slots have no positional identity).
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
            occupied: 0,
            records: FxHashMap::default(),
            spare: Vec::new(),
            fifo: VecDeque::new(),
            finished_pending: FxHashSet::default(),
            stats: TaskPoolStats::default(),
        }
    }

    /// Number of occupied slots (admitted and not yet recycled).
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// True if a new task can be admitted right now.
    pub fn has_free_slot(&self) -> bool {
        self.occupied < self.capacity
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TaskPoolStats {
        self.stats
    }

    /// An empty list for the next task's parameters, recycled from a finished
    /// task when one is spare.
    pub fn empty_list(&mut self) -> ParamList {
        self.spare.pop().unwrap_or_default()
    }

    /// Stores the task `id` with its input/output list and dependence count.
    /// Returns `Err(id)` if the pool is full.
    ///
    /// # Panics
    /// Panics if `id` is already in flight.
    pub fn admit(&mut self, id: TaskId, params: ParamList, deps: u32) -> Result<(), TaskId> {
        if !self.has_free_slot() {
            self.stats.rejections += 1;
            return Err(id);
        }
        let earlier = self.records.insert(id, TaskRecord { params, deps });
        assert!(earlier.is_none(), "{id} admitted twice");
        self.occupied += 1;
        self.stats.admitted += 1;
        if self.order == RetirementOrder::InOrder {
            self.fifo.push_back(id);
        }
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupied);
        Ok(())
    }

    /// Decrements the dependence count of the waiting task `id`, one of whose
    /// parameters was released. Returns true once no dependence is left.
    ///
    /// # Panics
    /// Panics if `id` is not in flight.
    pub fn release(&mut self, id: TaskId) -> bool {
        let record = self
            .records
            .get_mut(&id)
            .unwrap_or_else(|| panic!("released task {id} is not in flight"));
        record.deps -= 1;
        record.deps == 0
    }

    /// Marks the task `id` finished, recycles whatever slots the retirement
    /// discipline allows (none under in-order recycling while an older task
    /// still runs), and returns the task's input/output list. Hand the list
    /// back through [`TaskPool::recycle`] once it has been re-distributed.
    ///
    /// # Panics
    /// Panics if `id` is not in flight.
    pub fn finish(&mut self, id: TaskId) -> ParamList {
        let record = self
            .records
            .remove(&id)
            .unwrap_or_else(|| panic!("finish() for task {id}, which is not in flight"));
        let recycled = match self.order {
            RetirementOrder::FreeList => 1,
            RetirementOrder::InOrder => {
                self.finished_pending.insert(id);
                let mut recycled = 0;
                while let Some(&head) = self.fifo.front() {
                    if !self.finished_pending.remove(&head) {
                        break;
                    }
                    self.fifo.pop_front();
                    recycled += 1;
                }
                recycled
            }
        };
        self.occupied -= recycled;
        self.stats.recycled += recycled as u64;
        record.params
    }

    /// Takes back a finished task's list for a later admission to reuse.
    pub fn recycle(&mut self, mut params: ParamList) {
        params.clear();
        self.spare.push(params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admits `id` with no parameters and no dependences.
    fn admit(p: &mut TaskPool, id: u64) -> Result<(), TaskId> {
        p.admit(TaskId(id), Vec::new(), 0)
    }

    #[test]
    fn free_list_recycles_immediately() {
        let mut p = TaskPool::new(2, RetirementOrder::FreeList);
        admit(&mut p, 0).unwrap();
        admit(&mut p, 1).unwrap();
        assert!(!p.has_free_slot());
        assert!(admit(&mut p, 2).is_err());
        assert_eq!(p.stats().rejections, 1);
        // Finishing the *second* task frees a slot immediately.
        p.finish(TaskId(1));
        assert!(p.has_free_slot());
        admit(&mut p, 2).unwrap();
        assert_eq!(p.occupancy(), 2);
        // Task 0 still holds its slot.
        p.finish(TaskId(0));
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn in_order_recycling_suffers_head_of_line_blocking() {
        let mut p = TaskPool::new(3, RetirementOrder::InOrder);
        for id in 0..3 {
            admit(&mut p, id).unwrap();
        }
        // Tasks 1 and 2 finish, but task 0 (the head) is still running:
        // no slot can be recycled.
        p.finish(TaskId(1));
        p.finish(TaskId(2));
        assert!(!p.has_free_slot());
        assert_eq!(p.stats().recycled, 0);
        // When the head finishes, all three slots recycle at once.
        p.finish(TaskId(0));
        assert_eq!(p.occupancy(), 0);
        assert_eq!(p.stats().recycled, 3);
    }

    #[test]
    fn peak_occupancy_is_tracked() {
        let mut p = TaskPool::new(8, RetirementOrder::FreeList);
        for i in 0..5 {
            admit(&mut p, i).unwrap();
        }
        for i in 0..5 {
            p.finish(TaskId(i));
        }
        assert_eq!(p.stats().peak_occupancy, 5);
        assert_eq!(p.stats().admitted, 5);
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn records_count_down_and_lists_are_reused() {
        let mut tracker = crate::DependencyTracker::new(Default::default());
        let access = tracker
            .insert_param(TaskId(0), 0x40, nexus_trace::Direction::In)
            .access;
        let mut p = TaskPool::new(4, RetirementOrder::FreeList);
        let mut params = p.empty_list();
        params.push((0x40, access));
        let list = params.as_ptr();
        p.admit(TaskId(0), params, 2).unwrap();
        assert!(!p.release(TaskId(0)));
        assert!(p.release(TaskId(0)));
        let params = p.finish(TaskId(0));
        assert_eq!(params, [(0x40, access)]);
        p.recycle(params);
        let reused = p.empty_list();
        assert!(reused.is_empty());
        assert_eq!(reused.as_ptr(), list, "the finished task's list is reused");
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn double_admission_is_rejected() {
        let mut p = TaskPool::new(4, RetirementOrder::FreeList);
        admit(&mut p, 7).unwrap();
        admit(&mut p, 7).unwrap();
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn finishing_an_unknown_task_panics() {
        let mut p = TaskPool::new(4, RetirementOrder::InOrder);
        admit(&mut p, 0).unwrap();
        p.finish(TaskId(0));
        p.finish(TaskId(0));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = TaskPool::new(0, RetirementOrder::FreeList);
    }
}
