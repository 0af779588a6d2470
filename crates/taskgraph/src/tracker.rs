//! The functional dependency-resolution core shared by the hardware models.
//!
//! A [`DependencyTracker`] owns the per-address state for a *subset* of the
//! address space: the single central task graph of Nexus++ owns all addresses,
//! while each Nexus# task graph owns the addresses its distribution function
//! maps to it. The tracker implements full OmpSs dependency semantics:
//!
//! * an `in` parameter waits for the most recent unretired *writer* of the
//!   address (read-after-write),
//! * an `out`/`inout` parameter waits for every unretired earlier access of the
//!   address (write-after-write and write-after-read),
//!
//! and reports, per parameter insertion, whether the task has to wait
//! ([`InsertOutcome`]) and, per parameter retirement, which waiting tasks lost
//! their last blocker on this address ([`RetireOutcome`]). The caller (the
//! task-graph unit or the Dependence Counts Arbiter) aggregates these
//! per-address events into per-task dependence counts.
//!
//! Each address keeps its outstanding accesses in one queue, in insertion
//! order, and counts instead of listing who waits for whom. That relies on
//! one rule the managers keep: **a parameter retires only after its task was
//! released** (a task retires only after it ran). Under that rule
//!
//! * a waiting writer waits for every access ahead of it in the queue, so it
//!   is released when it becomes the oldest outstanding access,
//! * a waiting reader waits for the newest writer ahead of it, and the
//!   readers that waited for a writer are the ones directly behind it,
//! * writers retire in insertion order, so the newest outstanding writer is
//!   the newest writer inserted, if that one is still outstanding,
//!
//! and a retirement touches only the tasks it releases: the kick-off-list walk
//! the timing models charge for ([`RetireOutcome::waiters_scanned`]) comes
//! from a count of the writers inserted behind the access plus the readers it
//! releases. The queues are linked through one slab of access slots that is
//! recycled, so the tracker allocates nothing in steady state.
//!
//! Storage is the paper's set-associative table ([`SetAssocTable`]); overflow
//! (dummy-entry) usage and kick-off-list segment chaining are reported so the
//! timing models can charge extra cycles for them.

use crate::assoc::{Placement, SetAssocConfig, SetAssocTable};
use nexus_trace::{Direction, TaskId};
use serde::{Deserialize, Serialize};

/// Waiter slots per kick-off-list segment. Each task graph keeps "a Kick-Off
/// List for each incoming memory address" (§IV-C); in the VHDL design a list
/// entry is a fixed-size segment, and when more tasks wait on an address than
/// one segment holds, a dummy entry is chained (the Gaussian-elimination
/// benchmark's first pivot row is awaited by `n − 1` tasks). Traversing the
/// extra segments costs extra cycles, which the timing models charge through
/// [`InsertOutcome::kickoff_segment`].
pub const DEFAULT_SEGMENT_CAPACITY: usize = 8;

/// The end of an address's access queue.
const NIL: u32 = u32::MAX;

/// Handle of one outstanding access, returned by
/// [`DependencyTracker::insert_param`] and handed back to
/// [`DependencyTracker::retire_param`] so the retirement finds its access
/// without a search. It is valid until that retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessId(u32);

/// One outstanding (unretired) access by one task parameter: a node of its
/// address's queue.
#[derive(Debug, Clone, Copy)]
struct Access {
    task: TaskId,
    writes: bool,
    /// Writers the address's entry had seen before this access was inserted.
    writers_before: u64,
    /// Neighbours in the address's queue (`NIL` at either end). A free slot
    /// links the free list through `next`.
    prev: u32,
    next: u32,
}

/// Per-address tracking state: a queue of outstanding accesses and counters.
#[derive(Debug, Clone, Copy)]
struct AddrState {
    /// Oldest and newest outstanding accesses.
    head: u32,
    tail: u32,
    /// The newest outstanding writer, or `NIL`.
    last_writer: u32,
    /// Outstanding accesses.
    outstanding: usize,
    /// Writers inserted since the entry was allocated.
    writers: u64,
    /// Number of tasks currently waiting on this address (the kick-off list
    /// occupancy).
    kickoff_len: usize,
    /// High-water mark of the kick-off list.
    kickoff_peak: usize,
}

impl AddrState {
    const EMPTY: AddrState = AddrState {
        head: NIL,
        tail: NIL,
        last_writer: NIL,
        outstanding: 0,
        writers: 0,
        kickoff_len: 0,
        kickoff_peak: 0,
    };

    fn kickoff_segments(&self) -> usize {
        self.kickoff_len.div_ceil(DEFAULT_SEGMENT_CAPACITY)
    }
}

/// The access slots of every queue, with a free list threaded through them.
#[derive(Debug, Clone)]
struct Slab {
    slots: Vec<Access>,
    free: u32,
}

impl Slab {
    fn alloc(&mut self, access: Access) -> u32 {
        if self.free == NIL {
            self.slots.push(access);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 outstanding accesses")
        } else {
            let id = self.free;
            self.free = self.slots[id as usize].next;
            self.slots[id as usize] = access;
            id
        }
    }

    fn release(&mut self, id: u32) {
        self.slots[id as usize].next = self.free;
        self.free = id;
    }
}

impl std::ops::Index<u32> for Slab {
    type Output = Access;
    fn index(&self, id: u32) -> &Access {
        &self.slots[id as usize]
    }
}

impl std::ops::IndexMut<u32> for Slab {
    fn index_mut(&mut self, id: u32) -> &mut Access {
        &mut self.slots[id as usize]
    }
}

/// Result of inserting one task parameter into the task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InsertOutcome {
    /// True if the parameter has unresolved predecessors (the task must wait
    /// for this address).
    pub blocked: bool,
    /// True if a new address entry had to be allocated.
    pub new_entry: bool,
    /// True if the entry lives in the overflow (dummy-entry) area.
    pub overflow: bool,
    /// Kick-off-list segment the waiter landed in (0 if not blocked);
    /// segments beyond the first model dummy-entry chaining cycles.
    pub kickoff_segment: usize,
    /// The access to hand back to [`DependencyTracker::retire_param`].
    pub access: AccessId,
}

/// Result of retiring one task parameter. The tasks it released were
/// appended to the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireOutcome {
    /// True if the address entry became empty and was freed.
    pub entry_freed: bool,
    /// Number of waiters examined while walking the kick-off list (for timing).
    pub waiters_scanned: usize,
}

/// Statistics of a dependency tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrackerStats {
    /// Parameters inserted.
    pub params_inserted: u64,
    /// Parameters that had to wait.
    pub params_blocked: u64,
    /// Parameters retired.
    pub params_retired: u64,
    /// Largest kick-off list observed.
    pub max_kickoff_len: usize,
    /// Largest number of outstanding accesses on one address.
    pub max_accesses_per_addr: usize,
}

/// Dependency tracker over a (subset of the) address space.
#[derive(Debug, Clone)]
pub struct DependencyTracker {
    table: SetAssocTable<AddrState>,
    accesses: Slab,
    stats: TrackerStats,
}

impl DependencyTracker {
    /// Creates a tracker with the given table geometry.
    pub fn new(config: SetAssocConfig) -> Self {
        DependencyTracker {
            table: SetAssocTable::new(config),
            accesses: Slab {
                slots: Vec::new(),
                free: NIL,
            },
            stats: TrackerStats::default(),
        }
    }

    /// Creates a tracker with the default geometry.
    pub fn with_default_geometry() -> Self {
        Self::new(SetAssocConfig::default())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TrackerStats {
        self.stats
    }

    /// Number of live address entries.
    pub fn live_addresses(&self) -> usize {
        self.table.len()
    }

    /// Underlying table statistics (occupancy, overflow usage).
    pub fn table_stats(&self) -> crate::assoc::TableStats {
        self.table.stats()
    }

    /// Inserts one parameter of `task` into the graph.
    ///
    /// Parameters must be inserted in task submission order per address, and
    /// all of a task's parameters at once (the managers guarantee both by
    /// processing requests in order per task graph).
    pub fn insert_param(&mut self, task: TaskId, addr: u64, dir: Direction) -> InsertOutcome {
        self.stats.params_inserted += 1;
        let (state, placement, new_entry) =
            self.table.get_or_insert_with(addr, || AddrState::EMPTY);
        let writes = dir.writes();
        debug_assert!(
            state.tail == NIL || self.accesses[state.tail].task != task,
            "{task} inserted two parameters on address {addr:#x}"
        );

        // WAW + WAR: a writer waits for every outstanding access. RAW: a
        // reader waits for the most recent outstanding writer only.
        let blocked = if writes {
            state.outstanding > 0
        } else {
            state.last_writer != NIL
        };
        let mut kickoff_segment = 0;
        if blocked {
            self.stats.params_blocked += 1;
            state.kickoff_len += 1;
            state.kickoff_peak = state.kickoff_peak.max(state.kickoff_len);
            kickoff_segment = state.kickoff_segments();
        }

        // Queue this task's own access so later tasks can depend on it.
        let id = self.accesses.alloc(Access {
            task,
            writes,
            writers_before: state.writers,
            prev: state.tail,
            next: NIL,
        });
        match state.tail {
            NIL => state.head = id,
            tail => self.accesses[tail].next = id,
        }
        state.tail = id;
        state.outstanding += 1;
        if writes {
            state.writers += 1;
            state.last_writer = id;
        }

        self.stats.max_kickoff_len = self.stats.max_kickoff_len.max(state.kickoff_peak);
        self.stats.max_accesses_per_addr = self.stats.max_accesses_per_addr.max(state.outstanding);

        InsertOutcome {
            blocked,
            new_entry,
            overflow: placement == Placement::Overflow,
            kickoff_segment,
            access: AccessId(id),
        }
    }

    /// Retires the parameter of `task` on `addr` that
    /// [`insert_param`](Self::insert_param) returned `access` for (the task
    /// has finished executing and the manager is cleaning up its entries).
    /// Appends to `released` the tasks whose dependency on this address is now
    /// fully resolved, in the order they were inserted.
    pub fn retire_param(
        &mut self,
        task: TaskId,
        addr: u64,
        access: AccessId,
        released: &mut Vec<TaskId>,
    ) -> RetireOutcome {
        self.stats.params_retired += 1;
        let (state, _) = self
            .table
            .get_mut(addr)
            .unwrap_or_else(|| panic!("retire_param: no entry for address {addr:#x}"));
        let id = access.0;
        let a = self.accesses[id];
        debug_assert_eq!(a.task, task, "retire_param: {access:?} is not {task}'s");

        // The readers that waited for a retiring writer sit directly behind
        // it, and it is their only blocker on this address.
        let mut readers = 0;
        if a.writes {
            let mut next = a.next;
            while next != NIL && !self.accesses[next].writes {
                released.push(self.accesses[next].task);
                readers += 1;
                next = self.accesses[next].next;
            }
        }
        // Every later writer waited for this access too.
        let later_writers = state.writers - a.writers_before - u64::from(a.writes);
        let waiters_scanned = later_writers as usize + readers;

        match a.prev {
            NIL => state.head = a.next,
            prev => self.accesses[prev].next = a.next,
        }
        match a.next {
            NIL => state.tail = a.prev,
            next => self.accesses[next].prev = a.prev,
        }
        if state.last_writer == id {
            state.last_writer = NIL;
        }
        state.outstanding -= 1;
        self.accesses.release(id);
        state.kickoff_len -= readers;

        // A waiting writer is released once it is the oldest access left.
        if a.prev == NIL && state.head != NIL && self.accesses[state.head].writes {
            released.push(self.accesses[state.head].task);
            state.kickoff_len -= 1;
        }

        let entry_freed = state.outstanding == 0;
        if entry_freed {
            debug_assert_eq!(state.kickoff_len, 0, "waiters left on a freed entry");
            self.table.remove(addr);
        }
        RetireOutcome {
            entry_freed,
            waiters_scanned,
        }
    }

    /// True if `task` still waits on `addr`. Walks the address's queue; for
    /// tests and diagnostics.
    pub fn is_waiting(&self, task: TaskId, addr: u64) -> bool {
        let Some((state, _)) = self.table.get(addr) else {
            return false;
        };
        let (mut any_ahead, mut writer_ahead) = (false, false);
        let mut id = state.head;
        while id != NIL {
            let a = &self.accesses[id];
            if a.task == task {
                return if a.writes { any_ahead } else { writer_ahead };
            }
            any_ahead = true;
            writer_ahead |= a.writes;
            id = a.next;
        }
        false
    }

    /// Current kick-off-list length of an address (0 if untracked).
    pub fn kickoff_len(&self, addr: u64) -> usize {
        self.table
            .get(addr)
            .map(|(s, _)| s.kickoff_len)
            .unwrap_or(0)
    }

    /// Number of outstanding accesses on an address (0 if untracked).
    pub fn outstanding_accesses(&self, addr: u64) -> usize {
        self.table
            .get(addr)
            .map(|(s, _)| s.outstanding)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TaskId {
        TaskId(id)
    }

    /// Retires the access `inserted` reported, returning the outcome and the
    /// tasks it released.
    fn retire(
        g: &mut DependencyTracker,
        task: TaskId,
        addr: u64,
        inserted: InsertOutcome,
    ) -> (RetireOutcome, Vec<TaskId>) {
        let mut released = Vec::new();
        let out = g.retire_param(task, addr, inserted.access, &mut released);
        (out, released)
    }

    #[test]
    fn raw_dependency_is_tracked_and_released() {
        let mut g = DependencyTracker::with_default_geometry();
        // T0 writes A, T1 reads A => T1 waits for T0.
        let a = 0x1000;
        let o0 = g.insert_param(t(0), a, Direction::Out);
        assert!(!o0.blocked);
        assert!(o0.new_entry);
        let o1 = g.insert_param(t(1), a, Direction::In);
        assert!(o1.blocked);
        assert_eq!(o1.kickoff_segment, 1);
        assert!(g.is_waiting(t(1), a));
        assert_eq!(g.kickoff_len(a), 1);

        let (r, released) = retire(&mut g, t(0), a, o0);
        assert_eq!(released, vec![t(1)]);
        assert!(!g.is_waiting(t(1), a));
        assert!(!r.entry_freed, "T1's own access is still outstanding");
        let (r1, _) = retire(&mut g, t(1), a, o1);
        assert!(r1.entry_freed);
        assert_eq!(g.live_addresses(), 0);
    }

    #[test]
    fn concurrent_readers_do_not_block_each_other() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x2000;
        let o0 = g.insert_param(t(0), a, Direction::Out);
        retire(&mut g, t(0), a, o0);
        // Writer retired: two readers arrive, neither blocks.
        assert!(!g.insert_param(t(1), a, Direction::In).blocked);
        assert!(!g.insert_param(t(2), a, Direction::In).blocked);
    }

    #[test]
    fn war_dependency_waits_for_all_readers() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x3000;
        let o0 = g.insert_param(t(0), a, Direction::Out);
        retire(&mut g, t(0), a, o0);
        let o1 = g.insert_param(t(1), a, Direction::In);
        let o2 = g.insert_param(t(2), a, Direction::In);
        // A writer after two outstanding readers waits for both.
        let o = g.insert_param(t(3), a, Direction::InOut);
        assert!(o.blocked);
        let (_, r1) = retire(&mut g, t(1), a, o1);
        assert!(r1.is_empty(), "still blocked by the second reader");
        let (_, r2) = retire(&mut g, t(2), a, o2);
        assert_eq!(r2, vec![t(3)]);
    }

    #[test]
    fn waw_chain_serializes() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x4000;
        let o0 = g.insert_param(t(0), a, Direction::InOut);
        assert!(!o0.blocked);
        let o1 = g.insert_param(t(1), a, Direction::InOut);
        assert!(o1.blocked);
        assert!(g.insert_param(t(2), a, Direction::InOut).blocked);
        // Retiring T0 releases T1 but not T2 (T2 also waits on T1).
        let (_, r) = retire(&mut g, t(0), a, o0);
        assert_eq!(r, vec![t(1)]);
        assert!(g.is_waiting(t(2), a));
        let (_, r) = retire(&mut g, t(1), a, o1);
        assert_eq!(r, vec![t(2)]);
    }

    #[test]
    fn reader_only_waits_for_most_recent_writer() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x5000;
        g.insert_param(t(0), a, Direction::Out); // writer 1 (outstanding)
        let o1 = g.insert_param(t(1), a, Direction::Out); // writer 2 (outstanding, waits on writer 1)
        let o = g.insert_param(t(2), a, Direction::In);
        assert!(o.blocked);
        // Retiring writer 2 releases the reader even though writer 1 is still
        // outstanding: the reader's only blocker is the most recent writer.
        // (Writer 2 could not have run before writer 1 retired, so in a real
        // execution this ordering cannot happen; the tracker is still safe.)
        let (_, r) = retire(&mut g, t(1), a, o1);
        assert!(r.contains(&t(2)));
    }

    #[test]
    fn long_kickoff_lists_report_segments() {
        let mut g = DependencyTracker::with_default_geometry();
        let a = 0x7000;
        let o0 = g.insert_param(t(0), a, Direction::Out);
        let mut max_seg = 0;
        for i in 1..=100 {
            let o = g.insert_param(t(i), a, Direction::In);
            assert!(o.blocked);
            max_seg = max_seg.max(o.kickoff_segment);
        }
        assert!(max_seg >= 100 / DEFAULT_SEGMENT_CAPACITY);
        assert_eq!(g.kickoff_len(a), 100);
        // Retiring the producer releases all 100 readers at once.
        let (r, released) = retire(&mut g, t(0), a, o0);
        assert_eq!(released.len(), 100);
        assert_eq!(r.waiters_scanned, 100);
        assert_eq!(g.stats().max_kickoff_len, 100);
    }

    #[test]
    fn stats_accumulate() {
        let mut g = DependencyTracker::with_default_geometry();
        g.insert_param(t(0), 0x10, Direction::Out);
        g.insert_param(t(1), 0x10, Direction::In);
        g.insert_param(t(1), 0x20, Direction::Out);
        let s = g.stats();
        assert_eq!(s.params_inserted, 3);
        assert_eq!(s.params_blocked, 1);
        assert_eq!(g.outstanding_accesses(0x10), 2);
        assert_eq!(g.outstanding_accesses(0x999), 0);
        assert_eq!(g.live_addresses(), 2);
    }

    #[test]
    fn overflow_placement_is_reported() {
        let mut g = DependencyTracker::new(SetAssocConfig {
            sets: 2,
            ways: 1,
            line_offset_bits: 6,
        });
        // Four distinct addresses mapping to the two sets: the third and fourth
        // allocations overflow.
        let outcomes: Vec<_> = (0..4u64)
            .map(|i| g.insert_param(t(i), i * 64, Direction::Out))
            .collect();
        assert!(outcomes.iter().filter(|o| o.overflow).count() >= 2);
        // Entries are freed on retirement even from the overflow area.
        for (i, &o) in (0..4u64).zip(&outcomes) {
            retire(&mut g, t(i), i * 64, o);
        }
        assert_eq!(g.live_addresses(), 0);
    }
}
