//! The task-manager interface seen by the simulated runtime system.
//!
//! A [`TaskManager`] is a *timed functional model*: it is functionally exact
//! about dependency resolution (which tasks become ready, and in which causal
//! order) and it expresses its cost by returning/annotating timestamps. The
//! host driver never inspects manager internals; it only:
//!
//! 1. asks whether a new task can be accepted ([`TaskManager::can_accept`] —
//!    back-pressure from the task pool),
//! 2. submits tasks ([`TaskManager::submit`] — returns when the master's
//!    submission interface is free again),
//! 3. notifies completions ([`TaskManager::finish`] — returns when the worker
//!    is released),
//! 4. charges the per-dispatch cost of handing a ready task to a worker
//!    ([`TaskManager::dispatch_cost`]),
//! 5. drains timestamped [`ManagerEvent`]s: *ready* (the task may start
//!    executing at that time) and *retired* (the manager has finished all
//!    bookkeeping for the task — `taskwait` waits for this).

use nexus_sim::{SimDuration, SimTime};
use nexus_trace::{TaskDescriptor, TaskId};

/// A timestamped notification produced by a task manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerEvent {
    /// The task's dependencies are resolved and its id has been written back to
    /// the runtime: it may start executing at `at`.
    Ready {
        /// The ready task.
        task: TaskId,
        /// When the ready notification reaches the runtime.
        at: SimTime,
    },
    /// The manager has completed all bookkeeping for a finished task (its
    /// entries are cleaned up and its task-pool slot accounted). `taskwait`
    /// semantics are defined over retirement.
    Retired {
        /// The retired task.
        task: TaskId,
        /// When retirement completes.
        at: SimTime,
    },
}

impl ManagerEvent {
    /// The timestamp of the event.
    pub fn at(&self) -> SimTime {
        match self {
            ManagerEvent::Ready { at, .. } | ManagerEvent::Retired { at, .. } => *at,
        }
    }
}

/// The manager-side interface of the simulated runtime system.
pub trait TaskManager {
    /// Short human-readable name ("No Overhead", "Nanos", "Nexus++",
    /// "Nexus# (6 TGs)").
    fn name(&self) -> String;

    /// True if the manager can accept a new task submission at `now`
    /// (task-pool back-pressure). The driver re-checks after every retirement.
    fn can_accept(&self, now: SimTime) -> bool;

    /// The master submits `task` at `now`. Returns the time at which the master
    /// can continue with its next operation (submission interface busy time,
    /// software task-creation time, …). Readiness is reported asynchronously
    /// through [`TaskManager::drain_events_into`].
    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime;

    /// A worker reports at `now` that `task` finished executing. Returns the
    /// time at which the worker is free to pick up new work (notification
    /// cost). Kick-offs and retirement are reported through
    /// [`TaskManager::drain_events_into`].
    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime;

    /// Cost charged when a ready task is handed to a worker (the runtime's
    /// scheduling path). Defaults to zero; the software runtime model uses it.
    fn dispatch_cost(&mut self, _task: TaskId, _now: SimTime) -> SimDuration {
        SimDuration::ZERO
    }

    /// Whether the manager implements the `taskwait on(addr)` pragma. Managers
    /// without support force the runtime to escalate to a full `taskwait`
    /// (§III/§VI: Nexus++ does not support it).
    fn supports_taskwait_on(&self) -> bool {
        true
    }

    /// Appends all pending notifications produced by earlier calls to `out`.
    /// Timestamps are at or after the call that generated them. The drivers
    /// call this on their event hot path with a reused buffer; a manager that
    /// keeps its notifications in a buffer of its own moves them with
    /// `out.append`, which keeps both buffers' capacity.
    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>);

    /// Drains all pending notifications into a new vector (see
    /// [`TaskManager::drain_events_into`]).
    fn drain_events(&mut self) -> Vec<ManagerEvent> {
        let mut events = Vec::new();
        self.drain_events_into(&mut events);
        events
    }

    /// Optional diagnostic key/value summary (utilizations, stall counts, …)
    /// reported at the end of a simulation.
    fn stats_summary(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_timestamps_are_accessible() {
        let t = SimTime::from_ps(123);
        assert_eq!(
            ManagerEvent::Ready {
                task: TaskId(1),
                at: t
            }
            .at(),
            t
        );
        assert_eq!(
            ManagerEvent::Retired {
                task: TaskId(1),
                at: t
            }
            .at(),
            t
        );
    }
}
