//! The "No Overhead" ideal manager.
//!
//! §V-B: "This simulates the execution of an application without any overhead,
//! to determine the lower bound for the execution time of the benchmarks. In
//! this simulation, the simulation time does not advance while dependencies are
//! resolved. Only the execution time of the tasks is taken into account."
//!
//! [`IdealManager`] resolves dependencies with the [`ReferenceGraph`] at zero
//! simulated cost: submissions return immediately, tasks become ready the very
//! instant their last predecessor finishes, and retirement coincides with
//! completion. Comparing any real manager against it isolates the
//! dependency-resolution overhead (exactly how the paper uses its ideal curve).

use crate::manager::{ManagerEvent, TaskManager};
use nexus_sim::SimTime;
use nexus_taskgraph::ReferenceGraph;
use nexus_trace::{TaskDescriptor, TaskId};

/// The zero-overhead task manager.
#[derive(Debug, Default)]
pub struct IdealManager {
    graph: ReferenceGraph,
    pending: Vec<ManagerEvent>,
}

impl IdealManager {
    /// Creates a new ideal manager.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TaskManager for IdealManager {
    fn name(&self) -> String {
        "No Overhead".to_string()
    }

    fn can_accept(&self, _now: SimTime) -> bool {
        true // unlimited task window
    }

    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        if self.graph.insert(task) {
            self.pending.push(ManagerEvent::Ready {
                task: task.id,
                at: now,
            });
        }
        now // zero submission cost
    }

    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        for ready in self.graph.retire(task) {
            self.pending.push(ManagerEvent::Ready {
                task: ready,
                at: now,
            });
        }
        self.pending.push(ManagerEvent::Retired { task, at: now });
        now // zero notification cost
    }

    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        out.append(&mut self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sim::SimDuration;

    fn task(
        id: u64,
        build: impl FnOnce(nexus_trace::task::TaskBuilder) -> nexus_trace::task::TaskBuilder,
    ) -> TaskDescriptor {
        build(TaskDescriptor::builder(id).duration(SimDuration::from_us(5))).build()
    }

    #[test]
    fn independent_task_is_ready_immediately() {
        let mut m = IdealManager::new();
        let t = task(0, |b| b.output(0x100));
        let release = m.submit(&t, SimTime::ZERO);
        assert_eq!(release, SimTime::ZERO);
        let events = m.drain_events();
        assert_eq!(
            events,
            vec![ManagerEvent::Ready {
                task: TaskId(0),
                at: SimTime::ZERO
            }]
        );
    }

    #[test]
    fn dependent_task_becomes_ready_at_predecessor_finish_time() {
        let mut m = IdealManager::new();
        m.submit(&task(0, |b| b.output(0x100)), SimTime::ZERO);
        m.submit(&task(1, |b| b.input(0x100)), SimTime::ZERO);
        m.drain_events();
        let t_fin = SimTime::from_ps(5_000_000);
        let worker_free = m.finish(TaskId(0), t_fin);
        assert_eq!(worker_free, t_fin);
        let events = m.drain_events();
        assert!(events.contains(&ManagerEvent::Ready {
            task: TaskId(1),
            at: t_fin
        }));
        assert!(events.contains(&ManagerEvent::Retired {
            task: TaskId(0),
            at: t_fin
        }));
    }

    #[test]
    fn always_accepts_and_supports_taskwait_on() {
        let m = IdealManager::new();
        assert!(m.can_accept(SimTime::ZERO));
        assert!(m.supports_taskwait_on());
        assert_eq!(m.name(), "No Overhead");
        assert!(m.stats_summary().is_empty());
    }
}
