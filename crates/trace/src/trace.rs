//! Traces: ordered streams of runtime operations replayed by the testbench.
//!
//! A trace is what the master thread of the simulated host executes: submit a
//! task, hit a `taskwait`, hit a `taskwait on(addr)`, or spend some time in
//! serial (non-task) application code. This mirrors §V-B of the paper: "The test
//! bench simulates the RTS. It submits new tasks to Nexus#, receives ready task
//! information from it, schedules ready tasks to worker cores and simulates
//! their execution, and finally notifies Nexus# of finished tasks."

use crate::task::{TaskDescriptor, TaskId};
use nexus_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One operation performed by the master thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Submit a task to the task manager.
    Submit(TaskDescriptor),
    /// `#pragma omp taskwait`: block until every task submitted so far has
    /// finished and been retired by the manager.
    Taskwait,
    /// `#pragma omp taskwait on(addr)`: block until the most recent producer of
    /// `addr` has finished. Nexus++ does not support this pragma and escalates
    /// it to a full [`TraceOp::Taskwait`] (§III / §VI of the paper).
    TaskwaitOn(u64),
    /// Serial master-side computation between task submissions (time spent in
    /// non-task application code).
    MasterCompute(SimDuration),
}

impl TraceOp {
    /// Returns the task descriptor if this is a submission.
    pub fn as_submit(&self) -> Option<&TaskDescriptor> {
        match self {
            TraceOp::Submit(t) => Some(t),
            _ => None,
        }
    }

    /// True for `Taskwait` or `TaskwaitOn`.
    pub fn is_barrier(&self) -> bool {
        matches!(self, TraceOp::Taskwait | TraceOp::TaskwaitOn(_))
    }
}

/// A complete workload trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable benchmark name (e.g. `"h264dec-1x1-10f"`).
    pub name: String,
    /// The operations in master program order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// Appends a task submission.
    pub fn submit(&mut self, task: TaskDescriptor) {
        self.ops.push(TraceOp::Submit(task));
    }

    /// Appends a `taskwait`.
    pub fn taskwait(&mut self) {
        self.ops.push(TraceOp::Taskwait);
    }

    /// Appends a `taskwait on(addr)`.
    pub fn taskwait_on(&mut self, addr: u64) {
        self.ops.push(TraceOp::TaskwaitOn(addr));
    }

    /// Appends serial master computation.
    pub fn master_compute(&mut self, d: SimDuration) {
        self.ops.push(TraceOp::MasterCompute(d));
    }

    /// Number of task submissions in the trace.
    pub fn task_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Submit(_)))
            .count()
    }

    /// Number of barrier operations (`taskwait` + `taskwait on`).
    pub fn barrier_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_barrier()).count()
    }

    /// Number of `taskwait on` operations.
    pub fn taskwait_on_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::TaskwaitOn(_)))
            .count()
    }

    /// Sum of all task durations ("total work" in Table II).
    pub fn total_work(&self) -> SimDuration {
        self.tasks().map(|t| t.duration).sum()
    }

    /// Iterator over submitted task descriptors in submission order.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskDescriptor> {
        self.ops.iter().filter_map(|op| op.as_submit())
    }

    /// Looks up a task descriptor by id (linear scan; intended for tests).
    pub fn task(&self, id: TaskId) -> Option<&TaskDescriptor> {
        self.tasks().find(|t| t.id == id)
    }

    /// Validates internal consistency: task ids are unique and strictly
    /// increasing in submission order, every task has at least one parameter
    /// and a non-negative duration. Returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let mut last: Option<u64> = None;
        for t in self.tasks() {
            if t.params.is_empty() {
                return Err(format!("{} has no parameters", t.id));
            }
            if let Some(prev) = last {
                if t.id.0 <= prev {
                    return Err(format!(
                        "task ids must be strictly increasing: {} after T{}",
                        t.id, prev
                    ));
                }
            }
            last = Some(t.id.0);
        }
        Ok(())
    }
}

/// Incremental builder that assigns task ids in submission order.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    next_id: u64,
}

impl TraceBuilder {
    /// Creates a builder for a named trace.
    pub fn new(name: impl Into<String>) -> Self {
        TraceBuilder {
            trace: Trace::new(name),
            next_id: 0,
        }
    }

    /// Next task id that will be assigned.
    pub fn next_id(&self) -> TaskId {
        TaskId(self.next_id)
    }

    /// Submits a task built from a closure receiving the assigned id.
    pub fn submit_with(&mut self, f: impl FnOnce(TaskId) -> TaskDescriptor) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let task = f(id);
        debug_assert_eq!(task.id, id, "builder closure must keep the assigned id");
        self.trace.submit(task);
        id
    }

    /// Appends a `taskwait`.
    pub fn taskwait(&mut self) {
        self.trace.taskwait();
    }

    /// Appends a `taskwait on(addr)`.
    pub fn taskwait_on(&mut self, addr: u64) {
        self.trace.taskwait_on(addr);
    }

    /// Appends serial master compute time.
    pub fn master_compute(&mut self, d: SimDuration) {
        self.trace.master_compute(d);
    }

    /// Finalizes the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskDescriptor;

    fn simple_task(id: TaskId, us: f64) -> TaskDescriptor {
        TaskDescriptor::builder(id.0)
            .inout(0x1000 + id.0 * 64)
            .duration_us(us)
            .build()
    }

    #[test]
    fn counting_and_total_work() {
        let mut b = TraceBuilder::new("unit");
        b.submit_with(|id| simple_task(id, 10.0));
        b.submit_with(|id| simple_task(id, 20.0));
        b.taskwait();
        b.submit_with(|id| simple_task(id, 30.0));
        b.taskwait_on(0x1000);
        b.master_compute(SimDuration::from_us(5));
        let t = b.finish();

        assert_eq!(t.task_count(), 3);
        assert_eq!(t.barrier_count(), 2);
        assert_eq!(t.taskwait_on_count(), 1);
        assert_eq!(t.total_work(), SimDuration::from_us(60));
        assert!(t.validate().is_ok());
        assert_eq!(
            t.task(TaskId(1)).unwrap().duration,
            SimDuration::from_us(20)
        );
        assert!(t.task(TaskId(99)).is_none());
    }

    #[test]
    fn builder_assigns_monotone_ids() {
        let mut b = TraceBuilder::new("ids");
        assert_eq!(b.next_id(), TaskId(0));
        let a = b.submit_with(|id| simple_task(id, 1.0));
        let c = b.submit_with(|id| simple_task(id, 1.0));
        assert_eq!(a, TaskId(0));
        assert_eq!(c, TaskId(1));
        assert_eq!(b.next_id(), TaskId(2));
    }

    #[test]
    fn validate_rejects_empty_param_list() {
        let mut t = Trace::new("bad");
        t.submit(TaskDescriptor::builder(0).duration_us(1.0).build());
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_monotone_ids() {
        let mut t = Trace::new("bad");
        t.submit(simple_task(TaskId(5), 1.0));
        t.submit(simple_task(TaskId(3), 1.0));
        let err = t.validate().unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn trace_op_helpers() {
        let op = TraceOp::Submit(simple_task(TaskId(0), 1.0));
        assert!(op.as_submit().is_some());
        assert!(!op.is_barrier());
        assert!(TraceOp::Taskwait.is_barrier());
        assert!(TraceOp::TaskwaitOn(5).is_barrier());
        assert!(TraceOp::Taskwait.as_submit().is_none());
    }
}
