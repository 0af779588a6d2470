//! The master-thread state machine, shared by the single-node host driver and
//! the multi-node cluster driver.
//!
//! Both drivers replay a trace from one master thread: execute operations in
//! program order, block on `taskwait` / `taskwait on` until the relevant
//! retirements are visible, and (in the host driver) block on task-pool
//! back-pressure. The two copies of that logic differed only in
//!
//! * **back-pressure** — the host master blocks synchronously when the
//!   manager's task pool is full ([`MasterSm::block_on_capacity`]); the
//!   cluster master forwards descriptors asynchronously and never blocks on
//!   capacity (each node's input processor holds them instead), so it simply
//!   never calls it, and
//! * **retirement visibility** — the host master sees retirements directly
//!   from the manager's event stream; the cluster master sees them when the
//!   notification message crosses the interconnect. Both feed
//!   [`MasterSm::on_retired`], only *when* differs.
//!
//! [`MasterSm`] owns the operation cursor, the submitted/retired census, the
//! `last_writer` map that gives `taskwait on` its target, and the
//! barrier/back-pressure time bookkeeping. The drivers own everything timing-
//! and transport-related: what submitting a task costs, and when a retirement
//! becomes visible.

use nexus_sim::{FxHashMap, FxHashSet};
use nexus_sim::{SimDuration, SimTime};
use nexus_trace::{TaskDescriptor, TaskId, Trace, TraceOp};

/// What the master thread is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Executing trace operations (a master-step event is pending).
    Running,
    /// Waiting for every submitted task (`None`) or one task (`Some`) to
    /// retire, as visible to the master.
    WaitingBarrier(Option<TaskId>),
    /// Waiting for the manager to accept a new submission (task pool full).
    WaitingCapacity,
    /// Trace fully processed.
    Done,
}

/// What the driver must do next, as decided by [`MasterSm::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MasterStep<'a> {
    /// Submit this task. The driver must either complete the submission and
    /// call [`MasterSm::commit_submit`], or call
    /// [`MasterSm::block_on_capacity`] if the manager back-pressures. The
    /// operation cursor does not advance until the commit.
    Submit(&'a TaskDescriptor),
    /// Serial master-side compute: schedule the next step after this long.
    Compute(SimDuration),
    /// A barrier was already satisfied: schedule the next step immediately.
    Continue,
    /// The master entered a barrier wait; [`MasterSm::on_retired`] resumes it.
    Waiting,
    /// The trace is fully processed.
    Done,
}

/// The master-thread state machine (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct MasterSm {
    state: State,
    op_idx: usize,
    submitted: u64,
    retired: FxHashSet<TaskId>,
    last_writer: FxHashMap<u64, TaskId>,
    barrier_since: Option<SimTime>,
    barrier_time: SimDuration,
    backpressure_since: Option<SimTime>,
    backpressure_time: SimDuration,
}

impl Default for MasterSm {
    fn default() -> Self {
        Self::new()
    }
}

impl MasterSm {
    /// A master at the start of its trace.
    pub fn new() -> Self {
        MasterSm {
            state: State::Running,
            op_idx: 0,
            submitted: 0,
            retired: FxHashSet::default(),
            last_writer: FxHashMap::default(),
            barrier_since: None,
            barrier_time: SimDuration::ZERO,
            backpressure_since: None,
            backpressure_time: SimDuration::ZERO,
        }
    }

    /// Executes the master's next trace operation at `now` and returns what
    /// the driver must do. Barrier operations are resolved internally
    /// (`supports_taskwait_on` controls whether `taskwait on` escalates to a
    /// full `taskwait`, as it must for managers without support).
    pub fn step<'a>(
        &mut self,
        trace: &'a Trace,
        now: SimTime,
        supports_taskwait_on: bool,
    ) -> MasterStep<'a> {
        if self.state == State::Done {
            return MasterStep::Done;
        }
        self.state = State::Running;
        match trace.ops.get(self.op_idx) {
            None => {
                self.state = State::Done;
                MasterStep::Done
            }
            Some(TraceOp::Submit(task)) => MasterStep::Submit(task),
            Some(TraceOp::Taskwait) => {
                if self.all_retired() {
                    self.op_idx += 1;
                    MasterStep::Continue
                } else {
                    self.state = State::WaitingBarrier(None);
                    self.barrier_since.get_or_insert(now);
                    MasterStep::Waiting
                }
            }
            Some(TraceOp::TaskwaitOn(addr)) => {
                let target = if supports_taskwait_on {
                    self.last_writer.get(addr).copied()
                } else {
                    None // escalate to a full taskwait (Nexus++ behaviour)
                };
                let satisfied = match target {
                    Some(t) => self.retired.contains(&t),
                    None => supports_taskwait_on || self.all_retired(),
                };
                if satisfied {
                    self.op_idx += 1;
                    MasterStep::Continue
                } else {
                    self.state = State::WaitingBarrier(target);
                    self.barrier_since.get_or_insert(now);
                    MasterStep::Waiting
                }
            }
            Some(TraceOp::MasterCompute(d)) => {
                self.op_idx += 1;
                MasterStep::Compute(*d)
            }
        }
    }

    /// The driver completed the submission returned by [`MasterSm::step`]:
    /// record it, close any back-pressure interval, and advance the cursor.
    pub fn commit_submit(&mut self, task: &TaskDescriptor, now: SimTime) {
        if let Some(since) = self.backpressure_since.take() {
            self.backpressure_time += now.since(since);
        }
        self.submitted += 1;
        for p in task.outputs() {
            self.last_writer.insert(p.addr, task.id);
        }
        self.op_idx += 1;
    }

    /// The manager back-pressured the submission returned by
    /// [`MasterSm::step`]: the master blocks (cursor unchanged) until a
    /// retirement wakes it via [`MasterSm::on_retired`].
    pub fn block_on_capacity(&mut self, now: SimTime) {
        self.state = State::WaitingCapacity;
        self.backpressure_since.get_or_insert(now);
    }

    /// A retirement became visible to the master at `now`. Returns `true` if
    /// the master was blocked and must be rescheduled (a master-step event at
    /// `now`).
    pub fn on_retired(&mut self, task: TaskId, now: SimTime) -> bool {
        self.retired.insert(task);
        match self.state {
            State::WaitingCapacity => {
                self.state = State::Running;
                true
            }
            State::WaitingBarrier(target) => {
                let satisfied = match target {
                    Some(t) => self.retired.contains(&t),
                    None => self.all_retired(),
                };
                if satisfied {
                    if let Some(since) = self.barrier_since.take() {
                        self.barrier_time += now.since(since);
                    }
                    self.state = State::Running;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// True once the whole trace has been processed.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Retirements visible to the master so far.
    pub fn retired_count(&self) -> u64 {
        self.retired.len() as u64
    }

    /// The master's final last-writer table — `(address, last writing task)`
    /// pairs sorted by address. A pure function of the committed submissions,
    /// which makes it a cheap cross-check that two drivers (e.g. the event
    /// simulator and the threaded runtime) committed the same submissions in
    /// the same program order.
    pub fn last_writer_table(&self) -> Vec<(u64, TaskId)> {
        let mut table: Vec<(u64, TaskId)> =
            self.last_writer.iter().map(|(&a, &t)| (a, t)).collect();
        table.sort_unstable_by_key(|&(a, _)| a);
        table
    }

    /// Total time the master spent blocked on barriers.
    pub fn barrier_time(&self) -> SimDuration {
        self.barrier_time
    }

    /// Total time the master spent blocked on task-pool back-pressure.
    pub fn backpressure_time(&self) -> SimDuration {
        self.backpressure_time
    }

    fn all_retired(&self) -> bool {
        self.retired.len() as u64 == self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::ZERO + us(v)
    }

    fn trace() -> Trace {
        let mut b = nexus_trace::trace::TraceBuilder::new("sm-unit");
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .output(0x100)
                .duration(us(10))
                .build()
        });
        b.taskwait_on(0x100);
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .input(0x100)
                .output(0x200)
                .duration(us(10))
                .build()
        });
        b.master_compute(us(5));
        b.taskwait();
        b.finish()
    }

    #[test]
    fn replays_a_trace_in_order_with_barrier_bookkeeping() {
        let trace = trace();
        let mut sm = MasterSm::new();

        // Submit T0.
        let MasterStep::Submit(task0) = sm.step(&trace, t(0), true) else {
            panic!("expected a submit")
        };
        let id0 = task0.id;
        sm.commit_submit(&task0.clone(), t(0));

        // `taskwait on(0x100)` targets T0, which has not retired.
        assert_eq!(sm.step(&trace, t(1), true), MasterStep::Waiting);
        assert!(sm.on_retired(id0, t(11)), "barrier must release");
        assert_eq!(sm.barrier_time(), us(10));

        // The barrier is satisfied on re-step; then T1 is submitted.
        assert_eq!(sm.step(&trace, t(11), true), MasterStep::Continue);
        let MasterStep::Submit(task1) = sm.step(&trace, t(11), true) else {
            panic!("expected a submit")
        };
        let id1 = task1.id;
        sm.commit_submit(&task1.clone(), t(11));

        // Serial compute, then the final taskwait blocks until T1 retires.
        assert_eq!(sm.step(&trace, t(11), true), MasterStep::Compute(us(5)));
        assert_eq!(sm.step(&trace, t(16), true), MasterStep::Waiting);
        assert!(sm.on_retired(id1, t(30)));
        assert_eq!(sm.step(&trace, t(30), true), MasterStep::Continue);
        assert_eq!(sm.step(&trace, t(30), true), MasterStep::Done);
        assert!(sm.is_done());
        assert_eq!(sm.submitted(), 2);
        assert_eq!(sm.retired_count(), 2);
        assert_eq!(sm.barrier_time(), us(10) + us(14));
        assert_eq!(sm.backpressure_time(), SimDuration::ZERO);
    }

    #[test]
    fn taskwait_on_escalates_without_manager_support() {
        let trace = trace();
        let mut sm = MasterSm::new();
        let MasterStep::Submit(task0) = sm.step(&trace, t(0), false) else {
            panic!("expected a submit")
        };
        let task0 = task0.clone();
        sm.commit_submit(&task0, t(0));
        // Without `taskwait on` support the barrier waits for *all* tasks.
        assert_eq!(sm.step(&trace, t(1), false), MasterStep::Waiting);
        assert!(sm.on_retired(task0.id, t(20)));
        assert_eq!(sm.step(&trace, t(20), false), MasterStep::Continue);
    }

    #[test]
    fn capacity_blocking_accumulates_backpressure_time() {
        let trace = trace();
        let mut sm = MasterSm::new();
        let MasterStep::Submit(_) = sm.step(&trace, t(0), true) else {
            panic!("expected a submit")
        };
        sm.block_on_capacity(t(0));
        // A retirement wakes the master; the same submit is offered again.
        assert!(sm.on_retired(TaskId(99), t(7)));
        let MasterStep::Submit(task) = sm.step(&trace, t(7), true) else {
            panic!("submit must be re-offered")
        };
        sm.commit_submit(&task.clone(), t(7));
        assert_eq!(sm.backpressure_time(), us(7));
        assert_eq!(sm.submitted(), 1);
    }

    #[test]
    fn empty_trace_is_done_immediately() {
        let trace = Trace::new("empty");
        let mut sm = MasterSm::new();
        assert_eq!(sm.step(&trace, t(0), true), MasterStep::Done);
        assert!(sm.is_done());
        assert_eq!(sm.step(&trace, t(1), true), MasterStep::Done);
    }
}
