//! Tasks submitted to the runtime, and the submission error type.

use nexus_trace::TaskDescriptor;
use std::fmt;

/// A task body executed on a worker thread.
pub(crate) type TaskBody = Box<dyn FnOnce() + Send + 'static>;

/// A task handed to [`RuntimeHandle::submit`](crate::RuntimeHandle::submit):
/// a [`TaskDescriptor`] declaring the data footprint (the `in/out/inout`
/// clauses the dependence tracking trusts, exactly as OmpSs trusts its
/// pragmas) plus an optional closure to run on the worker.
///
/// Trace replay ([`RuntimeHandle::run_trace`](crate::RuntimeHandle::run_trace))
/// submits body-less tasks: the descriptor's simulated duration can still be
/// mapped to a real sleep via
/// [`RtConfig::with_time_scale`](crate::RtConfig::with_time_scale).
pub struct RtTask {
    pub(crate) descriptor: TaskDescriptor,
    pub(crate) body: Option<TaskBody>,
}

impl RtTask {
    /// A task with the given footprint and no body.
    pub fn new(descriptor: TaskDescriptor) -> Self {
        RtTask {
            descriptor,
            body: None,
        }
    }

    /// Attaches a closure to run on the executing worker. The closure must
    /// only touch data it declared in the descriptor — an undeclared access
    /// is a data race the runtime cannot see. Write-after-read is ordered
    /// only among tasks homed on the same node, so bodies of tasks on
    /// different nodes must not share memory that one reads and a later one
    /// writes.
    pub fn with_body(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        self.body = Some(Box::new(body));
        self
    }

    /// The declared footprint.
    pub fn descriptor(&self) -> &TaskDescriptor {
        &self.descriptor
    }
}

impl fmt::Debug for RtTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtTask")
            .field("descriptor", &self.descriptor)
            .field("body", &self.body.as_ref().map(|_| "FnOnce"))
            .finish()
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The runtime has been shut down (or shut down mid-wait): no further
    /// tasks are accepted.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::ShutDown => f.write_str("the cluster runtime has been shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_debug_and_error_display() {
        let t = RtTask::new(TaskDescriptor::builder(3).inout(0x40).build()).with_body(|| {});
        assert!(format!("{t:?}").contains("FnOnce"));
        assert_eq!(t.descriptor().id.0, 3);
        let bare = RtTask::new(TaskDescriptor::builder(4).build());
        assert!(format!("{bare:?}").contains("None"));
        assert!(SubmitError::ShutDown.to_string().contains("shut down"));
    }

    #[test]
    fn builder_collects_accesses() {
        use nexus_trace::Direction::{In, InOut, Out};
        let d = TaskDescriptor::builder(0)
            .input(1)
            .output(2)
            .inout(3)
            .input(4)
            .input(5)
            .build();
        let t = RtTask::new(d).with_body(|| {});
        // The footprint keeps every declared access, in declaration order.
        let accesses: Vec<_> = t
            .descriptor()
            .params
            .iter()
            .map(|p| (p.addr, p.dir))
            .collect();
        assert_eq!(
            accesses,
            vec![(1, In), (2, Out), (3, InOut), (4, In), (5, In)]
        );
        assert!(format!("{t:?}").contains("params"));
    }
}
