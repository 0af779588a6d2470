//! Arrival overlays: open-loop submission timestamps layered over a trace.
//!
//! A closed-loop trace has no notion of *when* a task is offered — the master
//! submits as fast as the pipeline allows. Service-mode (open-loop) runs
//! instead drive submissions from an arrival process: one timestamp per task
//! submission, in program order. [`ArrivalOverlay`] is that timestamp layer,
//! kept separate from [`Trace`] so the same trace can be
//! replayed closed-loop or under any arrival process without regeneration.
//!
//! The overlay is aligned with the trace's *submission order* (the i-th time
//! belongs to the i-th `Submit` op). Because the master emits submissions in
//! program order and the per-node input queues are FIFO, a nondecreasing
//! overlay automatically preserves per-node program order — [`new`] therefore
//! rejects decreasing sequences instead of trusting every generator.
//!
//! [`new`]: ArrivalOverlay::new

use crate::trace::Trace;
use nexus_sim::SimTime;

/// One arrival timestamp per task submission of a trace, nondecreasing, in
/// submission (program) order. Built by open-loop generators such as
/// `nexus-flow`'s arrival processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalOverlay {
    times: Vec<SimTime>,
}

impl ArrivalOverlay {
    /// Wraps a nondecreasing sequence of arrival times. Returns a description
    /// of the first inversion otherwise (an inverted overlay would reorder
    /// submissions against program order).
    pub fn new(times: Vec<SimTime>) -> Result<ArrivalOverlay, String> {
        for (i, pair) in times.windows(2).enumerate() {
            if pair[1] < pair[0] {
                return Err(format!(
                    "arrival times must be nondecreasing: times[{}] = {} after times[{}] = {}",
                    i + 1,
                    pair[1],
                    i,
                    pair[0]
                ));
            }
        }
        Ok(ArrivalOverlay { times })
    }

    /// Number of arrival timestamps (must equal the trace's submission count).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the overlay carries no timestamps.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The arrival time of the i-th submission.
    pub fn time(&self, i: usize) -> SimTime {
        self.times[i]
    }

    /// All arrival times, in submission order.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Checks that the overlay covers exactly the submissions of `trace`.
    pub fn matches(&self, trace: &Trace) -> Result<(), String> {
        let tasks = trace.task_count();
        if self.times.len() != tasks {
            return Err(format!(
                "arrival overlay covers {} submissions but trace {:?} has {tasks}",
                self.times.len(),
                trace.name
            ));
        }
        Ok(())
    }

    /// Time of the last arrival ([`SimTime::ZERO`] when empty) — the span of
    /// the offered load.
    pub fn span(&self) -> SimTime {
        self.times.last().copied().unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskDescriptor;
    use crate::trace::TraceBuilder;
    use nexus_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn accepts_nondecreasing_and_rejects_inversions() {
        let ok = ArrivalOverlay::new(vec![t(0), t(5), t(5), t(9)]).unwrap();
        assert_eq!(ok.len(), 4);
        assert_eq!(ok.time(3), t(9));
        assert_eq!(ok.span(), t(9));
        let err = ArrivalOverlay::new(vec![t(5), t(3)]).unwrap_err();
        assert!(err.contains("nondecreasing"), "{err}");
    }

    #[test]
    fn matches_checks_the_submission_count() {
        let mut b = TraceBuilder::new("overlay-unit");
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .inout(0x100)
                .duration(SimDuration::from_us(10))
                .build()
        });
        b.taskwait();
        let trace = b.finish();
        assert!(ArrivalOverlay::new(vec![t(1)])
            .unwrap()
            .matches(&trace)
            .is_ok());
        let err = ArrivalOverlay::new(vec![t(1), t(2)])
            .unwrap()
            .matches(&trace)
            .unwrap_err();
        assert!(err.contains("has 1"), "{err}");
    }

    #[test]
    fn empty_overlay_is_well_formed() {
        let o = ArrivalOverlay::new(Vec::new()).unwrap();
        assert!(o.is_empty());
        assert_eq!(o.span(), SimTime::ZERO);
        assert_eq!(o.times(), &[]);
    }
}
