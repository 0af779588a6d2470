//! Task-lifecycle span events and the `Recorder` sink they flow into.
//!
//! The simulator and the live runtime emit the same event schema; only the
//! timestamp base differs (virtual picoseconds vs. monotonic wall
//! nanoseconds). A recorder is purely observational: producers must behave
//! bit-identically whether one is attached or not, which the cluster crate
//! asserts across its full determinism grid.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Unit and origin of the timestamps fed to a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeBase {
    /// Virtual simulation time in picoseconds since the start of the run.
    VirtualPs,
    /// Monotonic wall-clock nanoseconds since the recorder's epoch.
    WallNs,
}

impl TimeBase {
    /// Converts a raw timestamp in this base to Chrome-trace microseconds.
    pub fn to_micros(self, at: u64) -> f64 {
        match self {
            TimeBase::VirtualPs => at as f64 / 1_000_000.0,
            TimeBase::WallNs => at as f64 / 1_000.0,
        }
    }

    /// Short human-readable unit suffix (`ps` / `ns`).
    pub fn unit(self) -> &'static str {
        match self {
            TimeBase::VirtualPs => "ps",
            TimeBase::WallNs => "ns",
        }
    }
}

/// A single typed event in a task's lifecycle (or on the transport fabric).
///
/// Task ids are the producer's dense ids; node, worker and link ids are the
/// producer's indices. The same schema is emitted by the event simulator and
/// the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// The master state machine accepted the task from the program order.
    Submitted {
        /// Dense task id.
        task: usize,
    },
    /// Placement chose a home node; the descriptor forward is in flight.
    Placed {
        /// Dense task id.
        task: usize,
        /// Node the placement policy selected.
        node: usize,
    },
    /// The home node's manager popped the task from its ready pool.
    Dispatched {
        /// Dense task id.
        task: usize,
        /// Node whose manager dispatched it.
        node: usize,
    },
    /// A worker began executing the task body.
    Started {
        /// Dense task id.
        task: usize,
        /// Node the worker belongs to.
        node: usize,
        /// Worker index within the node.
        worker: usize,
    },
    /// The task finished and its dependences were released.
    Retired {
        /// Dense task id.
        task: usize,
        /// Node that retired it.
        node: usize,
    },
    /// A steal grant moved the task from a victim to a thief node.
    Stolen {
        /// Dense task id.
        task: usize,
        /// Victim node that gave the task up.
        from: usize,
        /// Thief node that received it.
        to: usize,
    },
    /// A reclaim grant pulled the task — not yet dispatchable, still waiting
    /// on producers — out of a loaded node's pool onto a lighter node.
    Reclaimed {
        /// Dense task id.
        task: usize,
        /// Loaded node that handed the task back.
        from: usize,
        /// Node that took it over.
        to: usize,
    },
    /// A message crossed one fabric link hop.
    LinkHop {
        /// Link index in the fabric graph.
        link: usize,
        /// Tier of that link (0 = cheapest).
        tier: usize,
        /// Payload size in words.
        words: u64,
    },
    /// Streaming admission blocked the source clock on a full node queue.
    Backpressure {
        /// Node whose admission queue was full.
        node: usize,
    },
}

impl SpanEvent {
    /// The task this event belongs to, if it is a task-lifecycle event.
    pub fn task(&self) -> Option<usize> {
        match *self {
            SpanEvent::Submitted { task }
            | SpanEvent::Placed { task, .. }
            | SpanEvent::Dispatched { task, .. }
            | SpanEvent::Started { task, .. }
            | SpanEvent::Retired { task, .. }
            | SpanEvent::Stolen { task, .. }
            | SpanEvent::Reclaimed { task, .. } => Some(task),
            SpanEvent::LinkHop { .. } | SpanEvent::Backpressure { .. } => None,
        }
    }

    /// Short event-kind name used by the text timeline and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            SpanEvent::Submitted { .. } => "submitted",
            SpanEvent::Placed { .. } => "placed",
            SpanEvent::Dispatched { .. } => "dispatched",
            SpanEvent::Started { .. } => "started",
            SpanEvent::Retired { .. } => "retired",
            SpanEvent::Stolen { .. } => "stolen",
            SpanEvent::Reclaimed { .. } => "reclaimed",
            SpanEvent::LinkHop { .. } => "link_hop",
            SpanEvent::Backpressure { .. } => "backpressure",
        }
    }
}

/// Sink for span events. Producers call [`Recorder::record`] with a raw
/// timestamp in the producer's time base.
///
/// Implementations must not influence the producer: the cluster determinism
/// grid asserts bit-identical outcomes with and without a recorder attached.
pub trait Recorder {
    /// Receives one event stamped `at` (units per the producer's time base).
    fn record(&mut self, at: u64, event: SpanEvent);
}

/// In-memory recorder: an append-only event log plus its time base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRecorder {
    /// Unit of the `u64` timestamps in [`MemRecorder::events`].
    pub time_base: TimeBase,
    /// `(timestamp, event)` pairs in emission order.
    pub events: Vec<(u64, SpanEvent)>,
}

impl MemRecorder {
    /// Creates an empty log stamped in `time_base` units.
    pub fn new(time_base: TimeBase) -> Self {
        MemRecorder {
            time_base,
            events: Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events matching `pred`.
    pub fn count(&self, pred: impl Fn(&SpanEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, ev)| pred(ev)).count()
    }

    /// Stable-sorts the log by timestamp. Wall-clock logs written by several
    /// threads interleave out of order; exporters call this first.
    pub fn sort_by_time(&mut self) {
        self.events.sort_by_key(|&(at, _)| at);
    }
}

impl Recorder for MemRecorder {
    fn record(&mut self, at: u64, event: SpanEvent) {
        self.events.push((at, event));
    }
}

/// Thread-safe wall-clock recorder for the live runtime.
///
/// Clones share one log and one epoch, so manager and worker threads stamp
/// events on a common monotonic axis. `Clone + Debug` lets it ride inside
/// `RtConfig`.
#[derive(Debug, Clone)]
pub struct SharedRecorder {
    epoch: Instant,
    events: Arc<Mutex<Vec<(u64, SpanEvent)>>>,
}

impl Default for SharedRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedRecorder {
    /// Creates an empty shared log whose epoch is "now".
    pub fn new() -> Self {
        SharedRecorder {
            epoch: Instant::now(),
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Monotonic nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `event` stamped with the current wall clock.
    pub fn record_now(&self, event: SpanEvent) {
        let at = self.now_ns();
        self.events.lock().expect("recorder lock").push((at, event));
    }

    /// Number of recorded events so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder lock").len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the log out as a time-sorted [`MemRecorder`] in [`TimeBase::WallNs`].
    pub fn snapshot(&self) -> MemRecorder {
        let mut rec = MemRecorder::new(TimeBase::WallNs);
        rec.events
            .extend(self.events.lock().expect("recorder lock").iter().copied());
        rec.sort_by_time();
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_recorder_appends_in_order() {
        let mut rec = MemRecorder::new(TimeBase::VirtualPs);
        rec.record(5, SpanEvent::Submitted { task: 0 });
        rec.record(9, SpanEvent::Retired { task: 0, node: 1 });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.events[0], (5, SpanEvent::Submitted { task: 0 }));
        assert_eq!(rec.count(|ev| ev.kind() == "retired"), 1);
    }

    #[test]
    fn shared_recorder_clones_share_one_log() {
        let rec = SharedRecorder::new();
        let clone = rec.clone();
        clone.record_now(SpanEvent::Submitted { task: 3 });
        rec.record_now(SpanEvent::Retired { task: 3, node: 0 });
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.time_base, TimeBase::WallNs);
        // snapshot() sorts, so timestamps are monotone.
        assert!(snap.events[0].0 <= snap.events[1].0);
    }

    #[test]
    fn time_base_converts_to_chrome_micros() {
        assert_eq!(TimeBase::VirtualPs.to_micros(2_000_000), 2.0);
        assert_eq!(TimeBase::WallNs.to_micros(1_500), 1.5);
        assert_eq!(TimeBase::VirtualPs.unit(), "ps");
    }
}
