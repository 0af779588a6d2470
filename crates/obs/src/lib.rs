//! `nexus-obs` — unified observability for the Nexus# reproduction.
//!
//! A zero-cost-when-disabled layer shared by the event simulator
//! (`nexus-cluster`) and the threaded runtime (`nexus-rt`):
//!
//! * **Task-lifecycle tracing** — the [`Recorder`] trait receives typed
//!   [`SpanEvent`]s (`Submitted`, `Placed`, `Dispatched`, `Started`,
//!   `Retired`, `Stolen`, `Reclaimed`, `LinkHop`, `Backpressure`). The
//!   simulator stamps
//!   them in virtual picoseconds, the runtime in monotonic wall nanoseconds
//!   ([`TimeBase`]), through the same schema.
//! * **Metrics [`Registry`]** — named monotonic counters and sampled gauges
//!   with associative merge, so outcome reports on both sides are views over
//!   the same keys.
//! * **Exporters** — a hand-rolled Chrome-trace/Perfetto JSON writer
//!   ([`chrome_trace`]) and a compact [`text_timeline`] for tests, plus the
//!   [`check_conservation`] helper the test suites use to assert one
//!   `Retired` per `Submitted` and monotone lifecycle timestamps.
//!
//! Producers must be bit-identical with tracing on vs. off; the cluster
//! crate asserts this across its full topology × placement × stealing grid.

#![warn(missing_docs)]

mod check;
mod chrome;
mod registry;
mod span;

pub use check::{check_conservation, ConservationReport};
pub use chrome::{chrome_trace, text_timeline};
pub use registry::{Gauge, Registry};
pub use span::{MemRecorder, Recorder, SharedRecorder, SpanEvent, TimeBase};
