//! Streaming (open-loop) ingestion into the cluster driver.
//!
//! The closed-loop [`run`](crate::ClusterDriver::run) path submits as fast as
//! the pipeline allows and reports a makespan — a batch job. Service traffic
//! instead *arrives*: a [`StreamingSource`] layers an [`ArrivalOverlay`]
//! (one timestamp per
//! submission, built by `nexus-flow`'s arrival processes) over a trace and
//! feeds descriptors into the cluster as sim-time reaches each arrival,
//! through bounded per-node admission queues ([`AdmissionConfig`]).
//!
//! Admission counts everything the source has emitted toward a node and the
//! node has not yet handed to its manager: descriptors in flight on the wire
//! plus the node's pending input queue. An arrival is placed once it is due,
//! and if its home node's admission domain is full it **blocks the source
//! clock** (it is placed again when the master retries) — it is never dropped;
//! the whole arrival process shifts by the blocked duration (the accumulated
//! shift is reported as [`StreamOutcome::source_lag`]) and the episode is
//! counted in [`StreamOutcome::backpressure_events`].
//!
//! [`StreamOutcome`] carries the raw per-task submit→retire latencies (in
//! submission order) plus the back-pressure counters; `nexus-flow` folds the
//! latencies into log-bucket histograms, percentiles and knee sweeps.

use nexus_sim::SimDuration;
use nexus_trace::ArrivalOverlay;
use serde::{Deserialize, Serialize};

use crate::outcome::ClusterOutcome;

/// Bounded per-node admission: how many descriptors the source may have
/// outstanding toward one node (in flight + in the node's pending input
/// queue) before further arrivals to that node block the source clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Admission-domain bound per node. Must be at least 1.
    pub depth: usize,
}

impl AdmissionConfig {
    /// Default per-node admission depth.
    pub const DEFAULT_DEPTH: usize = 64;

    /// An admission queue bounded at `depth` descriptors per node.
    ///
    /// # Panics
    /// Panics if `depth` is zero (a zero-depth queue can never admit).
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "admission depth must be at least 1");
        AdmissionConfig { depth }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            depth: Self::DEFAULT_DEPTH,
        }
    }
}

/// The source feeding a streaming run: an optional arrival overlay (open
/// loop) plus the admission bound. Without an overlay the source is
/// *closed-loop*: the master self-clocks exactly as in
/// [`run`](crate::ClusterDriver::run) (bit-identical outcomes), admission is
/// not enforced, and only the service metrics are recorded on top.
#[derive(Debug, Clone)]
pub struct StreamingSource {
    pub(crate) overlay: Option<ArrivalOverlay>,
    pub(crate) admission: AdmissionConfig,
}

impl StreamingSource {
    /// An open-loop source: submissions become visible at the overlay's
    /// arrival times, gated by the admission bound.
    pub fn open_loop(overlay: ArrivalOverlay, admission: AdmissionConfig) -> Self {
        StreamingSource {
            overlay: Some(overlay),
            admission,
        }
    }

    /// A closed-loop source: today's self-clocked master, plus latency
    /// recording. Reproduces [`run`](crate::ClusterDriver::run) exactly.
    pub fn closed_loop() -> Self {
        StreamingSource {
            overlay: None,
            admission: AdmissionConfig::default(),
        }
    }

    /// The admission bound of the source.
    pub fn admission(&self) -> AdmissionConfig {
        self.admission
    }

    /// True for an open-loop (arrival-driven) source.
    pub fn is_open_loop(&self) -> bool {
        self.overlay.is_some()
    }
}

/// The result of a streaming run: the usual [`ClusterOutcome`] plus the
/// service-side raw measurements (latencies, back-pressure, source lag).
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The closed-loop outcome fields (makespan, traffic, per-node stats).
    pub cluster: ClusterOutcome,
    /// Per-task submit→retire latency, in submission order. For open-loop
    /// runs "submit" is the task's effective arrival time (its overlay time
    /// shifted by the accumulated source lag), so queueing at a busy source
    /// interface counts toward latency while blocked-clock time does not —
    /// the latter is reported as back-pressure instead.
    pub latencies: Vec<SimDuration>,
    /// Arrivals that found their home node's admission domain full and
    /// blocked the source clock (one per blocking episode; never a drop).
    pub backpressure_events: u64,
    /// Largest admission-domain occupancy observed on any node. Never
    /// exceeds the configured depth on open-loop runs.
    pub max_admission_depth: usize,
    /// Total time the source clock spent blocked on full admission queues
    /// (the shift applied to the tail of the arrival process).
    pub source_lag: SimDuration,
}

impl StreamOutcome {
    /// Completed tasks per second of simulated time (throughput actually
    /// served, as opposed to offered load).
    pub fn completed_per_sec(&self) -> f64 {
        let secs = self.cluster.makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.cluster.tasks as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sim::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn admission_config_validates_and_defaults() {
        assert_eq!(AdmissionConfig::default().depth, 64);
        assert_eq!(AdmissionConfig::new(4).depth, 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_depth_rejected() {
        let _ = AdmissionConfig::new(0);
    }

    #[test]
    fn source_kinds() {
        assert!(!StreamingSource::closed_loop().is_open_loop());
        let overlay = ArrivalOverlay::new(vec![t(1), t(2)]).unwrap();
        let src = StreamingSource::open_loop(overlay, AdmissionConfig::new(2));
        assert!(src.is_open_loop());
        assert_eq!(src.admission().depth, 2);
    }
}
