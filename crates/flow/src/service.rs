//! Service-mode simulation: an arrival process + admission bound driving the
//! cluster, folded into latency percentiles — and the knee sweep that ramps
//! offered load to find sustainable throughput.

use crate::arrival::ArrivalConfig;
use crate::histogram::LatencyHistogram;
use nexus_cluster::{simulate_streaming, AdmissionConfig, ClusterConfig, StreamingSource};
use nexus_host::manager::TaskManager;
use nexus_sim::SimDuration;
use nexus_trace::Trace;

/// How a service run is driven: the arrival process and the per-node
/// admission bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The offered-load process.
    pub arrival: ArrivalConfig,
    /// Bounded per-node admission (back-pressure past this depth).
    pub admission: AdmissionConfig,
}

impl ServiceConfig {
    /// A service driven by `arrival` with the default admission bound.
    pub fn new(arrival: ArrivalConfig) -> Self {
        ServiceConfig {
            arrival,
            admission: AdmissionConfig::default(),
        }
    }

    /// Sets the per-node admission depth.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// The open-loop [`StreamingSource`] this config induces for `trace`.
    pub fn source_for(&self, trace: &Trace) -> StreamingSource {
        StreamingSource::open_loop(self.arrival.overlay_for(trace), self.admission)
    }
}

/// The result of a service run: the raw streaming outcome plus the latency
/// histogram folded from the per-task latencies.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// The streaming outcome (cluster fields, raw latencies, back-pressure).
    pub stream: nexus_cluster::StreamOutcome,
    /// Submit→retire latency distribution.
    pub histogram: LatencyHistogram,
}

impl ServiceOutcome {
    /// Median latency.
    pub fn p50(&self) -> SimDuration {
        self.histogram.p50()
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> SimDuration {
        self.histogram.p99()
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> SimDuration {
        self.histogram.p999()
    }

    /// Back-pressure episodes at the source (zero ⇔ the offered load was
    /// sustained without ever filling an admission queue).
    pub fn backpressure_events(&self) -> u64 {
        self.stream.backpressure_events
    }
}

/// Runs `trace` as a service on a cluster configured by `cluster`: the
/// arrival process and admission bound come from `service`, and the per-task
/// latencies are folded into a [`LatencyHistogram`]. Deterministic end to
/// end for fixed seeds and configs.
pub fn simulate_service<M: TaskManager>(
    trace: &Trace,
    service: &ServiceConfig,
    cluster: &ClusterConfig,
    make_manager: impl FnMut(usize) -> M,
) -> ServiceOutcome {
    let source = service.source_for(trace);
    let stream = simulate_streaming(trace, &source, cluster, make_manager);
    let histogram = LatencyHistogram::from_latencies(&stream.latencies);
    ServiceOutcome { stream, histogram }
}

/// One point of a [`knee_sweep`]: the service metrics at one offered load.
#[derive(Debug, Clone)]
pub struct KneePoint {
    /// The load multiplier applied to the base arrival rate.
    pub load_factor: f64,
    /// Offered arrivals per second at this point.
    pub offered_per_sec: f64,
    /// Completed tasks per second of simulated time.
    pub completed_per_sec: f64,
    /// Median latency.
    pub p50: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// 99.9th-percentile latency.
    pub p999: SimDuration,
    /// Back-pressure episodes at the source.
    pub backpressure_events: u64,
    /// Total source-clock shift from admission blocking.
    pub source_lag: SimDuration,
}

/// A ramp of offered load over the same trace and cluster (see
/// [`knee_sweep`]).
#[derive(Debug, Clone)]
pub struct KneeReport {
    /// One point per load factor, in ramp order.
    pub points: Vec<KneePoint>,
}

impl KneeReport {
    /// The knee: the highest offered load the cluster sustained without any
    /// back-pressure. `None` if even the lowest point back-pressured.
    pub fn knee(&self) -> Option<&KneePoint> {
        self.points
            .iter()
            .filter(|p| p.backpressure_events == 0)
            .max_by(|a, b| a.offered_per_sec.total_cmp(&b.offered_per_sec))
    }

    /// True when the ramp actually crossed the knee: at least one point
    /// sustained (zero back-pressure) and at least one collapsed.
    pub fn demonstrates_knee(&self) -> bool {
        self.points.iter().any(|p| p.backpressure_events == 0)
            && self.points.iter().any(|p| p.backpressure_events > 0)
    }
}

/// Ramps the offered load over `load_factors` (each multiplies `base`'s
/// arrival rate) and runs one service simulation per point, on a fresh
/// cluster each time. The returned report exposes the sustainable-throughput
/// knee: below it p99 stays bounded and back-pressure is zero; above it the
/// admission queues fill and back-pressure engages (no task is ever lost).
pub fn knee_sweep<M: TaskManager>(
    trace: &Trace,
    base: &ServiceConfig,
    cluster: &ClusterConfig,
    load_factors: &[f64],
    make_manager: impl Fn(usize) -> M,
) -> KneeReport {
    let points = load_factors
        .iter()
        .map(|&factor| {
            let service = ServiceConfig {
                arrival: base.arrival.with_load_factor(factor),
                admission: base.admission,
            };
            let out = simulate_service(trace, &service, cluster, &make_manager);
            KneePoint {
                load_factor: factor,
                offered_per_sec: service.arrival.offered_per_sec(),
                completed_per_sec: out.stream.completed_per_sec(),
                p50: out.p50(),
                p99: out.p99(),
                p999: out.p999(),
                backpressure_events: out.backpressure_events(),
                source_lag: out.stream.source_lag,
            }
        })
        .collect();
    KneeReport { points }
}
