//! # nexus-flow — streaming ingestion, open-loop traffic and service metrics
//!
//! Every other driver in this workspace replays a trace *closed-loop*: the
//! master submits as fast as the pipeline allows and the result is a single
//! makespan — a batch job. This crate turns the cluster into a *service*, in
//! the spirit of asynchronous distributed task front-ends (Bosch et al.) and
//! the task-as-request framing of the task/actor duality work:
//!
//! * [`ArrivalKind`] / [`ArrivalConfig`] — a deterministic, seeded Poisson
//!   arrival process generating an
//!   [`ArrivalOverlay`](nexus_trace::ArrivalOverlay) over any trace (a
//!   closed-loop run needs no overlay:
//!   [`StreamingSource::closed_loop`](nexus_cluster::StreamingSource::closed_loop)),
//! * [`simulate_service`] / [`ServiceConfig`] — drives
//!   [`nexus_cluster::simulate_streaming`]: submissions released at arrival
//!   times through bounded per-node admission queues
//!   ([`AdmissionConfig`](nexus_cluster::AdmissionConfig)) with back-pressure
//!   to the source (arrivals block, never drop),
//! * [`LatencyHistogram`] — fixed log-bucket (≤ 3.125 % relative width),
//!   integer-only submit→retire latency distribution with deterministic
//!   merges, exposed as p50/p99/p999,
//! * [`knee_sweep`] — ramps the offered load over the same trace to find the
//!   sustainable-throughput knee: below it p99 is bounded and back-pressure
//!   is zero; above it back-pressure engages and no task is lost.
//!
//! ## Example
//!
//! ```
//! use nexus_flow::{simulate_service, ArrivalConfig, ArrivalKind, ServiceConfig};
//! use nexus_cluster::ClusterConfig;
//! use nexus_host::IdealManager;
//! use nexus_sim::SimDuration;
//! use nexus_trace::generators::distributed;
//!
//! let trace = distributed::wavefront(2, 0.0, 4, 4, SimDuration::from_us(20), 1);
//! // Offer one task per 200 us — far below capacity, so nothing blocks.
//! let arrival = ArrivalConfig::new(ArrivalKind::Poisson, SimDuration::from_us(200), 42);
//! let out = simulate_service(
//!     &trace,
//!     &ServiceConfig::new(arrival),
//!     &ClusterConfig::new(2, 4),
//!     |_| IdealManager::new(),
//! );
//! assert_eq!(out.stream.cluster.tasks, 32);
//! assert_eq!(out.backpressure_events(), 0);
//! assert!(out.p99() >= out.p50());
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod histogram;
pub mod service;

pub use arrival::{ArrivalConfig, ArrivalKind};
pub use histogram::LatencyHistogram;
pub use service::{
    knee_sweep, simulate_service, KneePoint, KneeReport, ServiceConfig, ServiceOutcome,
};
