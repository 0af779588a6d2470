//! # nexus — Nexus# distributed task-dependency management (IPDPS 2015 reproduction)
//!
//! This is the facade crate of the workspace: it re-exports every component of
//! the reproduction of *"Nexus#: A Distributed Hardware Task Manager for
//! Task-Based Programming Models"* (Dallou, Engelhardt, Elhossini, Juurlink —
//! IPDPS 2015) so applications and the examples can depend on a single crate.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `nexus-sim` | discrete-event simulation substrate |
//! | [`trace`] | `nexus-trace` | task model + workload generators (Table II/III) |
//! | [`taskgraph`] | `nexus-taskgraph` | set-associative tables; dependency tracking with one queue of outstanding accesses and counters per address (kick-off lists modelled as counts); the Task Pool of in-flight tasks |
//! | [`resources`] | `nexus-resources` | FPGA utilization / frequency model (Table I) |
//! | [`pp`] | `nexus-pp` | the Nexus++ centralized baseline (§III) |
//! | [`sharp`] | `nexus-core` | **Nexus#**, the distributed manager (§IV) |
//! | [`nanos`] | `nexus-nanos` | the software runtime (Nanos) cost model |
//! | [`host`] | `nexus-host` | the simulated multicore host / testbench (§V) |
//! | [`topo`] | `nexus-topo` | non-uniform interconnect topologies (fabric graphs, distance matrices) |
//! | [`sched`] | `nexus-sched` | pluggable placement and work-stealing policies |
//! | [`obs`] | `nexus-obs` | task-lifecycle tracing, metrics registry, Chrome-trace export |
//! | [`cluster`] | `nexus-cluster` | multi-node cluster simulation with an interconnect model |
//! | [`flow`] | `nexus-flow` | streaming ingestion: open-loop arrivals, latency percentiles, knee sweeps |
//! | [`rt`] | `nexus-rt` | the live threaded runtime (one node or a cluster) executing the simulator's policies on real channels |
//!
//! ## Quick example
//!
//! ```
//! use nexus::host::{simulate, HostConfig, IdealManager};
//! use nexus::sharp::NexusSharp;
//! use nexus::sim::SimDuration;
//! use nexus::trace::generators::micro;
//!
//! // A 16x16 macroblock wavefront of 50 µs tasks (Listing 1 of the paper).
//! let trace = micro::wavefront(16, 16, SimDuration::from_us(50));
//! let cfg = HostConfig::with_workers(16);
//!
//! let ideal = simulate(&trace, &mut IdealManager::new(), &cfg);
//! let sharp = simulate(&trace, &mut NexusSharp::paper(6), &cfg);
//!
//! assert!(sharp.speedup() > 0.8 * ideal.speedup());
//! ```

#![warn(missing_docs)]

pub use nexus_cluster as cluster;
pub use nexus_core as sharp;
pub use nexus_flow as flow;
pub use nexus_host as host;
pub use nexus_nanos as nanos;
pub use nexus_obs as obs;
pub use nexus_pp as pp;
pub use nexus_resources as resources;
pub use nexus_rt as rt;
pub use nexus_sched as sched;
pub use nexus_sim as sim;
pub use nexus_taskgraph as taskgraph;
pub use nexus_topo as topo;
pub use nexus_trace as trace;

/// Commonly used items from across the workspace.
pub mod prelude {
    pub use nexus_cluster::{
        simulate_cluster, AdmissionConfig, ClusterConfig, ClusterOutcome, LinkConfig,
    };
    pub use nexus_core::{NexusSharp, NexusSharpConfig};
    pub use nexus_flow::{
        simulate_service, ArrivalConfig, ArrivalKind, LatencyHistogram, ServiceConfig,
    };
    pub use nexus_host::{simulate, HostConfig, IdealManager, SimOutcome, TaskManager};
    pub use nexus_nanos::NanosRuntime;
    pub use nexus_obs::{chrome_trace, MemRecorder, Recorder, Registry, SharedRecorder, SpanEvent};
    pub use nexus_pp::{NexusPP, NexusPPConfig};
    pub use nexus_resources::{ManagerConfig, ResourceModel};
    pub use nexus_rt::{ClusterRuntime, RtConfig, RtTask, RuntimeHandle};
    pub use nexus_sched::{PolicyKind, StealKind};
    pub use nexus_sim::{SimDuration, SimTime};
    pub use nexus_topo::{Fabric, TopologyKind};
    pub use nexus_trace::{Benchmark, TaskDescriptor, Trace, TraceStats};
}
