//! The two workloads: how each trace is generated from the seed, and the
//! simulated cluster and live runtime it runs on.
//!
//! Every workload runs its trace on both clocks. The simulator side uses the
//! workload's cluster shape with `NexusSharp::paper(6)` per node and the
//! calendar event engine. The live side replays the same trace on `nexus-rt`
//! with 2 nodes × 1 worker and default policies: with the caller thread that
//! is 5 threads, the most a 2-core machine runs without measuring mostly
//! oversubscription.

use nexus_cluster::{AdmissionConfig, ClusterConfig, LinkConfig, StreamingSource, Topology};
use nexus_flow::{ArrivalConfig, ArrivalKind, ServiceConfig};
use nexus_rt::RtConfig;
use nexus_sched::{FeedbackKind, PolicyKind, StealKind};
use nexus_sim::{EngineKind, SimDuration, SimRng};
use nexus_trace::generators::distributed;
use nexus_trace::{TaskId, Trace, TraceOp};
use std::collections::BTreeMap;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Held out: run no change against this seed while writing it, so a claimed
/// gain can be re-checked on inputs nobody tuned for.
pub const HELD_OUT_SEED: u64 = 90_210;

/// Block-count scale of `sim-service-poisson`: 45,760 tasks.
const SERVICE_SCALE: f64 = 0.2;

/// Mean Poisson inter-arrival gap of `sim-service-poisson`: 12,500 offered
/// tasks/s. The knee of this cluster lies between 60 µs (hundreds of
/// back-pressure episodes) and 80 µs (a few dozen).
const SERVICE_GAP_US: u64 = 80;
/// Per-node admission depth of `sim-service-poisson`.
const SERVICE_ADMISSION_DEPTH: usize = 16;

/// Relative spread of the seeded duration jitter applied to the
/// `sim-chains-steal` trace, whose generator takes no seed.
const CHAIN_JITTER: f64 = 0.05;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial chains skewed onto the first nodes of a rack-tiered fabric:
    /// the node protocol (steal, reclaim, notify, digests) and relays.
    SimChainsSteal,
    /// Open-loop Poisson arrivals through bounded admission: queueing.
    SimServicePoisson,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SimChainsSteal, Workload::SimServicePoisson];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimChainsSteal => "sim-chains-steal",
            Workload::SimServicePoisson => "sim-service-poisson",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent trace instances one run simulates. Simulated metrics are
    /// taken over all of them, which keeps seed-to-seed spread small where
    /// one instance is chaotic (full feedback on the chains swings between
    /// two makespan modes under a 0.1% duration change) or its tail thin.
    pub fn instances(self) -> usize {
        match self {
            Workload::SimChainsSteal => 15,
            Workload::SimServicePoisson => 5,
        }
    }

    /// Generates the workload's trace instances; the same seed gives the
    /// same traces. Instance `i` is generated from [`sub_seed`]`(seed, i)`.
    pub fn traces(self, seed: u64) -> Vec<Trace> {
        (0..self.instances())
            .map(|i| self.trace(sub_seed(seed, i)))
            .collect()
    }

    fn trace(self, seed: u64) -> Trace {
        match self {
            Workload::SimChainsSteal => {
                // The chain generator is deterministic by construction and
                // takes no seed; the seed jitters task durations instead, so
                // different seeds give different (but equally skewed) inputs.
                let mut trace =
                    distributed::chained_imbalanced(8, 512, 32, 2.0, SimDuration::from_us(20));
                let mut rng = SimRng::new(seed ^ 0xC4A1_4E5E);
                for op in &mut trace.ops {
                    if let TraceOp::Submit(task) = op {
                        let f = rng.uniform(1.0 - CHAIN_JITTER, 1.0 + CHAIN_JITTER);
                        task.duration = SimDuration::from_ns_f64(task.duration.as_ns() as f64 * f);
                    }
                }
                trace
            }
            Workload::SimServicePoisson => distributed::sparselu(4, 0.3, seed, SERVICE_SCALE),
        }
    }

    /// The simulated cluster the trace runs on.
    pub fn cluster(self) -> ClusterConfig {
        let cfg = match self {
            Workload::SimChainsSteal => ClusterConfig::new(8, 8)
                .with_link(LinkConfig::rdma().with_topology(Topology::RackTiers))
                .with_placement(PolicyKind::TopologyAware)
                .with_stealing(StealKind::Hierarchical)
                .with_feedback(FeedbackKind::Full),
            Workload::SimServicePoisson => ClusterConfig::new(4, 8),
        };
        cfg.with_engine(EngineKind::Calendar)
    }

    /// The open-loop source feeding the simulated run, or `None` for the
    /// closed-loop workloads (the master submits as fast as the pool allows).
    /// Instance `i`'s arrivals are seeded like its trace.
    pub fn source(self, trace: &Trace, seed: u64, i: usize) -> Option<StreamingSource> {
        (self == Workload::SimServicePoisson).then(|| {
            let gap = SimDuration::from_us(SERVICE_GAP_US);
            ServiceConfig::new(ArrivalConfig::new(
                ArrivalKind::Poisson,
                gap,
                sub_seed(seed, i),
            ))
            .with_admission(AdmissionConfig::new(SERVICE_ADMISSION_DEPTH))
            .source_for(trace)
        })
    }

    /// The live runtime the trace is replayed on (body-less tasks).
    pub fn live(self) -> RtConfig {
        RtConfig::new(2, 1)
    }
}

/// The seed of instance `i` of a run seeded with `seed`; instance 0 uses
/// the seed itself.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The trace's last-writer table in program order — `(address, last task
/// writing it)` ascending by address — the table every correct run's master
/// must end with.
pub fn last_writer_table(trace: &Trace) -> Vec<(u64, TaskId)> {
    let mut table = BTreeMap::new();
    for task in trace.tasks() {
        for p in task.outputs() {
            table.insert(p.addr, task.id);
        }
    }
    table.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_decides_the_chain_traces() {
        let a = Workload::SimChainsSteal.traces(1);
        let b = Workload::SimChainsSteal.traces(1);
        let c = Workload::SimChainsSteal.traces(2);
        assert_eq!(a.len(), 15);
        assert!(a.iter().zip(&b).all(|(x, y)| x.ops == y.ops));
        assert_ne!(a[0].ops, a[1].ops);
        assert_ne!(a[0].ops, c[0].ops);
        assert_eq!(a[0].task_count(), c[0].task_count());
    }
}
