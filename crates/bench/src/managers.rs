//! Construction of the task managers compared in the evaluation.

use nexus_core::{NexusSharp, NexusSharpConfig};
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_host::IdealManager;
use nexus_nanos::NanosRuntime;
use nexus_pp::{NexusPP, NexusPPConfig};
use nexus_sim::{SimDuration, SimTime};
use nexus_trace::{TaskDescriptor, TaskId};

/// The manager families compared in Figs. 7–9 and Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManagerKind {
    /// The "No Overhead" ideal curve.
    Ideal,
    /// The Nanos software runtime (calibrated per benchmark).
    Nanos,
    /// The Nexus++ centralized hardware manager at 100 MHz.
    NexusPP,
    /// Nexus# with `task_graphs` task graphs at its Table I test frequency.
    NexusSharp {
        /// Number of task-graph units.
        task_graphs: usize,
    },
    /// Nexus# with `task_graphs` task graphs forced to a given frequency
    /// (Fig. 7(a) uses 100 MHz for every configuration; Fig. 9 uses 100 MHz
    /// for the 1-TG and 2-TG configurations).
    NexusSharpAtMhz {
        /// Number of task-graph units.
        task_graphs: usize,
        /// Clock frequency in MHz.
        mhz: f64,
    },
}

impl ManagerKind {
    /// Display label used in tables.
    pub fn label(&self) -> String {
        match self {
            ManagerKind::Ideal => "ideal".to_string(),
            ManagerKind::Nanos => "Nanos".to_string(),
            ManagerKind::NexusPP => "Nexus++".to_string(),
            ManagerKind::NexusSharp { task_graphs } => format!("Nexus# {task_graphs}TG"),
            ManagerKind::NexusSharpAtMhz { task_graphs, mhz } => {
                format!("Nexus# {task_graphs}TG@{mhz:.0}MHz")
            }
        }
    }

    /// Builds a fresh manager instance for a run of `benchmark` on `workers`
    /// worker cores.
    pub fn build(&self, benchmark: &str, workers: usize) -> AnyManager {
        match self {
            ManagerKind::Ideal => AnyManager::Ideal(IdealManager::new()),
            ManagerKind::Nanos => {
                AnyManager::Nanos(NanosRuntime::for_benchmark(benchmark, workers))
            }
            ManagerKind::NexusPP => AnyManager::NexusPP(NexusPP::new(NexusPPConfig::paper())),
            ManagerKind::NexusSharp { task_graphs } => {
                AnyManager::NexusSharp(NexusSharp::new(NexusSharpConfig::paper(*task_graphs)))
            }
            ManagerKind::NexusSharpAtMhz { task_graphs, mhz } => AnyManager::NexusSharp(
                NexusSharp::new(NexusSharpConfig::at_mhz(*task_graphs, *mhz)),
            ),
        }
    }

    /// The four-manager comparison of Fig. 8 (ideal, Nanos, Nexus++, Nexus# 6 TGs).
    pub fn fig8_set() -> Vec<ManagerKind> {
        vec![
            ManagerKind::Ideal,
            ManagerKind::Nanos,
            ManagerKind::NexusPP,
            ManagerKind::NexusSharp { task_graphs: 6 },
        ]
    }
}

/// A type-erased manager so sweeps can be written over `ManagerKind`.
pub enum AnyManager {
    /// The ideal manager.
    Ideal(IdealManager),
    /// The Nanos software runtime model.
    Nanos(NanosRuntime),
    /// The Nexus++ baseline.
    NexusPP(NexusPP),
    /// The Nexus# manager.
    NexusSharp(NexusSharp),
}

impl TaskManager for AnyManager {
    fn name(&self) -> String {
        match self {
            AnyManager::Ideal(m) => m.name(),
            AnyManager::Nanos(m) => m.name(),
            AnyManager::NexusPP(m) => m.name(),
            AnyManager::NexusSharp(m) => m.name(),
        }
    }
    fn can_accept(&self, now: SimTime) -> bool {
        match self {
            AnyManager::Ideal(m) => m.can_accept(now),
            AnyManager::Nanos(m) => m.can_accept(now),
            AnyManager::NexusPP(m) => m.can_accept(now),
            AnyManager::NexusSharp(m) => m.can_accept(now),
        }
    }
    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        match self {
            AnyManager::Ideal(m) => m.submit(task, now),
            AnyManager::Nanos(m) => m.submit(task, now),
            AnyManager::NexusPP(m) => m.submit(task, now),
            AnyManager::NexusSharp(m) => m.submit(task, now),
        }
    }
    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        match self {
            AnyManager::Ideal(m) => m.finish(task, now),
            AnyManager::Nanos(m) => m.finish(task, now),
            AnyManager::NexusPP(m) => m.finish(task, now),
            AnyManager::NexusSharp(m) => m.finish(task, now),
        }
    }
    fn dispatch_cost(&mut self, task: TaskId, now: SimTime) -> SimDuration {
        match self {
            AnyManager::Ideal(m) => m.dispatch_cost(task, now),
            AnyManager::Nanos(m) => m.dispatch_cost(task, now),
            AnyManager::NexusPP(m) => m.dispatch_cost(task, now),
            AnyManager::NexusSharp(m) => m.dispatch_cost(task, now),
        }
    }
    fn supports_taskwait_on(&self) -> bool {
        match self {
            AnyManager::Ideal(m) => m.supports_taskwait_on(),
            AnyManager::Nanos(m) => m.supports_taskwait_on(),
            AnyManager::NexusPP(m) => m.supports_taskwait_on(),
            AnyManager::NexusSharp(m) => m.supports_taskwait_on(),
        }
    }
    fn drain_events(&mut self) -> Vec<ManagerEvent> {
        match self {
            AnyManager::Ideal(m) => m.drain_events(),
            AnyManager::Nanos(m) => m.drain_events(),
            AnyManager::NexusPP(m) => m.drain_events(),
            AnyManager::NexusSharp(m) => m.drain_events(),
        }
    }
    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        match self {
            AnyManager::Ideal(m) => m.drain_events_into(out),
            AnyManager::Nanos(m) => m.drain_events_into(out),
            AnyManager::NexusPP(m) => m.drain_events_into(out),
            AnyManager::NexusSharp(m) => m.drain_events_into(out),
        }
    }
    fn stats_summary(&self) -> Vec<(String, f64)> {
        match self {
            AnyManager::Ideal(m) => m.stats_summary(),
            AnyManager::Nanos(m) => m.stats_summary(),
            AnyManager::NexusPP(m) => m.stats_summary(),
            AnyManager::NexusSharp(m) => m.stats_summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_construction() {
        assert_eq!(ManagerKind::Ideal.label(), "ideal");
        assert_eq!(
            ManagerKind::NexusSharp { task_graphs: 6 }.label(),
            "Nexus# 6TG"
        );
        assert_eq!(
            ManagerKind::NexusSharpAtMhz {
                task_graphs: 2,
                mhz: 100.0
            }
            .label(),
            "Nexus# 2TG@100MHz"
        );
        let m = ManagerKind::NexusSharp { task_graphs: 4 }.build("c-ray", 8);
        assert_eq!(m.name(), "Nexus# (4 TGs)");
        let m = ManagerKind::Nanos.build("streamcluster", 8);
        assert_eq!(m.name(), "Nanos");
        assert_eq!(ManagerKind::fig8_set().len(), 4);
    }
}
