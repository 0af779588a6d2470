//! Construction of the task managers compared in the evaluation.

use nexus_core::{NexusSharp, NexusSharpConfig};
use nexus_host::manager::TaskManager;
use nexus_host::IdealManager;
use nexus_nanos::NanosRuntime;
use nexus_pp::NexusPP;

/// The manager configurations compared in Figs. 7–9 and Table IV. Two equal
/// values build identical managers, so a `ManagerKind` identifies a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManagerKind {
    /// The "No Overhead" ideal curve.
    Ideal,
    /// The Nanos software runtime (calibrated per benchmark).
    Nanos,
    /// The Nexus++ centralized hardware manager at 100 MHz.
    NexusPP,
    /// Nexus# with `task_graphs` task graphs clocked at `mhz` (Fig. 7(a)
    /// runs every configuration at 100 MHz; Fig. 9 the 1- and 2-TG ones).
    NexusSharp {
        /// Number of task-graph units.
        task_graphs: usize,
        /// Clock frequency in MHz.
        mhz: f64,
    },
}

impl ManagerKind {
    /// Nexus# with `task_graphs` task graphs at its Table I test frequency
    /// (6 task graphs run at 55.56 MHz, the configuration of Fig. 8).
    pub fn nexus_sharp(task_graphs: usize) -> Self {
        ManagerKind::NexusSharp {
            task_graphs,
            mhz: NexusSharpConfig::paper(task_graphs).clock_mhz,
        }
    }

    /// Display label used in tables.
    pub fn label(&self) -> String {
        match self {
            ManagerKind::Ideal => "ideal".to_string(),
            ManagerKind::Nanos => "Nanos".to_string(),
            ManagerKind::NexusPP => "Nexus++".to_string(),
            ManagerKind::NexusSharp { task_graphs, mhz } => {
                format!("Nexus# {task_graphs}TG@{mhz:.0}MHz")
            }
        }
    }

    /// Builds a fresh manager instance for a run of `benchmark` on `workers`
    /// worker cores.
    pub fn build(&self, benchmark: &str, workers: usize) -> Box<dyn TaskManager> {
        match *self {
            ManagerKind::Ideal => Box::new(IdealManager::new()),
            ManagerKind::Nanos => Box::new(NanosRuntime::for_benchmark(benchmark, workers)),
            ManagerKind::NexusPP => Box::new(NexusPP::paper()),
            ManagerKind::NexusSharp { task_graphs, mhz } => {
                Box::new(NexusSharp::new(NexusSharpConfig::at_mhz(task_graphs, mhz)))
            }
        }
    }

    /// The four-manager comparison of Fig. 8 (ideal, Nanos, Nexus++, Nexus# 6 TGs).
    pub fn fig8_set() -> [ManagerKind; 4] {
        [
            ManagerKind::Ideal,
            ManagerKind::Nanos,
            ManagerKind::NexusPP,
            ManagerKind::nexus_sharp(6),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_construction() {
        assert_eq!(ManagerKind::Ideal.label(), "ideal");
        assert_eq!(ManagerKind::nexus_sharp(6).label(), "Nexus# 6TG@56MHz");
        assert_eq!(
            ManagerKind::NexusSharp {
                task_graphs: 2,
                mhz: 100.0
            }
            .label(),
            "Nexus# 2TG@100MHz"
        );
        let m = ManagerKind::nexus_sharp(4).build("c-ray", 8);
        assert_eq!(m.name(), "Nexus# (4 TGs)");
        let m = ManagerKind::Nanos.build("streamcluster", 8);
        assert_eq!(m.name(), "Nanos");
        assert_eq!(ManagerKind::fig8_set().len(), 4);
    }

    #[test]
    fn equal_kinds_are_equal_configurations() {
        // Fig. 7(b)'s 1- and 2-TG rows run at the 100 MHz of Fig. 7(a), and its
        // 6-TG row is Fig. 8's Nexus#: each pair must share one curve.
        let at = |task_graphs, mhz| ManagerKind::NexusSharp { task_graphs, mhz };
        assert_eq!(ManagerKind::nexus_sharp(2), at(2, 100.0));
        assert_eq!(ManagerKind::nexus_sharp(6), ManagerKind::fig8_set()[3]);
        assert_ne!(ManagerKind::nexus_sharp(4), at(4, 100.0));
    }
}
