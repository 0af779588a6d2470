//! The Nanos runtime model (implements [`TaskManager`]).

use crate::calibration::benchmark_overhead_scale;
use crate::config::NanosConfig;
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_sim::{SerialResource, SimDuration, SimTime};
use nexus_taskgraph::ReferenceGraph;
use nexus_trace::{TaskDescriptor, TaskId};
use std::collections::HashMap;

/// The software OmpSs runtime (Nanos) cost model.
pub struct NanosRuntime {
    config: NanosConfig,
    /// Exact software dependency graph (hash-map based, like the real runtime).
    graph: ReferenceGraph,
    /// The central runtime lock every graph/scheduler operation serializes on.
    runtime_lock: SerialResource,
    /// Dependency count of each in-flight task (for release cost accounting).
    dep_degree: HashMap<TaskId, usize>,
    pending: Vec<ManagerEvent>,
    tasks_submitted: u64,
    tasks_retired: u64,
    last_activity: SimTime,
}

impl NanosRuntime {
    /// Creates a Nanos model with explicit cost parameters.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: NanosConfig) -> Self {
        config.validate().expect("invalid Nanos configuration");
        NanosRuntime {
            config,
            graph: ReferenceGraph::new(),
            runtime_lock: SerialResource::new(),
            dep_degree: HashMap::new(),
            pending: Vec::new(),
            tasks_submitted: 0,
            tasks_retired: 0,
            last_activity: SimTime::ZERO,
        }
    }

    /// Creates a Nanos model for a given worker count with the calibrated
    /// overhead scale of the named benchmark (see [`crate::calibration`]).
    pub fn for_benchmark(benchmark: &str, workers: usize) -> Self {
        let scale = benchmark_overhead_scale(benchmark);
        Self::new(NanosConfig::with_workers(workers).scaled(scale))
    }

    /// The configuration in use.
    pub fn config(&self) -> &NanosConfig {
        &self.config
    }

    /// Serializes one runtime-lock critical section starting no earlier than
    /// `not_before`; returns the time the lock is released.
    fn lock_section(&mut self, not_before: SimTime) -> SimTime {
        let hold = SimDuration::from_us_f64(self.config.lock_hold_us());
        self.runtime_lock.acquire(not_before, hold).end
    }
}

impl TaskManager for NanosRuntime {
    fn name(&self) -> String {
        "Nanos".to_string()
    }

    fn can_accept(&self, _now: SimTime) -> bool {
        true // the software runtime has no hard in-flight window
    }

    fn supports_taskwait_on(&self) -> bool {
        true // OmpSs/Nanos implements taskwait on in software
    }

    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        self.tasks_submitted += 1;
        self.last_activity = self.last_activity.max(now);
        let deps = task.num_params();
        self.dep_degree.insert(task.id, deps);

        // Local (uncontended) part of task creation on the master.
        let local_done = now + SimDuration::from_us_f64(self.config.creation_us(deps));
        // Dependency insertion under the runtime lock.
        let lock_released = self.lock_section(local_done);

        if self.graph.insert(task) {
            self.pending.push(ManagerEvent::Ready {
                task: task.id,
                at: lock_released,
            });
        }
        lock_released
    }

    fn dispatch_cost(&mut self, _task: TaskId, now: SimTime) -> SimDuration {
        // Ready-queue pop on the worker: local wake-up plus a lock section.
        let local_done = now + SimDuration::from_us_f64(self.config.dispatch_cost_us());
        let lock_released = self.lock_section(local_done);
        lock_released.since(now)
    }

    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        self.last_activity = self.last_activity.max(now);
        let deps = self.dep_degree.remove(&task).unwrap_or(1);
        // Local completion handling on the worker, then the dependency-release
        // walk under the runtime lock.
        let local_done = now + SimDuration::from_us_f64(self.config.release_cost_us(deps));
        let lock_released = self.lock_section(local_done);

        for ready in self.graph.retire(task) {
            self.pending.push(ManagerEvent::Ready {
                task: ready,
                at: lock_released,
            });
        }
        self.tasks_retired += 1;
        self.pending.push(ManagerEvent::Retired {
            task,
            at: lock_released,
        });
        lock_released
    }

    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        out.append(&mut self.pending);
    }

    fn stats_summary(&self) -> Vec<(String, f64)> {
        vec![
            ("tasks_submitted".into(), self.tasks_submitted as f64),
            ("tasks_retired".into(), self.tasks_retired as f64),
            (
                "runtime_lock_utilization".into(),
                self.runtime_lock.utilization(self.last_activity),
            ),
            (
                "runtime_lock_wait_us".into(),
                self.runtime_lock.wait_time().as_us_f64(),
            ),
            ("overhead_scale".into(), self.config.overhead_scale),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_host::driver::{simulate, HostConfig};
    use nexus_host::IdealManager;
    use nexus_trace::generators::micro;

    #[test]
    fn coarse_tasks_scale_well() {
        // 6 ms tasks: Nanos overhead (a few us) is negligible.
        let trace = micro::independent_tasks(64, 1, SimDuration::from_us(6000));
        let cfg = HostConfig::with_workers(16);
        let out = simulate(
            &trace,
            &mut NanosRuntime::new(NanosConfig::with_workers(16)),
            &cfg,
        );
        let ideal = simulate(&trace, &mut IdealManager::new(), &cfg);
        assert!(out.speedup() > 0.9 * ideal.speedup(), "{}", out.speedup());
    }

    #[test]
    fn fine_tasks_are_overhead_dominated() {
        // 5 us tasks: per-task overheads of a few us crush the speedup.
        let trace = micro::independent_tasks(500, 2, SimDuration::from_us(5));
        let out32 = simulate(
            &trace,
            &mut NanosRuntime::new(NanosConfig::with_workers(32)),
            &HostConfig::with_workers(32),
        );
        assert!(out32.speedup() < 3.0, "{}", out32.speedup());
        // And the curve degrades (or at best stagnates) as contention grows.
        let out8 = simulate(
            &trace,
            &mut NanosRuntime::new(NanosConfig::with_workers(8)),
            &HostConfig::with_workers(8),
        );
        assert!(
            out8.speedup() >= out32.speedup() * 0.8,
            "8c {} vs 32c {}",
            out8.speedup(),
            out32.speedup()
        );
    }

    #[test]
    fn lock_contention_grows_with_worker_count() {
        let trace = micro::independent_tasks(400, 2, SimDuration::from_us(20));
        let mut m8 = NanosRuntime::new(NanosConfig::with_workers(8));
        let mut m32 = NanosRuntime::new(NanosConfig::with_workers(32));
        simulate(&trace, &mut m8, &HostConfig::with_workers(8));
        simulate(&trace, &mut m32, &HostConfig::with_workers(32));
        let wait8: f64 = m8
            .stats_summary()
            .into_iter()
            .find(|(k, _)| k == "runtime_lock_wait_us")
            .unwrap()
            .1;
        let wait32: f64 = m32
            .stats_summary()
            .into_iter()
            .find(|(k, _)| k == "runtime_lock_wait_us")
            .unwrap()
            .1;
        assert!(wait32 > wait8, "lock wait {wait32} !> {wait8}");
    }

    #[test]
    fn calibrated_constructor_picks_the_benchmark_scale() {
        let m = NanosRuntime::for_benchmark("streamcluster", 16);
        assert!((m.config().overhead_scale - 9.5).abs() < 1e-12);
        let m = NanosRuntime::for_benchmark("c-ray", 16);
        assert!((m.config().overhead_scale - 1.0).abs() < 1e-12);
        assert_eq!(m.name(), "Nanos");
        assert!(m.supports_taskwait_on());
    }

    #[test]
    fn dependency_chains_are_correct() {
        let trace = micro::chain(30, SimDuration::from_us(10));
        let out = simulate(
            &trace,
            &mut NanosRuntime::new(NanosConfig::with_workers(4)),
            &HostConfig::with_workers(4),
        );
        assert_eq!(out.tasks, 30);
        assert!(out.speedup() < 1.0);
    }
}
