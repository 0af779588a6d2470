//! The Nexus++ discrete-event model (implements [`TaskManager`]).

use crate::config::{
    insert_cycles, ip_cycles, NexusPPConfig, CLOCK_MHZ, DELETE_CYCLES_PER_PARAM,
    FIFO_LATENCY_CYCLES, FINISH_RECEIVE_CYCLES, KICKOFF_CYCLES_PER_WAITER,
    KICKOFF_SEGMENT_PENALTY_CYCLES, OVERFLOW_PENALTY_CYCLES, WRITEBACK_CYCLES,
};
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_sim::{ClockDomain, SerialResource, SimDuration, SimTime};
use nexus_taskgraph::{DependencyTracker, SetAssocConfig, TaskPool};
use nexus_trace::{TaskDescriptor, TaskId};

/// The centralized Nexus++ hardware task manager.
pub struct NexusPP {
    clock: ClockDomain,

    /// The Nexus IO / Input Parser front-end: receives task submissions and
    /// finished-task notifications from the host (serial).
    io_front_end: SerialResource,
    /// The single task-graph engine: executes the Insert stage and the
    /// finished-task cleanup, which contend with each other.
    graph_engine: SerialResource,
    /// The Write Back port returning ready task ids to the host.
    writeback: SerialResource,

    /// Functional dependency state of the single task graph.
    tracker: DependencyTracker,
    /// The Task Pool: every in-flight task's parameter list (needed at
    /// cleanup time) and dependence count (circular-buffer recycling by
    /// default).
    pool: TaskPool,
    /// The tasks a finishing task released, reused by every `finish`.
    released: Vec<TaskId>,

    pending: Vec<ManagerEvent>,
    /// Counters for `stats_summary`.
    tasks_submitted: u64,
    tasks_retired: u64,
    ready_immediately: u64,
    last_activity: SimTime,
}

impl NexusPP {
    /// Creates a Nexus++ model with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: NexusPPConfig) -> Self {
        config.validate().expect("invalid Nexus++ configuration");
        NexusPP {
            clock: ClockDomain::from_mhz(CLOCK_MHZ),
            tracker: DependencyTracker::new(SetAssocConfig::default()),
            pool: TaskPool::new(config.task_pool_capacity, config.retirement),
            io_front_end: SerialResource::new(),
            graph_engine: SerialResource::new(),
            writeback: SerialResource::new(),
            released: Vec::new(),
            pending: Vec::new(),
            tasks_submitted: 0,
            tasks_retired: 0,
            ready_immediately: 0,
            last_activity: SimTime::ZERO,
        }
    }

    /// Creates the paper's evaluation configuration (100 MHz).
    pub fn paper() -> Self {
        Self::new(NexusPPConfig::paper())
    }

    fn cycles(&self, n: u64) -> SimDuration {
        self.clock.cycles(n)
    }

    fn fifo_delay(&self) -> SimDuration {
        self.cycles(FIFO_LATENCY_CYCLES)
    }

    /// Emits a ready notification through the Write Back stage.
    fn write_back_ready(&mut self, task: TaskId, not_before: SimTime) {
        let res = self.writeback.acquire_after(
            not_before,
            not_before + self.fifo_delay(),
            self.cycles(WRITEBACK_CYCLES),
        );
        self.pending.push(ManagerEvent::Ready { task, at: res.end });
    }
}

impl TaskManager for NexusPP {
    fn name(&self) -> String {
        "Nexus++".to_string()
    }

    fn supports_taskwait_on(&self) -> bool {
        // §III: "it doesn't support the barrier pragma taskwait on".
        false
    }

    fn can_accept(&self, _now: SimTime) -> bool {
        self.pool.has_free_slot()
    }

    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        self.tasks_submitted += 1;
        self.last_activity = self.last_activity.max(now);

        // Stage 1: Input Parser — the master streams the whole descriptor over
        // the Nexus IO; the master is busy for the duration of the transfer.
        let ip = self
            .io_front_end
            .acquire(now, self.cycles(ip_cycles(task.num_params())));

        // Stage 2: Insert — the whole parameter list is inserted into the single
        // task graph once the descriptor has passed through the inter-stage FIFO.
        let mut insert_len = insert_cycles(task.num_params());
        let mut params = self.pool.empty_list();
        let mut deps = 0;
        for p in &task.params {
            let outcome = self.tracker.insert_param(task.id, p.addr, p.dir);
            params.push((p.addr, outcome.access));
            deps += u32::from(outcome.blocked);
            if outcome.overflow {
                insert_len += OVERFLOW_PENALTY_CYCLES;
            }
            if outcome.kickoff_segment > 1 {
                // Appending to a chained (dummy-entry) segment costs one extra
                // pointer chase (the design keeps a tail pointer).
                insert_len += KICKOFF_SEGMENT_PENALTY_CYCLES;
            }
        }
        let insert = self.graph_engine.acquire_after(
            ip.end,
            ip.end + self.fifo_delay(),
            self.cycles(insert_len),
        );

        // Bookkeeping for the finished-task pipeline.
        self.pool
            .admit(task.id, params, deps)
            .expect("driver must check can_accept before submitting");

        // Stage 3: Write Back for tasks with no unresolved dependencies.
        if deps == 0 {
            self.ready_immediately += 1;
            self.write_back_ready(task.id, insert.end);
        }

        // The master is released once the transfer into the Nexus IO completes.
        ip.end
    }

    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        self.last_activity = self.last_activity.max(now);
        // The worker writes a completion notification to the Nexus IO unit.
        let recv = self
            .io_front_end
            .acquire(now, self.cycles(FINISH_RECEIVE_CYCLES));

        // The finished-task pipeline walks the task's parameter list, kicks off
        // waiting tasks and cleans up table entries; it contends with the Insert
        // stage for the single task graph.
        let params = self.pool.finish(task);
        let mut cleanup_cycles = DELETE_CYCLES_PER_PARAM * params.len() as u64;
        let mut released = std::mem::take(&mut self.released);
        released.clear();
        for &(addr, access) in &params {
            let out = self.tracker.retire_param(task, addr, access, &mut released);
            cleanup_cycles += KICKOFF_CYCLES_PER_WAITER * out.waiters_scanned as u64;
        }
        self.pool.recycle(params);
        let cleanup = self.graph_engine.acquire_after(
            recv.end,
            recv.end + self.fifo_delay(),
            self.cycles(cleanup_cycles),
        );

        // Kicked-off tasks whose dependence count reaches zero go through the
        // Write Back stage.
        for &dep in &released {
            if self.pool.release(dep) {
                self.write_back_ready(dep, cleanup.end);
            }
        }
        self.released = released;

        // Retirement (as observed by `taskwait`) happens when cleanup completes.
        self.tasks_retired += 1;
        self.pending.push(ManagerEvent::Retired {
            task,
            at: cleanup.end,
        });

        // The worker is released as soon as its notification has been accepted.
        recv.end
    }

    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        out.append(&mut self.pending);
    }

    fn stats_summary(&self) -> Vec<(String, f64)> {
        let horizon = self.last_activity;
        vec![
            ("tasks_submitted".into(), self.tasks_submitted as f64),
            ("tasks_retired".into(), self.tasks_retired as f64),
            ("ready_immediately".into(), self.ready_immediately as f64),
            (
                "io_utilization".into(),
                self.io_front_end.utilization(horizon),
            ),
            (
                "graph_engine_utilization".into(),
                self.graph_engine.utilization(horizon),
            ),
            (
                "writeback_utilization".into(),
                self.writeback.utilization(horizon),
            ),
            (
                "pool_peak_occupancy".into(),
                self.pool.stats().peak_occupancy as f64,
            ),
            (
                "table_peak_addresses".into(),
                self.tracker.table_stats().peak_live as f64,
            ),
            (
                "max_kickoff_list".into(),
                self.tracker.stats().max_kickoff_len as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_host::driver::{simulate, HostConfig};
    use nexus_host::IdealManager;
    use nexus_sim::SimDuration;
    use nexus_trace::generators::micro;

    #[test]
    fn single_independent_task_latency_matches_the_pipeline() {
        // One 4-parameter task: ready after IP (12) + fifo (3) + Insert (18)
        // + fifo (3) + WB (3) = 39 cycles = 390 ns at 100 MHz.
        let mut m = NexusPP::paper();
        let trace = micro::single_task(4, SimDuration::from_us(1));
        let task = trace.tasks().next().unwrap();
        let release = m.submit(task, SimTime::ZERO);
        assert_eq!(
            release,
            SimTime::from_ps(120_000),
            "master busy for 12 cycles"
        );
        let events = m.drain_events();
        assert_eq!(events.len(), 1);
        match events[0] {
            ManagerEvent::Ready { task: t, at } => {
                assert_eq!(t, task.id);
                assert_eq!(at, SimTime::from_ps(390_000));
            }
            _ => panic!("expected a ready event"),
        }
    }

    #[test]
    fn dependent_task_is_only_ready_after_the_producer_retires() {
        let mut m = NexusPP::paper();
        let trace = micro::chain(2, SimDuration::from_us(5));
        let tasks: Vec<_> = trace.tasks().cloned().collect();
        m.submit(&tasks[0], SimTime::ZERO);
        m.submit(&tasks[1], SimTime::ZERO);
        let readies = m
            .drain_events()
            .iter()
            .filter(|e| matches!(e, ManagerEvent::Ready { .. }))
            .count();
        assert_eq!(readies, 1, "only the first task is ready");
        // Finish the first task; the second becomes ready afterwards.
        let t_fin = SimTime::from_ps(10_000_000);
        m.finish(tasks[0].id, t_fin);
        let events = m.drain_events();
        let ready_second = events.iter().any(
            |e| matches!(e, ManagerEvent::Ready { task, at } if *task == tasks[1].id && *at > t_fin),
        );
        assert!(ready_second, "{events:?}");
        let retired_first = events
            .iter()
            .any(|e| matches!(e, ManagerEvent::Retired { task, .. } if *task == tasks[0].id));
        assert!(retired_first);
    }

    #[test]
    fn back_pressure_when_the_pool_fills() {
        let cfg = NexusPPConfig {
            task_pool_capacity: 2,
            ..Default::default()
        };
        let mut m = NexusPP::new(cfg);
        let trace = micro::independent_tasks(3, 1, SimDuration::from_us(1));
        let tasks: Vec<_> = trace.tasks().cloned().collect();
        assert!(m.can_accept(SimTime::ZERO));
        m.submit(&tasks[0], SimTime::ZERO);
        m.submit(&tasks[1], SimTime::ZERO);
        assert!(!m.can_accept(SimTime::ZERO), "pool of 2 is full");
        m.finish(tasks[0].id, SimTime::from_ps(1_000_000));
        assert!(m.can_accept(SimTime::ZERO));
    }

    #[test]
    fn full_simulation_matches_ideal_for_coarse_independent_tasks() {
        // With 6 ms tasks (c-ray-like) the manager overhead is negligible:
        // Nexus++ should be within a few percent of the ideal manager.
        let trace = micro::independent_tasks(64, 1, SimDuration::from_us(6000));
        let cfg = HostConfig::with_workers(16);
        let ideal = simulate(&trace, &mut IdealManager::new(), &cfg);
        let pp = simulate(&trace, &mut NexusPP::paper(), &cfg);
        assert!(
            pp.speedup() > 0.97 * ideal.speedup(),
            "{} vs {}",
            pp.speedup(),
            ideal.speedup()
        );
        assert_eq!(pp.tasks, 64);
    }

    #[test]
    fn fine_grained_chains_expose_the_serial_pipeline_cost() {
        // A serial chain of 1 us tasks: every task pays the full submit+finish
        // round trip, so Nexus++ must be slower than ideal but still correct.
        let trace = micro::chain(100, SimDuration::from_us(1));
        let cfg = HostConfig::with_workers(4);
        let ideal = simulate(&trace, &mut IdealManager::new(), &cfg);
        let pp = simulate(&trace, &mut NexusPP::paper(), &cfg);
        assert_eq!(pp.tasks, 100);
        assert!(pp.makespan > ideal.makespan);
        assert!(pp.speedup() < 1.0);
        assert!(pp.speedup() > 0.3, "{}", pp.speedup());
    }

    #[test]
    fn stats_summary_reports_utilizations() {
        let trace = micro::independent_tasks(10, 2, SimDuration::from_us(10));
        let mut m = NexusPP::paper();
        simulate(&trace, &mut m, &HostConfig::with_workers(4));
        let stats: std::collections::HashMap<String, f64> = m.stats_summary().into_iter().collect();
        assert_eq!(stats["tasks_submitted"], 10.0);
        assert_eq!(stats["tasks_retired"], 10.0);
        assert!(stats["io_utilization"] > 0.0);
        assert!(stats["graph_engine_utilization"] > 0.0);
    }
}
