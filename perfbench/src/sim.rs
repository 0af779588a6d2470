//! The simulator side: untraced runs timed around the event loop, and the
//! traced pass that splits host time by layer by timing calls into the
//! layers' public functions from outside.

use nexus_cluster::routing::DepScanner;
use nexus_cluster::{
    ClusterConfig, ClusterDriver, ClusterOutcome, MemRecorder, Registry, StreamOutcome,
    StreamingSource, TimeBase,
};
use nexus_core::NexusSharp;
use nexus_host::{ManagerEvent, TaskManager};
use nexus_obs::check_conservation;
use nexus_sim::{SimDuration, SimTime};
use nexus_trace::{TaskDescriptor, TaskId, Trace};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Event kinds `ClusterDriver::run_profiled` reports, as named in its
/// `engine.event.<kind>.*` counters.
pub const EVENT_KINDS: [&str; 16] = [
    "master_step",
    "descriptor_arrive",
    "notify_arrive",
    "pump",
    "ready",
    "worker_finish",
    "worker_free",
    "retired",
    "master_saw_retire",
    "steal_request",
    "stolen_arrive",
    "steal_failed",
    "reclaim_request",
    "reclaimed_arrive",
    "reclaim_failed",
    "relay",
];

/// Tier names of the fabrics the workloads use (`mesh` has one tier called
/// `link`; `RackTiers` has two).
pub const TIER_NAMES: [&str; 3] = ["link", "intra-rack", "inter-rack"];

/// The per-node manager every simulated workload uses.
pub fn manager(_node: usize) -> NexusSharp {
    NexusSharp::paper(6)
}

/// What one simulated run produced.
#[derive(Debug)]
pub enum Outcome {
    /// A closed-loop run (`ClusterDriver::run`).
    Closed(ClusterOutcome),
    /// An open-loop run (`ClusterDriver::run_streaming`).
    Open(StreamOutcome),
}

impl Outcome {
    /// The cluster-level fields.
    pub fn cluster(&self) -> &ClusterOutcome {
        match self {
            Outcome::Closed(c) => c,
            Outcome::Open(s) => &s.cluster,
        }
    }

    /// Every simulated field, for exact comparison between runs.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Runs `trace` once and returns the outcome with the host seconds spent in
/// the event loop (`ClusterDriver::run`, or `run_streaming` when a source
/// is given).
pub fn run(cfg: &ClusterConfig, trace: &Trace, source: Option<&StreamingSource>) -> (Outcome, f64) {
    let driver = ClusterDriver::new(cfg, manager);
    let t0 = Instant::now();
    let outcome = match source {
        Some(src) => Outcome::Open(driver.run_streaming(trace, src)),
        None => Outcome::Closed(driver.run(trace)),
    };
    (outcome, t0.elapsed().as_secs_f64())
}

/// Checks a simulated run against the trace: every task retired and the
/// master's last-writer table is the program-order one.
pub fn check(
    out: &ClusterOutcome,
    trace: &Trace,
    last_writer: &[(u64, TaskId)],
) -> Result<(), String> {
    let tasks = trace.task_count() as u64;
    if out.tasks != tasks || out.metrics.counter("task.retired") != tasks {
        return Err(format!(
            "simulated {} executed / {} retired of {tasks} tasks",
            out.tasks,
            out.metrics.counter("task.retired")
        ));
    }
    if out.master_last_writer != last_writer {
        return Err("simulated last-writer table differs from program order".into());
    }
    Ok(())
}

/// Per-task submit→retire latencies of the run, in picoseconds, ascending.
/// A closed-loop run records none, so the trace is replayed once more
/// through a closed-loop streaming source, which reproduces the plain run
/// exactly and records latencies on the side.
pub fn latencies(
    cfg: &ClusterConfig,
    trace: &Trace,
    outcome: &Outcome,
) -> Result<(Vec<u64>, StreamOutcome), String> {
    let stream = match outcome {
        Outcome::Open(s) => s.clone(),
        Outcome::Closed(plain) => {
            let s = ClusterDriver::new(cfg, manager)
                .run_streaming(trace, &StreamingSource::closed_loop());
            let c = &s.cluster;
            if (c.makespan, c.sim_events, &c.master_last_writer)
                != (plain.makespan, plain.sim_events, &plain.master_last_writer)
            {
                return Err("closed-loop streaming replay diverged from the plain run".into());
            }
            s
        }
    };
    let mut ps: Vec<u64> = stream.latencies.iter().map(|d| d.as_ps()).collect();
    ps.sort_unstable();
    Ok((ps, stream))
}

/// Host time and call counts of one manager entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTime {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds spent inside them.
    pub ns: u64,
}

impl CallTime {
    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

/// Host time inside the manager model, summed over all nodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct ManagerTimes {
    /// `TaskManager::submit`.
    pub submit: CallTime,
    /// `TaskManager::finish`.
    pub finish: CallTime,
    /// `TaskManager::drain_events` / `drain_events_into`.
    pub drain: CallTime,
}

impl ManagerTimes {
    /// Total wall seconds inside the timed entry points.
    pub fn wall_s(&self) -> f64 {
        (self.submit.ns + self.finish.ns + self.drain.ns) as f64 * 1e-9
    }
}

/// A task manager that forwards every call to `inner` and times the
/// submit, finish and drain entry points into a table shared by all nodes.
pub struct Timed<M> {
    inner: M,
    times: Rc<RefCell<ManagerTimes>>,
}

impl<M> Timed<M> {
    /// Wraps `inner`, accumulating into `times`.
    pub fn new(inner: M, times: Rc<RefCell<ManagerTimes>>) -> Self {
        Timed { inner, times }
    }
}

impl<M: TaskManager> TaskManager for Timed<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn can_accept(&self, now: SimTime) -> bool {
        self.inner.can_accept(now)
    }

    fn submit(&mut self, task: &TaskDescriptor, now: SimTime) -> SimTime {
        let inner = &mut self.inner;
        self.times
            .borrow_mut()
            .submit
            .timed(|| inner.submit(task, now))
    }

    fn finish(&mut self, task: TaskId, now: SimTime) -> SimTime {
        let inner = &mut self.inner;
        self.times
            .borrow_mut()
            .finish
            .timed(|| inner.finish(task, now))
    }

    fn dispatch_cost(&mut self, task: TaskId, now: SimTime) -> SimDuration {
        self.inner.dispatch_cost(task, now)
    }

    fn supports_taskwait_on(&self) -> bool {
        self.inner.supports_taskwait_on()
    }

    fn drain_events(&mut self) -> Vec<ManagerEvent> {
        let inner = &mut self.inner;
        self.times.borrow_mut().drain.timed(|| inner.drain_events())
    }

    fn drain_events_into(&mut self, out: &mut Vec<ManagerEvent>) {
        let inner = &mut self.inner;
        self.times
            .borrow_mut()
            .drain
            .timed(|| inner.drain_events_into(out))
    }

    fn stats_summary(&self) -> Vec<(String, f64)> {
        self.inner.stats_summary()
    }
}

/// The per-layer host-time profile of one simulated run.
pub struct Profile {
    /// `run_profiled`'s per-event-kind handler time and queue counters.
    pub engine: Registry,
    /// Time inside the manager model during the same run.
    pub manager: ManagerTimes,
    /// Wall seconds of the whole profiled event loop.
    pub loop_s: f64,
}

impl Profile {
    /// Handler wall seconds summed over every event kind.
    pub fn handler_s(&self) -> f64 {
        self.engine
            .counters_with_prefix("engine.event.")
            .filter(|(k, _)| k.ends_with(".wall_ns"))
            .map(|(_, v)| v as f64 * 1e-9)
            .sum()
    }
}

/// Runs the trace closed-loop through `run_profiled` on managers wrapped in
/// [`Timed`]. The driver exposes no profiled open-loop run, so an open-loop
/// workload is profiled on the closed-loop replay of its trace.
pub fn profile(cfg: &ClusterConfig, trace: &Trace) -> (ClusterOutcome, Profile) {
    let times = Rc::new(RefCell::new(ManagerTimes::default()));
    let driver = ClusterDriver::new(cfg, |n| Timed::new(manager(n), Rc::clone(&times)));
    let t0 = Instant::now();
    let (outcome, engine) = driver.run_profiled(trace);
    let loop_s = t0.elapsed().as_secs_f64();
    let manager = *times.borrow();
    (
        outcome,
        Profile {
            engine,
            manager,
            loop_s,
        },
    )
}

/// One run with a span recorder attached: the outcome (which must equal the
/// untraced one), the loop's wall seconds and the recorded span count, after
/// checking span conservation.
pub fn recorded(
    cfg: &ClusterConfig,
    trace: &Trace,
    source: Option<&StreamingSource>,
) -> Result<(Outcome, f64, usize), String> {
    let mut rec = MemRecorder::new(TimeBase::VirtualPs);
    let driver = ClusterDriver::new(cfg, manager);
    let t0 = Instant::now();
    let outcome = match source {
        Some(src) => Outcome::Open(driver.run_streaming_recorded(trace, src, &mut rec)),
        None => Outcome::Closed(driver.run_recorded(trace, &mut rec)),
    };
    let wall = t0.elapsed().as_secs_f64();
    let report = check_conservation(&rec.events).map_err(|e| format!("simulated spans: {e}"))?;
    if report.retired != trace.task_count() {
        return Err(format!(
            "simulated spans retire {} of {} tasks",
            report.retired,
            trace.task_count()
        ));
    }
    Ok((outcome, wall, rec.len()))
}

/// Replays the placement scan over the trace, as the driver's routing
/// pre-pass runs it. Returns wall nanoseconds per `scan_full` call and the
/// fraction of dependence edges that cross nodes.
pub fn replay_scan(cfg: &ClusterConfig, trace: &Trace) -> (f64, f64) {
    let mut scanner = DepScanner::with_policy(cfg.nodes, cfg.placement.build())
        .with_distances(cfg.link.fabric(cfg.nodes).distances());
    let t0 = Instant::now();
    for task in trace.tasks() {
        std::hint::black_box(scanner.scan_full(task));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (
        ns / trace.task_count().max(1) as f64,
        scanner.stats().remote_fraction(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_trace::generators::distributed;

    #[test]
    fn timed_managers_leave_the_outcome_unchanged() {
        let trace = distributed::sparselu(2, 0.3, 1, 0.002);
        let cfg = ClusterConfig::new(2, 2);
        let (plain, _) = run(&cfg, &trace, None);
        let (wrapped, profile) = profile(&cfg, &trace);
        assert_eq!(format!("{:?}", plain.cluster()), format!("{wrapped:?}"));
        let m = profile.manager;
        assert_eq!(m.submit.calls, trace.task_count() as u64);
        assert_eq!(m.finish.calls, trace.task_count() as u64);
        assert!(m.drain.calls > 0);
        assert!(profile.handler_s() <= profile.loop_s);
    }

    #[test]
    fn recorded_runs_leave_the_outcome_unchanged() {
        let trace = distributed::sparselu(2, 0.3, 1, 0.002);
        let cfg = ClusterConfig::new(2, 2);
        let (plain, _) = run(&cfg, &trace, None);
        let (traced, _, spans) = recorded(&cfg, &trace, None).expect("spans conserve tasks");
        assert_eq!(plain.fingerprint(), traced.fingerprint());
        assert!(spans >= 2 * trace.task_count());
    }

    #[test]
    fn runs_are_checked_against_program_order() {
        let trace = distributed::sparselu(2, 0.3, 1, 0.002);
        let table = crate::workload::last_writer_table(&trace);
        let (out, _) = run(&ClusterConfig::new(2, 2), &trace, None);
        assert_eq!(check(out.cluster(), &trace, &table), Ok(()));
        assert!(check(out.cluster(), &trace, &table[1..]).is_err());
    }
}
