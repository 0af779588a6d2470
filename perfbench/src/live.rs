//! The live side: the trace replayed on `nexus-rt` from one caller thread
//! through `RuntimeHandle::submit`, honouring its taskwaits, with every
//! submit and taskwait call timed from the caller.

use crate::os::process_cpu_time;
use crate::stats::{median, percentile};
use nexus_cluster::routing::DepScanner;
use nexus_obs::check_conservation;
use nexus_rt::{ClusterRuntime, RtConfig, RtTask, SharedRecorder, SpanEvent};
use nexus_sim::FxHashMap;
use nexus_trace::{TaskId, Trace, TraceOp};
use std::time::{Duration, Instant};

/// How long a drained shutdown may take before the run counts as hung.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(30);

/// The dependence graph as the runtime's scanner builds it: per task in
/// submission order, its id and the submission indices of its producers.
pub struct DepGraph {
    ids: Vec<TaskId>,
    producers: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Scans `trace` with the placement policy and fabric of `cfg`.
    pub fn of(trace: &Trace, cfg: &RtConfig) -> DepGraph {
        let mut scanner = DepScanner::with_policy(cfg.nodes, cfg.placement.build())
            .with_distances(cfg.link.fabric(cfg.nodes).distances());
        let (ids, producers) = trace
            .tasks()
            .map(|t| (t.id, scanner.scan_full(t).producers))
            .unzip();
        DepGraph { ids, producers }
    }

    /// Checks that `log` retires every task exactly once and each after all
    /// of its producers — a legal topological order.
    pub fn check_order(&self, log: &[TaskId]) -> Result<(), String> {
        if log.len() != self.ids.len() {
            return Err(format!(
                "retire log holds {} of {} tasks",
                log.len(),
                self.ids.len()
            ));
        }
        let mut pos: FxHashMap<TaskId, usize> = FxHashMap::default();
        for (i, id) in log.iter().enumerate() {
            if pos.insert(*id, i).is_some() {
                return Err(format!("task {id:?} retired twice"));
            }
        }
        for (id, producers) in self.ids.iter().zip(&self.producers) {
            let at = *pos
                .get(id)
                .ok_or_else(|| format!("task {id:?} never retired"))?;
            if let Some(&p) = producers.iter().find(|&&p| pos[&self.ids[p]] > at) {
                return Err(format!(
                    "task {id:?} retired before its producer {:?}",
                    self.ids[p]
                ));
            }
        }
        Ok(())
    }
}

/// Per-task stage latencies from the span log, each list ascending (ns).
#[derive(Debug, Default)]
pub struct Stages {
    /// Placed → Dispatched: waiting in the manager for dependences and a
    /// free worker.
    pub queue: Vec<u64>,
    /// Dispatched → Started: the hand-off to the worker thread.
    pub handoff: Vec<u64>,
    /// Started → Retired: the (body-less) run and the retirement.
    pub run: Vec<u64>,
}

/// What one live replay measured.
pub struct LiveRun {
    /// Wall seconds from the first submit until the last taskwait returned.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval, all threads.
    pub cpu_s: f64,
    /// Median caller-side nanoseconds per `submit` call.
    pub submit_p50_ns: f64,
    /// 99th-percentile caller-side nanoseconds per `submit` call.
    pub submit_p99_ns: f64,
    /// Wall seconds spent inside submit calls.
    pub submit_s: f64,
    /// Wall seconds spent inside taskwait calls.
    pub wait_s: f64,
    /// Descriptors stolen between nodes.
    pub stolen: u64,
    /// Spans recorded and the stage latencies derived from them (traced runs).
    pub traced: Option<(usize, Stages)>,
}

/// Starts a runtime for `cfg`, returning it with the seconds `start` took.
pub fn start(cfg: RtConfig) -> (ClusterRuntime, nexus_rt::RuntimeHandle, f64) {
    let mut rt = ClusterRuntime::new(cfg);
    let t0 = Instant::now();
    let handle = rt.start();
    (rt, handle, t0.elapsed().as_secs_f64())
}

/// Replays `trace` on a fresh runtime and checks the result: every task
/// retired, in a legal topological order, nothing pending after shutdown,
/// and — when `traced` — conserved spans.
pub fn run(
    trace: &Trace,
    cfg: &RtConfig,
    graph: &DepGraph,
    traced: bool,
) -> Result<LiveRun, String> {
    let rec = traced.then(SharedRecorder::new);
    let mut cfg = cfg.clone();
    if let Some(r) = &rec {
        cfg = cfg.with_recorder(r.clone());
    }
    let (rt, handle, _) = start(cfg);
    let mut submit_ns = Vec::with_capacity(trace.task_count());
    let mut wait = Duration::ZERO;
    let cpu0 = process_cpu_time();
    let t0 = Instant::now();
    for op in &trace.ops {
        match op {
            TraceOp::Submit(task) => {
                let task = RtTask::new(task.clone());
                let s = Instant::now();
                handle
                    .submit(task)
                    .map_err(|e| format!("submit failed: {e:?}"))?;
                submit_ns.push(s.elapsed().as_nanos() as u64);
            }
            TraceOp::Taskwait => {
                let s = Instant::now();
                handle.taskwait();
                wait += s.elapsed();
            }
            TraceOp::TaskwaitOn(addr) => {
                let s = Instant::now();
                handle.taskwait_on(*addr);
                wait += s.elapsed();
            }
            // Body-less replay: master compute is not slept, as in
            // `RuntimeHandle::run_trace`.
            TraceOp::MasterCompute(_) => {}
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_time() - cpu0).as_secs_f64();
    let log = handle.retire_log();
    let report = rt.shutdown_timeout(SHUTDOWN_TIMEOUT);
    if report.pending != 0 || report.retired != trace.task_count() as u64 {
        return Err(format!(
            "live shutdown: {} retired, {} pending of {} tasks",
            report.retired,
            report.pending,
            trace.task_count()
        ));
    }
    graph.check_order(&log)?;
    let traced = match rec {
        Some(r) => Some(stages(&r, trace.task_count())?),
        None => None,
    };
    submit_ns.sort_unstable();
    Ok(LiveRun {
        wall_s,
        cpu_s,
        submit_p50_ns: median(&submit_ns.iter().map(|&ns| ns as f64).collect::<Vec<_>>()),
        submit_p99_ns: percentile(&submit_ns, 0.99) as f64,
        submit_s: submit_ns.iter().sum::<u64>() as f64 * 1e-9,
        wait_s: wait.as_secs_f64(),
        stolen: report.metrics.counter("steal.stolen"),
        traced,
    })
}

/// Checks span conservation and derives the per-task stage latencies.
fn stages(rec: &SharedRecorder, tasks: usize) -> Result<(usize, Stages), String> {
    let log = rec.snapshot();
    let report = check_conservation(&log.events).map_err(|e| format!("live spans: {e}"))?;
    if report.retired != tasks {
        return Err(format!(
            "live spans retire {} of {tasks} tasks",
            report.retired
        ));
    }
    let mut at = vec![[None::<u64>; 4]; tasks];
    for &(t, ev) in &log.events {
        let (task, stage) = match ev {
            SpanEvent::Placed { task, .. } => (task, 0),
            SpanEvent::Dispatched { task, .. } => (task, 1),
            SpanEvent::Started { task, .. } => (task, 2),
            SpanEvent::Retired { task, .. } => (task, 3),
            _ => continue,
        };
        if let Some(slot) = at.get_mut(task) {
            slot[stage] = Some(t);
        }
    }
    let mut s = Stages::default();
    for [placed, dispatched, started, retired] in at {
        let gap = |a: Option<u64>, b: Option<u64>| Some(b?.saturating_sub(a?));
        s.queue.extend(gap(placed, dispatched));
        s.handoff.extend(gap(dispatched, started));
        s.run.extend(gap(started, retired));
    }
    for v in [&mut s.queue, &mut s.handoff, &mut s.run] {
        v.sort_unstable();
    }
    Ok((log.len(), s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_trace::generators::distributed;

    #[test]
    fn replay_retires_everything_in_order() {
        let trace = distributed::sparselu(2, 0.3, 3, 0.002);
        let cfg = RtConfig::new(2, 1);
        let graph = DepGraph::of(&trace, &cfg);
        let run = run(&trace, &cfg, &graph, true).expect("a correct replay");
        assert!(run.submit_p50_ns > 0.0 && run.submit_p50_ns <= run.submit_p99_ns);
        let (spans, stages) = run.traced.expect("traced run keeps its spans");
        assert!(spans >= 4 * trace.task_count());
        assert_eq!(stages.queue.len(), trace.task_count());
        assert_eq!(stages.run.len(), trace.task_count());
    }

    #[test]
    fn order_check_rejects_a_consumer_before_its_producer() {
        let trace = distributed::sparselu(1, 0.0, 3, 0.002);
        let graph = DepGraph::of(&trace, &RtConfig::new(1, 1));
        let mut log: Vec<TaskId> = trace.tasks().map(|t| t.id).collect();
        assert_eq!(graph.check_order(&log), Ok(()));
        log.swap(0, 1);
        assert!(graph.check_order(&log).is_err());
        assert!(graph.check_order(&log[1..]).is_err());
    }
}
