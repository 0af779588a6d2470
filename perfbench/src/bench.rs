//! One benchmark run of one workload: set-up, repeated untraced runs on
//! both clocks, and — when traced — the per-layer pass.

use crate::live::{self, DepGraph, LiveRun};
use crate::os;
use crate::sim::{self, Outcome, EVENT_KINDS, TIER_NAMES};
use crate::stats::{fastest, median, percentile, ratio};
use crate::workload::{last_writer_table, Workload};
use nexus_cluster::{ClusterConfig, ClusterDriver, StreamingSource};
use nexus_rt::RtConfig;
use nexus_trace::{TaskId, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Each clock (and each timed instance) gets at least this many timed runs,
/// however short the budget.
const MIN_RUNS: usize = 3;
/// Host time is measured on at most this many instances: their fastest
/// times are summed, which averages out the few percent by which the cost
/// of one simulated task differs between instances.
const TIMED_INSTANCES: usize = 5;
/// Repetitions of each measurement in the traced pass: profiled and
/// recorded runs, each paired with a plain one, and placement-scan replays.
const PAIRED_REPS: usize = 3;

/// What was measured, by metric name, plus the output checks' tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Sample count behind each value that is a statistic over samples.
    pub samples: BTreeMap<String, usize>,
    /// Checked operations (runs) attempted.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Report {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    fn set_n(&mut self, name: impl Into<String>, value: f64, n: usize) {
        let name = name.into();
        self.samples.insert(name.clone(), n);
        self.values.insert(name, value);
    }

    /// Counts one checked operation, keeping its failure if it failed.
    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// One trace instance with what its first simulated run produced; every
/// later run of it must reproduce that outcome exactly.
struct Instance {
    trace: Trace,
    source: Option<StreamingSource>,
    table: Vec<(u64, TaskId)>,
    first: Outcome,
    fingerprint: String,
}

impl Instance {
    /// Simulates the instance once more, checked; returns the loop seconds.
    fn rerun(&self, cfg: &ClusterConfig) -> Result<f64, String> {
        let (out, loop_s) = sim::run(cfg, &self.trace, self.source.as_ref());
        sim::check(out.cluster(), &self.trace, &self.table)?;
        if out.fingerprint() != self.fingerprint {
            return Err("simulated outcome differs between runs".into());
        }
        Ok(loop_s)
    }
}

/// Runs `workload` on inputs from `seed`, measuring for about `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let cfg = workload.cluster();
    let live_cfg = workload.live();

    // Set-up: trace generation, driver build, runtime start.
    let (mut gen, mut build, mut start, mut setup) = (vec![], vec![], vec![], vec![]);
    let mut traces = vec![];
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        traces = workload.traces(seed);
        gen.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        drop(std::hint::black_box(ClusterDriver::new(&cfg, sim::manager)));
        build.push(t0.elapsed().as_secs_f64());
        let (rt, _handle, s) = live::start(live_cfg.clone());
        rt.shutdown_timeout(Duration::from_secs(5));
        start.push(s);
        setup.push(gen[gen.len() - 1] + build[build.len() - 1] + s);
    }
    r.set_n("setup_s", median(&setup), setup.len());
    r.set_n("trace.gen_s", median(&gen), gen.len());
    r.set_n("driver.build_s", median(&build), build.len());
    r.set_n("rt.start_s", median(&start), start.len());

    // The first run of each instance and clock warms caches and lazy set-up;
    // it is checked but not timed.
    let instances: Vec<Instance> = traces
        .into_iter()
        .enumerate()
        .map(|(i, trace)| {
            let source = workload.source(&trace, seed, i);
            let table = last_writer_table(&trace);
            let (first, _) = sim::run(&cfg, &trace, source.as_ref());
            r.check("simulated run", sim::check(first.cluster(), &trace, &table));
            let fingerprint = first.fingerprint();
            Instance {
                trace,
                source,
                table,
                first,
                fingerprint,
            }
        })
        .collect();
    let live_trace = &instances[0].trace;
    let graph = DepGraph::of(live_trace, &live_cfg);
    r.check("live run", live::run(live_trace, &live_cfg, &graph, false));

    // Alternate the clocks run by run, each getting about half the budget,
    // so that both sample the whole measuring window: the host's slow phases
    // last seconds, and the fastest run of each clock is what is reported.
    // The simulator's turns cycle through the timed instances.
    let budget = Duration::from_secs(seconds);
    let timed = &instances[..instances.len().min(TIMED_INSTANCES)];
    let mut sim_loops = vec![vec![]; timed.len()];
    let mut live_runs = vec![];
    let (mut sim_spent, mut live_spent) = (Duration::ZERO, Duration::ZERO);
    let (t0, mut sim_turns) = (Instant::now(), 0);
    loop {
        let sim_short = sim_loops.iter().any(|l| l.len() < MIN_RUNS);
        let live_short = live_runs.len() < MIN_RUNS;
        if !sim_short && !live_short && t0.elapsed() >= budget || r.failures.len() > 3 {
            break;
        }
        let s = Instant::now();
        if sim_short && !live_short || sim_short == live_short && sim_spent <= live_spent {
            let i = sim_turns % timed.len();
            sim_turns += 1;
            if let Some(loop_s) = r.check("simulated run", timed[i].rerun(&cfg)) {
                sim_loops[i].push(loop_s);
            }
            sim_spent += s.elapsed();
        } else {
            if let Some(run) = r.check("live run", live::run(live_trace, &live_cfg, &graph, false))
            {
                live_runs.push(run);
            }
            live_spent += s.elapsed();
        }
    }

    // Host times are the fastest of each timed instance's runs.
    let fast_s: f64 = sim_loops.iter().map(|l| fastest(l)).sum();
    let runs: usize = sim_loops.iter().map(Vec::len).sum();
    let tasks: u64 = timed.iter().map(|i| i.first.cluster().tasks).sum();
    let events: u64 = timed.iter().map(|i| i.first.cluster().sim_events).sum();
    r.set_n("sim_tasks_per_s", tasks as f64 / fast_s, runs);
    r.set_n("sim.events_per_s", events as f64 / fast_s, runs);
    r.set("sim.runs", runs as f64);
    // The mean, not the median: on the chains one instance lands in one of
    // two makespan modes, and the mean over instances varies least.
    let makespan: f64 = instances
        .iter()
        .map(|i| i.first.cluster().makespan.as_us_f64())
        .sum();
    r.set_n(
        "makespan_us",
        makespan / instances.len() as f64,
        instances.len(),
    );

    // Simulated latencies are exact: one checked replay per instance gives
    // them all. Each percentile is the mean over instances of the
    // instance's own percentile, for the same reason as the makespan.
    let mut lat = [vec![], vec![], vec![]];
    let mut samples = 0;
    for (n, inst) in instances.iter().enumerate() {
        let replay = sim::latencies(&cfg, &inst.trace, &inst.first);
        let Some((l, stream)) = r.check("latency replay", replay) else {
            continue;
        };
        for (q, acc) in [0.50, 0.99, 0.999].into_iter().zip(&mut lat) {
            acc.push(percentile(&l, q) as f64 * 1e-6);
        }
        samples += l.len();
        if n == 0 {
            r.set(
                "flow.backpressure_events",
                stream.backpressure_events as f64,
            );
            r.set("flow.source_lag_us", stream.source_lag.as_us_f64());
            r.set(
                "flow.max_admission_depth",
                stream.max_admission_depth as f64,
            );
            r.set("flow.completed_per_s", stream.completed_per_sec());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    for (name, v) in ["latency_p50_us", "latency_p99_us", "latency_p999_us"]
        .into_iter()
        .zip(&lat)
    {
        r.set_n(name, mean(v), samples);
    }
    r.set("latency.samples", samples as f64);

    let n = live_runs.len();
    let live_tasks = live_trace.task_count() as f64;
    let fast_run =
        |f: &dyn Fn(&LiveRun) -> f64| fastest(&live_runs.iter().map(f).collect::<Vec<_>>());
    r.set_n("rt_tasks_per_s", live_tasks / fast_run(&|l| l.wall_s), n);
    r.set_n("rt.submit.p50_ns", fast_run(&|l| l.submit_p50_ns), n);
    r.set_n("rt.submit.p99_ns", fast_run(&|l| l.submit_p99_ns), n);
    r.set_n("rt.submit.wall_s", fast_run(&|l| l.submit_s), n);
    r.set_n("rt.drain_s", fast_run(&|l| l.wait_s), n);
    r.set_n(
        "rt.cpu_ns_per_task",
        fast_run(&|l| l.cpu_s * 1e9 / live_tasks),
        n,
    );
    r.set(
        "rt.steal.stolen",
        live_runs.iter().map(|l| l.stolen).max().unwrap_or(0) as f64,
    );
    r.set("rt.runs", n as f64);

    record_counters(&mut r, instances[0].first.cluster());
    if traced {
        trace_layers(&mut r, &cfg, &instances[0], &live_cfg, &graph);
    }
    r.set("peak_rss_mb", os::peak_rss_mb().unwrap_or(0.0));
    r
}

/// The deterministic per-layer counts of the first instance's run.
fn record_counters(r: &mut Report, out: &nexus_cluster::ClusterOutcome) {
    let c = |k: &str| out.metrics.counter(k) as f64;
    r.set("sim.events", out.sim_events as f64);
    r.set("steal.stolen", c("steal.stolen"));
    r.set("steal.failures", c("steal.failures"));
    r.set(
        "steal.success_ratio",
        ratio(c("steal.grants"), c("steal.grants") + c("steal.failures")),
    );
    r.set("reclaim.reclaimed", c("reclaim.reclaimed"));
    r.set("reclaim.failures", c("reclaim.failures"));
    r.set(
        "reclaim.success_ratio",
        ratio(
            c("reclaim.grants"),
            c("reclaim.grants") + c("reclaim.failures"),
        ),
    );
    r.set("load.digest.updates", c("load.digest.updates"));
    r.set("link.messages", out.link.messages as f64);
    r.set("link.words", out.link.words as f64);
    for tier in TIER_NAMES {
        r.set(
            format!("link.{tier}.words"),
            out.link.tier_words(tier) as f64,
        );
    }
    r.set("link.busy_us", out.link.busy_time.as_us_f64());
    r.set("link.wait_us", out.link.wait_time.as_us_f64());
    r.set("link.peak_util", out.link.peak_utilization);
    r.set("notify.count", out.notifications as f64);
}

/// The traced pass over the first instance: profiled runs with timed
/// managers, placement-scan replays, and on each clock recorded runs; every
/// instrumented run is paired with a plain one to measure what it costs.
fn trace_layers(
    r: &mut Report,
    cfg: &ClusterConfig,
    inst: &Instance,
    live_cfg: &RtConfig,
    graph: &DepGraph,
) {
    let trace = &inst.trace;
    // The driver exposes no profiled open-loop run, so the profile is taken
    // on the closed-loop run of the trace, and so is its plain partner.
    let (mut plain, mut fastest_profile) = (vec![], None::<sim::Profile>);
    for _ in 0..PAIRED_REPS {
        let (closed, loop_s) = sim::run(cfg, trace, None);
        plain.push(loop_s);
        let (profiled, prof) = sim::profile(cfg, trace);
        let same = (format!("{:?}", closed.cluster()) == format!("{profiled:?}"))
            .then_some(())
            .ok_or_else(|| "profiled run differs from the plain run".to_string());
        r.check(
            "profiled run",
            sim::check(&profiled, trace, &inst.table).and(same),
        );
        if fastest_profile
            .as_ref()
            .is_none_or(|f| prof.loop_s < f.loop_s)
        {
            fastest_profile = Some(prof);
        }
    }
    let prof = fastest_profile.expect("at least one profiled run");
    r.set(
        "obs.profile_overhead_frac.sim",
        prof.loop_s / fastest(&plain) - 1.0,
    );
    for kind in EVENT_KINDS {
        let count = prof.engine.counter(&format!("engine.event.{kind}.count"));
        let wall = prof.engine.counter(&format!("engine.event.{kind}.wall_ns"));
        r.set(format!("driver.handler.{kind}.count"), count as f64);
        r.set(format!("driver.handler.{kind}.wall_s"), wall as f64 * 1e-9);
    }
    for (key, _) in prof.engine.counters_with_prefix("engine.event.") {
        let kind = key["engine.event.".len()..]
            .rsplit_once('.')
            .map_or(key, |(k, _)| k);
        if !EVENT_KINDS.contains(&kind) {
            eprintln!("perfbench: event kind {kind:?} is not reported; add it to EVENT_KINDS");
        }
    }
    r.set("sim.pushes", prof.engine.counter("engine.pushes") as f64);
    r.set("sim.pops", prof.engine.counter("engine.pops") as f64);
    r.set(
        "sim.inline_coalesced",
        prof.engine.counter("engine.inline_coalesced") as f64,
    );
    r.set("sim.queue_s", prof.loop_s - prof.handler_s());
    r.set("driver.self_s", prof.handler_s() - prof.manager.wall_s());
    let m = prof.manager;
    for (call, t) in [
        ("submit", m.submit),
        ("finish", m.finish),
        ("drain", m.drain),
    ] {
        r.set(format!("manager.{call}.calls"), t.calls as f64);
        r.set(format!("manager.{call}.wall_s"), t.ns as f64 * 1e-9);
    }
    r.set("manager.share", ratio(m.wall_s(), prof.loop_s));

    let scans: Vec<(f64, f64)> = (0..PAIRED_REPS)
        .map(|_| sim::replay_scan(cfg, trace))
        .collect();
    let ns: Vec<f64> = scans.iter().map(|s| s.0).collect();
    r.set_n("place.scan.ns_per_call", median(&ns), ns.len());
    r.set("place.scan.calls", trace.task_count() as f64);
    r.set("place.remote_edge_frac", scans[0].1);

    let (mut plain, mut recorded) = (vec![], vec![]);
    for _ in 0..PAIRED_REPS {
        if let Some(s) = r.check("simulated run", inst.rerun(cfg)) {
            plain.push(s);
        }
        let rec = sim::recorded(cfg, trace, inst.source.as_ref()).and_then(|(out, wall, spans)| {
            (out.fingerprint() == inst.fingerprint)
                .then_some((wall, spans))
                .ok_or_else(|| "recorded run differs from the plain run".to_string())
        });
        if let Some((wall, spans)) = r.check("recorded simulated run", rec) {
            recorded.push(wall);
            r.set("obs.spans.sim", spans as f64);
        }
    }
    r.set_n(
        "obs.trace_overhead_frac.sim",
        fastest(&recorded) / fastest(&plain) - 1.0,
        recorded.len(),
    );

    let (mut plain, mut traced) = (vec![], vec![]);
    for _ in 0..PAIRED_REPS {
        if let Some(run) = r.check("live run", live::run(trace, live_cfg, graph, false)) {
            plain.push(run.wall_s);
        }
        if let Some(run) = r.check("traced live run", live::run(trace, live_cfg, graph, true)) {
            traced.push(run.wall_s);
            let (spans, stages) = run.traced.expect("traced run keeps its spans");
            r.set("obs.spans.rt", spans as f64);
            for (stage, v) in [
                ("queue", &stages.queue),
                ("handoff", &stages.handoff),
                ("run", &stages.run),
            ] {
                r.set_n(
                    format!("rt.stage.{stage}.p50_ns"),
                    percentile(v, 0.50) as f64,
                    v.len(),
                );
                r.set_n(
                    format!("rt.stage.{stage}.p99_ns"),
                    percentile(v, 0.99) as f64,
                    v.len(),
                );
            }
        }
    }
    r.set_n(
        "obs.trace_overhead_frac.rt",
        fastest(&traced) / fastest(&plain) - 1.0,
        traced.len(),
    );
}
