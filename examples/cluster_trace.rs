//! One trace schema, two clocks: exporting Chrome traces from the simulator
//! and the live runtime (`nexus-obs`).
//!
//! The same skewed workload is run twice — once through the event-driven
//! cluster simulator (virtual picoseconds) and once on the threaded
//! `nexus-rt` runtime (wall-clock nanoseconds) — with a recorder attached to
//! each. Both logs use the same `SpanEvent` schema, flow through the same
//! conservation checker, and export through the same Chrome-trace writer, so
//! the two runs land side by side as `trace_sim.json` / `trace_rt.json`:
//! open either in <https://ui.perfetto.dev> or `chrome://tracing` to see one
//! process row per node, one thread row per worker, and flow arrows where
//! descriptors were forwarded or stolen. Each export must hold exactly one
//! complete span per retired task, or the example panics. The simulated log
//! is also written as a text timeline, `trace_sim.txt`.
//!
//! Run with: `cargo run --release --example cluster_trace`

use nexus::obs::{check_conservation, text_timeline, TimeBase};
use nexus::prelude::*;
use nexus::rt::SharedRecorder;
use nexus::sim::SimDuration;
use nexus::trace::generators::distributed;
use std::time::Duration;

/// The number of complete (`"ph":"X"`) spans in a Chrome-trace document.
fn complete_spans(json: &str) -> u64 {
    json.matches("\"ph\":\"X\"").count() as u64
}

fn main() {
    // Node 0 owns 6x the last node's work, so most-loaded stealing fires and
    // the trace gets steal arrows, not just forward arrows.
    let nodes = 4;
    let trace = distributed::imbalanced(nodes, 120, 6.0, SimDuration::from_us(50), 0.2, 42);
    let cfg = ClusterConfig::new(nodes, 4).with_stealing(StealKind::MostLoaded);

    // --- Simulated run: virtual time. -----------------------------------
    let mut sim_rec = MemRecorder::new(TimeBase::VirtualPs);
    let out = nexus::cluster::simulate_cluster_traced(
        &trace,
        &cfg,
        |_| NexusSharp::paper(6),
        &mut sim_rec,
    );
    let conserved = check_conservation(&sim_rec.events).expect("sim lifecycle must conserve");
    println!(
        "sim: {} tasks, makespan {}, {} steals, {} span events",
        out.tasks,
        out.makespan,
        out.steals,
        sim_rec.len()
    );
    println!(
        "     conservation: {} submitted = {} retired, {} stolen",
        conserved.submitted, conserved.retired, conserved.stolen
    );
    let sim_json = chrome_trace(&sim_rec);
    assert_eq!(
        complete_spans(&sim_json),
        out.tasks,
        "one sim span per task"
    );
    std::fs::write("trace_sim.json", sim_json).expect("write trace_sim.json");
    let sim_text = text_timeline(&sim_rec);
    std::fs::write("trace_sim.txt", &sim_text).expect("write trace_sim.txt");

    // --- Live run: real threads, wall clock, same schema. ----------------
    let shared = SharedRecorder::new();
    let mut rt = ClusterRuntime::new(
        RtConfig::from_cluster(&cfg)
            .with_time_scale(2_000)
            .with_recorder(shared.clone()),
    );
    let handle = rt.start();
    handle.run_trace(&trace).expect("live replay failed");
    let report = rt.shutdown_timeout(Duration::from_secs(60));
    assert_eq!(report.pending, 0, "the live run must drain");

    let rt_rec = shared.snapshot();
    let conserved = check_conservation(&rt_rec.events).expect("live lifecycle must conserve");
    println!(
        "rt:  {} tasks, {} steal grants, {} span events",
        report.retired,
        report.metrics.counter("steal.grants"),
        rt_rec.len()
    );
    println!(
        "     conservation: {} submitted = {} retired, {} stolen",
        conserved.submitted, conserved.retired, conserved.stolen
    );
    let rt_json = chrome_trace(&rt_rec);
    assert_eq!(
        complete_spans(&rt_json),
        report.retired,
        "one rt span per task"
    );
    std::fs::write("trace_rt.json", rt_json).expect("write trace_rt.json");

    // Both sides populate the same registry keys, so the censuses line up.
    println!(
        "census: sim task.executed={}  rt task.executed={}",
        out.metrics.counter("task.executed"),
        report.metrics.counter("task.executed"),
    );

    // A peek at the text timeline (the full log is thousands of lines).
    println!("\nfirst lines of the simulated timeline:");
    for line in sim_text.lines().take(6) {
        println!("  {line}");
    }
    println!(
        "\nwrote trace_sim.json and trace_rt.json (load them in ui.perfetto.dev) \
         and trace_sim.txt"
    );
}
