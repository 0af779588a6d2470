//! Chrome-trace / Perfetto JSON export plus a compact text timeline.
//!
//! Hand-rolled JSON (the vendored serde is a no-op). Layout: one Chrome
//! *process* per node plus a synthetic `master` process, thread 0 of each
//! node is the manager and thread `w + 1` is worker `w`. Task executions are
//! complete (`ph:"X"`) spans on the worker row; descriptor forwards and steal
//! grants are flow arrows (`ph:"s"` / `ph:"f"`); backpressure stalls are
//! instants. Open the file at <https://ui.perfetto.dev> (or
//! `chrome://tracing`) via *Open trace file*.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::{MemRecorder, SpanEvent};

#[derive(Default)]
struct TaskRec {
    placed: Option<(f64, usize)>,
    started: Option<(f64, usize, usize)>,
    retired: Option<f64>,
    steals: Vec<(f64, usize, usize)>,
    reclaims: Vec<(f64, usize, usize)>,
}

/// Escapes a string for embedding in a JSON literal.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a Chrome-trace timestamp (microseconds) keeping sub-µs precision.
fn micros(ts: f64) -> String {
    format!("{ts:.6}")
}

/// Renders the recorded events as a Chrome-trace JSON document.
///
/// The number of `"ph":"X"` events equals the number of tasks that both
/// started and retired — for a completed run, exactly the retired-task
/// count, which the cluster driver's tests and the `cluster_trace` example
/// check.
pub fn chrome_trace(rec: &MemRecorder) -> String {
    let mut sorted = rec.clone();
    sorted.sort_by_time();
    let base = sorted.time_base;

    let mut tasks: BTreeMap<usize, TaskRec> = BTreeMap::new();
    // node -> highest worker index seen (manager row always exists).
    let mut nodes: BTreeMap<usize, usize> = BTreeMap::new();
    let mut backpressure: Vec<(f64, usize)> = Vec::new();
    let mut link_hops: Vec<(f64, usize, u64)> = Vec::new();
    let mut max_tier = 0usize;

    for &(at, ev) in &sorted.events {
        let ts = base.to_micros(at);
        match ev {
            SpanEvent::Submitted { .. } => {
                // Timeline-only; the forward arrow starts at `Placed`.
            }
            SpanEvent::Placed { task, node } => {
                nodes.entry(node).or_insert(0);
                tasks.entry(task).or_default().placed = Some((ts, node));
            }
            SpanEvent::Dispatched { node, .. } => {
                nodes.entry(node).or_insert(0);
            }
            SpanEvent::Started { task, node, worker } => {
                let max_worker = nodes.entry(node).or_insert(0);
                *max_worker = (*max_worker).max(worker);
                tasks.entry(task).or_default().started = Some((ts, node, worker));
            }
            SpanEvent::Retired { task, node } => {
                nodes.entry(node).or_insert(0);
                tasks.entry(task).or_default().retired = Some(ts);
            }
            SpanEvent::Stolen { task, from, to } => {
                nodes.entry(from).or_insert(0);
                nodes.entry(to).or_insert(0);
                tasks.entry(task).or_default().steals.push((ts, from, to));
            }
            SpanEvent::Reclaimed { task, from, to } => {
                nodes.entry(from).or_insert(0);
                nodes.entry(to).or_insert(0);
                tasks.entry(task).or_default().reclaims.push((ts, from, to));
            }
            SpanEvent::LinkHop { tier, words, .. } => {
                max_tier = max_tier.max(tier);
                link_hops.push((ts, tier, words));
            }
            SpanEvent::Backpressure { node } => {
                nodes.entry(node).or_insert(0);
                backpressure.push((ts, node));
            }
        }
    }

    let master_pid = nodes.keys().max().map_or(0, |n| n + 1);
    let mut events: Vec<String> = Vec::new();

    // Process / thread naming metadata.
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":{master_pid},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"master\"}}}}"
    ));
    for (&node, &max_worker) in &nodes {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{node},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"node {node}\"}}}}"
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{node},\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"manager\"}}}}"
        ));
        for worker in 0..=max_worker {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"worker {worker}\"}}}}",
                worker + 1
            ));
        }
    }

    let mut next_flow_id: u64 = 1;
    for (&task, rec) in &tasks {
        let Some((start_ts, node, worker)) = rec.started else {
            continue;
        };
        let tid = worker + 1;
        if let Some(retire_ts) = rec.retired {
            let dur = (retire_ts - start_ts).max(0.0);
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{node},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"cat\":\"task\",\"name\":\"task {task}\",\"args\":{{\"task\":{task}}}}}",
                micros(start_ts),
                micros(dur)
            ));
        }
        // Forward arrow: master placement decision -> execution start.
        if let Some((placed_ts, _)) = rec.placed {
            if placed_ts <= start_ts {
                let id = next_flow_id;
                next_flow_id += 1;
                events.push(format!(
                    "{{\"ph\":\"s\",\"pid\":{master_pid},\"tid\":0,\"ts\":{},\
                     \"cat\":\"flow\",\"name\":\"forward\",\"id\":{id}}}",
                    micros(placed_ts)
                ));
                events.push(format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{node},\"tid\":{tid},\"ts\":{},\
                     \"cat\":\"flow\",\"name\":\"forward\",\"id\":{id}}}",
                    micros(start_ts)
                ));
            }
        }
        // Steal / reclaim arrows: victim manager -> execution start on the
        // node that took the descriptor over.
        for (name, moves) in [("steal", &rec.steals), ("reclaim", &rec.reclaims)] {
            for &(move_ts, from, _to) in moves {
                if move_ts <= start_ts {
                    let id = next_flow_id;
                    next_flow_id += 1;
                    events.push(format!(
                        "{{\"ph\":\"s\",\"pid\":{from},\"tid\":0,\"ts\":{},\
                         \"cat\":\"flow\",\"name\":\"{name}\",\"id\":{id}}}",
                        micros(move_ts)
                    ));
                    events.push(format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{node},\"tid\":{tid},\"ts\":{},\
                         \"cat\":\"flow\",\"name\":\"{name}\",\"id\":{id}}}",
                        micros(start_ts)
                    ));
                }
            }
        }
    }

    for &(ts, node) in &backpressure {
        events.push(format!(
            "{{\"ph\":\"i\",\"pid\":{node},\"tid\":0,\"ts\":{},\"s\":\"p\",\
             \"cat\":\"stream\",\"name\":\"backpressure\"}}",
            micros(ts)
        ));
    }

    // Cumulative per-tier link-word counters on the master process row.
    let mut tier_totals = vec![0u64; max_tier + 1];
    for &(ts, tier, words) in &link_hops {
        tier_totals[tier] += words;
        let mut args = String::new();
        for (t, total) in tier_totals.iter().enumerate() {
            if t > 0 {
                args.push(',');
            }
            let _ = write!(args, "\"tier{t}\":{total}");
        }
        events.push(format!(
            "{{\"ph\":\"C\",\"pid\":{master_pid},\"tid\":0,\"ts\":{},\
             \"cat\":\"link\",\"name\":\"link words\",\"args\":{{{args}}}}}",
            micros(ts)
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(ev);
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"timeBase\":\"{}\"}}}}\n",
        escape(sorted.time_base.unit())
    );
    out
}

/// Renders the recorded events as a compact, line-oriented text timeline —
/// one event per line, time-sorted, suitable for tests and terminal diffing.
pub fn text_timeline(rec: &MemRecorder) -> String {
    let mut sorted = rec.clone();
    sorted.sort_by_time();
    let unit = sorted.time_base.unit();
    let width = sorted
        .events
        .last()
        .map_or(1, |&(at, _)| at.to_string().len());
    let mut out = String::new();
    for &(at, ev) in &sorted.events {
        let _ = write!(out, "[{at:>width$} {unit}] ");
        let line = match ev {
            SpanEvent::Submitted { task } => format!("submitted    task={task}"),
            SpanEvent::Placed { task, node } => {
                format!("placed       task={task} node={node}")
            }
            SpanEvent::Dispatched { task, node } => {
                format!("dispatched   task={task} node={node}")
            }
            SpanEvent::Started { task, node, worker } => {
                format!("started      task={task} node={node} worker={worker}")
            }
            SpanEvent::Retired { task, node } => {
                format!("retired      task={task} node={node}")
            }
            SpanEvent::Stolen { task, from, to } => {
                format!("stolen       task={task} from={from} to={to}")
            }
            SpanEvent::Reclaimed { task, from, to } => {
                format!("reclaimed    task={task} from={from} to={to}")
            }
            SpanEvent::LinkHop { link, tier, words } => {
                format!("link-hop     link={link} tier={tier} words={words}")
            }
            SpanEvent::Backpressure { node } => format!("backpressure node={node}"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, TimeBase};

    fn sample_log() -> MemRecorder {
        let mut rec = MemRecorder::new(TimeBase::VirtualPs);
        rec.record(0, SpanEvent::Submitted { task: 0 });
        rec.record(1_000_000, SpanEvent::Placed { task: 0, node: 1 });
        rec.record(2_000_000, SpanEvent::Dispatched { task: 0, node: 1 });
        rec.record(
            2_000_000,
            SpanEvent::LinkHop {
                link: 3,
                tier: 1,
                words: 8,
            },
        );
        rec.record(
            3_000_000,
            SpanEvent::Stolen {
                task: 0,
                from: 1,
                to: 2,
            },
        );
        rec.record(
            4_000_000,
            SpanEvent::Started {
                task: 0,
                node: 2,
                worker: 1,
            },
        );
        rec.record(5_000_000, SpanEvent::Backpressure { node: 2 });
        rec.record(9_000_000, SpanEvent::Retired { task: 0, node: 2 });
        rec
    }

    #[test]
    fn chrome_trace_has_spans_flows_and_metadata() {
        let json = chrome_trace(&sample_log());
        assert!(json.starts_with("{\"traceEvents\":["));
        // Exactly one complete span (one retired task).
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        // Forward + steal arrows: two starts, two finishes.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 2);
        assert!(json.contains("\"name\":\"steal\""));
        assert!(json.contains("\"name\":\"forward\""));
        // Node 2's process row and its worker-1 thread row exist.
        assert!(json.contains("\"args\":{\"name\":\"node 2\"}"));
        assert!(json.contains("\"args\":{\"name\":\"worker 1\"}"));
        assert!(json.contains("\"args\":{\"name\":\"master\"}"));
        // Backpressure instant and link counter present.
        assert!(json.contains("\"name\":\"backpressure\""));
        assert!(json.contains("\"tier1\":8"));
        // Span geometry: task 0 runs on node 2, worker tid 2, 4 µs .. 9 µs.
        assert!(json.contains("\"ts\":4.000000,\"dur\":5.000000"));
    }

    #[test]
    fn unstarted_tasks_emit_no_span() {
        let mut rec = MemRecorder::new(TimeBase::VirtualPs);
        rec.record(0, SpanEvent::Submitted { task: 7 });
        rec.record(1, SpanEvent::Placed { task: 7, node: 0 });
        let json = chrome_trace(&rec);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 0);
    }

    #[test]
    fn text_timeline_is_time_sorted() {
        let mut rec = MemRecorder::new(TimeBase::WallNs);
        rec.record(90, SpanEvent::Retired { task: 1, node: 0 });
        rec.record(10, SpanEvent::Submitted { task: 1 });
        let text = text_timeline(&rec);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("submitted"), "{text}");
        assert!(lines[1].contains("retired"), "{text}");
        assert!(lines[0].contains("ns]"), "{text}");
    }
}
