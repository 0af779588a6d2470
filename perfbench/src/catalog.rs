//! Every metric the benchmark reports, with its unit and which direction
//! is better. `BENCHMARK.json` lists the same metrics in the same order; a
//! test keeps the two in step.

use crate::sim::{EVENT_KINDS, TIER_NAMES};

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, printed by an untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", "lower"),
        m("sim_tasks_per_s", "1/s", "higher"),
        m("makespan_us", "us", "lower"),
        m("latency_p50_us", "us", "lower"),
        m("latency_p99_us", "us", "lower"),
        m("rt_tasks_per_s", "1/s", "higher"),
        m("peak_rss_mb", "MiB", "lower"),
    ]
}

/// The per-layer metrics, printed by a traced run (`--trace 1`).
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("trace.gen_s", "s", "lower"),
        m("driver.build_s", "s", "lower"),
        m("driver.self_s", "s", "lower"),
    ];
    for kind in EVENT_KINDS {
        v.push(m(format!("driver.handler.{kind}.count"), "count", "lower"));
        v.push(m(format!("driver.handler.{kind}.wall_s"), "s", "lower"));
    }
    v.extend([
        m("sim.runs", "count", "higher"),
        m("sim.events", "count", "lower"),
        m("sim.pushes", "count", "lower"),
        m("sim.pops", "count", "lower"),
        m("sim.inline_coalesced", "count", "higher"),
        m("sim.events_per_s", "1/s", "higher"),
        m("sim.queue_s", "s", "lower"),
    ]);
    for call in ["submit", "finish", "drain"] {
        v.push(m(format!("manager.{call}.calls"), "count", "lower"));
        v.push(m(format!("manager.{call}.wall_s"), "s", "lower"));
    }
    v.extend([
        m("manager.share", "ratio", "lower"),
        m("place.scan.calls", "count", "lower"),
        m("place.scan.ns_per_call", "ns", "lower"),
        m("place.remote_edge_frac", "ratio", "lower"),
        m("steal.stolen", "count", "higher"),
        m("steal.failures", "count", "lower"),
        m("steal.success_ratio", "ratio", "higher"),
        m("reclaim.reclaimed", "count", "higher"),
        m("reclaim.failures", "count", "lower"),
        m("reclaim.success_ratio", "ratio", "higher"),
        m("load.digest.updates", "count", "lower"),
        m("link.messages", "count", "lower"),
        m("link.words", "words", "lower"),
    ]);
    for tier in TIER_NAMES {
        v.push(m(format!("link.{tier}.words"), "words", "lower"));
    }
    v.extend([
        m("link.busy_us", "us", "lower"),
        m("link.wait_us", "us", "lower"),
        m("link.peak_util", "ratio", "lower"),
        m("notify.count", "count", "lower"),
        m("flow.backpressure_events", "count", "lower"),
        m("flow.source_lag_us", "us", "lower"),
        m("flow.max_admission_depth", "count", "lower"),
        m("flow.completed_per_s", "1/s", "higher"),
        m("latency.samples", "count", "higher"),
        m("latency_p999_us", "us", "lower"),
        m("obs.spans.sim", "count", "lower"),
        m("obs.spans.rt", "count", "lower"),
        m("obs.trace_overhead_frac.sim", "ratio", "lower"),
        m("obs.trace_overhead_frac.rt", "ratio", "lower"),
        m("obs.profile_overhead_frac.sim", "ratio", "lower"),
        m("rt.runs", "count", "higher"),
        m("rt.start_s", "s", "lower"),
        m("rt.submit.p50_ns", "ns", "lower"),
        m("rt.submit.p99_ns", "ns", "lower"),
        m("rt.submit.wall_s", "s", "lower"),
        m("rt.drain_s", "s", "lower"),
        m("rt.cpu_ns_per_task", "ns", "lower"),
        m("rt.steal.stolen", "count", "higher"),
    ]);
    for stage in ["queue", "handoff", "run"] {
        v.push(m(format!("rt.stage.{stage}.p50_ns"), "ns", "lower"));
        v.push(m(format!("rt.stage.{stage}.p99_ns"), "ns", "lower"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// The string value of `"key": "…"` inside one JSON object's text.
    fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\"");
        let rest = obj[obj.find(&pat)? + pat.len()..].trim_start();
        let rest = rest.strip_prefix(':')?.trim_start().strip_prefix('"')?;
        Some(&rest[..rest.find('"')?])
    }

    /// The `{…}` objects of the JSON array under `key`, as `(name, unit,
    /// better)` triples.
    fn listed(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[body.find('[').expect("array")..];
        let body = &body[..body.find(']').expect("array end")];
        body.split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| {
                let get = |k| field(obj, k).unwrap_or("").to_string();
                (get("name"), get("unit"), get("better"))
            })
            .collect()
    }

    fn as_triples(metrics: Vec<Metric>) -> Vec<(String, String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), as_triples(end_to_end()));
        assert_eq!(listed(&json, "per_layer"), as_triples(per_layer()));
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let json = benchmark_json();
        let mut seen = BTreeSet::new();
        for key in ["end_to_end", "per_layer"] {
            for (name, unit, better) in listed(&json, key) {
                assert!(
                    !name.is_empty()
                        && name.len() <= 64
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {name:?} must match [A-Za-z0-9_.-]+"
                );
                assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
                assert!(seen.insert(name.clone()), "{name} listed twice");
                assert!(
                    !unit.is_empty() && unit.len() <= 16,
                    "{name}: unit {unit:?}"
                );
                assert!(
                    better == "lower" || better == "higher",
                    "{name}: {better:?}"
                );
            }
        }
        assert!(seen.len() <= 128 + 16);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json = benchmark_json();
        let names: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|t| t.0)
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
