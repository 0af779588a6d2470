//! Shared sweep plumbing for the figure/table benches.

use crate::managers::ManagerKind;
use nexus_host::sweep::{speedup_curve, SpeedupCurve};
use nexus_trace::Benchmark;

/// Core counts for the hardware-manager curves (Figs. 7 and 8).
pub fn hw_core_counts() -> Vec<usize> {
    nexus_host::sweep::PAPER_CORE_COUNTS.to_vec()
}

/// Core counts for the Nanos curves (bounded by the real 32-core machine).
pub fn nanos_core_counts() -> Vec<usize> {
    nexus_host::sweep::NANOS_CORE_COUNTS.to_vec()
}

/// Core counts used in the Gaussian-elimination figure (Fig. 9 plots 1–64).
pub fn gaussian_core_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

/// Node counts for the cluster-scalability sweep.
pub fn cluster_node_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// Aborts the bench with a clear message when an environment knob is set to
/// something unparseable (listing the valid values is the parser's job).
fn env_knob_error(var: &str, message: &str) -> ! {
    eprintln!("error: {var}: {message}");
    std::process::exit(2);
}

/// The interconnect used by the cluster benches: `NEXUS_LINK=rdma` (default),
/// `ethernet` or `ideal`, case-insensitively. Typos abort with the list of
/// valid values.
pub fn cluster_link() -> nexus_cluster::LinkConfig {
    let Ok(raw) = std::env::var("NEXUS_LINK") else {
        return nexus_cluster::LinkConfig::rdma();
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "rdma" => nexus_cluster::LinkConfig::rdma(),
        "ethernet" | "eth" => nexus_cluster::LinkConfig::ethernet(),
        "ideal" => nexus_cluster::LinkConfig::ideal(),
        other => env_knob_error(
            "NEXUS_LINK",
            &format!("unknown interconnect {other:?} (expected rdma|ethernet|ideal)"),
        ),
    }
}

/// The placement policy used by the cluster benches: `NEXUS_POLICY=xorhash`
/// (default), `affinity` or `topo`, case-insensitively. Typos abort with
/// the list of valid values.
pub fn cluster_policy() -> nexus_sched::PolicyKind {
    let Ok(raw) = std::env::var("NEXUS_POLICY") else {
        return nexus_sched::PolicyKind::default();
    };
    raw.parse()
        .unwrap_or_else(|e: String| env_knob_error("NEXUS_POLICY", &e))
}

/// The work-stealing policy used by the cluster benches:
/// `NEXUS_STEAL=off` (default), `steal` or `hier`,
/// case-insensitively. Typos abort with the list of valid values.
pub fn cluster_steal() -> nexus_sched::StealKind {
    let Ok(raw) = std::env::var("NEXUS_STEAL") else {
        return nexus_sched::StealKind::default();
    };
    raw.parse()
        .unwrap_or_else(|e: String| env_knob_error("NEXUS_STEAL", &e))
}

/// The runtime-feedback mode used by the cluster benches:
/// `NEXUS_FEEDBACK=off` (default), `place`, `reclaim` or `full`,
/// case-insensitively. Typos abort with the list of valid values.
pub fn cluster_feedback() -> nexus_sched::FeedbackKind {
    let Ok(raw) = std::env::var("NEXUS_FEEDBACK") else {
        return nexus_sched::FeedbackKind::default();
    };
    raw.parse()
        .unwrap_or_else(|e: String| env_knob_error("NEXUS_FEEDBACK", &e))
}

/// The interconnect topology override used by the cluster benches:
/// `NEXUS_TOPO=bus|mesh|racktiers|torus|dragonfly`, case-insensitively.
/// `None` when unset — the benches then keep the topology of the selected
/// `NEXUS_LINK` preset. Typos abort with the list of valid values.
pub fn cluster_topology() -> Option<nexus_topo::TopologyKind> {
    let raw = std::env::var("NEXUS_TOPO").ok()?;
    Some(
        raw.parse()
            .unwrap_or_else(|e: String| env_knob_error("NEXUS_TOPO", &e)),
    )
}

/// The event-queue engine used by the cluster benches:
/// `NEXUS_EVENT_ENGINE=calendar` (default) or `heap`, case-insensitively.
/// Typos abort with the list of valid values.
pub fn event_engine() -> nexus_sim::EngineKind {
    let Ok(raw) = std::env::var("NEXUS_EVENT_ENGINE") else {
        return nexus_sim::EngineKind::default();
    };
    raw.parse()
        .unwrap_or_else(|e: String| env_knob_error("NEXUS_EVENT_ENGINE", &e))
}

/// The arrival process used by the service benches:
/// `NEXUS_ARRIVAL=poisson` (default), `bursty`, `diurnal` or `closed`,
/// case-insensitively. Typos abort with the list of valid values.
pub fn service_arrival() -> nexus_flow::ArrivalKind {
    let Ok(raw) = std::env::var("NEXUS_ARRIVAL") else {
        return nexus_flow::ArrivalKind::Poisson;
    };
    raw.parse()
        .unwrap_or_else(|e: String| env_knob_error("NEXUS_ARRIVAL", &e))
}

/// The per-node admission depth used by the service benches:
/// `NEXUS_ADMIT_DEPTH=<n>` (default
/// [`AdmissionConfig::DEFAULT_DEPTH`](nexus_cluster::AdmissionConfig::DEFAULT_DEPTH)).
/// Zero or unparsable values abort loudly.
pub fn admit_depth() -> usize {
    let Ok(raw) = std::env::var("NEXUS_ADMIT_DEPTH") else {
        return nexus_cluster::AdmissionConfig::DEFAULT_DEPTH;
    };
    let v: usize = raw.trim().parse().unwrap_or_else(|_| {
        env_knob_error(
            "NEXUS_ADMIT_DEPTH",
            &format!("unparsable admission depth {raw:?} (expected a positive integer)"),
        )
    });
    if v == 0 {
        env_knob_error(
            "NEXUS_ADMIT_DEPTH",
            "admission depth 0 can never admit (expected a positive integer)",
        );
    }
    v
}

/// Parses a positive integer knob shared by the runtime-smoke benches.
fn positive_usize_knob(var: &str, what: &str, default: usize) -> usize {
    let Ok(raw) = std::env::var(var) else {
        return default;
    };
    let v: usize = raw.trim().parse().unwrap_or_else(|_| {
        env_knob_error(
            var,
            &format!("unparsable {what} {raw:?} (expected a positive integer)"),
        )
    });
    if v == 0 {
        env_knob_error(
            var,
            &format!("{what} 0 makes an empty runtime (expected a positive integer)"),
        );
    }
    v
}

/// Trace output mode selected by the observability knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Tracing disabled (the default).
    #[default]
    Off,
    /// Chrome-trace JSON (loadable in Perfetto / `chrome://tracing`).
    Chrome,
    /// Compact human-readable text timeline.
    Text,
}

/// The trace export format used by `quick_report`: `NEXUS_TRACE=off`
/// (default), `chrome` or `text`, case-insensitively. Typos abort with the
/// list of valid values.
pub fn trace_mode() -> TraceMode {
    let Ok(raw) = std::env::var("NEXUS_TRACE") else {
        return TraceMode::Off;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "" => TraceMode::Off,
        "chrome" | "json" => TraceMode::Chrome,
        "text" | "timeline" => TraceMode::Text,
        other => env_knob_error(
            "NEXUS_TRACE",
            &format!("unknown trace mode {other:?} (expected off|chrome|text)"),
        ),
    }
}

/// The trace output path used by `quick_report`: `NEXUS_TRACE_OUT=<path>`
/// (overridden by the `--trace-out` flag). `None` when unset; an empty or
/// all-whitespace path aborts loudly — a misquoted shell variable must not
/// silently drop the trace.
pub fn trace_out() -> Option<String> {
    let raw = std::env::var("NEXUS_TRACE_OUT").ok()?;
    if raw.trim().is_empty() {
        env_knob_error(
            "NEXUS_TRACE_OUT",
            "empty trace output path (expected a writable file path)",
        );
    }
    Some(raw)
}

/// Worker threads per node for the live-runtime benches:
/// `NEXUS_RT_WORKERS=<n>` (default 2). Zero or unparsable values abort
/// loudly.
pub fn rt_workers() -> usize {
    positive_usize_knob("NEXUS_RT_WORKERS", "worker count", 2)
}

/// Node count for the live-runtime benches: `NEXUS_RT_NODES=<n>` (default
/// 4). Zero or unparsable values abort loudly.
pub fn rt_nodes() -> usize {
    positive_usize_knob("NEXUS_RT_NODES", "node count", 4)
}

/// The workload scale factor used by the benches: `NEXUS_FULL=1` forces 1.0,
/// otherwise `NEXUS_BENCH_SCALE` (default 0.1). Unparsable or non-finite
/// values abort loudly — a typo like `0,3` must not silently size the whole
/// workload to the default.
pub fn bench_scale() -> f64 {
    if std::env::var("NEXUS_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return 1.0;
    }
    let Ok(raw) = std::env::var("NEXUS_BENCH_SCALE") else {
        return 0.1;
    };
    let v: f64 = raw.trim().parse().unwrap_or_else(|_| {
        env_knob_error(
            "NEXUS_BENCH_SCALE",
            &format!("unparsable scale {raw:?} (expected a number in 0.001..=1.0)"),
        )
    });
    if !v.is_finite() {
        env_knob_error(
            "NEXUS_BENCH_SCALE",
            &format!("non-finite scale {raw:?} (expected a number in 0.001..=1.0)"),
        );
    }
    v.clamp(0.001, 1.0)
}

/// Runs the speedup curve of `manager` on `bench` (generated at `scale`) over
/// the given core counts.
pub fn curve_for(
    bench: Benchmark,
    manager: ManagerKind,
    cores: &[usize],
    scale: f64,
    seed: u64,
) -> SpeedupCurve {
    let trace = bench.trace_scaled(seed, scale);
    let mut curve = speedup_curve(&trace, cores, |n| manager.build(&trace.name, n));
    // Use the harness label (shorter and unambiguous in tables).
    curve.manager = manager.label();
    curve
}

/// Runs one benchmark under a set of managers. Nanos is automatically limited
/// to the software core counts.
pub fn curves_for(
    bench: Benchmark,
    managers: &[ManagerKind],
    scale: f64,
    seed: u64,
) -> Vec<SpeedupCurve> {
    managers
        .iter()
        .map(|m| {
            let cores = if matches!(m, ManagerKind::Nanos) {
                nanos_core_counts()
            } else {
                hw_core_counts()
            };
            curve_for(bench, *m, &cores, scale, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_and_clamps() {
        // The environment is not modified in tests; just exercise the default
        // path (no NEXUS_FULL / NEXUS_BENCH_SCALE set in CI).
        let s = bench_scale();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn env_knob_defaults() {
        // Unset knobs must fall back silently (CI never sets them).
        assert_eq!(cluster_link(), nexus_cluster::LinkConfig::rdma());
        assert_eq!(cluster_policy(), nexus_sched::PolicyKind::XorHash);
        assert_eq!(cluster_steal(), nexus_sched::StealKind::Disabled);
        assert_eq!(cluster_feedback(), nexus_sched::FeedbackKind::Off);
        assert_eq!(cluster_topology(), None);
        assert_eq!(service_arrival(), nexus_flow::ArrivalKind::Poisson);
        assert_eq!(admit_depth(), nexus_cluster::AdmissionConfig::DEFAULT_DEPTH);
        assert_eq!(rt_workers(), 2);
        assert_eq!(rt_nodes(), 4);
        assert_eq!(trace_mode(), TraceMode::Off);
        assert_eq!(trace_out(), None);
    }

    #[test]
    fn quick_curves_have_expected_shape() {
        // A tiny c-ray instance: every manager reaches a decent fraction of the
        // ideal speedup because tasks are 6 ms.
        let curves = curves_for(
            Benchmark::CRay,
            &[
                ManagerKind::Ideal,
                ManagerKind::NexusSharp { task_graphs: 2 },
            ],
            0.02,
            7,
        );
        assert_eq!(curves.len(), 2);
        let ideal = &curves[0];
        let sharp = &curves[1];
        assert!(ideal.max_speedup() >= sharp.max_speedup() * 0.99);
        assert!(sharp.max_speedup() > 0.5 * ideal.max_speedup());
    }

    #[test]
    fn core_count_lists() {
        assert_eq!(hw_core_counts().last(), Some(&256));
        assert_eq!(nanos_core_counts().last(), Some(&32));
        assert_eq!(gaussian_core_counts().last(), Some(&64));
    }
}
