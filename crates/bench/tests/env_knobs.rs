//! Regression tests for the environment knobs of the bench harness: every
//! unknown value must abort loudly (exit 2) listing the valid options, and
//! valid values must be accepted case-insensitively.
//!
//! The knobs are validated by `quick_report` before it does anything else, so
//! spawning it with `--list-scenarios` (which exits immediately after the
//! validation) keeps each probe fast.

use std::process::{Command, Output};

fn quick_report(envs: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_quick_report"));
    // Isolate from the caller's environment so only the probed knob is set.
    for var in [
        "NEXUS_LINK",
        "NEXUS_POLICY",
        "NEXUS_STEAL",
        "NEXUS_FEEDBACK",
        "NEXUS_TOPO",
        "NEXUS_EVENT_ENGINE",
        "NEXUS_ARRIVAL",
        "NEXUS_ADMIT_DEPTH",
        "NEXUS_BENCH_SCALE",
        "NEXUS_FULL",
        "NEXUS_RT_WORKERS",
        "NEXUS_RT_NODES",
        "NEXUS_TRACE",
        "NEXUS_TRACE_OUT",
    ] {
        cmd.env_remove(var);
    }
    cmd.envs(envs.iter().copied()).args(args);
    cmd.output().expect("spawning quick_report must succeed")
}

/// Asserts that setting `var=value` aborts with exit code 2 and a message
/// naming the knob and listing `expected` as part of the valid options.
fn assert_aborts(var: &str, value: &str, expected: &str) {
    let out = quick_report(&[(var, value)], &["--list-scenarios"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{var}={value} must abort with exit 2 (stderr: {stderr})"
    );
    assert!(
        stderr.contains(var),
        "abort message must name the knob {var}: {stderr}"
    );
    assert!(
        stderr.contains(expected),
        "abort message must list the valid options ({expected}): {stderr}"
    );
}

#[test]
fn unknown_event_engine_aborts_listing_options() {
    assert_aborts("NEXUS_EVENT_ENGINE", "ringbuffer", "heap | calendar");
}

#[test]
fn unknown_arrival_kind_aborts_listing_options() {
    assert_aborts("NEXUS_ARRIVAL", "steady", "poisson|bursty|diurnal|closed");
}

#[test]
fn bad_admit_depth_aborts() {
    assert_aborts("NEXUS_ADMIT_DEPTH", "many", "positive integer");
    // Depth 0 parses but can never admit anything — equally fatal.
    assert_aborts("NEXUS_ADMIT_DEPTH", "0", "positive integer");
}

#[test]
fn bad_rt_workers_aborts() {
    assert_aborts("NEXUS_RT_WORKERS", "lots", "positive integer");
    // Zero workers can never execute anything — equally fatal.
    assert_aborts("NEXUS_RT_WORKERS", "0", "positive integer");
}

#[test]
fn bad_rt_nodes_aborts() {
    assert_aborts("NEXUS_RT_NODES", "4.5", "positive integer");
    assert_aborts("NEXUS_RT_NODES", "0", "positive integer");
}

#[test]
fn unknown_link_aborts_listing_options() {
    assert_aborts("NEXUS_LINK", "carrier-pigeon", "rdma|ethernet|ideal");
}

#[test]
fn unknown_policy_aborts_listing_options() {
    assert_aborts("NEXUS_POLICY", "roundrobin", "xorhash");
    // Locality placement is TopologyAware on a flat fabric.
    assert_aborts("NEXUS_POLICY", "locality", "xorhash|affinity|topo");
}

#[test]
fn unknown_steal_aborts_listing_options() {
    assert_aborts("NEXUS_STEAL", "sometimes", "steal");
    // Steal-half batching is HierarchicalSteal on a flat fabric.
    assert_aborts("NEXUS_STEAL", "steal-half", "off|steal|hier");
}

#[test]
fn unknown_topology_aborts_listing_options() {
    assert_aborts("NEXUS_TOPO", "hypercube", "mesh");
}

#[test]
fn unknown_feedback_mode_aborts_listing_options() {
    assert_aborts("NEXUS_FEEDBACK", "adaptive", "off|place|reclaim|full");
}

#[test]
fn unknown_trace_mode_aborts_listing_options() {
    assert_aborts("NEXUS_TRACE", "perfetto", "off|chrome|text");
}

#[test]
fn empty_trace_out_aborts() {
    assert_aborts("NEXUS_TRACE_OUT", "   ", "writable file path");
}

#[test]
fn trace_mode_without_a_path_aborts() {
    let out = quick_report(&[("NEXUS_TRACE", "chrome")], &["--baseline-only"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "NEXUS_TRACE without a path must abort: {stderr}"
    );
    assert!(
        stderr.contains("NEXUS_TRACE_OUT"),
        "abort message must point at the path knob: {stderr}"
    );
}

#[test]
fn trace_out_writes_a_loadable_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("nexus-env-knobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.json");
    let out = quick_report(
        &[("NEXUS_BENCH_SCALE", "0.002"), ("NEXUS_TRACE", "ChRoMe")],
        &["--baseline-only", "--trace-out", path.to_str().unwrap()],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--trace-out run must succeed: {stderr}"
    );
    let body = std::fs::read_to_string(&path).expect("trace file written");
    // quick_report already validated the span census against the retired
    // count before exiting 0; here we just confirm the envelope survived the
    // round trip to disk.
    assert!(body.starts_with("{\"traceEvents\":["));
    assert!(body.contains("\"ph\":\"X\""), "no complete spans in trace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("trace written to"),
        "missing trace summary line: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_knobs_are_case_insensitive() {
    let out = quick_report(
        &[
            ("NEXUS_EVENT_ENGINE", "HeAp"),
            ("NEXUS_ARRIVAL", "PoIsSoN"),
            ("NEXUS_ADMIT_DEPTH", "16"),
            ("NEXUS_LINK", "RDMA"),
            ("NEXUS_FEEDBACK", "FuLl"),
        ],
        &["--list-scenarios"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "mixed-case valid knobs must be accepted: {stderr}"
    );
}

#[test]
fn list_scenarios_prints_names_and_seeds() {
    let out = quick_report(&[], &["--list-scenarios"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "sparselu-8d-r0.0-n1-mesh",
        "sparselu-8d-r0.0-n8-mesh",
        "sparselu-8d-r0.5-n8-mesh",
        "sparselu-8d-r0.5-n8-racktiers-topo-hier",
        "imbalanced-4n-mostloaded",
        "feedback-imbalanced-n4",
        "service-poisson-n4-depth16",
    ] {
        assert!(
            stdout.contains(name),
            "--list-scenarios must print {name}: {stdout}"
        );
    }
    assert!(
        stdout.contains("seed=42"),
        "--list-scenarios must print the trace seeds: {stdout}"
    );
}

#[test]
fn unknown_cli_flag_aborts_listing_flags() {
    let out = quick_report(&[], &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--list-scenarios"),
        "usage message must list the new flag: {stderr}"
    );
}
