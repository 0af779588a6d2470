//! Regression tests for the command-line surface of the bench harness: an
//! unknown value of either environment knob (`NEXUS_BENCH_SCALE`,
//! `NEXUS_FEEDBACK`) must abort loudly (exit 2) naming the knob and its valid
//! values, valid values must be accepted case-insensitively, and
//! `quick_report`, which takes no arguments, must reject any.
//!
//! `quick_report` validates both knobs and its arguments before it runs
//! anything, so each abort probe is fast.

use std::process::{Command, Output};

fn quick_report(envs: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_quick_report"));
    // Isolate from the caller's environment so only the probed knob is set.
    for var in ["NEXUS_BENCH_SCALE", "NEXUS_FEEDBACK"] {
        cmd.env_remove(var);
    }
    cmd.envs(envs.iter().copied()).args(args);
    cmd.output().expect("spawning quick_report must succeed")
}

/// Asserts that setting `var=value` aborts with exit code 2 and a message
/// naming the knob and listing `expected` as part of the valid options.
fn assert_aborts(var: &str, value: &str, expected: &str) {
    let out = quick_report(&[(var, value)], &[]);
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
fn unknown_feedback_mode_aborts_listing_options() {
    assert_aborts("NEXUS_FEEDBACK", "adaptive", "off|place|reclaim|full");
}

#[test]
fn bad_bench_scale_aborts() {
    // A decimal comma must not silently size the workload to the default.
    assert_aborts("NEXUS_BENCH_SCALE", "0,3", "0.001..=1.0");
    assert_aborts("NEXUS_BENCH_SCALE", "NaN", "0.001..=1.0");
}

#[test]
fn valid_knobs_are_case_insensitive() {
    // The smallest scale keeps this full report run to about a second.
    let out = quick_report(
        &[("NEXUS_BENCH_SCALE", "0.001"), ("NEXUS_FEEDBACK", "FuLl")],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "mixed-case valid knobs must be accepted: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("feedback full"),
        "the policy table must run under the requested feedback mode: {stdout}"
    );
}

#[test]
fn any_argument_aborts() {
    for arg in ["--frobnicate", "--baseline-only"] {
        let out = quick_report(&[], &[arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg} must abort: {stderr}");
        assert!(
            stderr.contains("takes no arguments"),
            "abort message must say why: {stderr}"
        );
    }
}
