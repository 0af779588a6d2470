//! Regression tests for the command-line surface of `paper_report`: a bad
//! `NEXUS_BENCH_SCALE` (the harness's only environment knob) must abort
//! loudly (exit 2) naming the knob and its valid range, any argument must be
//! rejected, and the smallest scale must run the whole report.
//!
//! `paper_report` validates its arguments and the knob before it runs
//! anything, so each abort probe is fast.

use std::process::{Command, Output};

fn paper_report(scale: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paper_report"));
    // Isolate from the caller's environment so only the probed value is set.
    cmd.env_remove("NEXUS_BENCH_SCALE");
    if let Some(scale) = scale {
        cmd.env("NEXUS_BENCH_SCALE", scale);
    }
    cmd.args(args)
        .output()
        .expect("spawning paper_report must succeed")
}

#[test]
fn bad_bench_scale_aborts() {
    // A decimal comma must not silently size the workload to the default,
    // nor an out-of-range value to the nearest bound.
    for value in ["0,3", "NaN", "10", "0", "-1"] {
        let out = paper_report(Some(value), &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "NEXUS_BENCH_SCALE={value} must abort with exit 2 (stderr: {stderr})"
        );
        assert!(
            stderr.contains("NEXUS_BENCH_SCALE") && stderr.contains("0.001..=1.0"),
            "abort message must name the knob and its valid range: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing may run before the abort");
    }
}

#[test]
fn smallest_scale_prints_every_table() {
    // The smallest scale keeps this full report run to a few seconds in debug
    // (about 7 s for both parts on a 2-vCPU host).
    let out = paper_report(Some("0.001"), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "the report must run: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headings: Vec<&str> = stdout.lines().filter(|l| l.starts_with("## ")).collect();
    for title in [
        "## Table I:",
        "## Table II:",
        "## Table III:",
        "## Fig. 6 ",
        "## Fig. 3 ",
        "## Fig. 1 ",
        "## Fig. 4 ",
        "## Fig. 5 ",
        "## Pipeline headline numbers",
        "## §IV-E ",
        "## Fig. 8 ",
        "## Table IV:",
        "## Fig. 7(a) ",
        "## Fig. 7(b) ",
        "## Fig. 9 ",
        "## Fig. 9 summary",
        "## Fig. 9 headline",
        "## Ablation: distribution policy",
        "## Ablation: structural variants",
        "## taskwait on support",
        "## Cluster scalability ",
        "## Work stealing ",
        "## Placement ",
        "## Feedback ",
        "## Fabric sweep ",
        "## Scheduling stacks ",
        "## Match vs fight ",
        "## Service latency ",
        "## Knee ramp ",
    ] {
        assert!(
            headings.iter().any(|h| h.starts_with(title)),
            "no {title:?} table in the report: {headings:#?}"
        );
    }
    // Part I: Fig. 3 over three task-graph counts, Fig. 7(a) and (b) over
    // four h264dec groupings each, Fig. 8 over eight benchmarks and Fig. 9
    // over four matrices, with 12 single tables: 35. Part II: the structural
    // ablation over two benchmarks, cluster scalability over four couplings,
    // stealing and placement over three node counts each, fabrics over two
    // rack shapes, with 8 single tables: 21. 56 in all.
    assert_eq!(headings.len(), 56, "{headings:#?}");
    let part2 = stdout.find("\n# Part II").expect("Part II follows Part I");
    assert!(
        part2
            > stdout
                .find("## Fig. 9 headline")
                .expect("Fig. 9 is printed"),
        "Part II must follow Fig. 9"
    );
}

#[test]
fn any_argument_aborts() {
    for arg in ["--frobnicate", "--bench"] {
        let out = paper_report(None, &[arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg} must abort: {stderr}");
        assert!(
            stderr.contains("takes no arguments"),
            "abort message must say why: {stderr}"
        );
    }
}
