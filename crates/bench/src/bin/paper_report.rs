//! `paper_report` — every table and figure of the paper's evaluation, as
//! Markdown, measured against the values the paper reports, then the
//! experiments the paper has no table for.
//!
//! Part I prints, in order: Table I, Table II, Table III with the Fig. 6
//! check, Fig. 3, the pipeline schedules of Figs. 1, 4 and 5 with the
//! §IV-D/§IV-E cycle counts, Fig. 8 with Table IV, Fig. 7 and Fig. 9. Each
//! paper value sits beside a measured/paper ratio, in bold when it is 1.5 or
//! beyond either way.
//!
//! Part II prints two ablations of the paper's design choices (the
//! distribution function of §IV-B, the structural deltas between Nexus++ and
//! Nexus#) and four sweeps of a cluster of Nexus# nodes: node scaling,
//! placement × stealing × feedback, interconnect fabrics and an open-loop
//! service with its throughput knee.
//!
//! Each speedup curve is simulated once per benchmark and exact manager
//! configuration: Fig. 8, Table IV, Fig. 7 and the ablations share them.
//!
//! ```text
//! cargo run --release -p nexus-bench --bin paper_report
//! NEXUS_BENCH_SCALE=1 cargo run --release -p nexus-bench --bin paper_report > EXPERIMENTS.md
//! ```
//!
//! `NEXUS_BENCH_SCALE` (default 0.1) sizes the simulated traces; Tables I–III
//! and Figs. 1 and 3–6 do not depend on it, and the cluster sweeps of Part II
//! clamp it to sizes of their own. The report takes no arguments,
//! and a bad scale or any argument aborts with exit 2 before anything runs.
//! Progress goes to stderr, one `paper_report: … done in … s` line per
//! section with its wall time; stdout holds no wall-clock value, so two runs
//! at one scale print the same bytes.

use nexus_bench::paper::{
    table4_row, FIG9_GAUSSIAN_3000_SPEEDUP, FIG9_IMPROVEMENT_250, FIG9_IMPROVEMENT_LARGE,
    MICRO_BENCH_NEXUS_SHARP_CYCLES, MICRO_BENCH_TASK_SUPERSCALAR_CYCLES, TABLE2, TABLE3,
};
use nexus_bench::report::{fmt_pct, fmt_ratio, fmt_speedup, Table};
use nexus_bench::runner::{bench_scale, gaussian_core_counts, hw_core_counts, Curves};
use nexus_bench::ManagerKind;
use nexus_cluster::{
    remote_edge_fraction, simulate_cluster, AdmissionConfig, ClusterConfig, ClusterOutcome,
    FeedbackKind, LinkConfig, PolicyKind, StealKind, Topology,
};
use nexus_core::distribution::{DistributionPolicy, Distributor};
use nexus_core::pipeline::{
    insertion_span_cycles, micro_benchmark_cycles, sharp_pipeline_schedule, PipelineCase,
};
use nexus_core::{NexusSharp, NexusSharpConfig};
use nexus_flow::{knee_sweep, simulate_service, ArrivalConfig, ArrivalKind, ServiceConfig};
use nexus_host::manager::TaskManager;
use nexus_host::sweep::{speedup_curve, SpeedupCurve};
use nexus_pp::{pipeline_schedule, NexusPP, NexusPPConfig};
use nexus_resources::{paper_table1, DeviceCapacity, ResourceModel};
use nexus_sim::SimDuration;
use nexus_taskgraph::refgraph::ParallelismProfile;
use nexus_taskgraph::taskpool::RetirementOrder;
use nexus_trace::generators::{distributed, gaussian, MbGrouping};
use nexus_trace::{Benchmark, TraceStats};
use std::fmt::Display;
use std::time::Instant;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "error: paper_report takes no arguments (got {arg:?}); \
             size it with NEXUS_BENCH_SCALE instead"
        );
        std::process::exit(2);
    }
    let scale = bench_scale();
    let started = Instant::now();
    println!("# Nexus# paper report: measured against the paper\n");
    println!(
        "Workload scale {scale}, generated by `NEXUS_BENCH_SCALE={scale} cargo run --release \
         -p nexus-bench --bin paper_report`. Every ratio is measured/paper on unrounded \
         values; bold marks one at 1.5 or beyond, either way.\n"
    );
    table1();
    table2();
    done("Tables I and II", started);
    let started = Instant::now();
    table3();
    fig3();
    pipelines();
    done("Table III, Fig. 3 and the pipelines", started);
    let mut curves = Curves::new(scale, 42);
    fig8_and_table4(&mut curves);
    fig7(&mut curves);
    fig9(scale);
    println!(
        "# Part II: ablations and cluster extensions\n\n\
         The paper reports none of the numbers below, so no ratio is printed. Two ablations \
         vary the paper's own design choices: the distribution function of §IV-B and the \
         structural deltas between Nexus++ and Nexus#. Four sweeps run Nexus# (6 TGs) nodes \
         as a cluster: node scaling, placement × stealing × feedback, interconnect fabrics and \
         an open-loop service. Every cluster run pays the RDMA link's latency and per-word \
         cost, `{:?}`; the fabric sweeps change only its topology.\n",
        LinkConfig::rdma()
    );
    ablation_distribution(&mut curves, scale);
    ablation_structure(&mut curves, scale);
    for (section, sweep) in [
        ("cluster scalability", cluster_scalability as fn(f64)),
        ("policy comparison", policy_comparison),
        ("topology comparison", topology_comparison),
        ("service latency", service_latency),
    ] {
        let started = Instant::now();
        sweep(scale);
        done(section, started);
    }
}

/// Reports on stderr that `section` is done and the wall time it took since
/// `started`.
fn done(section: impl Display, started: Instant) {
    eprintln!(
        "paper_report: {section} done in {:.2} s",
        started.elapsed().as_secs_f64()
    );
}

/// Headers `first, 1c, 2c, …` for a speedup-vs-cores table.
fn core_headers(first: &str, cores: &[usize]) -> Vec<String> {
    std::iter::once(first.to_string())
        .chain(cores.iter().map(|c| format!("{c}c")))
        .collect()
}

/// A speedup-vs-cores row; cores the curve did not run print `-`.
fn curve_row(label: String, curve: &SpeedupCurve, cores: &[usize]) -> Vec<String> {
    std::iter::once(label)
        .chain(cores.iter().map(|&c| match curve.at(c) {
            Some(s) => format!("{s:.1}"),
            None => "-".to_string(),
        }))
        .collect()
}

fn table1() {
    let model = ResourceModel::paper_calibrated();
    let dev = DeviceCapacity::ZC706;
    let mut table = Table::new(
        "Table I: device utilization on the ZC706 (model vs. paper)",
        &[
            "configuration",
            "registers",
            "LUTs",
            "LUTs(paper)",
            "ratio",
            "BRAMs",
            "BRAMs(paper)",
            "ratio",
            "fmax MHz",
            "fmax(paper)",
            "ratio",
            "test MHz",
            "test(paper)",
            "ratio",
            "total util",
        ],
    );
    for row in paper_table1() {
        let est = model.estimate(row.config);
        table.row(vec![
            row.config.label(),
            format!("{} ({})", est.registers, fmt_pct(est.register_util(dev))),
            format!("{} ({})", est.luts, fmt_pct(est.lut_util(dev))),
            format!("{}%", row.luts_pct),
            fmt_ratio(est.lut_util(dev) * 100.0, row.luts_pct),
            format!("{} ({})", est.brams, fmt_pct(est.bram_util(dev))),
            format!("{}%", row.brams_pct),
            fmt_ratio(est.bram_util(dev) * 100.0, row.brams_pct),
            format!("{:.2}", est.max_freq_mhz),
            format!("{:.2}", row.max_freq_mhz),
            fmt_ratio(est.max_freq_mhz, row.max_freq_mhz),
            format!("{:.2}", est.test_freq_mhz),
            format!("{:.2}", row.test_freq_mhz),
            fmt_ratio(est.test_freq_mhz, row.test_freq_mhz),
            fmt_pct(est.total_util(dev)),
        ]);
    }
    table.print();
    println!(
        "ZC706 capacity: {} registers, {} LUTs, {} BRAMs. Largest Nexus# configuration \
         fitting the ZC706 (model): {} task graphs.\n",
        dev.registers,
        dev.luts,
        dev.brams,
        model.largest_fitting(dev, 16)
    );
}

fn table2() {
    let mut table = Table::new(
        "Table II: benchmark traces (generated at full size vs. paper)",
        &[
            "benchmark",
            "# tasks",
            "# tasks(paper)",
            "ratio",
            "total work (ms)",
            "work(paper)",
            "ratio",
            "avg task (us)",
            "avg(paper)",
            "ratio",
            "# deps",
            "deps(paper)",
            "taskwaits",
            "taskwait-ons",
        ],
    );
    for (bench, &(_, tasks, work_ms, avg_us, deps)) in Benchmark::table2_suite().iter().zip(TABLE2)
    {
        let trace = bench.trace(42);
        trace.validate().expect("generated trace must be valid");
        let s = TraceStats::of(&trace);
        table.row(vec![
            s.name.clone(),
            format!("{}", s.tasks),
            format!("{tasks}"),
            fmt_ratio(s.tasks as f64, tasks as f64),
            format!("{:.0}", s.total_work_ms),
            format!("{work_ms:.0}"),
            fmt_ratio(s.total_work_ms, work_ms),
            format!("{:.1}", s.avg_task_us),
            format!("{avg_us:.1}"),
            fmt_ratio(s.avg_task_us, avg_us),
            s.deps_column(),
            deps.to_string(),
            format!("{}", s.taskwaits),
            format!("{}", s.taskwait_ons),
        ]);
    }
    table.print();
    println!(
        "The generators are synthetic reconstructions; each generator's module doc in \
         `nexus-trace` records how it departs from the paper's traces.\n"
    );
}

fn table3() {
    let mut table = Table::new(
        "Table III: Gaussian elimination tasks (generated vs. paper)",
        &[
            "matrix dim",
            "# tasks",
            "# tasks(paper)",
            "ratio",
            "avg FLOPs",
            "FLOPs(paper)",
            "ratio",
            "avg task (us)",
            "us(paper)",
            "ratio",
        ],
    );
    for &(dim, paper_tasks, paper_flops, paper_us) in TABLE3 {
        // Closed forms: generating the 4.5 M-task instance just to count it
        // would take longer than the whole table.
        let tasks = gaussian::task_count(dim as u64);
        let flops = gaussian::average_flops(dim as u64);
        let us = flops / gaussian::FLOPS_PER_US;
        table.row(vec![
            format!("{dim}"),
            format!("{tasks}"),
            format!("{paper_tasks}"),
            fmt_ratio(tasks as f64, paper_tasks as f64),
            format!("{flops:.0}"),
            format!("{paper_flops}"),
            fmt_ratio(flops, paper_flops as f64),
            format!("{us:.3}"),
            format!("{paper_us:.3}"),
            fmt_ratio(us, paper_us),
        ]);
    }
    table.print();

    // Fig. 6 structural check on a small instance: wave widths and the long
    // kick-off list on the first pivot row.
    let n = 64u32;
    let trace = gaussian::generate(n);
    let stats = TraceStats::of(&trace);
    let profile = ParallelismProfile::of(&trace);
    let mut fig6 = Table::new(
        format!("Fig. 6 dependency pattern check (n = {n})"),
        &["metric", "value"],
    );
    fig6.row(vec!["tasks".into(), format!("{}", stats.tasks)]);
    fig6.row(vec!["deps per task".into(), stats.deps_column()]);
    fig6.row(vec![
        "available parallelism (work / critical path)".into(),
        format!("{:.1}", profile.average_parallelism()),
    ]);
    fig6.row(vec![
        "first-wave fan-out (tasks waiting on the first pivot row)".into(),
        format!("{}", n - 1),
    ]);
    fig6.print();
}

/// Fig. 3: how the distribution function spreads the addresses of real
/// workloads over the task graphs. Imbalance 1.0 is the round-robin best case
/// of Fig. 3(A); N is the serialized worst case of Fig. 3(B).
fn fig3() {
    let policies = [
        ("XOR hash (paper)", DistributionPolicy::XorHash),
        ("modulo", DistributionPolicy::Modulo),
        (
            "round-robin (Fig. 3A best case)",
            DistributionPolicy::RoundRobin,
        ),
        (
            "single graph (Fig. 3B worst case)",
            DistributionPolicy::SingleGraph,
        ),
    ];
    let traces: Vec<_> = [
        Benchmark::CRay,
        Benchmark::SparseLu,
        Benchmark::H264Dec(MbGrouping::G1x1),
        Benchmark::Gaussian { dim: 250 },
    ]
    .iter()
    .map(|bench| bench.trace_scaled(7, 0.05))
    .collect();
    for tgs in [4usize, 6, 8] {
        let mut table = Table::new(
            format!("Fig. 3 — distribution fairness over {tgs} task graphs"),
            &[
                "benchmark",
                "policy",
                "addresses",
                "imbalance (max/ideal)",
                "effective parallel TGs",
            ],
        );
        for trace in &traces {
            let addrs: Vec<u64> = trace
                .tasks()
                .flat_map(|t| t.params.iter().map(|p| p.addr))
                .collect();
            for (name, policy) in policies {
                let mut d = Distributor::new(policy, tgs);
                for &a in &addrs {
                    d.pick(a);
                }
                let imbalance = d.balance().imbalance();
                table.row(vec![
                    trace.name.clone(),
                    name.to_string(),
                    format!("{}", addrs.len()),
                    format!("{imbalance:.2}"),
                    format!("{:.2}", tgs as f64 / imbalance),
                ]);
            }
        }
        table.print();
    }
    println!(
        "Imbalance 1.0 corresponds to the best case of Fig. 3(A) (all task graphs busy); \
         imbalance N corresponds to the worst case of Fig. 3(B) (one task graph at a time).\n"
    );
}

/// Figs. 1, 4 and 5: the per-stage cycle layout of inserting the running
/// 4-parameter example task, the §IV-D headline cycle counts, and the §IV-E
/// micro-benchmark (5 independent 2-parameter tasks on one task graph).
fn pipelines() {
    let (spans, total) = pipeline_schedule(1, 4);
    let mut fig1 = Table::new(
        "Fig. 1 — Nexus++ pipeline, one 4-parameter task",
        &["stage", "start cycle", "end cycle", "length"],
    );
    for s in &spans {
        fig1.row(vec![
            s.stage.to_string(),
            format!("{}", s.start_cycle),
            format!("{}", s.end_cycle),
            format!("{}", s.cycles()),
        ]);
    }
    fig1.row(vec![
        "TOTAL".into(),
        "0".into(),
        format!("{total}"),
        format!("{total}"),
    ]);
    fig1.print();

    for (title, case) in [
        (
            "Fig. 4 — Nexus# average-case pipeline, one 4-parameter task (4 TGs)",
            PipelineCase::Average,
        ),
        (
            "Fig. 5 — Nexus# best-case pipeline, one 4-parameter task (4 TGs)",
            PipelineCase::BestCase,
        ),
    ] {
        let (spans, total) = sharp_pipeline_schedule(4, 1, 4, case);
        let mut t = Table::new(title, &["stage", "param", "start", "end", "length"]);
        for s in &spans {
            t.row(vec![
                s.stage.to_string(),
                s.param.map_or_else(|| "-".into(), |p| p.to_string()),
                format!("{}", s.start_cycle),
                format!("{}", s.end_cycle),
                format!("{}", s.cycles()),
            ]);
        }
        t.row(vec![
            "TOTAL".into(),
            "-".into(),
            "0".into(),
            format!("{total}"),
            format!("{total}"),
        ]);
        t.print();
    }

    let mut head = Table::new(
        "Pipeline headline numbers (measured vs. paper)",
        &["quantity", "measured", "paper", "ratio"],
    );
    for (quantity, measured, paper) in [
        (
            "Nexus++ insert stage, 4 params (cycles)",
            nexus_pp::config::insert_cycles(4),
            18,
        ),
        (
            "Nexus# insertion span, average case (cycles)",
            insertion_span_cycles(4, 4, PipelineCase::Average),
            11,
        ),
        (
            "Nexus# insertion span, best case (cycles)",
            insertion_span_cycles(4, 4, PipelineCase::BestCase),
            5,
        ),
        (
            "Nexus++ steady-state write-back interval (cycles)",
            nexus_pp::pipeline::initiation_interval(4),
            18,
        ),
    ] {
        head.row(vec![
            quantity.into(),
            format!("{measured}"),
            format!("{paper}"),
            fmt_ratio(measured as f64, paper as f64),
        ]);
    }
    head.print();

    let measured = micro_benchmark_cycles();
    let mut micro = Table::new(
        "§IV-E micro-benchmark: 5 independent 2-parameter tasks, 1 task graph",
        &["design", "cycles", "paper", "ratio"],
    );
    micro.row(vec![
        "Nexus# (this model vs. the paper's VHDL prototype)".into(),
        format!("{measured}"),
        format!("{MICRO_BENCH_NEXUS_SHARP_CYCLES}"),
        fmt_ratio(measured as f64, MICRO_BENCH_NEXUS_SHARP_CYCLES as f64),
    ]);
    micro.row(vec![
        "Task superscalar prototype [19]".into(),
        "-".into(),
        format!("{MICRO_BENCH_TASK_SUPERSCALAR_CYCLES}"),
        "-".into(),
    ]);
    micro.print();
}

/// Fig. 8 (speedup vs. cores of the four managers on each Table II
/// benchmark) and Table IV (the maximum of each curve).
fn fig8_and_table4(curves: &mut Curves) {
    let cores = hw_core_counts();
    let mut table4 = Table::new(
        "Table IV: maximum speedup per task-graph manager (measured | paper)",
        &[
            "benchmark",
            "ideal",
            "Nanos",
            "paper",
            "ratio",
            "Nexus++",
            "paper",
            "ratio",
            "Nexus# 6TG",
            "paper",
            "ratio",
        ],
    );
    for bench in Benchmark::table2_suite() {
        let started = Instant::now();
        let mut fig8 = Table::new(
            format!("Fig. 8 — {} (speedup vs cores)", bench.name()),
            &core_headers("manager", &cores),
        );
        let mut max = Vec::new();
        for kind in ManagerKind::fig8_set() {
            let curve = curves.get(bench, kind);
            fig8.row(curve_row(kind.label(), curve, &cores));
            max.push(curve.max_speedup());
        }
        fig8.print();
        let paper = table4_row(&bench.name()).expect("Table IV has every Table II benchmark");
        let mut row = vec![bench.name(), fmt_speedup(max[0])];
        for (measured, paper) in
            max[1..]
                .iter()
                .zip([paper.nanos_max, paper.nexus_pp_max, paper.nexus_sharp_max])
        {
            row.extend([
                fmt_speedup(*measured),
                fmt_speedup(paper),
                fmt_ratio(*measured, paper),
            ]);
        }
        table4.row(row);
        done(format_args!("Fig. 8 {}", bench.name()), started);
    }
    table4.print();
    println!(
        "Nanos curves are limited to 32 cores (the paper's measurement machine); hardware \
         managers sweep 1-256 cores. Below scale 1, scaled-down traces lower the absolute \
         maxima of the embarrassingly parallel benchmarks (fewer tasks than cores).\n"
    );
}

/// Fig. 7: Nexus# with 1–8 task graphs on the four h264dec groupings, all at
/// 100 MHz (a) and at each configuration's Table I test frequency (b), under
/// the ideal upper bound.
fn fig7(curves: &mut Curves) {
    let cores = hw_core_counts();
    for (part, at_100_mhz) in [
        ("(a) all configurations at 100 MHz", true),
        ("(b) at synthesis test frequency", false),
    ] {
        for grouping in MbGrouping::all() {
            let started = Instant::now();
            let bench = Benchmark::H264Dec(grouping);
            let mut table = Table::new(
                format!("Fig. 7{part} — {}", bench.name()),
                &core_headers("configuration", &cores),
            );
            let ideal = curves.get(bench, ManagerKind::Ideal);
            table.row(curve_row("No Overhead".into(), ideal, &cores));
            for task_graphs in [1usize, 2, 4, 6, 8] {
                let mhz = if at_100_mhz {
                    100.0
                } else {
                    NexusSharpConfig::paper(task_graphs).clock_mhz
                };
                let curve = curves.get(bench, ManagerKind::NexusSharp { task_graphs, mhz });
                table.row(curve_row(
                    format!("{task_graphs} TGs @ {mhz:.2} MHz"),
                    curve,
                    &cores,
                ));
            }
            table.print();
            done(format_args!("Fig. 7{part} {grouping}"), started);
        }
    }
}

/// Fig. 9: Nexus++ and Nexus# with one and two task graphs, all at 100 MHz,
/// on the Table III matrices. Speedups are relative to the single-core
/// Nexus++ run, as §VI states for this figure (Fig. 8 normalizes to the ideal
/// single-core time instead).
fn fig9(scale: f64) {
    let cores = gaussian_core_counts();
    let at_100_mhz = |task_graphs| ManagerKind::NexusSharp {
        task_graphs,
        mhz: 100.0,
    };
    let managers = [ManagerKind::NexusPP, at_100_mhz(1), at_100_mhz(2)];
    let mut summary = Table::new(
        "Fig. 9 summary: Nexus# (2 TG) best speedup relative to Nexus++ best",
        &["matrix", "improvement (measured)", "paper", "ratio"],
    );
    let mut headline = (String::new(), 0.0);
    for (i, bench) in Benchmark::gaussian_suite().into_iter().enumerate() {
        let started = Instant::now();
        let trace = bench.trace_scaled(42, scale);
        let mut table = Table::new(
            format!(
                "Fig. 9 — {} (speedup vs single-core Nexus++, all managers @ 100 MHz)",
                trace.name
            ),
            &core_headers("manager", &cores),
        );
        let makespans: Vec<Vec<f64>> = managers
            .iter()
            .map(|kind| {
                let curve = speedup_curve(&trace, &cores, |n| kind.build(&trace.name, n));
                curve
                    .points
                    .iter()
                    .map(|p| p.outcome.makespan.as_us_f64())
                    .collect()
            })
            .collect();
        let baseline = makespans[0][0];
        let mut best = Vec::new();
        for (kind, makespans) in managers.iter().zip(&makespans) {
            let speedups: Vec<f64> = makespans.iter().map(|m| baseline / m).collect();
            let mut row = vec![kind.label()];
            row.extend(speedups.iter().map(|s| format!("{s:.1}")));
            table.row(row);
            best.push(speedups.iter().copied().fold(0.0, f64::max));
        }
        // The suite ends with the largest matrix, the headline's 3000×3000.
        headline = (trace.name.clone(), baseline / makespans[2][cores.len() - 1]);
        table.print();
        let improvement = best[2] / best[0] - 1.0;
        let paper = if i == 0 {
            FIG9_IMPROVEMENT_250
        } else {
            FIG9_IMPROVEMENT_LARGE
        };
        summary.row(vec![
            trace.name.clone(),
            format!("{:+.0}%", improvement * 100.0),
            format!("~{:+.0}%", paper * 100.0),
            fmt_ratio(improvement, paper),
        ]);
        done(format_args!("Fig. 9 {}", trace.name), started);
    }
    summary.print();
    let (matrix, measured) = headline;
    let mut head = Table::new(
        "Fig. 9 headline: Nexus# (2 TGs) on 64 cores, largest matrix (paper: 3000x3000)",
        &["matrix", "speedup", "paper", "ratio"],
    );
    head.row(vec![
        matrix,
        fmt_speedup(measured),
        fmt_speedup(FIG9_GAUSSIAN_3000_SPEEDUP),
        fmt_ratio(measured, FIG9_GAUSSIAN_3000_SPEEDUP),
    ]);
    head.print();
}

/// `row` followed by the maximum speedup of `curve` and its speedups at
/// `cores`.
fn speedup_row(mut row: Vec<String>, curve: &SpeedupCurve, cores: &[usize]) -> Vec<String> {
    row.push(fmt_speedup(curve.max_speedup()));
    row.extend(
        cores
            .iter()
            .map(|&c| fmt_speedup(curve.at(c).unwrap_or(f64::NAN))),
    );
    row
}

/// Ablation of §IV-B, which asks a distribution function for speed and
/// fairness: Nexus# (6 TGs) under the XOR hash, plain modulo, first-seen
/// round-robin and a single graph. The XOR-hash rows read the report's
/// shared Nexus# curves, which Fig. 8 already holds for h264dec-1x1 and
/// streamcluster; the address imbalance is the 32-core run's.
fn ablation_distribution(curves: &mut Curves, scale: f64) {
    let cores = hw_core_counts();
    let mut table = Table::new(
        "Ablation: distribution policy under Nexus# (6 TGs @ 55.56 MHz)",
        &[
            "benchmark",
            "policy",
            "max speedup",
            "speedup @ 32c",
            "addr imbalance",
        ],
    );
    for bench in [
        Benchmark::H264Dec(MbGrouping::G1x1),
        Benchmark::Streamcluster,
        Benchmark::Gaussian { dim: 500 },
    ] {
        let started = Instant::now();
        let trace = bench.trace_scaled(42, scale);
        for (name, policy) in [
            ("XOR hash (paper)", DistributionPolicy::XorHash),
            ("modulo", DistributionPolicy::Modulo),
            ("round-robin", DistributionPolicy::RoundRobin),
            ("single graph", DistributionPolicy::SingleGraph),
        ] {
            let variant;
            let curve = if policy == DistributionPolicy::XorHash {
                curves.get(bench, ManagerKind::nexus_sharp(6))
            } else {
                let mut cfg = NexusSharpConfig::paper(6);
                cfg.distribution = policy;
                variant = speedup_curve(&trace, &cores, |_| Box::new(NexusSharp::new(cfg)));
                &variant
            };
            let imbalance = curve
                .points
                .iter()
                .find(|p| p.cores == 32)
                .into_iter()
                .flat_map(|p| &p.outcome.manager_stats)
                .find(|(key, _)| key == "distribution_imbalance")
                .map_or(f64::NAN, |&(_, v)| v);
            let mut row = speedup_row(vec![trace.name.clone(), name.to_string()], curve, &[32]);
            row.push(format!("{imbalance:.2}"));
            table.row(row);
        }
        done(
            format_args!("distribution ablation {}", trace.name),
            started,
        );
    }
    table.print();
}

/// Ablation of the structural deltas between Nexus++ and Nexus# (the
/// `nexus-pp` crate doc describes them): Nexus++ with a free-list pool or a
/// 1024-entry pool, and Nexus# with one TG (taskwait-on support and the
/// streaming front-end) and with six. Streamcluster stresses pool recycling,
/// h264dec-1x1 the taskwait-on escalation and front-end throughput. Rows of
/// a `ManagerKind` read the report's shared curves; Figs. 7 and 8 hold all
/// of them but streamcluster's 1-TG one.
fn ablation_structure(curves: &mut Curves, scale: f64) {
    let cores = hw_core_counts();
    let row = |variant: &str, curve: &SpeedupCurve| {
        speedup_row(vec![variant.to_string()], curve, &[32, 256])
    };
    let mut free_list = NexusPPConfig::paper();
    free_list.retirement = RetirementOrder::FreeList;
    let mut big_pool = NexusPPConfig::paper();
    big_pool.task_pool_capacity = 1024;
    let one_tg = ManagerKind::NexusSharp {
        task_graphs: 1,
        mhz: 100.0,
    };
    for bench in [
        Benchmark::Streamcluster,
        Benchmark::H264Dec(MbGrouping::G1x1),
    ] {
        let started = Instant::now();
        let trace = bench.trace_scaled(42, scale);
        let pp = |cfg| speedup_curve(&trace, &cores, |_| Box::new(NexusPP::new(cfg)));
        let mut table = Table::new(
            format!("Ablation: structural variants on {}", trace.name),
            &["variant", "max speedup", "speedup @ 32c", "speedup @ 256c"],
        );
        for cells in [
            row(
                "Nexus++ (in-order pool, no taskwait-on)",
                curves.get(bench, ManagerKind::NexusPP),
            ),
            row("Nexus++ + free-list pool", &pp(free_list)),
            row("Nexus++ + 1024-entry pool", &pp(big_pool)),
            row(
                "Nexus# 1 TG (adds taskwait-on + streaming front-end)",
                curves.get(bench, one_tg),
            ),
            row(
                "Nexus# 6 TGs @ 55.56 MHz (full design)",
                curves.get(bench, ManagerKind::nexus_sharp(6)),
            ),
        ] {
            table.row(cells);
        }
        table.print();
        done(format_args!("structural ablation {}", trace.name), started);
    }
    let mut support = Table::new("taskwait on support", &["design", "supported"]);
    support.row(vec![
        "Nexus++".into(),
        format!("{}", NexusPP::paper().supports_taskwait_on()),
    ]);
    support.row(vec![
        "Nexus#".into(),
        format!("{}", NexusSharp::paper(6).supports_taskwait_on()),
    ]);
    support.print();
}

/// Node scaling: one 8-domain sparselu trace (one factorization per domain,
/// a fraction of tasks coupled to a neighbouring domain by halo reads) on 1, 2,
/// 4 and 8 nodes with `xorhash` placement, no stealing and no feedback. With
/// few remote edges the cluster scales with the node count. With every
/// domain coupled the makespan stays near its one-node value whatever the node
/// count: the dependences the halo reads add bound it, not the link. The
/// `link busy` column sums the wire time of every link, a tiny fraction of
/// the makespan on every row.
fn cluster_scalability(scale: f64) {
    // The distributed trace grows with the node count; keep the per-domain
    // scale small enough that the 8-node sweep stays quick.
    let scale = (scale * 0.02).clamp(0.001, 0.05);
    for remote in [0.0, 0.1, 0.5, 1.0] {
        let mut table = Table::new(
            format!(
                "Cluster scalability — dist-sparselu, {:.0}% halo coupling",
                remote * 100.0
            ),
            &[
                "nodes",
                "tasks",
                "remote edges",
                "makespan",
                "speedup",
                "notifications",
                "link busy",
            ],
        );
        // The same 8-domain workload on every cluster size, so makespans are
        // directly comparable (affinity hints wrap modulo the node count).
        let trace = distributed::sparselu(8, remote, 42, scale);
        for nodes in [1, 2, 4, 8] {
            let cfg = ClusterConfig::new(nodes, 8);
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                format!("{nodes}"),
                format!("{}", out.tasks),
                format!("{:.1}%", remote_edge_fraction(&trace, nodes) * 100.0),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.notifications),
                format!("{}", out.link.busy_time),
            ]);
        }
        table.print();
    }
    println!("Per-domain sparselu scale {scale}, 8 workers per node.\n");
}

/// Placement × stealing × feedback on 8-worker nodes, in three sweeps.
/// 1. Stealing on imbalanced domains (node 0 owns 6× the tasks of the last;
///    the hints pin the imbalance and the tasks have no dependences, so
///    feedback cannot act and only feedback `off` runs).
/// 2. Every placement under every feedback mode on an un-hinted sparselu:
///    `topo` keeps producer→consumer chains on one node.
/// 3. Every feedback mode on a chain-skewed trace (node 0 owns 36 serial
///    chains, the rest a geometric tail) under the strongest static stack,
///    TopologyAware + Hierarchical: stealing sees only the chain heads, so
///    idle nodes must reclaim the blocked tails. Its trace does not depend on
///    the scale; `tests/policy_comparison.rs` requires full feedback to beat
///    feedback `off` by at least 10% on it.
fn policy_comparison(scale: f64) {
    let base_tasks = ((scale * 1920.0) as u64).clamp(96, 1920);
    for nodes in [2, 4, 8] {
        let trace =
            distributed::imbalanced(nodes, base_tasks, 6.0, SimDuration::from_us(50), 0.0, 42);
        let mut table = Table::new(
            format!(
                "Work stealing — {} on {nodes} nodes, Nexus# 6TG per node",
                trace.name
            ),
            &[
                "stealing",
                "makespan",
                "speedup",
                "steals",
                "failed",
                "link words",
            ],
        );
        for stealing in StealKind::ALL {
            let cfg = ClusterConfig::new(nodes, 8).with_stealing(stealing);
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                out.stealing.clone(),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.steals),
                format!("{}", out.steal_failures),
                format!("{}", out.link.words),
            ]);
        }
        table.print();
    }

    let lu_scale = (scale * 0.04).clamp(0.001, 0.05);
    for nodes in [2, 4, 8] {
        let trace = distributed::unhinted(&distributed::sparselu(nodes, 0.3, 42, lu_scale));
        let mut table = Table::new(
            format!(
                "Placement — {} on {nodes} nodes, Nexus# 6TG per node",
                trace.name
            ),
            &[
                "feedback",
                "placement",
                "makespan",
                "speedup",
                "remote edges",
                "notifications",
                "link words",
            ],
        );
        for feedback in FeedbackKind::ALL {
            for placement in PolicyKind::ALL {
                let cfg = ClusterConfig::new(nodes, 8)
                    .with_placement(placement)
                    .with_feedback(feedback);
                let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
                table.row(vec![
                    feedback.to_string(),
                    out.placement.clone(),
                    format!("{}", out.makespan),
                    format!("{:.2}x", out.speedup()),
                    format!("{:.1}%", out.remote_edge_fraction() * 100.0),
                    format!("{}", out.notifications),
                    format!("{}", out.link.words),
                ]);
            }
        }
        table.print();
    }

    let chains = distributed::chained_imbalanced(4, 36, 16, 6.0, SimDuration::from_us(20));
    let mut table = Table::new(
        format!(
            "Feedback — {} on 4 nodes, TopologyAware + Hierarchical, Nexus# 6TG per node",
            chains.name
        ),
        &[
            "feedback",
            "makespan",
            "speedup",
            "steals",
            "reclaims",
            "link words",
        ],
    );
    let mut makespan = |mode| {
        let cfg = ClusterConfig::new(4, 8)
            .with_placement(PolicyKind::TopologyAware)
            .with_stealing(StealKind::Hierarchical)
            .with_feedback(mode);
        let out = simulate_cluster(&chains, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            mode.to_string(),
            format!("{}", out.makespan),
            format!("{:.2}x", out.speedup()),
            format!("{}", out.steals),
            format!("{}", out.reclaims),
            format!("{}", out.link.words),
        ]);
        out.makespan.as_us_f64()
    };
    // `ALL` lists off, place, reclaim and full.
    let [off, _, _, full] = FeedbackKind::ALL.map(&mut makespan);
    table.print();
    println!(
        "Full feedback against the static stack (feedback off): {:.1}% shorter makespan; \
         `tests/policy_comparison.rs` requires at least 10%.\n",
        (1.0 - full / off) * 100.0
    );
}

/// Per-tier link words of a cluster run, `name words` for each tier.
fn tier_summary(out: &ClusterOutcome) -> String {
    out.link
        .per_tier
        .iter()
        .map(|t| format!("{} {}w", t.name, t.words))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Interconnect fabrics × scheduling stacks on rack-clustered chain traces,
/// 4-worker nodes, in three sweeps: one trace over every built-in fabric
/// (the uniform `bus` and `mesh` anchor the ends); the flat stack, `xorhash`
/// placement with flat `steal`, against the aware one, `topo` with `hier`,
/// on an un-hinted trace whose rack heads own 3× the chains, over
/// `racktiers`; and traffic that stays inside racks against traffic that
/// crosses them, on `mesh` and `racktiers`.
fn topology_comparison(scale: f64) {
    let link = LinkConfig::rdma();
    let us = SimDuration::from_us;
    let chains = ((scale * 60.0) as u64).clamp(4, 60);
    // The rack shapes line up with the fabrics' derived rack and group sizes,
    // so the trace's intra-rack coupling really is intra-rack on the wire.
    for (racks, nodes_per_rack) in [(2, 2), (3, 3)] {
        let trace = distributed::rack_clustered(
            racks,
            nodes_per_rack,
            chains,
            10,
            1.0,
            0.5,
            0.0,
            us(30),
            42,
        );
        let nodes = racks * nodes_per_rack;
        let mut table = Table::new(
            format!(
                "Fabric sweep — {} on {nodes} nodes, Nexus# 6TG per node",
                trace.name
            ),
            &["topology", "makespan", "speedup", "link words", "per tier"],
        );
        for topology in Topology::ALL {
            let cfg = ClusterConfig::new(nodes, 4).with_link(link.with_topology(topology));
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                out.topology.clone(),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                format!("{}", out.link.words),
                tier_summary(&out),
            ]);
        }
        table.print();
    }

    let skewed = distributed::unhinted(&distributed::rack_clustered(
        2,
        2,
        chains,
        10,
        3.0,
        0.6,
        0.0,
        us(30),
        11,
    ));
    let mut table = Table::new(
        format!(
            "Scheduling stacks — {} on 4 nodes over {}, Nexus# 6TG per node",
            skewed.name,
            Topology::RackTiers
        ),
        &[
            "stack",
            "placement",
            "stealing",
            "makespan",
            "steals",
            "per tier",
        ],
    );
    for (stack, placement, stealing) in [
        ("flat", PolicyKind::XorHash, StealKind::MostLoaded),
        ("aware", PolicyKind::TopologyAware, StealKind::Hierarchical),
    ] {
        let cfg = ClusterConfig::new(4, 4)
            .with_link(link.with_topology(Topology::RackTiers))
            .with_placement(placement)
            .with_stealing(stealing);
        let out = simulate_cluster(&skewed, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            stack.to_string(),
            out.placement.clone(),
            out.stealing.clone(),
            format!("{}", out.makespan),
            format!("{}", out.steals),
            tier_summary(&out),
        ]);
    }
    table.print();

    let mut table = Table::new(
        "Match vs fight — rack-clustered traffic direction × fabric, 4 nodes",
        &["trace", "topology", "makespan", "speedup", "per tier"],
    );
    for cross_rack in [0.0, 1.0] {
        let trace = distributed::rack_clustered(2, 2, chains, 10, 1.0, 1.0, cross_rack, us(30), 13);
        for topology in [Topology::FullMesh, Topology::RackTiers] {
            let cfg = ClusterConfig::new(4, 4).with_link(link.with_topology(topology));
            let out = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
            table.row(vec![
                trace.name.clone(),
                out.topology.clone(),
                format!("{}", out.makespan),
                format!("{:.2}x", out.speedup()),
                tier_summary(&out),
            ]);
        }
    }
    table.print();
    println!("{chains} chains per node, 4 workers per node.\n");
}

/// An open-loop service: Poisson arrivals into a 4 × 8 cluster running one
/// distributed sparselu trace, under-driven (an eighth of the closed-loop
/// capacity, the default admission depth of 64), over-driven (1 ns gaps
/// through a 4-deep admission queue), and along a load ramp that locates the
/// highest sustained rate. `tests/service_latency.rs` checks that the
/// under-driven case never back-pressures, the over-driven one does, the
/// admission bound holds and no task is lost, and the ramp crosses the knee.
fn service_latency(scale: f64) {
    let scale = (scale * 0.02).clamp(0.001, 0.05);
    let kind = ArrivalKind::Poisson;
    let depth = AdmissionConfig::DEFAULT_DEPTH;
    let trace = distributed::sparselu(4, 0.3, 42, scale);
    let cfg = ClusterConfig::new(4, 8);
    // Capacity estimate from the closed-loop run: at full drive the cluster
    // retires one task every makespan/tasks on average.
    let closed = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
    let tasks = trace.task_count() as u64;
    let capacity_gap = SimDuration::from_ns((closed.makespan.as_ns() / tasks.max(1)).max(1));

    let mut table = Table::new(
        format!("Service latency — {kind} arrivals, admission depth per case"),
        &[
            "case",
            "gap",
            "depth",
            "p50",
            "p99",
            "p99.9",
            "backpressure",
            "max depth",
        ],
    );
    for (case, gap, depth) in [
        ("under", capacity_gap * 8, depth),
        ("over", SimDuration::from_ns(1), 4),
    ] {
        let service = ServiceConfig::new(ArrivalConfig::new(kind, gap, 42))
            .with_admission(AdmissionConfig::new(depth));
        let out = simulate_service(&trace, &service, &cfg, |_| NexusSharp::paper(6));
        table.row(vec![
            case.into(),
            format!("{gap}"),
            format!("{depth}"),
            format!("{}", out.p50()),
            format!("{}", out.p99()),
            format!("{}", out.p999()),
            format!("{}", out.backpressure_events()),
            format!("{}", out.stream.max_admission_depth),
        ]);
    }
    table.print();

    let base = ServiceConfig::new(ArrivalConfig::new(kind, capacity_gap * 8, 42))
        .with_admission(AdmissionConfig::new(8));
    let report = knee_sweep(
        &trace,
        &base,
        &cfg,
        &[0.5, 1.0, 2.0, 4.0, 16.0, 64.0],
        |_| NexusSharp::paper(6),
    );
    let mut ramp = Table::new(
        "Knee ramp — load factor over 1/8th-capacity base rate",
        &["load", "offered/s", "done/s", "p99", "backpressure", "lag"],
    );
    for p in &report.points {
        ramp.row(vec![
            format!("{:.1}x", p.load_factor),
            format!("{:.0}", p.offered_per_sec),
            format!("{:.0}", p.completed_per_sec),
            format!("{}", p.p99),
            format!("{}", p.backpressure_events),
            format!("{}", p.source_lag),
        ]);
    }
    ramp.print();
    let knee = match report.knee() {
        Some(k) => format!("{:.0} offered/s sustained", k.offered_per_sec),
        None => "below the lowest point of the ramp".to_string(),
    };
    println!(
        "dist-sparselu at scale {scale}, {tasks} tasks, default admission depth {depth}; \
         closed-loop makespan {}, about {:.0} tasks/s. Knee: {knee}.\n",
        closed.makespan,
        1e9 / capacity_gap.as_ns() as f64
    );
}
