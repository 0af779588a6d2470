//! `paper_report` — every table and figure of the paper's evaluation, as
//! Markdown, measured against the values the paper reports.
//!
//! Prints, in order: Table I, Table II, Table III with the Fig. 6 check,
//! Fig. 3, the pipeline schedules of Figs. 1, 4 and 5 with the §IV-D/§IV-E
//! cycle counts, Fig. 8 with Table IV, Fig. 7 and Fig. 9. Each paper value
//! sits beside a measured/paper ratio, in bold when it is 1.5 or beyond
//! either way. Each speedup curve is simulated once per benchmark and exact
//! manager configuration: Fig. 8, Table IV and Fig. 7 share them.
//!
//! ```text
//! cargo run --release -p nexus-bench --bin paper_report
//! NEXUS_BENCH_SCALE=1 cargo run --release -p nexus-bench --bin paper_report > EXPERIMENTS.md
//! ```
//!
//! `NEXUS_BENCH_SCALE` (default 0.1) sizes the simulated traces; Tables I–III
//! and Figs. 1 and 3–6 do not depend on it. The report takes no arguments,
//! and a bad scale or any argument aborts with exit 2 before anything runs.
//! Progress goes to stderr; stdout holds no wall-clock value, so two runs at
//! one scale print the same bytes.

use nexus_bench::paper::{
    table4_row, FIG9_GAUSSIAN_3000_SPEEDUP, FIG9_IMPROVEMENT_250, FIG9_IMPROVEMENT_LARGE,
    MICRO_BENCH_NEXUS_SHARP_CYCLES, MICRO_BENCH_TASK_SUPERSCALAR_CYCLES, TABLE2, TABLE3,
};
use nexus_bench::report::{fmt_pct, fmt_ratio, fmt_speedup, Table};
use nexus_bench::runner::{bench_scale, gaussian_core_counts, hw_core_counts, Curves};
use nexus_bench::ManagerKind;
use nexus_core::distribution::{DistributionPolicy, Distributor};
use nexus_core::pipeline::{
    insertion_span_cycles, micro_benchmark_cycles, sharp_pipeline_schedule, PipelineCase,
};
use nexus_core::NexusSharpConfig;
use nexus_host::sweep::{speedup_curve, SpeedupCurve};
use nexus_pp::{pipeline_schedule, NexusPPConfig};
use nexus_resources::{paper_table1, DeviceCapacity, ResourceModel};
use nexus_taskgraph::refgraph::ParallelismProfile;
use nexus_trace::generators::{gaussian, MbGrouping};
use nexus_trace::{Benchmark, TraceStats};

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "error: paper_report takes no arguments (got {arg:?}); \
             size it with NEXUS_BENCH_SCALE instead"
        );
        std::process::exit(2);
    }
    let scale = bench_scale();
    println!("# Nexus# paper report: measured against the paper\n");
    println!(
        "Workload scale {scale}, generated by `NEXUS_BENCH_SCALE={scale} cargo run --release \
         -p nexus-bench --bin paper_report`. Every ratio is measured/paper on unrounded \
         values; bold marks one at 1.5 or beyond, either way.\n"
    );
    table1();
    table2();
    table3();
    fig3();
    pipelines();
    let mut curves = Curves::new(scale, 42);
    fig8_and_table4(&mut curves);
    fig7(&mut curves);
    fig9(scale);
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
    eprintln!("paper_report: Tables I and II done");
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
    let pp = NexusPPConfig::paper();
    let sharp4 = NexusSharpConfig::at_mhz(4, 100.0);

    let (spans, total) = pipeline_schedule(&pp, 1, 4);
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
        let (spans, total) = sharp_pipeline_schedule(&sharp4, 1, 4, case);
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
            pp.insert_cycles(4),
            18,
        ),
        (
            "Nexus# insertion span, average case (cycles)",
            insertion_span_cycles(&sharp4, 4, PipelineCase::Average),
            11,
        ),
        (
            "Nexus# insertion span, best case (cycles)",
            insertion_span_cycles(&sharp4, 4, PipelineCase::BestCase),
            5,
        ),
        (
            "Nexus++ steady-state write-back interval (cycles)",
            nexus_pp::pipeline::initiation_interval(&pp, 4),
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

    let measured = micro_benchmark_cycles(&NexusSharpConfig::at_mhz(1, 100.0));
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
        eprintln!("paper_report: Fig. 8 {} done", bench.name());
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
            eprintln!("paper_report: Fig. 7{part} {grouping} done");
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
        eprintln!("paper_report: Fig. 9 {} done", trace.name);
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
