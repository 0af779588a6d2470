//! **Table IV** — Maximum scalability using the different task graph managers.
//!
//! Runs every Table II benchmark under Nanos, Nexus++ and Nexus# (6 task
//! graphs at 55.56 MHz) over the paper's core counts and reports the maximum
//! speedup of each, next to the paper's Table IV values.
//!
//! Run with: `cargo bench -p nexus-bench --bench table4_max_scalability`
//! Environment: `NEXUS_BENCH_SCALE=<0..1>` (default 0.1; `1` for the
//! full-size traces).

use nexus_bench::managers::ManagerKind;
use nexus_bench::paper::table4_row;
use nexus_bench::report::{fmt_speedup, Table};
use nexus_bench::runner::{bench_scale, curves_for};
use nexus_trace::Benchmark;

fn main() {
    let scale = bench_scale();
    println!("workload scale: {scale} (NEXUS_BENCH_SCALE=1 for full-size traces)\n");
    let managers = ManagerKind::fig8_set();

    let mut table = Table::new(
        "Table IV: maximum speedup per task-graph manager (measured | paper)",
        &[
            "benchmark",
            "ideal",
            "Nanos",
            "paper",
            "Nexus++",
            "paper",
            "Nexus# 6TG",
            "paper",
        ],
    );

    for bench in Benchmark::table2_suite() {
        let curves = curves_for(bench, &managers, scale, 42);
        let max_of = |label: &str| -> f64 {
            curves
                .iter()
                .find(|c| c.manager == label)
                .map(|c| c.max_speedup())
                .unwrap_or(f64::NAN)
        };
        let paper = table4_row(&bench.name());
        table.row(vec![
            bench.name(),
            fmt_speedup(max_of("ideal")),
            fmt_speedup(max_of("Nanos")),
            paper.map(|p| fmt_speedup(p.nanos_max)).unwrap_or_default(),
            fmt_speedup(max_of("Nexus++")),
            paper
                .map(|p| fmt_speedup(p.nexus_pp_max))
                .unwrap_or_default(),
            fmt_speedup(max_of("Nexus# 6TG")),
            paper
                .map(|p| fmt_speedup(p.nexus_sharp_max))
                .unwrap_or_default(),
        ]);
        eprintln!("  finished {}", bench.name());
    }
    table.print();
    println!("Nanos curves are limited to 32 cores (the paper's measurement machine);");
    println!("hardware managers sweep 1-256 cores. Scaled-down traces lower the absolute");
    println!("maxima of the embarrassingly parallel benchmarks (fewer tasks than cores).");
}
