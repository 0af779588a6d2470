//! **Figure 8** — Performance of Nexus# running different benchmarks, in
//! comparison to other task managers.
//!
//! For each of the eight benchmarks, prints the speedup-vs-cores series of the
//! ideal (No Overhead) curve, Nanos (≤32 cores), Nexus++ (100 MHz) and Nexus#
//! (6 task graphs @ 55.56 MHz) — the four curves of each sub-plot of Fig. 8.
//!
//! Run with: `cargo bench -p nexus-bench --bench fig8_benchmarks`
//! Environment: `NEXUS_BENCH_SCALE=<0..1>` (default 0.1; `1` for the
//! full-size traces).

use nexus_bench::managers::ManagerKind;
use nexus_bench::report::Table;
use nexus_bench::runner::{bench_scale, curves_for, hw_core_counts};
use nexus_trace::Benchmark;

fn main() {
    let scale = bench_scale();
    println!("workload scale: {scale} (NEXUS_BENCH_SCALE=1 for full-size traces)\n");
    let managers = ManagerKind::fig8_set();
    let cores = hw_core_counts();

    for bench in Benchmark::table2_suite() {
        let curves = curves_for(bench, &managers, scale, 42);
        let mut headers: Vec<String> = vec!["manager".to_string()];
        headers.extend(cores.iter().map(|c| format!("{c}c")));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            format!("Fig. 8 — {} (speedup vs cores)", bench.name()),
            &headers_ref,
        );
        for curve in &curves {
            let mut row = vec![curve.manager.clone()];
            for &c in &cores {
                row.push(
                    curve
                        .at(c)
                        .map(|s| format!("{s:.1}"))
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            table.row(row);
        }
        table.print();
        eprintln!("  finished {}", bench.name());
    }
}
