//! **Figure 7** — Scalability of Nexus# running different configurations of
//! the H264dec benchmark.
//!
//! Sweeps the four macroblock groupings (1×1, 2×2, 4×4, 8×8 macroblocks per
//! task) under Nexus# with 1/2/4/6/8 task graphs, once with every
//! configuration forced to 100 MHz (Fig. 7(a)) and once at the Table I test
//! frequency of each configuration (Fig. 7(b)). The ideal curve is included as
//! the upper bound, as in the figure.
//!
//! Run with: `cargo bench -p nexus-bench --bench fig7_tg_scalability`
//! Environment: `NEXUS_BENCH_SCALE=<0..1>` (default 0.1; `1` for the
//! full-size traces).

use nexus_bench::managers::ManagerKind;
use nexus_bench::report::Table;
use nexus_bench::runner::{bench_scale, curve_for, hw_core_counts};
use nexus_resources::{ManagerConfig, ResourceModel};
use nexus_trace::generators::MbGrouping;
use nexus_trace::Benchmark;

fn main() {
    let scale = bench_scale();
    println!("workload scale: {scale} (NEXUS_BENCH_SCALE=1 for full-size traces)\n");
    let cores = hw_core_counts();
    let tg_counts = [1usize, 2, 4, 6, 8];
    let model = ResourceModel::paper_calibrated();

    for (part, fixed_100mhz) in [
        ("(a) all configurations at 100 MHz", true),
        ("(b) at synthesis test frequency", false),
    ] {
        for grouping in MbGrouping::all() {
            let bench = Benchmark::H264Dec(grouping);
            let mut headers: Vec<String> = vec!["configuration".to_string()];
            headers.extend(cores.iter().map(|c| format!("{c}c")));
            let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            let mut table = Table::new(
                format!("Fig. 7{part} — h264dec-{grouping}-10f"),
                &headers_ref,
            );

            // Ideal upper bound (the red curve).
            let ideal = curve_for(bench, ManagerKind::Ideal, &cores, scale, 42);
            let mut row = vec!["No Overhead".to_string()];
            for &c in &cores {
                row.push(format!("{:.1}", ideal.at(c).unwrap_or(f64::NAN)));
            }
            table.row(row);

            for &tgs in &tg_counts {
                let mhz = if fixed_100mhz {
                    100.0
                } else {
                    model
                        .estimate(ManagerConfig::NexusSharp {
                            task_graphs: tgs as u32,
                        })
                        .test_freq_mhz
                };
                let kind = ManagerKind::NexusSharpAtMhz {
                    task_graphs: tgs,
                    mhz,
                };
                let curve = curve_for(bench, kind, &cores, scale, 42);
                let mut row = vec![format!("{tgs} TGs @ {mhz:.2} MHz")];
                for &c in &cores {
                    row.push(format!("{:.1}", curve.at(c).unwrap_or(f64::NAN)));
                }
                table.row(row);
            }
            table.print();
            eprintln!("  finished Fig.7{part} {grouping}");
        }
    }
}
