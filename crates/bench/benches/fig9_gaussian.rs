//! **Figure 9** — Performance of Nexus# running the Gaussian elimination
//! benchmark for different matrix sizes.
//!
//! Compares Nexus++, Nexus# with one task graph and Nexus# with two task
//! graphs, all at 100 MHz (as in the paper), on 1–64 cores for matrices of
//! 250/500/1000/3000 rows. Worker cores compute 2 GFLOPS, so task durations are
//! the Table III weights. **The speedup baseline is the single-core execution
//! time using Nexus++**, exactly as stated in §VI for this figure (unlike
//! Fig. 8, which is normalized to the ideal single-core time).
//!
//! Run with: `cargo bench -p nexus-bench --bench fig9_gaussian`
//! Environment: `NEXUS_BENCH_SCALE` scales the matrix dimension (default 0.1
//! scales each dimension by sqrt(0.1) ≈ 0.32); `NEXUS_BENCH_SCALE=1` runs the
//! paper's exact sizes including the 4.5-million-task 3000×3000 instance.

use nexus_bench::managers::ManagerKind;
use nexus_bench::paper::{
    FIG9_GAUSSIAN_3000_SPEEDUP, FIG9_IMPROVEMENT_250, FIG9_IMPROVEMENT_LARGE,
};
use nexus_bench::report::Table;
use nexus_bench::runner::{bench_scale, gaussian_core_counts};
use nexus_host::{simulate, HostConfig};
use nexus_trace::Benchmark;

fn main() {
    let scale = bench_scale();
    println!("workload scale: {scale} (NEXUS_BENCH_SCALE=1 for the paper's exact matrix sizes)\n");
    let cores = gaussian_core_counts();
    let managers = [
        ManagerKind::NexusPP,
        ManagerKind::NexusSharpAtMhz {
            task_graphs: 1,
            mhz: 100.0,
        },
        ManagerKind::NexusSharpAtMhz {
            task_graphs: 2,
            mhz: 100.0,
        },
    ];

    let mut improvements: Vec<(String, f64)> = Vec::new();

    for bench in Benchmark::gaussian_suite() {
        let trace = bench.trace_scaled(42, scale);

        // Paper baseline: single-core execution time using Nexus++.
        let baseline = simulate(
            &trace,
            &mut ManagerKind::NexusPP.build(&trace.name, 1),
            &HostConfig::with_workers(1),
        )
        .makespan;

        let mut headers: Vec<String> = vec!["manager".to_string()];
        headers.extend(cores.iter().map(|c| format!("{c}c")));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            format!(
                "Fig. 9 — {} (speedup vs single-core Nexus++, all managers @ 100 MHz)",
                trace.name
            ),
            &headers_ref,
        );

        let mut best_per_manager: Vec<f64> = Vec::new();
        for kind in managers {
            let mut row = vec![kind.label()];
            let mut best = 0.0f64;
            for &c in &cores {
                let out = simulate(
                    &trace,
                    &mut kind.build(&trace.name, c),
                    &HostConfig::with_workers(c),
                );
                let speedup = baseline.as_us_f64() / out.makespan.as_us_f64();
                best = best.max(speedup);
                row.push(format!("{speedup:.1}"));
            }
            best_per_manager.push(best);
            table.row(row);
        }
        table.print();

        improvements.push((
            trace.name.clone(),
            best_per_manager[2] / best_per_manager[0] - 1.0,
        ));
        eprintln!("  finished {}", trace.name);
    }

    let mut summary = Table::new(
        "Fig. 9 summary: Nexus# (2 TG) best speedup relative to Nexus++ best",
        &["matrix", "improvement (measured)", "paper"],
    );
    for (i, (name, imp)) in improvements.iter().enumerate() {
        let paper = if i == 0 {
            FIG9_IMPROVEMENT_250
        } else {
            FIG9_IMPROVEMENT_LARGE
        };
        summary.row(vec![
            name.clone(),
            format!("{:+.0}%", imp * 100.0),
            format!("~{:+.0}%", paper * 100.0),
        ]);
    }
    summary.print();
    println!(
        "Paper headline: ~{FIG9_GAUSSIAN_3000_SPEEDUP:.0}x speedup for the 3000x3000 matrix on 64 cores (Nexus#, 2 TGs)."
    );
}
