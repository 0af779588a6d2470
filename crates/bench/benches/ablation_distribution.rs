//! **Ablation** — how much does the distribution function matter?
//!
//! §IV-B argues the distribution algorithm needs *speed* and *fairness* and
//! proposes the XOR hash. This ablation runs the fine-grained h264dec workload
//! and the Gaussian-elimination worst case under Nexus# (6 task graphs) with
//! the XOR hash, plain modulo, first-seen round-robin and the degenerate
//! single-graph policy, and reports the resulting speedups and load imbalance.
//!
//! Run with: `cargo bench -p nexus-bench --bench ablation_distribution`

use nexus_bench::report::Table;
use nexus_bench::runner::{bench_scale, hw_core_counts};
use nexus_core::distribution::DistributionPolicy;
use nexus_core::{NexusSharp, NexusSharpConfig};
use nexus_host::sweep::speedup_curve;
use nexus_trace::Benchmark;

fn main() {
    let scale = bench_scale();
    println!("workload scale: {scale}\n");
    let policies = [
        ("XOR hash (paper)", DistributionPolicy::XorHash),
        ("modulo", DistributionPolicy::Modulo),
        ("round-robin", DistributionPolicy::RoundRobin),
        ("single graph", DistributionPolicy::SingleGraph),
    ];
    let benches = [
        Benchmark::H264Dec(nexus_trace::generators::MbGrouping::G1x1),
        Benchmark::Streamcluster,
        Benchmark::Gaussian { dim: 500 },
    ];
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

    for bench in benches {
        let trace = bench.trace_scaled(42, scale);
        for (name, policy) in policies {
            let curve = speedup_curve(&trace, &cores, |_| {
                let mut cfg = NexusSharpConfig::paper(6);
                cfg.distribution = policy;
                Box::new(NexusSharp::new(cfg))
            });
            // Re-run once at 32 cores to extract the imbalance statistic.
            let mut cfg = NexusSharpConfig::paper(6);
            cfg.distribution = policy;
            let mut mgr = NexusSharp::new(cfg);
            nexus_host::simulate(&trace, &mut mgr, &nexus_host::HostConfig::with_workers(32));
            let imbalance = mgr.distribution_balance().imbalance();
            table.row(vec![
                trace.name.clone(),
                name.to_string(),
                format!("{:.1}x", curve.max_speedup()),
                format!("{:.1}x", curve.at(32).unwrap_or(f64::NAN)),
                format!("{imbalance:.2}"),
            ]);
        }
        eprintln!("  finished {}", bench.name());
    }
    table.print();
}
