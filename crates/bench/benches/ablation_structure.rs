//! **Ablation** — which structural differences between Nexus++ and Nexus#
//! actually matter?
//!
//! Three structural deltas separate the baseline from the distributed design
//! (the `nexus-pp` crate doc describes the first two): (1) `taskwait on`
//! support (missing support escalates to a full `taskwait`), (2) the
//! task-pool recycling discipline (circular buffer vs. free list), and (3)
//! the distributed insertion path. This bench isolates
//! (2) and (3) by running Nexus++ variants and small Nexus# configurations on
//! the two workloads that stress them (streamcluster for pool recycling,
//! h264dec-1x1 for the taskwait-on escalation and front-end throughput).
//!
//! Run with: `cargo bench -p nexus-bench --bench ablation_structure`

use nexus_bench::report::Table;
use nexus_bench::runner::{bench_scale, hw_core_counts};
use nexus_core::{NexusSharp, NexusSharpConfig};
use nexus_host::manager::TaskManager;
use nexus_host::sweep::speedup_curve;
use nexus_pp::{NexusPP, NexusPPConfig};
use nexus_taskgraph::taskpool::RetirementOrder;
use nexus_trace::Benchmark;

enum Variant {
    PP(NexusPPConfig),
    Sharp(NexusSharpConfig),
}

fn main() {
    let scale = bench_scale();
    println!("workload scale: {scale}\n");
    let cores = hw_core_counts();

    let mut variants: Vec<(String, Variant)> = Vec::new();
    variants.push((
        "Nexus++ (in-order pool, no taskwait-on)".into(),
        Variant::PP(NexusPPConfig::paper()),
    ));
    let mut freelist = NexusPPConfig::paper();
    freelist.retirement = RetirementOrder::FreeList;
    variants.push(("Nexus++ + free-list pool".into(), Variant::PP(freelist)));
    let mut big_pool = NexusPPConfig::paper();
    big_pool.task_pool_capacity = 1024;
    variants.push(("Nexus++ + 1024-entry pool".into(), Variant::PP(big_pool)));
    variants.push((
        "Nexus# 1 TG (adds taskwait-on + streaming front-end)".into(),
        Variant::Sharp(NexusSharpConfig::at_mhz(1, 100.0)),
    ));
    variants.push((
        "Nexus# 6 TGs @ 55.56 MHz (full design)".into(),
        Variant::Sharp(NexusSharpConfig::paper(6)),
    ));

    for bench in [
        Benchmark::Streamcluster,
        Benchmark::H264Dec(nexus_trace::generators::MbGrouping::G1x1),
    ] {
        let trace = bench.trace_scaled(42, scale);
        let mut table = Table::new(
            format!("Ablation: structural variants on {}", trace.name),
            &["variant", "max speedup", "speedup @ 32c", "speedup @ 256c"],
        );
        for (name, variant) in &variants {
            let curve = match variant {
                Variant::PP(cfg) => speedup_curve(&trace, &cores, |_| Box::new(NexusPP::new(*cfg))),
                Variant::Sharp(cfg) => {
                    speedup_curve(&trace, &cores, |_| Box::new(NexusSharp::new(*cfg)))
                }
            };
            table.row(vec![
                name.clone(),
                format!("{:.1}x", curve.max_speedup()),
                format!("{:.1}x", curve.at(32).unwrap_or(f64::NAN)),
                format!("{:.1}x", curve.at(256).unwrap_or(f64::NAN)),
            ]);
        }
        table.print();
        // Sanity: the full design must not lose to the baseline.
        eprintln!("  finished {}", trace.name);
    }

    // Print which variant supports taskwait-on (explains the h264dec gap).
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
