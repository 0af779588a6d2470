//! The paper's headline experiment in miniature: how many task graphs does
//! Nexus# need to keep up with macroblock-granularity H.264 decoding, and what
//! does the lack of `taskwait on` support cost Nexus++?
//!
//! Generates the h264dec workload at several granularities, at 0.2 of the
//! full 10-frame trace, and prints a Fig.-7/Fig.-8-style comparison. The
//! full-size Fig. 7 is in `EXPERIMENTS.md` (the `paper_report` binary of
//! `nexus-bench` regenerates it).
//!
//! Run with: `cargo run --release --example h264_scalability`

use nexus::prelude::*;
use nexus::trace::generators::MbGrouping;

fn main() {
    for grouping in MbGrouping::all() {
        let bench = Benchmark::H264Dec(grouping);
        let trace = bench.trace_scaled(42, 0.2);
        let stats = TraceStats::of(&trace);
        println!(
            "\n=== {} — {} tasks, avg {:.1} us/task ===",
            trace.name, stats.tasks, stats.avg_task_us
        );
        println!(
            "{:<28} {:>6} {:>6} {:>6} {:>6}",
            "manager", "8c", "16c", "32c", "64c"
        );

        let mut rows: Vec<(String, Vec<f64>)> = Vec::new();

        // Ideal upper bound.
        let mut ideal_row = Vec::new();
        for workers in [8usize, 16, 32, 64] {
            let out = simulate(
                &trace,
                &mut IdealManager::new(),
                &HostConfig::with_workers(workers),
            );
            ideal_row.push(out.speedup());
        }
        rows.push(("No Overhead (ideal)".into(), ideal_row));

        // Nexus# with 1/2/4/6 task graphs at their synthesis test frequency.
        for tgs in [1usize, 2, 4, 6] {
            let mut row = Vec::new();
            for workers in [8usize, 16, 32, 64] {
                let mut mgr = NexusSharp::paper(tgs);
                let out = simulate(&trace, &mut mgr, &HostConfig::with_workers(workers));
                row.push(out.speedup());
            }
            rows.push((format!("Nexus# {tgs} TG(s)"), row));
        }

        // Nexus++ — no taskwait-on support, so every per-row wait becomes a
        // full barrier.
        let mut pp_row = Vec::new();
        for workers in [8usize, 16, 32, 64] {
            let mut mgr = NexusPP::paper();
            let out = simulate(&trace, &mut mgr, &HostConfig::with_workers(workers));
            pp_row.push(out.speedup());
        }
        rows.push(("Nexus++ (taskwait-on escalated)".into(), pp_row));

        for (name, row) in rows {
            print!("{name:<28}");
            for v in row {
                print!(" {v:>5.1}x");
            }
            println!();
        }
    }
}
