//! Integration: the qualitative claims of the paper's evaluation hold in the
//! reproduction (orderings and crossovers, not absolute numbers). The full
//! quantitative comparison is `EXPERIMENTS.md`, the output of
//! `NEXUS_BENCH_SCALE=1 cargo run --release -p nexus-bench --bin paper_report`;
//! `tests/golden.rs` pins the manager models' makespans exactly.
//!
//! Wall-clock audit (debug build, 2026-07): the slowest test here is
//! `gaussian_elimination_improvement_shrinks_with_matrix_size` at ~2.8 s; every
//! other test finishes in under a second. Nothing approaches the ~30 s budget
//! that would warrant `#[ignore]`, so the whole suite runs in tier-1. If a
//! future test needs a full-size paper workload (e.g. `Gaussian { dim: 3000 }`
//! from Table III), mark it `#[ignore = "reproduces Table III at full size"]`
//! and keep a scaled-down variant in the default run.

use nexus::prelude::*;
use nexus::resources::DeviceCapacity;
use nexus::trace::generators::MbGrouping;

/// §VI / Fig. 8, h264dec-1x1: "Nanos performs pretty bad and cannot achieve any
/// speedup. Nexus# on the other hand achieved up to 6.9x … Nexus++ does not
/// support the task-wait-on OmpSs pragma and achieved only 2.2x".
#[test]
fn h264dec_fine_grain_ordering_nexus_sharp_beats_nexus_pp_beats_nanos() {
    let trace = Benchmark::H264Dec(MbGrouping::G1x1).trace_scaled(11, 0.1);
    let cfg = HostConfig::with_workers(32);
    let sharp = simulate(&trace, &mut NexusSharp::paper(6), &cfg).speedup();
    let pp = simulate(&trace, &mut NexusPP::paper(), &cfg).speedup();
    let nanos = simulate(
        &trace,
        &mut NanosRuntime::for_benchmark(&trace.name, 32),
        &cfg,
    )
    .speedup();

    assert!(sharp > 2.0 * pp, "Nexus# {sharp:.1} vs Nexus++ {pp:.1}");
    assert!(pp > nanos, "Nexus++ {pp:.1} vs Nanos {nanos:.1}");
    assert!(
        nanos < 1.5,
        "Nanos should not scale at macroblock granularity: {nanos:.1}"
    );
    assert!(
        sharp > 5.0,
        "Nexus# should reach several-fold speedup: {sharp:.1}"
    );
}

/// §VI: "the larger the task size is, the easier it becomes" — Nanos recovers
/// as macroblocks are grouped, and the hardware managers' advantage shrinks.
#[test]
fn grouping_macroblocks_helps_the_software_runtime() {
    let cfg = HostConfig::with_workers(16);
    let fine = Benchmark::H264Dec(MbGrouping::G1x1).trace_scaled(11, 0.1);
    let coarse = Benchmark::H264Dec(MbGrouping::G8x8).trace_scaled(11, 0.5);
    let nanos_fine = simulate(
        &fine,
        &mut NanosRuntime::for_benchmark(&fine.name, 16),
        &cfg,
    )
    .speedup();
    let nanos_coarse = simulate(
        &coarse,
        &mut NanosRuntime::for_benchmark(&coarse.name, 16),
        &cfg,
    )
    .speedup();
    assert!(
        nanos_coarse > 1.5 * nanos_fine,
        "coarse {nanos_coarse:.1} vs fine {nanos_fine:.1}"
    );
}

/// §VI / Fig. 8 streamcluster: the hardware managers beat Nanos decisively, and
/// the distributed design beats the centralized one.
#[test]
fn streamcluster_separates_the_three_managers() {
    let trace = Benchmark::Streamcluster.trace_scaled(13, 0.01);
    // Nanos is measured at its 32-core maximum; the hardware managers separate
    // most clearly at high core counts (the right-hand side of the Fig. 8
    // curves), where the centralized design's in-order task window caps it.
    let nanos = simulate(
        &trace,
        &mut NanosRuntime::for_benchmark(&trace.name, 32),
        &HostConfig::with_workers(32),
    )
    .speedup();
    let cfg = HostConfig::with_workers(128);
    let sharp = simulate(&trace, &mut NexusSharp::paper(6), &cfg).speedup();
    let pp = simulate(&trace, &mut NexusPP::paper(), &cfg).speedup();
    assert!(nanos < 8.0, "Nanos collapses on streamcluster: {nanos:.1}");
    assert!(pp > nanos, "{pp:.1} vs {nanos:.1}");
    assert!(sharp > 1.3 * pp, "Nexus# {sharp:.1} vs Nexus++ {pp:.1}");
}

/// §VI c-ray: "an easy case for all the task managers" — every manager is close
/// to the ideal curve at 32 cores.
#[test]
fn cray_is_easy_for_every_manager() {
    let trace = Benchmark::CRay.trace_scaled(17, 0.1);
    let cfg = HostConfig::with_workers(32);
    let ideal = simulate(&trace, &mut IdealManager::new(), &cfg).speedup();
    for (name, speedup) in [
        (
            "Nexus#",
            simulate(&trace, &mut NexusSharp::paper(6), &cfg).speedup(),
        ),
        (
            "Nexus++",
            simulate(&trace, &mut NexusPP::paper(), &cfg).speedup(),
        ),
        (
            "Nanos",
            simulate(
                &trace,
                &mut NanosRuntime::for_benchmark(&trace.name, 32),
                &cfg,
            )
            .speedup(),
        ),
    ] {
        assert!(
            speedup > 0.85 * ideal,
            "{name}: {speedup:.1} vs ideal {ideal:.1}"
        );
    }
}

/// §VI Fig. 9: Nexus# (2 TGs) improves on Nexus++ for the Gaussian-elimination
/// pattern, and the improvement is largest for the finest tasks (smallest
/// matrix); both handle unbounded kick-off lists.
#[test]
fn gaussian_elimination_improvement_shrinks_with_matrix_size() {
    let cores = 32;
    let mut improvements = Vec::new();
    for dim in [120u32, 360] {
        let trace = nexus::trace::generators::gaussian::generate(dim);
        let cfg = HostConfig::with_workers(cores);
        let baseline =
            simulate(&trace, &mut NexusPP::paper(), &HostConfig::with_workers(1)).makespan;
        let pp = simulate(&trace, &mut NexusPP::paper(), &cfg).makespan;
        let sharp = simulate(&trace, &mut NexusSharp::at_mhz(2, 100.0), &cfg).makespan;
        let pp_speedup = baseline.as_us_f64() / pp.as_us_f64();
        let sharp_speedup = baseline.as_us_f64() / sharp.as_us_f64();
        assert!(sharp_speedup > pp_speedup, "dim {dim}");
        improvements.push(sharp_speedup / pp_speedup);
    }
    assert!(
        improvements[0] >= improvements[1] * 0.95,
        "improvement should not grow with matrix size: {improvements:?}"
    );
}

/// Fig. 7: for the finest h264dec granularity, adding task graphs helps up to
/// the middle of the range; the 6-TG configuration (at its lower frequency) is
/// at least as good as the 1-TG configuration at 100 MHz.
#[test]
fn more_task_graphs_help_fine_grained_decoding() {
    let trace = Benchmark::H264Dec(MbGrouping::G1x1).trace_scaled(23, 0.1);
    let cfg = HostConfig::with_workers(32);
    let one_tg_100 = simulate(&trace, &mut NexusSharp::at_mhz(1, 100.0), &cfg).speedup();
    let six_tg_100 = simulate(&trace, &mut NexusSharp::at_mhz(6, 100.0), &cfg).speedup();
    let six_tg_test = simulate(&trace, &mut NexusSharp::paper(6), &cfg).speedup();
    assert!(
        six_tg_100 >= one_tg_100 * 0.99,
        "{six_tg_100:.2} vs {one_tg_100:.2}"
    );
    // "their performance results were slightly smaller than their higher speed
    // siblings": the frequency drop must not cost more than ~35%.
    assert!(
        six_tg_test > 0.65 * six_tg_100,
        "{six_tg_test:.2} vs {six_tg_100:.2}"
    );
}

/// Table I: every synthesized configuration fits the ZC706 and the frequency
/// falls as task graphs are added.
#[test]
fn resource_model_matches_the_synthesis_story() {
    let model = ResourceModel::paper_calibrated();
    let dev = DeviceCapacity::ZC706;
    let mut last_freq = f64::INFINITY;
    for tgs in [1u32, 2, 4, 6, 8] {
        let est = model.estimate(ManagerConfig::NexusSharp { task_graphs: tgs });
        assert!(est.fits(dev), "{tgs} TGs must fit the ZC706");
        assert!(est.test_freq_mhz <= last_freq);
        last_freq = est.test_freq_mhz;
    }
    // The 6-TG configuration used in Fig. 8 runs at 55.56 MHz.
    assert!((model.test_freq_mhz(6) - 55.56).abs() < 0.05);
}

/// §IV-E: the Nexus# pipeline handles the 5-task micro-benchmark in far fewer
/// cycles than the 172 reported for the task-superscalar prototype, and the
/// average-case insertion span beats the Nexus++ insert stage (11 vs 18 cycles).
#[test]
fn pipeline_cycle_claims() {
    use nexus::sharp::pipeline::{insertion_span_cycles, micro_benchmark_cycles, PipelineCase};
    assert_eq!(insertion_span_cycles(4, 4, PipelineCase::Average), 11);
    assert_eq!(insertion_span_cycles(4, 4, PipelineCase::BestCase), 5);
    assert!(micro_benchmark_cycles() < 172);
    assert_eq!(nexus::pp::config::insert_cycles(4), 18);
}
