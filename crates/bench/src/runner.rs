//! Shared sweep plumbing for the figure/table benches.

use crate::managers::ManagerKind;
use nexus_host::sweep::{speedup_curve, SpeedupCurve};
use nexus_trace::Benchmark;

/// Core counts for the hardware-manager curves (Figs. 7 and 8).
pub fn hw_core_counts() -> Vec<usize> {
    nexus_host::sweep::PAPER_CORE_COUNTS.to_vec()
}

/// Core counts for the Nanos curves (bounded by the real 32-core machine).
pub fn nanos_core_counts() -> Vec<usize> {
    nexus_host::sweep::NANOS_CORE_COUNTS.to_vec()
}

/// Core counts used in the Gaussian-elimination figure (Fig. 9 plots 1–64).
pub fn gaussian_core_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

/// Node counts for the cluster-scalability sweep.
pub fn cluster_node_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// Aborts the bench with a clear message when an environment knob is set to
/// something unparseable (listing the valid values is the parser's job).
fn env_knob_error(var: &str, message: &str) -> ! {
    eprintln!("error: {var}: {message}");
    std::process::exit(2);
}

/// The runtime-feedback mode used by the cluster benches:
/// `NEXUS_FEEDBACK=off` (default), `place`, `reclaim` or `full`,
/// case-insensitively. Typos abort with the list of valid values.
pub fn cluster_feedback() -> nexus_sched::FeedbackKind {
    let Ok(raw) = std::env::var("NEXUS_FEEDBACK") else {
        return nexus_sched::FeedbackKind::default();
    };
    raw.parse()
        .unwrap_or_else(|e: String| env_knob_error("NEXUS_FEEDBACK", &e))
}

/// The workload scale factor used by the benches: `NEXUS_BENCH_SCALE`
/// (default 0.1; `1` runs the full-size traces). Unparsable or non-finite
/// values abort loudly — a typo like `0,3` must not silently size the whole
/// workload to the default.
pub fn bench_scale() -> f64 {
    let Ok(raw) = std::env::var("NEXUS_BENCH_SCALE") else {
        return 0.1;
    };
    let v: f64 = raw.trim().parse().unwrap_or_else(|_| {
        env_knob_error(
            "NEXUS_BENCH_SCALE",
            &format!("unparsable scale {raw:?} (expected a number in 0.001..=1.0)"),
        )
    });
    if !v.is_finite() {
        env_knob_error(
            "NEXUS_BENCH_SCALE",
            &format!("non-finite scale {raw:?} (expected a number in 0.001..=1.0)"),
        );
    }
    v.clamp(0.001, 1.0)
}

/// Runs the speedup curve of `manager` on `bench` (generated at `scale`) over
/// the given core counts.
pub fn curve_for(
    bench: Benchmark,
    manager: ManagerKind,
    cores: &[usize],
    scale: f64,
    seed: u64,
) -> SpeedupCurve {
    let trace = bench.trace_scaled(seed, scale);
    let mut curve = speedup_curve(&trace, cores, |n| manager.build(&trace.name, n));
    // Use the harness label (shorter and unambiguous in tables).
    curve.manager = manager.label();
    curve
}

/// Runs one benchmark under a set of managers. Nanos is automatically limited
/// to the software core counts.
pub fn curves_for(
    bench: Benchmark,
    managers: &[ManagerKind],
    scale: f64,
    seed: u64,
) -> Vec<SpeedupCurve> {
    managers
        .iter()
        .map(|m| {
            let cores = if matches!(m, ManagerKind::Nanos) {
                nanos_core_counts()
            } else {
                hw_core_counts()
            };
            curve_for(bench, *m, &cores, scale, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_and_clamps() {
        // The environment is not modified in tests; just exercise the default
        // path (CI's test job never sets NEXUS_BENCH_SCALE).
        let s = bench_scale();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn env_knob_defaults() {
        // Unset knobs must fall back silently (CI's test job never sets them).
        assert_eq!(cluster_feedback(), nexus_sched::FeedbackKind::Off);
    }

    #[test]
    fn quick_curves_have_expected_shape() {
        // A tiny c-ray instance: every manager reaches a decent fraction of the
        // ideal speedup because tasks are 6 ms.
        let curves = curves_for(
            Benchmark::CRay,
            &[
                ManagerKind::Ideal,
                ManagerKind::NexusSharp { task_graphs: 2 },
            ],
            0.02,
            7,
        );
        assert_eq!(curves.len(), 2);
        let ideal = &curves[0];
        let sharp = &curves[1];
        assert!(ideal.max_speedup() >= sharp.max_speedup() * 0.99);
        assert!(sharp.max_speedup() > 0.5 * ideal.max_speedup());
    }

    #[test]
    fn core_count_lists() {
        assert_eq!(hw_core_counts().last(), Some(&256));
        assert_eq!(nanos_core_counts().last(), Some(&32));
        assert_eq!(gaussian_core_counts().last(), Some(&64));
    }
}
