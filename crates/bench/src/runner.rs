//! Sweep plumbing for the paper report.

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

/// The workload scale factor: `NEXUS_BENCH_SCALE` (default 0.1; `1` runs
/// the full-size traces). A value that does not parse, is not finite or lies
/// outside 0.001..=1.0 aborts with exit 2: a typo like `0,3` or `10` must not
/// silently size the whole workload to something else.
pub fn bench_scale() -> f64 {
    let Ok(raw) = std::env::var("NEXUS_BENCH_SCALE") else {
        return 0.1;
    };
    match raw.trim().parse::<f64>() {
        Ok(v) if (0.001..=1.0).contains(&v) => v,
        _ => {
            eprintln!(
                "error: NEXUS_BENCH_SCALE: bad scale {raw:?} (expected a number in 0.001..=1.0)"
            );
            std::process::exit(2);
        }
    }
}

/// Speedup curves of the paper's benchmarks at one scale, each simulated
/// once per (benchmark, exact manager configuration): Fig. 8, Table IV,
/// Fig. 7 and the ablations read the same curves.
pub struct Curves {
    scale: f64,
    seed: u64,
    runs: Vec<(Benchmark, ManagerKind, SpeedupCurve)>,
}

impl Curves {
    /// An empty set of curves over traces generated at `scale` from `seed`.
    pub fn new(scale: f64, seed: u64) -> Self {
        Curves {
            scale,
            seed,
            runs: Vec::new(),
        }
    }

    /// The curve of `manager` on `bench`, simulated on first use over the
    /// hardware core counts (Nanos: the software runtime's).
    pub fn get(&mut self, bench: Benchmark, manager: ManagerKind) -> &SpeedupCurve {
        let known = self
            .runs
            .iter()
            .position(|(b, m, _)| *b == bench && *m == manager);
        let i = known.unwrap_or_else(|| {
            let cores = if manager == ManagerKind::Nanos {
                nanos_core_counts()
            } else {
                hw_core_counts()
            };
            let trace = bench.trace_scaled(self.seed, self.scale);
            let curve = speedup_curve(&trace, &cores, |n| manager.build(&trace.name, n));
            self.runs.push((bench, manager, curve));
            self.runs.len() - 1
        });
        &self.runs[i].2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_in_range() {
        // The environment is not modified in tests (CI's test job never sets
        // NEXUS_BENCH_SCALE); tests/env_knobs.rs probes the aborts.
        assert!((0.001..=1.0).contains(&bench_scale()));
    }

    #[test]
    fn quick_curves_have_expected_shape() {
        // A tiny c-ray instance: every manager reaches a decent fraction of the
        // ideal speedup because tasks are 6 ms.
        let mut curves = Curves::new(0.02, 7);
        let ideal = curves
            .get(Benchmark::CRay, ManagerKind::Ideal)
            .max_speedup();
        let sharp = curves
            .get(Benchmark::CRay, ManagerKind::nexus_sharp(2))
            .max_speedup();
        assert!(ideal >= sharp * 0.99);
        assert!(sharp > 0.5 * ideal);
        // The same configuration, spelled out, reuses the curve.
        let at_100 = ManagerKind::NexusSharp {
            task_graphs: 2,
            mhz: 100.0,
        };
        assert_eq!(curves.get(Benchmark::CRay, at_100).max_speedup(), sharp);
        assert_eq!(curves.runs.len(), 2);
        let nanos = curves.get(Benchmark::CRay, ManagerKind::Nanos);
        assert_eq!(nanos.points.last().map(|p| p.cores), Some(32));
    }

    #[test]
    fn core_count_lists() {
        assert_eq!(hw_core_counts().last(), Some(&256));
        assert_eq!(nanos_core_counts().last(), Some(&32));
        assert_eq!(gaussian_core_counts().last(), Some(&64));
    }
}
