//! Open-loop arrivals: a deterministic, seeded Poisson process layered over
//! a trace as an [`ArrivalOverlay`].
//!
//! Arrival times are built by accumulating nonnegative inter-arrival gaps, so
//! every overlay is nondecreasing by construction — per-node program order is
//! preserved through the cluster's FIFO input queues. The process is seeded
//! ([`SimRng`], xoshiro256**): the same `(mean_gap, seed, n)` always yields
//! the bit-identical overlay.

use nexus_sim::{SimDuration, SimRng, SimTime};
use nexus_trace::{ArrivalOverlay, Trace};
use std::fmt;

/// The shape of the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless arrivals: exponential inter-arrival gaps at the configured
    /// mean rate (the M/·/· baseline).
    Poisson,
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrivalKind::Poisson => "poisson",
        })
    }
}

/// A fully specified arrival process: kind, mean inter-arrival gap and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalConfig {
    /// The process shape.
    pub kind: ArrivalKind,
    /// Mean inter-arrival gap — the offered rate is `1 / mean_gap`.
    pub mean_gap: SimDuration,
    /// RNG seed; identical configs yield bit-identical overlays.
    pub seed: u64,
}

impl ArrivalConfig {
    /// An arrival process of `kind` at mean gap `mean_gap`.
    pub fn new(kind: ArrivalKind, mean_gap: SimDuration, seed: u64) -> Self {
        ArrivalConfig {
            kind,
            mean_gap,
            seed,
        }
    }

    /// Scales the offered load by `factor` (> 0): `factor = 2.0` doubles the
    /// arrival rate (halves the mean gap). Used by knee sweeps.
    pub fn with_load_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "load factor must be positive");
        self.mean_gap = SimDuration::from_ns_f64(self.mean_gap.as_ns() as f64 / factor);
        self
    }

    /// The offered load in arrivals per second of simulated time.
    pub fn offered_per_sec(&self) -> f64 {
        let secs = self.mean_gap.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / secs
        }
    }

    /// Generates the overlay for `n` submissions. Deterministic in the
    /// config and `n`.
    pub fn overlay(&self, n: usize) -> ArrivalOverlay {
        let mut rng = SimRng::new(self.seed ^ 0xF10A_A212);
        let g_ns = (self.mean_gap.as_ns() as f64).max(1e-3);
        let mut t = SimTime::ZERO;
        let mut times = Vec::with_capacity(n);
        for _ in 0..n {
            t += exp_gap(&mut rng, g_ns);
            times.push(t);
        }
        ArrivalOverlay::new(times).expect("accumulated gaps are nondecreasing")
    }

    /// The overlay sized for `trace` (see [`ArrivalConfig::overlay`]).
    pub fn overlay_for(&self, trace: &Trace) -> ArrivalOverlay {
        self.overlay(trace.task_count())
    }
}

/// One exponential inter-arrival gap with mean `mean_ns`.
fn exp_gap(rng: &mut SimRng, mean_ns: f64) -> SimDuration {
    let u = rng.next_f64();
    SimDuration::from_ns_f64(-(1.0 - u).ln() * mean_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    #[test]
    fn overlays_are_deterministic_and_nondecreasing() {
        let cfg = ArrivalConfig::new(ArrivalKind::Poisson, us(50), 99);
        let a = cfg.overlay(500);
        let b = cfg.overlay(500);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        // A different seed moves the times.
        let c = ArrivalConfig::new(ArrivalKind::Poisson, us(50), 100).overlay(500);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_rate_is_respected() {
        // Long-run mean gap within 10% of the configured mean.
        let n = 20_000;
        let cfg = ArrivalConfig::new(ArrivalKind::Poisson, us(50), 7);
        let overlay = cfg.overlay(n);
        let mean_ns = overlay.span().as_ps() as f64 / 1e3 / n as f64;
        let want = us(50).as_ns() as f64;
        assert!(
            (mean_ns - want).abs() < 0.1 * want,
            "mean gap {mean_ns} ns vs {want} ns"
        );
    }

    #[test]
    fn load_factor_scales_the_rate() {
        let base = ArrivalConfig::new(ArrivalKind::Poisson, us(100), 1);
        let double = base.with_load_factor(2.0);
        assert_eq!(double.mean_gap, us(50));
        assert!((base.offered_per_sec() - 10_000.0).abs() < 1.0);
        assert!((double.offered_per_sec() - 20_000.0).abs() < 2.0);
    }
}
