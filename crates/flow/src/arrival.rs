//! Open-loop arrival processes: deterministic, seeded inter-arrival
//! generators layered over a trace as an [`ArrivalOverlay`].
//!
//! Arrival times are built by accumulating nonnegative inter-arrival gaps, so
//! every overlay is nondecreasing by construction — per-node program order is
//! preserved through the cluster's FIFO input queues. All processes are
//! seeded ([`SimRng`], xoshiro256**): the same `(kind, mean_gap, seed, n)`
//! always yields the bit-identical overlay.

use nexus_sim::{SimDuration, SimRng, SimTime};
use nexus_trace::{ArrivalOverlay, Trace};
use std::fmt;
use std::str::FromStr;

/// The shape of the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless arrivals: exponential inter-arrival gaps at the configured
    /// mean rate (the M/·/· baseline).
    Poisson,
    /// On/off traffic: bursts of back-to-back arrivals separated by long idle
    /// gaps, same long-run mean rate as [`ArrivalKind::Poisson`].
    Bursty,
    /// A slow sinusoidal rate modulation on top of Poisson arrivals (the
    /// day/night cycle of a service, compressed to simulation scale).
    Diurnal,
    /// No arrival process: the master self-clocks exactly as in the
    /// closed-loop driver ([`overlay`](ArrivalConfig::overlay) is empty and
    /// the streaming source degenerates to
    /// [`StreamingSource::closed_loop`](nexus_cluster::StreamingSource::closed_loop)).
    ClosedLoop,
}

impl ArrivalKind {
    /// Every kind, for sweeps and tests.
    pub const ALL: [ArrivalKind; 4] = [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty,
        ArrivalKind::Diurnal,
        ArrivalKind::ClosedLoop,
    ];

    /// The accepted (lower-case canonical) spellings, for error messages.
    pub const VALID: &'static str = "poisson|bursty|diurnal|closed";

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Diurnal => "diurnal",
            ArrivalKind::ClosedLoop => "closed",
        }
    }
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ArrivalKind {
    type Err = String;

    /// Case-insensitive; accepts a few aliases (`"closed-loop"`, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "poisson" => Ok(ArrivalKind::Poisson),
            "bursty" | "burst" => Ok(ArrivalKind::Bursty),
            "diurnal" => Ok(ArrivalKind::Diurnal),
            "closed" | "closedloop" | "closed-loop" => Ok(ArrivalKind::ClosedLoop),
            other => Err(format!(
                "unknown arrival kind {other:?} (expected {})",
                Self::VALID
            )),
        }
    }
}

/// A fully specified arrival process: kind, mean inter-arrival gap, seed and
/// the kind-specific shape knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalConfig {
    /// The process shape.
    pub kind: ArrivalKind,
    /// Mean inter-arrival gap — the offered rate is `1 / mean_gap`.
    pub mean_gap: SimDuration,
    /// RNG seed; identical configs yield bit-identical overlays.
    pub seed: u64,
    /// Arrivals per burst ([`ArrivalKind::Bursty`] only).
    pub burst_len: usize,
    /// Modulation period ([`ArrivalKind::Diurnal`] only).
    pub period: SimDuration,
    /// Modulation amplitude in per-mille of the base rate, clamped to 950
    /// ([`ArrivalKind::Diurnal`] only).
    pub amplitude_permille: u32,
}

impl ArrivalConfig {
    /// An arrival process of `kind` at mean gap `mean_gap`, with default
    /// shape knobs (burst length 8, period `1000 × mean_gap`, amplitude 0.8).
    pub fn new(kind: ArrivalKind, mean_gap: SimDuration, seed: u64) -> Self {
        ArrivalConfig {
            kind,
            mean_gap,
            seed,
            burst_len: 8,
            period: mean_gap * 1000,
            amplitude_permille: 800,
        }
    }

    /// Sets the burst length (≥ 1; [`ArrivalKind::Bursty`]).
    pub fn with_burst_len(mut self, burst_len: usize) -> Self {
        self.burst_len = burst_len.max(1);
        self
    }

    /// Scales the offered load by `factor` (> 0): `factor = 2.0` doubles the
    /// arrival rate (halves the mean gap). Used by knee sweeps.
    pub fn with_load_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "load factor must be positive");
        self.mean_gap = SimDuration::from_ns_f64(self.mean_gap.as_ns() as f64 / factor);
        self
    }

    /// The offered load in arrivals per second of simulated time
    /// (`0` for [`ArrivalKind::ClosedLoop`]).
    pub fn offered_per_sec(&self) -> f64 {
        if self.kind == ArrivalKind::ClosedLoop {
            return 0.0;
        }
        let secs = self.mean_gap.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / secs
        }
    }

    /// Generates the overlay for `n` submissions (empty for
    /// [`ArrivalKind::ClosedLoop`]). Deterministic in the config and `n`.
    pub fn overlay(&self, n: usize) -> ArrivalOverlay {
        let mut rng = SimRng::new(self.seed ^ 0xF10A_A212);
        let g_ns = (self.mean_gap.as_ns() as f64).max(1e-3);
        let mut t = SimTime::ZERO;
        let mut times = Vec::with_capacity(n);
        match self.kind {
            ArrivalKind::ClosedLoop => {}
            ArrivalKind::Poisson => {
                for _ in 0..n {
                    t += exp_gap(&mut rng, g_ns);
                    times.push(t);
                }
            }
            ArrivalKind::Bursty => {
                // Bursts of `burst_len` back-to-back arrivals at g/8 spacing,
                // separated by exponential idle gaps sized so the long-run
                // mean gap stays `mean_gap`.
                let b = self.burst_len.max(1);
                let intra_ns = g_ns / 8.0;
                let idle_ns = (b as f64 * g_ns - (b as f64 - 1.0) * intra_ns).max(intra_ns);
                let mut in_burst = 0usize;
                for _ in 0..n {
                    if in_burst == 0 {
                        t += exp_gap(&mut rng, idle_ns);
                        in_burst = b;
                    } else {
                        t += SimDuration::from_ns_f64(intra_ns);
                    }
                    in_burst -= 1;
                    times.push(t);
                }
            }
            ArrivalKind::Diurnal => {
                let amp = self.amplitude_permille.min(950) as f64 / 1000.0;
                let period_ns = (self.period.as_ns() as f64).max(1.0);
                for _ in 0..n {
                    let phase = (t.as_ps() as f64 / 1e3) / period_ns;
                    let rate = 1.0 + amp * (phase * std::f64::consts::TAU).sin();
                    t += exp_gap(&mut rng, g_ns / rate);
                    times.push(t);
                }
            }
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
    fn kinds_parse_case_insensitively_and_reject_garbage() {
        assert_eq!("Poisson".parse::<ArrivalKind>(), Ok(ArrivalKind::Poisson));
        assert_eq!(" BURSTY ".parse::<ArrivalKind>(), Ok(ArrivalKind::Bursty));
        assert_eq!("diurnal".parse::<ArrivalKind>(), Ok(ArrivalKind::Diurnal));
        assert_eq!(
            "Closed-Loop".parse::<ArrivalKind>(),
            Ok(ArrivalKind::ClosedLoop)
        );
        let err = "open".parse::<ArrivalKind>().unwrap_err();
        assert!(err.contains(ArrivalKind::VALID), "{err}");
        for kind in ArrivalKind::ALL {
            assert_eq!(kind.name().parse::<ArrivalKind>(), Ok(kind));
        }
    }

    #[test]
    fn overlays_are_deterministic_and_nondecreasing() {
        for kind in ArrivalKind::ALL {
            let cfg = ArrivalConfig::new(kind, us(50), 99);
            let a = cfg.overlay(500);
            let b = cfg.overlay(500);
            assert_eq!(a, b, "{kind}");
            if kind == ArrivalKind::ClosedLoop {
                assert!(a.is_empty());
            } else {
                assert_eq!(a.len(), 500);
            }
            // A different seed moves the times (except closed-loop).
            let c = ArrivalConfig::new(kind, us(50), 100).overlay(500);
            if kind != ArrivalKind::ClosedLoop {
                assert_ne!(a, c, "{kind}");
            }
        }
    }

    #[test]
    fn mean_rate_is_respected() {
        // Long-run mean gap within 10% of the configured mean for every
        // open-loop kind (bursty redistributes, diurnal modulates — both
        // preserve the long-run rate).
        for kind in [
            ArrivalKind::Poisson,
            ArrivalKind::Bursty,
            ArrivalKind::Diurnal,
        ] {
            let n = 20_000;
            let cfg = ArrivalConfig::new(kind, us(50), 7);
            let overlay = cfg.overlay(n);
            let mean_ns = overlay.span().as_ps() as f64 / 1e3 / n as f64;
            let want = us(50).as_ns() as f64;
            assert!(
                (mean_ns - want).abs() < 0.1 * want,
                "{kind}: mean gap {mean_ns} ns vs {want} ns"
            );
        }
    }

    #[test]
    fn bursty_clusters_arrivals() {
        let cfg = ArrivalConfig::new(ArrivalKind::Bursty, us(100), 3).with_burst_len(8);
        let overlay = cfg.overlay(800);
        // Count gaps far below the mean: a bursty process has ~7/8 of them.
        let tight = overlay
            .times()
            .windows(2)
            .filter(|w| w[1].since(w[0]) < us(20))
            .count();
        assert!(tight > 600, "only {tight}/799 tight gaps");
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
