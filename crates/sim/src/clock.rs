//! Clock-domain modelling.
//!
//! The hardware task managers run at a frequency determined by their synthesis
//! configuration (Table I of the paper: 100 MHz for Nexus++ and the 1/2-TG Nexus#
//! configurations, down to 41.66 MHz for 8 task graphs), while worker-core task
//! durations come from wall-clock traces. [`ClockDomain`] converts between cycle
//! counts of a block and simulated time.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A clock domain: a frequency plus helpers to convert cycles to durations and
/// to align timestamps to cycle boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockDomain {
    /// Frequency in Hz.
    freq_hz: f64,
    /// Clock period in picoseconds (rounded to the nearest picosecond).
    period_ps: u64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in MHz.
    ///
    /// # Panics
    /// Panics if the frequency is not strictly positive.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive, got {mhz} MHz");
        let freq_hz = mhz * 1.0e6;
        let period_ps = (1.0e12 / freq_hz).round() as u64;
        ClockDomain { freq_hz, period_ps }
    }

    /// The paper's reference configuration: a 100 MHz management clock.
    pub fn mhz_100() -> Self {
        Self::from_mhz(100.0)
    }

    /// Frequency in Hz.
    #[inline]
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// Frequency in MHz.
    #[inline]
    pub fn freq_mhz(&self) -> f64 {
        self.freq_hz / 1.0e6
    }

    /// Clock period.
    #[inline]
    pub fn period(&self) -> SimDuration {
        SimDuration::from_ps(self.period_ps)
    }

    /// Duration of `cycles` clock cycles.
    #[inline]
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        SimDuration::from_ps(self.period_ps * cycles)
    }

    /// Number of whole cycles contained in `duration` (truncating).
    #[inline]
    pub fn cycles_in(&self, duration: SimDuration) -> u64 {
        duration.as_ps() / self.period_ps
    }

    /// Number of cycles needed to cover `duration` (rounding up).
    #[inline]
    pub fn cycles_to_cover(&self, duration: SimDuration) -> u64 {
        duration.as_ps().div_ceil(self.period_ps)
    }

    /// Rounds a timestamp up to the next cycle boundary of this clock
    /// (timestamps already on a boundary are returned unchanged).
    #[inline]
    pub fn align_up(&self, t: SimTime) -> SimTime {
        let ps = t.as_ps();
        let rem = ps % self.period_ps;
        if rem == 0 {
            t
        } else {
            SimTime::from_ps(ps + (self.period_ps - rem))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_of_100mhz_is_10ns() {
        let clk = ClockDomain::mhz_100();
        assert_eq!(clk.period(), SimDuration::from_ns(10));
        assert_eq!(clk.cycles(18), SimDuration::from_ns(180));
        assert_eq!(clk.freq_mhz(), 100.0);
    }

    #[test]
    fn period_of_55_56mhz_matches_paper_6tg_config() {
        let clk = ClockDomain::from_mhz(55.56);
        // 1 / 55.56 MHz = 17.998... ns
        let p = clk.period().as_ps();
        assert!((17_990..=18_010).contains(&p), "period {p} ps");
    }

    #[test]
    fn cycle_counting_round_trips() {
        let clk = ClockDomain::from_mhz(41.66);
        let d = clk.cycles(1000);
        assert_eq!(clk.cycles_in(d), 1000);
        assert_eq!(clk.cycles_to_cover(d), 1000);
        assert_eq!(clk.cycles_to_cover(d + SimDuration::from_ps(1)), 1001);
    }

    #[test]
    fn align_up_snaps_to_boundaries() {
        let clk = ClockDomain::mhz_100(); // 10 ns period
        let t = SimTime::from_ps(25_000);
        assert_eq!(clk.align_up(t), SimTime::from_ps(30_000));
        let aligned = SimTime::from_ps(40_000);
        assert_eq!(clk.align_up(aligned), aligned);
        assert_eq!(clk.align_up(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = ClockDomain::from_mhz(0.0);
    }
}
