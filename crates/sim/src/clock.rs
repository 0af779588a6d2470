//! Clock-domain modelling.
//!
//! The hardware task managers run at a frequency determined by their synthesis
//! configuration (Table I of the paper: 100 MHz for Nexus++ and the 1/2-TG Nexus#
//! configurations, down to 41.66 MHz for 8 task graphs), while worker-core task
//! durations come from wall-clock traces. [`ClockDomain`] converts between cycle
//! counts of a block and simulated time.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// A clock domain: a frequency plus a helper to convert cycles to durations.
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

    /// Frequency in Hz.
    #[inline]
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_of_100mhz_is_10ns() {
        let clk = ClockDomain::from_mhz(100.0);
        assert_eq!(clk.period(), SimDuration::from_ns(10));
        assert_eq!(clk.cycles(18), SimDuration::from_ns(180));
    }

    #[test]
    fn period_of_55_56mhz_matches_paper_6tg_config() {
        let clk = ClockDomain::from_mhz(55.56);
        // 1 / 55.56 MHz = 17.998... ns
        let p = clk.period().as_ps();
        assert!((17_990..=18_010).contains(&p), "period {p} ps");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = ClockDomain::from_mhz(0.0);
    }
}
