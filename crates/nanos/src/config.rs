//! Nanos cost-model configuration: the worker count and the per-benchmark
//! overhead scale, with the cost terms as constants.
//!
//! Every cost is in microseconds. The constants are in the range reported for
//! dependency-aware task runtimes of the period (Vandierendonck et al. quote
//! 400 cycles ≈ 0.2 µs per task as the *best* case for a heavily optimized
//! tracker; Nanos with the Mercurium-generated glue is one to two orders of
//! magnitude heavier). The paper gives no per-operation costs for Nanos; what
//! the model takes from it is their structure: what runs on the master, what
//! on the worker, and what serializes on the runtime lock.
//! [`crate::calibration`] scales every term per benchmark through
//! [`NanosConfig::overhead_scale`].

use serde::{Deserialize, Serialize};

/// Master-side task-creation cost (allocation, closure capture, bookkeeping).
pub const CREATE_US: f64 = 3.0;
/// Master-side cost per dependency (address) inserted.
pub const CREATE_PER_DEP_US: f64 = 0.7;
/// Worker-side scheduling cost per dispatched task (ready-queue pop, thread
/// wake-up).
pub const DISPATCH_US: f64 = 1.2;
/// Worker-side completion cost per finished task (dependency release walk).
pub const RELEASE_US: f64 = 1.8;
/// Worker-side cost per dependency released.
pub const RELEASE_PER_DEP_US: f64 = 0.5;
/// Runtime-lock critical-section base length per operation.
pub const LOCK_BASE_US: f64 = 0.6;
/// Runtime-lock extra hold time per active worker (cache-line transfer /
/// contention growth).
pub const LOCK_PER_WORKER_US: f64 = 0.055;

/// The settable parameters of the software runtime model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NanosConfig {
    /// Number of worker threads (used to model lock contention growth).
    pub workers: usize,
    /// Global multiplier applied to every overhead term (per-benchmark
    /// calibration; see [`crate::calibration`]).
    pub overhead_scale: f64,
}

impl NanosConfig {
    /// The model for a given worker count (no per-benchmark scaling).
    pub fn with_workers(workers: usize) -> Self {
        NanosConfig {
            workers,
            overhead_scale: 1.0,
        }
    }

    /// Applies a per-benchmark overhead scale factor.
    pub fn scaled(mut self, scale: f64) -> Self {
        self.overhead_scale = scale;
        self
    }

    /// The runtime-lock hold time per operation at this worker count.
    pub fn lock_hold_us(&self) -> f64 {
        (LOCK_BASE_US + LOCK_PER_WORKER_US * self.workers as f64) * self.overhead_scale
    }

    /// Master-side creation cost for a task with `deps` dependencies.
    pub fn creation_us(&self, deps: usize) -> f64 {
        (CREATE_US + CREATE_PER_DEP_US * deps as f64) * self.overhead_scale
    }

    /// Worker-side dispatch cost.
    pub fn dispatch_cost_us(&self) -> f64 {
        DISPATCH_US * self.overhead_scale
    }

    /// Worker-side release cost for a task with `deps` dependencies.
    pub fn release_cost_us(&self, deps: usize) -> f64 {
        (RELEASE_US + RELEASE_PER_DEP_US * deps as f64) * self.overhead_scale
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("worker count must be non-zero".into());
        }
        if self.overhead_scale <= 0.0 {
            return Err("overhead scale must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_hold_grows_with_workers() {
        let c1 = NanosConfig::with_workers(1);
        let c32 = NanosConfig::with_workers(32);
        assert!(c32.lock_hold_us() > c1.lock_hold_us());
        assert!(c32.lock_hold_us() > 2.0 * c1.lock_hold_us());
    }

    #[test]
    fn scaling_multiplies_every_term() {
        let base = NanosConfig::with_workers(8);
        let scaled = base.scaled(3.0);
        assert!((scaled.creation_us(2) - 3.0 * base.creation_us(2)).abs() < 1e-12);
        assert!((scaled.dispatch_cost_us() - 3.0 * base.dispatch_cost_us()).abs() < 1e-12);
        assert!((scaled.release_cost_us(1) - 3.0 * base.release_cost_us(1)).abs() < 1e-12);
        assert!((scaled.lock_hold_us() - 3.0 * base.lock_hold_us()).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(NanosConfig::with_workers(4).validate().is_ok());
        assert!(NanosConfig::with_workers(0).validate().is_err());
        assert!(NanosConfig::with_workers(4).scaled(0.0).validate().is_err());
    }
}
