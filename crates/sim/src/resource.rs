//! Busy-until resource reservation.
//!
//! Hardware blocks in the Nexus models (the Input Parser, each task-graph insert
//! engine, the Dependence Counts Arbiter, the write-back port, the Nexus++ central
//! graph engine, the Nanos runtime lock, …) are *serial*: they handle one request
//! at a time and queue the rest. [`SerialResource`] models such a block as a
//! "busy until" timestamp: a request arriving at time `t` starts at
//! `max(t, busy_until)` and occupies the resource for its service time.

use crate::time::{SimDuration, SimTime};

/// A single-server resource with FIFO queueing, modeled by a busy-until time.
#[derive(Debug, Clone, Default)]
pub struct SerialResource {
    busy_until: SimTime,
    /// Total busy time accumulated (for utilization reporting).
    busy_time: SimDuration,
    /// Total time requests spent waiting for the resource.
    wait_time: SimDuration,
    /// Number of requests served.
    requests: u64,
}

/// The outcome of a resource reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the request actually started service.
    pub start: SimTime,
    /// When the request completed service (resource free again).
    pub end: SimTime,
}

impl SerialResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `service` starting no earlier than `now`.
    /// Returns when the request starts and ends.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        let start = now.max(self.busy_until);
        let end = start + service;
        self.wait_time += start.saturating_since(now);
        self.busy_time += service;
        self.busy_until = end;
        self.requests += 1;
        Reservation { start, end }
    }

    /// Reserves the resource but does not start before `not_before`
    /// (used when an upstream FIFO only delivers data at a later time).
    pub fn acquire_after(
        &mut self,
        now: SimTime,
        not_before: SimTime,
        service: SimDuration,
    ) -> Reservation {
        self.acquire(now.max(not_before), service)
    }

    /// Total busy (service) time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Total queueing delay accumulated over all requests.
    pub fn wait_time(&self) -> SimDuration {
        self.wait_time
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Utilization over the interval `[SimTime::ZERO, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            self.busy_time.as_ps() as f64 / horizon.as_ps() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_ns(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_ps(v * 1000)
    }

    #[test]
    fn serial_resource_serializes_back_to_back_requests() {
        let mut r = SerialResource::new();
        let a = r.acquire(at(0), ns(10));
        assert_eq!(a.start, at(0));
        assert_eq!(a.end, at(10));
        // Second request arrives while the first is in service: it queues.
        let b = r.acquire(at(5), ns(10));
        assert_eq!(b.start, at(10));
        assert_eq!(b.end, at(20));
        // Third request arrives after the resource went idle: no queueing.
        let c = r.acquire(at(50), ns(1));
        assert_eq!(c.start, at(50));
        assert_eq!(r.requests(), 3);
        assert_eq!(r.busy_time(), ns(21));
        assert_eq!(r.wait_time(), ns(5));
    }

    #[test]
    fn acquire_after_respects_data_availability() {
        let mut r = SerialResource::new();
        let res = r.acquire_after(at(0), at(30), ns(10));
        assert_eq!(res.start, at(30));
        assert_eq!(res.end, at(40));
    }

    #[test]
    fn utilization_is_fraction_of_horizon() {
        let mut r = SerialResource::new();
        r.acquire(at(0), ns(25));
        assert!((r.utilization(at(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }
}
