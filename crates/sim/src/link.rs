//! Point-to-point interconnect links.
//!
//! The cluster-scale simulation (`nexus-cluster`) connects Nexus# nodes with
//! links that have three cost components, matching the standard LogGP-style
//! decomposition used by distributed task-manager studies (DuctTeip, the
//! distributed-runtime work of Bosch et al.):
//!
//! * **serialization** — the sender occupies the wire for
//!   `words × per_word`; back-to-back messages queue behind each other
//!   (modelled with a [`SerialResource`]),
//! * **latency** — a fixed propagation delay added after serialization,
//! * **bandwidth** — the inverse of the per-word occupancy.
//!
//! A message handed to the link at time `t` therefore frees the sender at
//! `start + words × per_word` (where `start ≥ t` accounts for earlier traffic)
//! and is delivered at `start + words × per_word + latency`. Links are FIFO:
//! deliveries never overtake each other, which the cluster driver relies on to
//! preserve per-node program order of forwarded task descriptors.

use crate::resource::SerialResource;
use crate::time::{SimDuration, SimTime};

/// The outcome of handing one message to a [`LinkResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelivery {
    /// When the sender has fully serialized the message onto the wire and can
    /// continue (the wire itself stays busy until this time as well).
    pub sender_free: SimTime,
    /// When the message arrives at the receiver.
    pub delivered: SimTime,
}

/// A serial point-to-point link with latency, bandwidth and per-message
/// serialization cost.
#[derive(Debug, Clone)]
pub struct LinkResource {
    latency: SimDuration,
    per_word: SimDuration,
    wire: SerialResource,
    words: u64,
    messages: u64,
}

impl LinkResource {
    /// Creates a link with a propagation `latency` and a serialization cost of
    /// `per_word` per 32-bit word.
    pub fn new(latency: SimDuration, per_word: SimDuration) -> Self {
        LinkResource {
            latency,
            per_word,
            wire: SerialResource::new(),
            words: 0,
            messages: 0,
        }
    }

    /// An infinitely fast link (zero latency, zero serialization) — the
    /// "single shared memory" limit used as a baseline.
    pub fn ideal() -> Self {
        Self::new(SimDuration::ZERO, SimDuration::ZERO)
    }

    /// Hands a `words`-word message to the link at `now`. Returns when the
    /// sender is free again and when the message is delivered.
    pub fn send(&mut self, now: SimTime, words: u64) -> LinkDelivery {
        let res = self.wire.acquire(now, self.per_word * words);
        self.words += words;
        self.messages += 1;
        LinkDelivery {
            sender_free: res.end,
            delivered: res.end + self.latency,
        }
    }

    /// The propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Serialization cost per 32-bit word.
    pub fn per_word(&self) -> SimDuration {
        self.per_word
    }

    /// Total words transferred.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Total messages transferred.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total time the wire spent serializing messages.
    pub fn busy_time(&self) -> SimDuration {
        self.wire.busy_time()
    }

    /// Total time messages spent queued behind earlier traffic.
    pub fn wait_time(&self) -> SimDuration {
        self.wire.wait_time()
    }

    /// Wire utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.wire.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_ps(v * 1_000_000)
    }

    #[test]
    fn delivery_is_serialization_plus_latency() {
        let mut link = LinkResource::new(us(10), us(1));
        let d = link.send(at(0), 4);
        assert_eq!(d.sender_free, at(4));
        assert_eq!(d.delivered, at(14));
        assert_eq!(link.words(), 4);
        assert_eq!(link.messages(), 1);
    }

    #[test]
    fn back_to_back_messages_queue_but_latency_pipelines() {
        let mut link = LinkResource::new(us(10), us(1));
        let a = link.send(at(0), 5);
        let b = link.send(at(0), 5);
        // The second message waits for the wire, not for the first delivery.
        assert_eq!(a.delivered, at(15));
        assert_eq!(b.sender_free, at(10));
        assert_eq!(b.delivered, at(20));
        assert_eq!(link.wait_time(), us(5));
        assert_eq!(link.busy_time(), us(10));
    }

    #[test]
    fn fifo_ordering_is_preserved() {
        let mut link = LinkResource::new(us(3), us(1));
        let first = link.send(at(0), 10);
        let second = link.send(at(1), 1);
        assert!(second.delivered > first.delivered);
    }

    #[test]
    fn ideal_link_is_free_and_instant() {
        let mut link = LinkResource::ideal();
        let d = link.send(at(7), 1000);
        assert_eq!(d.sender_free, at(7));
        assert_eq!(d.delivered, at(7));
        assert_eq!(link.utilization(at(100)), 0.0);
    }
}
