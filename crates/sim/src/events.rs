//! Time-ordered event queue.
//!
//! The discrete-event simulations (`nexus-host`, `nexus-cluster`) are driven by
//! a classical event loop: worker-core completions, manager ready notifications,
//! link relays and master wake-ups are all [`TimedEvent`]s popped in timestamp
//! order. Ties are broken by insertion sequence so the simulation is fully
//! deterministic.
//!
//! [`EventQueue`] is an indexed calendar queue (Brown's calendar-queue /
//! timer-wheel family): a power-of-two ring of unsorted buckets spanning a
//! sliding time window, with a shared overflow list for events beyond the
//! horizon. Scheduling is `O(1)` (a shift and a push into a reused bucket
//! arena — no per-event allocation in steady state), popping scans the
//! current bucket for the minimum `(time, seq)` key, and the geometry (bucket
//! count and width) adapts to the live event population whenever the wheel is
//! re-anchored or rebuilt. The tests check its pop order against a
//! `BinaryHeap` of the same `(time, seq)` keys.

use crate::time::SimTime;

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone)]
pub struct TimedEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number used as a deterministic tie-breaker.
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

/// The data structure behind an [`EventQueue`]. There is one, the calendar
/// queue; the type remains only because perfbench still names it (through
/// `ClusterConfig::with_engine`), and goes once perfbench stops doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The indexed calendar-queue / timer-wheel engine.
    Calendar,
}

/// Initial/minimum number of buckets in the calendar wheel.
const MIN_BUCKETS: usize = 16;
/// Maximum number of buckets (bounds rebuild cost and memory).
const MAX_BUCKETS: usize = 1 << 16;

/// The indexed calendar-queue engine: a power-of-two ring of unsorted buckets
/// over the window `[win_start, win_start + nbuckets << shift)`, plus an
/// overflow list for events beyond the horizon. Invariants:
///
/// * every wheel event sits in a bucket `>= cur` of the current window (the
///   cursor never passes a non-empty bucket), so the first non-empty bucket at
///   or after `cur` contains the global minimum;
/// * equal timestamps land in the same bucket, so FIFO ties are resolved by
///   the in-bucket `(time, seq)` order;
/// * when `cur_sorted` is set, the cursor bucket is sorted by *descending*
///   `(time, seq)` — the minimum is its last element, pops are O(1) from the
///   back, and pushes into the cursor bucket binary-insert to keep the order.
///   Same-time event cascades pile dozens of events into the cursor bucket,
///   so an unsorted cursor bucket degrades pops to O(bucket²) rescans.
#[derive(Debug, Clone)]
struct CalendarQueue<E> {
    buckets: Vec<Vec<TimedEvent<E>>>,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// Lower bound (ps) of bucket 0 of the current window.
    win_start: u64,
    /// Current scan position in `buckets`.
    cur: usize,
    /// Whether `buckets[cur]` is currently sorted by descending `(time, seq)`.
    cur_sorted: bool,
    /// Events at or beyond the window horizon, unsorted.
    overflow: Vec<TimedEvent<E>>,
    /// Events currently stored in `buckets`.
    wheel_len: usize,
}

impl<E> CalendarQueue<E> {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: 10, // 1 ns buckets until the first rebuild adapts
            win_start: 0,
            cur: 0,
            cur_sorted: false,
            overflow: Vec::new(),
            wheel_len: 0,
        }
    }

    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Maximum bucket-width exponent: 2^16 buckets × 2^47 ps ≈ 2^63 ps of
    /// window coverage, far beyond any simulated horizon, while keeping every
    /// shift below the u64 overflow edge.
    const MAX_SHIFT: u32 = 47;

    /// ceil(log2(width)) clamped to a safe shift, for an average inter-event
    /// spacing of `span / count` picoseconds.
    fn shift_for(span: u64, count: usize) -> u32 {
        let width = (span / count.max(1) as u64).max(1);
        let ceil_log2 = 63 - width.leading_zeros() + u32::from(!width.is_power_of_two());
        ceil_log2.min(Self::MAX_SHIFT)
    }

    #[inline]
    fn win_end(&self) -> u64 {
        self.win_start
            .saturating_add((self.buckets.len() as u64).saturating_mul(1u64 << self.shift))
    }

    #[inline]
    fn cur_start(&self) -> u64 {
        self.win_start
            .saturating_add((self.cur as u64).saturating_mul(1u64 << self.shift))
    }

    #[inline]
    fn key(ev: &TimedEvent<E>) -> (u64, u64) {
        (ev.time.as_ps(), ev.seq)
    }

    fn push(&mut self, ev: TimedEvent<E>) {
        let t = ev.time.as_ps();
        if self.len() == 0 {
            // Empty queue: re-anchor the window at the new event for free.
            self.win_start = t;
            self.cur = 0;
            self.cur_sorted = false;
        }
        if t >= self.win_end() {
            self.overflow.push(ev);
        } else {
            // Clamp "past" times (relative to the scan cursor) into the
            // current bucket; the in-bucket order keeps them first.
            let b = if t < self.cur_start() {
                self.cur
            } else {
                ((t - self.win_start) >> self.shift) as usize
            };
            if b == self.cur && self.cur_sorted {
                // Keep the cursor bucket sorted (descending): find the first
                // slot whose key is below the new one.
                let k = (t, ev.seq);
                let pos = self.buckets[b].partition_point(|e| Self::key(e) > k);
                self.buckets[b].insert(pos, ev);
            } else {
                self.buckets[b].push(ev);
            }
            self.wheel_len += 1;
        }
        if self.len() > 4 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Drains every stored event into a scratch vector and re-anchors the
    /// wheel geometry (bucket count ~ population, bucket width ~ average
    /// inter-event spacing) at the earliest pending time.
    fn rebuild(&mut self) {
        let mut all: Vec<TimedEvent<E>> = Vec::with_capacity(self.len());
        for b in &mut self.buckets {
            all.append(b);
        }
        all.append(&mut self.overflow);
        self.wheel_len = 0;
        self.cur_sorted = false;
        if all.is_empty() {
            self.cur = 0;
            return;
        }
        let min_t = all.iter().map(|e| e.time.as_ps()).min().unwrap();
        let max_t = all.iter().map(|e| e.time.as_ps()).max().unwrap();
        let n = all
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() < n {
            self.buckets.resize_with(n, Vec::new);
        } else {
            // All buckets are drained; dropping the tail keeps pop scans
            // proportional to the live population.
            self.buckets.truncate(n);
        }
        self.shift = Self::shift_for(max_t - min_t, all.len());
        self.win_start = min_t;
        self.cur = 0;
        for ev in all {
            let t = ev.time.as_ps();
            if t >= self.win_end() {
                self.overflow.push(ev);
            } else {
                let b = ((t - self.win_start) >> self.shift) as usize;
                self.buckets[b].push(ev);
                self.wheel_len += 1;
            }
        }
    }

    /// Re-seeds the wheel from the overflow list once the wheel has drained:
    /// the window jumps to the earliest overflow event (a "wheel-overflow
    /// tick") and every overflow event inside the new window moves into its
    /// bucket.
    fn reanchor_from_overflow(&mut self) {
        debug_assert!(self.wheel_len == 0 && !self.overflow.is_empty());
        let min_t = self.overflow.iter().map(|e| e.time.as_ps()).min().unwrap();
        let max_t = self.overflow.iter().map(|e| e.time.as_ps()).max().unwrap();
        self.shift = Self::shift_for(max_t - min_t, self.overflow.len());
        self.win_start = min_t;
        self.cur = 0;
        self.cur_sorted = false;
        let mut i = 0;
        while i < self.overflow.len() {
            let t = self.overflow[i].time.as_ps();
            if t < self.win_end() {
                let ev = self.overflow.swap_remove(i);
                let b = ((t - self.win_start) >> self.shift) as usize;
                self.buckets[b].push(ev);
                self.wheel_len += 1;
            } else {
                i += 1;
            }
        }
        debug_assert!(self.wheel_len > 0);
    }

    /// Positions the cursor on the bucket holding the minimum `(time, seq)`
    /// and sorts it (descending) so the minimum is its last element. Advances
    /// the scan cursor past empty buckets and re-anchors from the overflow as
    /// needed. Returns `false` iff the queue is empty.
    fn settle_min(&mut self) -> bool {
        if self.len() == 0 {
            return false;
        }
        // Shrink a wheel that has drained far below its bucket count, so pops
        // never scan long runs of stale empty buckets.
        if self.len() < self.buckets.len() / 16 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild();
        }
        if self.wheel_len == 0 {
            self.reanchor_from_overflow();
        }
        while self.buckets[self.cur].is_empty() {
            self.cur += 1;
            self.cur_sorted = false;
            debug_assert!(self.cur < self.buckets.len(), "wheel invariant violated");
        }
        if !self.cur_sorted {
            self.buckets[self.cur].sort_unstable_by(|a, b| Self::key(b).cmp(&Self::key(a)));
            self.cur_sorted = true;
        }
        true
    }

    fn pop(&mut self) -> Option<TimedEvent<E>> {
        if !self.settle_min() {
            return None;
        }
        let ev = self.buckets[self.cur]
            .pop()
            .expect("cursor bucket nonempty");
        self.wheel_len -= 1;
        Some(ev)
    }
}

/// A deterministic min-priority queue of events keyed by simulated time.
///
/// Events pop in `(time, seq)` order; `seq` is assigned monotonically at
/// scheduling time, so events due at the same instant pop in the order they
/// were scheduled.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    calendar: CalendarQueue<E>,
    /// Sequence number of the next scheduled event, which is also the number
    /// of events ever scheduled.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            calendar: CalendarQueue::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calendar.push(TimedEvent { time, seq, payload });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<TimedEvent<E>> {
        self.calendar.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn at(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), 2);
        q.schedule(at(10), 0);
        q.schedule(at(20), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().payload, 0);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.total_scheduled(), 3);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expected: Vec<_> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(at(10), 1);
        q.schedule(at(5), 0);
        assert_eq!(q.pop().unwrap().payload, 0);
        q.schedule(at(7), 2);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 1);
    }

    #[test]
    fn same_timestamp_bursts_are_fifo_under_interleaved_pops() {
        // Same-timestamp cascades are the backbone of the cluster's ideal-link
        // scenarios: scheduling more work at `now` *while* popping must keep
        // strict FIFO order.
        let mut q = EventQueue::new();
        q.schedule(at(100), 0);
        q.schedule(at(100), 1);
        assert_eq!(q.pop().unwrap().payload, 0);
        q.schedule(at(100), 2); // scheduled mid-cascade, still at now
        q.schedule(at(50), -1); // "past" clamp: must still pop first
        assert_eq!(q.pop().unwrap().payload, -1);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_overflow_ticks_deliver_far_future_events_in_order() {
        // Events far beyond the wheel horizon park in the overflow list and
        // must re-seed the wheel (one window jump per "tick") in exact order.
        let mut q: EventQueue<usize> = EventQueue::new();
        let times: Vec<u64> = (0..64)
            .map(|i| 1 + (i as u64) * 1_000_000_000_000) // 1s apart: way past any window
            .collect();
        // Schedule in reverse so the wheel anchors at the *latest* time first.
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(at(t), i);
        }
        for (i, &t) in times.iter().enumerate() {
            let ev = q.pop().unwrap();
            assert_eq!(ev.time, at(t));
            assert_eq!(ev.payload, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn engines_agree_on_a_large_random_workload() {
        // A deterministic pseudo-random stress: mixed far/near/equal times
        // and interleaved pops. The calendar queue must pop the identical
        // (time, seq) stream as a `BinaryHeap` of the same keys.
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeap::new();
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        let mut popped_cal: Vec<(SimTime, u64)> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for round in 0..20_000u64 {
            let r = rng();
            let dt = match r % 5 {
                0 => 0,
                1 => r % 1_000,
                2 => r % 1_000_000,
                3 => r % 1_000_000_000,
                _ => r % 100,
            };
            let t = at(now + dt);
            heap.push(Reverse((t, cal.total_scheduled())));
            cal.schedule(t, round);
            if r % 3 == 0 {
                if let Some(Reverse(key)) = heap.pop() {
                    now = key.0.as_ps();
                    popped.push(key);
                }
                if let Some(e) = cal.pop() {
                    popped_cal.push((e.time, e.seq));
                }
            }
        }
        while let Some(Reverse(key)) = heap.pop() {
            popped.push(key);
        }
        while let Some(e) = cal.pop() {
            popped_cal.push((e.time, e.seq));
        }
        assert_eq!(popped.len(), popped_cal.len());
        assert_eq!(popped, popped_cal);
        // And the stream is globally sorted wherever no interleaving happened:
        // verify monotone non-decreasing keys after the final drain point.
        let tail = &popped[popped.len().saturating_sub(1000)..];
        assert!(tail.windows(2).all(|w| w[0] <= w[1]));
    }
}
