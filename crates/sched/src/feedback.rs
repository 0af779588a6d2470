//! Live load telemetry for feedback-driven scheduling.
//!
//! A static placement sees only the load it has placed itself; it cannot
//! know that one node's manager pool has backed up at runtime. [`LoadView`]
//! is the per-node *live* digest closing that loop, aged by its staleness and
//! exponentially decayed so an old digest stops repelling placements. Both
//! clocks fold the digests into one [`LoadTracker`]: the simulator's master
//! folds the digests riding retirement notifications, and the live runtime's
//! nodes publish to it at every retirement. [`FeedbackKind`] (the
//! `ClusterConfig::feedback` field of `nexus-cluster`) selects which
//! consumers read the tracker: live placement (the feedback rule of
//! [`crate::PolicyKind::place`]), task-pool reclamation
//! ([`crate::choose_reclaim_victim`]), or both.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// One node's live load digest.
///
/// All fields are raw integers in the producer's units so that digests from
/// the virtual-time simulator and the wall-clock runtime flow through the
/// same type; consumers only ever compare digests from one producer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadView {
    /// Descriptors held at the node's input processor (queued plus parked),
    /// not yet handed to its manager.
    pub pending: u64,
    /// Tasks at the node beyond `pending` that have not retired yet (handed
    /// to its manager in the simulator, running in the live runtime).
    pub in_flight: u64,
    /// Producer timestamp of the digest, in the observation clock's units
    /// (virtual picoseconds in the simulator, wall nanoseconds live).
    pub updated_at: u64,
}

impl LoadView {
    /// Folds a fresher digest in, returning whether it was applied. Digests
    /// ride multi-hop links and can arrive reordered; an older-timestamped
    /// digest never rolls the view backwards.
    pub fn observe(&mut self, view: LoadView) -> bool {
        if view.updated_at >= self.updated_at {
            *self = view;
            true
        } else {
            false
        }
    }

    /// Staleness age of the digest at `now` (0 for same-instant digests).
    pub fn age(&self, now: u64) -> u64 {
        now.saturating_sub(self.updated_at)
    }

    /// Raw load: everything at the node that has not retired yet.
    pub fn raw_load(&self) -> u64 {
        self.pending + self.in_flight
    }

    /// Exponentially decayed load: the raw load halved once per elapsed
    /// `half_life` of staleness (`half_life == 0` disables decay). Integer
    /// shifts keep the decay bit-exact across reruns and platforms.
    pub fn decayed_load(&self, now: u64, half_life: u64) -> u64 {
        if half_life == 0 {
            return self.raw_load();
        }
        let halvings = (self.age(now) / half_life).min(63);
        self.raw_load() >> halvings
    }
}

/// A cluster-wide set of live digests plus the consumer's observation clock —
/// the borrowed bundle placement and reclaim victim choice consume.
#[derive(Debug, Clone, Copy)]
pub struct LiveLoad<'a> {
    /// Per-node digests (`views.len()` == node count).
    pub views: &'a [LoadView],
    /// The consumer's current clock, in the digests' units.
    pub now: u64,
    /// Decay half-life in clock units (0 = no decay).
    pub half_life: u64,
}

impl LiveLoad<'_> {
    /// Decayed load of `node` (0 for out-of-range nodes).
    pub fn decayed(&self, node: usize) -> u64 {
        self.views
            .get(node)
            .map_or(0, |v| v.decayed_load(self.now, self.half_life))
    }
}

/// Every node's freshest digest, folded from whatever digests arrive, and the
/// decay half-life consumers read them with. One definition for both clocks:
/// the simulator's master folds the digests riding retirement notifications
/// (virtual picoseconds), and the live runtime's nodes publish to a shared
/// one at every retirement (wall nanoseconds).
#[derive(Debug, Clone)]
pub struct LoadTracker {
    views: Vec<LoadView>,
    half_life: u64,
    updates: u64,
}

impl LoadTracker {
    /// An empty tracker over `nodes` nodes whose digests decay with
    /// `half_life` clock units (0 = no decay).
    pub fn new(nodes: usize, half_life: u64) -> Self {
        LoadTracker {
            views: vec![LoadView::default(); nodes],
            half_life,
            updates: 0,
        }
    }

    /// Folds `node`'s digest in, returning whether it was applied (see
    /// [`LoadView::observe`]: a reordered older digest is dropped).
    pub fn observe(&mut self, node: usize, view: LoadView) -> bool {
        let applied = self.views[node].observe(view);
        self.updates += u64::from(applied);
        applied
    }

    /// Digests applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The digests as placement and reclaim victim choice read them at `now`.
    pub fn live(&self, now: u64) -> LiveLoad<'_> {
        LiveLoad {
            views: &self.views,
            now,
            half_life: self.half_life,
        }
    }
}

/// Which feedback consumers are active (`ClusterConfig::feedback` in
/// `nexus-cluster`). Off by default: every task is placed by its kind's static rule
/// and only stealing balances load, unless feedback is explicitly enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FeedbackKind {
    /// No feedback: static placement at submit, steal-only balancing.
    #[default]
    Off,
    /// Live placement only: un-hinted tasks are placed at submit by the
    /// feedback rule of [`crate::PolicyKind::place`], which reads the
    /// decayed digests whatever the placement kind.
    Place,
    /// Task-pool reclamation only (idle nodes pull dependence-blocked
    /// descriptors out of a loaded node's pool).
    Reclaim,
    /// Both live placement and reclamation.
    Full,
}

impl FeedbackKind {
    /// Every selectable feedback mode, in display order.
    pub const ALL: [FeedbackKind; 4] = [
        FeedbackKind::Off,
        FeedbackKind::Place,
        FeedbackKind::Reclaim,
        FeedbackKind::Full,
    ];

    /// The accepted (lower-case canonical) spellings, for error messages.
    pub const VALID: &'static str = "off|place|reclaim|full";

    /// True when any feedback consumer is active (lets drivers skip the load
    /// tracker entirely, keeping the off path bit-identical).
    pub fn is_enabled(self) -> bool {
        self != FeedbackKind::Off
    }

    /// True when submit-time placement consumes the live digests.
    pub fn place_enabled(self) -> bool {
        matches!(self, FeedbackKind::Place | FeedbackKind::Full)
    }

    /// True when the pool-reclamation protocol is active.
    pub fn reclaim_enabled(self) -> bool {
        matches!(self, FeedbackKind::Reclaim | FeedbackKind::Full)
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            FeedbackKind::Off => "off",
            FeedbackKind::Place => "place",
            FeedbackKind::Reclaim => "reclaim",
            FeedbackKind::Full => "full",
        }
    }
}

impl fmt::Display for FeedbackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FeedbackKind {
    type Err = String;

    /// Case-insensitive; accepts a few natural spellings.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "disabled" | "0" => Ok(FeedbackKind::Off),
            "place" | "placement" => Ok(FeedbackKind::Place),
            "reclaim" | "reclamation" => Ok(FeedbackKind::Reclaim),
            "full" | "on" | "both" | "1" => Ok(FeedbackKind::Full),
            other => Err(format!(
                "unknown feedback mode {other:?} (expected {})",
                Self::VALID
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_never_roll_backwards() {
        let mut view = LoadView::default();
        assert!(view.observe(LoadView {
            pending: 4,
            in_flight: 2,
            updated_at: 100,
        }));
        // A reordered older digest is dropped …
        assert!(!view.observe(LoadView {
            pending: 9,
            updated_at: 50,
            ..LoadView::default()
        }));
        assert_eq!(view.pending, 4);
        // … a same-instant or newer one wins.
        assert!(view.observe(LoadView {
            pending: 7,
            updated_at: 100,
            ..LoadView::default()
        }));
        assert_eq!(view.pending, 7);
    }

    #[test]
    fn decay_halves_per_half_life_and_ages_out() {
        let view = LoadView {
            pending: 10,
            in_flight: 6,
            updated_at: 1000,
        };
        assert_eq!(view.raw_load(), 16);
        assert_eq!(view.age(1500), 500);
        assert_eq!(view.age(900), 0, "future digests have zero age");
        assert_eq!(view.decayed_load(1000, 200), 16);
        assert_eq!(view.decayed_load(1200, 200), 8);
        assert_eq!(view.decayed_load(1400, 200), 4);
        assert_eq!(view.decayed_load(1000 + 200 * 64, 200), 0);
        assert_eq!(view.decayed_load(u64::MAX, 200), 0, "shift count clamps");
        assert_eq!(view.decayed_load(5000, 0), 16, "half-life 0 disables decay");
    }

    #[test]
    fn tracker_counts_the_digests_it_applies_and_decays_them() {
        let mut tracker = LoadTracker::new(2, 50);
        let at = |pending, updated_at| LoadView {
            pending,
            updated_at,
            ..LoadView::default()
        };
        assert!(tracker.observe(1, at(8, 100)));
        assert!(
            !tracker.observe(1, at(3, 40)),
            "a reordered digest is dropped"
        );
        assert!(tracker.observe(0, at(6, 0)));
        assert_eq!(tracker.updates(), 2);
        let live = tracker.live(100);
        assert_eq!((live.decayed(0), live.decayed(1)), (1, 8));
        assert_eq!(live.half_life, 50);
    }

    #[test]
    fn live_load_reads_per_node_with_range_safety() {
        let views = [
            LoadView {
                pending: 8,
                updated_at: 0,
                ..LoadView::default()
            },
            LoadView {
                pending: 8,
                updated_at: 90,
                ..LoadView::default()
            },
        ];
        let live = LiveLoad {
            views: &views,
            now: 100,
            half_life: 50,
        };
        assert_eq!(live.decayed(0), 2, "stale digest decayed twice");
        assert_eq!(live.decayed(1), 8, "fresh digest at full weight");
        assert_eq!(live.decayed(7), 0, "out of range reads as empty");
    }

    #[test]
    fn kind_parsing_is_case_insensitive_with_clear_errors() {
        assert_eq!("OFF".parse::<FeedbackKind>().unwrap(), FeedbackKind::Off);
        assert_eq!(
            "Place".parse::<FeedbackKind>().unwrap(),
            FeedbackKind::Place
        );
        assert_eq!(
            "RECLAIM".parse::<FeedbackKind>().unwrap(),
            FeedbackKind::Reclaim
        );
        assert_eq!(
            " Full ".parse::<FeedbackKind>().unwrap(),
            FeedbackKind::Full
        );
        let err = "ful".parse::<FeedbackKind>().unwrap_err();
        assert!(err.contains("off|place|reclaim|full"), "{err}");
        for kind in FeedbackKind::ALL {
            assert_eq!(kind.name().parse::<FeedbackKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(FeedbackKind::default(), FeedbackKind::Off);
        assert!(!FeedbackKind::Off.is_enabled());
        assert!(FeedbackKind::Place.place_enabled());
        assert!(!FeedbackKind::Place.reclaim_enabled());
        assert!(FeedbackKind::Reclaim.reclaim_enabled());
        assert!(!FeedbackKind::Reclaim.place_enabled());
        assert!(FeedbackKind::Full.place_enabled() && FeedbackKind::Full.reclaim_enabled());
    }
}
