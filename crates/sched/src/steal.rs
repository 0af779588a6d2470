//! Work-stealing and reclaim victim choice for idle cluster nodes.
//!
//! Static placement — however good — cannot anticipate runtime imbalance: a
//! node whose domain finished early sits idle while a loaded neighbour's
//! input queue backs up behind its task-pool capacity. [`StealKind`] decides
//! *whether* and *from whom* an idle node pulls pending task descriptors, and
//! how many. The mechanics (re-forwarding the descriptor over the
//! interconnect, re-homing its dependence notifications) live in the drivers'
//! migration path; the kind only picks the victim and sizes the batch.
//!
//! A steal is only attempted for descriptors that are *eligible*: still queued
//! at the victim's input processor (not yet handed to its manager) with every
//! last-writer producer already retired, so the stolen task can execute
//! anywhere without waiting on further notifications. Pool reclamation moves
//! the dependence-blocked rest along the same path; its rule is the same
//! whatever the steal kind, [`choose_reclaim_victim`] and [`reclaim_batch`].
//!
//! Victim choice receives the fabric's [`DistanceMatrix`]
//! ([`DistanceMatrix::uniform`] on a flat fabric). On a non-uniform fabric
//! victim choice and batch size both matter more: a cross-rack steal pays the
//! trunk's latency and bandwidth per stolen descriptor.
//! [`StealKind::Hierarchical`] therefore escalates victims bucket by bucket in
//! `(tier, hops)` distance order — same-rack victims first, the far tier only
//! when nothing near has eligible backlog — and sizes the batch from the
//! *victim's* backlog (steal half of it) instead of the thief's free-worker
//! count, amortizing the per-steal transfer cost.

use crate::feedback::LiveLoad;
use nexus_topo::DistanceMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Runtime load snapshot of one node, as victim choice sees it. Both clocks
/// build it with a struct literal, so a new field fails to compile in each
/// until both fill it in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Descriptors held at the node and not yet handed to its manager (the
    /// simulator's input queue; the runtime's blocked and ready descriptors).
    pub pending: usize,
    /// Subset of `pending` that is eligible for stealing (all last-writer
    /// producers retired, no notification in flight).
    pub stealable: usize,
    /// Aggregate service capacity of the node's worker pool, in milli-units
    /// (a standard core contributes 1000; a 2×-fast core 2000). `0` means
    /// "unreported" and is treated as one standard core per comparison, so
    /// uniform snapshots that never set the field keep their old ordering.
    pub speed_milli: u64,
}

impl NodeLoad {
    /// Descriptors a reclaim could reach: pending at the node but *not*
    /// steal-eligible (dependence-blocked behind unretired producers), so
    /// stealing alone can never move them.
    pub fn reclaimable(&self) -> usize {
        self.pending.saturating_sub(self.stealable)
    }

    /// Time-to-drain estimate of the node's eligible backlog: `stealable`
    /// normalized by the node's reported service capacity (in fixed-point
    /// backlog-per-capacity units). A fast node with a deep queue can be a
    /// worse victim than a slow node with a shallower one.
    pub fn drain_estimate(&self) -> u64 {
        let capacity = if self.speed_milli == 0 {
            1000
        } else {
            self.speed_milli
        };
        (self.stealable as u64).saturating_mul(1_000_000) / capacity
    }
}

/// ⌈`backlog` / 2⌉, at least one — the steal-half batch rule.
fn half_backlog(backlog: usize) -> usize {
    backlog.div_ceil(2).max(1)
}

/// Chooses a victim for *pool reclamation*: an idle node pulling
/// dependence-blocked descriptors ([`NodeLoad::reclaimable`]) out of a loaded
/// node's pool — work a steal can never reach. Picks the largest blocked
/// backlog, breaking ties toward the higher decayed live load ([`LiveLoad`],
/// when digests are flowing) and then the lowest node index. Reclamation is
/// gated by the feedback mode, not by the steal kind, so the rule is the same
/// for every [`StealKind`], [`StealKind::Disabled`] included.
pub fn choose_reclaim_victim(
    thief: usize,
    loads: &[NodeLoad],
    live: Option<LiveLoad<'_>>,
) -> Option<usize> {
    loads
        .iter()
        .enumerate()
        .filter(|&(n, l)| n != thief && l.reclaimable() > 0)
        .max_by_key(|&(n, l)| {
            let decayed = live.map_or(0, |lv| lv.decayed(n));
            (l.reclaimable(), decayed, usize::MAX - n)
        })
        .map(|(n, _)| n)
}

/// Maximum number of blocked descriptors to hand back in one reclaim, given
/// the victim's blocked backlog at grant time: the steal-half rule (reclaims
/// pay full link cost; amortize them).
pub fn reclaim_batch(backlog: usize) -> usize {
    half_backlog(backlog)
}

/// Selectable steal policies (the `ClusterConfig` / env handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StealKind {
    /// Never steal — the behaviour the cluster driver shipped with.
    #[default]
    Disabled,
    /// Steal from the neighbour with the largest eligible backlog *per unit
    /// of service capacity* (see [`NodeLoad::drain_estimate`]), breaking ties
    /// toward the larger raw backlog, then the lowest node index, one
    /// descriptor per free worker of the thief. On uniform-speed clusters
    /// this reduces to raw most-loaded selection; with heterogeneous worker
    /// pools it prefers the victim that will take longest to drain its own
    /// queue. The fabric's distances play no part.
    MostLoaded,
    /// Hierarchical victim selection for tiered fabrics: victims are bucketed
    /// by their `(tier, hops)` victim→thief distance (measured in the
    /// direction the stolen descriptors travel; hand-built fabrics may route
    /// asymmetrically) and the nearest non-empty bucket wins — steal from the
    /// same rack while it has eligible backlog, escalate to the next tier
    /// only when everything nearer is drained. Within a bucket the largest
    /// eligible backlog wins, ties toward the lowest node index.
    ///
    /// Batches use the steal-half rule, ⌈stealable/2⌉. A thief that took one
    /// descriptor per free worker would nibble 2 descriptors off a 40-deep
    /// backlog and go idle again, paying a full request/transfer round-trip
    /// per nibble; halving the backlog moves the imbalance in O(log n)
    /// steals, and cross-tier steals are the expensive ones to repeat. On a
    /// flat fabric every victim shares one bucket, so this is most-loaded
    /// victim choice with steal-half batches.
    Hierarchical,
}

impl StealKind {
    /// Every selectable steal policy, in display order.
    pub const ALL: [StealKind; 3] = [
        StealKind::Disabled,
        StealKind::MostLoaded,
        StealKind::Hierarchical,
    ];

    /// The accepted (lower-case canonical) spellings, for error messages.
    pub const VALID: &'static str = "off|steal|hier";

    /// True when stealing is enabled at all (lets the driver skip the idle
    /// scan entirely).
    pub fn is_enabled(self) -> bool {
        self != StealKind::Disabled
    }

    /// Chooses a victim for idle node `thief` given the cluster-wide load
    /// snapshot and the fabric's distance matrix, or `None` to stay idle.
    /// Victims have `stealable > 0`; [`StealKind::Disabled`] picks none.
    /// Deterministic.
    pub fn choose_victim(
        self,
        thief: usize,
        loads: &[NodeLoad],
        distances: &DistanceMatrix,
    ) -> Option<usize> {
        let victims = loads
            .iter()
            .enumerate()
            .filter(|&(n, l)| n != thief && l.stealable > 0);
        let victim = match self {
            StealKind::Disabled => None,
            StealKind::MostLoaded => {
                victims.max_by_key(|&(n, l)| (l.drain_estimate(), l.stealable, usize::MAX - n))
            }
            StealKind::Hierarchical => victims.min_by_key(|&(n, l)| {
                let near = (distances.tier(n, thief), distances.hops(n, thief));
                (near, u64::MAX - l.stealable as u64, n)
            }),
        };
        victim.map(|(n, _)| n)
    }

    /// Maximum number of descriptors to hand over in one steal, given the
    /// thief's free worker count and the victim's eligible backlog at grant
    /// time: 0 when disabled, one per free worker (at least one) for
    /// [`StealKind::MostLoaded`], half the backlog for
    /// [`StealKind::Hierarchical`].
    pub fn batch_for(self, free_workers: usize, victim_stealable: usize) -> usize {
        match self {
            StealKind::Disabled => 0,
            StealKind::MostLoaded => free_workers.max(1),
            StealKind::Hierarchical => half_backlog(victim_stealable),
        }
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            StealKind::Disabled => "off",
            StealKind::MostLoaded => "steal",
            StealKind::Hierarchical => "hier",
        }
    }
}

impl fmt::Display for StealKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StealKind {
    type Err = String;

    /// Case-insensitive; accepts a few natural spellings.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "disabled" | "0" => Ok(StealKind::Disabled),
            "steal" | "on" | "mostloaded" | "most-loaded" | "1" => Ok(StealKind::MostLoaded),
            "hier" | "hierarchical" | "hierarchy" => Ok(StealKind::Hierarchical),
            other => Err(format!(
                "unknown steal policy {other:?} (expected {})",
                Self::VALID
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Racks of 2 over `nodes` nodes: {0,1}, {2,3}, …
    fn racks(nodes: usize) -> DistanceMatrix {
        nexus_topo::rack_tiers(
            nodes,
            2,
            nexus_sim::SimDuration::from_us(1),
            nexus_sim::SimDuration::from_ns(10),
        )
        .distances()
    }

    #[test]
    fn most_loaded_picks_the_biggest_eligible_backlog() {
        let mut loads = vec![NodeLoad::default(); 4];
        loads[1].pending = 10; // pending but nothing eligible
        loads[2] = NodeLoad {
            pending: 8,
            stealable: 5,
            ..NodeLoad::default()
        };
        loads[3] = NodeLoad {
            pending: 9,
            stealable: 5,
            ..NodeLoad::default()
        };
        let flat = DistanceMatrix::uniform(4);
        let p = StealKind::MostLoaded;
        // Ties on `stealable` break toward the lowest index.
        assert_eq!(p.choose_victim(0, &loads, &flat), Some(2));
        loads[3].stealable = 6;
        assert_eq!(p.choose_victim(0, &loads, &flat), Some(3));
        assert_eq!(p.choose_victim(3, &loads, &flat), Some(2));
        assert!(p.batch_for(4, 40) == 4 && p.batch_for(0, 40) == 1);
    }

    #[test]
    fn most_loaded_normalizes_the_backlog_by_worker_speed() {
        let mut loads = vec![NodeLoad::default(); 3];
        // Node 1: deeper backlog, but a 4×-capacity pool drains it quickly.
        loads[1] = NodeLoad {
            stealable: 8,
            speed_milli: 4000,
            ..NodeLoad::default()
        };
        // Node 2: shallower backlog on one standard core — slower to drain.
        loads[2] = NodeLoad {
            stealable: 6,
            speed_milli: 1000,
            ..NodeLoad::default()
        };
        let flat = DistanceMatrix::uniform(3);
        let p = StealKind::MostLoaded;
        assert_eq!(p.choose_victim(0, &loads, &flat), Some(2));
        // Unreported speeds (0) fall back to the raw backlog ordering.
        loads[1].speed_milli = 0;
        loads[2].speed_milli = 0;
        assert_eq!(p.choose_victim(0, &loads, &flat), Some(1));
    }

    #[test]
    fn no_stealing_never_picks_anyone() {
        let loads = vec![
            NodeLoad {
                pending: 100,
                stealable: 100,
                ..NodeLoad::default()
            };
            2
        ];
        let p = StealKind::Disabled;
        assert_eq!(
            p.choose_victim(0, &loads, &DistanceMatrix::uniform(2)),
            None
        );
        assert_eq!(p.batch_for(8, 100), 0);
    }

    #[test]
    fn empty_cluster_yields_no_victim() {
        let loads = vec![NodeLoad::default(); 3];
        let flat = DistanceMatrix::uniform(3);
        for kind in StealKind::ALL {
            assert_eq!(kind.choose_victim(1, &loads, &flat), None, "{kind}");
        }
    }

    #[test]
    fn steal_half_scales_the_batch_with_the_victim_backlog() {
        let p = StealKind::Hierarchical;
        assert_eq!(p.batch_for(2, 40), 20);
        assert_eq!(p.batch_for(8, 3), 2);
        assert_eq!(p.batch_for(8, 1), 1);
        assert_eq!(p.batch_for(8, 0), 1, "grant paths clamp to the backlog");
        // MostLoaded's batch stays worker-sized whatever the backlog.
        assert_eq!(StealKind::MostLoaded.batch_for(3, 40), 3);
    }

    #[test]
    fn hierarchical_prefers_the_near_tier_and_escalates_when_it_drains() {
        // Racks of 2 on 4 nodes: {0,1} and {2,3}.
        let d = racks(4);
        let p = StealKind::Hierarchical;
        let mut loads = vec![NodeLoad::default(); 4];
        loads[1].stealable = 2;
        loads[3].stealable = 50;
        // Node 0 steals from its rack peer even though node 3 is far fuller.
        assert_eq!(p.choose_victim(0, &loads, &d), Some(1));
        // Once the near tier is drained, escalate across the trunk.
        loads[1].stealable = 0;
        assert_eq!(p.choose_victim(0, &loads, &d), Some(3));
        // On a flat fabric every victim shares one bucket: most-loaded.
        loads[2].stealable = 10;
        let flat = DistanceMatrix::uniform(4);
        assert_eq!(p.choose_victim(0, &loads, &flat), Some(3));

        // Within one distance bucket the bigger backlog wins: on 8 nodes in
        // racks of 2, the foreign rack routers 2, 4 and 6 are all one trunk
        // hop from node 0.
        let d8 = racks(8);
        let mut loads = vec![NodeLoad::default(); 8];
        loads[2].stealable = 10;
        loads[4].stealable = 50;
        assert_eq!(p.choose_victim(0, &loads, &d8), Some(4));
        loads[2].stealable = 50; // tie on backlog: lowest index
        assert_eq!(p.choose_victim(0, &loads, &d8), Some(2));
    }

    #[test]
    fn flat_policies_ignore_the_distance_matrix() {
        let d = racks(4);
        let mut loads = vec![NodeLoad::default(); 4];
        loads[1].stealable = 2;
        loads[3].stealable = 50;
        // MostLoaded crosses the trunk for the bigger backlog.
        assert_eq!(StealKind::MostLoaded.choose_victim(0, &loads, &d), Some(3));
        assert_eq!(StealKind::Disabled.choose_victim(0, &loads, &d), None);
    }

    #[test]
    fn reclaimable_is_the_blocked_part_of_the_backlog() {
        let l = NodeLoad {
            pending: 9,
            stealable: 4,
            speed_milli: 2000,
        };
        assert_eq!(l.reclaimable(), 5, "pending minus steal-eligible");
        let all_eligible = NodeLoad {
            pending: 2,
            stealable: 7,
            ..NodeLoad::default()
        };
        assert_eq!(all_eligible.reclaimable(), 0);
    }

    #[test]
    fn default_reclaim_victim_targets_the_blocked_backlog() {
        use crate::feedback::{LiveLoad, LoadView};
        let mut loads = vec![NodeLoad::default(); 4];
        // Node 1: deep backlog but all of it steal-eligible — not a reclaim
        // target, a plain steal reaches it.
        loads[1] = NodeLoad {
            pending: 30,
            stealable: 30,
            ..NodeLoad::default()
        };
        loads[2] = NodeLoad {
            pending: 10,
            stealable: 2,
            ..NodeLoad::default()
        };
        loads[3] = NodeLoad {
            pending: 9,
            stealable: 1,
            ..NodeLoad::default()
        };
        assert_eq!(choose_reclaim_victim(0, &loads, None), Some(2));
        assert_eq!(choose_reclaim_victim(2, &loads, None), Some(3));
        // A tie on blocked backlog breaks toward the hotter live digest.
        loads[3] = NodeLoad {
            pending: 10,
            stealable: 2,
            ..NodeLoad::default()
        };
        let views = [
            LoadView::default(),
            LoadView::default(),
            LoadView::default(),
            LoadView {
                pending: 50,
                updated_at: 0,
                ..LoadView::default()
            },
        ];
        let live = LiveLoad {
            views: &views,
            now: 0,
            half_life: 0,
        };
        assert_eq!(choose_reclaim_victim(0, &loads, Some(live)), Some(3));
        // Without digests the same tie falls to the lowest index.
        assert_eq!(choose_reclaim_victim(0, &loads, None), Some(2));
        // Nothing blocked anywhere -> no victim.
        let idle = vec![loads[1]; 2];
        assert_eq!(choose_reclaim_victim(0, &idle, None), None);
    }

    #[test]
    fn reclaim_batches_use_the_half_backlog_rule() {
        assert_eq!(reclaim_batch(9), 5);
        assert_eq!(reclaim_batch(1), 1);
        assert_eq!(reclaim_batch(0), 1, "grant paths clamp");
    }

    #[test]
    fn kind_parsing_is_case_insensitive_with_clear_errors() {
        assert_eq!("OFF".parse::<StealKind>().unwrap(), StealKind::Disabled);
        assert_eq!("Steal".parse::<StealKind>().unwrap(), StealKind::MostLoaded);
        assert_eq!(
            "Most-Loaded".parse::<StealKind>().unwrap(),
            StealKind::MostLoaded
        );
        assert_eq!(
            "Hierarchical".parse::<StealKind>().unwrap(),
            StealKind::Hierarchical
        );
        let err = "stea1".parse::<StealKind>().unwrap_err();
        assert!(err.contains("off|steal|hier"), "{err}");
        // Steal-half batching is Hierarchical's on a flat fabric.
        assert!("steal-half".parse::<StealKind>().is_err());
        for kind in StealKind::ALL {
            assert_eq!(kind.name().parse::<StealKind>().unwrap(), kind);
        }
        assert_eq!(StealKind::default(), StealKind::Disabled);
        assert!(!StealKind::Disabled.is_enabled());
        assert!(StealKind::MostLoaded.is_enabled());
        assert!(StealKind::Hierarchical.is_enabled());
    }
}
