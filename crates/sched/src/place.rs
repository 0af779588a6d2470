//! Task → node placement.
//!
//! Both clocks (the cluster simulator and the live runtime) route every task
//! to a *home node* once, as it is submitted, through one dependence scanner
//! (`nexus_cluster::routing::DepScanner`). [`PolicyKind::place`] makes that
//! decision: it sees the task descriptor, the homes of the task's last-writer
//! producers (the dependence census accumulated so far), a snapshot of the
//! load already placed on every node and the fabric's [`DistanceMatrix`], and
//! returns the home node.
//!
//! Three kinds span the design space:
//!
//! * [`PolicyKind::XorHash`] — the behaviour the cluster driver shipped with:
//!   fold the primary output address through the paper's XOR distribution
//!   function (§IV-B) at cluster scope,
//! * [`PolicyKind::AffinityFirst`] — balance: send the task to the node with
//!   the least placed work,
//! * [`PolicyKind::TopologyAware`] — minimize the *distance-weighted* cost of
//!   the task's producer edges over the fabric's [`DistanceMatrix`]
//!   (`nexus-topo`): a producer one rack over weighs more than one next door,
//!   so the placement prefers keeping dependence chains not merely node-local
//!   but *near* — same rack, adjacent torus column — when they cannot stay
//!   local. On a flat fabric ([`DistanceMatrix::uniform`]) every remote edge
//!   weighs the same, and each task goes where most of its last-writer
//!   producers live.
//!
//! Once live load digests flow ([`PlacementCtx::live`], set only in the
//! `place` and `full` feedback modes), every kind applies one
//! *feedback* rule instead: minimize decayed live load combined with
//! distance-weighted producer cost (see [`PolicyKind::place`]).
//!
//! Every kind honours explicit affinity hints, with or without digests: a hint
//! is the programmer's (or trace generator's) domain decomposition, and
//! overriding it would break the workload's locality story. The kinds only
//! differ on *un-hinted* tasks.

use crate::feedback::LiveLoad;
use nexus_core::distribution::xor_hash_tg;
use nexus_sim::SimDuration;
use nexus_topo::DistanceMatrix;
use nexus_trace::TaskDescriptor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Load already placed on one node: the tasks whose placement was recorded
/// there so far (where they were placed, not where they ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacedLoad {
    /// Tasks placed on the node so far.
    pub tasks: u64,
    /// Total execution time of the tasks placed on the node so far.
    pub work: SimDuration,
}

/// Everything a placement decision may consult for one task.
#[derive(Debug)]
pub struct PlacementCtx<'a> {
    /// Number of nodes in the cluster (≥ 1).
    pub nodes: usize,
    /// Per-node load placed so far (`loads.len() == nodes`).
    pub loads: &'a [PlacedLoad],
    /// Home nodes of the task's distinct last-writer producers, in producer
    /// submission order (the dependence census for this task).
    pub producer_homes: &'a [usize],
    /// Distance matrix of the interconnect fabric
    /// ([`DistanceMatrix::uniform`] for uniform wiring, where distance-aware
    /// kinds count remote edges).
    pub distances: &'a DistanceMatrix,
    /// Live per-node load digests ([`LiveLoad`]), when runtime feedback is
    /// flowing. Every kind reads them: with digests, an un-hinted task
    /// follows the feedback rule of [`PolicyKind::place`] instead of its
    /// kind's static rule. `None` when no feedback placement is enabled.
    pub live: Option<LiveLoad<'a>>,
}

/// Distance-weighted cost of placing the task on `node`: the sum of
/// [`DistanceMatrix::weight`] from each producer home to `node` (a node-local
/// edge costs nothing, a remote one on a flat fabric costs 1).
fn edge_cost(ctx: &PlacementCtx<'_>, node: usize) -> u128 {
    ctx.producer_homes
        .iter()
        .map(|&h| ctx.distances.weight(h, node) as u128)
        .sum()
}

/// The address used to route a task: its first written parameter, falling back
/// to its first parameter (tasks always have at least one in a valid trace).
pub fn primary_addr(task: &TaskDescriptor) -> u64 {
    task.outputs()
        .next()
        .or_else(|| task.params.first())
        .map(|p| p.addr)
        .unwrap_or(0)
}

/// The home node `task` gets under [`PolicyKind::XorHash`] in a cluster of
/// `nodes` nodes: the affinity hint if present (wrapped), otherwise the
/// paper's XOR distribution function over the primary address.
pub fn xor_home(task: &TaskDescriptor, nodes: usize) -> usize {
    task.home_node(nodes)
        .unwrap_or_else(|| xor_hash_tg(primary_addr(task), nodes))
}

/// Selectable placement policies (the `ClusterConfig` handle; see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Affinity hint first, XOR distribution function otherwise — the routing
    /// the cluster driver shipped with.
    #[default]
    XorHash,
    /// Affinity hint first, least-loaded node otherwise: un-hinted tasks are
    /// balanced by placed work rather than hashed, trading locality for an
    /// even split — the load-balance end of the design space and the
    /// fallback when traces carry partial hints.
    AffinityFirst,
    /// Affinity hint first; otherwise the node `n` minimizing
    /// `Σ_h weight(h, n)` over the task's last-writer producer homes `h`,
    /// where the weight is the fabric's [`DistanceMatrix::weight`] (route
    /// latency plus hop count). Keeping an edge node-local costs nothing;
    /// keeping it within the rack costs little; sending it over an inter-rack
    /// trunk costs a lot — so chains that cannot stay on one node stay
    /// *near*. Ties (including the no-producer case — root tasks) fall to the
    /// least-loaded node, which keeps the placement from collapsing onto one
    /// node. On a flat fabric this is greedy remote-edge minimization: each
    /// task goes where most of its producers live.
    TopologyAware,
}

impl PolicyKind {
    /// Every selectable policy, in display order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::XorHash,
        PolicyKind::AffinityFirst,
        PolicyKind::TopologyAware,
    ];

    /// Returns the kind itself: placement needs no state beyond it. Kept only
    /// for perfbench, whose scanners call
    /// `DepScanner::with_policy(n, cfg.placement.build())` and which changes
    /// only together with the benchmark; drop it then.
    pub fn build(self) -> PolicyKind {
        self
    }

    /// Chooses the home node of `task`, always `< ctx.nodes`. The affinity
    /// hint wins. Otherwise, with live digests ([`PlacementCtx::live`]), the
    /// *feedback* rule decides whatever the kind: the node `n` minimizing
    /// `(1 + decayed_load(n)) · (1 + Σ_h weight(h, n))` over the producer
    /// homes `h`. An idle node next to the producers wins outright, a
    /// backed-up node must be *much* closer to beat an idle one further
    /// away, and with no producers the product degenerates to pure live load
    /// balancing. The decayed load is [`LiveLoad::decayed`]: digests age
    /// out, so a node that stopped reporting (and has presumably drained)
    /// becomes attractive again instead of being repelled forever. Ties fall
    /// to decayed load, then the placed-work census, then the lowest index.
    /// Without digests the kind's static rule decides.
    ///
    /// Deterministic: the same trace and node count always produce the same
    /// placement.
    pub fn place(self, task: &TaskDescriptor, ctx: &PlacementCtx<'_>) -> usize {
        if let Some(hint) = task.home_node(ctx.nodes) {
            return hint;
        }
        let placed = |n: usize| (ctx.loads[n].work, ctx.loads[n].tasks, n);
        let best = match (ctx.live, self) {
            (Some(live), _) => (0..ctx.nodes).min_by_key(|&n| {
                let load = live.decayed(n) as u128;
                ((1 + load) * (1 + edge_cost(ctx, n)), load, placed(n))
            }),
            (None, PolicyKind::XorHash) => Some(xor_hash_tg(primary_addr(task), ctx.nodes)),
            (None, PolicyKind::AffinityFirst) => (0..ctx.nodes).min_by_key(|&n| placed(n)),
            (None, PolicyKind::TopologyAware) => {
                (0..ctx.nodes).min_by_key(|&n| (edge_cost(ctx, n), placed(n)))
            }
        };
        best.unwrap_or(0)
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::XorHash => "xorhash",
            PolicyKind::AffinityFirst => "affinity",
            PolicyKind::TopologyAware => "topo",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoadView;

    fn ctx<'a>(
        loads: &'a [PlacedLoad],
        homes: &'a [usize],
        distances: &'a DistanceMatrix,
    ) -> PlacementCtx<'a> {
        PlacementCtx {
            nodes: loads.len(),
            loads,
            producer_homes: homes,
            distances,
            live: None,
        }
    }

    fn task(id: u64, addr: u64) -> TaskDescriptor {
        TaskDescriptor::builder(id)
            .inout(addr)
            .duration(SimDuration::from_us(10))
            .build()
    }

    #[test]
    fn xorhash_matches_the_distribution_function() {
        let loads = vec![PlacedLoad::default(); 4];
        let flat = DistanceMatrix::uniform(4);
        let t = task(0, 0x12345);
        assert_eq!(
            PolicyKind::XorHash.place(&t, &ctx(&loads, &[], &flat)),
            xor_hash_tg(0x12345, 4)
        );
        let hinted = TaskDescriptor::builder(1)
            .inout(0x12345)
            .affinity(3)
            .build();
        assert_eq!(
            PolicyKind::XorHash.place(&hinted, &ctx(&loads, &[], &flat)),
            3
        );
        assert_eq!(xor_home(&hinted, 2), 1, "hints wrap modulo the node count");
    }

    #[test]
    fn affinity_first_balances_unhinted_tasks_by_work() {
        let mut loads = vec![PlacedLoad::default(); 3];
        let flat = DistanceMatrix::uniform(3);
        loads[0].work = SimDuration::from_us(100);
        loads[0].tasks = 1;
        let p = PolicyKind::AffinityFirst;
        // Node 1 and 2 are empty; the lowest index wins the tie.
        assert_eq!(p.place(&task(0, 0xAAAA), &ctx(&loads, &[], &flat)), 1);
        loads[1].work = SimDuration::from_us(50);
        loads[1].tasks = 1;
        assert_eq!(p.place(&task(1, 0xAAAA), &ctx(&loads, &[], &flat)), 2);
    }

    #[test]
    fn locality_follows_the_producer_majority() {
        // On a flat fabric TopologyAware keeps the most producer edges local.
        let loads = vec![PlacedLoad::default(); 4];
        let flat = DistanceMatrix::uniform(4);
        let p = PolicyKind::TopologyAware;
        assert_eq!(p.place(&task(0, 0x10), &ctx(&loads, &[2, 2, 1], &flat)), 2);
        // A tie falls to the less-loaded node.
        let mut l2 = loads.clone();
        l2[1].work = SimDuration::from_us(5);
        l2[1].tasks = 1;
        assert_eq!(p.place(&task(1, 0x10), &ctx(&l2, &[1, 3], &flat)), 3);
        // Roots spread to the least-loaded node.
        assert_eq!(p.place(&task(2, 0x10), &ctx(&l2, &[], &flat)), 0);
    }

    #[test]
    fn topology_aware_without_a_fabric_matches_locality() {
        // The reference: greedy remote-edge minimization — the most-voted
        // producer home, ties to the least-loaded node.
        fn majority(ctx: &PlacementCtx<'_>) -> usize {
            let mut votes = vec![0u64; ctx.nodes];
            for &h in ctx.producer_homes {
                votes[h] += 1;
            }
            let best = votes.iter().copied().max().unwrap_or(0);
            (0..ctx.nodes)
                .filter(|&n| votes[n] == best)
                .min_by_key(|&n| (ctx.loads[n].work, ctx.loads[n].tasks, n))
                .unwrap_or(0)
        }
        let mut loads = vec![PlacedLoad::default(); 4];
        let flat = DistanceMatrix::uniform(4);
        let topo = PolicyKind::TopologyAware;
        for id in 0..32 {
            let t = task(id, id * 0x51D3);
            let homes = [(id as usize) % 4, (id as usize / 2) % 4];
            let c = ctx(&loads, &homes, &flat);
            assert_eq!(topo.place(&t, &c), majority(&c), "{id}");
            loads[(id as usize * 3) % 4].work += SimDuration::from_us(id);
        }
    }

    #[test]
    fn topology_aware_prefers_the_near_tier() {
        // Racks of 2 on 4 nodes: {0,1} and {2,3}. Producers on 0 and 2: a
        // uniform-distance policy sees a tie; the rack fabric makes node 0 (or
        // 2) strictly cheaper than the cross-rack leaves 1 and 3.
        let fabric =
            nexus_topo::rack_tiers(4, 2, SimDuration::from_us(1), SimDuration::from_ns(10));
        let d = fabric.distances();
        let loads = vec![PlacedLoad::default(); 4];
        let p = PolicyKind::TopologyAware;
        // Two producers on node 0, one on node 2: node 0 wins outright.
        assert_eq!(p.place(&task(0, 0x10), &ctx(&loads, &[0, 0, 2], &d)), 0);
        // Producers split 0/2: nodes 0 and 2 tie on cost (one trunk edge
        // each); leaves 1 and 3 pay an extra intra-rack hop. Tie falls to the
        // lower index.
        assert_eq!(p.place(&task(1, 0x10), &ctx(&loads, &[0, 2], &d)), 0);
        // Load breaks the tie toward the emptier rack peer.
        let mut l2 = loads.clone();
        l2[0].work = SimDuration::from_us(50);
        l2[0].tasks = 1;
        assert_eq!(p.place(&task(2, 0x10), &ctx(&l2, &[0, 2], &d)), 2);
    }

    #[test]
    fn hints_override_every_policy() {
        let loads = vec![PlacedLoad::default(); 4];
        let flat = DistanceMatrix::uniform(4);
        let hinted = TaskDescriptor::builder(0).inout(0x40).affinity(2).build();
        // A hot digest on the hinted node does not move the task either.
        let views = [
            LoadView::default(),
            LoadView::default(),
            LoadView {
                pending: 1000,
                ..LoadView::default()
            },
            LoadView::default(),
        ];
        let hot = LiveLoad {
            views: &views,
            now: 0,
            half_life: 0,
        };
        for kind in PolicyKind::ALL {
            for live in [None, Some(hot)] {
                let mut c = ctx(&loads, &[1, 1, 1], &flat);
                c.live = live;
                assert_eq!(kind.place(&hinted, &c), 2, "{kind} {live:?}");
            }
        }
    }

    #[test]
    fn feedback_without_digests_matches_topology_aware() {
        // Before any digest arrives every node reads idle, so the feedback
        // rule is TopologyAware's static rule, whatever the kind.
        let loads = vec![PlacedLoad::default(); 4];
        let flat = DistanceMatrix::uniform(4);
        let none_yet = [LoadView::default(); 4];
        for id in 0..32 {
            let t = task(id, id * 0x51D3);
            let homes = [(id as usize) % 4, (id as usize / 2) % 4];
            let topo = PolicyKind::TopologyAware.place(&t, &ctx(&loads, &homes, &flat));
            for kind in PolicyKind::ALL {
                let mut c = ctx(&loads, &homes, &flat);
                c.live = Some(LiveLoad {
                    views: &none_yet,
                    now: 0,
                    half_life: 0,
                });
                assert_eq!(kind.place(&t, &c), topo, "{kind} {id}");
            }
        }
    }

    #[test]
    fn feedback_flees_the_loaded_node_and_follows_decay() {
        let loads = vec![PlacedLoad::default(); 3];
        let flat = DistanceMatrix::uniform(3);
        // Node 0 holds the only producer but is drowning; nodes 1 and 2 are
        // idle. One remote edge (cost 1+1=2) beats the hot node's load.
        let hot = [
            LoadView {
                pending: 20,
                in_flight: 4,
                updated_at: 1000,
            },
            LoadView {
                updated_at: 1000,
                ..LoadView::default()
            },
            LoadView {
                updated_at: 1000,
                ..LoadView::default()
            },
        ];
        let queued = |pending| LoadView {
            pending,
            ..LoadView::default()
        };
        let spread = [queued(5), queued(2), queued(9)];
        let with = |views, now, half_life, homes| {
            let mut c = ctx(&loads, homes, &flat);
            c.live = Some(LiveLoad {
                views,
                now,
                half_life,
            });
            c
        };
        // With digests every kind follows the same rule and picks the same
        // node.
        for p in PolicyKind::ALL {
            let c = with(&hot, 1000, 500, &[0]);
            assert_eq!(p.place(&task(0, 0x10), &c), 1, "{p}: flee to the idle node");
            // Long after the digest went stale it has decayed to nothing: the
            // producer edge dominates again and the task stays local.
            let c = with(&hot, 1000 + 500 * 10, 500, &[0]);
            assert_eq!(p.place(&task(1, 0x10), &c), 0, "{p}: stale digest aged out");
            // With no producers the rule is pure live load balancing.
            let c = with(&spread, 0, 0, &[]);
            assert_eq!(p.place(&task(2, 0x10), &c), 1, "{p}: least live load wins");
        }
    }

    #[test]
    fn kinds_build_to_themselves_and_default_to_xor_hash() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build(), kind);
        }
        assert_eq!(PolicyKind::default(), PolicyKind::XorHash);
        assert_eq!(PolicyKind::TopologyAware.to_string(), "topo");
    }

    #[test]
    fn placement_stays_in_range_on_every_policy() {
        let loads = vec![PlacedLoad::default(); 5];
        let flat = DistanceMatrix::uniform(5);
        for kind in PolicyKind::ALL {
            for id in 0..64 {
                let t = task(id, id * 0x9E37);
                let homes = [(id as usize) % 5];
                let h = kind.place(&t, &ctx(&loads, &homes, &flat));
                assert!(h < 5, "{kind}: {h}");
            }
        }
    }
}
