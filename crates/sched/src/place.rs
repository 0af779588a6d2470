//! Task → node placement policies.
//!
//! The cluster driver routes every submitted task to a *home node* before the
//! simulation starts (the routing pre-pass). [`PlacementPolicy`] is the
//! pluggable interface of that decision: it sees the task descriptor, the
//! homes of the task's last-writer producers (the dependence census
//! accumulated so far), a snapshot of the load already placed on every node
//! and the fabric's [`DistanceMatrix`], and returns the home node.
//!
//! Three built-in policies span the design space:
//!
//! * [`XorHash`] — the behaviour the cluster driver shipped with: honour the
//!   affinity hint, otherwise fold the primary output address through the
//!   paper's XOR distribution function (§IV-B) at cluster scope,
//! * [`AffinityFirst`] — honour the affinity hint, otherwise balance: send
//!   un-hinted tasks to the node with the least placed work,
//! * [`TopologyAware`] — honour the affinity hint, otherwise minimize the
//!   *distance-weighted* cost of the task's producer edges over the fabric's
//!   [`DistanceMatrix`] (`nexus-topo`): a producer one rack over weighs more
//!   than one next door, so the placement prefers keeping dependence chains
//!   not merely node-local but *near* — same rack, adjacent torus column —
//!   when they cannot stay local. On a flat fabric
//!   ([`DistanceMatrix::uniform`]) every remote edge weighs the same, and each
//!   task goes where most of its last-writer producers live.
//!
//! [`FeedbackPlacement`] adds live load digests on top of [`TopologyAware`];
//! the feedback mode engages it, not [`PolicyKind`].
//!
//! All policies honour explicit affinity hints: a hint is the programmer's
//! (or trace generator's) domain decomposition, and overriding it would break
//! the workload's locality story. Policies only differ on *un-hinted* tasks.

use crate::feedback::LiveLoad;
use nexus_core::distribution::xor_hash_tg;
use nexus_sim::SimDuration;
use nexus_topo::DistanceMatrix;
use nexus_trace::TaskDescriptor;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Load already placed on one node by the routing pre-pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacedLoad {
    /// Tasks placed on the node so far.
    pub tasks: u64,
    /// Total execution time of the tasks placed on the node so far.
    pub work: SimDuration,
}

/// Everything a placement policy may consult for one task.
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
    /// policies count remote edges).
    pub distances: &'a DistanceMatrix,
    /// Live per-node load digests ([`LiveLoad`]), when runtime feedback is
    /// flowing. `None` during the static routing pre-pass — feedback-aware
    /// policies fall back to the placed-load census.
    pub live: Option<LiveLoad<'a>>,
}

impl PlacementCtx<'_> {
    /// The node with the least placed work, breaking ties toward the lowest
    /// index (deterministic).
    pub fn least_loaded(&self) -> usize {
        self.loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.work, l.tasks))
            .map(|(n, _)| n)
            .unwrap_or(0)
    }
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

/// A task-to-node placement policy (see the [module docs](self)).
///
/// Policies are stateful: they are driven once per task, in submission order,
/// by the routing pre-pass. Determinism is required — the same trace and node
/// count must always produce the same placement.
///
/// # Example
///
/// ```
/// use nexus_sched::{PlacementCtx, PlacementPolicy, PlacedLoad, TopologyAware, XorHash};
/// use nexus_topo::DistanceMatrix;
/// use nexus_trace::TaskDescriptor;
///
/// let producer = TaskDescriptor::builder(0).output(0x1000).build();
/// let consumer = TaskDescriptor::builder(1).input(0x1000).output(0x2000).build();
///
/// let loads = vec![PlacedLoad::default(); 4];
/// let flat = DistanceMatrix::uniform(4);
/// let ctx = |homes: &'static [usize]| PlacementCtx {
///     nodes: 4,
///     loads: &loads,
///     producer_homes: homes,
///     distances: &flat,
///     live: None,
/// };
///
/// // XorHash ignores the census entirely …
/// let mut xor = XorHash;
/// let home = xor.place(&producer, &ctx(&[]));
/// assert!(home < 4);
///
/// // … while TopologyAware follows the producer.
/// let mut topo = TopologyAware;
/// assert_eq!(topo.place(&consumer, &ctx(&[2])), 2);
/// ```
pub trait PlacementPolicy: Send + Sync {
    /// Short human-readable policy name (stable; used in reports and tables).
    fn name(&self) -> &'static str;

    /// Chooses the home node of `task`. Must return a value `< ctx.nodes`.
    fn place(&mut self, task: &TaskDescriptor, ctx: &PlacementCtx<'_>) -> usize;
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

/// The home node `task` gets under [`XorHash`] in a cluster of `nodes` nodes:
/// the affinity hint if present (wrapped), otherwise the paper's XOR
/// distribution function over the primary address.
pub fn xor_home(task: &TaskDescriptor, nodes: usize) -> usize {
    task.home_node(nodes)
        .unwrap_or_else(|| xor_hash_tg(primary_addr(task), nodes))
}

/// Affinity hint first, XOR distribution function otherwise — the routing the
/// cluster driver shipped with, extracted verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XorHash;

impl PlacementPolicy for XorHash {
    fn name(&self) -> &'static str {
        "xorhash"
    }

    fn place(&mut self, task: &TaskDescriptor, ctx: &PlacementCtx<'_>) -> usize {
        xor_home(task, ctx.nodes)
    }
}

/// Affinity hint first, least-loaded node otherwise.
///
/// Un-hinted tasks are balanced by placed work rather than hashed, trading
/// locality for an even split — useful as the load-balance end of the design
/// space and as the fallback when traces carry partial hints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AffinityFirst;

impl PlacementPolicy for AffinityFirst {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn place(&mut self, task: &TaskDescriptor, ctx: &PlacementCtx<'_>) -> usize {
        task.home_node(ctx.nodes)
            .unwrap_or_else(|| ctx.least_loaded())
    }
}

/// Affinity hint first; otherwise minimize distance-weighted producer cost.
///
/// An un-hinted task is placed on the node `n` minimizing
/// `Σ_h weight(h, n)` over its last-writer producer homes `h`, where the
/// weight is the fabric's [`DistanceMatrix::weight`] (route latency plus hop
/// count). Keeping an edge node-local costs nothing; keeping it within the
/// rack costs little; sending it over an inter-rack trunk costs a lot — so
/// chains that cannot stay on one node stay *near*. Ties (including the
/// no-producer case — root tasks) fall to the least-loaded node, which keeps
/// the placement from collapsing onto one node.
///
/// On a flat fabric every remote edge weighs the same, so the policy is
/// greedy remote-edge minimization: each task goes where most of its
/// producers live, and their retirement notifications stay node-local.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopologyAware;

impl PlacementPolicy for TopologyAware {
    fn name(&self) -> &'static str {
        "topo"
    }

    fn place(&mut self, task: &TaskDescriptor, ctx: &PlacementCtx<'_>) -> usize {
        if let Some(hint) = task.home_node(ctx.nodes) {
            return hint;
        }
        (0..ctx.nodes)
            .min_by_key(|&n| (edge_cost(ctx, n), ctx.loads[n].work, ctx.loads[n].tasks, n))
            .unwrap_or(0)
    }
}

/// Affinity hint first; otherwise minimize decayed *live* load combined with
/// distance-weighted producer cost — the first placement policy to consume
/// runtime feedback instead of the pre-pass census.
///
/// An un-hinted task goes to the node `n` minimizing
/// `(1 + decayed_load(n)) · (1 + Σ_h weight(h, n))` over its last-writer
/// producer homes `h`: an idle node next to the producers wins outright, a
/// backed-up node must be *much* closer to beat an idle one further away, and
/// with no producers the product degenerates to pure live load balancing.
/// The decayed load is [`LiveLoad::decayed`] — digests age out, so a node
/// that stopped reporting (and has presumably drained) becomes attractive
/// again instead of being repelled forever. On a flat fabric each remote
/// producer edge costs 1; ties fall back to decayed load, then the
/// placed-work census, then the lowest index (deterministic).
///
/// Without live digests (`ctx.live == None`, e.g. inside the static routing
/// pre-pass) the policy is exactly [`TopologyAware`].
///
/// Not part of [`PolicyKind`]: it is engaged by the feedback mode
/// (`FeedbackKind`, see the cluster crate's config) on top of whatever static
/// policy seeds the pre-pass, because it only makes sense where live digests
/// flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackPlacement;

impl PlacementPolicy for FeedbackPlacement {
    fn name(&self) -> &'static str {
        "feedback"
    }

    fn place(&mut self, task: &TaskDescriptor, ctx: &PlacementCtx<'_>) -> usize {
        if let Some(hint) = task.home_node(ctx.nodes) {
            return hint;
        }
        let Some(live) = ctx.live else {
            return TopologyAware.place(task, ctx);
        };
        (0..ctx.nodes)
            .min_by_key(|&n| {
                let edge = edge_cost(ctx, n);
                let load = live.decayed(n) as u128;
                (
                    (1 + load) * (1 + edge),
                    load,
                    ctx.loads[n].work,
                    ctx.loads[n].tasks,
                    n,
                )
            })
            .unwrap_or(0)
    }
}

/// Selectable placement policies (the `ClusterConfig` handle for the built-in
/// [`PlacementPolicy`] implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`XorHash`].
    #[default]
    XorHash,
    /// [`AffinityFirst`].
    AffinityFirst,
    /// [`TopologyAware`].
    TopologyAware,
}

impl PolicyKind {
    /// Every selectable policy, in display order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::XorHash,
        PolicyKind::AffinityFirst,
        PolicyKind::TopologyAware,
    ];

    /// The accepted (lower-case canonical) spellings, for error messages.
    pub const VALID: &'static str = "xorhash|affinity|topo";

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyKind::XorHash => Box::new(XorHash),
            PolicyKind::AffinityFirst => Box::new(AffinityFirst),
            PolicyKind::TopologyAware => Box::new(TopologyAware),
        }
    }

    /// The canonical name (matches [`PlacementPolicy::name`]).
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

impl FromStr for PolicyKind {
    type Err = String;

    /// Case-insensitive; also accepts the long type names
    /// (`"TopologyAware"`, `"affinity-first"`, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "xorhash" | "xor" | "xor-hash" => Ok(PolicyKind::XorHash),
            "affinity" | "affinityfirst" | "affinity-first" => Ok(PolicyKind::AffinityFirst),
            "topo" | "topology" | "topologyaware" | "topology-aware" => {
                Ok(PolicyKind::TopologyAware)
            }
            other => Err(format!(
                "unknown placement policy {other:?} (expected {})",
                Self::VALID
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            XorHash.place(&t, &ctx(&loads, &[], &flat)),
            xor_hash_tg(0x12345, 4)
        );
        let hinted = TaskDescriptor::builder(1)
            .inout(0x12345)
            .affinity(3)
            .build();
        assert_eq!(XorHash.place(&hinted, &ctx(&loads, &[], &flat)), 3);
        assert_eq!(xor_home(&hinted, 2), 1, "hints wrap modulo the node count");
    }

    #[test]
    fn affinity_first_balances_unhinted_tasks_by_work() {
        let mut loads = vec![PlacedLoad::default(); 3];
        let flat = DistanceMatrix::uniform(3);
        loads[0].work = SimDuration::from_us(100);
        loads[0].tasks = 1;
        let mut p = AffinityFirst;
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
        let mut p = TopologyAware;
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
        let mut topo = TopologyAware;
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
        let mut p = TopologyAware;
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
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            assert_eq!(
                p.place(&hinted, &ctx(&loads, &[1, 1, 1], &flat)),
                2,
                "{kind}"
            );
        }
        // FeedbackPlacement sits outside PolicyKind but honours hints too,
        // even when the live digests scream that the hinted node is loaded.
        let views = [
            crate::LoadView::default(),
            crate::LoadView::default(),
            crate::LoadView {
                pending: 1000,
                ..crate::LoadView::default()
            },
            crate::LoadView::default(),
        ];
        let mut c = ctx(&loads, &[1, 1, 1], &flat);
        c.live = Some(crate::LiveLoad {
            views: &views,
            now: 0,
            half_life: 0,
        });
        assert_eq!(FeedbackPlacement.place(&hinted, &c), 2);
    }

    #[test]
    fn feedback_without_digests_matches_topology_aware() {
        let loads = vec![PlacedLoad::default(); 4];
        let flat = DistanceMatrix::uniform(4);
        let mut fb = FeedbackPlacement;
        let mut topo = TopologyAware;
        for id in 0..32 {
            let t = task(id, id * 0x51D3);
            let homes = [(id as usize) % 4, (id as usize / 2) % 4];
            assert_eq!(
                fb.place(&t, &ctx(&loads, &homes, &flat)),
                topo.place(&t, &ctx(&loads, &homes, &flat)),
                "{id}"
            );
        }
    }

    #[test]
    fn feedback_flees_the_loaded_node_and_follows_decay() {
        use crate::{LiveLoad, LoadView};
        let loads = vec![PlacedLoad::default(); 3];
        let flat = DistanceMatrix::uniform(3);
        // Node 0 holds the only producer but is drowning; nodes 1 and 2 are
        // idle. One remote edge (cost 1+1=2) beats the hot node's load.
        let views = [
            LoadView {
                pending: 20,
                in_flight: 4,
                updated_at: 1000,
                ..LoadView::default()
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
        let mut c = ctx(&loads, &[0], &flat);
        c.live = Some(LiveLoad {
            views: &views,
            now: 1000,
            half_life: 500,
        });
        let mut p = FeedbackPlacement;
        assert_eq!(p.place(&task(0, 0x10), &c), 1, "flee to the idle node");
        // Long after the digest went stale it has decayed to nothing: the
        // producer edge dominates again and the task stays local.
        let mut c = ctx(&loads, &[0], &flat);
        c.live = Some(LiveLoad {
            views: &views,
            now: 1000 + 500 * 10,
            half_life: 500,
        });
        assert_eq!(p.place(&task(1, 0x10), &c), 0, "stale digest aged out");
        // With no producers the policy is pure live load balancing.
        let views = [
            LoadView {
                pending: 5,
                updated_at: 0,
                ..LoadView::default()
            },
            LoadView {
                pending: 2,
                updated_at: 0,
                ..LoadView::default()
            },
            LoadView {
                pending: 9,
                updated_at: 0,
                ..LoadView::default()
            },
        ];
        let mut c = ctx(&loads, &[], &flat);
        c.live = Some(LiveLoad {
            views: &views,
            now: 0,
            half_life: 0,
        });
        assert_eq!(p.place(&task(2, 0x10), &c), 1, "least live load wins");
    }

    #[test]
    fn kind_parsing_is_case_insensitive_with_clear_errors() {
        assert_eq!(
            "XorHash".parse::<PolicyKind>().unwrap(),
            PolicyKind::XorHash
        );
        assert_eq!("XOR".parse::<PolicyKind>().unwrap(), PolicyKind::XorHash);
        assert_eq!(
            " Affinity-First ".parse::<PolicyKind>().unwrap(),
            PolicyKind::AffinityFirst
        );
        assert_eq!(
            "Topology-Aware".parse::<PolicyKind>().unwrap(),
            PolicyKind::TopologyAware
        );
        let err = "topollogy".parse::<PolicyKind>().unwrap_err();
        assert!(err.contains("xorhash|affinity|topo"), "{err}");
        // Locality placement is TopologyAware on a flat fabric.
        assert!("locality".parse::<PolicyKind>().is_err());
        for kind in PolicyKind::ALL {
            assert_eq!(kind.name().parse::<PolicyKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PolicyKind::default(), PolicyKind::XorHash);
        assert_eq!(PolicyKind::TopologyAware.to_string(), "topo");
    }

    #[test]
    fn placement_stays_in_range_on_every_policy() {
        let loads = vec![PlacedLoad::default(); 5];
        let flat = DistanceMatrix::uniform(5);
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            for id in 0..64 {
                let t = task(id, id * 0x9E37);
                let homes = [(id as usize) % 5];
                let h = p.place(&t, &ctx(&loads, &homes, &flat));
                assert!(h < 5, "{kind}: {h}");
            }
        }
    }
}
