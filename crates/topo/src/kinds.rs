//! Concrete topology builders and the serializable [`TopologyKind`] selector.
//!
//! Every builder takes the *base* link timing (latency + per-word
//! serialization cost of a tier-0 link, i.e. what `LinkConfig` describes in
//! `nexus-cluster`) and derives the higher tiers from it:
//!
//! * [`shared_bus`] — one wire, every message contends globally (tier 0),
//! * [`full_mesh`] — a dedicated link per ordered pair (tier 0) — together
//!   with the bus, the degenerate uniform cases the cluster shipped with,
//! * [`rack_tiers`] — full mesh inside each rack; one shared trunk per
//!   ordered rack pair with [`RACK_TRUNK_LATENCY_X`]× the latency and
//!   [`RACK_TRUNK_PER_WORD_X`]× the per-word cost (tier 1). Cross-rack routes
//!   go node → rack router (lowest node of the rack) → trunk → destination,
//! * [`torus2d`] — a wrap-around W×H grid of base links (W the largest
//!   divisor of `nodes` ≤ √nodes, so prime node counts degrade to a ring);
//!   dimension-order (X then Y) minimal routing, ties broken toward the
//!   positive direction,
//! * [`dragonfly`] — full mesh inside each group; one long-haul global link
//!   per ordered group pair ([`DRAGONFLY_GLOBAL_LATENCY_X`]× latency, full
//!   bandwidth, tier 1), attached to per-pair gateway nodes as in the
//!   canonical dragonfly, so global traffic funnels through its gateway.

use crate::fabric::{Fabric, LinkSpec};
use nexus_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Latency multiplier of an inter-rack trunk relative to the base link.
pub const RACK_TRUNK_LATENCY_X: u64 = 8;
/// Per-word (inverse bandwidth) multiplier of an inter-rack trunk.
pub const RACK_TRUNK_PER_WORD_X: u64 = 4;
/// Latency multiplier of a dragonfly global link (long but full-bandwidth).
pub const DRAGONFLY_GLOBAL_LATENCY_X: u64 = 4;

/// Integer square root, rounded up (`ceil_sqrt(8) == 3`).
fn ceil_sqrt(n: usize) -> usize {
    let r = n.isqrt();
    r + usize::from(r * r != n)
}

/// One shared medium: every message (any source, any destination) serializes
/// on the same wire.
pub fn shared_bus(nodes: usize, latency: SimDuration, per_word: SimDuration) -> Fabric {
    assert!(nodes > 0, "need at least one node");
    let links = vec![LinkSpec::local(latency, per_word)];
    let mut routes = vec![Vec::new(); nodes * nodes];
    for from in 0..nodes {
        for to in 0..nodes {
            if from != to {
                routes[from * nodes + to] = vec![0];
            }
        }
    }
    Fabric::new("bus", nodes, links, routes, vec!["bus"])
}

/// A dedicated link per ordered node pair: messages only queue behind traffic
/// of the same (source, destination) pair. Link ids are laid out
/// `from * nodes + to`, exactly like the uniform interconnect the cluster
/// driver shipped with (the diagonal is allocated but never routed over).
pub fn full_mesh(nodes: usize, latency: SimDuration, per_word: SimDuration) -> Fabric {
    assert!(nodes > 0, "need at least one node");
    let links = vec![LinkSpec::local(latency, per_word); nodes * nodes];
    let mut routes = vec![Vec::new(); nodes * nodes];
    for from in 0..nodes {
        for to in 0..nodes {
            if from != to {
                routes[from * nodes + to] = vec![from * nodes + to];
            }
        }
    }
    Fabric::new("mesh", nodes, links, routes, vec!["link"])
}

/// The two-level fabric [`rack_tiers`] and [`dragonfly`] share: one `base`
/// link per ordered pair of nodes inside each cluster of `cluster`
/// consecutive nodes, and one `trunk` link per ordered cluster pair, leaving
/// cluster `c` for cluster `d` at node `attach(c, d)` and landing at
/// `attach(d, c)`. A cross-cluster route hops node → attachment → trunk →
/// attachment → node, skipping the local hops where a node is its own
/// attachment. `tiers` names tier 0 and tier 1; a single cluster has tier 0
/// only.
fn two_tier(
    name: String,
    tiers: [&'static str; 2],
    nodes: usize,
    cluster: usize,
    base: LinkSpec,
    trunk: LinkSpec,
    attach: impl Fn(usize, usize) -> usize,
) -> Fabric {
    let clusters = nodes.div_ceil(cluster);
    let mut links = Vec::new();
    let mut direct = HashMap::new();
    for a in 0..nodes {
        for b in 0..nodes {
            if a != b && a / cluster == b / cluster {
                direct.insert((a, b), links.len());
                links.push(base);
            }
        }
    }
    let mut trunks = HashMap::new();
    for ca in 0..clusters {
        for cb in 0..clusters {
            if ca != cb {
                trunks.insert((ca, cb), links.len());
                links.push(trunk);
            }
        }
    }
    let mut routes = vec![Vec::new(); nodes * nodes];
    for a in 0..nodes {
        for b in 0..nodes {
            if a == b {
                continue;
            }
            let (ca, cb) = (a / cluster, b / cluster);
            let route = &mut routes[a * nodes + b];
            if ca == cb {
                route.push(direct[&(a, b)]);
            } else {
                let (exit, entry) = (attach(ca, cb), attach(cb, ca));
                if a != exit {
                    route.push(direct[&(a, exit)]);
                }
                route.push(trunks[&(ca, cb)]);
                if entry != b {
                    route.push(direct[&(entry, b)]);
                }
            }
        }
    }
    let tiers = tiers[..clusters.min(2)].to_vec();
    Fabric::new(name, nodes, links, routes, tiers)
}

/// Racks of `rack` consecutive nodes: full mesh of base links inside a rack
/// (tier 0, `"intra-rack"`); one shared trunk per ordered rack pair (tier 1,
/// `"inter-rack"`, [`RACK_TRUNK_LATENCY_X`]×/[`RACK_TRUNK_PER_WORD_X`]× the
/// base timing). A cross-rack message hops node → rack router (the rack's
/// lowest node) → trunk → destination node, paying serialization at every hop
/// and contending with all other traffic between the two racks on the trunk.
///
/// # Panics
/// Panics if `nodes` or `rack` is zero.
pub fn rack_tiers(
    nodes: usize,
    rack: usize,
    latency: SimDuration,
    per_word: SimDuration,
) -> Fabric {
    assert!(nodes > 0, "need at least one node");
    assert!(rack > 0, "need at least one node per rack");
    let trunk = LinkSpec {
        latency: latency * RACK_TRUNK_LATENCY_X,
        per_word: per_word * RACK_TRUNK_PER_WORD_X,
        tier: 1,
    };
    two_tier(
        format!("racktiers-r{rack}"),
        ["intra-rack", "inter-rack"],
        nodes,
        rack,
        LinkSpec::local(latency, per_word),
        trunk,
        |r, _| r * rack,
    )
}

/// The W×H shape [`torus2d`] derives for `nodes`: W is the largest divisor of
/// `nodes` not exceeding √nodes (1 for primes — a ring), H is `nodes / W`.
pub fn torus_dims(nodes: usize) -> (usize, usize) {
    assert!(nodes > 0, "need at least one node");
    let w = (1..=nodes.isqrt())
        .rev()
        .find(|&w| nodes.is_multiple_of(w))
        .unwrap_or(1);
    (w, nodes / w)
}

/// The next node on the shortest ring walk from `cur` to `target` on a ring
/// of `len` positions, ties broken toward the positive direction.
fn ring_next(cur: usize, target: usize, len: usize) -> usize {
    let fwd = (target + len - cur) % len;
    debug_assert!(fwd != 0);
    if fwd <= len - fwd {
        (cur + 1) % len
    } else {
        (cur + len - 1) % len
    }
}

/// A wrap-around 2-D torus of base links ([`torus_dims`] picks the shape;
/// node `n` sits at `(n % W, n / W)`). Every grid-neighbour pair gets one
/// directed tier-0 link; routes are minimal dimension-order (X first, then
/// Y), so distance shows up as hop count rather than as slower links.
pub fn torus2d(nodes: usize, latency: SimDuration, per_word: SimDuration) -> Fabric {
    let (w, h) = torus_dims(nodes);
    let node_at = |x: usize, y: usize| y * w + x;
    let mut links = Vec::new();
    let mut ids: HashMap<(usize, usize), usize> = HashMap::new();
    for n in 0..nodes {
        let (x, y) = (n % w, n / w);
        let neighbours = [
            node_at((x + 1) % w, y),
            node_at((x + w - 1) % w, y),
            node_at(x, (y + 1) % h),
            node_at(x, (y + h - 1) % h),
        ];
        for nb in neighbours {
            if nb != n && !ids.contains_key(&(n, nb)) {
                ids.insert((n, nb), links.len());
                links.push(LinkSpec::local(latency, per_word));
            }
        }
    }
    let mut routes = vec![Vec::new(); nodes * nodes];
    for a in 0..nodes {
        for b in 0..nodes {
            if a == b {
                continue;
            }
            let (mut x, mut y) = (a % w, a / w);
            let (tx, ty) = (b % w, b / w);
            let route = &mut routes[a * nodes + b];
            while x != tx {
                let nx = ring_next(x, tx, w);
                route.push(ids[&(node_at(x, y), node_at(nx, y))]);
                x = nx;
            }
            while y != ty {
                let ny = ring_next(y, ty, h);
                route.push(ids[&(node_at(x, y), node_at(x, ny))]);
                y = ny;
            }
        }
    }
    Fabric::new(format!("torus-{w}x{h}"), nodes, links, routes, vec!["hop"])
}

/// A dragonfly of groups of `group` consecutive nodes: full mesh of base
/// links inside a group (tier 0, `"intra-group"`); one global link per
/// ordered group pair (tier 1, `"global"`,
/// [`DRAGONFLY_GLOBAL_LATENCY_X`]× latency at full bandwidth — long optical
/// haul). The global link from group `Ga` to `Gb` is attached to gateway
/// member `Gb mod |Ga|` of `Ga` and lands on member `Ga mod |Gb|` of `Gb`
/// (the canonical distributed attachment), so minimal routes are
/// local → global → local and global traffic funnels through its gateways.
///
/// # Panics
/// Panics if `nodes` or `group` is zero.
pub fn dragonfly(
    nodes: usize,
    group: usize,
    latency: SimDuration,
    per_word: SimDuration,
) -> Fabric {
    assert!(nodes > 0, "need at least one node");
    assert!(group > 0, "need at least one node per group");
    let global = LinkSpec {
        latency: latency * DRAGONFLY_GLOBAL_LATENCY_X,
        per_word,
        tier: 1,
    };
    two_tier(
        format!("dragonfly-g{group}"),
        ["intra-group", "global"],
        nodes,
        group,
        LinkSpec::local(latency, per_word),
        global,
        |g, other| {
            let base = g * group;
            base + other % (nodes - base).min(group)
        },
    )
}

/// Selectable interconnect topologies (the `LinkConfig` handle for the fabric
/// builders in this module). The degenerate uniform cases
/// ([`SharedBus`](TopologyKind::SharedBus) / [`FullMesh`](TopologyKind::FullMesh))
/// reproduce the original `nexus-cluster` interconnect exactly; the tiered
/// kinds derive rack/group sizes from the node count (see
/// [`TopologyKind::default_cluster_size`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TopologyKind {
    /// [`shared_bus`].
    SharedBus,
    /// [`full_mesh`] — the default.
    #[default]
    FullMesh,
    /// [`rack_tiers`] with racks of [`TopologyKind::default_cluster_size`].
    RackTiers,
    /// [`torus2d`].
    Torus2D,
    /// [`dragonfly`] with groups of [`TopologyKind::default_cluster_size`].
    Dragonfly,
}

impl TopologyKind {
    /// Every selectable topology, in display order.
    pub const ALL: [TopologyKind; 5] = [
        TopologyKind::SharedBus,
        TopologyKind::FullMesh,
        TopologyKind::RackTiers,
        TopologyKind::Torus2D,
        TopologyKind::Dragonfly,
    ];

    /// The rack/group size the tiered kinds derive for `nodes` nodes:
    /// ⌈√nodes⌉, the balanced two-level split (4 nodes → racks of 2,
    /// 8 → racks of 3, 16 → racks of 4).
    pub fn default_cluster_size(nodes: usize) -> usize {
        ceil_sqrt(nodes.max(1))
    }

    /// Builds the fabric for `nodes` nodes from the base (tier-0) link
    /// timing.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn build(self, nodes: usize, latency: SimDuration, per_word: SimDuration) -> Fabric {
        let cluster = Self::default_cluster_size(nodes);
        match self {
            TopologyKind::SharedBus => shared_bus(nodes, latency, per_word),
            TopologyKind::FullMesh => full_mesh(nodes, latency, per_word),
            TopologyKind::RackTiers => rack_tiers(nodes, cluster, latency, per_word),
            TopologyKind::Torus2D => torus2d(nodes, latency, per_word),
            TopologyKind::Dragonfly => dragonfly(nodes, cluster, latency, per_word),
        }
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::SharedBus => "bus",
            TopologyKind::FullMesh => "mesh",
            TopologyKind::RackTiers => "racktiers",
            TopologyKind::Torus2D => "torus",
            TopologyKind::Dragonfly => "dragonfly",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    #[test]
    fn bus_and_mesh_reproduce_the_uniform_layouts() {
        let bus = shared_bus(4, us(10), us(1));
        assert_eq!(bus.links().len(), 1);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(bus.route(a, b), &[0]);
                }
            }
        }
        let mesh = full_mesh(4, us(10), us(1));
        assert_eq!(mesh.links().len(), 16);
        assert_eq!(mesh.route(1, 3), &[4 + 3]);
        assert_eq!(mesh.route(2, 2), &[] as &[usize]);
        let d = mesh.distances();
        assert_eq!(d.hops(1, 3), 1);
        assert_eq!(d.max_tier(), 0);
    }

    #[test]
    fn rack_tiers_route_through_the_rack_routers() {
        // 4 nodes, racks of 2: racks {0,1} and {2,3}; routers 0 and 2.
        let f = rack_tiers(4, 2, us(1), us(1));
        let d = f.distances();
        // Intra-rack: one direct base hop.
        assert_eq!(d.hops(0, 1), 1);
        assert_eq!(d.tier(0, 1), 0);
        assert_eq!(d.latency(0, 1), us(1));
        // Router to router: just the trunk.
        assert_eq!(d.hops(0, 2), 1);
        assert_eq!(d.tier(0, 2), 1);
        assert_eq!(d.latency(0, 2), us(RACK_TRUNK_LATENCY_X));
        // Leaf to leaf: leaf -> router -> trunk -> leaf.
        assert_eq!(d.hops(1, 3), 3);
        assert_eq!(d.tier(1, 3), 1);
        assert_eq!(d.latency(1, 3), us(1 + RACK_TRUNK_LATENCY_X + 1));
        // Cross-rack weight dominates intra-rack weight.
        assert!(d.weight(1, 3) > 5 * d.weight(0, 1));
        assert_eq!(f.tier_count(), 2);
        assert_eq!(f.tier_name(1), "inter-rack");
    }

    #[test]
    fn single_rack_tiers_degenerate_to_a_full_mesh() {
        let f = rack_tiers(3, 4, us(2), us(1));
        assert_eq!(f.tier_count(), 1);
        let d = f.distances();
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert_eq!(d.hops(a, b), 1);
                    assert_eq!(d.latency(a, b), us(2));
                }
            }
        }
    }

    #[test]
    fn torus_dims_pick_the_squarest_divisor() {
        assert_eq!(torus_dims(4), (2, 2));
        assert_eq!(torus_dims(8), (2, 4));
        assert_eq!(torus_dims(16), (4, 4));
        assert_eq!(torus_dims(12), (3, 4));
        assert_eq!(torus_dims(7), (1, 7), "primes degrade to a ring");
        assert_eq!(torus_dims(1), (1, 1));
    }

    #[test]
    fn torus_routes_are_minimal_and_wrap() {
        // 3x3 torus: node = y*3 + x.
        let f = torus2d(9, us(1), us(1));
        let d = f.distances();
        assert_eq!(d.hops(0, 1), 1);
        assert_eq!(d.hops(0, 2), 1, "wrap-around is shorter than two steps");
        assert_eq!(d.hops(0, 4), 2);
        assert_eq!(d.hops(0, 8), 2, "both dimensions wrap");
        assert_eq!(d.max_tier(), 0);
        assert_eq!(d.latency(0, 4), us(2), "per-hop latency accumulates");
        // Symmetric hop counts on a torus.
        for a in 0..9 {
            for b in 0..9 {
                assert_eq!(d.hops(a, b), d.hops(b, a), "{a}->{b}");
            }
        }
    }

    #[test]
    fn dragonfly_funnels_through_gateways() {
        // 8 nodes, groups of 3: {0,1,2}, {3,4,5}, {6,7} (last group short).
        let f = dragonfly(8, 3, us(1), us(1));
        let d = f.distances();
        assert_eq!(d.tier(0, 1), 0);
        assert!(d.tier(0, 7) == 1 && d.hops(0, 7) <= 3);
        // Global latency multiplier shows up on the gateway-to-landing pair.
        let g = DRAGONFLY_GLOBAL_LATENCY_X;
        assert!(d.latency(0, 7) >= us(g));
        assert!(d.latency(0, 7) <= us(g + 2));
        // Single group degenerates to one tier.
        assert_eq!(dragonfly(3, 4, us(1), us(1)).tier_count(), 1);
    }

    #[test]
    fn kinds_default_to_the_full_mesh_and_display_their_names() {
        assert_eq!(TopologyKind::default(), TopologyKind::FullMesh);
        assert_eq!(TopologyKind::RackTiers.to_string(), "racktiers");
    }

    #[test]
    fn every_kind_builds_valid_fabrics_at_odd_node_counts() {
        for kind in TopologyKind::ALL {
            for nodes in [1usize, 2, 3, 5, 7, 8, 12] {
                let f = kind.build(nodes, us(1), us(1));
                assert_eq!(f.nodes(), nodes, "{kind} @ {nodes}");
                let d = f.distances();
                for a in 0..nodes {
                    for b in 0..nodes {
                        if a != b {
                            assert!(d.hops(a, b) >= 1, "{kind} @ {nodes}: {a}->{b}");
                        }
                    }
                }
            }
        }
        assert_eq!(TopologyKind::default_cluster_size(4), 2);
        assert_eq!(TopologyKind::default_cluster_size(8), 3);
        assert_eq!(TopologyKind::default_cluster_size(16), 4);
    }
}
