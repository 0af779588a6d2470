//! The fabric graph: links, routes and the derived distance matrix.
//!
//! A [`Fabric`] is the static description of a cluster interconnect: a set of
//! directed physical links (each with its own latency, bandwidth and *tier* —
//! the locality class it belongs to, e.g. intra-rack vs. inter-rack) plus one
//! precomputed route per ordered node pair. The cluster simulation
//! (`nexus-cluster`) instantiates one serializing wire per fabric link and
//! forwards every message hop by hop along its route, so multi-hop paths pay
//! per-hop serialization and contend with every other flow sharing a link.
//!
//! The [`DistanceMatrix`] is the fabric's summary for the schedulers: per
//! ordered pair, the hop count, the aggregate propagation latency and the
//! highest tier crossed. Placement policies weight remote dependence edges by
//! [`DistanceMatrix::weight`]; hierarchical work stealing escalates victims
//! bucket by bucket in `(tier, hops)` order.

use nexus_sim::SimDuration;

/// One directed physical link of a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Propagation latency added after serialization on this link.
    pub latency: SimDuration,
    /// Serialization cost per 32-bit word (the inverse of bandwidth).
    pub per_word: SimDuration,
    /// Locality class of the link (0 = most local). Tier indices are small
    /// and dense; [`Fabric::tier_name`] names them for reports.
    pub tier: usize,
}

impl LinkSpec {
    /// A tier-0 link with the given timing.
    pub fn local(latency: SimDuration, per_word: SimDuration) -> Self {
        LinkSpec {
            latency,
            per_word,
            tier: 0,
        }
    }
}

/// A concrete interconnect graph: directed links plus one precomputed route
/// per ordered node pair (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Fabric {
    name: String,
    nodes: usize,
    links: Vec<LinkSpec>,
    /// `routes[from * nodes + to]` = link ids traversed in order. The diagonal
    /// is empty (node-local messages never touch the fabric).
    routes: Vec<Vec<usize>>,
    tier_names: Vec<&'static str>,
}

impl Fabric {
    /// Builds a fabric from its parts, validating the invariants: one route
    /// per ordered pair, empty diagonal, non-empty off-diagonal routes, link
    /// ids in range and every tier named.
    ///
    /// # Panics
    /// Panics if any invariant is violated (fabrics are built by trusted
    /// constructors; a violation is a topology-builder bug).
    pub fn new(
        name: impl Into<String>,
        nodes: usize,
        links: Vec<LinkSpec>,
        routes: Vec<Vec<usize>>,
        tier_names: Vec<&'static str>,
    ) -> Self {
        let name = name.into();
        assert!(nodes > 0, "{name}: need at least one node");
        assert_eq!(
            routes.len(),
            nodes * nodes,
            "{name}: need one route per ordered node pair"
        );
        let tiers = tier_names.len();
        assert!(
            tiers <= u8::MAX as usize + 1,
            "{name}: at most 256 tiers (the distance matrix stores tiers as u8)"
        );
        for (i, l) in links.iter().enumerate() {
            assert!(
                l.tier < tiers,
                "{name}: link {i} has unnamed tier {}",
                l.tier
            );
        }
        for from in 0..nodes {
            for to in 0..nodes {
                let route = &routes[from * nodes + to];
                if from == to {
                    assert!(route.is_empty(), "{name}: self-route {from} not empty");
                } else {
                    assert!(!route.is_empty(), "{name}: no route {from}->{to}");
                    for &l in route {
                        assert!(
                            l < links.len(),
                            "{name}: route {from}->{to} uses bad link {l}"
                        );
                    }
                }
            }
        }
        Fabric {
            name,
            nodes,
            links,
            routes,
            tier_names,
        }
    }

    /// Human-readable fabric name (includes the derived shape, e.g.
    /// `"racktiers-r2"` or `"torus-4x2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes the fabric connects.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The directed physical links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// The route from `from` to `to` as an ordered slice of link ids (empty
    /// for `from == to`).
    pub fn route(&self, from: usize, to: usize) -> &[usize] {
        &self.routes[from * self.nodes + to]
    }

    /// Number of distinct link tiers.
    pub fn tier_count(&self) -> usize {
        self.tier_names.len()
    }

    /// The name of tier `tier` (e.g. `"intra-rack"`).
    pub fn tier_name(&self, tier: usize) -> &'static str {
        self.tier_names[tier]
    }

    /// Computes the distance matrix of the fabric.
    pub fn distances(&self) -> DistanceMatrix {
        let n = self.nodes;
        let mut hops = vec![0u32; n * n];
        let mut latency = vec![SimDuration::ZERO; n * n];
        let mut tier = vec![0u8; n * n];
        for from in 0..n {
            for to in 0..n {
                let route = self.route(from, to);
                let i = from * n + to;
                hops[i] = route.len() as u32;
                latency[i] = route.iter().map(|&l| self.links[l].latency).sum();
                tier[i] = route
                    .iter()
                    .map(|&l| self.links[l].tier as u8)
                    .max()
                    .unwrap_or(0);
            }
        }
        DistanceMatrix {
            nodes: n,
            hops,
            latency,
            tier,
        }
    }
}

/// Per-pair distance summary of a [`Fabric`]: hop count, aggregate propagation
/// latency and the highest tier crossed. This is everything the placement and
/// stealing policies (`nexus-sched`) need to reason about locality without
/// seeing the graph itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    nodes: usize,
    hops: Vec<u32>,
    latency: Vec<SimDuration>,
    tier: Vec<u8>,
}

impl DistanceMatrix {
    /// The distance matrix of a uniform (single-tier, single-hop) fabric:
    /// every off-diagonal pair is one zero-latency tier-0 hop apart, so every
    /// remote node is equally (un)attractive. Placement and steal policies
    /// see this matrix when no fabric is configured (e.g. a dependence
    /// scanner built without one).
    pub fn uniform(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut hops = vec![1u32; nodes * nodes];
        for n in 0..nodes {
            hops[n * nodes + n] = 0;
        }
        DistanceMatrix {
            nodes,
            hops,
            latency: vec![SimDuration::ZERO; nodes * nodes],
            tier: vec![0u8; nodes * nodes],
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Hop count from `a` to `b` (0 for `a == b`).
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        self.hops[a * self.nodes + b]
    }

    /// Aggregate propagation latency of the route from `a` to `b`.
    pub fn latency(&self, a: usize, b: usize) -> SimDuration {
        self.latency[a * self.nodes + b]
    }

    /// The highest tier crossed on the route from `a` to `b` (0 for `a == b`
    /// and for purely local routes).
    pub fn tier(&self, a: usize, b: usize) -> usize {
        self.tier[a * self.nodes + b] as usize
    }

    /// The highest tier anywhere in the matrix.
    pub fn max_tier(&self) -> usize {
        self.tier.iter().copied().max().unwrap_or(0) as usize
    }

    /// Scalar placement weight of the `a -> b` distance: the route's
    /// propagation latency in picoseconds plus one per hop (so distances stay
    /// ordered by hop count even on ideal, zero-latency fabrics). Zero for
    /// `a == b`.
    pub fn weight(&self, a: usize, b: usize) -> u64 {
        let i = a * self.nodes + b;
        self.latency[i].as_ps() + self.hops[i] as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    fn two_node_fabric() -> Fabric {
        // 0 -> 1 is one slow tier-1 hop; 1 -> 0 is two fast tier-0 hops over
        // the same link (a contrived asymmetric fabric for the accessors).
        let links = vec![
            LinkSpec {
                latency: us(10),
                per_word: us(1),
                tier: 1,
            },
            LinkSpec::local(us(2), us(1)),
        ];
        Fabric::new(
            "test",
            2,
            links,
            vec![vec![], vec![0], vec![1, 1], vec![]],
            vec!["local", "global"],
        )
    }

    #[test]
    fn accessors_and_distances() {
        let f = two_node_fabric();
        assert_eq!(f.nodes(), 2);
        assert_eq!(f.route(0, 1), &[0]);
        assert_eq!(f.route(1, 1), &[] as &[usize]);
        assert_eq!(f.tier_count(), 2);
        assert_eq!(f.tier_name(1), "global");

        let d = f.distances();
        assert_eq!(d.hops(0, 1), 1);
        assert_eq!(d.hops(1, 0), 2);
        assert_eq!(d.hops(0, 0), 0);
        assert_eq!(d.latency(0, 1), us(10));
        assert_eq!(d.latency(1, 0), us(4));
        assert_eq!(d.tier(0, 1), 1);
        assert_eq!(d.tier(1, 0), 0);
        assert_eq!(d.max_tier(), 1);
        assert_eq!(d.weight(0, 0), 0);
        assert_eq!(d.weight(0, 1), us(10).as_ps() + 1);
        assert!(d.weight(0, 1) > d.weight(1, 0));
    }

    #[test]
    fn uniform_matrix_is_flat() {
        let d = DistanceMatrix::uniform(3);
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    assert_eq!(d.weight(a, b), 0);
                } else {
                    assert_eq!(d.hops(a, b), 1);
                    assert_eq!(d.tier(a, b), 0);
                    assert_eq!(d.weight(a, b), 1);
                }
            }
        }
        assert_eq!(d.max_tier(), 0);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_is_rejected() {
        let links = vec![LinkSpec::local(us(1), us(1))];
        let _ = Fabric::new(
            "bad",
            2,
            links,
            vec![vec![], vec![0], vec![], vec![]],
            vec!["local"],
        );
    }

    #[test]
    #[should_panic(expected = "unnamed tier")]
    fn unnamed_tier_is_rejected() {
        let links = vec![LinkSpec {
            latency: us(1),
            per_word: us(1),
            tier: 1,
        }];
        let _ = Fabric::new("bad", 1, links, vec![vec![]], vec!["local"]);
    }
}
