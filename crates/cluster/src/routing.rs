//! Task-to-node routing and cross-node dependency analysis.
//!
//! Routing is decided by a [`PolicyKind`] (`nexus-sched`). The default,
//! [`PolicyKind::XorHash`], reuses the paper's XOR distribution function
//! (§IV-B) at cluster scope: a task without an affinity hint goes to the node
//! selected by folding its primary output address, exactly as Nexus#
//! distributes addresses over task graphs within one chip. Tasks generated by
//! `nexus_trace::generators::distributed` carry explicit affinity hints, which
//! every policy honours (wrapped modulo the node count).

use nexus_sched::{LiveLoad, PlacedLoad, PlacementCtx, PolicyKind};
use nexus_sim::FxHashMap;
use nexus_topo::DistanceMatrix;
use nexus_trace::{TaskDescriptor, Trace};
use serde::{Deserialize, Serialize};

pub use nexus_sched::primary_addr;

/// The home node of `task` in a cluster of `nodes` nodes under the default
/// [`PolicyKind::XorHash`] policy: the affinity hint if present (wrapped),
/// otherwise the XOR distribution function over the primary address.
pub fn home_of(task: &TaskDescriptor, nodes: usize) -> usize {
    nexus_sched::xor_home(task, nodes)
}

/// Dependency-edge census of a trace routed onto `nodes` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EdgeStats {
    /// Producer→consumer edges (distinct last-writer producers per consumer).
    pub total: u64,
    /// Edges whose producer and consumer live on different nodes.
    pub remote: u64,
}

impl EdgeStats {
    /// Fraction of dependency edges that cross nodes (0 when there are none).
    pub fn remote_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.remote as f64 / self.total as f64
        }
    }
}

/// One task's placement and producers, as [`DepScanner::scan_full`]
/// returns them.
#[derive(Debug, Clone)]
pub struct ScanRecord {
    /// The home node chosen by the placement policy.
    pub home: usize,
    /// Indices (into submission order) of *all* distinct last-writer
    /// producers, ascending.
    pub producers: Vec<usize>,
}

/// Streaming last-writer dependency scan over a trace's tasks in submission
/// order. This is the *single* definition of what counts as a dependency edge
/// (the last writer of an address feeding every later task touching it — flow
/// and output dependencies, whose completion notifications the cluster must
/// forward) and the single place where a task gets its home: the
/// [`edge_stats`] census, the cluster driver and the live runtime all place
/// each task once, as it is submitted, through one scanner.
///
/// A scan has two halves. [`DepScanner::place`] finds the task's producers
/// and asks the scanner's [`PolicyKind`] for a home, handing it the homes of
/// those producers and the per-node load placed so far; it records nothing
/// and keeps the producers in a buffer it reuses ([`DepScanner::producers`]),
/// so placing allocates nothing. [`DepScanner::record`] then commits the
/// decision. A caller that may defer a submission (the simulator's admission
/// check) places, and records only once the submission goes through.
pub struct DepScanner {
    nodes: usize,
    policy: PolicyKind,
    /// Interconnect distance matrix handed to the policy
    /// ([`DistanceMatrix::uniform`] until [`DepScanner::with_distances`]
    /// supplies the fabric's).
    distances: DistanceMatrix,
    last_writer: FxHashMap<u64, usize>,
    homes: Vec<usize>,
    loads: Vec<PlacedLoad>,
    stats: EdgeStats,
    /// The distinct last-writer producers of the task last placed,
    /// ascending, reused across scans.
    producers: Vec<usize>,
    /// The producers' homes handed to the policy, reused across scans.
    producer_homes: Vec<usize>,
}

impl DepScanner {
    /// Creates a scanner for a cluster of `nodes` nodes with the default
    /// [`PolicyKind::XorHash`] placement.
    pub fn new(nodes: usize) -> Self {
        Self::with_policy(nodes, PolicyKind::XorHash)
    }

    /// Creates a scanner routing through `policy` over uniform wiring.
    pub fn with_policy(nodes: usize, policy: PolicyKind) -> Self {
        DepScanner {
            nodes,
            policy,
            distances: DistanceMatrix::uniform(nodes),
            last_writer: FxHashMap::default(),
            homes: Vec::new(),
            loads: vec![PlacedLoad::default(); nodes],
            stats: EdgeStats::default(),
            producers: Vec::new(),
            producer_homes: Vec::new(),
        }
    }

    /// Same scanner with the fabric's distance matrix made visible to the
    /// placement policy (distance-aware policies weight remote edges by it).
    ///
    /// # Panics
    /// Panics if the matrix covers a different node count.
    pub fn with_distances(mut self, distances: DistanceMatrix) -> Self {
        assert_eq!(
            distances.nodes(),
            self.nodes,
            "distance matrix node count mismatch"
        );
        self.distances = distances;
        self
    }

    /// Scans the next task (tasks must be fed in submission order): places
    /// it and records the placement.
    pub fn scan_full(&mut self, task: &TaskDescriptor) -> ScanRecord {
        self.scan_full_live(task, None)
    }

    /// [`DepScanner::scan_full`] with live load digests made visible to the
    /// placement: [`DepScanner::place`] followed by [`DepScanner::record`].
    pub fn scan_full_live(
        &mut self,
        task: &TaskDescriptor,
        live: Option<LiveLoad<'_>>,
    ) -> ScanRecord {
        let home = self.place(task, live);
        self.record(task, home);
        ScanRecord {
            home,
            producers: self.producers.clone(),
        }
    }

    /// Decides the home of the next task (the one after every recorded
    /// task) and finds its last-writer producers, which it leaves in
    /// [`DepScanner::producers`]; it records nothing: called again before
    /// [`DepScanner::record`], it decides against the same state, so only
    /// `live` can change the answer. With `live` set, an un-hinted task
    /// follows the feedback rule of [`PolicyKind::place`] whatever the
    /// scanner's kind; with `None` the kind's static rule applies.
    pub fn place(&mut self, task: &TaskDescriptor, live: Option<LiveLoad<'_>>) -> usize {
        // `last_writer` only holds indices of recorded tasks, so a task can
        // never appear as its own producer.
        self.producers.clear();
        self.producers.extend(
            task.params
                .iter()
                .filter_map(|p| self.last_writer.get(&p.addr).copied()),
        );
        self.producers.sort_unstable();
        self.producers.dedup();
        self.producer_homes.clear();
        self.producer_homes
            .extend(self.producers.iter().map(|&d| self.homes[d]));
        let home = self.policy.place(
            task,
            &PlacementCtx {
                nodes: self.nodes,
                loads: &self.loads,
                producer_homes: &self.producer_homes,
                distances: &self.distances,
                live,
            },
        );
        assert!(
            home < self.nodes,
            "placement policy {} returned node {home} of {}",
            self.policy,
            self.nodes
        );
        home
    }

    /// The distinct last-writer producers (indices into submission order,
    /// ascending) of the task [`DepScanner::place`] last placed.
    pub fn producers(&self) -> &[usize] {
        &self.producers
    }

    /// Commits the placement at `home` of `task`, the task
    /// [`DepScanner::place`] last placed: the task takes the next
    /// submission index, its home is charged with its load, its edges join
    /// the census and its outputs become the last writes of their
    /// addresses.
    pub fn record(&mut self, task: &TaskDescriptor, home: usize) {
        let i = self.homes.len();
        let remote = self.producers.iter().filter(|&&d| self.homes[d] != home);
        self.stats.remote += remote.count() as u64;
        self.stats.total += self.producers.len() as u64;
        self.homes.push(home);
        self.loads[home].tasks += 1;
        self.loads[home].work += task.duration;
        for p in task.outputs() {
            self.last_writer.insert(p.addr, i);
        }
    }

    /// The edge census accumulated so far.
    pub fn stats(&self) -> EdgeStats {
        self.stats
    }

    /// The home node of submission `idx`.
    ///
    /// # Panics
    /// Panics if fewer than `idx + 1` tasks were recorded.
    pub fn home(&self, idx: usize) -> usize {
        self.homes[idx]
    }

    /// The submission index of the last recorded task that wrote `addr`, if
    /// any did.
    pub fn last_writer(&self, addr: u64) -> Option<usize> {
        self.last_writer.get(&addr).copied()
    }
}

/// Counts the dependency edges of `trace` under the default cluster routing
/// for `nodes` nodes (see [`DepScanner`] for the edge definition).
pub fn edge_stats(trace: &Trace, nodes: usize) -> EdgeStats {
    edge_stats_with(trace, nodes, PolicyKind::XorHash)
}

/// Counts the dependency edges of `trace` when placed on `nodes` nodes by
/// `policy`.
pub fn edge_stats_with(trace: &Trace, nodes: usize, policy: PolicyKind) -> EdgeStats {
    let mut scanner = DepScanner::with_policy(nodes, policy);
    for task in trace.tasks() {
        scanner.scan_full(task);
    }
    scanner.stats()
}

/// Convenience wrapper: [`EdgeStats::remote_fraction`] of [`edge_stats`].
pub fn remote_edge_fraction(trace: &Trace, nodes: usize) -> f64 {
    edge_stats(trace, nodes).remote_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_core::distribution::xor_hash_tg;
    use nexus_sim::SimDuration;
    use nexus_trace::generators::distributed;

    #[test]
    fn affinity_beats_address_routing() {
        let t = TaskDescriptor::builder(0)
            .inout(0x12345)
            .affinity(3)
            .build();
        assert_eq!(home_of(&t, 4), 3);
        assert_eq!(home_of(&t, 2), 1);
        let t = TaskDescriptor::builder(1).inout(0x12345).build();
        assert_eq!(home_of(&t, 4), xor_hash_tg(0x12345, 4));
    }

    #[test]
    fn primary_addr_prefers_the_written_param() {
        let t = TaskDescriptor::builder(0).input(0x40).output(0x80).build();
        assert_eq!(primary_addr(&t), 0x80);
        let read_only = TaskDescriptor::builder(1).input(0x40).build();
        assert_eq!(primary_addr(&read_only), 0x40);
    }

    #[test]
    fn partitioned_traces_have_no_remote_edges_at_zero_coupling() {
        let t = distributed::wavefront(4, 0.0, 6, 6, SimDuration::from_us(10), 1);
        let s = edge_stats(&t, 4);
        assert!(s.total > 0);
        assert_eq!(s.remote, 0);
        assert_eq!(remote_edge_fraction(&t, 4), 0.0);
    }

    #[test]
    fn remote_fraction_grows_with_the_coupling_knob() {
        let lo = remote_edge_fraction(&distributed::sparselu(4, 0.05, 7, 0.002), 4);
        let hi = remote_edge_fraction(&distributed::sparselu(4, 1.0, 7, 0.002), 4);
        assert!(lo > 0.0 && lo < 0.10, "low coupling: {lo}");
        assert!(hi > 0.20, "high coupling: {hi}");
        assert!(hi > lo * 3.0);
    }

    #[test]
    fn everything_is_local_on_a_single_node() {
        let t = distributed::sparselu(2, 0.5, 3, 0.002);
        assert_eq!(remote_edge_fraction(&t, 1), 0.0);
    }

    #[test]
    fn default_scanner_reproduces_the_xorhash_homes() {
        // The policy-driven scanner with the default policy must agree with
        // the standalone `home_of` on every task (the PR 2 routing).
        let t = distributed::sparselu(4, 0.4, 9, 0.002);
        let mut scanner = DepScanner::new(4);
        for task in t.tasks() {
            let home = scanner.scan_full(task).home;
            assert_eq!(home, home_of(task, 4), "{}", task.id);
        }
        assert_eq!(scanner.stats(), edge_stats(&t, 4));
    }

    #[test]
    fn scan_full_separates_local_and_remote_producers() {
        let mk = |id: u64, addr_in: u64, addr_out: u64, aff: u32| {
            TaskDescriptor::builder(id)
                .input(addr_in)
                .output(addr_out)
                .affinity(aff)
                .build()
        };
        let mut scanner = DepScanner::new(2);
        scanner.scan_full(&mk(0, 0x1, 0x100, 0)); // producer on node 0
        scanner.scan_full(&mk(1, 0x2, 0x200, 1)); // producer on node 1
        let r = scanner.scan_full(
            &TaskDescriptor::builder(2)
                .input(0x100)
                .input(0x200)
                .output(0x300)
                .affinity(1)
                .build(),
        );
        assert_eq!(r.home, 1);
        assert_eq!(r.producers, vec![0, 1]);
        // Producer 0 lives on the other node: one of the two edges is remote.
        assert_eq!(
            scanner.stats(),
            EdgeStats {
                total: 2,
                remote: 1
            }
        );
        // The read accessors expose the same homes and last writers.
        assert_eq!(
            (0..3).map(|i| scanner.home(i)).collect::<Vec<_>>(),
            [0, 1, 1]
        );
        assert_eq!(scanner.last_writer(0x100), Some(0));
        assert_eq!(scanner.last_writer(0x300), Some(2));
        assert_eq!(scanner.last_writer(0x1), None, "a read is not a write");
        // Producers come back ascending and distinct, whatever the order of
        // the parameters and however often one producer's output is read.
        let r = scanner.scan_full(
            &TaskDescriptor::builder(3)
                .input(0x300)
                .input(0x100)
                .inout(0x300)
                .affinity(0)
                .build(),
        );
        assert_eq!(r.producers, vec![0, 2]);
        // Only producer 2 (on node 1) is remote to node 0.
        assert_eq!(
            scanner.stats(),
            EdgeStats {
                total: 4,
                remote: 2
            }
        );
    }

    #[test]
    fn place_records_nothing_until_record_commits_it() {
        let producer = TaskDescriptor::builder(0).output(0x100).affinity(1).build();
        let consumer = TaskDescriptor::builder(1)
            .input(0x100)
            .output(0x200)
            .build();
        let mut scanner = DepScanner::with_policy(2, PolicyKind::TopologyAware);
        scanner.scan_full(&producer);
        let first = scanner.place(&consumer, None);
        let first_producers = scanner.producers().to_vec();
        let again = scanner.place(&consumer, None);
        assert_eq!((first, &first_producers[..]), (again, scanner.producers()));
        assert_eq!(first_producers, vec![0]);
        assert_eq!(first, 1, "the consumer follows its producer");
        assert_eq!(scanner.stats().total, 0, "placing records no edge");
        assert_eq!(scanner.last_writer(0x200), None, "nor a write");
        scanner.record(&consumer, first);
        assert_eq!(scanner.home(1), 1);
        assert_eq!(scanner.last_writer(0x200), Some(1));
        assert_eq!(
            scanner.stats(),
            EdgeStats {
                total: 1,
                remote: 0
            }
        );
    }

    #[test]
    fn live_digests_steer_the_scanner_when_the_policy_listens() {
        use nexus_sched::{LiveLoad, LoadView};
        let views = [
            LoadView {
                pending: 50,
                updated_at: 0,
                ..LoadView::default()
            },
            LoadView::default(),
        ];
        let live = LiveLoad {
            views: &views,
            now: 0,
            half_life: 0,
        };
        let t = TaskDescriptor::builder(0).inout(0x10).build();
        for kind in PolicyKind::ALL {
            let mut scanner = DepScanner::with_policy(2, kind);
            let r = scanner.scan_full_live(&t, Some(live));
            assert_eq!(r.home, 1, "{kind}: the hot digest repels placement");
        }
        // The same scan without digests falls back to the static rule.
        let mut fresh = DepScanner::with_policy(2, PolicyKind::TopologyAware);
        assert_eq!(fresh.scan_full(&t).home, 0);
    }

    #[test]
    fn locality_policy_cuts_the_remote_fraction_on_unhinted_traces() {
        let t = distributed::unhinted(&distributed::sparselu(4, 0.3, 11, 0.002));
        let xor = edge_stats_with(&t, 4, PolicyKind::XorHash);
        let loc = edge_stats_with(&t, 4, PolicyKind::TopologyAware);
        assert_eq!(xor.total, loc.total, "census must see the same edges");
        assert!(
            (loc.remote as f64) < 0.5 * xor.remote as f64,
            "locality {} vs xor {} remote edges",
            loc.remote,
            xor.remote
        );
    }
}
