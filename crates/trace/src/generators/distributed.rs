//! Node-partitioned workloads for the multi-node cluster simulation.
//!
//! The single-node generators reproduce the paper's benchmarks; the cluster
//! simulation (`nexus-cluster`) additionally needs traces whose tasks carry a
//! *home node* and whose dependency edges cross nodes in a controlled way.
//! Following the domain-decomposition style of distributed task-based runtimes
//! (DuctTeip's hierarchical task pools, the distributed-manager runtime of
//! Bosch et al.), [`partition`] builds such a trace from `N` per-node
//! sub-problems:
//!
//! * each node owns a disjoint address domain (the sub-trace's addresses are
//!   offset by [`NODE_ADDR_STRIDE`] per node, far above the low 20 bits the
//!   XOR distribution function folds),
//! * every task gets an affinity hint naming its home node,
//! * submissions interleave round-robin across nodes, mimicking a master that
//!   streams descriptors breadth-first over the domains,
//! * a tunable fraction of tasks additionally reads a *halo* address — the
//!   most recently written address of a neighbouring node — creating genuine
//!   cross-node dependency edges whose notifications must traverse the
//!   interconnect.
//!
//! With `remote_fraction = 0` the domains are fully independent (only worker
//! capacity is shared); with `remote_fraction = 1` every task (where possible)
//! carries a remote input edge, making the workload interconnect-bound on slow
//! links.

use crate::addr::ADDR_MASK_48;
use crate::task::{TaskDescriptor, TaskParam};
use crate::trace::{Trace, TraceBuilder, TraceOp};
use nexus_sim::{SimDuration, SimRng};

/// Address-space offset between consecutive node domains. Bit 28 is well above
/// the low-20-bit window of the XOR distribution function (so intra-node
/// distribution behaviour is unchanged) and well below the 48-bit address
/// limit.
pub const NODE_ADDR_STRIDE: u64 = 1 << 28;

/// Interleaves per-node sub-traces into one node-partitioned cluster trace.
///
/// `subs[n]` becomes node `n`'s domain: its task addresses are shifted into a
/// private address band, its tasks get `affinity(n)`, and barriers inside the
/// sub-traces are dropped (the combined trace ends with a single global
/// `taskwait`). With probability `remote_fraction` (deterministic in `seed`) a
/// task also reads the most recently written address of the next node,
/// creating a cross-node dependency edge.
///
/// # Panics
/// Panics if `subs` is empty.
pub fn partition(
    name: impl Into<String>,
    subs: Vec<Trace>,
    remote_fraction: f64,
    seed: u64,
) -> Trace {
    let nodes = subs.len();
    assert!(nodes > 0, "need at least one node domain");
    let remote_fraction = if remote_fraction.is_finite() {
        remote_fraction.clamp(0.0, 1.0)
    } else {
        0.0
    };

    // The descriptors move out of the sub-traces: a clone would also drop
    // the spare capacity a halo read pushes into.
    let mut streams: Vec<std::collections::VecDeque<TaskDescriptor>> = subs
        .into_iter()
        .enumerate()
        .map(|(node, sub)| {
            let offset = node as u64 * NODE_ADDR_STRIDE;
            sub.ops
                .into_iter()
                .filter_map(|op| match op {
                    TraceOp::Submit(t) => Some(t),
                    _ => None,
                })
                .map(|mut t| {
                    for p in &mut t.params {
                        p.addr = (p.addr + offset) & ADDR_MASK_48;
                    }
                    t.affinity = Some(node as u32);
                    t
                })
                .collect()
        })
        .collect();

    let mut rng = SimRng::new(seed ^ 0xD157_0000_0000_0001);
    let mut last_written: Vec<Option<u64>> = vec![None; nodes];
    let mut b = TraceBuilder::new(name);
    // Every task, then the closing taskwait.
    b.reserve(streams.iter().map(|s| s.len()).sum::<usize>() + 1);

    while streams.iter().any(|s| !s.is_empty()) {
        for node in 0..nodes {
            let Some(mut task) = streams[node].pop_front() else {
                continue;
            };
            // Halo read: couple this task to a neighbouring domain.
            if nodes > 1 && rng.next_f64() < remote_fraction {
                let donor = (node + 1) % nodes;
                if let Some(addr) = last_written[donor] {
                    if task.params.iter().all(|p| p.addr != addr) {
                        task.params.push(TaskParam::input(addr));
                    }
                }
            }
            if let Some(w) = task.outputs().last() {
                last_written[node] = Some(w.addr);
            }
            b.submit_with(|id| {
                task.id = id;
                task
            });
        }
    }
    b.taskwait();
    b.finish()
}

/// Per-node workload weights of an imbalanced partition: a linear ramp from
/// `skew` (node 0) down to `1.0` (the last node), normalized so `skew = 1`
/// is the balanced case. Node 0 therefore owns `skew`× the work of the last
/// node — the deliberately overloaded domain the work-stealing policies must
/// drain.
///
/// # Panics
/// Panics if `nodes` is zero or `skew < 1`.
pub fn skew_weights(nodes: usize, skew: f64) -> Vec<f64> {
    assert!(nodes > 0, "need at least one node domain");
    assert!(
        skew.is_finite() && skew >= 1.0,
        "skew must be a finite factor >= 1 (got {skew})"
    );
    (0..nodes)
        .map(|n| {
            if nodes == 1 {
                1.0 // a single domain has nothing to be skewed against
            } else {
                skew + (1.0 - skew) * n as f64 / (nodes - 1) as f64
            }
        })
        .collect()
}

/// Strips every affinity hint from `trace`, leaving routing entirely to the
/// placement policy (the un-hinted workloads of the paper report's placement
/// sweep). Everything else — addresses, durations, barriers — is unchanged.
pub fn unhinted(trace: &Trace) -> Trace {
    let mut out = trace.clone();
    out.name = format!("{}-unhinted", trace.name);
    for op in &mut out.ops {
        if let crate::trace::TraceOp::Submit(task) = op {
            task.affinity = None;
        }
    }
    out
}

/// An imbalanced node-partitioned batch of independent tasks: node `n` owns
/// `weights[n] / weights.last()` × `base_tasks` independent tasks of
/// `duration` each (see [`skew_weights`]), plus the usual `remote_fraction`
/// halo coupling. With `skew > 1` node 0 is deliberately overloaded while the
/// last node finishes early — the reproducible test bed for work stealing
/// (without stealing, the makespan is pinned to node 0's backlog).
///
/// # Panics
/// Panics if `nodes` or `base_tasks` is zero, or `skew < 1`.
pub fn imbalanced(
    nodes: usize,
    base_tasks: u64,
    skew: f64,
    duration: SimDuration,
    remote_fraction: f64,
    seed: u64,
) -> Trace {
    assert!(base_tasks > 0, "need at least one task per node domain");
    let subs = skew_weights(nodes, skew)
        .into_iter()
        .map(|w| {
            let count = ((base_tasks as f64 * w).round() as u64).max(1);
            super::micro::independent_tasks(count, 2, duration)
        })
        .collect();
    partition(
        format!(
            "dist-imbalanced-{base_tasks}t-s{skew:.1}-{nodes}n-r{:.0}",
            remote_fraction.clamp(0.0, 1.0) * 100.0
        ),
        subs,
        remote_fraction,
        seed,
    )
}

/// An imbalanced node-partitioned batch of dependence *chains*: node `n` owns
/// `base_chains / skew^n` independent chains (rounded, floor 1 — a geometric
/// decay that concentrates nearly all serial work on node 0) of `depth` tasks
/// each, every chain pinned to its home node by an affinity hint and
/// serialized through its own inout address.
///
/// Where [`imbalanced`] skews *independent* tasks — which work stealing alone
/// can rebalance, since every pending descriptor is eligible — this trace
/// skews *serial* work: at any instant each chain exposes exactly one
/// eligible task (its current head), so a stealing policy can never see more
/// than `chains` stealable descriptors while the blocked tails sit in the
/// overloaded node's pool. This is the reproducible test bed for pool
/// reclamation (`FeedbackKind::Reclaim`): relocating the blocked tails is the
/// only way an idle node can take over a whole chain instead of paying one
/// steal round-trip per task.
///
/// Submission is chain-major, round-robin across nodes at chain granularity
/// (all of node 0's first chain, all of node 1's first chain, …, then every
/// node's second chain), so each node's input queue holds contiguous whole
/// chains and a reclaim batch taken from the back of the queue relocates
/// coherent chain *tails* rather than one link of many chains. The
/// construction is fully deterministic — no halo randomness, so no seed
/// parameter.
///
/// # Panics
/// Panics if `nodes`, `base_chains` or `depth` is zero, or `skew < 1`.
pub fn chained_imbalanced(
    nodes: usize,
    base_chains: u64,
    depth: u64,
    skew: f64,
    duration: SimDuration,
) -> Trace {
    assert!(nodes > 0, "need at least one node domain");
    assert!(base_chains > 0, "need at least one chain per node domain");
    assert!(depth > 0, "need at least one task per chain");
    assert!(
        skew.is_finite() && skew >= 1.0,
        "skew must be a finite factor >= 1 (got {skew})"
    );
    let counts: Vec<u64> = (0..nodes)
        .map(|n| ((base_chains as f64 / skew.powi(n as i32)).round() as u64).max(1))
        .collect();
    let mut b = TraceBuilder::new(format!(
        "dist-chains-{base_chains}c{depth}d-s{skew:.1}-{nodes}n"
    ));
    let max_chains = *counts.iter().max().expect("at least one node domain");
    for chain in 0..max_chains {
        for (node, &chains) in counts.iter().enumerate() {
            if chain >= chains {
                continue;
            }
            let addr = (node as u64 * NODE_ADDR_STRIDE + 0x1000 + chain * 0x40) & ADDR_MASK_48;
            for _ in 0..depth {
                b.submit_with(|id| {
                    TaskDescriptor::builder(id.0)
                        .inout(addr)
                        .duration(duration)
                        .affinity(node as u32)
                        .build()
                });
            }
        }
    }
    b.taskwait();
    b.finish()
}

/// A node-partitioned blocked sparse LU factorization: each node factorizes
/// its own block matrix (per-node seed/scale as in
/// [`super::sparselu::generate`]) with a `remote_fraction` halo coupling.
pub fn sparselu(nodes: usize, remote_fraction: f64, seed: u64, scale: f64) -> Trace {
    let subs = (0..nodes)
        .map(|n| super::sparselu::generate(seed.wrapping_add(n as u64 * 7919), scale))
        .collect();
    partition(
        dist_name("sparselu", nodes, remote_fraction),
        subs,
        remote_fraction,
        seed,
    )
}

/// A node-partitioned Gaussian elimination: each node eliminates its own
/// `dim × dim` matrix with a `remote_fraction` halo coupling.
pub fn gaussian(nodes: usize, remote_fraction: f64, dim: u32, seed: u64) -> Trace {
    let subs = (0..nodes).map(|_| super::gaussian::generate(dim)).collect();
    partition(
        dist_name(&format!("gaussian-{dim}"), nodes, remote_fraction),
        subs,
        remote_fraction,
        seed,
    )
}

/// A node-partitioned macroblock wavefront: each node decodes its own
/// `rows × cols` frame with a `remote_fraction` halo coupling.
pub fn wavefront(
    nodes: usize,
    remote_fraction: f64,
    rows: u64,
    cols: u64,
    task: SimDuration,
    seed: u64,
) -> Trace {
    let subs = (0..nodes)
        .map(|_| super::micro::wavefront(rows, cols, task))
        .collect();
    partition(
        dist_name(&format!("wavefront-{rows}x{cols}"), nodes, remote_fraction),
        subs,
        remote_fraction,
        seed,
    )
}

/// A rack-clustered workload whose dependence structure matches (or
/// deliberately fights) a two-tier fabric.
///
/// The cluster has `racks × nodes_per_rack` nodes, numbered rack-major so
/// rack `r` owns nodes `r * nodes_per_rack ..` — the same layout
/// `nexus-topo`'s `RackTiers` fabric uses. Each node owns `chains` dependence
/// chains of `chain_len` tasks over *distinct* addresses in the node's
/// private band (so an address hash scatters the links, while a
/// dependence-following placement can keep each chain on one node); the
/// first node of every rack owns `skew`× the chains — the deliberately
/// overloaded domain that work stealing must drain toward its rack peers.
///
/// With probability `coupling`, a task additionally reads the most recently
/// written address of a *donor* node: a same-rack neighbour with probability
/// `1 - cross_rack`, a node in a foreign rack with probability `cross_rack`.
/// At `cross_rack = 0` every coupled edge stays inside a rack (the trace
/// matches the fabric); at `cross_rack = 1` every coupled edge crosses racks
/// (the trace fights it, making tiered fabrics degrade vs. a full mesh).
///
/// Every task carries an affinity hint naming its node; strip them with
/// [`unhinted`] to hand the clustering problem to the placement policy.
/// Submissions interleave round-robin across nodes. Deterministic in `seed`.
///
/// # Panics
/// Panics if `racks`, `nodes_per_rack`, `chains` or `chain_len` is zero, or
/// `skew < 1`.
#[allow(clippy::too_many_arguments)]
pub fn rack_clustered(
    racks: usize,
    nodes_per_rack: usize,
    chains: u64,
    chain_len: u64,
    skew: f64,
    coupling: f64,
    cross_rack: f64,
    duration: SimDuration,
    seed: u64,
) -> Trace {
    assert!(racks > 0, "need at least one rack");
    assert!(nodes_per_rack > 0, "need at least one node per rack");
    assert!(
        chains > 0 && chain_len > 0,
        "need at least one task per node"
    );
    assert!(
        skew.is_finite() && skew >= 1.0,
        "skew must be a finite factor >= 1 (got {skew})"
    );
    let nodes = racks * nodes_per_rack;
    let coupling = if coupling.is_finite() {
        coupling.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let cross_rack = if cross_rack.is_finite() {
        cross_rack.clamp(0.0, 1.0)
    } else {
        0.0
    };

    // Per-node task streams: `chains` chains of `chain_len` tasks over
    // distinct addresses (chain-major order).
    let mut streams: Vec<std::collections::VecDeque<TaskDescriptor>> = (0..nodes)
        .map(|node| {
            let node_chains = if node.is_multiple_of(nodes_per_rack) {
                ((chains as f64 * skew).round() as u64).max(1)
            } else {
                chains
            };
            let band = node as u64 * NODE_ADDR_STRIDE;
            let mut out = std::collections::VecDeque::new();
            for c in 0..node_chains {
                for j in 0..chain_len {
                    let addr = (band + (c * chain_len + j + 1) * 0x40) & ADDR_MASK_48;
                    let mut b = TaskDescriptor::builder(0).duration(duration);
                    if j > 0 {
                        let prev = (band + (c * chain_len + j) * 0x40) & ADDR_MASK_48;
                        b = b.input(prev);
                    }
                    out.push_back(b.output(addr).affinity(node as u32).build());
                }
            }
            out
        })
        .collect();

    let mut rng = SimRng::new(seed ^ 0x7AC7_0000_0000_0003);
    let mut last_written: Vec<Option<u64>> = vec![None; nodes];
    let mut b = TraceBuilder::new(format!(
        "dist-rack-{racks}x{nodes_per_rack}-s{skew:.1}-c{:.0}-x{:.0}",
        coupling * 100.0,
        cross_rack * 100.0
    ));

    while streams.iter().any(|s| !s.is_empty()) {
        for node in 0..nodes {
            let Some(mut task) = streams[node].pop_front() else {
                continue;
            };
            if rng.next_f64() < coupling {
                let rack = node / nodes_per_rack;
                let donor = if racks > 1 && rng.next_f64() < cross_rack {
                    // A node in a foreign rack, uniform over the other racks.
                    let fr = {
                        let r = rng.next_below(racks as u64 - 1) as usize;
                        if r >= rack {
                            r + 1
                        } else {
                            r
                        }
                    };
                    Some(fr * nodes_per_rack + rng.next_below(nodes_per_rack as u64) as usize)
                } else if nodes_per_rack > 1 {
                    // A same-rack neighbour other than this node.
                    let m = rng.next_below(nodes_per_rack as u64 - 1) as usize;
                    let m = if m >= node % nodes_per_rack { m + 1 } else { m };
                    Some(rack * nodes_per_rack + m)
                } else {
                    None // a one-node rack has no intra-rack donor
                };
                if let Some(addr) = donor.and_then(|d| last_written[d]) {
                    if task.params.iter().all(|p| p.addr != addr) {
                        task.params.push(TaskParam::input(addr));
                    }
                }
            }
            if let Some(w) = task.outputs().last() {
                last_written[node] = Some(w.addr);
            }
            b.submit_with(|id| {
                task.id = id;
                task
            });
        }
    }
    b.taskwait();
    b.finish()
}

fn dist_name(base: &str, nodes: usize, remote_fraction: f64) -> String {
    format!(
        "dist-{base}-{nodes}n-r{:.0}",
        remote_fraction.clamp(0.0, 1.0) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band(addr: u64) -> u64 {
        addr / NODE_ADDR_STRIDE
    }

    #[test]
    fn partition_is_deterministic() {
        let a = sparselu(4, 0.3, 11, 0.002);
        let b = sparselu(4, 0.3, 11, 0.002);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.name, "dist-sparselu-4n-r30");
    }

    #[test]
    fn domains_are_disjoint_without_halo_reads() {
        let t = wavefront(3, 0.0, 4, 4, SimDuration::from_us(10), 1);
        t.validate().unwrap();
        assert_eq!(t.task_count(), 3 * 16);
        for task in t.tasks() {
            let node = task.affinity.expect("every task carries an affinity") as u64;
            let home_band = band(task.params[0].addr);
            for p in &task.params {
                assert_eq!(band(p.addr), home_band, "{}: foreign address", task.id);
            }
            // Bands are consecutive per node.
            assert_eq!(home_band - band_of_node_zero(&t), node);
        }
    }

    fn band_of_node_zero(t: &Trace) -> u64 {
        t.tasks()
            .filter(|t| t.affinity == Some(0))
            .map(|t| band(t.params[0].addr))
            .next()
            .unwrap()
    }

    #[test]
    fn chained_imbalanced_pins_geometric_serial_chains() {
        let t = chained_imbalanced(4, 36, 16, 6.0, SimDuration::from_us(20));
        t.validate().unwrap();
        assert_eq!(t.name, "dist-chains-36c16d-s6.0-4n");
        // Geometric decay: 36, 6, 1, 1 chains of 16 links each.
        let per_node = |n: u32| t.tasks().filter(|task| task.affinity == Some(n)).count();
        assert_eq!(per_node(0), 36 * 16);
        assert_eq!(per_node(1), 6 * 16);
        assert_eq!(per_node(2), 16);
        assert_eq!(per_node(3), 16);
        // Every chain serializes through one inout address in its home band,
        // exactly `depth` tasks deep.
        let mut links = std::collections::HashMap::new();
        for task in t.tasks() {
            assert_eq!(task.params.len(), 1);
            let node = task.affinity.expect("every task carries an affinity") as u64;
            assert_eq!(band(task.params[0].addr), node);
            *links.entry(task.params[0].addr).or_insert(0u64) += 1;
        }
        assert_eq!(links.len(), 36 + 6 + 1 + 1);
        assert!(links.values().all(|&depth| depth == 16));
        // Deterministic without a seed.
        let again = chained_imbalanced(4, 36, 16, 6.0, SimDuration::from_us(20));
        assert_eq!(t.ops, again.ops);
    }

    #[test]
    fn halo_reads_cross_node_bands() {
        let local = wavefront(4, 0.0, 6, 6, SimDuration::from_us(10), 2);
        let coupled = wavefront(4, 1.0, 6, 6, SimDuration::from_us(10), 2);
        assert_eq!(local.task_count(), coupled.task_count());
        let crossing = |t: &Trace| {
            t.tasks()
                .filter(|task| {
                    let home = band(task.params[0].addr);
                    task.params.iter().any(|p| band(p.addr) != home)
                })
                .count()
        };
        assert_eq!(crossing(&local), 0);
        // With remote_fraction = 1 nearly every task carries a halo read (the
        // very first round has no donor writes yet).
        assert!(crossing(&coupled) > coupled.task_count() / 2);
        coupled.validate().unwrap();
    }

    #[test]
    fn single_node_partition_has_no_remote_edges() {
        let t = gaussian(1, 1.0, 20, 3);
        t.validate().unwrap();
        for task in t.tasks() {
            assert_eq!(task.affinity, Some(0));
        }
    }

    #[test]
    fn skew_weights_ramp_from_skew_to_one() {
        let w = skew_weights(4, 3.0);
        assert_eq!(w.len(), 4);
        assert!((w[0] - 3.0).abs() < 1e-12 && (w[3] - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] >= p[1]), "{w:?}");
        assert!(skew_weights(4, 1.0)
            .iter()
            .all(|&x| (x - 1.0).abs() < 1e-12));
        // One node: skew is meaningless, the workload stays at base size.
        assert_eq!(skew_weights(1, 2.0), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "skew must be")]
    fn sub_unit_skew_is_rejected() {
        let _ = skew_weights(4, 0.5);
    }

    #[test]
    fn imbalanced_partition_overloads_node_zero() {
        let t = imbalanced(4, 64, 4.0, SimDuration::from_us(50), 0.0, 9);
        t.validate().unwrap();
        let mut per_node = vec![0u64; 4];
        for task in t.tasks() {
            per_node[task.affinity.unwrap() as usize] += 1;
        }
        assert_eq!(per_node[3], 64);
        assert_eq!(per_node[0], 256, "{per_node:?}");
        assert!(per_node.windows(2).all(|p| p[0] >= p[1]), "{per_node:?}");
        // Balanced at skew = 1.
        let flat = imbalanced(4, 64, 1.0, SimDuration::from_us(50), 0.0, 9);
        assert_eq!(flat.task_count(), 4 * 64);
        // Deterministic.
        let again = imbalanced(4, 64, 4.0, SimDuration::from_us(50), 0.0, 9);
        assert_eq!(t.ops, again.ops);
    }

    #[test]
    fn unhinted_strips_every_affinity_and_nothing_else() {
        let hinted = sparselu(4, 0.3, 11, 0.002);
        let bare = unhinted(&hinted);
        assert_eq!(bare.name, format!("{}-unhinted", hinted.name));
        assert_eq!(bare.task_count(), hinted.task_count());
        assert_eq!(bare.total_work(), hinted.total_work());
        for (a, b) in hinted.tasks().zip(bare.tasks()) {
            assert!(a.affinity.is_some());
            assert!(b.affinity.is_none());
            assert_eq!(a.params, b.params);
            assert_eq!(a.duration, b.duration);
        }
    }

    #[test]
    fn rack_clustered_respects_bands_skew_and_rack_structure() {
        let d = SimDuration::from_us(20);
        // 2 racks x 2 nodes, 3 chains of 4 tasks, first-of-rack 2x skew.
        let t = rack_clustered(2, 2, 3, 4, 2.0, 0.0, 0.0, d, 7);
        t.validate().unwrap();
        let mut per_node = vec![0u64; 4];
        for task in t.tasks() {
            let node = task.affinity.expect("every task carries an affinity") as usize;
            per_node[node] += 1;
            // Uncoupled: every address stays in the node's band.
            for p in &task.params {
                assert_eq!(band(p.addr), node as u64, "{}: foreign address", task.id);
            }
        }
        // Rack heads (nodes 0 and 2) own 2x the chains.
        assert_eq!(per_node, vec![24, 12, 24, 12]);
        // Deterministic.
        let again = rack_clustered(2, 2, 3, 4, 2.0, 0.0, 0.0, d, 7);
        assert_eq!(t.ops, again.ops);
        assert_eq!(t.name, "dist-rack-2x2-s2.0-c0-x0");
    }

    #[test]
    fn rack_clustered_coupling_targets_the_requested_tier() {
        let d = SimDuration::from_us(20);
        let rack_of = |addr: u64| band(addr) / 2; // 2 nodes per rack
        let edge_kinds = |t: &Trace| {
            // (intra-rack cross-node reads, cross-rack reads)
            let mut intra = 0usize;
            let mut cross = 0usize;
            for task in t.tasks() {
                let home = band(task.params[0].addr);
                for p in &task.params {
                    if band(p.addr) != home {
                        if rack_of(p.addr) == home / 2 {
                            intra += 1;
                        } else {
                            cross += 1;
                        }
                    }
                }
            }
            (intra, cross)
        };
        let matched = rack_clustered(2, 2, 4, 4, 1.0, 1.0, 0.0, d, 9);
        let (intra, cross) = edge_kinds(&matched);
        assert!(intra > 0);
        assert_eq!(cross, 0, "cross_rack = 0 must stay inside the racks");

        let fighting = rack_clustered(2, 2, 4, 4, 1.0, 1.0, 1.0, d, 9);
        let (intra, cross) = edge_kinds(&fighting);
        assert_eq!(intra, 0, "cross_rack = 1 must always leave the rack");
        assert!(cross > fighting.task_count() / 2);

        let uncoupled = rack_clustered(2, 2, 4, 4, 1.0, 0.0, 1.0, d, 9);
        let (intra, cross) = edge_kinds(&uncoupled);
        assert_eq!((intra, cross), (0, 0), "no coupling, no halo reads");
    }

    #[test]
    fn rack_clustered_chains_link_through_distinct_addresses() {
        let t = rack_clustered(1, 2, 2, 5, 1.0, 0.0, 0.0, SimDuration::from_us(10), 3);
        // Within a node, outputs are all distinct (an address hash scatters
        // them) while chain inputs reference the previous output.
        let mut outputs = std::collections::HashSet::new();
        for task in t.tasks() {
            for p in task.outputs() {
                assert!(outputs.insert(p.addr), "duplicate output {:#x}", p.addr);
            }
        }
        assert_eq!(t.task_count(), 2 * 2 * 5);
    }

    #[test]
    #[should_panic(expected = "skew must be")]
    fn rack_clustered_rejects_sub_unit_skew() {
        let _ = rack_clustered(2, 2, 2, 2, 0.5, 0.0, 0.0, SimDuration::from_us(1), 1);
    }

    #[test]
    fn remote_fraction_is_monotone_in_halo_count() {
        let count_extra = |r: f64| {
            let t = sparselu(4, r, 5, 0.002);
            t.tasks().filter(|t| t.num_params() > 3).count()
        };
        let none = count_extra(0.0);
        let some = count_extra(0.3);
        let all = count_extra(1.0);
        assert_eq!(none, 0);
        assert!(some > 0 && some < all, "{some} vs {all}");
    }
}
