//! The address → task-graph distribution function (§IV-B).
//!
//! "A key to enhanced utilization and scalability of Nexus# is the distribution
//! algorithm. It should have two essential properties; speed and fairness."
//!
//! The paper's function XORs the lowest 20 address bits in 5-bit blocks and
//! reduces the result modulo the number of task graphs:
//!
//! ```text
//! TaskGraphID = [addr(19..15) ⊕ addr(14..10) ⊕ addr(09..05) ⊕ addr(04..00)]
//!                mod num_task_graphs
//! ```
//!
//! It is computable in one cycle and distributes a typical application's
//! addresses (which differ only in their low 20 bits) evenly over up to 32 task
//! graphs. Alternative policies are provided for the Fig. 3 study and the
//! paper report's distribution ablation; note that any policy must be
//! *address-consistent* (the same address always maps to the same task
//! graph), otherwise insertions and retirements would reach different graphs.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The paper's XOR distribution function over the low 20 address bits.
#[inline]
pub fn xor_hash_tg(addr: u64, num_task_graphs: usize) -> usize {
    debug_assert!(num_task_graphs > 0);
    let fold = ((addr >> 15) & 0x1f) ^ ((addr >> 10) & 0x1f) ^ ((addr >> 5) & 0x1f) ^ (addr & 0x1f);
    (fold as usize) % num_task_graphs
}

/// Selectable distribution policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistributionPolicy {
    /// The paper's 1-cycle XOR folding of the low 20 address bits.
    XorHash,
    /// Straight modulo over the cache-line index (no folding): sensitive to
    /// power-of-two strides in the address stream.
    Modulo,
    /// First-seen round-robin: the first time an address is seen it is assigned
    /// to the next task graph in rotation (the idealized "best case" of
    /// Fig. 3(A)); requires a lookup table, which is why the paper prefers the
    /// stateless XOR hash.
    RoundRobin,
    /// Degenerate policy sending every address to task graph 0 — the
    /// "worst case" serialization of Fig. 3(B).
    SingleGraph,
}

/// A stateful distributor applying a [`DistributionPolicy`] consistently.
#[derive(Debug, Clone)]
pub struct Distributor {
    policy: DistributionPolicy,
    num_task_graphs: usize,
    /// Address assignments for the round-robin policy.
    assignments: HashMap<u64, usize>,
    next_rr: usize,
    /// Items sent to each task graph (fairness statistics — Fig. 3).
    per_tg: Vec<u64>,
}

impl Distributor {
    /// Creates a distributor for `num_task_graphs` task graphs.
    ///
    /// # Panics
    /// Panics if `num_task_graphs` is zero.
    pub fn new(policy: DistributionPolicy, num_task_graphs: usize) -> Self {
        assert!(num_task_graphs > 0, "need at least one task graph");
        Distributor {
            policy,
            num_task_graphs,
            assignments: HashMap::new(),
            next_rr: 0,
            per_tg: vec![0; num_task_graphs],
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> DistributionPolicy {
        self.policy
    }

    /// Number of task graphs.
    pub fn num_task_graphs(&self) -> usize {
        self.num_task_graphs
    }

    /// Maps an address to its task graph and records the choice in the
    /// fairness statistics.
    pub fn pick(&mut self, addr: u64) -> usize {
        let tg = self.pick_readonly(addr);
        // Round-robin must remember first-seen assignments.
        if self.policy == DistributionPolicy::RoundRobin {
            self.assignments.entry(addr).or_insert_with(|| {
                let chosen = self.next_rr;
                self.next_rr = (self.next_rr + 1) % self.num_task_graphs;
                chosen
            });
        }
        self.per_tg[tg] += 1;
        tg
    }

    /// Maps an address to its task graph without recording statistics.
    pub fn pick_readonly(&self, addr: u64) -> usize {
        match self.policy {
            DistributionPolicy::XorHash => xor_hash_tg(addr, self.num_task_graphs),
            DistributionPolicy::Modulo => ((addr >> 6) as usize) % self.num_task_graphs,
            DistributionPolicy::RoundRobin => match self.assignments.get(&addr) {
                Some(&tg) => tg,
                None => self.next_rr,
            },
            DistributionPolicy::SingleGraph => 0,
        }
    }

    /// Items distributed to each task graph so far.
    pub fn load(&self) -> &[u64] {
        &self.per_tg
    }

    /// Load-balance summary over the task graphs.
    pub fn balance(&self) -> nexus_sim::stats::LoadBalance {
        nexus_sim::stats::LoadBalance::new(self.per_tg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_trace::AddrRegion;

    #[test]
    fn xor_hash_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 6, 8, 32] {
            for i in 0..1000u64 {
                let addr = 0x7f3a_0000_0000 + i * 64;
                let tg = xor_hash_tg(addr, n);
                assert!(tg < n);
                assert_eq!(tg, xor_hash_tg(addr, n), "must be deterministic");
            }
        }
    }

    #[test]
    fn xor_hash_covers_every_task_graph_on_uniform_keys() {
        // No task-graph unit may starve: a uniform cache-line-strided keyset
        // must hit all N task graphs for every supported N.
        for n in [2usize, 3, 4, 6, 8, 16, 32] {
            let region = AddrRegion::benchmark_array(0);
            let mut hits = vec![0usize; n];
            for i in 0..4096 {
                hits[xor_hash_tg(region.addr(i), n)] += 1;
            }
            assert!(
                hits.iter().all(|&h| h > 0),
                "{n} TGs: empty task graph in {hits:?}"
            );
        }
    }

    #[test]
    fn xor_hash_spreads_strided_addresses_evenly() {
        // The paper's observation: application addresses differ only in the low
        // 20 bits. A cache-line-strided array must spread well over 2..=8 TGs.
        for n in [2usize, 4, 6, 8] {
            let region = AddrRegion::benchmark_array(3);
            let mut d = Distributor::new(DistributionPolicy::XorHash, n);
            for i in 0..4096 {
                d.pick(region.addr(i));
            }
            let imbalance = d.balance().imbalance();
            assert!(
                imbalance < 1.5,
                "{n} TGs: imbalance {imbalance} for the XOR hash"
            );
        }
    }

    #[test]
    fn single_graph_policy_is_the_worst_case() {
        let mut d = Distributor::new(DistributionPolicy::SingleGraph, 4);
        for i in 0..100u64 {
            assert_eq!(d.pick(i * 64), 0);
        }
        assert!((d.balance().imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_is_perfectly_fair_and_consistent() {
        let mut d = Distributor::new(DistributionPolicy::RoundRobin, 4);
        let region = AddrRegion::benchmark_array(1);
        let mut first: Vec<usize> = Vec::new();
        for i in 0..64 {
            first.push(d.pick(region.addr(i)));
        }
        // Revisiting the same addresses must give the same task graphs.
        for i in 0..64 {
            assert_eq!(d.pick(region.addr(i)), first[i as usize]);
        }
        assert!((d.balance().imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn modulo_policy_can_be_unfair_on_power_of_two_strides() {
        // A 256-byte stride over 4 TGs via plain modulo hits only one TG;
        // the XOR hash does better on the same stream.
        let mut modulo = Distributor::new(DistributionPolicy::Modulo, 4);
        let mut xor = Distributor::new(DistributionPolicy::XorHash, 4);
        for i in 0..1024u64 {
            let addr = 0x1000 + i * 256;
            modulo.pick(addr);
            xor.pick(addr);
        }
        assert!(modulo.balance().imbalance() > 3.9);
        assert!(xor.balance().imbalance() < 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one task graph")]
    fn zero_task_graphs_rejected() {
        let _ = Distributor::new(DistributionPolicy::XorHash, 0);
    }
}
