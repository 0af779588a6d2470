//! The set-associative address table.
//!
//! Both Nexus++ and each Nexus# task graph store per-address tracking state in
//! a "set-associative cache-like structure" (§III, §IV-C): the low bits of the
//! (cache-line-aligned) address select a set, and a small number of ways per
//! set hold the active address entries. When a set is full, the design falls
//! back to dummy/overflow entries, which cost extra cycles to reach; the table
//! reports these events so the timing models can charge for them and the
//! statistics can show how often they happen.
//!
//! The model keeps every live entry in one map, next to its [`Placement`],
//! and a set is only the count of its ways in use: a new entry takes a way
//! while its set has one free and goes to the overflow area otherwise, and an
//! entry never moves, so freeing a way does not promote an overflow entry.

use nexus_sim::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Geometry of a set-associative table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetAssocConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Ways (entries) per set.
    pub ways: usize,
    /// Low address bits ignored when indexing (cache-line offset bits).
    pub line_offset_bits: u32,
}

impl Default for SetAssocConfig {
    fn default() -> Self {
        // 512 sets x 4 ways = 2048 simultaneously tracked addresses per task
        // graph, comfortably above the working sets of the paper's benchmarks.
        SetAssocConfig {
            sets: 512,
            ways: 4,
            line_offset_bits: 6,
        }
    }
}

impl SetAssocConfig {
    /// Total entry capacity before overflow.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for an address.
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_offset_bits) as usize) & (self.sets - 1)
    }

    /// Validates the geometry.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(format!(
                "sets must be a non-zero power of two, got {}",
                self.sets
            ));
        }
        if self.ways == 0 {
            return Err("ways must be non-zero".to_string());
        }
        Ok(())
    }
}

/// Where an entry lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// In its home set.
    Way,
    /// In the overflow (dummy-entry) area because the home set was full.
    Overflow,
}

/// Occupancy and event statistics of a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// Entries currently resident in ways.
    pub resident: usize,
    /// Entries currently in the overflow area.
    pub overflowed: usize,
    /// Total insertions.
    pub insertions: u64,
    /// Insertions that had to use the overflow area.
    pub overflow_insertions: u64,
    /// Lookups that found their entry in the overflow area.
    pub overflow_hits: u64,
    /// Peak number of simultaneously live entries (ways + overflow).
    pub peak_live: usize,
}

/// A set-associative table keyed by 48-bit addresses with an overflow area.
#[derive(Debug, Clone)]
pub struct SetAssocTable<V> {
    config: SetAssocConfig,
    /// Every live entry, with where it lives.
    entries: FxHashMap<u64, (V, Placement)>,
    /// Ways in use per set.
    ways_used: Vec<usize>,
    stats: TableStats,
}

impl<V> SetAssocTable<V> {
    /// Creates an empty table with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is invalid.
    pub fn new(config: SetAssocConfig) -> Self {
        config.validate().expect("invalid set-associative geometry");
        SetAssocTable {
            config,
            entries: FxHashMap::default(),
            ways_used: vec![0; config.sets],
            stats: TableStats::default(),
        }
    }

    /// Table geometry.
    pub fn config(&self) -> &SetAssocConfig {
        &self.config
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Number of live entries (ways + overflow).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry, reporting where it was found.
    pub fn get(&self, addr: u64) -> Option<(&V, Placement)> {
        self.entries.get(&addr).map(|(v, p)| (v, *p))
    }

    /// Mutable lookup, reporting where the entry was found and counting
    /// overflow hits.
    pub fn get_mut(&mut self, addr: u64) -> Option<(&mut V, Placement)> {
        let (v, placement) = self.entries.get_mut(&addr)?;
        if *placement == Placement::Overflow {
            self.stats.overflow_hits += 1;
        }
        Some((v, *placement))
    }

    /// Returns the entry for `addr`, inserting a fresh one created by `init` if
    /// absent. Reports the placement and whether a new entry was allocated.
    pub fn get_or_insert_with(
        &mut self,
        addr: u64,
        init: impl FnOnce() -> V,
    ) -> (&mut V, Placement, bool) {
        match self.entries.entry(addr) {
            Entry::Occupied(e) => {
                let (v, placement) = e.into_mut();
                if *placement == Placement::Overflow {
                    self.stats.overflow_hits += 1;
                }
                (v, *placement, false)
            }
            Entry::Vacant(e) => {
                let stats = &mut self.stats;
                stats.insertions += 1;
                let used = &mut self.ways_used[self.config.set_of(addr)];
                let placement = if *used < self.config.ways {
                    *used += 1;
                    stats.resident += 1;
                    Placement::Way
                } else {
                    stats.overflow_insertions += 1;
                    stats.overflowed += 1;
                    Placement::Overflow
                };
                stats.peak_live = stats.peak_live.max(stats.resident + stats.overflowed);
                let (v, _) = e.insert((init(), placement));
                (v, placement, true)
            }
        }
    }

    /// Removes the entry for `addr`, returning its value. Removing a way entry
    /// frees that way for a later insertion.
    pub fn remove(&mut self, addr: u64) -> Option<V> {
        let (v, placement) = self.entries.remove(&addr)?;
        match placement {
            Placement::Way => {
                self.ways_used[self.config.set_of(addr)] -= 1;
                self.stats.resident -= 1;
            }
            Placement::Overflow => self.stats.overflowed -= 1,
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sim::SimRng;
    use std::collections::HashMap;

    /// The oracle: the table with one `Vec` of ways per set and a map for the
    /// overflow area, searched in that order.
    struct VecTable<V> {
        config: SetAssocConfig,
        sets: Vec<Vec<(u64, V)>>,
        overflow: HashMap<u64, V>,
        stats: TableStats,
    }

    impl<V> VecTable<V> {
        fn new(config: SetAssocConfig) -> Self {
            VecTable {
                config,
                sets: (0..config.sets).map(|_| Vec::new()).collect(),
                overflow: HashMap::new(),
                stats: TableStats::default(),
            }
        }

        fn get(&self, addr: u64) -> Option<(&V, Placement)> {
            let set = &self.sets[self.config.set_of(addr)];
            if let Some((_, v)) = set.iter().find(|(a, _)| *a == addr) {
                return Some((v, Placement::Way));
            }
            self.overflow.get(&addr).map(|v| (v, Placement::Overflow))
        }

        fn get_mut(&mut self, addr: u64) -> Option<(&mut V, Placement)> {
            let set = &mut self.sets[self.config.set_of(addr)];
            if let Some(i) = set.iter().position(|(a, _)| *a == addr) {
                return Some((&mut set[i].1, Placement::Way));
            }
            let v = self.overflow.get_mut(&addr)?;
            self.stats.overflow_hits += 1;
            Some((v, Placement::Overflow))
        }

        fn get_or_insert_with(
            &mut self,
            addr: u64,
            init: impl FnOnce() -> V,
        ) -> (&mut V, Placement, bool) {
            let set = &mut self.sets[self.config.set_of(addr)];
            if let Some(i) = set.iter().position(|(a, _)| *a == addr) {
                return (&mut set[i].1, Placement::Way, false);
            }
            let s = &mut self.stats;
            if self.overflow.contains_key(&addr) {
                s.overflow_hits += 1;
                let v = self.overflow.get_mut(&addr).unwrap();
                return (v, Placement::Overflow, false);
            }
            s.insertions += 1;
            s.peak_live = s.peak_live.max(s.resident + s.overflowed + 1);
            if set.len() < self.config.ways {
                s.resident += 1;
                set.push((addr, init()));
                return (&mut set.last_mut().unwrap().1, Placement::Way, true);
            }
            s.overflow_insertions += 1;
            s.overflowed += 1;
            let v = self.overflow.entry(addr).or_insert_with(init);
            (v, Placement::Overflow, true)
        }

        fn remove(&mut self, addr: u64) -> Option<V> {
            let set = &mut self.sets[self.config.set_of(addr)];
            if let Some(i) = set.iter().position(|(a, _)| *a == addr) {
                self.stats.resident -= 1;
                return Some(set.swap_remove(i).1);
            }
            let v = self.overflow.remove(&addr)?;
            self.stats.overflowed -= 1;
            Some(v)
        }
    }

    /// Runs one seeded case of random calls on a small geometry and panics,
    /// naming the seed, at the first output that differs from the oracle's.
    /// Returns the table's final statistics.
    fn check_against_vec_table(seed: u64) -> TableStats {
        let mut rng = SimRng::new(seed);
        let config = SetAssocConfig {
            sets: 1 << rng.next_below(3),
            ways: rng.range(1, 4) as usize,
            line_offset_bits: 6,
        };
        // Twelve lines, two addresses on each: every set is contended, and
        // two addresses on one line share a set but not an entry.
        let addrs: Vec<u64> = (0..24)
            .map(|i| 0x1000 + (i / 2) * 64 + (i % 2) * 8)
            .collect();
        let mut table = SetAssocTable::new(config);
        let mut oracle = VecTable::new(config);
        for step in 0..300u64 {
            let addr = addrs[rng.next_below(addrs.len() as u64) as usize];
            let what = match rng.next_below(4) {
                0 => {
                    let got = table.get_or_insert_with(addr, || step);
                    let got = (*got.0, got.1, got.2);
                    let want = oracle.get_or_insert_with(addr, || step);
                    assert_eq!(
                        got,
                        (*want.0, want.1, want.2),
                        "seed {seed:#x}, step {step}"
                    );
                    "get_or_insert_with"
                }
                1 => {
                    let got = table.get(addr).map(|(v, p)| (*v, p));
                    let want = oracle.get(addr).map(|(v, p)| (*v, p));
                    assert_eq!(got, want, "seed {seed:#x}, step {step}: get {addr:#x}");
                    "get"
                }
                2 => {
                    let got = table.get_mut(addr).map(|(v, p)| {
                        *v += 1000;
                        (*v, p)
                    });
                    let want = oracle.get_mut(addr).map(|(v, p)| {
                        *v += 1000;
                        (*v, p)
                    });
                    assert_eq!(got, want, "seed {seed:#x}, step {step}: get_mut {addr:#x}");
                    "get_mut"
                }
                _ => {
                    let got = table.remove(addr);
                    let want = oracle.remove(addr);
                    assert_eq!(got, want, "seed {seed:#x}, step {step}: remove {addr:#x}");
                    "remove"
                }
            };
            assert_eq!(
                (table.stats(), table.len()),
                (
                    oracle.stats,
                    oracle.stats.resident + oracle.stats.overflowed
                ),
                "seed {seed:#x}, step {step}: stats after {what} {addr:#x}"
            );
        }
        table.stats()
    }

    #[test]
    fn every_call_matches_the_per_set_vec_table() {
        let (mut overflowed, mut hits) = (0, 0);
        for seed in 0..600 {
            let stats = check_against_vec_table(0x7AB1_E000 + seed);
            overflowed += stats.overflow_insertions;
            hits += stats.overflow_hits;
        }
        println!("600 cases: {overflowed} overflow insertions, {hits} overflow hits");
        assert!(hits > 0, "no call reached an overflow entry");
    }

    fn tiny() -> SetAssocTable<u32> {
        SetAssocTable::new(SetAssocConfig {
            sets: 2,
            ways: 2,
            line_offset_bits: 6,
        })
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut t = tiny();
        let (v, p, fresh) = t.get_or_insert_with(0x1000, || 7);
        assert_eq!((*v, p, fresh), (7, Placement::Way, true));
        let (v, p, fresh) = t.get_or_insert_with(0x1000, || 99);
        assert_eq!((*v, p, fresh), (7, Placement::Way, false));
        *v = 8;
        assert_eq!(t.get(0x1000).unwrap().0, &8);
        assert_eq!(t.remove(0x1000), Some(8));
        assert!(t.get(0x1000).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn set_conflicts_fall_back_to_overflow() {
        let mut t = tiny();
        // Addresses 0x0, 0x80, 0x100, 0x180 with 64-byte lines and 2 sets:
        // line indices 0,2,4,6 -> all even -> set 0. Two fit, the rest overflow.
        let addrs = [0x0u64, 0x80, 0x100, 0x180];
        let mut placements = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            let (_, p, fresh) = t.get_or_insert_with(a, || i as u32);
            assert!(fresh);
            placements.push(p);
        }
        assert_eq!(placements[0], Placement::Way);
        assert_eq!(placements[1], Placement::Way);
        assert_eq!(placements[2], Placement::Overflow);
        assert_eq!(placements[3], Placement::Overflow);
        let s = t.stats();
        assert_eq!(s.insertions, 4);
        assert_eq!(s.overflow_insertions, 2);
        assert_eq!(s.resident, 2);
        assert_eq!(s.overflowed, 2);
        assert_eq!(s.peak_live, 4);
        // Lookups in the overflow area are counted.
        assert_eq!(t.get_mut(0x100).unwrap().1, Placement::Overflow);
        assert!(t.stats().overflow_hits >= 1);
        // Removing a way entry frees the slot for a later insertion.
        t.remove(0x0);
        let (_, p, _) = t.get_or_insert_with(0x200, || 9);
        assert_eq!(p, Placement::Way);
    }

    #[test]
    fn default_config_is_sane() {
        let c = SetAssocConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.capacity(), 2048);
        // Two addresses on the same line map to the same set.
        assert_eq!(c.set_of(0x1000), c.set_of(0x1020));
        assert_ne!(c.set_of(0x1000), c.set_of(0x1040));
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(SetAssocConfig {
            sets: 3,
            ways: 2,
            line_offset_bits: 6
        }
        .validate()
        .is_err());
        assert!(SetAssocConfig {
            sets: 4,
            ways: 0,
            line_offset_bits: 6
        }
        .validate()
        .is_err());
    }
}
