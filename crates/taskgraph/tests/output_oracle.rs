//! Differential test: every output of [`DependencyTracker`] — not only which
//! tasks become ready — must equal that of a list-based tracker that keeps,
//! per outstanding access, the list of tasks waiting for it, and per waiting
//! (task, address) the number of accesses it still waits for. The timing
//! models charge cycles for `waiters_scanned`, `kickoff_segment` and overflow
//! placement, which readiness alone does not show.
//!
//! Tasks of 1–3 parameters on 1–4 addresses are submitted in order and
//! retired in any order the managers allow: a task retires only after every
//! one of its parameters was released. Every case is reproducible from its
//! printed seed.

use nexus_sim::SimRng;
use nexus_taskgraph::assoc::{Placement, SetAssocConfig, SetAssocTable, TableStats};
use nexus_taskgraph::tracker::TrackerStats;
use nexus_taskgraph::{AccessId, DependencyTracker};
use nexus_trace::{Direction, TaskId};
use std::collections::HashMap;

/// One outstanding access of the list-based tracker.
struct Access {
    task: TaskId,
    writes: bool,
    /// Tasks whose parameter on this address waits for this access.
    dependents: Vec<TaskId>,
}

#[derive(Default)]
struct Addr {
    /// Outstanding accesses in insertion order.
    accesses: Vec<Access>,
    kickoff_len: usize,
    kickoff_peak: usize,
}

/// The list-based tracker: `(blocked, new_entry, overflow, kickoff_segment)`
/// per insertion, `(released, entry_freed, waiters_scanned)` per retirement.
struct ListTracker {
    table: SetAssocTable<Addr>,
    /// Remaining blockers per (waiting task, address).
    waiting: HashMap<(TaskId, u64), usize>,
    stats: TrackerStats,
}

impl ListTracker {
    fn insert(&mut self, task: TaskId, addr: u64, writes: bool) -> (bool, bool, bool, usize) {
        self.stats.params_inserted += 1;
        let (st, placement, new_entry) = self.table.get_or_insert_with(addr, Addr::default);
        let blockers: Vec<usize> = if writes {
            (0..st.accesses.len()).collect()
        } else {
            st.accesses
                .iter()
                .rposition(|a| a.writes)
                .into_iter()
                .collect()
        };
        let mut segment = 0;
        if !blockers.is_empty() {
            self.stats.params_blocked += 1;
            for &b in &blockers {
                st.accesses[b].dependents.push(task);
            }
            st.kickoff_len += 1;
            st.kickoff_peak = st.kickoff_peak.max(st.kickoff_len);
            segment = st.kickoff_len.div_ceil(8);
            self.waiting.insert((task, addr), blockers.len());
        }
        st.accesses.push(Access {
            task,
            writes,
            dependents: Vec::new(),
        });
        self.stats.max_kickoff_len = self.stats.max_kickoff_len.max(st.kickoff_peak);
        self.stats.max_accesses_per_addr = self.stats.max_accesses_per_addr.max(st.accesses.len());
        let overflow = placement == Placement::Overflow;
        (!blockers.is_empty(), new_entry, overflow, segment)
    }

    fn retire(&mut self, task: TaskId, addr: u64) -> (Vec<TaskId>, bool, usize) {
        self.stats.params_retired += 1;
        let (st, _) = self.table.get_mut(addr).expect("retired address is live");
        let pos = st.accesses.iter().position(|a| a.task == task).unwrap();
        let access = st.accesses.remove(pos);
        let mut released = Vec::new();
        for &dep in &access.dependents {
            let remaining = self.waiting.get_mut(&(dep, addr)).unwrap();
            *remaining -= 1;
            if *remaining == 0 {
                self.waiting.remove(&(dep, addr));
                st.kickoff_len -= 1;
                released.push(dep);
            }
        }
        let entry_freed = st.accesses.is_empty();
        if entry_freed {
            self.table.remove(addr);
        }
        (released, entry_freed, access.dependents.len())
    }

    fn kickoff_len(&self, addr: u64) -> usize {
        self.table.get(addr).map_or(0, |(s, _)| s.kickoff_len)
    }

    fn outstanding(&self, addr: u64) -> usize {
        self.table.get(addr).map_or(0, |(s, _)| s.accesses.len())
    }

    fn table_stats(&self) -> TableStats {
        self.table.stats()
    }
}

/// A submitted task: its parameters with the tracker's handles, and how many
/// of them still wait.
struct Submitted {
    params: Vec<(u64, AccessId)>,
    waiting: usize,
}

/// What a case exercised: the largest kick-off segment and waiter walk, and
/// whether an entry overflowed.
#[derive(Default)]
struct Reach {
    segment: usize,
    scanned: usize,
    overflow: bool,
}

/// Runs one seeded case of `tasks` tasks and panics, naming the seed, at the
/// first output that differs.
fn check_case(seed: u64, tasks: u64, reach: &mut Reach) {
    let mut rng = SimRng::new(seed);
    let addrs: Vec<u64> = (0..rng.range(1, 5)).map(|i| 0x4000 + i * 64).collect();
    // Two sets of one way overflow from the third live address on.
    let ways = rng.range(1, 3) as usize;
    let geometry = SetAssocConfig {
        sets: 2,
        ways,
        line_offset_bits: 6,
    };
    let mut tracker = DependencyTracker::new(geometry);
    let mut oracle = ListTracker {
        table: SetAssocTable::new(geometry),
        waiting: HashMap::new(),
        stats: TrackerStats::default(),
    };
    let mut submitted: HashMap<TaskId, Submitted> = HashMap::new();
    let mut ready: Vec<TaskId> = Vec::new();
    let mut released = Vec::new();
    let mut next = 0;

    let check_state = |tracker: &DependencyTracker, oracle: &ListTracker, step: &str| {
        for &addr in &addrs {
            assert_eq!(
                (
                    tracker.kickoff_len(addr),
                    tracker.outstanding_accesses(addr)
                ),
                (oracle.kickoff_len(addr), oracle.outstanding(addr)),
                "seed {seed:#x}, {step}: kick-off length and outstanding accesses of {addr:#x}"
            );
        }
        assert_eq!(
            tracker.stats(),
            oracle.stats,
            "seed {seed:#x}, {step}: stats"
        );
        assert_eq!(
            tracker.table_stats(),
            oracle.table_stats(),
            "seed {seed:#x}, {step}: table stats"
        );
    };

    while next < tasks || !ready.is_empty() {
        if next < tasks && (ready.is_empty() || rng.chance(0.55)) {
            let task = TaskId(next);
            next += 1;
            let mut pool = addrs.clone();
            let mut params = Vec::new();
            let mut waiting = 0;
            for _ in 0..rng.range(1, 4).min(pool.len() as u64) {
                let addr = pool.swap_remove(rng.next_below(pool.len() as u64) as usize);
                let dir =
                    [Direction::In, Direction::Out, Direction::InOut][rng.next_below(3) as usize];
                let got = tracker.insert_param(task, addr, dir);
                let want = oracle.insert(task, addr, dir.writes());
                let step = format!("insert {task} {dir} {addr:#x}");
                assert_eq!(
                    (
                        got.blocked,
                        got.new_entry,
                        got.overflow,
                        got.kickoff_segment
                    ),
                    want,
                    "seed {seed:#x}, {step}: (blocked, new_entry, overflow, kickoff_segment)"
                );
                check_state(&tracker, &oracle, &step);
                reach.segment = reach.segment.max(got.kickoff_segment);
                reach.overflow |= got.overflow;
                params.push((addr, got.access));
                waiting += usize::from(got.blocked);
            }
            if waiting == 0 {
                ready.push(task);
            }
            submitted.insert(task, Submitted { params, waiting });
        } else {
            let task = ready.swap_remove(rng.next_below(ready.len() as u64) as usize);
            let mut params = submitted.remove(&task).unwrap().params;
            // Any parameter order: the tracker must not care.
            rng.shuffle(&mut params);
            for (addr, access) in params {
                released.clear();
                let got = tracker.retire_param(task, addr, access, &mut released);
                let want = oracle.retire(task, addr);
                let step = format!("retire {task} {addr:#x}");
                assert_eq!(
                    (&released, got.entry_freed, got.waiters_scanned),
                    (&want.0, want.1, want.2),
                    "seed {seed:#x}, {step}: (released, entry_freed, waiters_scanned)"
                );
                check_state(&tracker, &oracle, &step);
                reach.scanned = reach.scanned.max(got.waiters_scanned);
                for waiter in &released {
                    let s = submitted.get_mut(waiter).expect("released task is waiting");
                    s.waiting -= 1;
                    if s.waiting == 0 {
                        ready.push(*waiter);
                    }
                }
            }
        }
    }
    assert!(submitted.is_empty(), "seed {seed:#x}: tasks never released");
    assert_eq!(
        tracker.live_addresses(),
        0,
        "seed {seed:#x}: leaked entries"
    );
}

#[test]
fn every_output_matches_the_list_based_tracker() {
    let mut reach = Reach::default();
    for seed in 0..600 {
        check_case(0x0DD5_EED0 + seed, 200, &mut reach);
    }
    // The cases reach chained kick-off segments, long waiter walks and the
    // overflow area.
    assert!(
        reach.segment >= 2,
        "largest kick-off segment {}",
        reach.segment
    );
    assert!(reach.scanned >= 8, "longest waiter walk {}", reach.scanned);
    assert!(reach.overflow, "no entry overflowed");
}
