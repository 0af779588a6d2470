//! Property tests: the hardware-style [`DependencyTracker`] must agree with the
//! [`ReferenceGraph`] oracle on readiness for arbitrary interleavings of task
//! submissions and completions, and for all the paper's workload generators.

use nexus_sim::{SimDuration, SimRng};
use nexus_taskgraph::{AccessId, DependencyTracker, ReferenceGraph};
use nexus_trace::generators::{micro, Benchmark, MbGrouping};
use nexus_trace::{TaskDescriptor, TaskId, Trace};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Drives a trace through the tracker, mirroring what a task-graph unit does:
/// insert all parameters at submission; once all parameters are inserted the
/// task is ready iff no parameter blocked; on completion, retire all parameters
/// and collect releases. Readiness order is compared against the oracle.
struct TrackerHarness {
    tracker: DependencyTracker,
    /// Remaining blocked-parameter count per task.
    blocked_params: HashMap<TaskId, usize>,
    /// The handle of each submitted task's access per parameter.
    accesses: HashMap<TaskId, Vec<AccessId>>,
    ready: BTreeSet<TaskId>,
}

impl TrackerHarness {
    fn new() -> Self {
        TrackerHarness {
            tracker: DependencyTracker::with_default_geometry(),
            blocked_params: HashMap::new(),
            accesses: HashMap::new(),
            ready: BTreeSet::new(),
        }
    }

    fn submit(&mut self, task: &TaskDescriptor) {
        let mut blocked = 0;
        let mut accesses = Vec::new();
        for p in &task.params {
            let o = self.tracker.insert_param(task.id, p.addr, p.dir);
            accesses.push(o.access);
            if o.blocked {
                blocked += 1;
            }
        }
        self.accesses.insert(task.id, accesses);
        if blocked == 0 {
            self.ready.insert(task.id);
        } else {
            self.blocked_params.insert(task.id, blocked);
        }
    }

    fn finish(&mut self, task: &TaskDescriptor) {
        self.ready.remove(&task.id);
        let accesses = self
            .accesses
            .remove(&task.id)
            .expect("finished task was submitted");
        let mut released_here = Vec::new();
        for (p, access) in task.params.iter().zip(accesses) {
            released_here.clear();
            self.tracker
                .retire_param(task.id, p.addr, access, &mut released_here);
            for &released in &released_here {
                let remaining = self
                    .blocked_params
                    .get_mut(&released)
                    .expect("released task must be blocked");
                *remaining -= 1;
                if *remaining == 0 {
                    self.blocked_params.remove(&released);
                    self.ready.insert(released);
                }
            }
        }
    }
}

struct OracleHarness {
    graph: ReferenceGraph,
    ready: BTreeSet<TaskId>,
}

impl OracleHarness {
    fn new() -> Self {
        OracleHarness {
            graph: ReferenceGraph::new(),
            ready: BTreeSet::new(),
        }
    }

    fn submit(&mut self, task: &TaskDescriptor) {
        if self.graph.insert(task) {
            self.ready.insert(task.id);
        }
    }

    fn finish(&mut self, task: &TaskDescriptor) {
        self.ready.remove(&task.id);
        for t in self.graph.retire(task.id) {
            self.ready.insert(t);
        }
    }
}

/// Runs a trace through both implementations with a deterministic pseudo-random
/// execution schedule and asserts the ready sets agree after every step.
/// Returns the number of tasks executed.
fn check_equivalence(trace: &Trace, completion_seed: u64) -> usize {
    let tasks: HashMap<TaskId, &TaskDescriptor> = trace.tasks().map(|t| (t.id, t)).collect();
    let mut tracker = TrackerHarness::new();
    let mut oracle = OracleHarness::new();
    let mut rng = nexus_sim::SimRng::new(completion_seed);
    let mut submitted: VecDeque<&TaskDescriptor> = trace.tasks().collect();
    let mut executed = 0usize;
    let mut outstanding = 0usize;

    loop {
        // Interleave submissions and completions pseudo-randomly, always
        // submitting in program order.
        let can_submit = !submitted.is_empty();
        let can_finish = !tracker.ready.is_empty();
        if !can_submit && !can_finish {
            break;
        }
        let do_submit = can_submit && (!can_finish || rng.chance(0.6) || outstanding < 2);
        if do_submit {
            let t = submitted.pop_front().unwrap();
            tracker.submit(t);
            oracle.submit(t);
            outstanding += 1;
        } else {
            // Pick a pseudo-random ready task (same choice for both since the
            // ready sets must be identical).
            let ready: Vec<TaskId> = tracker.ready.iter().copied().collect();
            let pick = ready[rng.next_below(ready.len() as u64) as usize];
            assert!(
                oracle.ready.contains(&pick),
                "task {pick} ready in tracker but not in oracle"
            );
            let t = tasks[&pick];
            tracker.finish(t);
            oracle.finish(t);
            executed += 1;
            outstanding -= 1;
        }
        assert_eq!(
            tracker.ready, oracle.ready,
            "ready sets diverged after {executed} completions"
        );
    }
    assert_eq!(
        executed,
        trace.task_count(),
        "not all tasks executed: deadlock?"
    );
    assert_eq!(
        tracker.tracker.live_addresses(),
        0,
        "leaked address entries"
    );
    executed
}

/// Generates a random trace: up to `max_tasks` tasks over a small address pool
/// with random directions — maximally adversarial for dependency tracking.
/// Generation uses the workspace's own deterministic [`SimRng`] (the build
/// environment has no crates.io access, so `proptest` is not available); every
/// case is reproducible from its printed seed.
fn arb_trace(rng: &mut SimRng, max_tasks: usize, addr_pool: u64) -> Trace {
    let mut trace = Trace::new("proptest");
    for i in 0..rng.range(1, max_tasks as u64) {
        let mut b = TaskDescriptor::builder(i).duration(SimDuration::from_us(rng.range(1, 100)));
        let mut used = std::collections::HashSet::new();
        for _ in 0..rng.range(1, 5) {
            let addr = 0x1000 + rng.next_below(addr_pool) * 64;
            if !used.insert(addr) {
                continue; // avoid duplicate addresses within one task
            }
            b = match rng.next_below(3) {
                0 => b.input(addr),
                1 => b.output(addr),
                _ => b.inout(addr),
            };
        }
        trace.submit(b.build());
    }
    trace
}

const CASES: u64 = 64;

#[test]
fn tracker_matches_oracle_on_random_traces() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(0x07AC1E + seed);
        let trace = arb_trace(&mut rng, 120, 12);
        check_equivalence(&trace, rng.next_u64());
    }
}

#[test]
fn tracker_matches_oracle_on_contended_single_address() {
    // With only 1-2 distinct addresses every task conflicts with every
    // other: stresses WAW/WAR chains and kick-off list handling.
    for seed in 0..CASES {
        let mut rng = SimRng::new(0xC017E17 + seed);
        let trace = arb_trace(&mut rng, 80, 2);
        check_equivalence(&trace, rng.next_u64());
    }
}

#[test]
fn tracker_matches_oracle_on_paper_workloads() {
    let traces = vec![
        Benchmark::CRay.trace_scaled(1, 0.05),
        Benchmark::RotCc.trace_scaled(2, 0.02),
        Benchmark::SparseLu.trace_scaled(3, 0.01),
        Benchmark::Streamcluster.trace_scaled(4, 0.003),
        Benchmark::H264Dec(MbGrouping::G1x1).trace_scaled(5, 0.01),
        Benchmark::H264Dec(MbGrouping::G8x8).trace_scaled(5, 0.1),
        Benchmark::Gaussian { dim: 40 }.trace_scaled(6, 1.0),
    ];
    for trace in traces {
        let n = check_equivalence(&trace, 0xDEAD_BEEF);
        assert!(n > 0, "{} executed no tasks", trace.name);
    }
}

#[test]
fn tracker_matches_oracle_on_micro_patterns() {
    for trace in [
        micro::five_independent_tasks(),
        micro::chain(50, SimDuration::from_us(1)),
        micro::fork_join(32, SimDuration::from_us(1)),
        micro::wavefront(12, 20, SimDuration::from_us(1)),
    ] {
        check_equivalence(&trace, 7);
    }
}
