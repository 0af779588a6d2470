//! The multi-node cluster simulation.
//!
//! [`ClusterDriver`] owns one task manager and one [`WorkerPool`] per node and
//! replays a trace on the whole cluster:
//!
//! * the **master** (on node 0) streams trace operations in program order
//!   (the [`MasterSm`] state machine shared with the single-node host driver).
//!   Each task is placed once, when the master commits its submission, by
//!   the configured [`PolicyKind`](nexus_sched::PolicyKind) (affinity hint +
//!   XOR distribution function by default) through the same [`DepScanner`]
//!   the live runtime uses, and its descriptor is forwarded over the
//!   interconnect (`transfer_words()` words, as over PCIe in the single-chip
//!   design). Nothing about a task exists in the driver before that commit.
//!   Messages traverse the fabric hop by hop through the event loop (one
//!   relay event per intermediate hop), so every link is acquired at the
//!   message's physical arrival time and shared trunks of tiered fabrics
//!   contend causally, in arrival order;
//! * each node's **input processor** hands arrived descriptors to the local
//!   manager strictly in arrival order (the links are FIFO, so this is
//!   per-node program order — local dependency semantics are preserved by the
//!   manager exactly as in the single-node testbench);
//! * **cross-node dependencies** (a task whose last-writer producer lives on
//!   another node) are enforced by the driver: at commit the task subscribes
//!   to each such producer (or, if it already retired, is notified at once),
//!   and it is held in its node's pending queue until every producer's
//!   retirement notification ([`NOTIFY_WORDS`] words) has crossed the
//!   interconnect;
//! * every retirement is also forwarded to the master, which implements
//!   `taskwait` / `taskwait on` over the cluster-wide retirement count;
//! * **migration** moves pending descriptors from a loaded node to an idle
//!   one, in two kinds ([`MoveKind`]) that share one path. A *steal* (with a
//!   [`StealKind`](nexus_sched::StealKind) enabled) takes the victim's
//!   youngest *eligible* descriptors: every last-writer producer has
//!   retired, so the task can run anywhere. A *reclaim* (in the `reclaim`
//!   and `full` feedback modes) takes its youngest dependence-*blocked*
//!   descriptors, work a steal can never reach. After every event, first
//!   for steals and then for reclaims, each idle node (free workers, empty
//!   ready and input queues, nothing of its own in flight) sends a request
//!   to the victim [`MoveKind::choose_victim`] picks, and the victim grants
//!   a batch ([`MoveKind::batch`]) or replies empty-handed. Each granted
//!   descriptor pays the full re-forwarding cost on the
//!   victim→thief link and is re-homed at the thief: consumers that would
//!   have resolved its dependence inside the victim's manager are
//!   re-subscribed to a cross-node retirement notification, and the task is
//!   subscribed to each of its own still-unretired producers. On arrival an
//!   eligible descriptor enters the thief's input queue at the *front*
//!   (behind the thief's own blocked head it would break the queues'
//!   topological order and can deadlock dependence-heavy traces); any other
//!   is *parked* outside the queue until its last producer notification
//!   lands, then enters at the front. A stolen descriptor is always eligible
//!   on arrival;
//! * with runtime **feedback** enabled
//!   ([`ClusterConfig::feedback`](crate::ClusterConfig::feedback), a
//!   [`FeedbackKind`](nexus_sched::FeedbackKind)), every
//!   retirement notification to the master additionally carries the
//!   retiring node's live load digest ([`LoadView`]) — no new message types
//!   on the happy path. The master folds the digests into a [`LoadTracker`]
//!   consulted when it places a task (`place` mode, through the feedback
//!   rule of [`PolicyKind::place`](nexus_sched::PolicyKind::place)) and by
//!   reclaim victim selection.
//!
//! The event loop is one `match` that hands each event to its handler method
//! on the run's state.
//!
//! Cross-node anti-dependencies (a remote writer overtaking a remote reader)
//! are intentionally *not* ordered: as in distributed task-based runtimes
//! (DuctTeip's versioned data, the distributed runtime of Bosch et al.), each
//! node works on its own copy of remote data, so write-after-read hazards are
//! resolved by renaming rather than by synchronization. (For the same reason
//! a stolen task that shares addresses with unrelated tasks at the thief may
//! pick up a conservative manager-level ordering there — never a lost
//! dependence.)

use crate::config::ClusterConfig;
use crate::interconnect::Interconnect;
use crate::moves::MoveKind;
use crate::outcome::{ClusterOutcome, LinkStats};
use crate::routing::DepScanner;
use crate::stream::{StreamOutcome, StreamingSource};
use nexus_host::manager::{ManagerEvent, TaskManager};
use nexus_host::master::{MasterSm, MasterStep};
use nexus_host::metrics::SimOutcome;
use nexus_host::pool::WorkerPool;
use nexus_obs::{Recorder, Registry, SpanEvent};
use nexus_sched::{LoadTracker, LoadView, NodeLoad};
use nexus_sim::{EventQueue, FxHashMap, SimDuration, SimTime};
use nexus_topo::{DistanceMatrix, Fabric};
use nexus_trace::{TaskDescriptor, TaskId, Trace};
use std::collections::VecDeque;
use std::time::Instant;

/// Words on the wire for a retirement / dependency notification (message tag
/// plus task id).
pub const NOTIFY_WORDS: u64 = 2;

/// Decay half-life of a live load digest, in virtual picoseconds (200 µs —
/// a few task lengths at benchmark scale, so a digest that stops refreshing
/// fades from the placement decision within a handful of retirements).
const DIGEST_HALF_LIFE_PS: u64 = 200_000_000;

#[derive(Debug)]
enum Event {
    /// The master executes its next trace operation.
    MasterStep,
    /// A task descriptor reaches its home node's input queue.
    DescriptorArrive { node: usize, idx: usize },
    /// A remote-dependency notification reaches the consumer's node.
    NotifyArrive { idx: usize },
    /// A node's input processor retries handing pending tasks to its manager.
    Pump { node: usize },
    /// A node-local ready notification becomes visible.
    Ready { node: usize, task: TaskId },
    /// Worker core `worker` on `node` finished executing `task`.
    WorkerFinish {
        node: usize,
        task: TaskId,
        worker: usize,
    },
    /// Worker core `worker` on `node` becomes available again.
    WorkerFree { node: usize, worker: usize },
    /// A node's manager retired a task.
    Retired { node: usize, task: TaskId },
    /// A retirement notification reaches the master.
    MasterSawRetire {
        task: TaskId,
        /// The retiring node's load digest riding on the notification
        /// (attached only while runtime feedback is enabled).
        load: Option<(usize, LoadView)>,
    },
    /// An idle node's move request reaches its victim.
    MoveRequest {
        kind: MoveKind,
        thief: usize,
        victim: usize,
    },
    /// A granted descriptor reaches the thief.
    MoveArrive {
        kind: MoveKind,
        node: usize,
        idx: usize,
    },
    /// The victim's empty-handed reply reaches the thief.
    MoveFailed { kind: MoveKind, thief: usize },
    /// A multi-hop message finished hop `hop - 1` of the `from → to` route
    /// and enters hop `hop` now (its physical arrival time at that link —
    /// links are acquired causally, in arrival order).
    Relay {
        /// Source node of the message.
        from: usize,
        /// Destination node of the message.
        to: usize,
        /// Index of the hop the message enters now.
        hop: usize,
        /// Message size in 32-bit words (paid on every hop).
        words: u64,
        /// The event the message becomes when it leaves the last hop.
        then: Box<Event>,
    },
}

impl Event {
    /// Event-kind names for the profiling registry, indexed by
    /// [`Event::kind_index`]; each move event has one name per kind.
    const KINDS: [&'static str; 16] = [
        "master_step",
        "descriptor_arrive",
        "notify_arrive",
        "pump",
        "ready",
        "worker_finish",
        "worker_free",
        "retired",
        "master_saw_retire",
        "steal_request",
        "stolen_arrive",
        "steal_failed",
        "reclaim_request",
        "reclaimed_arrive",
        "reclaim_failed",
        "relay",
    ];

    fn kind_index(&self) -> usize {
        match self {
            Event::MasterStep => 0,
            Event::DescriptorArrive { .. } => 1,
            Event::NotifyArrive { .. } => 2,
            Event::Pump { .. } => 3,
            Event::Ready { .. } => 4,
            Event::WorkerFinish { .. } => 5,
            Event::WorkerFree { .. } => 6,
            Event::Retired { .. } => 7,
            Event::MasterSawRetire { .. } => 8,
            Event::MoveRequest { kind, .. } => 9 + 3 * *kind as usize,
            Event::MoveArrive { kind, .. } => 10 + 3 * *kind as usize,
            Event::MoveFailed { kind, .. } => 11 + 3 * *kind as usize,
            Event::Relay { .. } => 15,
        }
    }
}

/// Wall-clock profile of the event loop, filled by
/// [`ClusterDriver::run_profiled`]: per-event-kind handler time and queue
/// pop/push counts. Kept *outside* [`ClusterOutcome`] because wall times are
/// nondeterministic and the outcome is compared bit-for-bit across reruns.
#[derive(Debug, Default)]
struct EngineProf {
    counts: [u64; Event::KINDS.len()],
    wall_ns: [u64; Event::KINDS.len()],
    pops: u64,
    pushes: u64,
}

impl EngineProf {
    fn note(&mut self, kind: usize, elapsed_ns: u64) {
        self.counts[kind] += 1;
        self.wall_ns[kind] += elapsed_ns;
    }

    fn export(&self, reg: &mut Registry) {
        for (i, name) in Event::KINDS.iter().enumerate() {
            if self.counts[i] > 0 {
                reg.add(&format!("engine.event.{name}.count"), self.counts[i]);
                reg.add(&format!("engine.event.{name}.wall_ns"), self.wall_ns[i]);
            }
        }
        reg.add("engine.pops", self.pops);
        reg.add("engine.pushes", self.pushes);
    }
}

/// Task-id → submission-index lookup. Traces built by the generators assign
/// dense ids in submission order, which a flat vector resolves in one indexed
/// load; arbitrary (sparse) ids fall back to a hash map.
enum IdMap {
    Dense(Vec<u32>),
    Sparse(FxHashMap<TaskId, usize>),
}

impl IdMap {
    fn build(tasks: &[&TaskDescriptor]) -> IdMap {
        let n = tasks.len();
        // Dense only when ids fit a table of bounded slack (≤2× + change), so
        // a stray huge id cannot blow up memory.
        let max_id = tasks.iter().map(|t| t.id.0).max().unwrap_or(0);
        if max_id < (2 * n + 64) as u64 {
            let mut map = vec![u32::MAX; max_id as usize + 1];
            for (i, t) in tasks.iter().enumerate() {
                map[t.id.0 as usize] = i as u32;
            }
            IdMap::Dense(map)
        } else {
            IdMap::Sparse(tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect())
        }
    }

    #[inline]
    fn idx(&self, id: TaskId) -> usize {
        match self {
            IdMap::Dense(v) => {
                let i = v[id.0 as usize];
                debug_assert!(i != u32::MAX, "unknown task {id}");
                i as usize
            }
            IdMap::Sparse(m) => m[&id],
        }
    }
}

/// Per-task routing and cross-node dependency bookkeeping, built when the
/// task's submission commits (`Run::subscribe`).
struct TaskMeta {
    /// The task's current home node (placement decision, updated when the
    /// task moves).
    home: usize,
    /// Indices (into submission order) of *all* distinct last-writer
    /// producers.
    producers: Vec<usize>,
    /// Submitted tasks (by index) that have this task as a last-writer
    /// producer. Filled only while migration bookkeeping exists: only moves
    /// and `MoveBook::retire` read it.
    consumers: Vec<usize>,
    /// Producer retirement notifications this task still waits for.
    remaining_remote: usize,
    /// When the task retired (if it has).
    retired_at: Option<SimTime>,
    /// Consumers (by index) waiting for this producer's retirement.
    subscribers: Vec<usize>,
}

/// Flow bookkeeping every run carries through the event loop. With
/// `gated == false` (a closed-loop source: [`ClusterDriver::run`] and its
/// recorded and profiled variants, or [`ClusterDriver::run_streaming`] with
/// [`StreamingSource::closed_loop`]) it performs *no* gating or move capping,
/// only latency/occupancy accounting on the side. With `gated == true` the
/// master's submissions are released at their overlay arrival times, shifted
/// by the accumulated back-pressure skew, and held while the home node's
/// admission domain (in-flight + pending descriptors) is at its bound.
struct FlowState {
    /// Open loop: enforce arrival times and the admission bound.
    gated: bool,
    /// Overlay arrival time per submission index (empty when closed-loop).
    arrivals: Vec<SimTime>,
    /// Accumulated source-clock shift from admission blocking.
    skew: SimDuration,
    /// Per-node admission bound.
    depth: usize,
    /// Admission-domain occupancy per node: descriptors the source has
    /// emitted toward the node (in flight or pending) not yet handed to the
    /// node's manager.
    admitted: Vec<usize>,
    max_admitted: usize,
    /// Node whose full admission domain currently blocks the master.
    blocked_on: Option<usize>,
    /// Start of the current blocking episode (folded into `skew` on release).
    blocked_since: Option<SimTime>,
    backpressure_events: u64,
    /// Effective arrival time per submission index (latency zero point).
    submitted_at: Vec<SimTime>,
    /// Submit→retire latency per submission index.
    latencies: Vec<SimDuration>,
}

impl FlowState {
    /// The flow state of a run of `trace` on `nodes` nodes fed by `source`.
    ///
    /// # Panics
    /// Panics if an open-loop source's overlay does not cover exactly the
    /// trace's submissions.
    fn new(source: &StreamingSource, trace: &Trace, nodes: usize) -> FlowState {
        let (gated, arrivals, depth) = match &source.overlay {
            Some(overlay) => {
                if let Err(e) = overlay.matches(trace) {
                    panic!("streaming source does not match the trace: {e}");
                }
                (true, overlay.times().to_vec(), source.admission.depth)
            }
            None => (false, Vec::new(), usize::MAX),
        };
        let tasks = trace.task_count();
        FlowState {
            gated,
            arrivals,
            skew: SimDuration::ZERO,
            depth,
            admitted: vec![0; nodes],
            max_admitted: 0,
            blocked_on: None,
            blocked_since: None,
            backpressure_events: 0,
            submitted_at: vec![SimTime::ZERO; tasks],
            latencies: vec![SimDuration::ZERO; tasks],
        }
    }

    /// True when the submission at `idx` is not due at `now` (its arrival
    /// time lies in the future): the retry is scheduled for then, and the
    /// task is not placed on this offer.
    fn early(&self, idx: usize, now: SimTime, queue: &mut EventQueue<Event>) -> bool {
        if !self.gated {
            return false;
        }
        let due = self.arrivals[idx] + self.skew;
        if now < due {
            queue.schedule(due, Event::MasterStep);
        }
        now < due
    }

    /// True when a due submission placed at `home` is deferred because the
    /// node's admission domain is full (the release pump wakes the master;
    /// the blocked span shifts the source clock).
    fn full(&mut self, home: usize, now: SimTime) -> bool {
        if !self.gated {
            return false;
        }
        if self.admitted[home] >= self.depth {
            if self.blocked_since.is_none() {
                self.blocked_since = Some(now);
                self.backpressure_events += 1;
            }
            self.blocked_on = Some(home);
            return true;
        }
        if let Some(since) = self.blocked_since.take() {
            self.skew += now.since(since);
        }
        false
    }

    /// Records a committed submission into `home`'s admission domain.
    fn note_submit(&mut self, home: usize, idx: usize, now: SimTime) {
        self.admitted[home] += 1;
        self.max_admitted = self.max_admitted.max(self.admitted[home]);
        self.submitted_at[idx] = if self.gated {
            self.arrivals[idx] + self.skew
        } else {
            now
        };
    }

    /// The descriptor at `idx` left `node`'s admission domain (handed to the
    /// manager or moved away); wakes the master if it was blocked on this
    /// node.
    fn on_slot_freed(
        &mut self,
        node: usize,
        idx: usize,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        self.admitted[node] = self.admitted[node]
            .checked_sub(1)
            .unwrap_or_else(|| underflow("admission count", idx, node, now));
        if self.blocked_on == Some(node) && self.admitted[node] < self.depth {
            self.blocked_on = None;
            queue.schedule(now, Event::MasterStep);
        }
    }

    /// A moved descriptor entered the thief's admission domain. (No gating:
    /// the grant sizes its batch against the bound.)
    fn note_move_in(&mut self, thief: usize) {
        self.admitted[thief] += 1;
        self.max_admitted = self.max_admitted.max(self.admitted[thief]);
    }
}

/// One simulated node: its manager, worker pool and input queue.
struct NodeState<M> {
    manager: M,
    pool: WorkerPool,
    /// Arrived tasks not yet handed to the manager, in arrival order.
    pending: VecDeque<usize>,
    /// The node's submission interface is busy until this time.
    input_free: SimTime,
    /// A [`Event::Pump`] retry is already queued for this node. Without the
    /// flag every event observing the busy interface schedules its own
    /// duplicate retry, which cascades into an event storm on loaded nodes
    /// (hundreds of no-op events per task at high backlog).
    pump_queued: bool,
    /// Tasks arrived at this node and not yet retired (for idle accounting).
    outstanding: u64,
    executed: u64,
    retired: u64,
    total_work: SimDuration,
    idle_area: SimDuration,
    last_accounting: SimTime,
    makespan: SimTime,
    max_pending: usize,
    /// Per [`MoveKind`]: a request is in flight from this node (unresolved
    /// at the victim).
    inflight: [bool; 2],
    /// Per [`MoveKind`]: granted descriptors still crossing the link. The
    /// node issues no further request of that kind until the batch landed.
    incoming: [usize; 2],
    /// Per [`MoveKind`]: last time a request came back empty-handed
    /// (suppresses immediate same-timestamp retries, which would loop
    /// forever on ideal links).
    last_fail: [Option<SimTime>; 2],
    /// How many moved descriptors are parked at this node until their last
    /// producer notification arrives (which ones is `MoveBook::waits`).
    /// They are dependence-blocked and must *not* enter `pending`: a
    /// consumer queued ahead of its own moved producer would deadlock the
    /// FIFO, and in-flight races make any grant-time ordering guarantee
    /// unsound.
    parked: usize,
}

impl<M> NodeState<M> {
    /// Integrates idle-worker time up to `now` and advances the local clock.
    fn touch(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_accounting);
        if self.outstanding > 0 && self.pool.free() > 0 {
            self.idle_area += dt * self.pool.free().min(self.outstanding as usize) as u64;
        }
        self.last_accounting = now;
        self.makespan = self.makespan.max(now);
    }

    /// The node's live load digest at `now`. `pending` counts parked
    /// (moved, still-blocked) descriptors too: they occupy the node exactly
    /// like queued ones as far as a remote placement is concerned.
    fn digest(&self, now: SimTime) -> LoadView {
        let held = (self.pending.len() + self.parked) as u64;
        LoadView {
            pending: held,
            in_flight: self.outstanding.saturating_sub(held),
            updated_at: now.as_ps(),
        }
    }

    /// Queues a resolved moved descriptor at the front of the input queue.
    fn push_front(&mut self, idx: usize) {
        self.pending.push_front(idx);
        self.max_pending = self.max_pending.max(self.pending.len());
    }

    /// True if the node may issue a move request of `kind` now: free
    /// workers, nothing ready, nothing pending, no request or granted batch
    /// of that kind in flight, and no failed attempt at this very timestamp.
    /// A reclaim also waits out the node's own steal traffic and parked
    /// descriptors: imported eligible work is strictly cheaper than imported
    /// blocked work.
    fn may_move(&self, kind: MoveKind, now: SimTime) -> bool {
        let quiet = |k: MoveKind| !self.inflight[k as usize] && self.incoming[k as usize] == 0;
        quiet(kind)
            && self.last_fail[kind as usize] != Some(now)
            && (kind == MoveKind::Steal || (quiet(MoveKind::Steal) && self.parked == 0))
            && self.pool.free() > 0
            && self.pool.queued() == 0
            && self.pending.is_empty()
    }
}

/// A move request, grant or arrival implies migration is enabled, and with
/// it `Run::book`.
const BOOKED: &str = "moves run only with migration bookkeeping";

/// Where a descriptor waits, as far as migration is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waits {
    /// At no node: not yet submitted, on its way from the master, handed to
    /// the manager or retired.
    Nowhere,
    /// Crossing the fabric to a thief after a grant.
    Moving,
    /// In its home node's input queue (`NodeState::pending`).
    Queued,
    /// Parked at its home node (see `NodeState::parked`).
    Parked,
}

/// Migration bookkeeping: counters kept up to date as descriptors move, so
/// that every question the steal and reclaim paths ask (is this descriptor
/// eligible, how many eligible descriptors does a node's input queue hold,
/// is this one parked) is answered without walking a queue or a producer
/// list. Debug builds check every answer against those walks.
struct MoveBook {
    /// Per task: last-writer producers not yet retired (set at commit).
    unretired: Vec<u32>,
    /// Per task: where its descriptor waits.
    waits: Vec<Waits>,
    /// Per node: eligible descriptors in its input queue.
    eligible: Vec<usize>,
    /// Per node: aggregate worker speed (pools do not change during a run).
    speed_milli: Vec<u64>,
    /// The load board, rebuilt in place for each round of move requests.
    board: Vec<NodeLoad>,
}

impl MoveBook {
    fn new<M>(tasks: usize, nodes: &[NodeState<M>]) -> Self {
        MoveBook {
            unretired: vec![0; tasks],
            waits: vec![Waits::Nowhere; tasks],
            eligible: vec![0; nodes.len()],
            speed_milli: nodes.iter().map(|n| n.pool.total_speed_milli()).collect(),
            board: Vec::with_capacity(nodes.len()),
        }
    }

    /// True if the descriptor at `idx` may be stolen: every last-writer
    /// producer has retired and no notification is still in flight, so the
    /// task can execute on any node without waiting on anything.
    fn eligible(&self, metas: &[TaskMeta], idx: usize) -> bool {
        let eligible = metas[idx].remaining_remote == 0 && self.unretired[idx] == 0;
        debug_assert_eq!(
            eligible,
            eligible_by_scan(metas, idx),
            "eligibility of task {idx} drifted from its producers"
        );
        eligible
    }

    /// `node`'s eligible count, checked against a recount of its input
    /// queue `pending` in debug builds.
    fn eligible_at(&self, metas: &[TaskMeta], node: usize, pending: &VecDeque<usize>) -> usize {
        debug_assert_eq!(
            self.eligible[node],
            eligible_in(metas, pending),
            "eligible count of node {node} drifted from its input queue"
        );
        self.eligible[node]
    }

    /// The descriptor at `idx` entered `node`'s input queue.
    fn enqueue(&mut self, metas: &[TaskMeta], node: usize, idx: usize) {
        self.waits[idx] = Waits::Queued;
        if self.eligible(metas, idx) {
            self.eligible[node] += 1;
        }
    }

    /// The descriptor at `idx` left `node`'s input queue: handed to the
    /// manager, or granted (before it is re-homed).
    fn dequeue(&mut self, metas: &[TaskMeta], node: usize, idx: usize, now: SimTime) {
        self.waits[idx] = Waits::Nowhere;
        if self.eligible(metas, idx) {
            self.eligible[node] = self.eligible[node]
                .checked_sub(1)
                .unwrap_or_else(|| underflow("eligible count", idx, node, now));
        }
    }

    /// One of the two counters that gate `idx` reached zero: if the other
    /// is zero too, a queued descriptor just became eligible where it waits.
    /// (Neither counter rises on a queued descriptor that is eligible: a
    /// re-homed producer has not retired, so its queued consumers are
    /// blocked anyway.)
    fn resolved(&mut self, metas: &[TaskMeta], idx: usize) {
        if self.waits[idx] == Waits::Queued && self.eligible(metas, idx) {
            self.eligible[metas[idx].home] += 1;
        }
    }

    /// The task at `idx` retired: each consumer waits for one producer less.
    fn retire(&mut self, metas: &[TaskMeta], idx: usize, now: SimTime) {
        for &c in &metas[idx].consumers {
            let left = self.unretired[c]
                .checked_sub(1)
                .unwrap_or_else(|| underflow("unretired producer count", c, metas[c].home, now));
            self.unretired[c] = left;
            if left == 0 {
                self.resolved(metas, c);
            }
        }
    }
}

/// A cluster of simulated Nexus# nodes connected by an interconnect.
pub struct ClusterDriver<M> {
    cfg: ClusterConfig,
    nodes: Vec<NodeState<M>>,
    net: Interconnect,
}

impl<M: TaskManager> ClusterDriver<M> {
    /// Builds a cluster per `cfg`; `make_manager(node)` constructs each node's
    /// task manager.
    ///
    /// # Panics
    /// Panics if `cfg.nodes` or `cfg.workers_per_node` is zero.
    pub fn new(cfg: &ClusterConfig, make_manager: impl FnMut(usize) -> M) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        Self::with_fabric(cfg, cfg.link.fabric(cfg.nodes), make_manager)
    }

    /// Builds a cluster per `cfg` over an explicit interconnect fabric
    /// (custom rack/group sizes, hand-built graphs, …) instead of the one
    /// derived from `cfg.link.topology`.
    ///
    /// # Panics
    /// Panics if `cfg.nodes` or `cfg.workers_per_node` is zero, or if the
    /// fabric covers a different node count.
    pub fn with_fabric(
        cfg: &ClusterConfig,
        fabric: Fabric,
        mut make_manager: impl FnMut(usize) -> M,
    ) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(
            cfg.workers_per_node > 0,
            "need at least one worker per node"
        );
        assert_eq!(
            fabric.nodes(),
            cfg.nodes,
            "fabric node count must match the cluster"
        );
        let nodes = (0..cfg.nodes)
            .map(|n| NodeState {
                manager: make_manager(n),
                pool: WorkerPool::new(cfg.workers_per_node),
                pending: VecDeque::new(),
                input_free: SimTime::ZERO,
                pump_queued: false,
                outstanding: 0,
                executed: 0,
                retired: 0,
                total_work: SimDuration::ZERO,
                idle_area: SimDuration::ZERO,
                last_accounting: SimTime::ZERO,
                makespan: SimTime::ZERO,
                max_pending: 0,
                inflight: [false; 2],
                incoming: [0; 2],
                last_fail: [None; 2],
                parked: 0,
            })
            .collect();
        ClusterDriver {
            cfg: *cfg,
            nodes,
            net: Interconnect::with_fabric(fabric),
        }
    }

    /// Replaces every node's worker pool with one built from per-core speed
    /// factors (`1.0` = a standard core; see
    /// [`WorkerPool::with_speeds`](nexus_host::WorkerPool::with_speeds)).
    /// All nodes share the same core mix; steal policies see the aggregate
    /// capacity through the load board and normalize backlogs by it.
    ///
    /// # Panics
    /// Panics if `speeds.len()` differs from `workers_per_node`, or if any
    /// factor is not a positive finite number.
    pub fn with_worker_speeds(mut self, speeds: &[f64]) -> Self {
        assert_eq!(
            speeds.len(),
            self.cfg.workers_per_node,
            "need one speed factor per worker core"
        );
        for node in &mut self.nodes {
            node.pool = WorkerPool::with_speeds(speeds);
        }
        self
    }

    /// Runs `trace` to completion on the cluster. Panics if the simulation
    /// deadlocks (which would indicate a model bug).
    pub fn run(self, trace: &Trace) -> ClusterOutcome {
        self.run_streaming(trace, &StreamingSource::closed_loop())
            .cluster
    }

    /// Runs `trace` with a [`Recorder`] attached: the event loop emits
    /// task-lifecycle span events ([`SpanEvent`]) stamped in virtual
    /// picoseconds. The recorder is purely observational — the outcome is
    /// bit-identical to [`ClusterDriver::run`], asserted across the full
    /// determinism grid.
    pub fn run_recorded(self, trace: &Trace, rec: &mut dyn Recorder) -> ClusterOutcome {
        self.run_streaming_recorded(trace, &StreamingSource::closed_loop(), rec)
            .cluster
    }

    /// Runs `trace` with the event loop profiled: returns the outcome plus a
    /// [`Registry`] of per-event-kind handler wall time and counts
    /// (`engine.event.*`) and the queue's pop and push counters
    /// (`engine.pops`, which equals the event count, and `engine.pushes`).
    /// The wall times are nondeterministic, which is why they ride outside
    /// the (bit-compared) [`ClusterOutcome`].
    pub fn run_profiled(self, trace: &Trace) -> (ClusterOutcome, Registry) {
        let mut prof = EngineProf::default();
        let closed = StreamingSource::closed_loop();
        let outcome = Run::new(self, trace, &closed, None).run(Some(&mut prof)).0;
        let mut reg = Registry::new();
        prof.export(&mut reg);
        (outcome, reg)
    }

    /// Runs `trace` as a *service*: submissions are released by `source`
    /// (arrival times + bounded per-node admission queues) instead of
    /// self-clocked by the master, and per-task submit→retire latencies are
    /// recorded. With a closed-loop source this is [`ClusterDriver::run`]
    /// (which runs through it) with the service metrics kept.
    ///
    /// # Panics
    /// Panics if an open-loop source's overlay does not cover exactly the
    /// trace's submissions, or if the simulation deadlocks.
    pub fn run_streaming(self, trace: &Trace, source: &StreamingSource) -> StreamOutcome {
        self.run_streaming_inner(trace, source, None)
    }

    /// [`ClusterDriver::run_streaming`] with a [`Recorder`] attached (see
    /// [`ClusterDriver::run_recorded`]); open-loop runs additionally emit
    /// [`SpanEvent::Backpressure`] when admission blocks the source clock.
    pub fn run_streaming_recorded(
        self,
        trace: &Trace,
        source: &StreamingSource,
        rec: &mut dyn Recorder,
    ) -> StreamOutcome {
        self.run_streaming_inner(trace, source, Some(rec))
    }

    fn run_streaming_inner(
        self,
        trace: &Trace,
        source: &StreamingSource,
        rec: Option<&mut dyn Recorder>,
    ) -> StreamOutcome {
        let (cluster, fs) = Run::new(self, trace, source, rec).run(None);
        StreamOutcome {
            cluster,
            latencies: fs.latencies,
            backpressure_events: fs.backpressure_events,
            max_admission_depth: fs.max_admitted,
            source_lag: fs.skew,
        }
    }
}

/// [`MoveBook::eligible`] by definition, walking the producer list (the
/// debug builds' cross-check of the counters).
fn eligible_by_scan(metas: &[TaskMeta], idx: usize) -> bool {
    metas[idx].remaining_remote == 0
        && metas[idx]
            .producers
            .iter()
            .all(|&p| metas[p].retired_at.is_some())
}

/// Eligible descriptors in an input queue, counted by walking it (the debug
/// builds' cross-check of `MoveBook::eligible`).
fn eligible_in(metas: &[TaskMeta], pending: &VecDeque<usize>) -> usize {
    pending
        .iter()
        .filter(|&&i| eligible_by_scan(metas, i))
        .count()
}

/// Panics on a bookkeeping counter that would drop below zero, naming the
/// task, its node and the simulated time. The decrements are checked in
/// release builds too, so a miscount fails where it happens instead of
/// wrapping and leaving the run to end in "never finished the trace".
#[cold]
#[track_caller]
fn underflow(counter: &str, task: usize, node: usize, now: SimTime) -> ! {
    panic!("{counter} underflow: task {task} at node {node}, {now}")
}

/// Schedules manager notifications onto the global event queue.
fn schedule_events(
    events: impl IntoIterator<Item = ManagerEvent>,
    node: usize,
    now: SimTime,
    queue: &mut EventQueue<Event>,
) {
    for ev in events {
        match ev {
            ManagerEvent::Ready { task, at } => {
                queue.schedule(at.max(now), Event::Ready { node, task });
            }
            ManagerEvent::Retired { task, at } => {
                queue.schedule(at.max(now), Event::Retired { node, task });
            }
        }
    }
}

/// Drains a node manager's notifications into the global event queue
/// through a reused scratch buffer (no per-call allocation).
fn drain<M: TaskManager>(
    n: &mut NodeState<M>,
    node: usize,
    now: SimTime,
    queue: &mut EventQueue<Event>,
    scratch: &mut Vec<ManagerEvent>,
) {
    n.manager.drain_events_into(scratch);
    schedule_events(scratch.drain(..), node, now, queue);
}

/// One run's state: the driver's nodes and fabric plus everything the event
/// handlers share. Every entry point of [`ClusterDriver`] builds one, fed by
/// a [`StreamingSource`] (the plain, recorded and profiled runs by a
/// closed-loop one), and each event kind has one handler method. `rec` (span
/// tracing), `tracker` (runtime feedback) and `book` (migration) are `None`
/// when off, so a disabled hook costs one `Option` branch.
struct Run<'t, 'r, M> {
    cfg: ClusterConfig,
    trace: &'t Trace,
    nodes: Vec<NodeState<M>>,
    net: Interconnect,
    tasks: Vec<&'t TaskDescriptor>,
    idx_of: IdMap,
    durations: Vec<SimDuration>,
    /// The fabric's distance matrix, cloned out of the interconnect so the
    /// policies can consult it while sending.
    distances: DistanceMatrix,
    /// Places each task as its submission commits, and keeps the edge
    /// census of those placements.
    scanner: DepScanner,
    /// One entry per committed submission, in submission order.
    metas: Vec<TaskMeta>,
    queue: EventQueue<Event>,
    scratch: Vec<ManagerEvent>,
    master: MasterSm,
    supports_taskwait_on: bool,
    /// The master's fold of the load digests riding retirement
    /// notifications, the live counterpart of the scanner's placed-load
    /// board. It exists only while a feedback consumer is active, so the off
    /// path computes no digests and stays bit-identical to the static
    /// behaviour.
    tracker: Option<LoadTracker>,
    /// Migration bookkeeping. It exists only while stealing or reclamation
    /// is enabled: its retirement sweep touches one entry per dependence
    /// edge, a cost that runs which never move a descriptor do not pay.
    book: Option<MoveBook>,
    flow: FlowState,
    rec: Option<&'r mut dyn Recorder>,
    notifications: u64,
    /// Per [`MoveKind`]: descriptors moved, requests granted and requests
    /// answered empty-handed.
    moved: [u64; 2],
    grants: [u64; 2],
    failures: [u64; 2],
}

impl<'t, 'r, M: TaskManager> Run<'t, 'r, M> {
    fn new(
        driver: ClusterDriver<M>,
        trace: &'t Trace,
        source: &StreamingSource,
        rec: Option<&'r mut dyn Recorder>,
    ) -> Self {
        let ClusterDriver { cfg, nodes, net } = driver;
        let tasks: Vec<&TaskDescriptor> = trace.tasks().collect();
        let distances = net.distances().clone();
        let scanner =
            DepScanner::with_policy(cfg.nodes, cfg.placement).with_distances(distances.clone());
        let book = MoveKind::ALL
            .iter()
            .any(|k| k.enabled(cfg.stealing, cfg.feedback))
            .then(|| MoveBook::new(tasks.len(), &nodes));
        Run {
            book,
            idx_of: IdMap::build(&tasks),
            durations: tasks.iter().map(|t| t.duration).collect(),
            queue: EventQueue::new(),
            scratch: Vec::new(),
            master: MasterSm::new(),
            supports_taskwait_on: nodes[0].manager.supports_taskwait_on(),
            tracker: cfg
                .feedback
                .is_enabled()
                .then(|| LoadTracker::new(cfg.nodes, DIGEST_HALF_LIFE_PS)),
            metas: Vec::with_capacity(tasks.len()),
            notifications: 0,
            moved: [0; 2],
            grants: [0; 2],
            failures: [0; 2],
            cfg,
            trace,
            nodes,
            net,
            tasks,
            distances,
            scanner,
            flow: FlowState::new(source, trace, cfg.nodes),
            rec,
        }
    }

    /// The event loop: events pop in `(time, seq)` order and go to their
    /// handler, then idle nodes may request moves. Profiling samples the
    /// wall clock only when `prof` is attached.
    fn run(mut self, mut prof: Option<&mut EngineProf>) -> (ClusterOutcome, FlowState) {
        let (stealing, feedback) = (self.cfg.stealing, self.cfg.feedback);
        let enabled = MoveKind::ALL.map(|k| k.enabled(stealing, feedback));
        let mut makespan = SimTime::ZERO;
        let mut events: u64 = 0;
        self.queue.schedule(SimTime::ZERO, Event::MasterStep);
        while let Some(ev) = self.queue.pop() {
            let now = ev.time;
            makespan = makespan.max(now);
            events += 1;
            let prof_start = prof
                .as_ref()
                .map(|_| (Instant::now(), ev.payload.kind_index()));
            if events > ClusterConfig::DEFAULT_MAX_EVENTS {
                panic!(
                    "cluster simulation exceeded {} events on {}",
                    ClusterConfig::DEFAULT_MAX_EVENTS,
                    self.trace.name
                );
            }

            match ev.payload {
                Event::MasterStep => self.master_step(now),
                Event::DescriptorArrive { node, idx } => self.descriptor_arrive(node, idx, now),
                Event::NotifyArrive { idx } => self.notify_arrive(idx, now),
                Event::Pump { node } => self.pump_retry(node, now),
                Event::Ready { node, task } => self.ready(node, task, now),
                Event::WorkerFinish { node, task, worker } => {
                    self.worker_finish(node, task, worker, now)
                }
                Event::WorkerFree { node, worker } => self.worker_free(node, worker, now),
                Event::Retired { node, task } => self.retired(node, task, now),
                Event::MasterSawRetire { task, load } => self.master_saw_retire(task, load, now),
                Event::MoveRequest {
                    kind,
                    thief,
                    victim,
                } => self.grant_move(kind, thief, victim, now),
                Event::MoveArrive { kind, node, idx } => self.move_arrive(kind, node, idx, now),
                Event::MoveFailed { kind, thief } => self.move_failed(kind, thief, now),
                Event::Relay {
                    from,
                    to,
                    hop,
                    words,
                    then,
                } => self.relay(from, to, hop, words, then, now),
            }

            // Steals are scanned first (see `MoveKind::ALL`).
            for kind in MoveKind::ALL {
                if enabled[kind as usize] {
                    self.try_moves(kind, now);
                }
            }
            if let (Some((t0, kind)), Some(p)) = (prof_start, prof.as_mut()) {
                p.note(kind, t0.elapsed().as_nanos() as u64);
            }
        }
        if let Some(p) = prof {
            p.pops = events;
            p.pushes = self.queue.total_scheduled();
        }
        self.finish(makespan, events)
    }

    /// Checks that every task ran and assembles the outcome.
    fn finish(self, makespan: SimTime, events: u64) -> (ClusterOutcome, FlowState) {
        let name = &self.trace.name;
        assert!(
            self.master.is_done(),
            "cluster master never finished the trace ({name}; deadlock?)"
        );
        let master_last_writer = self.master.last_writer_table();
        let executed: u64 = self.nodes.iter().map(|n| n.executed).sum();
        assert_eq!(
            executed as usize,
            self.tasks.len(),
            "not all tasks executed on the cluster ({name})"
        );
        let retired: u64 = self.nodes.iter().map(|n| n.retired).sum();
        assert_eq!(retired as usize, self.tasks.len());

        let net = &self.net;
        let link = LinkStats {
            messages: net.messages(),
            words: net.words(),
            busy_time: net.busy_time(),
            wait_time: net.wait_time(),
            peak_utilization: net.peak_utilization(makespan),
            per_tier: net.tier_stats(),
        };

        // The registry the outcome's scalar fields are views over. Populated
        // once here from the driver's deterministic tallies (no hot-path
        // registry operations), so the determinism grids can compare it bit
        // for bit.
        let (steal, reclaim) = (MoveKind::Steal as usize, MoveKind::Reclaim as usize);
        let mut metrics = Registry::new();
        metrics.add("task.executed", executed);
        metrics.add("task.retired", retired);
        metrics.add("notify.sent", self.notifications);
        metrics.add("steal.stolen", self.moved[steal]);
        metrics.add("steal.grants", self.grants[steal]);
        metrics.add("steal.failures", self.failures[steal]);
        metrics.add("reclaim.reclaimed", self.moved[reclaim]);
        metrics.add("reclaim.grants", self.grants[reclaim]);
        metrics.add("reclaim.failures", self.failures[reclaim]);
        metrics.add(
            "load.digest.updates",
            self.tracker.as_ref().map_or(0, LoadTracker::updates),
        );
        metrics.add("sim.events", events);
        metrics.add("link.messages", link.messages);
        metrics.add("link.words", link.words);
        for tier in &link.per_tier {
            metrics.add(&format!("link.tier{}.messages", tier.tier), tier.messages);
            metrics.add(&format!("link.tier{}.words", tier.tier), tier.words);
        }
        for n in &self.nodes {
            metrics.sample("node.pending.max", n.max_pending as u64);
            metrics.sample("node.executed", n.executed);
        }
        if self.flow.gated {
            metrics.add("stream.backpressure", self.flow.backpressure_events);
            metrics.sample("stream.admission.max", self.flow.max_admitted as u64);
        }
        let max_pending_depth = self.nodes.iter().map(|n| n.max_pending).max().unwrap_or(0);
        let per_node: Vec<SimOutcome> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| SimOutcome {
                benchmark: format!("{name} [node {i}]"),
                manager: n.manager.name(),
                workers: self.cfg.workers_per_node,
                makespan: n.makespan.since(SimTime::ZERO),
                total_work: n.total_work,
                tasks: n.executed,
                master_barrier_time: SimDuration::ZERO,
                master_backpressure_time: SimDuration::ZERO,
                worker_idle_time: n.idle_area,
                manager_stats: n.manager.stats_summary(),
            })
            .collect();

        let outcome = ClusterOutcome {
            benchmark: name.clone(),
            manager: self.nodes[0].manager.name(),
            placement: self.cfg.placement.name().to_string(),
            stealing: self.cfg.stealing.name().to_string(),
            topology: self.net.fabric().name().to_string(),
            nodes: self.cfg.nodes,
            workers_per_node: self.cfg.workers_per_node,
            makespan: makespan.since(SimTime::ZERO),
            total_work: self.trace.total_work(),
            tasks: executed,
            master_barrier_time: self.master.barrier_time(),
            per_node,
            edges: self.scanner.stats(),
            notifications: metrics.counter("notify.sent"),
            steals: metrics.counter("steal.stolen"),
            steal_failures: metrics.counter("steal.failures"),
            reclaims: metrics.counter("reclaim.reclaimed"),
            reclaim_failures: metrics.counter("reclaim.failures"),
            sim_events: metrics.counter("sim.events"),
            link,
            max_pending_depth,
            master_last_writer,
            metrics,
        };
        (outcome, self.flow)
    }

    /// The master executes its next trace operation.
    fn master_step(&mut self, now: SimTime) {
        match self.master.step(self.trace, now, self.supports_taskwait_on) {
            MasterStep::Submit(task) => self.submit(task, now),
            MasterStep::Compute(d) => self.queue.schedule(now + d, Event::MasterStep),
            MasterStep::Continue => self.queue.schedule(now, Event::MasterStep),
            MasterStep::Waiting | MasterStep::Done => {}
        }
    }

    /// Submits `task` unless an open-loop source defers it (a future arrival
    /// time or a full admission queue: the cursor stays put and the same
    /// submit is re-offered on the next master step). A due task is placed
    /// on every offer, against the digests of the moment in `place` mode;
    /// the placement is recorded only when the submission commits. The
    /// descriptor is then forwarded to its home node and the task
    /// subscribes to its producers (see [`Run::subscribe`]).
    fn submit(&mut self, task: &'t TaskDescriptor, now: SimTime) {
        let idx = self.idx_of.idx(task.id);
        if self.flow.early(idx, now, &mut self.queue) {
            return;
        }
        let live = match &self.tracker {
            Some(tr) if self.cfg.feedback.place_enabled() => Some(tr.live(now.as_ps())),
            _ => None,
        };
        let placed = self.scanner.place(task, live);
        let home = placed.home;
        let bp_before = self.flow.backpressure_events;
        let full = self.flow.full(home, now);
        if self.flow.backpressure_events > bp_before {
            if let Some(r) = self.rec.as_mut() {
                r.record(now.as_ps(), SpanEvent::Backpressure { node: home });
            }
        }
        if full {
            return;
        }
        self.master.commit_submit(task, now);
        self.scanner.record(task, &placed);
        self.flow.note_submit(home, idx, now);
        if let Some(r) = self.rec.as_mut() {
            r.record(now.as_ps(), SpanEvent::Submitted { task: idx });
            r.record(
                now.as_ps(),
                SpanEvent::Placed {
                    task: idx,
                    node: home,
                },
            );
        }
        let arrive = Event::DescriptorArrive { node: home, idx };
        let sender_free = self.send_msg(0, home, task.transfer_words(), now, arrive);
        self.subscribe(idx, home, placed.producers, now);
        self.queue.schedule(sender_free.max(now), Event::MasterStep);
    }

    /// Builds the cross-node state of the task at `idx`, whose submission
    /// just committed with home `home`. Each last-writer producer is judged
    /// by its *current* home:
    /// * retired on another node: its notification is sent now;
    /// * not retired, on another node: the task subscribes to it;
    /// * not retired, at `home` but parked there or still crossing the
    ///   fabric after a grant: the task subscribes to it too;
    /// * otherwise nothing: the producer reaches `home`'s manager first,
    ///   because the master's route to that node is FIFO.
    ///
    /// `remaining_remote` counts what this creates. The task joins its
    /// producers' consumer lists only while migration bookkeeping exists.
    fn subscribe(&mut self, idx: usize, home: usize, producers: Vec<usize>, now: SimTime) {
        debug_assert_eq!(self.metas.len(), idx, "submissions commit in order");
        let (mut remaining, mut unretired) = (0, 0);
        for &p in &producers {
            let from = self.metas[p].home;
            if self.metas[p].retired_at.is_some() {
                if from != home {
                    self.send_msg(from, home, NOTIFY_WORDS, now, Event::NotifyArrive { idx });
                    self.notifications += 1;
                    remaining += 1;
                }
                continue;
            }
            unretired += 1;
            let in_transit = self
                .book
                .as_ref()
                .is_some_and(|b| matches!(b.waits[p], Waits::Parked | Waits::Moving));
            if from != home || in_transit {
                self.metas[p].subscribers.push(idx);
                remaining += 1;
            }
        }
        if let Some(book) = self.book.as_mut() {
            book.unretired[idx] = unretired;
            for &p in &producers {
                self.metas[p].consumers.push(idx);
            }
        }
        self.metas.push(TaskMeta {
            home,
            producers,
            consumers: Vec::new(),
            remaining_remote: remaining,
            retired_at: None,
            subscribers: Vec::new(),
        });
    }

    /// A task descriptor reaches its home node's input queue.
    fn descriptor_arrive(&mut self, node: usize, idx: usize, now: SimTime) {
        let n = &mut self.nodes[node];
        n.touch(now);
        n.outstanding += 1;
        n.pending.push_back(idx);
        n.max_pending = n.max_pending.max(n.pending.len());
        if let Some(book) = self.book.as_mut() {
            book.enqueue(&self.metas, node, idx);
        }
        self.pump(node, now);
    }

    /// A remote-dependency notification reaches the consumer's node. A
    /// parked descriptor resolves on its last one and enters the input queue
    /// at the front, like any eligible moved descriptor.
    fn notify_arrive(&mut self, idx: usize, now: SimTime) {
        let meta = &mut self.metas[idx];
        let home = meta.home;
        meta.remaining_remote = meta
            .remaining_remote
            .checked_sub(1)
            .unwrap_or_else(|| underflow("remaining_remote", idx, home, now));
        let resolved = meta.remaining_remote == 0;
        let n = &mut self.nodes[home];
        n.touch(now);
        if resolved {
            if let Some(book) = self.book.as_mut() {
                if book.waits[idx] == Waits::Parked {
                    n.parked = n
                        .parked
                        .checked_sub(1)
                        .unwrap_or_else(|| underflow("parked count", idx, home, now));
                    debug_assert!(
                        book.eligible(&self.metas, idx),
                        "unparked task {idx} still has unretired producers"
                    );
                    n.push_front(idx);
                    book.enqueue(&self.metas, home, idx);
                } else {
                    book.resolved(&self.metas, idx);
                }
            }
        }
        self.pump(home, now);
    }

    /// A node's input processor retries handing pending tasks to its manager.
    fn pump_retry(&mut self, node: usize, now: SimTime) {
        let n = &mut self.nodes[node];
        n.pump_queued = false;
        n.touch(now);
        self.pump(node, now);
    }

    /// A node-local ready notification becomes visible.
    fn ready(&mut self, node: usize, task: TaskId, now: SimTime) {
        let n = &mut self.nodes[node];
        n.touch(now);
        n.pool.enqueue(task);
        self.dispatch(node, now);
    }

    /// Worker core `worker` on `node` finished executing `task`.
    fn worker_finish(&mut self, node: usize, task: TaskId, worker: usize, now: SimTime) {
        let n = &mut self.nodes[node];
        n.touch(now);
        n.executed += 1;
        let free_at = n.manager.finish(task, now);
        drain(n, node, now, &mut self.queue, &mut self.scratch);
        self.queue
            .schedule(free_at.max(now), Event::WorkerFree { node, worker });
    }

    /// Worker core `worker` on `node` becomes available again.
    fn worker_free(&mut self, node: usize, worker: usize, now: SimTime) {
        let n = &mut self.nodes[node];
        n.touch(now);
        n.pool.release(worker);
        self.dispatch(node, now);
    }

    /// A node's manager retired `task`: notify every subscribed consumer and
    /// the master, then pump (a task-pool slot may have been freed).
    fn retired(&mut self, node: usize, task: TaskId, now: SimTime) {
        let idx = self.idx_of.idx(task);
        let n = &mut self.nodes[node];
        n.touch(now);
        n.retired += 1;
        n.outstanding = n
            .outstanding
            .checked_sub(1)
            .unwrap_or_else(|| underflow("outstanding count", idx, node, now));
        n.total_work += self.durations[idx];
        self.metas[idx].retired_at = Some(now);
        if let Some(book) = self.book.as_mut() {
            book.retire(&self.metas, idx, now);
        }
        self.flow.latencies[idx] = now.since(self.flow.submitted_at[idx]);
        if let Some(r) = self.rec.as_mut() {
            r.record(now.as_ps(), SpanEvent::Retired { task: idx, node });
        }
        for sub in std::mem::take(&mut self.metas[idx].subscribers) {
            let home = self.metas[sub].home;
            let notify = Event::NotifyArrive { idx: sub };
            self.send_msg(node, home, NOTIFY_WORDS, now, notify);
            self.notifications += 1;
        }
        // The master's notification is free if the task retired on node 0.
        // With feedback enabled it carries the retiring node's load digest —
        // same message, same words, no extra traffic on the happy path.
        let load = self
            .tracker
            .as_ref()
            .map(|_| (node, self.nodes[node].digest(now)));
        let seen = Event::MasterSawRetire { task, load };
        self.send_msg(node, 0, NOTIFY_WORDS, now, seen);
        self.pump(node, now);
    }

    /// A retirement notification (with its load digest) reaches the master.
    fn master_saw_retire(&mut self, task: TaskId, load: Option<(usize, LoadView)>, now: SimTime) {
        if let (Some((node, view)), Some(tr)) = (load, self.tracker.as_mut()) {
            tr.observe(node, view);
        }
        if self.master.on_retired(task, now) {
            self.queue.schedule(now, Event::MasterStep);
        }
    }

    /// A move request of `kind` from `thief` reaches `victim`: hand over up
    /// to a batch of the youngest pending descriptors of that kind —
    /// eligible ones for a steal, dependence-blocked ones for a reclaim — or
    /// reply empty-handed. The policy sizes the batch from the thief's free
    /// workers and the victim's backlog of the kind at grant time; an
    /// open-loop thief also honours its own admission bound, since moved
    /// descriptors enter its admission domain. After a grant the victim is
    /// pumped, since its queue may have a new head.
    fn grant_move(&mut self, kind: MoveKind, thief: usize, victim: usize, now: SimTime) {
        let k = kind as usize;
        self.nodes[victim].touch(now);
        let book = self.book.as_ref().expect(BOOKED);
        let pending = &self.nodes[victim].pending;
        let eligible = book.eligible_at(&self.metas, victim, pending);
        let want_eligible = kind == MoveKind::Steal;
        let backlog = if want_eligible {
            eligible
        } else {
            pending.len() - eligible
        };
        let free = self.nodes[thief].pool.free();
        let mut batch = kind.batch(self.cfg.stealing, free, backlog);
        let fs = &self.flow;
        if fs.gated {
            batch = batch.min(fs.depth.saturating_sub(fs.admitted[thief]));
        }
        // The youngest `batch` descriptors of the kind, collected from the
        // back of the queue (descending, so removal is position-stable).
        let positions: Vec<usize> = (0..pending.len())
            .rev()
            .filter(|&pos| book.eligible(&self.metas, pending[pos]) == want_eligible)
            .take(batch)
            .collect();
        if positions.is_empty() {
            self.failures[k] += 1;
            let failed = Event::MoveFailed { kind, thief };
            self.send_msg(victim, thief, kind.words(), now, failed);
            return;
        }
        // The request is resolved; the thief stays quiet until every granted
        // descriptor has landed (it has no capacity for more anyway).
        self.grants[k] += 1;
        self.nodes[thief].inflight[k] = false;
        self.nodes[thief].incoming[k] += positions.len();
        for pos in positions {
            let n = &mut self.nodes[victim];
            let idx = n.pending.remove(pos).expect("move position in range");
            n.outstanding = n
                .outstanding
                .checked_sub(1)
                .unwrap_or_else(|| underflow("outstanding count", idx, victim, now));
            // The descriptor moves between admission domains; the freed
            // victim slot may wake a back-pressured source.
            self.flow.on_slot_freed(victim, idx, now, &mut self.queue);
            self.flow.note_move_in(thief);
            debug_assert_eq!(self.metas[idx].home, victim, "moved task must be at home");
            let book = self.book.as_mut().expect(BOOKED);
            book.dequeue(&self.metas, victim, idx, now);
            book.waits[idx] = Waits::Moving;
            self.rehome(idx, victim, thief);
            self.moved[k] += 1;
            if let Some(r) = self.rec.as_mut() {
                r.record(now.as_ps(), kind.span(idx, victim, thief));
            }
            let arrive = Event::MoveArrive {
                kind,
                node: thief,
                idx,
            };
            self.send_msg(victim, thief, self.tasks[idx].transfer_words(), now, arrive);
        }
        // A reclaim may have taken the queue's blocked head: the eligible
        // descriptors behind it would otherwise wait for a wake-up that
        // never comes.
        self.pump(victim, now);
    }

    /// Re-homes the moved descriptor `idx` from `victim` to `thief`.
    /// Consumers that counted on resolving its dependence inside the
    /// victim's manager now need a cross-node retirement notification; and
    /// the task's own unretired producers, which the victim's manager would
    /// have ordered locally, now notify it across the fabric (a producer
    /// that already subscribed it keeps exactly one subscription). The
    /// producer loop does nothing for an eligible descriptor: its producers
    /// have all retired.
    fn rehome(&mut self, idx: usize, victim: usize, thief: usize) {
        let metas = &mut self.metas;
        let consumers = std::mem::take(&mut metas[idx].consumers);
        for &c in &consumers {
            if metas[c].home == victim && !metas[idx].subscribers.contains(&c) {
                metas[c].remaining_remote += 1;
                metas[idx].subscribers.push(c);
            }
        }
        metas[idx].consumers = consumers;
        let producers = std::mem::take(&mut metas[idx].producers);
        for &p in &producers {
            if metas[p].retired_at.is_none() && !metas[p].subscribers.contains(&idx) {
                metas[idx].remaining_remote += 1;
                metas[p].subscribers.push(idx);
            }
        }
        metas[idx].producers = producers;
        metas[idx].home = thief;
    }

    /// A granted descriptor reaches the thief. An eligible one enters the
    /// input queue at the *front* and is pumped: the thief imported it to run
    /// now, and queueing it behind the thief's own blocked head would break
    /// the topological order of the per-node FIFO queues — an early-order
    /// task stuck behind a later blocked head can close a cross-node
    /// head-of-line dependency cycle (deadlock). Any other is parked until
    /// its last producer notification lands (`notify_arrive`).
    fn move_arrive(&mut self, kind: MoveKind, node: usize, idx: usize, now: SimTime) {
        let k = kind as usize;
        let n = &mut self.nodes[node];
        n.incoming[k] = n.incoming[k].checked_sub(1).unwrap_or_else(|| {
            panic!("move accounting underflow: {kind:?} arrival at node {node} without a grant")
        });
        n.touch(now);
        n.outstanding += 1;
        let book = self.book.as_mut().expect(BOOKED);
        if book.eligible(&self.metas, idx) {
            n.push_front(idx);
            book.enqueue(&self.metas, node, idx);
            self.pump(node, now);
        } else {
            debug_assert_eq!(kind, MoveKind::Reclaim, "stolen task {idx} arrived blocked");
            n.parked += 1;
            book.waits[idx] = Waits::Parked;
        }
    }

    /// The victim's empty-handed reply reaches the thief.
    fn move_failed(&mut self, kind: MoveKind, thief: usize, now: SimTime) {
        let n = &mut self.nodes[thief];
        n.inflight[kind as usize] = false;
        n.last_fail[kind as usize] = Some(now);
        n.touch(now);
    }

    /// A multi-hop message enters hop `hop` now and schedules its
    /// continuation for when it leaves the hop: the next hop, or the
    /// terminal event once the last hop is crossed.
    fn relay(
        &mut self,
        from: usize,
        to: usize,
        hop: usize,
        words: u64,
        then: Box<Event>,
        now: SimTime,
    ) {
        if let Some(r) = self.rec.as_mut() {
            let (link, tier) = self.net.hop_link(from, to, hop);
            r.record(now.as_ps(), SpanEvent::LinkHop { link, tier, words });
        }
        let d = self.net.send_hop(from, to, hop, words, now);
        let payload = if hop + 1 == self.net.hops(from, to) {
            *then
        } else {
            Event::Relay {
                from,
                to,
                hop: hop + 1,
                words,
                then,
            }
        };
        self.queue.schedule(d.delivered, payload);
    }

    /// Hands a message to the fabric: serializes it onto the first hop now
    /// and schedules an [`Event::Relay`] per remaining hop, so every link is
    /// acquired at the message's physical arrival time (causal,
    /// work-conserving FIFO per link — see `Interconnect::send_hop`). The
    /// message becomes `then` when it leaves the last hop. Node-local
    /// messages (`from == to`) bypass the network and deliver immediately.
    /// Returns when the sender's interface is free again.
    fn send_msg(
        &mut self,
        from: usize,
        to: usize,
        words: u64,
        now: SimTime,
        then: Event,
    ) -> SimTime {
        if from == to {
            self.queue.schedule(now, then);
            return now;
        }
        if let Some(r) = self.rec.as_mut() {
            let (link, tier) = self.net.hop_link(from, to, 0);
            r.record(now.as_ps(), SpanEvent::LinkHop { link, tier, words });
        }
        let d = self.net.send_hop(from, to, 0, words, now);
        let payload = if self.net.hops(from, to) == 1 {
            then
        } else {
            Event::Relay {
                from,
                to,
                hop: 1,
                words,
                then: Box::new(then),
            }
        };
        self.queue.schedule(d.delivered, payload);
        d.sender_free
    }

    /// Sends a move request of `kind` from every idle node that may issue
    /// one (see `NodeState::may_move`) to the victim the policy picks. Runs
    /// after each event while the kind is enabled; the load board is only
    /// built when some node qualifies, from counters (O(1) per node).
    fn try_moves(&mut self, kind: MoveKind, now: SimTime) {
        if !self.nodes.iter().any(|n| n.may_move(kind, now)) {
            return;
        }
        let loads = self.load_board();
        let stealing = self.cfg.stealing;
        for thief in 0..self.nodes.len() {
            if !self.nodes[thief].may_move(kind, now) {
                continue;
            }
            let live = self.tracker.as_ref().map(|tr| tr.live(now.as_ps()));
            let victim = kind.choose_victim(stealing, thief, &loads, live, &self.distances);
            let Some(victim) = victim else {
                continue;
            };
            assert!(
                victim != thief && victim < self.nodes.len(),
                "{kind:?} under steal policy {stealing} picked victim {victim} for thief {thief}"
            );
            self.nodes[thief].inflight[kind as usize] = true;
            let request = Event::MoveRequest {
                kind,
                thief,
                victim,
            };
            self.send_msg(thief, victim, kind.words(), now, request);
        }
        self.book.as_mut().expect(BOOKED).board = loads;
    }

    /// The per-node load board handed to victim selection. The buffer is
    /// the book's, taken out for the round of requests and handed back by
    /// `try_moves`.
    fn load_board(&mut self) -> Vec<NodeLoad> {
        let book = self.book.as_mut().expect(BOOKED);
        let mut board = std::mem::take(&mut book.board);
        board.clear();
        board.extend(self.nodes.iter().enumerate().map(|(i, n)| NodeLoad {
            pending: n.pending.len(),
            stealable: book.eligible_at(&self.metas, i, &n.pending),
            speed_milli: book.speed_milli[i],
        }));
        board
    }

    /// Hands pending tasks at `node` to the local manager: strictly in arrival
    /// order, only once all remote dependencies have arrived, respecting the
    /// manager's back-pressure and the submission interface's busy time.
    /// Every hand-over frees a slot in the node's admission domain, which
    /// may wake a back-pressured open-loop source.
    fn pump(&mut self, node: usize, now: SimTime) {
        let Run {
            nodes,
            metas,
            tasks,
            queue,
            scratch,
            flow,
            rec,
            book,
            ..
        } = self;
        let n = &mut nodes[node];
        while let Some(&idx) = n.pending.front() {
            if metas[idx].remaining_remote > 0 {
                break; // head-of-line: preserves per-node program order
            }
            if !n.manager.can_accept(now) {
                break; // re-pumped when a retirement frees a pool slot
            }
            if now < n.input_free {
                // A submittable head is blocked only by the busy submission
                // interface: retry exactly when it frees up. `input_free` only
                // moves forward, so one outstanding retry per node suffices —
                // the dedup flag collapses what used to be an O(queue-depth)
                // storm of no-op Pump events.
                if !n.pump_queued {
                    n.pump_queued = true;
                    queue.schedule(n.input_free, Event::Pump { node });
                }
                break;
            }
            n.pending.pop_front();
            if let Some(book) = book.as_mut() {
                book.dequeue(metas, node, idx, now);
            }
            flow.on_slot_freed(node, idx, now, queue);
            if let Some(r) = rec.as_mut() {
                r.record(now.as_ps(), SpanEvent::Dispatched { task: idx, node });
            }
            let release = n.manager.submit(tasks[idx], now);
            drain(n, node, now, queue, scratch);
            n.input_free = release.max(now);
        }
    }

    /// Hands queued ready tasks to free workers on `node`.
    fn dispatch(&mut self, node: usize, now: SimTime) {
        let Run {
            nodes,
            idx_of,
            durations,
            queue,
            scratch,
            rec,
            ..
        } = self;
        let n = &mut nodes[node];
        let manager = &mut n.manager;
        n.pool.dispatch(|task, worker, speed| {
            let idx = idx_of.idx(task);
            let extra = manager.dispatch_cost(task, now);
            manager.drain_events_into(scratch);
            if let Some(r) = rec.as_mut() {
                // The body begins once the manager's dispatch cost is paid.
                r.record(
                    (now + extra).as_ps(),
                    SpanEvent::Started {
                        task: idx,
                        node,
                        worker,
                    },
                );
            }
            // A core of speed `speed/1000`× executes the task proportionally
            // faster (exact for the uniform default: `d * 1000 / 1000 == d`).
            let dur = durations[idx] * 1000 / speed;
            queue.schedule(
                now + extra + dur,
                Event::WorkerFinish { node, task, worker },
            );
        });
        schedule_events(scratch.drain(..), node, now, queue);
    }
}

/// Runs `trace` on a cluster configured by `cfg`, constructing each node's
/// manager with `make_manager`. Convenience wrapper around [`ClusterDriver`].
pub fn simulate_cluster<M: TaskManager>(
    trace: &Trace,
    cfg: &ClusterConfig,
    make_manager: impl FnMut(usize) -> M,
) -> ClusterOutcome {
    ClusterDriver::new(cfg, make_manager).run(trace)
}

/// Runs `trace` on a cluster configured by `cfg` with a [`Recorder`]
/// attached: the event loop emits task-lifecycle span events stamped in
/// virtual picoseconds (see [`ClusterDriver::run_recorded`]). Convenience
/// wrapper around [`ClusterDriver`].
pub fn simulate_cluster_traced<M: TaskManager>(
    trace: &Trace,
    cfg: &ClusterConfig,
    make_manager: impl FnMut(usize) -> M,
    rec: &mut dyn Recorder,
) -> ClusterOutcome {
    ClusterDriver::new(cfg, make_manager).run_recorded(trace, rec)
}

/// Runs `trace` as a service on a cluster configured by `cfg`: submissions
/// released by `source` (open-loop arrival times + bounded admission queues,
/// or a closed-loop source reproducing [`simulate_cluster`] exactly) with
/// per-task latencies recorded. Convenience wrapper around
/// [`ClusterDriver::run_streaming`].
pub fn simulate_streaming<M: TaskManager>(
    trace: &Trace,
    source: &StreamingSource,
    cfg: &ClusterConfig,
    make_manager: impl FnMut(usize) -> M,
) -> StreamOutcome {
    ClusterDriver::new(cfg, make_manager).run_streaming(trace, source)
}

/// Runs `trace` on a cluster wired with an explicit fabric (custom rack or
/// group sizes, hand-built graphs) instead of the one `cfg.link.topology`
/// would derive. Convenience wrapper around [`ClusterDriver::with_fabric`].
pub fn simulate_cluster_on<M: TaskManager>(
    trace: &Trace,
    cfg: &ClusterConfig,
    fabric: Fabric,
    make_manager: impl FnMut(usize) -> M,
) -> ClusterOutcome {
    ClusterDriver::with_fabric(cfg, fabric, make_manager).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;
    use nexus_host::IdealManager;
    use nexus_sched::{PolicyKind, StealKind};
    use nexus_trace::generators::{distributed, micro};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    /// A Nexus# manager with a small task pool, so overloaded nodes actually
    /// back-pressure and build the pending backlog stealing feeds on.
    fn tight_sharp() -> nexus_core::NexusSharp {
        let mut cfg = nexus_core::NexusSharpConfig::paper(6);
        cfg.task_pool_capacity = 16;
        nexus_core::NexusSharp::new(cfg)
    }

    #[test]
    fn single_node_ideal_cluster_matches_the_host_driver() {
        // With one node and an ideal link, the cluster reduces to the
        // single-node testbench (modulo the asynchronous master, which cannot
        // matter for an ideal manager with zero submission cost).
        let trace = micro::wavefront(8, 8, us(10));
        let cfg = ClusterConfig::new(1, 16).with_link(LinkConfig::ideal());
        let out = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        let host = nexus_host::simulate(
            &trace,
            &mut IdealManager::new(),
            &nexus_host::HostConfig::with_workers(16),
        );
        assert_eq!(out.makespan, host.makespan);
        assert_eq!(out.tasks, host.tasks);
        assert_eq!(out.notifications, 0);
        assert_eq!(out.link.messages, 0);
    }

    #[test]
    fn independent_domains_scale_with_the_node_count() {
        let trace = distributed::wavefront(4, 0.0, 6, 6, us(50), 1);
        let cfg1 = ClusterConfig::new(1, 4).with_link(LinkConfig::rdma());
        let cfg4 = ClusterConfig::new(4, 4).with_link(LinkConfig::rdma());
        let one = simulate_cluster(&trace, &cfg1, |_| IdealManager::new());
        let four = simulate_cluster(&trace, &cfg4, |_| IdealManager::new());
        assert_eq!(one.tasks, four.tasks);
        assert!(
            four.makespan.as_us_f64() < 0.5 * one.makespan.as_us_f64(),
            "4 nodes {} vs 1 node {}",
            four.makespan,
            one.makespan
        );
        // Descriptor traffic crossed the network, but no dependency
        // notifications (the domains are independent).
        assert!(four.link.messages > 0);
        assert_eq!(four.notifications, 0);
        assert_eq!(four.edges.remote, 0);
    }

    #[test]
    fn remote_dependencies_pay_the_link_latency() {
        // Two tasks on different nodes, consumer reads producer's output.
        let mut b = nexus_trace::trace::TraceBuilder::new("remote-pair");
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .output(0x100)
                .duration(us(10))
                .affinity(0)
                .build()
        });
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .input(0x100)
                .inout(0x2000)
                .duration(us(10))
                .affinity(1)
                .build()
        });
        b.taskwait();
        let trace = b.finish();

        let slow = LinkConfig {
            latency: us(100),
            per_word: SimDuration::ZERO,
            topology: crate::config::Topology::FullMesh,
        };
        let fast = LinkConfig::ideal();
        let cfg_slow = ClusterConfig::new(2, 1).with_link(slow);
        let cfg_fast = ClusterConfig::new(2, 1).with_link(fast);
        let out_slow = simulate_cluster(&trace, &cfg_slow, |_| IdealManager::new());
        let out_fast = simulate_cluster(&trace, &cfg_fast, |_| IdealManager::new());
        assert_eq!(out_fast.makespan, us(20));
        // Producer retires at 10 us; its notification reaches node 1 at
        // 110 us (the consumer's descriptor arrived at 100 us); the consumer
        // runs until 120 us and its retirement notification reaches the
        // master at 220 us.
        assert_eq!(out_slow.makespan, us(220));
        assert_eq!(out_slow.notifications, 1);
        assert_eq!(out_slow.edges.remote, 1);
        assert!(out_slow.master_barrier_time > SimDuration::ZERO);
    }

    #[test]
    fn runs_are_bit_identical() {
        let trace = distributed::sparselu(4, 0.3, 9, 0.002);
        let cfg = ClusterConfig::new(4, 4);
        let a = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        let b = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.notifications, b.notifications);
        assert_eq!(a.link.words, b.link.words);
        assert_eq!(a.node_tasks(), b.node_tasks());
    }

    #[test]
    fn stealing_drains_an_imbalanced_trace_onto_idle_nodes() {
        // Node 0 owns 6x the work of node 3; without stealing the makespan is
        // pinned to node 0's backlog.
        let trace = distributed::imbalanced(4, 48, 6.0, us(50), 0.0, 5);
        let cfg = ClusterConfig::new(4, 2).with_link(LinkConfig::rdma());
        let frozen = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        let stolen = simulate_cluster(&trace, &cfg.with_stealing(StealKind::MostLoaded), |_| {
            tight_sharp()
        });
        assert_eq!(frozen.steals, 0);
        assert!(stolen.steals > 0, "stealing must actually happen");
        assert!(
            stolen.makespan < frozen.makespan,
            "stealing must improve the makespan: {} vs {}",
            stolen.makespan,
            frozen.makespan
        );
        assert_eq!(frozen.tasks, stolen.tasks);
        // Every stolen descriptor paid the wire.
        assert!(stolen.link.words > frozen.link.words);
    }

    #[test]
    fn stealing_preserves_cross_node_dependences() {
        // A producer chain on node 0 with consumers that must not run early:
        // steal-eligibility (all producers retired) plus re-subscription keep
        // the dependences intact. The chain forces sequential execution, so
        // the makespan lower bound is the chain length regardless of theft.
        let mut b = nexus_trace::trace::TraceBuilder::new("steal-chain");
        for i in 0..24u64 {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .inout(0x100 + (i / 8) * 0x40) // three 8-long chains
                    .duration(us(20))
                    .affinity(0)
                    .build()
            });
        }
        b.taskwait();
        let trace = b.finish();
        let cfg = ClusterConfig::new(2, 1)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        assert_eq!(out.tasks, 24);
        // Three independent chains of 8 tasks × 20 us: nothing may finish
        // before 160 us however the tasks are distributed.
        assert!(out.makespan >= us(160), "{}", out.makespan);
    }

    #[test]
    fn stolen_descriptors_jump_blocked_heads_so_chains_cannot_deadlock() {
        // Regression: a chain-heavy un-hinted trace scattered by XorHash
        // builds cross-node head-of-line dependency cycles if stolen
        // descriptors queue behind the thief's own blocked head. They must
        // enter at the front (they are fully resolved by construction).
        let trace = distributed::unhinted(&distributed::rack_clustered(
            2,
            2,
            4,
            8,
            2.0,
            0.5,
            0.2,
            us(20),
            3,
        ));
        for stealing in StealKind::ALL {
            let cfg = ClusterConfig::new(4, 2).with_stealing(stealing);
            let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            assert_eq!(out.tasks, trace.task_count() as u64, "{stealing}");
        }
    }

    #[test]
    fn determinism_grid_is_bit_identical_across_reruns() {
        // Every topology × placement × stealing combination of the
        // determinism grid must produce the same `ClusterOutcome` bit for bit
        // when run twice. The debug rendering covers every field (makespan,
        // per-node outcomes, link tiers, steals, event counts, ...).
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for topology in crate::config::Topology::ALL {
            for placement in PolicyKind::ALL {
                for stealing in StealKind::ALL {
                    let cfg = ClusterConfig::new(4, 4)
                        .with_link(LinkConfig::rdma().with_topology(topology))
                        .with_placement(placement)
                        .with_stealing(stealing);
                    let first = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                    let rerun = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                    assert_eq!(
                        format!("{first:?}"),
                        format!("{rerun:?}"),
                        "rerun diverged on {topology:?}/{placement}/{stealing}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_case_of_the_determinism_grid_is_bit_identical_across_reruns() {
        // The streaming extension of the determinism grid: open-loop
        // arrivals through a tight admission bound (so back-pressure, wakes
        // and steal-capping all engage) must produce the same `StreamOutcome`
        // bit for bit when run twice. The debug rendering covers every field
        // (latencies, back-pressure count, source lag, ...).
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        let arrivals: Vec<SimTime> = (0..trace.task_count())
            .map(|i| SimTime::ZERO + us(5) * i as u64)
            .collect();
        let overlay = nexus_trace::arrivals::ArrivalOverlay::new(arrivals).unwrap();
        let source = StreamingSource::open_loop(overlay, crate::stream::AdmissionConfig::new(4));
        let cfg = ClusterConfig::new(4, 4)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let first = simulate_streaming(&trace, &source, &cfg, |_| tight_sharp());
        let rerun = simulate_streaming(&trace, &source, &cfg, |_| tight_sharp());
        assert_eq!(
            format!("{first:?}"),
            format!("{rerun:?}"),
            "rerun diverged on the streaming case"
        );
        // The tight bound was actually exercised, not vacuously satisfied.
        assert!(first.max_admission_depth <= 4);
        assert_eq!(
            first.latencies.len(),
            trace.task_count(),
            "every task must retire exactly once"
        );
    }

    #[test]
    fn streaming_recorder_is_observational_and_sees_backpressure() {
        // Open-loop streaming with a tight admission bound: the recorder must
        // not perturb the StreamOutcome, and the Backpressure span events
        // must agree with the outcome's counter.
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        let arrivals: Vec<SimTime> = (0..trace.task_count())
            .map(|i| SimTime::ZERO + us(5) * i as u64)
            .collect();
        let overlay = nexus_trace::arrivals::ArrivalOverlay::new(arrivals).unwrap();
        let source = StreamingSource::open_loop(overlay, crate::stream::AdmissionConfig::new(4));
        let cfg = ClusterConfig::new(4, 4)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let plain = simulate_streaming(&trace, &source, &cfg, |_| tight_sharp());
        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
        let traced = ClusterDriver::new(&cfg, |_| tight_sharp())
            .run_streaming_recorded(&trace, &source, &mut rec);
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        let bp = rec.count(|ev| matches!(ev, nexus_obs::SpanEvent::Backpressure { .. }));
        assert_eq!(bp as u64, traced.backpressure_events);
        assert!(bp > 0, "tight bound must actually back-pressure");
        assert_eq!(
            traced.cluster.metrics.counter("stream.backpressure"),
            traced.backpressure_events,
            "stream counters fold into the outcome registry"
        );
        nexus_obs::check_conservation(&rec.events)
            .expect("streaming trace must conserve the task lifecycle");
    }

    #[test]
    fn recorder_is_purely_observational_across_the_grid() {
        // The tentpole invariant of the observability layer: attaching a
        // recorder must not perturb the simulation. Every topology ×
        // placement × stealing combination of the determinism grid must
        // produce a bit-identical `ClusterOutcome` with tracing on vs. off.
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for topology in crate::config::Topology::ALL {
            for placement in PolicyKind::ALL {
                for stealing in StealKind::ALL {
                    let cfg = ClusterConfig::new(4, 4)
                        .with_link(LinkConfig::rdma().with_topology(topology))
                        .with_placement(placement)
                        .with_stealing(stealing);
                    let plain = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                    let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
                    let traced = simulate_cluster_traced(&trace, &cfg, |_| tight_sharp(), &mut rec);
                    assert_eq!(
                        format!("{plain:?}"),
                        format!("{traced:?}"),
                        "recorder perturbed {topology:?}/{placement}/{stealing}"
                    );
                    assert!(!rec.is_empty(), "recorder saw no events");
                }
            }
        }
    }

    #[test]
    fn recorded_spans_conserve_the_task_lifecycle() {
        // Every submitted task retires exactly once and its lifecycle
        // timestamps are monotone; steals and link hops show up in the log.
        let trace = distributed::imbalanced(4, 48, 6.0, us(50), 0.0, 5);
        let cfg = ClusterConfig::new(4, 2)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
        let out = simulate_cluster_traced(&trace, &cfg, |_| tight_sharp(), &mut rec);
        let report = nexus_obs::check_conservation(&rec.events)
            .expect("cluster trace must conserve the task lifecycle");
        assert_eq!(report.submitted as u64, out.tasks);
        assert_eq!(report.retired as u64, out.tasks);
        assert_eq!(report.started as u64, out.tasks);
        assert_eq!(report.stolen as u64, out.steals);
        assert!(out.steals > 0, "scenario must actually steal");
        let hops = rec.count(|ev| matches!(ev, nexus_obs::SpanEvent::LinkHop { .. }));
        assert_eq!(hops as u64, out.link.messages, "one LinkHop per link entry");
        let spans = nexus_obs::chrome_trace(&rec)
            .matches("\"ph\":\"X\"")
            .count();
        assert_eq!(spans as u64, out.tasks, "one complete Chrome span per task");
    }

    #[test]
    fn outcome_metrics_mirror_the_scalar_fields() {
        let trace = distributed::imbalanced(4, 48, 6.0, us(50), 0.0, 5);
        let cfg = ClusterConfig::new(4, 2)
            .with_link(LinkConfig::rdma())
            .with_stealing(StealKind::MostLoaded);
        let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        assert_eq!(out.metrics.counter("task.executed"), out.tasks);
        assert_eq!(out.metrics.counter("steal.stolen"), out.steals);
        assert_eq!(out.metrics.counter("steal.failures"), out.steal_failures);
        assert!(out.metrics.counter("steal.grants") > 0);
        assert_eq!(out.metrics.counter("reclaim.reclaimed"), out.reclaims);
        assert_eq!(
            out.metrics.counter("reclaim.failures"),
            out.reclaim_failures
        );
        assert_eq!(out.reclaims, 0, "feedback is off in this scenario");
        assert_eq!(out.metrics.counter("load.digest.updates"), 0);
        assert_eq!(out.metrics.counter("notify.sent"), out.notifications);
        assert_eq!(out.metrics.counter("sim.events"), out.sim_events);
        assert_eq!(out.metrics.counter("link.words"), out.link.words);
        assert_eq!(
            out.metrics.counter("link.tier0.words"),
            out.link.per_tier[0].words
        );
        let pending = out.metrics.gauge("node.pending.max").unwrap();
        assert_eq!(pending.max, out.max_pending_depth as u64);
    }

    #[test]
    fn profiled_run_reports_engine_activity_without_touching_the_outcome() {
        let trace = distributed::sparselu(4, 0.3, 9, 0.002);
        let cfg = ClusterConfig::new(4, 4);
        let plain = simulate_cluster(&trace, &cfg, |_| IdealManager::new());
        let (profiled, prof) =
            ClusterDriver::new(&cfg, |_| IdealManager::new()).run_profiled(&trace);
        assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
        // Per-kind counts add up to the loop's event total, and every
        // processed event was popped from the queue.
        let per_kind: u64 = prof
            .counters_with_prefix("engine.event.")
            .filter(|(k, _)| k.ends_with(".count"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_kind, profiled.sim_events);
        assert_eq!(prof.counter("engine.pops"), profiled.sim_events);
        assert!(prof.counter("engine.pushes") >= prof.counter("engine.pops"));
        assert!(prof.counter("engine.event.master_step.count") > 0);
    }

    #[test]
    fn failed_steals_on_ideal_links_cannot_livelock_a_timestamp() {
        // Regression for the `last_fail == Some(now)` guard: on an
        // ideal (zero-latency) link a failed steal's empty-handed reply
        // returns at the *same* timestamp it was issued. Without the guard
        // the idle thief re-issues the request inside the same event cascade
        // and the loop never advances time. The victim here is a serial
        // chain pinned to node 0, so node 1 stays idle (and stealing stays
        // useless) for the whole run.
        let mut b = nexus_trace::trace::TraceBuilder::new("ideal-empty-victim");
        for _ in 0..32u64 {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .inout(0x40)
                    .duration(us(10))
                    .affinity(0)
                    .build()
            });
        }
        b.taskwait();
        let trace = b.finish();
        for stealing in StealKind::ALL {
            if !stealing.is_enabled() {
                continue;
            }
            let cfg = ClusterConfig::new(2, 2)
                .with_link(LinkConfig::ideal())
                .with_stealing(stealing);
            let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            assert_eq!(out.tasks, 32, "{stealing}");
            // The chain serializes execution whatever the thief does.
            assert!(out.makespan >= us(320), "{stealing}: {}", out.makespan);
            // Failed attempts are bounded (at most one per thief per distinct
            // timestamp), not a same-time livelock.
            assert!(
                out.steal_failures <= out.sim_events,
                "{stealing}: {} failures in {} events",
                out.steal_failures,
                out.sim_events
            );
        }
    }

    #[test]
    fn policies_and_stealing_stay_deterministic() {
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for placement in PolicyKind::ALL {
            for stealing in StealKind::ALL {
                let cfg = ClusterConfig::new(4, 4)
                    .with_placement(placement)
                    .with_stealing(stealing);
                let a = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                let b = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                assert_eq!(a.makespan, b.makespan, "{placement}/{stealing}");
                assert_eq!(a.steals, b.steals, "{placement}/{stealing}");
                assert_eq!(a.link.words, b.link.words, "{placement}/{stealing}");
                assert_eq!(a.node_tasks(), b.node_tasks(), "{placement}/{stealing}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterDriver::new(&ClusterConfig::new(0, 4), |_| IdealManager::new());
    }

    use nexus_sched::FeedbackKind;

    /// Six interleaved 8-long chains pinned to node 0: at any instant only
    /// the chain fronts are steal-eligible — everything behind them is
    /// dependence-blocked, work that only reclamation can move.
    fn chain_block_trace() -> Trace {
        let mut b = nexus_trace::trace::TraceBuilder::new("reclaim-chains");
        for i in 0..48u64 {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .inout(0x100 + (i % 6) * 0x40)
                    .duration(us(20))
                    .affinity(0)
                    .build()
            });
        }
        b.taskwait();
        b.finish()
    }

    #[test]
    fn reclamation_moves_blocked_backlogs_stealing_cannot_reach() {
        // With stealing disabled entirely, only the reclaim protocol can get
        // work off node 0 — and because each chain serializes on itself, the
        // blocked tail is exactly what is worth moving.
        let cfg = ClusterConfig::new(2, 2).with_link(LinkConfig::rdma());
        let frozen = simulate_cluster(&chain_block_trace(), &cfg, |_| tight_sharp());
        let reclaimed = simulate_cluster(
            &chain_block_trace(),
            &cfg.with_feedback(FeedbackKind::Reclaim),
            |_| tight_sharp(),
        );
        assert_eq!(frozen.reclaims, 0);
        assert_eq!(frozen.tasks, reclaimed.tasks);
        assert!(reclaimed.reclaims > 0, "reclamation must actually happen");
        assert!(
            reclaimed.makespan < frozen.makespan,
            "reclaim must improve the makespan: {} vs {}",
            reclaimed.makespan,
            frozen.makespan
        );
        // Every reclaimed descriptor paid the wire.
        assert!(reclaimed.link.words > frozen.link.words);
        assert_eq!(
            reclaimed.metrics.counter("reclaim.reclaimed"),
            reclaimed.reclaims
        );
        assert!(reclaimed.metrics.counter("reclaim.grants") > 0);
        assert!(
            reclaimed.metrics.counter("load.digest.updates") > 0,
            "digests must ride the retirement notifications"
        );
    }

    #[test]
    fn reclaimed_descriptors_keep_dependences_and_conserve_the_lifecycle() {
        // Recorded reclaim run: every task retires exactly once (the
        // conservation checker treats a Reclaimed task like a Stolen one),
        // and the span census agrees with the outcome counters.
        let cfg = ClusterConfig::new(2, 2)
            .with_link(LinkConfig::rdma())
            .with_feedback(FeedbackKind::Reclaim);
        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
        let out = simulate_cluster_traced(&chain_block_trace(), &cfg, |_| tight_sharp(), &mut rec);
        let report = nexus_obs::check_conservation(&rec.events)
            .expect("reclaim trace must conserve the task lifecycle");
        assert_eq!(report.retired as u64, out.tasks);
        assert_eq!(report.reclaimed as u64, out.reclaims);
        assert!(out.reclaims > 0, "scenario must actually reclaim");
        // The chains force sequential execution per chain: 8 × 20 µs is a
        // hard lower bound however the descriptors move.
        assert!(out.makespan >= us(160), "{}", out.makespan);
    }

    #[test]
    fn reclaimed_descriptors_park_until_resolved_so_chains_cannot_deadlock() {
        // The reclaim counterpart of the stolen-front-of-queue regression: a
        // chain-heavy un-hinted trace must complete under every stealing
        // policy with reclamation (and full feedback) on. A reclaimed
        // descriptor entering the thief's FIFO while still blocked — ahead of
        // or behind the wrong neighbours — would deadlock exactly like the
        // stolen case did.
        let trace = distributed::unhinted(&distributed::rack_clustered(
            2,
            2,
            4,
            8,
            2.0,
            0.5,
            0.2,
            us(20),
            3,
        ));
        for stealing in StealKind::ALL {
            for feedback in [FeedbackKind::Reclaim, FeedbackKind::Full] {
                let cfg = ClusterConfig::new(4, 2)
                    .with_stealing(stealing)
                    .with_feedback(feedback);
                let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                assert_eq!(
                    out.tasks,
                    trace.task_count() as u64,
                    "{stealing}/{feedback}"
                );
            }
        }
    }

    #[test]
    fn a_reclaim_grant_that_takes_the_blocked_head_wakes_the_victim() {
        // Regression: a grant removes descriptors from the victim's input
        // queue. When it takes the blocked head, the eligible descriptors
        // behind it reach the manager only if the victim is pumped; without
        // stealing nobody else takes them, and the run used to end in
        // "cluster master never finished the trace".
        let trace = distributed::unhinted(&distributed::sparselu(3, 0.1, 5, 0.005));
        assert_eq!(trace.task_count(), 855);
        let cfg = ClusterConfig::new(3, 2)
            .with_link(LinkConfig::rdma().with_topology(crate::config::Topology::FullMesh))
            .with_placement(PolicyKind::XorHash)
            .with_stealing(StealKind::Disabled)
            .with_feedback(FeedbackKind::Reclaim);
        let out = simulate_cluster(&trace, &cfg, |_| nexus_core::NexusSharp::paper(6));
        assert_eq!(out.tasks, 855);
        assert!(out.reclaims > 0, "scenario must actually reclaim");
    }

    #[test]
    fn feedback_grid_is_bit_identical_across_reruns() {
        // The feedback × reclaim extension of the determinism grid: every
        // feedback mode must be bit-identical across reruns, with stealing
        // active so all three balancing mechanisms (placement, stealing,
        // reclamation) interleave.
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        for feedback in FeedbackKind::ALL {
            let cfg = ClusterConfig::new(4, 4)
                .with_link(LinkConfig::rdma())
                .with_stealing(StealKind::Hierarchical)
                .with_feedback(feedback);
            let first = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            let rerun = simulate_cluster(&trace, &cfg, |_| tight_sharp());
            assert_eq!(
                format!("{first:?}"),
                format!("{rerun:?}"),
                "rerun diverged on feedback {feedback}"
            );
            // The recorder stays observational with feedback on, too.
            let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
            let traced = simulate_cluster_traced(&trace, &cfg, |_| tight_sharp(), &mut rec);
            assert_eq!(
                format!("{first:?}"),
                format!("{traced:?}"),
                "recorder perturbed feedback {feedback}"
            );
        }
    }

    /// Panics unless every task of `trace` started no earlier than each of
    /// its last-writer producers finished, that is the producer's `Started`
    /// stamp plus its duration (the pools are uniform, so a body takes
    /// exactly its trace duration). Neither the master's last-writer table
    /// nor `check_conservation` compares the order of two tasks.
    fn assert_dependence_order(trace: &Trace, rec: &nexus_obs::MemRecorder, what: &str) {
        let mut started = vec![None; trace.task_count()];
        for &(at, ref ev) in &rec.events {
            if let SpanEvent::Started { task, .. } = *ev {
                started[task] = Some(at);
            }
        }
        let tasks: Vec<&TaskDescriptor> = trace.tasks().collect();
        let mut scanner = DepScanner::new(1);
        let mut early = Vec::new();
        for (c, task) in tasks.iter().enumerate() {
            let start = started[c].expect("every task starts");
            for p in scanner.scan_full(task).producers {
                let done = started[p].expect("every task starts") + tasks[p].duration.as_ps();
                if start < done {
                    early.push((p, c));
                }
            }
        }
        assert!(
            early.is_empty(),
            "{what}: {} consumers started before their producer finished, (producer, consumer) {early:?}",
            early.len()
        );
    }

    #[test]
    fn open_loop_runs_keep_dependence_order_and_place_each_task_once() {
        // Regression: open-loop `place`/`full` runs used to re-place a task
        // at submit over cross-node state a pre-pass had built for tasks not
        // yet submitted. That counted in-flight notifications twice
        // ("remaining_remote underflow") and let consumers start before
        // their producers finished. With digests every kind follows the same
        // feedback rule, so in those modes the three kinds must agree. Two
        // workers per node reach the case of a producer still crossing the
        // fabric after a grant when its consumer commits.
        let trace = distributed::unhinted(&distributed::sparselu(4, 0.4, 7, 0.002));
        let arrivals: Vec<SimTime> = (0..trace.task_count())
            .map(|i| SimTime::ZERO + us(5) * i as u64)
            .collect();
        let overlay = nexus_trace::arrivals::ArrivalOverlay::new(arrivals).unwrap();
        let source = StreamingSource::open_loop(overlay, crate::stream::AdmissionConfig::new(4));
        let link = LinkConfig::rdma().with_topology(crate::config::Topology::FullMesh);
        for workers in [4, 2] {
            for feedback in FeedbackKind::ALL {
                for stealing in [
                    StealKind::Disabled,
                    StealKind::MostLoaded,
                    StealKind::Hierarchical,
                ] {
                    let mut runs = Vec::new();
                    for placement in PolicyKind::ALL {
                        let what = format!("4x{workers} {feedback}/{stealing}/{placement}");
                        let cfg = ClusterConfig::new(4, workers)
                            .with_link(link)
                            .with_placement(placement)
                            .with_stealing(stealing)
                            .with_feedback(feedback);
                        let mut rec = nexus_obs::MemRecorder::new(nexus_obs::TimeBase::VirtualPs);
                        let out = ClusterDriver::new(&cfg, |_| tight_sharp())
                            .run_streaming_recorded(&trace, &source, &mut rec);
                        assert_eq!(out.cluster.tasks, trace.task_count() as u64, "{what}");
                        assert_dependence_order(&trace, &rec, &what);
                        let c = &out.cluster;
                        runs.push((
                            (c.makespan, c.sim_events, c.steals, c.reclaims),
                            (c.notifications, c.link.words, out.latencies),
                        ));
                    }
                    if feedback.place_enabled() {
                        for (run, placement) in runs.iter().zip(PolicyKind::ALL).skip(1) {
                            assert!(
                                *run == runs[0],
                                "4x{workers} {feedback}/{stealing}: {placement} differs from {}",
                                PolicyKind::ALL[0]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn feedback_placement_follows_the_live_digests() {
        // `place` mode on an un-hinted imbalanced trace: the digests steer
        // un-hinted tasks away from the hot node, so placement spreads
        // strictly better than the static rule.
        let trace = distributed::unhinted(&distributed::imbalanced(4, 96, 8.0, us(50), 0.1, 5));
        let cfg = ClusterConfig::new(4, 2).with_link(LinkConfig::rdma());
        let static_run = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        let live = simulate_cluster(&trace, &cfg.with_feedback(FeedbackKind::Place), |_| {
            tight_sharp()
        });
        assert_eq!(static_run.tasks, live.tasks);
        assert!(live.metrics.counter("load.digest.updates") > 0);
        assert_eq!(live.reclaims, 0, "place mode must not reclaim");
        let spread = |o: &ClusterOutcome| {
            let t = o.node_tasks();
            t.iter().max().copied().unwrap_or(0) - t.iter().min().copied().unwrap_or(0)
        };
        assert!(
            spread(&live) <= spread(&static_run),
            "live placement must not be more skewed: {:?} vs {:?}",
            live.node_tasks(),
            static_run.node_tasks()
        );
    }
}
