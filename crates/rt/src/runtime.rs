//! The threaded cluster runtime: the owner/handle pair, the per-node state
//! machines and the worker threads that drive them, and trace replay through
//! the shared [`MasterSm`].
//!
//! # Protocol
//!
//! Each node is a state machine behind its own lock, with no thread of its
//! own: it holds the node's dependence state, its ready and blocked
//! descriptors, and the directory of the tasks homed on it. Whichever thread
//! has work for a node drives it. There are two thread roles:
//!
//! * the **master** side, any thread holding a [`RuntimeHandle`], routes each
//!   submission through the shared `DepScanner` (the same placement and
//!   dependence-edge definition the event simulator uses). It sends
//!   `Subscribe { producer, to: home }` to each *remote* producer's home
//!   node (the producer's **directory**), then `Submit` with the task's
//!   descriptor to its home node;
//! * `workers_per_node` **worker threads** per node take ready descriptors
//!   from their own node, run the bodies, and retire the tasks there.
//!
//! The descriptor misses every last-writer producer and, if the task writes,
//! every task homed on the same node that read one of its outputs since that
//! address was last written (node-local write-after-read, ordered as the
//! simulator's node managers order it). Readers on other nodes are not
//! waited for: like the simulator, the runtime leaves cross-node
//! anti-dependences to renaming.
//!
//! **Delivery.** A node handles one message at a time under its lock and
//! appends the messages it sends to an out-list. The thread that made the
//! list delivers it in send order, locking one destination node at a time;
//! the messages a handler sends join the same list. No thread holds two node
//! locks at once, and under a node lock only leaf locks are taken (the
//! recorder and the digest board). A submission is planned and delivered
//! under the submit lock, so every node admits tasks in program order.
//!
//! **Retirement.** A worker that finished a task first appends it to the one
//! global retire log, then runs `finish` under its node's lock. Appending
//! first means no dependent can become ready before its producer is in the
//! log, so the log is a topological order: the witness the conformance suite
//! checks, and the wait mechanism behind `taskwait`. A thread that blocks on
//! the log registers what it waits for under the log lock: a prefix of
//! submission indices (`taskwait`), one submission index (`taskwait on`), or
//! a log length (trace replay and the shutdown drain). A retirement wakes the
//! blocked threads only when it meets a registered wait, so a retirement
//! nobody waits for makes no wake-up call. `finish` marks the producer
//! retired, which promotes local waiters, and notifies the producer's
//! subscribers if the node is its home, or sends the home a `Notify`
//! otherwise. A body that panics is caught: its task retires as failed, and
//! its dependents still run.
//!
//! A node marks a producer retired either by executing it or by a `Notify`.
//! The home node remains the directory for a descriptor no matter where it
//! ends up executing, so subscriptions never chase moved work around the
//! cluster (the event simulator re-homes moved work instead).
//!
//! **Wake-ups.** A worker that finds nothing ready parks: it yields its CPU
//! once, then takes a wake token from its node's count if one is there, and
//! only then sleeps on its node's condvar. A step that makes descriptors
//! ready adds one token per newly ready descriptor, up to the number of
//! parked workers no token is owed to yet, so the count never exceeds the
//! node's workers. The step notifies the condvar only for workers asleep on
//! it (the node counts them under its lock); a parked worker still yielding
//! finds its token before it would sleep, and taking a token notifies
//! nobody. On a CPU shared with the thread that makes the work ready, the
//! yield lets that thread run first, instead of the worker sleeping and being
//! woken a moment later. A worker that finishes a task takes the next ready
//! descriptor itself, without a token.
//!
//! **Migration** runs one request/grant exchange in the simulator's two
//! kinds, with the simulator's decisions: [`MoveKind`] from `nexus-cluster`
//! says which configuration enables each kind, when an idle node may ask
//! ([`MoveKind::may_ask`], the simulator's idle rule), whom a thief asks and
//! how much a victim grants. No clock drives it. As the simulator considers
//! every node after every event, the runtime considers a node at the end of
//! every step on it, so in the step that leaves it idle, and after every
//! step on another node while it stays idle. Each node publishes on its load
//! board (lock-free atomics) whether it may ask, and after a step another
//! node's lock is taken only if its flag is up and the boards show it a
//! victim. A node that may ask snapshots the boards, picks a victim and
//! sends a `MoveRequest`; the victim answers with a `MoveGrant` of its
//! youngest descriptors of that kind, possibly none:
//!
//! * a **steal** takes up to [`MoveKind::batch`] *ready* descriptors (they
//!   have the fewest local consumers waiting);
//! * a **reclaim** (feedback `Reclaim`/`Full` only, and only once the thief
//!   is completely drained) takes up to [`MoveKind::batch`]
//!   dependence-*blocked* descriptors, which a steal cannot reach. Each keeps
//!   its list of missing producers, and the victim registers a forwarding
//!   entry per missing producer, so the retirement `Notify` it eventually
//!   receives is relayed to the thief.
//!
//! The thief takes a granted descriptor in exactly like a submission: it is
//! ready once every producer it still misses has retired. It then stays
//! there: a ready one goes to the front of the ready queue (the thief
//! imported it to run now), and no board offers it and no grant takes it
//! again. Without that, two idle nodes could hand one blocked descriptor
//! back and forth for as long as it stays blocked. The simulator keeps only
//! blocked arrivals out of reach (it parks them): an eligible one waits at
//! the front of the thief's input queue while the input processor is busy,
//! and a later grant can move it on.
//!
//! **Feedback.** With runtime feedback enabled (`RtConfig::feedback`), every
//! retirement publishes the retiring node's live [`LoadView`]
//! (wall-nanosecond clock) to one shared digest board, a [`LoadTracker`], as
//! the simulator's retirement notifications carry digests to its master's
//! tracker. Submit-time placement (`Place`/`Full`, the feedback rule of
//! [`PolicyKind::place`](nexus_sched::PolicyKind::place)) and reclaim victim
//! choice both read that board. No digest travels on a node message.

use crate::config::RtConfig;
use crate::task::{RtTask, SubmitError, TaskBody};
use nexus_cluster::routing::DepScanner;
use nexus_cluster::{IdleNode, MoveKind};
use nexus_host::{MasterSm, MasterStep};
use nexus_obs::{Registry, SharedRecorder, SpanEvent};
use nexus_sched::{FeedbackKind, LoadTracker, LoadView, NodeLoad, StealKind};
use nexus_sim::{FxHashMap, FxHashSet, SimDuration, SimTime};
use nexus_topo::DistanceMatrix;
use nexus_trace::{TaskId, Trace};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Decay half-life of live load digests in wall nanoseconds (the runtime's
/// observation clock) — the live counterpart of the simulator's 200 µs
/// virtual half-life, stretched to the millisecond scale real threads
/// schedule at.
const DIGEST_HALF_LIFE_NS: u64 = 1_000_000;

/// A task descriptor as the nodes hold it and pass it on: submitted to its
/// home, queued, granted to a thief, taken by a worker. `home` is the
/// directory node, so a descriptor moved (even repeatedly) still reports its
/// retirement back to the one node holding its subscriptions. `missing`
/// lists the producers still unretired as far as the holding node knows; it
/// is empty once the task is ready.
struct Descriptor {
    idx: usize,
    id: TaskId,
    home: usize,
    duration: SimDuration,
    body: Option<TaskBody>,
    missing: Vec<usize>,
    /// Arrived in a grant: it stays with its thief (see the [module
    /// docs](self)).
    moved: bool,
}

/// Messages from the master to the nodes and between nodes.
enum Msg {
    /// Master → home node: a new descriptor, missing every producer (by
    /// submission index).
    Submit(Descriptor),
    /// Master → a producer's home: node `to` consumes `producer`; notify it
    /// on retirement (immediately if already retired).
    Subscribe { producer: usize, to: usize },
    /// `producer` has retired: from its directory to a subscriber, from a
    /// victim to a thief it reclaimed a waiter for, or from the node that
    /// executed a moved descriptor to its home.
    Notify { producer: usize },
    /// Idle thief → victim: request up to a [`MoveKind::batch`] of `kind`.
    MoveRequest {
        kind: MoveKind,
        thief: usize,
        free: usize,
    },
    /// Victim → thief: the granted batch (possibly empty-handed).
    MoveGrant {
        kind: MoveKind,
        tasks: Vec<Descriptor>,
    },
}

/// Messages not yet delivered, each with its destination node, in send
/// order.
type Out = VecDeque<(usize, Msg)>;

/// Per-node load board: lock-free counters each step publishes and idle
/// thieves snapshot into [`NodeLoad`]s for victim choice.
struct Board {
    pending: AtomicUsize,
    stealable: AtomicUsize,
    /// Per [`MoveKind`]: the idle rule lets the node ask and it has no
    /// victim yet.
    asks: [AtomicBool; 2],
}

/// One node's migration counters for one [`MoveKind`].
#[derive(Default, Clone, Copy)]
struct MoveStats {
    /// Descriptors taken in as the thief.
    moved_in: u64,
    /// Descriptors granted away as the victim.
    moved_out: u64,
    /// Requests issued while idle.
    requests: u64,
    /// Requests answered with a non-empty batch (as the victim).
    grants: u64,
    /// Requests answered empty-handed (as the victim).
    failures: u64,
}

/// Per-node statistics. The executed count is not here: the workers' own
/// counters sum to it, and they are bumped before the retire log shows a
/// retirement.
#[derive(Default)]
struct NodeStats {
    admitted: Vec<TaskId>,
    /// Indexed by [`MoveKind`].
    moves: [MoveStats; 2],
    /// Digests this node published that the board applied.
    digest_updates: u64,
    /// Tasks whose body panicked on this node's workers.
    failed: u64,
}

/// Everything about one node: its state machine and the parts read without
/// its lock.
struct Slot {
    node: Mutex<Node>,
    board: Board,
    per_worker_done: Vec<AtomicU64>,
    /// Where the node's parked workers sleep until a wake token is there (see
    /// the [module docs](self)).
    wake: Condvar,
}

/// What a thread blocked on the retire log waits for (see
/// [`Inner::wait_log`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Every submission index below this one has retired (`taskwait`).
    Prefix(usize),
    /// This submission index has retired (`taskwait on`).
    Index(usize),
    /// The log holds at least this many retirements (trace replay, the
    /// shutdown drain).
    Len(usize),
}

/// The global retirement record: `order` is the append-only log (one entry
/// per executed task, in real wall-clock retirement order — the topological
/// witness), and `prefix` with `ahead` the set of retired submission indices
/// behind `taskwait` and `taskwait on`.
#[derive(Default)]
struct RetireLog {
    order: Vec<TaskId>,
    /// Every submission index below `prefix` has retired.
    prefix: usize,
    /// Retired submission indices above `prefix`.
    ahead: FxHashSet<usize>,
    /// The waits of the threads blocked on the log; none is met yet.
    waits: Vec<Wait>,
}

impl RetireLog {
    /// Records the retirement of task `id`, submission index `idx`. Returns
    /// whether it met a registered wait; the met waits are dropped.
    fn retire(&mut self, idx: usize, id: TaskId) -> bool {
        self.order.push(id);
        if idx != self.prefix {
            self.ahead.insert(idx);
        } else {
            self.prefix += 1;
            while self.ahead.remove(&self.prefix) {
                self.prefix += 1;
            }
        }
        if self.waits.is_empty() {
            return false;
        }
        let mut waits = std::mem::take(&mut self.waits);
        let before = waits.len();
        waits.retain(|&w| !self.met(w));
        let met = waits.len() < before;
        self.waits = waits;
        met
    }

    /// Whether the log meets `wait`.
    fn met(&self, wait: Wait) -> bool {
        match wait {
            Wait::Prefix(p) => self.prefix >= p,
            Wait::Index(i) => i < self.prefix || self.ahead.contains(&i),
            Wait::Len(n) => self.order.len() >= n,
        }
    }
}

/// Master-side submission state, serialized under one lock so placement and
/// dependence scanning see every submission in program order.
struct SubmitState {
    scanner: DepScanner,
    /// Per address: submission indices of the tasks that read it since it
    /// was last written, which the next writer on the same node waits for.
    addrs: FxHashMap<u64, Vec<usize>>,
    /// `(producer, node)` pairs already subscribed (dedup: one `Notify` per
    /// consuming node is enough, readiness counting is per missing producer).
    subscribed: FxHashSet<(usize, usize)>,
    closed: bool,
}

/// State shared between the runtime owner, every handle, and every thread.
struct Inner {
    nodes: Vec<Slot>,
    sub: Mutex<SubmitState>,
    submitted: AtomicU64,
    /// Set once by `stop` before it wakes the parked workers under each
    /// node's lock and the threads blocked on the log under the log lock. A
    /// worker reads it after registering as parked under its node's lock,
    /// and a log waiter under the log lock, so either `stop` wakes the thread
    /// or the thread sees the flag.
    shutdown: AtomicBool,
    log: Mutex<RetireLog>,
    log_cv: Condvar,
    /// Span recorder shared by every thread (`None` when tracing is off —
    /// the emission sites skip even the clock read).
    rec: Option<SharedRecorder>,
    /// Feedback mode the runtime was built with (drives the digest board and
    /// the reclaim path).
    feedback: FeedbackKind,
    stealing: StealKind,
    /// Per [`MoveKind`]: the configuration enables it.
    moves: [bool; 2],
    distances: DistanceMatrix,
    time_scale_ns_per_us: u64,
    /// Epoch of the digest observation clock — one `Instant` shared by every
    /// thread so all `LoadView::updated_at` stamps are comparable.
    epoch: Instant,
    /// Shared digest board: the freshest `LoadView` each node published at
    /// retirement, read by submit-time feedback placement and reclaim victim
    /// choice. Written only while feedback is on. A leaf lock: taken under
    /// the submit lock or a node lock, never the other way round.
    digests: Mutex<LoadTracker>,
}

impl Inner {
    /// Builds every node for `cfg`, spawning nothing.
    fn new(cfg: &RtConfig) -> Inner {
        let fabric = cfg.link.fabric(cfg.nodes);
        // The scanner keeps owning the homes table, so dependence
        // subscriptions always match the placement actually used, digests
        // or not (see `plan`).
        let scanner =
            DepScanner::with_policy(cfg.nodes, cfg.placement).with_distances(fabric.distances());
        let nodes = (0..cfg.nodes)
            .map(|id| Slot {
                node: Mutex::new(Node {
                    id,
                    workers: cfg.workers_per_node,
                    retired: FxHashSet::default(),
                    subs: FxHashMap::default(),
                    waiting: FxHashMap::default(),
                    pending: FxHashMap::default(),
                    reclaimed_away: FxHashMap::default(),
                    ready: VecDeque::new(),
                    free: cfg.workers_per_node,
                    parked: 0,
                    moved_ready: 0,
                    inflight: [false; 2],
                    idle: 0,
                    woken: 0,
                    tokens: 0,
                    sleepers: 0,
                    stats: NodeStats::default(),
                }),
                board: Board {
                    pending: AtomicUsize::new(0),
                    stealable: AtomicUsize::new(0),
                    asks: [AtomicBool::new(false), AtomicBool::new(false)],
                },
                per_worker_done: (0..cfg.workers_per_node)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                wake: Condvar::new(),
            })
            .collect();
        Inner {
            nodes,
            sub: Mutex::new(SubmitState {
                scanner,
                addrs: FxHashMap::default(),
                subscribed: FxHashSet::default(),
                closed: false,
            }),
            submitted: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            log: Mutex::new(RetireLog::default()),
            log_cv: Condvar::new(),
            rec: cfg.recorder.clone(),
            feedback: cfg.feedback,
            stealing: cfg.stealing,
            moves: MoveKind::ALL.map(|k| k.enabled(cfg.stealing, cfg.feedback)),
            distances: fabric.distances(),
            time_scale_ns_per_us: cfg.time_scale_ns_per_us,
            epoch: Instant::now(),
            digests: Mutex::new(LoadTracker::new(cfg.nodes, DIGEST_HALF_LIFE_NS)),
        }
    }

    fn lock_log(&self) -> MutexGuard<'_, RetireLog> {
        self.log.lock().expect("retire log poisoned")
    }

    fn lock_node(&self, n: usize) -> MutexGuard<'_, Node> {
        self.nodes[n].node.lock().expect("node state poisoned")
    }

    fn lock_digests(&self) -> MutexGuard<'_, LoadTracker> {
        self.digests.lock().expect("digest board poisoned")
    }

    /// Nanoseconds on the digest observation clock.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Scans a submission and returns the messages that route it: one
    /// `Subscribe` per remote producer not yet subscribed to from the task's
    /// home, then the `Submit`.
    fn plan(&self, sub: &mut SubmitState, task: RtTask) -> Out {
        let RtTask { descriptor, body } = task;
        let rec = if self.feedback.place_enabled() {
            // Place against the freshest published digests, as the
            // simulator's master does when it submits a task.
            let digests = self.lock_digests();
            let live = digests.live(self.now_ns());
            sub.scanner.scan_full_live(&descriptor, Some(live))
        } else {
            sub.scanner.scan_full(&descriptor)
        };
        let idx = self.submitted.fetch_add(1, Ordering::AcqRel) as usize;
        let SubmitState {
            scanner,
            addrs,
            subscribed,
            ..
        } = sub;
        let mut out = Out::new();
        for &producer in &rec.producers {
            let (from, to) = (scanner.home(producer), rec.home);
            if from != to && subscribed.insert((producer, to)) {
                out.push_back((from, Msg::Subscribe { producer, to }));
            }
        }
        let mut missing = rec.producers;
        for p in &descriptor.params {
            let readers = addrs.entry(p.addr).or_default();
            if p.dir.writes() {
                // Write-after-read, on this node only (see the module docs).
                let local = |&r: &usize| r != idx && scanner.home(r) == rec.home;
                missing.extend(readers.drain(..).filter(local));
            } else {
                readers.push(idx);
            }
        }
        missing.sort_unstable();
        missing.dedup();
        if let Some(r) = &self.rec {
            r.record_now(SpanEvent::Submitted { task: idx });
            r.record_now(SpanEvent::Placed {
                task: idx,
                node: rec.home,
            });
        }
        let t = Descriptor {
            idx,
            id: descriptor.id,
            home: rec.home,
            duration: descriptor.duration,
            body,
            missing,
            moved: false,
        };
        out.push_back((rec.home, Msg::Submit(t)));
        out
    }

    /// Runs `step` on node `n` (see [`Inner::locked`]), then lets each other
    /// node whose board flag is up ask for a move if the boards show it a
    /// victim (see the [module docs](self)). The boards are snapshotted once,
    /// at the first raised flag. Victim choice reads the digests only to
    /// break ties, so the lock-free check passes none.
    fn with_node<R>(
        &self,
        n: usize,
        out: &mut Out,
        step: impl FnOnce(&mut Node, &mut Out) -> R,
    ) -> R {
        let r = self.locked(n, out, step);
        if self.moves == [false; 2] {
            return r;
        }
        // Pairs with the fence in `Node::try_moves`: this thread sees an
        // idle node's flag, or that node saw the board this step published.
        fence(Ordering::SeqCst);
        let mut loads = None;
        for (j, slot) in self.nodes.iter().enumerate().filter(|&(j, _)| j != n) {
            let asks = MoveKind::ALL.map(|k| slot.board.asks[k as usize].load(Ordering::Relaxed));
            if asks == [false; 2] {
                continue;
            }
            let loads = loads.get_or_insert_with(|| self.load_board());
            let victim =
                |k: MoveKind| k.choose_victim(self.stealing, j, loads, None, &self.distances);
            if MoveKind::ALL
                .into_iter()
                .any(|k| asks[k as usize] && victim(k).is_some())
            {
                self.locked(j, out, |_, _| {});
            }
        }
        r
    }

    /// Runs `step` on node `n` under its lock, publishes the node's load
    /// board and lets the node ask for a move if it may
    /// ([`Node::try_moves`]), then hands out the wake tokens the step owes
    /// its parked workers and wakes as many of them as sleep.
    fn locked<R>(&self, n: usize, out: &mut Out, step: impl FnOnce(&mut Node, &mut Out) -> R) -> R {
        let slot = &self.nodes[n];
        let mut node = self.lock_node(n);
        let r = step(&mut node, out);
        node.sync_board(&slot.board);
        if self.moves != [false; 2] {
            node.try_moves(self, &slot.board, out);
        }
        let tokens = node.woken.min(node.idle);
        node.idle -= tokens;
        node.woken = 0;
        node.tokens += tokens;
        // A parked worker that is not asleep yet checks the count before it
        // sleeps: only sleepers need a notify.
        let wake = tokens.min(node.sleepers);
        drop(node);
        for _ in 0..wake {
            slot.wake.notify_one();
        }
        r
    }

    /// Runs `step` on node `n`, then delivers the messages it sent.
    fn step<R>(&self, n: usize, step: impl FnOnce(&mut Node, &mut Out) -> R) -> R {
        let mut out = Out::new();
        let r = self.with_node(n, &mut out, step);
        self.deliver(out);
        r
    }

    /// Delivers `out` in send order, one node lock at a time; the messages a
    /// handler sends join the list.
    fn deliver(&self, mut out: Out) {
        while let Some((to, msg)) = out.pop_front() {
            self.with_node(to, &mut out, |node, out| node.on_msg(self, msg, out));
        }
    }

    /// Appends the retirement of submission `idx`, executed on node `node`,
    /// to the retire log, and wakes the threads blocked on the log if it met
    /// one of their waits.
    fn log_retired(&self, idx: usize, id: TaskId, node: usize) {
        let met = self.lock_log().retire(idx, id);
        if let Some(r) = &self.rec {
            r.record_now(SpanEvent::Retired { task: idx, node });
        }
        if met {
            self.log_cv.notify_all();
        }
    }

    /// Blocks until the retire log meets `wait` and returns true, or returns
    /// false once the runtime shuts down or `deadline` passes first. While
    /// the thread sleeps, its wait stays registered in the log, so only a
    /// retirement that meets some registered wait, or the shutdown, wakes it.
    fn wait_log(&self, wait: Wait, deadline: Option<Instant>) -> bool {
        let mut log = self.lock_log();
        let mut registered = false;
        while !log.met(wait) {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if self.shutdown.load(Ordering::Acquire) || left.is_some_and(|l| l.is_zero()) {
                if registered {
                    let at = log.waits.iter().position(|&w| w == wait);
                    log.waits
                        .swap_remove(at.expect("an unmet wait stays registered"));
                }
                return false;
            }
            if !registered {
                log.waits.push(wait);
                registered = true;
            }
            log = match left {
                None => self.log_cv.wait(log).expect("retire log poisoned"),
                Some(left) => {
                    let waited = self.log_cv.wait_timeout(log, left);
                    waited.expect("retire log poisoned").0
                }
            };
        }
        // The retirement that met a registered wait dropped it.
        true
    }

    /// One worker thread of node `n` (see the [module docs](self)).
    fn work(&self, n: usize, worker: usize) {
        let take = |node: &mut Node, _: &mut Out| node.take_ready(self);
        let mut next = self.step(n, take);
        loop {
            // Read after `take_ready` parks this worker, so a shutdown that
            // found it unparked is seen here.
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let Some(t) = next else {
                self.park(n);
                next = self.step(n, take);
                continue;
            };
            if let Some(r) = &self.rec {
                r.record_now(SpanEvent::Started {
                    task: t.idx,
                    node: n,
                    worker,
                });
            }
            let failed = t
                .body
                .is_some_and(|body| catch_unwind(AssertUnwindSafe(body)).is_err());
            if self.time_scale_ns_per_us > 0 {
                let ns = t.duration.as_us_f64() * self.time_scale_ns_per_us as f64;
                thread::sleep(Duration::from_nanos(ns as u64));
            }
            self.nodes[n].per_worker_done[worker].fetch_add(1, Ordering::Relaxed);
            // Before `finish`, which may make dependents ready.
            self.log_retired(t.idx, t.id, n);
            next = self.step(n, |node, out| {
                node.finish(self, t.idx, t.home, failed, out);
                take(node, out)
            });
        }
    }

    /// Blocks a parked worker of node `n` until it takes a wake token: it
    /// yields once, then sleeps only if no token is there yet (see the
    /// [module docs](self)).
    fn park(&self, n: usize) {
        thread::yield_now();
        let mut node = self.lock_node(n);
        if node.tokens == 0 {
            node.sleepers += 1;
            node = self.nodes[n]
                .wake
                .wait_while(node, |node| node.tokens == 0)
                .expect("node state poisoned");
            node.sleepers -= 1;
        }
        node.tokens -= 1;
    }

    /// Snapshots every node's published board into the [`NodeLoad`]s victim
    /// choice reads.
    fn load_board(&self) -> Vec<NodeLoad> {
        self.nodes
            .iter()
            .map(|n| NodeLoad {
                pending: n.board.pending.load(Ordering::Relaxed),
                stealable: n.board.stealable.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Snapshot of one node's runtime statistics (see
/// [`RuntimeHandle::node_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// Node index.
    pub node: usize,
    /// Tasks admitted at this node (as their home), in admission order.
    pub admitted: Vec<TaskId>,
    /// Tasks that finished executing on this node's workers (includes stolen
    /// work executed here, excludes work stolen away).
    pub executed: u64,
    /// Descriptors this node stole from victims.
    pub stolen_in: u64,
    /// Descriptors granted away to thieves.
    pub stolen_out: u64,
    /// Steal requests this node issued while idle.
    pub steal_requests: u64,
    /// Steal requests this node answered with a non-empty batch (as the
    /// victim) — the live counterpart of the simulator's grant count.
    pub steal_grants: u64,
    /// Steal requests this node answered empty-handed (as the victim).
    pub steal_failures: u64,
    /// Dependence-blocked descriptors this node reclaimed from victims
    /// (0 unless the feedback mode enables reclamation).
    pub reclaimed_in: u64,
    /// Blocked descriptors handed away to reclaiming thieves.
    pub reclaimed_out: u64,
    /// Reclaim requests this node issued while idle.
    pub reclaim_requests: u64,
    /// Reclaim requests this node answered with a non-empty batch (as the
    /// victim).
    pub reclaim_grants: u64,
    /// Reclaim requests this node answered empty-handed (as the victim).
    pub reclaim_failures: u64,
    /// Load digests this node published at retirement that the shared digest
    /// board applied (0 with feedback off, when nothing is published).
    pub digest_updates: u64,
    /// Tasks completed per worker thread of this node.
    pub per_worker_done: Vec<u64>,
}

/// What a shutdown found (see [`ClusterRuntime::shutdown_timeout`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Tasks submitted over the runtime's lifetime.
    pub submitted: u64,
    /// Tasks retired before the runtime stopped.
    pub retired: u64,
    /// Tasks submitted but never retired (`submitted - retired`); zero after
    /// a drained run.
    pub pending: u64,
    /// Final per-node statistics.
    pub per_node: Vec<NodeStatsSnapshot>,
    /// Metrics registry folded associatively over the per-node statistics.
    /// Counter names match the event simulator's `ClusterOutcome::metrics`
    /// (`task.executed`, `task.retired`, `steal.stolen`, `steal.grants`,
    /// `steal.failures`, `reclaim.reclaimed`, `reclaim.grants`,
    /// `reclaim.failures`, `load.digest.updates`), so the conformance suite
    /// can compare the live and simulated censuses key by key. `task.failed`
    /// counts the tasks whose body panicked (see [`RtTask::with_body`]).
    pub metrics: Registry,
}

/// Result of replaying a whole trace (see [`RuntimeHandle::run_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRunReport {
    /// Tasks the master submitted.
    pub submitted: u64,
    /// Retirements the master observed (equals `submitted` after the final
    /// barrier).
    pub retired: u64,
    /// The master's final last-writer table, directly comparable with
    /// `ClusterOutcome::master_last_writer` from the event simulator.
    pub last_writer: Vec<(u64, TaskId)>,
}

/// Lifecycle state of the owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    New,
    Running,
    Stopped,
}

/// The owning half of the runtime, tokio-style: [`ClusterRuntime::new`]
/// spawns nothing, [`ClusterRuntime::start`] spawns the worker threads
/// exactly once, and [`ClusterRuntime::shutdown_timeout`] /
/// [`ClusterRuntime::shutdown_background`] stop them. Not cloneable — thread
/// ownership has one owner; cheap cloneable [`RuntimeHandle`]s do the
/// submitting.
///
/// Dropping a running `ClusterRuntime` signals shutdown without joining
/// (the threads unwind in the background).
pub struct ClusterRuntime {
    cfg: RtConfig,
    state: State,
    inner: Option<Arc<Inner>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ClusterRuntime {
    /// Prepares a runtime for `cfg` without spawning any thread.
    ///
    /// # Panics
    /// Panics if `cfg.nodes` or `cfg.workers_per_node` is zero.
    pub fn new(cfg: RtConfig) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(
            cfg.workers_per_node > 0,
            "need at least one worker per node"
        );
        ClusterRuntime {
            cfg,
            state: State::New,
            inner: None,
            threads: Vec::new(),
        }
    }

    /// Spawns the `nodes × workers_per_node` worker threads and returns a
    /// handle for submitting work. Spawning happens exactly once per
    /// runtime.
    ///
    /// # Panics
    /// Panics if called a second time (`start` spawns exactly once — create
    /// a new runtime instead).
    pub fn start(&mut self) -> RuntimeHandle {
        assert!(
            self.state == State::New,
            "ClusterRuntime::start called twice (the runtime spawns exactly once)"
        );
        let inner = Arc::new(Inner::new(&self.cfg));
        for node in 0..self.cfg.nodes {
            for worker in 0..self.cfg.workers_per_node {
                let inner = Arc::clone(&inner);
                let t = thread::Builder::new()
                    .name(format!("nexus-rt-w{node}.{worker}"))
                    .spawn(move || inner.work(node, worker))
                    .expect("failed to spawn worker thread");
                self.threads.push(t);
            }
        }
        self.state = State::Running;
        self.inner = Some(Arc::clone(&inner));
        RuntimeHandle { inner }
    }

    /// Waits up to `timeout` for every submitted task to retire, then stops
    /// and joins all threads and reports what was (and was not) finished.
    /// After a fully drained run the report's `pending` is zero. Submissions
    /// through surviving handles fail with [`SubmitError::ShutDown`] from
    /// this point on.
    ///
    /// # Panics
    /// Re-raises the panic of a worker thread that died outside a task body
    /// (a panicking body only fails its task).
    pub fn shutdown_timeout(mut self, timeout: Duration) -> ShutdownReport {
        self.stop(Some(timeout))
    }

    /// Signals shutdown and returns immediately without joining; the threads
    /// finish their in-flight tasks and unwind in the background.
    pub fn shutdown_background(mut self) {
        self.stop(None);
    }

    fn stop(&mut self, wait: Option<Duration>) -> ShutdownReport {
        if self.state != State::Running {
            self.state = State::Stopped;
            return ShutdownReport {
                submitted: 0,
                retired: 0,
                pending: 0,
                per_node: Vec::new(),
                metrics: Registry::new(),
            };
        }
        self.state = State::Stopped;
        let inner = self.inner.take().expect("running runtime has inner state");
        // Closed first: the drain waits for a fixed number of submissions.
        inner.sub.lock().expect("submit state poisoned").closed = true;
        if let Some(timeout) = wait {
            let submitted = inner.submitted.load(Ordering::Acquire) as usize;
            inner.wait_log(Wait::Len(submitted), Some(Instant::now() + timeout));
        }
        inner.shutdown.store(true, Ordering::Release);
        // Wake every parked worker; one that parks later sees the flag first.
        for n in 0..inner.nodes.len() {
            inner.step(n, |node, _| node.woken = node.idle);
        }
        // Wake every thread blocked on the log, under its lock: one that
        // read the flag unset is asleep by then.
        let log = inner.lock_log();
        inner.log_cv.notify_all();
        drop(log);
        let threads = std::mem::take(&mut self.threads);
        if wait.is_some() {
            for t in threads {
                if let Err(panic) = t.join() {
                    resume_unwind(panic);
                }
            }
        }
        let handle = RuntimeHandle {
            inner: Arc::clone(&inner),
        };
        let submitted = inner.submitted.load(Ordering::Acquire);
        let retired = inner.lock_log().order.len() as u64;
        let per_node = handle.node_stats();
        // One registry per node, folded with the associative merge — the
        // same shape the simulator builds its outcome registry in.
        let mut metrics = Registry::new();
        for s in &per_node {
            let mut node = Registry::new();
            node.add("task.executed", s.executed);
            node.add("task.failed", inner.lock_node(s.node).stats.failed);
            node.add("steal.stolen", s.stolen_in);
            node.add("steal.grants", s.steal_grants);
            node.add("steal.failures", s.steal_failures);
            node.add("steal.requests", s.steal_requests);
            node.add("reclaim.reclaimed", s.reclaimed_in);
            node.add("reclaim.grants", s.reclaim_grants);
            node.add("reclaim.failures", s.reclaim_failures);
            node.add("load.digest.updates", s.digest_updates);
            node.sample("node.executed", s.executed);
            metrics.merge(&node);
        }
        metrics.add("task.retired", retired);
        ShutdownReport {
            submitted,
            retired,
            pending: submitted.saturating_sub(retired),
            per_node,
            metrics,
        }
    }
}

impl Drop for ClusterRuntime {
    fn drop(&mut self) {
        if self.state == State::Running {
            self.stop(None);
        }
    }
}

/// Cheap cloneable submission handle (see [`ClusterRuntime::start`]): submit
/// tasks, wait on barriers, replay traces, snapshot statistics. Clones share
/// one runtime; all of it is usable from any thread.
#[derive(Clone)]
pub struct RuntimeHandle {
    inner: Arc<Inner>,
}

impl RuntimeHandle {
    /// Routes `task` to its home node and returns its id. The placement and
    /// dependence edges are decided by the same scanner the event simulator
    /// uses, under one lock, so submissions are dependence-scanned in
    /// program order.
    ///
    /// # Errors
    /// [`SubmitError::ShutDown`] once the runtime owner has shut down.
    pub fn submit(&self, task: RtTask) -> Result<TaskId, SubmitError> {
        let id = task.descriptor.id;
        let mut sub = self.inner.sub.lock().expect("submit state poisoned");
        if sub.closed {
            return Err(SubmitError::ShutDown);
        }
        let out = self.inner.plan(&mut sub, task);
        // Still under the submit lock: every node admits in program order.
        self.inner.deliver(out);
        Ok(id)
    }

    /// Blocks until every task submitted before the call has retired (or the
    /// runtime shuts down, whichever comes first).
    pub fn taskwait(&self) {
        let target = self.inner.submitted.load(Ordering::Acquire) as usize;
        self.inner.wait_log(Wait::Prefix(target), None);
    }

    /// Blocks until the last task that wrote `addr` has retired — a no-op if
    /// nothing submitted so far writes `addr`. Returns early if the runtime
    /// shuts down.
    pub fn taskwait_on(&self, addr: u64) {
        let sub = self.inner.sub.lock().expect("submit state poisoned");
        let Some(target) = sub.scanner.last_writer(addr) else {
            return;
        };
        drop(sub);
        self.inner.wait_log(Wait::Index(target), None);
    }

    /// Tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Acquire)
    }

    /// Tasks retired so far.
    pub fn retired(&self) -> u64 {
        self.inner.lock_log().order.len() as u64
    }

    /// The global retirement log so far, in real retirement order. Every
    /// consumer appears after all of its producers — the runtime's execution
    /// is a legal topological order of the dependence graph, and this log is
    /// the witness the conformance suite checks.
    pub fn retire_log(&self) -> Vec<TaskId> {
        self.inner.lock_log().order.clone()
    }

    /// Per-node statistics snapshots (admission order, executed/stolen
    /// counts, per-worker completions).
    pub fn node_stats(&self) -> Vec<NodeStatsSnapshot> {
        (0..self.inner.nodes.len())
            .map(|node| {
                let per_worker_done: Vec<u64> = self.inner.nodes[node]
                    .per_worker_done
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect();
                let stats = &self.inner.lock_node(node).stats;
                let [steal, reclaim] = stats.moves;
                NodeStatsSnapshot {
                    node,
                    admitted: stats.admitted.clone(),
                    executed: per_worker_done.iter().sum(),
                    stolen_in: steal.moved_in,
                    stolen_out: steal.moved_out,
                    steal_requests: steal.requests,
                    steal_grants: steal.grants,
                    steal_failures: steal.failures,
                    reclaimed_in: reclaim.moved_in,
                    reclaimed_out: reclaim.moved_out,
                    reclaim_requests: reclaim.requests,
                    reclaim_grants: reclaim.grants,
                    reclaim_failures: reclaim.failures,
                    digest_updates: stats.digest_updates,
                    per_worker_done,
                }
            })
            .collect()
    }

    /// Replays `trace` through the shared [`MasterSm`] — the exact master
    /// semantics of the simulators (program order, `taskwait`,
    /// `taskwait on`), with retirement visibility coming from the live
    /// retire log instead of simulated events. Master compute segments are
    /// not slept: the replay is gated purely by the dataflow.
    ///
    /// Assumes this handle's submissions are the runtime's only traffic
    /// while the replay runs (the barrier census counts every retirement).
    ///
    /// # Errors
    /// [`SubmitError::ShutDown`] if the runtime shuts down mid-replay.
    pub fn run_trace(&self, trace: &Trace) -> Result<TraceRunReport, SubmitError> {
        let mut sm = MasterSm::new();
        let mut fed = 0usize;
        loop {
            {
                let log = self.inner.lock_log();
                while fed < log.order.len() {
                    sm.on_retired(log.order[fed], SimTime::ZERO);
                    fed += 1;
                }
            }
            match sm.step(trace, SimTime::ZERO, true) {
                MasterStep::Submit(task) => {
                    let task = task.clone();
                    self.submit(RtTask::new(task.clone()))?;
                    sm.commit_submit(&task, SimTime::ZERO);
                }
                MasterStep::Compute(_) | MasterStep::Continue => {}
                MasterStep::Waiting => {
                    if !self.inner.wait_log(Wait::Len(fed + 1), None) {
                        return Err(SubmitError::ShutDown);
                    }
                }
                MasterStep::Done => break,
            }
        }
        Ok(TraceRunReport {
            submitted: sm.submitted(),
            retired: sm.retired_count(),
            last_writer: sm.last_writer_table(),
        })
    }
}

/// One node's state machine (see the [module docs](self) for the protocol).
/// Each method handles one event and appends the messages it sends to an
/// out-list; none takes a lock but the leaf ones.
struct Node {
    id: usize,
    workers: usize,
    /// Producers known retired at this node (executed here, or announced by
    /// a `Notify`).
    retired: FxHashSet<usize>,
    /// Directory: producer → nodes to `Notify` when it retires.
    subs: FxHashMap<usize, Vec<usize>>,
    /// Producer → local pending tasks waiting on it.
    waiting: FxHashMap<usize, Vec<usize>>,
    /// Dependence-blocked descriptors by submission index.
    pending: FxHashMap<usize, Descriptor>,
    /// Forwarding entries for descriptors reclaimed away while still blocked:
    /// producer → thief nodes to relay the retirement `Notify` to, so the
    /// thief's copy of the dependence eventually resolves.
    reclaimed_away: FxHashMap<usize, Vec<usize>>,
    /// Ready descriptors waiting for a worker (the stealable backlog;
    /// thieves take from the back).
    ready: VecDeque<Descriptor>,
    /// Workers not holding a descriptor.
    free: usize,
    /// Granted descriptors in `pending` (the simulator's parked ones).
    parked: usize,
    /// Granted descriptors at the front of `ready`.
    moved_ready: usize,
    /// Per [`MoveKind`]: a request of that kind is in flight from this node.
    inflight: [bool; 2],
    /// Parked workers no wake token is owed to yet.
    idle: usize,
    /// Descriptors made ready in the current step and not taken in it: the
    /// wake tokens the step owes.
    woken: usize,
    /// Wake tokens handed out and not yet taken, each owed to a distinct
    /// parked worker.
    tokens: usize,
    /// Parked workers asleep on the slot's condvar.
    sleepers: usize,
    stats: NodeStats,
}

impl Node {
    /// Handles one message.
    fn on_msg(&mut self, cx: &Inner, msg: Msg, out: &mut Out) {
        match msg {
            Msg::Submit(t) => {
                self.stats.admitted.push(t.id);
                self.admit(t);
            }
            Msg::Subscribe { producer, to } => {
                if self.retired.contains(&producer) {
                    out.push_back((to, Msg::Notify { producer }));
                } else {
                    self.subs.entry(producer).or_default().push(to);
                }
            }
            Msg::Notify { producer } => {
                self.producer_retired(producer, out);
                // Directory duty, which only the producer's home holds.
                self.flush_subs(producer, out);
            }
            Msg::MoveRequest { kind, thief, free } => self.grant_move(cx, kind, thief, free, out),
            Msg::MoveGrant { kind, tasks } => {
                self.inflight[kind as usize] = false;
                self.stats.moves[kind as usize].moved_in += tasks.len() as u64;
                for mut t in tasks {
                    t.moved = true;
                    self.admit(t);
                }
            }
        }
    }

    /// Takes the oldest ready descriptor for a worker of this node. With
    /// none ready the worker parks: it counts as idle until a wake token is
    /// handed out for it.
    fn take_ready(&mut self, cx: &Inner) -> Option<Descriptor> {
        let Some(t) = self.ready.pop_front() else {
            self.idle += 1;
            return None;
        };
        self.free -= 1;
        self.moved_ready -= usize::from(t.moved);
        self.woken = self.woken.saturating_sub(1);
        if let Some(r) = &cx.rec {
            r.record_now(SpanEvent::Dispatched {
                task: t.idx,
                node: self.id,
            });
        }
        Some(t)
    }

    /// Retires submission `idx`, homed at `home`, which a worker of this
    /// node executed and the retire log already holds.
    fn finish(&mut self, cx: &Inner, idx: usize, home: usize, failed: bool, out: &mut Out) {
        self.free += 1;
        self.stats.failed += u64::from(failed);
        self.publish_digest(cx);
        self.producer_retired(idx, out);
        if home == self.id {
            self.flush_subs(idx, out);
        } else {
            out.push_back((home, Msg::Notify { producer: idx }));
        }
    }

    /// Takes in a descriptor — a submission or a granted move. Producers this
    /// node already knows retired (it executed them, or their `Notify` raced
    /// ahead) resolve on arrival; the task is ready if none remain and waits
    /// for the rest otherwise (for a reclaimed task, the victim's forwarded
    /// `Notify`s).
    fn admit(&mut self, mut t: Descriptor) {
        t.missing.retain(|p| !self.retired.contains(p));
        if t.missing.is_empty() {
            self.make_ready(t);
        } else {
            for &p in &t.missing {
                self.waiting.entry(p).or_default().push(t.idx);
            }
            self.parked += usize::from(t.moved);
            self.pending.insert(t.idx, t);
        }
    }

    /// Queues a ready descriptor, a granted one at the front (its thief
    /// imported it to run now); the current step owes a wake token for it.
    fn make_ready(&mut self, t: Descriptor) {
        self.woken += 1;
        if t.moved {
            self.moved_ready += 1;
            self.ready.push_front(t);
        } else {
            self.ready.push_back(t);
        }
    }

    /// Records that producer `p` retired (idempotent), relays the news to any
    /// thief holding a descriptor reclaimed away while waiting on `p`, and
    /// promotes any local tasks whose last missing producer it was.
    fn producer_retired(&mut self, p: usize, out: &mut Out) {
        if !self.retired.insert(p) {
            return;
        }
        if let Some(thieves) = self.reclaimed_away.remove(&p) {
            out.extend(
                thieves
                    .into_iter()
                    .map(|to| (to, Msg::Notify { producer: p })),
            );
        }
        let Some(waiters) = self.waiting.remove(&p) else {
            return;
        };
        for idx in waiters {
            let t = self
                .pending
                .get_mut(&idx)
                .expect("waiter without a pending record");
            t.missing.retain(|&m| m != p);
            if t.missing.is_empty() {
                let t = self.pending.remove(&idx).expect("checked above");
                self.parked -= usize::from(t.moved);
                self.make_ready(t);
            }
        }
    }

    /// Notifies every node subscribed to producer `p` (directory duty of the
    /// home node).
    fn flush_subs(&mut self, p: usize, out: &mut Out) {
        if let Some(subs) = self.subs.remove(&p) {
            out.extend(subs.into_iter().map(|to| (to, Msg::Notify { producer: p })));
        }
    }

    /// Publishes this node's live digest to the shared digest board while
    /// feedback is on (a retirement is the publish trigger, the same cadence
    /// at which the simulator's digests reach its master).
    fn publish_digest(&mut self, cx: &Inner) {
        if !cx.feedback.is_enabled() {
            return;
        }
        let view = LoadView {
            pending: (self.pending.len() + self.ready.len()) as u64,
            in_flight: (self.workers - self.free) as u64,
            updated_at: cx.now_ns(),
        };
        if cx.lock_digests().observe(self.id, view) {
            self.stats.digest_updates += 1;
        }
    }

    /// The idle rule ([`MoveKind::may_ask`]) for each enabled kind, steals
    /// first (see [`MoveKind::ALL`]): publishes on `board` whether this node
    /// may ask and, if it may, snapshots the load boards and asks the victim
    /// the kind picks, if any. The runtime has no input queue, and every
    /// blocked descriptor it holds is outside a manager.
    fn try_moves(&mut self, cx: &Inner, board: &Board, out: &mut Out) {
        for kind in MoveKind::ALL {
            let k = kind as usize;
            let idle = IdleNode {
                free: self.free,
                ready: self.ready.len(),
                queued: 0,
                held: self.pending.len(),
                in_flight: self.inflight,
            };
            let asks = cx.moves[k] && kind.may_ask(&idle);
            board.asks[k].store(asks, Ordering::Relaxed);
            if !asks {
                continue;
            }
            // Flag before boards (see `Inner::with_node`).
            fence(Ordering::SeqCst);
            let loads = cx.load_board();
            let digests = cx.lock_digests();
            let live = Some(digests.live(cx.now_ns()));
            let victim = kind.choose_victim(cx.stealing, self.id, &loads, live, &cx.distances);
            drop(digests);
            let Some(victim) = victim else {
                continue;
            };
            self.stats.moves[k].requests += 1;
            self.inflight[k] = true;
            board.asks[k].store(false, Ordering::Relaxed);
            let (thief, free) = (self.id, self.free);
            out.push_back((victim, Msg::MoveRequest { kind, thief, free }));
        }
    }

    /// Victim side of a move: hands the thief up to a [`MoveKind::batch`] of
    /// its youngest descriptors of `kind`, never one it was granted itself —
    /// ready ones from the back of the ready queue for a steal (the oldest
    /// are the ones local consumers have waited on longest), blocked ones by
    /// highest submission index for a reclaim (the oldest are closest to
    /// resolving locally) — or an empty batch. A blocked descriptor travels with its missing-producer list,
    /// and this node registers a forwarding entry per missing producer so
    /// every later producer retirement it learns of is relayed to the thief;
    /// the loop does nothing for ready descriptors.
    fn grant_move(&mut self, cx: &Inner, kind: MoveKind, thief: usize, free: usize, out: &mut Out) {
        let tasks: Vec<Descriptor> = match kind {
            MoveKind::Steal => {
                let backlog = self.ready.len() - self.moved_ready;
                let n = kind.batch(cx.stealing, free, backlog).min(backlog);
                (0..n)
                    .map(|_| self.ready.pop_back().expect("batch clamped to backlog"))
                    .collect()
            }
            MoveKind::Reclaim => {
                let own = self.pending.values().filter(|t| !t.moved);
                let mut blocked: Vec<usize> = own.map(|t| t.idx).collect();
                blocked.sort_unstable_by(|a, b| b.cmp(a));
                let n = kind
                    .batch(cx.stealing, free, blocked.len())
                    .min(blocked.len());
                blocked[..n]
                    .iter()
                    .map(|idx| {
                        self.pending
                            .remove(idx)
                            .expect("blocked index came from the pending map")
                    })
                    .collect()
            }
        };
        for t in &tasks {
            for &p in &t.missing {
                if let Some(w) = self.waiting.get_mut(&p) {
                    w.retain(|&i| i != t.idx);
                    if w.is_empty() {
                        self.waiting.remove(&p);
                    }
                }
                let thieves = self.reclaimed_away.entry(p).or_default();
                if !thieves.contains(&thief) {
                    thieves.push(thief);
                }
            }
        }
        let s = &mut self.stats.moves[kind as usize];
        if tasks.is_empty() {
            s.failures += 1;
        } else {
            s.moved_out += tasks.len() as u64;
            s.grants += 1;
        }
        if let Some(r) = &cx.rec {
            for t in &tasks {
                r.record_now(kind.span(t.idx, self.id, thief));
            }
        }
        out.push_back((thief, Msg::MoveGrant { kind, tasks }));
    }

    /// Publishes this node's counters to its load board.
    fn sync_board(&self, board: &Board) {
        // `pending` counts what a move may take (blocked + ready, granted
        // descriptors left out), matching the simulator's input-queue
        // semantics, so that `NodeLoad::reclaimable` = blocked count on both
        // sides.
        let stealable = self.ready.len() - self.moved_ready;
        let held = self.pending.len() - self.parked + stealable;
        board.pending.store(held, Ordering::Relaxed);
        board.stealable.store(stealable, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sim::SimRng;
    use nexus_trace::TaskDescriptor;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    fn chain_task(id: u64, addr: u64) -> TaskDescriptor {
        TaskDescriptor::builder(id).inout(addr).build()
    }

    fn one_node(workers: usize) -> (ClusterRuntime, RuntimeHandle) {
        let mut rt = ClusterRuntime::new(RtConfig::new(1, workers));
        let h = rt.start();
        (rt, h)
    }

    /// A task writing `addr` that runs `wait`, then raises `done`.
    fn writer(
        id: u64,
        addr: u64,
        done: &Arc<AtomicBool>,
        wait: impl FnOnce() + Send + 'static,
    ) -> RtTask {
        let done = Arc::clone(done);
        RtTask::new(TaskDescriptor::builder(id).output(addr).build()).with_body(move || {
            wait();
            done.store(true, Ordering::SeqCst);
        })
    }

    /// A gate for a task body: the closure blocks until the sender fires, or
    /// for at most 5 s, so a wait that wrongly depends on the gated task fails
    /// its assertions instead of hanging.
    fn gate() -> (mpsc::Sender<()>, impl FnOnce() + Send + 'static) {
        let (open, shut) = mpsc::channel();
        (open, move || {
            let _ = shut.recv_timeout(Duration::from_secs(5));
        })
    }

    #[test]
    fn dependent_bodies_run_in_submission_order() {
        let mut rt = ClusterRuntime::new(RtConfig::new(2, 2));
        let h = rt.start();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for id in 0..20u64 {
            let seen = Arc::clone(&seen);
            // One shared inout address: a single chain across both nodes.
            h.submit(RtTask::new(chain_task(id, 0xBEEF)).with_body(move || {
                seen.lock().unwrap().push(id);
            }))
            .unwrap();
        }
        h.taskwait();
        assert_eq!(*seen.lock().unwrap(), (0..20).collect::<Vec<_>>());
        let report = rt.shutdown_timeout(Duration::from_secs(10));
        assert_eq!(report.pending, 0);
        assert_eq!(report.retired, 20);
    }

    #[test]
    fn independent_tasks_spread_over_nodes_and_workers() {
        let mut rt = ClusterRuntime::new(RtConfig::new(2, 2));
        let h = rt.start();
        let hits = Arc::new(AtomicU64::new(0));
        for id in 0..64u64 {
            let hits = Arc::clone(&hits);
            h.submit(RtTask::new(chain_task(id, 0x1000 + id)).with_body(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        h.taskwait();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(h.retired(), 64);
        let stats = h.node_stats();
        assert_eq!(stats.iter().map(|s| s.executed).sum::<u64>(), 64);
        assert_eq!(
            stats
                .iter()
                .flat_map(|s| s.per_worker_done.iter())
                .sum::<u64>(),
            64
        );
        // XOR-hash over 64 distinct addresses lands work on both nodes.
        assert!(stats.iter().all(|s| !s.admitted.is_empty()));
        rt.shutdown_background();
    }

    #[test]
    fn taskwait_on_waits_for_the_last_writer_only() {
        let mut rt = ClusterRuntime::new(RtConfig::new(1, 1));
        let h = rt.start();
        let flag = Arc::new(AtomicU64::new(0));
        let f1 = Arc::clone(&flag);
        h.submit(RtTask::new(chain_task(0, 0xA)).with_body(move || {
            f1.store(1, Ordering::SeqCst);
        }))
        .unwrap();
        h.taskwait_on(0xA);
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        // An address nothing wrote is a no-op wait.
        h.taskwait_on(0xDEAD);
        let report = rt.shutdown_timeout(Duration::from_secs(10));
        assert_eq!(report.pending, 0);
    }

    #[test]
    fn recorder_sees_a_conserved_task_lifecycle() {
        let rec = SharedRecorder::new();
        let mut rt = ClusterRuntime::new(RtConfig::new(2, 2).with_recorder(rec.clone()));
        let h = rt.start();
        for id in 0..32u64 {
            h.submit(RtTask::new(chain_task(id, 0x2000 + id % 8)))
                .unwrap();
        }
        h.taskwait();
        let report = rt.shutdown_timeout(Duration::from_secs(10));
        assert_eq!(report.pending, 0);

        let snap = rec.snapshot();
        let conserved = nexus_obs::check_conservation(&snap.events)
            .expect("live span log violates lifecycle conservation");
        assert_eq!(conserved.submitted, 32);
        assert_eq!(conserved.started, 32);
        assert_eq!(conserved.retired, 32);
        // Every lifecycle stage was stamped for every task.
        assert_eq!(snap.count(|e| e.kind() == "placed"), 32);
        assert_eq!(snap.count(|e| e.kind() == "dispatched"), 32);
    }

    #[test]
    fn shutdown_metrics_mirror_the_node_stats() {
        let mut rt = ClusterRuntime::new(RtConfig::new(2, 2));
        let h = rt.start();
        for id in 0..24u64 {
            h.submit(RtTask::new(chain_task(id, 0x3000 + id))).unwrap();
        }
        h.taskwait();
        let report = rt.shutdown_timeout(Duration::from_secs(10));
        assert_eq!(report.metrics.counter("task.executed"), 24);
        assert_eq!(report.metrics.counter("task.retired"), 24);
        assert_eq!(report.metrics.counter("steal.stolen"), 0);
        // Feedback off: the reclaim path is never entered and no digest is
        // ever published — the keys exist but stay zero, like the simulator.
        assert_eq!(report.metrics.counter("reclaim.reclaimed"), 0);
        assert_eq!(report.metrics.counter("reclaim.failures"), 0);
        assert_eq!(report.metrics.counter("load.digest.updates"), 0);
        let max_node = report.per_node.iter().map(|s| s.executed).max().unwrap();
        assert_eq!(
            report.metrics.gauge("node.executed").map(|g| g.max),
            Some(max_node)
        );
    }

    #[test]
    fn reclamation_relocates_blocked_descriptors_to_idle_nodes() {
        use nexus_sched::FeedbackKind;
        let rec = SharedRecorder::new();
        let mut rt = ClusterRuntime::new(
            RtConfig::new(2, 1)
                .with_feedback(FeedbackKind::Reclaim)
                // 20 µs tasks stretched to 2 ms real, so node 0 still holds a
                // blocked backlog when node 1's worker parks and at each
                // later step while it stays idle.
                .with_time_scale(100_000)
                .with_recorder(rec.clone()),
        );
        let h = rt.start();
        // Six four-long chains, all pinned to node 0: only the chain fronts
        // are ever ready, so with stealing disabled reclamation is the only
        // mechanism that can move the dependence-blocked tail.
        for id in 0..24u64 {
            h.submit(RtTask::new(
                TaskDescriptor::builder(id)
                    .inout(0x100 + (id % 6) * 0x40)
                    .duration_us(20.0)
                    .affinity(0)
                    .build(),
            ))
            .unwrap();
        }
        h.taskwait();
        let report = rt.shutdown_timeout(Duration::from_secs(60));
        assert_eq!(report.pending, 0);
        assert_eq!(report.retired, 24);

        let reclaimed_in: u64 = report.per_node.iter().map(|s| s.reclaimed_in).sum();
        let reclaimed_out: u64 = report.per_node.iter().map(|s| s.reclaimed_out).sum();
        assert!(
            reclaimed_in > 0,
            "no descriptor was ever reclaimed: {:?}",
            report.per_node
        );
        assert_eq!(reclaimed_in, reclaimed_out, "reclaim handoffs must balance");
        assert!(
            report.per_node[1].executed > 0,
            "node 1 never executed reclaimed work"
        );
        assert_eq!(report.metrics.counter("reclaim.reclaimed"), reclaimed_in);
        assert!(report.metrics.counter("reclaim.grants") > 0);
        assert!(
            report.metrics.counter("load.digest.updates") > 0,
            "no retirement published a digest outside place mode"
        );

        let snap = rec.snapshot();
        let conserved = nexus_obs::check_conservation(&snap.events)
            .expect("reclaimed lifecycle breaks conservation");
        assert_eq!(conserved.retired, 24);
        assert_eq!(conserved.reclaimed as u64, reclaimed_in);
    }

    #[test]
    fn retire_log_is_consistent_with_the_set() {
        let mut rt = ClusterRuntime::new(RtConfig::new(2, 1));
        let h = rt.start();
        for id in 0..10u64 {
            h.submit(RtTask::new(chain_task(id, 0x100 + id))).unwrap();
        }
        h.taskwait();
        let log = h.retire_log();
        assert_eq!(log.len(), 10);
        let mut sorted: Vec<u64> = log.iter().map(|t| t.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        rt.shutdown_background();
    }

    #[test]
    fn independent_tasks_all_run() {
        let mut rt = ClusterRuntime::new(RtConfig::new(1, 4));
        let h = rt.start();
        let counter = Arc::new(AtomicU64::new(0));
        for id in 0..200u64 {
            let counter = Arc::clone(&counter);
            let task = TaskDescriptor::builder(id).output(id * 64).build();
            h.submit(RtTask::new(task).with_body(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        h.taskwait();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        let report = rt.shutdown_timeout(Duration::from_secs(10));
        assert_eq!(report.submitted, 200);
        assert_eq!(report.retired, 200);
        assert_eq!(report.per_node[0].executed, 200);
        assert_eq!(report.per_node[0].per_worker_done.len(), 4);
    }

    #[test]
    fn explicit_shutdown_and_drop_are_both_clean() {
        let (rt, h) = one_node(2);
        let counter = Arc::new(AtomicU64::new(0));
        for id in 0..10u64 {
            let counter = Arc::clone(&counter);
            h.submit(RtTask::new(chain_task(id, id)).with_body(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        // No barrier first: the shutdown itself drains the submitted work.
        let report = rt.shutdown_timeout(Duration::from_secs(10));
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        assert_eq!(report.pending, 0);
        // Dropping a started runtime without work is also fine, and leaves
        // its handle with a clean error rather than a hang.
        let (idle, h) = one_node(1);
        drop(idle);
        assert_eq!(
            h.submit(RtTask::new(chain_task(0, 0))).unwrap_err(),
            SubmitError::ShutDown
        );
        h.taskwait();
    }

    #[test]
    fn readers_wait_for_writer_and_writer_waits_for_readers() {
        let (rt, h) = one_node(4);
        let value = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let v = Arc::clone(&value);
        let producer = TaskDescriptor::builder(0).output(0x100).build();
        h.submit(RtTask::new(producer).with_body(move || {
            thread::sleep(Duration::from_millis(20));
            v.store(42, Ordering::SeqCst);
        }))
        .unwrap();
        // Fewer readers than workers, and each sleeps before reading: a
        // writer that does not wait for them runs beside them and overwrites
        // the value under their feet.
        for id in 1..=3u64 {
            let (v, seen) = (Arc::clone(&value), Arc::clone(&seen));
            let reader = TaskDescriptor::builder(id).input(0x100).build();
            h.submit(RtTask::new(reader).with_body(move || {
                thread::sleep(Duration::from_millis(20));
                seen.lock().unwrap().push(v.load(Ordering::SeqCst));
            }))
            .unwrap();
        }
        let v = Arc::clone(&value);
        let writer = TaskDescriptor::builder(4).inout(0x100).build();
        h.submit(RtTask::new(writer).with_body(move || v.store(7, Ordering::SeqCst)))
            .unwrap();
        h.taskwait();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![42; 3],
            "a reader saw the wrong write"
        );
        assert_eq!(value.load(Ordering::SeqCst), 7);
        rt.shutdown_background();
    }

    #[test]
    fn wavefront_computation_matches_sequential_result() {
        // Listing 1's shape: cell = left + upper-right + 1.
        const R: usize = 12;
        const C: usize = 16;
        let cell = |grid: &[u64], r: usize, c: usize| {
            let left = if c > 0 { grid[r * C + c - 1] } else { 0 };
            let upright = if r > 0 && c + 1 < C {
                grid[(r - 1) * C + c + 1]
            } else {
                0
            };
            left + upright + 1
        };
        let (rt, h) = one_node(6);
        let grid = Arc::new(Mutex::new(vec![0u64; R * C]));
        let key = |r: usize, c: usize| (r * C + c) as u64 * 64;
        for r in 0..R {
            for c in 0..C {
                let mut b = TaskDescriptor::builder((r * C + c) as u64).inout(key(r, c));
                if c > 0 {
                    b = b.input(key(r, c - 1));
                }
                if r > 0 && c + 1 < C {
                    b = b.input(key(r - 1, c + 1));
                }
                let grid = Arc::clone(&grid);
                h.submit(RtTask::new(b.build()).with_body(move || {
                    let mut g = grid.lock().unwrap();
                    g[r * C + c] = cell(&g, r, c);
                }))
                .unwrap();
            }
        }
        h.taskwait();
        let mut reference = vec![0u64; R * C];
        for r in 0..R {
            for c in 0..C {
                reference[r * C + c] = cell(&reference, r, c);
            }
        }
        assert_eq!(*grid.lock().unwrap(), reference);
        rt.shutdown_background();
    }

    #[test]
    fn taskwait_on_waits_for_the_named_key_only() {
        let (rt, h) = one_node(2);
        let slow_done = Arc::new(AtomicBool::new(false));
        let fast_done = Arc::new(AtomicBool::new(false));
        let (open, wait) = gate();
        h.submit(writer(0, 0xA, &slow_done, wait)).unwrap();
        h.submit(writer(1, 0xB, &fast_done, || {})).unwrap();
        h.taskwait_on(0xB);
        assert!(fast_done.load(Ordering::SeqCst));
        assert!(
            !slow_done.load(Ordering::SeqCst),
            "waiting on 0xB waited for 0xA's writer"
        );
        open.send(()).unwrap();
        h.taskwait();
        assert!(slow_done.load(Ordering::SeqCst));
        rt.shutdown_background();
    }

    #[test]
    fn cold_key_wait_returns_immediately_despite_running_tasks() {
        let (rt, h) = one_node(2);
        let slow_done = Arc::new(AtomicBool::new(false));
        let (open, wait) = gate();
        h.submit(writer(0, 0xA, &slow_done, wait)).unwrap();
        // Neither a never-written key nor a key whose writer already retired
        // may wait for the unrelated gated task.
        h.taskwait_on(0xDEAD);
        h.submit(RtTask::new(TaskDescriptor::builder(1).output(0xB).build()))
            .unwrap();
        while h.retired() == 0 {
            thread::yield_now();
        }
        h.taskwait_on(0xB);
        assert!(
            !slow_done.load(Ordering::SeqCst),
            "a cold-key wait waited for an unrelated task"
        );
        open.send(()).unwrap();
        h.taskwait();
        assert!(slow_done.load(Ordering::SeqCst));
        rt.shutdown_background();
    }

    #[test]
    fn concurrent_taskwait_on_waiters_are_all_released() {
        let (rt, h) = one_node(2);
        let done = Arc::new(AtomicBool::new(false));
        let (open, wait) = gate();
        h.submit(writer(0, 0xC0, &done, wait)).unwrap();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let (h, done) = (h.clone(), Arc::clone(&done));
                thread::spawn(move || {
                    h.taskwait_on(0xC0);
                    assert!(done.load(Ordering::SeqCst));
                })
            })
            .collect();
        open.send(()).unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        rt.shutdown_background();
    }

    #[test]
    fn mixed_waiters_each_return_once_their_own_target_retired() {
        let (rt, h) = one_node(3);
        let done: Vec<Arc<AtomicBool>> = (0..3).map(|_| Arc::default()).collect();
        let mut gates = Vec::new();
        for (id, addr) in [0xA, 0xB, 0xC].into_iter().enumerate() {
            let (open, wait) = gate();
            h.submit(writer(id as u64, addr, &done[id], wait)).unwrap();
            gates.push(open);
        }
        // Each waiter reports its target when it returns: 0xA and 0xB by
        // address, `None` for the barrier over all three tasks.
        let (tx, returned) = mpsc::channel();
        let waiters: Vec<_> = [Some(0xA), Some(0xB), None]
            .into_iter()
            .map(|addr| {
                let (h, tx) = (h.clone(), tx.clone());
                thread::spawn(move || {
                    match addr {
                        Some(addr) => h.taskwait_on(addr),
                        None => h.taskwait(),
                    }
                    tx.send(addr).unwrap();
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while h.inner.lock_log().waits.len() < 3 {
            assert!(Instant::now() < deadline, "a waiter never blocked");
            thread::yield_now();
        }
        // The gates open one at a time, well inside their 5 s: a waiter that
        // misses its wake-up fails the receive instead of hanging the test.
        for (task, target, left) in [(1, Some(0xB), 2), (0, Some(0xA), 1), (2, None, 0)] {
            gates[task].send(()).unwrap();
            assert_eq!(
                returned.recv_timeout(Duration::from_secs(2)),
                Ok(target),
                "the retirement of task {task} did not release its waiter"
            );
            assert!(done[task].load(Ordering::SeqCst));
            // The retirement dropped only the wait it met.
            assert_eq!(h.inner.lock_log().waits.len(), left);
            assert_eq!(
                returned.try_recv(),
                Err(mpsc::TryRecvError::Empty),
                "a waiter returned before its target retired"
            );
        }
        for w in waiters {
            w.join().unwrap();
        }
        rt.shutdown_background();
    }

    #[test]
    fn every_round_parks_every_worker_and_no_wake_up_is_lost() {
        let mut rt = ClusterRuntime::new(RtConfig::new(2, 2));
        let h = rt.start();
        // One task per node and a barrier per round: each round wakes a
        // worker on each node, and every worker parks again before the next.
        let (done, finished) = mpsc::channel();
        thread::spawn(move || {
            for round in 0..2_000u64 {
                for node in 0..2 {
                    let id = round * 2 + node;
                    let task = TaskDescriptor::builder(id)
                        .output(0x100 + node)
                        .affinity(node as u32)
                        .build();
                    h.submit(RtTask::new(task)).unwrap();
                }
                h.taskwait();
            }
            done.send(()).unwrap();
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(60)).is_ok(),
            "a round never retired: a wake-up was lost"
        );
        let report = rt.shutdown_timeout(Duration::from_secs(10));
        assert_eq!(report.retired, 4_000);
        assert_eq!(report.pending, 0);
    }

    #[test]
    fn a_retirement_reports_exactly_the_waits_it_meets() {
        let mut log = RetireLog {
            waits: vec![Wait::Prefix(2), Wait::Index(3), Wait::Len(4)],
            ..RetireLog::default()
        };
        // Index 1 retires ahead of the prefix, and the log holds one entry.
        assert!(!log.retire(1, TaskId(1)));
        assert!(log.retire(3, TaskId(3)));
        assert_eq!(log.waits, [Wait::Prefix(2), Wait::Len(4)]);
        // Index 0 closes the prefix up to 2; the log holds three entries.
        assert!(log.retire(0, TaskId(0)));
        assert_eq!(log.waits, [Wait::Len(4)]);
        assert!(log.retire(2, TaskId(2)));
        assert!(log.waits.is_empty());
        // With nothing registered, a retirement wakes nobody.
        assert!(!log.retire(4, TaskId(4)));
        assert_eq!((log.prefix, log.order.len()), (5, 5));
        assert!(log.met(Wait::Index(4)) && !log.met(Wait::Index(5)));
    }

    #[test]
    fn chains_preserve_program_order() {
        let (rt, h) = one_node(8);
        let chains: Vec<Arc<Mutex<Vec<u64>>>> = (0..16).map(|_| Arc::default()).collect();
        for step in 0..50u64 {
            for (c, log) in chains.iter().enumerate() {
                let log = Arc::clone(log);
                let task = chain_task(step * 16 + c as u64, 0x4000 + c as u64 * 64);
                h.submit(RtTask::new(task).with_body(move || log.lock().unwrap().push(step)))
                    .unwrap();
            }
        }
        h.taskwait();
        for log in &chains {
            assert_eq!(*log.lock().unwrap(), (0..50).collect::<Vec<_>>());
        }
        rt.shutdown_background();
    }

    #[test]
    fn taskwait_ignores_later_submissions_from_other_handles() {
        let (rt, h) = one_node(2);
        let slow_done = Arc::new(AtomicBool::new(false));
        let (open, wait) = gate();
        h.submit(writer(0, 0xA, &slow_done, wait)).unwrap();
        // Another handle submits a fast task while the barrier waits, and
        // opens the gate a while after that task retired: the fast
        // retirement must not stand in for the gated one's. (The sleeps only
        // give a wrong barrier its chance to return early.)
        let other = h.clone();
        let late = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            let fast = TaskDescriptor::builder(1).output(0xB).build();
            other.submit(RtTask::new(fast)).unwrap();
            other.taskwait_on(0xB);
            thread::sleep(Duration::from_millis(50));
            open.send(()).unwrap();
        });
        h.taskwait();
        assert!(
            slow_done.load(Ordering::SeqCst),
            "taskwait returned before a task submitted ahead of it retired"
        );
        late.join().unwrap();
        rt.shutdown_background();
    }

    #[test]
    fn a_panicking_body_fails_its_task_and_its_dependents_still_run() {
        let (rt, h) = one_node(1);
        let writer = TaskDescriptor::builder(0).output(0xF0).build();
        h.submit(RtTask::new(writer).with_body(|| panic!("task body fails on purpose")))
            .unwrap();
        let read = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&read);
        let reader = TaskDescriptor::builder(1).input(0xF0).build();
        h.submit(RtTask::new(reader).with_body(move || r.store(true, Ordering::SeqCst)))
            .unwrap();
        // Waiting on a helper thread turns a hang into a failed assertion.
        let (done, waited) = mpsc::channel();
        let waiter = h.clone();
        thread::spawn(move || {
            waiter.taskwait();
            done.send(()).unwrap();
        });
        assert!(
            waited.recv_timeout(Duration::from_secs(5)).is_ok(),
            "taskwait hung behind a panicking body"
        );
        assert!(read.load(Ordering::SeqCst), "the reader never ran");
        let report = rt.shutdown_timeout(Duration::from_secs(5));
        assert_eq!(report.pending, 0);
        assert_eq!(report.metrics.counter("task.failed"), 1);
    }

    #[test]
    fn an_idle_node_asks_in_the_step_that_parks_its_worker_if_the_boards_show_a_victim() {
        let cfg = RtConfig::new(2, 1).with_stealing(nexus_sched::StealKind::MostLoaded);
        // Delivers task `id`, pinned to node 0, and returns what the steps
        // sent.
        let submit = |inner: &Inner, id: u64| {
            let task = TaskDescriptor::builder(id).output(id).affinity(0).build();
            let mut sent = Out::new();
            for (to, msg) in inner.plan(&mut inner.sub.lock().unwrap(), RtTask::new(task)) {
                inner.with_node(to, &mut sent, |node, out| node.on_msg(inner, msg, out));
            }
            sent
        };
        // Parks node 1's only worker and returns what that step sent.
        let park = |inner: &Inner| {
            let mut sent = Out::new();
            let took = inner.with_node(1, &mut sent, |node, _| node.take_ready(inner));
            assert!(took.is_none());
            sent
        };
        let asked = |sent: &Out| match sent.iter().collect::<Vec<_>>()[..] {
            [(0, Msg::MoveRequest { kind, thief, free })] => {
                (*kind, *thief, *free) == (MoveKind::Steal, 1, 1)
            }
            _ => false,
        };

        // Node 0 holds two ready descriptors while node 1's worker is awake:
        // nobody asks until the step that parks that worker.
        let inner = Inner::new(&cfg);
        assert!(submit(&inner, 0).is_empty() && submit(&inner, 1).is_empty());
        assert!(asked(&park(&inner)));

        // With no victim on the boards, parking sends nothing; node 1 asks
        // in the first delivery that gives node 0 work.
        let inner = Inner::new(&cfg);
        assert!(park(&inner).is_empty());
        assert_eq!(inner.lock_node(1).inflight, [false; 2]);
        assert!(asked(&submit(&inner, 0)));
    }

    /// One explorer input: a runtime shape and at most six tasks pinned to
    /// their nodes.
    struct Input {
        name: &'static str,
        cfg: RtConfig,
        tasks: Vec<TaskDescriptor>,
    }

    fn explorer_inputs() -> Vec<Input> {
        use nexus_sched::StealKind::MostLoaded;
        let on = |id: u64, node: u32| TaskDescriptor::builder(id).affinity(node);
        vec![
            Input {
                name: "raw-and-war",
                cfg: RtConfig::new(2, 2),
                tasks: vec![
                    on(0, 0).output(0xA).build(),
                    // Cross-node read-after-write.
                    on(1, 1).input(0xA).build(),
                    on(2, 0).input(0xB).build(),
                    // Same-home write-after-read on 0xB.
                    on(3, 0).input(0xA).output(0xB).build(),
                    // Waits for 3 (same home), not for 1 (other node).
                    on(4, 0).output(0xA).build(),
                    on(5, 1).inout(0xB).build(),
                ],
            },
            Input {
                name: "steal",
                cfg: RtConfig::new(2, 1).with_stealing(MostLoaded),
                tasks: vec![
                    on(0, 0).output(0xA).build(),
                    on(1, 0).output(0xB).build(),
                    on(2, 0).output(0xC).build(),
                    on(3, 1).input(0xA).input(0xB).build(),
                    on(4, 0).input(0xC).build(),
                ],
            },
            Input {
                name: "reclaim",
                cfg: RtConfig::new(2, 1).with_feedback(FeedbackKind::Reclaim),
                tasks: vec![
                    on(0, 0).inout(0xA).build(),
                    on(1, 0).inout(0xA).build(),
                    on(2, 0).inout(0xA).build(),
                    on(3, 0).inout(0xA).build(),
                    on(4, 1).input(0xA).build(),
                ],
            },
            Input {
                name: "steal-and-reclaim",
                cfg: RtConfig::new(2, 2)
                    .with_stealing(MostLoaded)
                    .with_feedback(FeedbackKind::Reclaim),
                tasks: vec![
                    on(0, 0).inout(0xA).build(),
                    on(1, 0).output(0xB).build(),
                    on(2, 0).inout(0xA).build(),
                    on(3, 0).input(0xB).inout(0xA).build(),
                    on(4, 1).input(0xA).build(),
                    on(5, 0).output(0xB).build(),
                ],
            },
        ]
    }

    /// Per task, the submission indices it must retire after: its
    /// last-writer producers, and the readers since the last write of each
    /// address it writes that share its home.
    fn expected_deps(input: &Input) -> Vec<Vec<usize>> {
        let mut scanner = DepScanner::with_policy(input.cfg.nodes, input.cfg.placement);
        let mut readers: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        let mut homes = Vec::new();
        let mut deps = Vec::new();
        for (i, t) in input.tasks.iter().enumerate() {
            let rec = scanner.scan_full(t);
            homes.push(rec.home);
            let mut d = rec.producers;
            for p in &t.params {
                let r = readers.entry(p.addr).or_default();
                if p.dir.writes() {
                    d.extend(r.drain(..).filter(|&j| j != i && homes[j] == rec.home));
                } else {
                    r.push(i);
                }
            }
            deps.push(d);
        }
        deps
    }

    /// One explorer step.
    #[derive(Clone, Copy)]
    enum Action {
        Submit,
        /// Deliver the oldest message on a `(sender, receiver)` link.
        Deliver((usize, usize)),
        /// An awake worker of the node takes a ready descriptor, or parks.
        Take(usize),
        /// A parked worker of the node takes a wake token.
        Wake(usize),
        /// A running descriptor retires; its worker takes the next one.
        Finish(usize),
    }

    /// The explorer's count of one node's workers that hold no descriptor.
    #[derive(Default)]
    struct Workers {
        awake: usize,
        parked: usize,
    }

    /// Plays one seeded schedule of `input` over thread-less nodes, the test
    /// standing in for the master and every worker (parking and wake tokens
    /// included), and checks the outcome. Returns the descriptors stolen and
    /// reclaimed.
    fn explore(input: &Input, seed: u64) -> Result<[u64; 2], String> {
        const MASTER: usize = usize::MAX;
        let inner = Inner::new(&input.cfg);
        let nodes = input.cfg.nodes;
        let mut rng = SimRng::new(seed);
        let mut links: BTreeMap<(usize, usize), VecDeque<Msg>> = BTreeMap::new();
        // A step on one node may let another ask for a move: a request
        // travels from its thief.
        let send = |links: &mut BTreeMap<_, VecDeque<_>>, from, out: Out| {
            for (to, msg) in out {
                let from = match msg {
                    Msg::MoveRequest { thief, .. } => thief,
                    _ => from,
                };
                links.entry((from, to)).or_default().push_back(msg);
            }
        };
        let mut workers: Vec<Workers> = (0..nodes)
            .map(|_| Workers {
                awake: input.cfg.workers_per_node,
                ..Workers::default()
            })
            .collect();
        let mut running: Vec<(usize, Descriptor)> = Vec::new();
        let mut submitted = 0;
        loop {
            let mut actions = Vec::new();
            if submitted < input.tasks.len() {
                actions.push(Action::Submit);
            }
            let busy = links.iter().filter(|(_, q)| !q.is_empty());
            actions.extend(busy.map(|(&link, _)| Action::Deliver(link)));
            for (n, w) in workers.iter().enumerate() {
                if w.awake > 0 {
                    actions.push(Action::Take(n));
                }
                if inner.lock_node(n).tokens > 0 {
                    actions.push(Action::Wake(n));
                }
            }
            actions.extend((0..running.len()).map(Action::Finish));
            if actions.is_empty() {
                break;
            }
            let mut out = Out::new();
            match actions[rng.next_below(actions.len() as u64) as usize] {
                Action::Submit => {
                    let task = RtTask::new(input.tasks[submitted].clone());
                    submitted += 1;
                    let planned = inner.plan(&mut inner.sub.lock().unwrap(), task);
                    send(&mut links, MASTER, planned);
                }
                Action::Deliver(link) => {
                    let msg = links.get_mut(&link).unwrap().pop_front().unwrap();
                    inner.with_node(link.1, &mut out, |node, out| node.on_msg(&inner, msg, out));
                    send(&mut links, link.1, out);
                }
                Action::Take(n) => {
                    workers[n].awake -= 1;
                    match inner.with_node(n, &mut out, |node, _| node.take_ready(&inner)) {
                        Some(t) => running.push((n, t)),
                        None => workers[n].parked += 1,
                    }
                    send(&mut links, n, out);
                }
                Action::Wake(n) => {
                    inner.lock_node(n).tokens -= 1;
                    let w = &mut workers[n];
                    w.parked -= 1;
                    w.awake += 1;
                }
                Action::Finish(i) => {
                    let (n, t) = running.swap_remove(i);
                    inner.log_retired(t.idx, t.id, n);
                    let next = inner.with_node(n, &mut out, |node, out| {
                        node.finish(&inner, t.idx, t.home, false, out);
                        node.take_ready(&inner)
                    });
                    match next {
                        Some(t) => running.push((n, t)),
                        None => workers[n].parked += 1,
                    }
                    send(&mut links, n, out);
                }
            }
            // Every parked worker is idle or has a token waiting in its
            // node's count, and none is idle while ready work outnumbers the
            // workers coming to take it.
            for (n, w) in workers.iter().enumerate() {
                let node = inner.lock_node(n);
                let (idle, ready, tokens) = (node.idle, node.ready.len(), node.tokens);
                if idle + tokens != w.parked || (idle > 0 && ready > tokens + w.awake) {
                    return Err(format!(
                        "node {n}: {} parked, {idle} idle, {tokens} tokens, {ready} ready",
                        w.parked
                    ));
                }
            }
        }

        let log = inner.lock_log().order.clone();
        if submitted < input.tasks.len() || log.len() < submitted {
            return Err(format!(
                "stuck with {} of {} retired",
                log.len(),
                input.tasks.len()
            ));
        }
        let mut pos = vec![None; log.len()];
        for (at, id) in log.iter().enumerate() {
            if pos[id.0 as usize].replace(at).is_some() {
                return Err(format!("task {} retired twice", id.0));
            }
        }
        for (i, deps) in expected_deps(input).iter().enumerate() {
            if let Some(&d) = deps.iter().find(|&&d| pos[d] > pos[i]) {
                return Err(format!("task {i} retired before {d}"));
            }
        }
        let mut moved = [0; 2];
        for n in 0..nodes {
            let node = inner.lock_node(n);
            let held = !node.ready.is_empty()
                || !node.pending.is_empty()
                || !node.waiting.is_empty()
                || !node.subs.is_empty()
                || !node.reclaimed_away.is_empty()
                || node.free != node.workers
                || node.idle != node.workers
                || (node.parked, node.moved_ready) != (0, 0)
                || node.inflight != [false; 2];
            if held {
                return Err(format!("node {n} still holds state after the run"));
            }
            for (m, s) in moved.iter_mut().zip(node.stats.moves) {
                *m += s.moved_in;
            }
        }
        Ok(moved)
    }

    #[test]
    fn seeded_delivery_orders_retire_every_task_in_dependence_order() {
        for input in explorer_inputs() {
            let mut moved = [0; 2];
            for seed in 0..500 {
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| explore(&input, seed)));
                match run {
                    Ok(Ok(m)) => (0..2).for_each(|k| moved[k] += m[k]),
                    Ok(Err(e)) => panic!("input {} seed {seed}: {e}", input.name),
                    Err(_) => panic!("input {} seed {seed}: a node step panicked", input.name),
                }
            }
            // Each migration kind an input enables happens in some schedule.
            let [stolen, reclaimed] = moved;
            let name = input.name;
            assert!(
                stolen > 0 || !input.cfg.stealing.is_enabled(),
                "{name}: no steal"
            );
            let reclaims = input.cfg.feedback.reclaim_enabled();
            assert!(reclaimed > 0 || !reclaims, "{name}: no reclaim");
        }
    }
}
