//! The threaded cluster runtime: the owner/handle pair, the per-node manager
//! and worker threads, and trace replay through the shared [`MasterSm`].
//!
//! # Protocol
//!
//! One **manager thread** per node owns the node's dependence state and talks
//! to everyone over channels; `workers_per_node` **worker threads** per node
//! compete on the node's task channel and execute bodies. The master side
//! (any thread holding a [`RuntimeHandle`]) routes each submission through
//! the shared `DepScanner` — the same placement + dependence-edge definition
//! the event simulator uses — and then:
//!
//! 1. sends `Subscribe { producer, to: home }` to each *remote* producer's
//!    home node (the producer's **directory**), and
//! 2. sends `Submit` with the task's descriptor to its home node.
//!
//! The descriptor misses every last-writer producer and, if the task writes,
//! every task homed on the same node that read one of its outputs since that
//! address was last written (node-local write-after-read, ordered as the
//! simulator's node managers order it). Readers on other nodes are not
//! waited for: like the simulator, the runtime leaves cross-node
//! anti-dependences to renaming.
//!
//! A manager marks a producer retired either by executing it, by receiving a
//! cross-node `Notify`, or — for descriptors it granted to a thief — by the
//! thief's `StolenRetired` report. The home node remains the directory for a
//! descriptor no matter where it ends up executing, so subscriptions never
//! chase moved work around the cluster (the event simulator re-homes moved
//! work instead). Every retirement is appended to one global retire log (the
//! topological-order witness the conformance suite checks, and the wait
//! mechanism behind `taskwait`).
//!
//! **Migration** reuses the simulator's [`StealPolicy`] objects verbatim and
//! runs one request/grant exchange in two kinds. On an idle tick a manager
//! snapshots the per-node load boards (lock-free atomics), lets the policy
//! pick a victim and sends a `MoveRequest`; the victim answers with a
//! `MoveGrant` of its youngest descriptors of that kind, possibly none:
//!
//! * a **steal** takes up to `batch_for(free, backlog)` *ready*
//!   descriptors (they have the fewest local consumers waiting);
//! * a **reclaim** (feedback `Reclaim`/`Full` only, and only once the thief
//!   is completely drained) takes up to `reclaim_batch` dependence-*blocked*
//!   descriptors, which a steal cannot reach. Each keeps its list of missing
//!   producers, and the victim registers a forwarding entry per missing
//!   producer, so the retirement `Notify` it eventually receives is relayed
//!   to the thief.
//!
//! The thief takes a granted descriptor in exactly like a submission: it is
//! ready once every producer it still misses has retired.
//!
//! With runtime feedback enabled (`RtConfig::feedback`), every cross-node
//! `Notify` piggybacks the sender's live [`LoadView`] (wall-nanosecond
//! clock); each manager folds incoming digests into its per-node view table
//! for reclaim victim selection, and retirements additionally publish to a
//! shared digest board the master reads for submit-time
//! [`FeedbackPlacement`] (`Place`/`Full`).

use crate::config::RtConfig;
use crate::task::{RtTask, SubmitError, TaskBody};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use nexus_cluster::routing::DepScanner;
use nexus_host::{MasterSm, MasterStep};
use nexus_obs::{Registry, SharedRecorder, SpanEvent};
use nexus_sched::{FeedbackKind, FeedbackPlacement, LiveLoad, LoadView, NodeLoad, StealPolicy};
use nexus_sim::{FxHashMap, FxHashSet, SimDuration, SimTime};
use nexus_topo::DistanceMatrix;
use nexus_trace::{TaskId, Trace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle manager blocks on its mailbox before scanning the load
/// boards for a steal opportunity.
const IDLE_TICK: Duration = Duration::from_millis(1);

/// Decay half-life of live load digests in wall nanoseconds (the runtime's
/// observation clock) — the live counterpart of the simulator's 200 µs
/// virtual half-life, stretched to the millisecond scale real threads
/// schedule at.
const DIGEST_HALF_LIFE_NS: u64 = 1_000_000;

/// The two kinds of migration (see the [module docs](self)). Per-kind state
/// lives in two-element arrays indexed by `kind as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MoveKind {
    /// Work stealing: ready descriptors only.
    Steal,
    /// Pool reclamation: dependence-blocked descriptors only.
    Reclaim,
}

impl MoveKind {
    /// The span event recording one moved descriptor.
    fn span(self, task: usize, from: usize, to: usize) -> SpanEvent {
        match self {
            MoveKind::Steal => SpanEvent::Stolen { task, from, to },
            MoveKind::Reclaim => SpanEvent::Reclaimed { task, from, to },
        }
    }
}

/// A task descriptor as the managers hold it and pass it on: submitted to its
/// home, queued, granted to a thief, handed to a worker. `home` is the
/// directory node, so a descriptor moved (even repeatedly) still reports its
/// retirement back to the one node holding its subscriptions. `missing`
/// lists the producers still unretired as far as the holding manager knows;
/// it is empty once the task is ready.
struct Descriptor {
    idx: usize,
    id: TaskId,
    home: usize,
    duration: SimDuration,
    body: Option<TaskBody>,
    missing: Vec<usize>,
}

/// Messages exchanged with (and between) the manager threads.
enum MgrMsg {
    /// Master → home node: a new descriptor, missing every producer (by
    /// submission index).
    Submit(Descriptor),
    /// Master → a producer's home: node `to` consumes `producer`; notify it
    /// on retirement (immediately if already retired).
    Subscribe { producer: usize, to: usize },
    /// Directory → subscriber: `producer` has retired. With feedback enabled
    /// the sender piggybacks its live load digest (`(node, view)`), the same
    /// digest-on-retirement channel the event simulator uses.
    Notify {
        producer: usize,
        load: Option<(usize, LoadView)>,
    },
    /// Worker → own manager: the task finished executing.
    WorkerDone { idx: usize, id: TaskId, home: usize },
    /// Thief → a moved descriptor's home: it retired at the thief.
    StolenRetired { idx: usize },
    /// Idle thief → victim: request up to a policy-sized batch of `kind`.
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
    /// Owner → manager: stop the node's workers and exit.
    Shutdown,
}

/// Messages from a manager to its node's worker pool.
enum WorkerMsg {
    /// Execute one ready task (body, then the scaled duration sleep).
    Run(Descriptor),
    /// Exit the worker loop.
    Stop,
}

/// Per-node load board: lock-free counters the owning manager publishes and
/// idle thieves snapshot into [`NodeLoad`]s for the steal policy.
struct Board {
    pending: AtomicUsize,
    stealable: AtomicUsize,
    free: AtomicUsize,
    outstanding: AtomicU64,
    speed_milli: u64,
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

/// Mutable per-node statistics, updated by the owning manager.
#[derive(Default)]
struct NodeStats {
    admitted: Vec<TaskId>,
    executed: u64,
    /// Indexed by [`MoveKind`].
    moves: [MoveStats; 2],
    digest_updates: u64,
}

/// Everything shared about one node.
struct NodeShared {
    stats: Mutex<NodeStats>,
    per_worker_done: Vec<AtomicU64>,
    board: Board,
}

/// The global retirement record: `order` is the append-only log (one entry
/// per executed task, in real wall-clock retirement order — the topological
/// witness), `set` the membership index behind `taskwait on`, and `prefix`
/// the retired-prefix watermark behind `taskwait`.
#[derive(Default)]
struct RetireLog {
    order: Vec<TaskId>,
    set: FxHashSet<TaskId>,
    /// Every submission index below `prefix` has retired.
    prefix: usize,
    /// Retired submission indices above `prefix`.
    ahead: FxHashSet<usize>,
}

impl RetireLog {
    /// Records the retirement of task `id`, submission index `idx`.
    fn retire(&mut self, idx: usize, id: TaskId) {
        self.order.push(id);
        self.set.insert(id);
        if idx != self.prefix {
            self.ahead.insert(idx);
            return;
        }
        self.prefix += 1;
        while self.ahead.remove(&self.prefix) {
            self.prefix += 1;
        }
    }
}

/// What the master remembers about one address.
#[derive(Default)]
struct AddrState {
    /// The last task that wrote the address — the `taskwait on` target.
    writer: Option<TaskId>,
    /// Submission indices of the tasks that read the address since then.
    readers: Vec<usize>,
}

/// Master-side submission state, serialized under one lock so placement and
/// dependence scanning see every submission in program order.
struct SubmitState {
    scanner: DepScanner,
    /// Home node per submission index (the scanner does not expose these).
    homes: Vec<usize>,
    /// Per address: the `taskwait on` target and the readers the next
    /// writer may have to wait for.
    addrs: FxHashMap<u64, AddrState>,
    /// `(producer, node)` pairs already subscribed (dedup: one `Notify` per
    /// consuming node is enough, readiness counting is per missing producer).
    subscribed: FxHashSet<(usize, usize)>,
    closed: bool,
}

/// State shared between the runtime owner, every handle, and every thread.
struct Inner {
    mgr_tx: Vec<Sender<MgrMsg>>,
    nodes: Vec<NodeShared>,
    sub: Mutex<SubmitState>,
    submitted: AtomicU64,
    shutdown: AtomicBool,
    log: Mutex<RetireLog>,
    log_cv: Condvar,
    /// Span recorder shared by master, manager and worker threads (`None`
    /// when tracing is off — the emission sites skip even the clock read).
    rec: Option<SharedRecorder>,
    /// Feedback mode the runtime was built with (drives digest piggybacking,
    /// the shared digest board and the reclaim path).
    feedback: FeedbackKind,
    /// Epoch of the digest observation clock — one `Instant` shared by every
    /// thread so all `LoadView::updated_at` stamps are comparable.
    epoch: Instant,
    /// Shared digest board: the freshest per-node `LoadView` each manager
    /// published at retirement, read by the master for submit-time feedback
    /// placement. Only written when placement feedback is on.
    digests: Mutex<Vec<LoadView>>,
}

impl Inner {
    fn lock_log(&self) -> MutexGuard<'_, RetireLog> {
        self.log.lock().expect("retire log poisoned")
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
    /// Piggybacked load digests this node's manager folded into its live
    /// view table (0 with feedback off — no digest ever rides a `Notify`).
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
    /// can compare the live and simulated censuses key by key.
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
/// spawns nothing, [`ClusterRuntime::start`] spawns the manager and worker
/// threads exactly once, and [`ClusterRuntime::shutdown_timeout`] /
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
    /// Panics if `cfg.nodes` or `cfg.workers_per_node` is zero, or if
    /// `cfg.worker_speeds` has the wrong length or a non-positive/non-finite
    /// factor.
    pub fn new(cfg: RtConfig) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(
            cfg.workers_per_node > 0,
            "need at least one worker per node"
        );
        if let Some(speeds) = &cfg.worker_speeds {
            assert_eq!(
                speeds.len(),
                cfg.workers_per_node,
                "need one speed factor per worker"
            );
            for &s in speeds {
                assert!(
                    s.is_finite() && s > 0.0,
                    "worker speed factor must be a positive finite number (got {s})"
                );
            }
        }
        ClusterRuntime {
            cfg,
            state: State::New,
            inner: None,
            threads: Vec::new(),
        }
    }

    /// Spawns the `nodes` manager threads and `nodes × workers_per_node`
    /// worker threads and returns a handle for submitting work. Spawning
    /// happens exactly once per runtime.
    ///
    /// # Panics
    /// Panics if called a second time (`start` spawns exactly once — create
    /// a new runtime instead).
    pub fn start(&mut self) -> RuntimeHandle {
        assert!(
            self.state == State::New,
            "ClusterRuntime::start called twice (the runtime spawns exactly once)"
        );
        let cfg = &self.cfg;
        let speeds_milli: Vec<u64> = match &cfg.worker_speeds {
            Some(speeds) => speeds
                .iter()
                .map(|&s| ((s * 1000.0).round() as u64).max(1))
                .collect(),
            None => vec![1000; cfg.workers_per_node],
        };
        let total_speed: u64 = speeds_milli.iter().sum();

        let fabric = cfg.link.fabric(cfg.nodes);
        // With placement feedback on, the scanner routes through the live
        // digest-driven policy (exactly what the simulator's submit-time
        // re-placement runs); the scanner keeps owning the homes table so
        // dependence subscriptions always match the placement actually used.
        let scan_policy = if cfg.feedback.place_enabled() {
            Box::new(FeedbackPlacement)
        } else {
            cfg.placement.build()
        };
        let scanner =
            DepScanner::with_policy(cfg.nodes, scan_policy).with_distances(fabric.distances());
        let distances = Arc::new(fabric.distances());

        let mut mgr_tx = Vec::with_capacity(cfg.nodes);
        let mut mgr_rx = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            let (tx, rx) = unbounded::<MgrMsg>();
            mgr_tx.push(tx);
            mgr_rx.push(rx);
        }
        let nodes = (0..cfg.nodes)
            .map(|_| NodeShared {
                stats: Mutex::new(NodeStats::default()),
                per_worker_done: (0..cfg.workers_per_node)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                board: Board {
                    pending: AtomicUsize::new(0),
                    stealable: AtomicUsize::new(0),
                    free: AtomicUsize::new(cfg.workers_per_node),
                    outstanding: AtomicU64::new(0),
                    speed_milli: total_speed,
                },
            })
            .collect();
        let inner = Arc::new(Inner {
            mgr_tx,
            nodes,
            sub: Mutex::new(SubmitState {
                scanner,
                homes: Vec::new(),
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
            epoch: Instant::now(),
            digests: Mutex::new(vec![LoadView::default(); cfg.nodes]),
        });

        for (node, rx) in mgr_rx.into_iter().enumerate() {
            // Room for one in-flight Run per worker plus the Stop flood at
            // shutdown, so the manager never blocks on its own pool.
            let (worker_tx, worker_rx) = bounded::<WorkerMsg>(2 * cfg.workers_per_node);
            for (w, &speed) in speeds_milli.iter().enumerate() {
                let rx = worker_rx.clone();
                let done = inner.mgr_tx[node].clone();
                let shared = Arc::clone(&inner);
                let scale = cfg.time_scale_ns_per_us;
                let t = thread::Builder::new()
                    .name(format!("nexus-rt-w{node}.{w}"))
                    .spawn(move || worker_loop(node, w, speed, scale, rx, done, shared))
                    .expect("failed to spawn worker thread");
                self.threads.push(t);
            }
            let mgr = Mgr {
                node,
                workers: cfg.workers_per_node,
                inner: Arc::clone(&inner),
                worker_tx,
                policy: cfg.stealing.build(),
                steal_enabled: cfg.stealing.is_enabled(),
                feedback: cfg.feedback,
                distances: Arc::clone(&distances),
                retired: FxHashSet::default(),
                subs: FxHashMap::default(),
                waiting: FxHashMap::default(),
                pending: FxHashMap::default(),
                reclaimed_away: FxHashMap::default(),
                views: vec![LoadView::default(); cfg.nodes],
                ready: VecDeque::new(),
                free: cfg.workers_per_node,
                done: 0,
                inflight: [false; 2],
            };
            let t = thread::Builder::new()
                .name(format!("nexus-rt-mgr-{node}"))
                .spawn(move || mgr.run(rx))
                .expect("failed to spawn manager thread");
            self.threads.push(t);
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
        if let Some(timeout) = wait {
            let deadline = Instant::now() + timeout;
            let mut log = inner.lock_log();
            loop {
                if log.order.len() as u64 >= inner.submitted.load(Ordering::Acquire) {
                    break;
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                log = inner
                    .log_cv
                    .wait_timeout(log, left)
                    .expect("retire log poisoned")
                    .0;
            }
        }
        inner.shutdown.store(true, Ordering::Release);
        inner.sub.lock().expect("submit state poisoned").closed = true;
        for tx in &inner.mgr_tx {
            let _ = tx.send(MgrMsg::Shutdown);
        }
        // Wake anyone parked in taskwait/run_trace so they observe the
        // shutdown instead of sleeping forever.
        inner.log_cv.notify_all();
        let threads = std::mem::take(&mut self.threads);
        if wait.is_some() {
            for t in threads {
                let _ = t.join();
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
        let RtTask { descriptor, body } = task;
        let id = descriptor.id;
        let mut sub = self.inner.sub.lock().expect("submit state poisoned");
        if sub.closed {
            return Err(SubmitError::ShutDown);
        }
        let rec = if self.inner.feedback.place_enabled() {
            // Feed the freshest published digests into the scanner's
            // feedback placement — the live analogue of the simulator's
            // submit-time re-placement off the load tracker.
            let views = self
                .inner
                .digests
                .lock()
                .expect("digest board poisoned")
                .clone();
            let live = LiveLoad {
                views: &views,
                now: self.inner.epoch.elapsed().as_nanos() as u64,
                half_life: DIGEST_HALF_LIFE_NS,
            };
            sub.scanner.scan_full_live(&descriptor, Some(live))
        } else {
            sub.scanner.scan_full(&descriptor)
        };
        let idx = sub.homes.len();
        sub.homes.push(rec.home);
        let mut missing = rec.producers;
        let SubmitState { homes, addrs, .. } = &mut *sub;
        for p in &descriptor.params {
            let addr = addrs.entry(p.addr).or_default();
            if !p.dir.writes() {
                addr.readers.push(idx);
                continue;
            }
            // Write-after-read, on this node only (see the module docs).
            for &r in &addr.readers {
                if r != idx && homes[r] == rec.home {
                    missing.push(r);
                }
            }
            addr.writer = Some(id);
            addr.readers.clear();
        }
        missing.sort_unstable();
        missing.dedup();
        for &rp in &rec.remote_producers {
            let producer_home = sub.homes[rp];
            if sub.subscribed.insert((rp, rec.home)) {
                let _ = self.inner.mgr_tx[producer_home].send(MgrMsg::Subscribe {
                    producer: rp,
                    to: rec.home,
                });
            }
        }
        self.inner.submitted.fetch_add(1, Ordering::AcqRel);
        if let Some(r) = &self.inner.rec {
            r.record_now(SpanEvent::Submitted { task: idx });
            r.record_now(SpanEvent::Placed {
                task: idx,
                node: rec.home,
            });
        }
        self.inner.mgr_tx[rec.home]
            .send(MgrMsg::Submit(Descriptor {
                idx,
                id,
                home: rec.home,
                duration: descriptor.duration,
                body,
                missing,
            }))
            .map_err(|_| SubmitError::ShutDown)?;
        Ok(id)
    }

    /// Blocks until every task submitted before the call has retired (or the
    /// runtime shuts down, whichever comes first).
    pub fn taskwait(&self) {
        let target = self.inner.submitted.load(Ordering::Acquire) as usize;
        let mut log = self.inner.lock_log();
        while log.prefix < target && !self.inner.shutdown.load(Ordering::Acquire) {
            log = self.inner.log_cv.wait(log).expect("retire log poisoned");
        }
    }

    /// Blocks until the last task that wrote `addr` has retired — a no-op if
    /// nothing submitted so far writes `addr`. Returns early if the runtime
    /// shuts down.
    pub fn taskwait_on(&self, addr: u64) {
        let target = {
            let sub = self.inner.sub.lock().expect("submit state poisoned");
            sub.addrs.get(&addr).and_then(|a| a.writer)
        };
        let Some(target) = target else { return };
        let mut log = self.inner.lock_log();
        while !log.set.contains(&target) && !self.inner.shutdown.load(Ordering::Acquire) {
            log = self.inner.log_cv.wait(log).expect("retire log poisoned");
        }
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
        self.inner
            .nodes
            .iter()
            .enumerate()
            .map(|(node, shared)| {
                let stats = shared.stats.lock().expect("node stats poisoned");
                let [steal, reclaim] = stats.moves;
                NodeStatsSnapshot {
                    node,
                    admitted: stats.admitted.clone(),
                    executed: stats.executed,
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
                    per_worker_done: shared
                        .per_worker_done
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect(),
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
                    let mut log = self.inner.lock_log();
                    while log.order.len() == fed {
                        if self.inner.shutdown.load(Ordering::Acquire) {
                            return Err(SubmitError::ShutDown);
                        }
                        log = self.inner.log_cv.wait(log).expect("retire log poisoned");
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

/// One manager thread's state (see the [module docs](self) for the
/// protocol).
struct Mgr {
    node: usize,
    workers: usize,
    inner: Arc<Inner>,
    worker_tx: Sender<WorkerMsg>,
    policy: Box<dyn StealPolicy>,
    steal_enabled: bool,
    feedback: FeedbackKind,
    distances: Arc<DistanceMatrix>,
    /// Producers known retired at this node (from local execution, `Notify`,
    /// or `StolenRetired`).
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
    /// Live per-node load digests folded from piggybacked `Notify` loads
    /// (reclaim victim selection reads them; all-default with feedback off).
    views: Vec<LoadView>,
    /// Ready descriptors waiting for a worker (the stealable backlog;
    /// thieves take from the back).
    ready: VecDeque<Descriptor>,
    free: usize,
    /// Tasks this node's workers completed (the digest's retire counter —
    /// tracked locally so digest emission never takes the stats lock).
    done: u64,
    /// Per [`MoveKind`]: a request of that kind is in flight from this node.
    inflight: [bool; 2],
}

impl Mgr {
    fn run(mut self, rx: Receiver<MgrMsg>) {
        loop {
            let idle = match rx.recv_timeout(IDLE_TICK) {
                Ok(MgrMsg::Shutdown) => {
                    for _ in 0..self.workers {
                        let _ = self.worker_tx.send(WorkerMsg::Stop);
                    }
                    return;
                }
                Ok(msg) => {
                    self.on_msg(msg);
                    false
                }
                Err(RecvTimeoutError::Timeout) => true,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            self.dispatch();
            if idle {
                self.try_move(MoveKind::Steal);
                self.try_move(MoveKind::Reclaim);
            }
            self.sync_board();
        }
    }

    fn on_msg(&mut self, msg: MgrMsg) {
        match msg {
            MgrMsg::Submit(t) => {
                self.stats().admitted.push(t.id);
                self.admit(t);
            }
            MgrMsg::Subscribe { producer, to } => {
                if self.retired.contains(&producer) {
                    let load = self.digest_pair();
                    let _ = self.inner.mgr_tx[to].send(MgrMsg::Notify { producer, load });
                } else {
                    self.subs.entry(producer).or_default().push(to);
                }
            }
            MgrMsg::Notify { producer, load } => {
                self.observe(load);
                self.producer_retired(producer);
            }
            MgrMsg::WorkerDone { idx, id, home } => {
                self.free += 1;
                self.done += 1;
                self.stats().executed += 1;
                self.publish_digest();
                self.inner.lock_log().retire(idx, id);
                if let Some(r) = &self.inner.rec {
                    r.record_now(SpanEvent::Retired {
                        task: idx,
                        node: self.node,
                    });
                }
                self.inner.log_cv.notify_all();
                self.producer_retired(idx);
                if home == self.node {
                    self.flush_subs(idx);
                } else {
                    let _ = self.inner.mgr_tx[home].send(MgrMsg::StolenRetired { idx });
                }
            }
            MgrMsg::StolenRetired { idx } => {
                self.producer_retired(idx);
                self.flush_subs(idx);
            }
            MgrMsg::MoveRequest { kind, thief, free } => self.grant_move(kind, thief, free),
            MgrMsg::MoveGrant { kind, tasks } => {
                self.inflight[kind as usize] = false;
                if !tasks.is_empty() {
                    self.stats().moves[kind as usize].moved_in += tasks.len() as u64;
                }
                for t in tasks {
                    self.admit(t);
                }
            }
            MgrMsg::Shutdown => unreachable!("handled in the receive loop"),
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
            self.ready.push_back(t);
        } else {
            for &p in &t.missing {
                self.waiting.entry(p).or_default().push(t.idx);
            }
            self.pending.insert(t.idx, t);
        }
    }

    /// Records that producer `p` retired (idempotent), relays the news to any
    /// thief holding a descriptor reclaimed away while waiting on `p`, and
    /// promotes any local tasks whose last missing producer it was.
    fn producer_retired(&mut self, p: usize) {
        if !self.retired.insert(p) {
            return;
        }
        if let Some(thieves) = self.reclaimed_away.remove(&p) {
            let load = self.digest_pair();
            for to in thieves {
                let _ = self.inner.mgr_tx[to].send(MgrMsg::Notify { producer: p, load });
            }
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
                self.ready.push_back(t);
            }
        }
    }

    /// Notifies every node subscribed to producer `p` (directory duty of the
    /// home node), piggybacking this node's digest when feedback is on.
    fn flush_subs(&mut self, p: usize) {
        if let Some(subs) = self.subs.remove(&p) {
            let load = self.digest_pair();
            for to in subs {
                let _ = self.inner.mgr_tx[to].send(MgrMsg::Notify { producer: p, load });
            }
        }
    }

    /// This node's live digest, `None` with feedback off (no clock read, no
    /// payload on the wire — the off path carries exactly the old protocol).
    fn digest_pair(&self) -> Option<(usize, LoadView)> {
        if !self.feedback.is_enabled() {
            return None;
        }
        Some((
            self.node,
            LoadView {
                pending: (self.pending.len() + self.ready.len()) as u64,
                in_flight: (self.workers - self.free) as u64,
                retired: self.done,
                updated_at: self.inner.epoch.elapsed().as_nanos() as u64,
            },
        ))
    }

    /// Folds a piggybacked digest into the per-node view table.
    fn observe(&mut self, load: Option<(usize, LoadView)>) {
        if let Some((node, view)) = load {
            if self.views[node].observe(view) {
                self.stats().digest_updates += 1;
            }
        }
    }

    /// Publishes this node's digest to the shared board the master's
    /// feedback placement reads (a retirement is the publish trigger, the
    /// same cadence the simulator's load tracker observes digests at).
    fn publish_digest(&self) {
        if !self.feedback.place_enabled() {
            return;
        }
        if let Some((node, view)) = self.digest_pair() {
            let mut board = self.inner.digests.lock().expect("digest board poisoned");
            board[node].observe(view);
        }
    }

    /// Hands ready descriptors to free workers (the workers compete on the
    /// node's task channel, fastest-finisher-first by construction).
    fn dispatch(&mut self) {
        while self.free > 0 {
            let Some(t) = self.ready.pop_front() else {
                break;
            };
            self.free -= 1;
            if let Some(r) = &self.inner.rec {
                r.record_now(SpanEvent::Dispatched {
                    task: t.idx,
                    node: self.node,
                });
            }
            let _ = self.worker_tx.send(WorkerMsg::Run(t));
        }
    }

    /// On an idle tick with free workers and nothing ready, snapshots the
    /// load boards and lets the policy pick a victim for a move of `kind` —
    /// at most one request of each kind in flight. A reclaim also waits
    /// until this node holds no blocked descriptor and its own steal request
    /// is resolved: eligible work is always the cheaper import.
    fn try_move(&mut self, kind: MoveKind) {
        let enabled = match kind {
            MoveKind::Steal => self.steal_enabled,
            MoveKind::Reclaim => self.feedback.reclaim_enabled(),
        };
        let waits = kind == MoveKind::Reclaim
            && (self.inflight[MoveKind::Steal as usize] || !self.pending.is_empty());
        if !enabled
            || waits
            || self.inflight[kind as usize]
            || self.free == 0
            || !self.ready.is_empty()
        {
            return;
        }
        let loads = self.load_board();
        let victim = match kind {
            MoveKind::Steal => self
                .policy
                .choose_victim(self.node, &loads, &self.distances),
            MoveKind::Reclaim => {
                let live = LiveLoad {
                    views: &self.views,
                    now: self.inner.epoch.elapsed().as_nanos() as u64,
                    half_life: DIGEST_HALF_LIFE_NS,
                };
                self.policy
                    .choose_reclaim_victim(self.node, &loads, Some(live), &self.distances)
            }
        };
        let Some(victim) = victim else {
            return;
        };
        self.stats().moves[kind as usize].requests += 1;
        self.inflight[kind as usize] = true;
        let _ = self.inner.mgr_tx[victim].send(MgrMsg::MoveRequest {
            kind,
            thief: self.node,
            free: self.free,
        });
    }

    /// Victim side of a move: hands the thief up to a policy-sized batch of
    /// its youngest descriptors of `kind` — ready ones from the back of the
    /// ready queue for a steal (the oldest are the ones local consumers have
    /// waited on longest), blocked ones by highest submission index for a
    /// reclaim (the oldest are closest to resolving locally) — or an empty
    /// batch. A blocked descriptor travels with its missing-producer list,
    /// and this node registers a forwarding entry per missing producer so
    /// every later producer retirement it learns of is relayed to the thief;
    /// the loop does nothing for ready descriptors.
    fn grant_move(&mut self, kind: MoveKind, thief: usize, free: usize) {
        let tasks: Vec<Descriptor> = match kind {
            MoveKind::Steal => {
                let n = self
                    .policy
                    .batch_for(free, self.ready.len())
                    .min(self.ready.len());
                (0..n)
                    .map(|_| self.ready.pop_back().expect("batch clamped to backlog"))
                    .collect()
            }
            MoveKind::Reclaim => {
                let mut blocked: Vec<usize> = self.pending.keys().copied().collect();
                blocked.sort_unstable_by(|a, b| b.cmp(a));
                let n = self
                    .policy
                    .reclaim_batch(free, blocked.len())
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
        {
            let mut stats = self.stats();
            let s = &mut stats.moves[kind as usize];
            if tasks.is_empty() {
                s.failures += 1;
            } else {
                s.moved_out += tasks.len() as u64;
                s.grants += 1;
            }
        }
        if let Some(r) = &self.inner.rec {
            for t in &tasks {
                r.record_now(kind.span(t.idx, self.node, thief));
            }
        }
        let _ = self.inner.mgr_tx[thief].send(MgrMsg::MoveGrant { kind, tasks });
    }

    /// Snapshots every node's published board into the policy-facing
    /// [`NodeLoad`]s through the shared constructor (the same one the
    /// simulator's driver uses, so the two snapshots cannot drift).
    fn load_board(&self) -> Vec<NodeLoad> {
        self.inner
            .nodes
            .iter()
            .map(|n| {
                let stealable = n.board.stealable.load(Ordering::Relaxed);
                NodeLoad::snapshot(
                    n.board.pending.load(Ordering::Relaxed),
                    stealable,
                    stealable,
                    n.board.free.load(Ordering::Relaxed),
                    n.board.outstanding.load(Ordering::Relaxed),
                    n.board.speed_milli,
                )
            })
            .collect()
    }

    fn sync_board(&self) {
        let board = &self.inner.nodes[self.node].board;
        // `pending` counts everything held at the node (blocked + ready),
        // matching the simulator's input-queue semantics, so that
        // `NodeLoad::reclaimable` = blocked count on both sides.
        board
            .pending
            .store(self.pending.len() + self.ready.len(), Ordering::Relaxed);
        board.stealable.store(self.ready.len(), Ordering::Relaxed);
        board.free.store(self.free, Ordering::Relaxed);
        board.outstanding.store(
            (self.pending.len() + self.ready.len() + (self.workers - self.free)) as u64,
            Ordering::Relaxed,
        );
    }

    fn stats(&self) -> MutexGuard<'_, NodeStats> {
        self.inner.nodes[self.node]
            .stats
            .lock()
            .expect("node stats poisoned")
    }
}

/// One worker thread: run the body, sleep the scaled duration, report back.
fn worker_loop(
    node: usize,
    worker: usize,
    speed_milli: u64,
    time_scale_ns_per_us: u64,
    rx: Receiver<WorkerMsg>,
    done: Sender<MgrMsg>,
    shared: Arc<Inner>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Run(t) => {
                if let Some(r) = &shared.rec {
                    r.record_now(SpanEvent::Started {
                        task: t.idx,
                        node,
                        worker,
                    });
                }
                if let Some(body) = t.body {
                    body();
                }
                if time_scale_ns_per_us > 0 {
                    let ns = t.duration.as_us_f64() * time_scale_ns_per_us as f64 * 1000.0
                        / speed_milli as f64;
                    thread::sleep(Duration::from_nanos(ns as u64));
                }
                shared.nodes[node].per_worker_done[worker].fetch_add(1, Ordering::Relaxed);
                let finished = MgrMsg::WorkerDone {
                    idx: t.idx,
                    id: t.id,
                    home: t.home,
                };
                if done.send(finished).is_err() {
                    return;
                }
            }
            WorkerMsg::Stop => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_trace::TaskDescriptor;
    use std::sync::atomic::AtomicU64;

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
    fn gate() -> (Sender<()>, impl FnOnce() + Send + 'static) {
        let (open, shut) = unbounded();
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
        // Feedback off: the reclaim path is never entered and no digest ever
        // rides a Notify — the keys exist but stay zero, like the simulator.
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
                // 20 µs tasks stretched to 2 ms real so node 1's idle ticks
                // land while node 0 still holds a blocked backlog.
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
            "no digest ever rode a Notify"
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
}
