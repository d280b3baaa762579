//! The shard coordinator: worker admission over TCP, elastic
//! membership, liveness, work-stealing, fault handling and result
//! collection.
//!
//! The coordinator owns the shard plan and a pool of `dangoron-shard`
//! workers, each reached over one TCP link ([`TcpTransport`]). The two
//! [`TransportMode`]s differ only in where the workers come from:
//! [`TransportMode::Spawn`] binds `127.0.0.1:0` and starts its own
//! children as `dangoron-shard --connect ADDR`, while
//! [`TransportMode::Tcp`] binds the configured address and waits for
//! workers started independently. Either way one acceptor thread takes
//! every connection and one function, `admit`, readies it: the
//! worker's first frame must be a [`proto::Hello`] at this build's
//! [`proto::PROTOCOL_VERSION`] ([`proto::check_hello`]), and the
//! coordinator answers with one [`Message::Load`] frame holding the
//! workload matrix. Every later [`Assignment`] is *slim* — rank
//! interval, config and query — so queued and re-planned shards reuse
//! the already-loaded matrix instead of re-shipping it.
//!
//! ## Membership
//!
//! Dispatch waits for the initial quorum: `n_workers` registered, or the
//! window closed (`accept_timeout` over TCP, `handshake_timeout` for
//! spawned children) with at least one. A spawn-mode membership is then
//! fixed: the acceptor stops and the `Load` frame is freed. A TCP
//! membership is **elastic**: the acceptor keeps running, and any worker
//! that completes the handshake mid-run is admitted as a new member —
//! shipped the retained `Load` frame and dealt work off the pending
//! queue (or, if nothing is pending, via a steal; see below). A dropped
//! worker that re-dials (`dangoron-shard --reconnect`) is deliberately
//! *not* special-cased: it is simply a new member on a new link. Its old
//! identity's in-flight interval was already re-planned when the old
//! link died, and any of the old link's frames still in flight are
//! discarded by their stale assignment id — ids are unique per run, so
//! a rejoin can never double-count.
//!
//! ## Liveness: heartbeats and progress
//!
//! Workers are pinged on a fixed cadence and answer from their reader
//! thread even while an assignment is executing; they also report a
//! per-assignment rank frontier ([`Message::Progress`]) after every
//! executed chunk. Hung detection is **progress-based**: a worker is
//! killed only when its outstanding assignment has made no progress for
//! the full timeout — a straggler that keeps reporting is slow but alive
//! and is left to finish (or be stolen from).
//!
//! ## Work-stealing
//!
//! When the pending queue is empty, an idle worker exists, and a
//! straggler's *remaining* interval (assignment end minus reported
//! frontier) is still large, the coordinator asks the straggler to give
//! half of it up ([`Message::Steal`]). The grant is two-phase and the
//! **worker picks the boundary**: its executor answers between chunks
//! with a binding [`Message::StealGrant`] carrying the new end of its
//! own interval — work it provably has not started — so the handoff can
//! never race the chunk under execution. The coordinator shrinks the
//! outstanding interval to the granted end and re-enqueues the tail as
//! an ordinary pending shard. Because shards are pure functions of their
//! rank interval, the re-partition cannot change the answer.
//!
//! Per round the coordinator ships one [`Assignment`] to every idle
//! worker, then waits on a single event channel fed by one reader thread
//! per worker (plus the acceptor). Three things can happen to an
//! outstanding shard:
//!
//! * **result** — its sorted edge buffer and counters are recorded;
//! * **worker death** (EOF, write failure, protocol damage) — the
//!   shard's rank interval is *re-planned*: split across the surviving
//!   workers ([`crate::plan::split_range`]) and re-enqueued;
//! * **no progress for the timeout** — the worker is killed and the
//!   shard re-planned the same way.
//!
//! A frame from a worker the coordinator already gave up on (its kill
//! racing a final in-flight `Result`) is identified by its stale
//! assignment id and discarded — never merged twice. Killing a worker
//! severs both link directions ([`Transport::kill`]), which unblocks and
//! joins its reader thread; no thread or child process outlives
//! [`run`], including on error paths (worker handles sever their links,
//! and spawned children are killed, on drop).
//!
//! Because shards are pure functions of their rank interval, re-planning
//! never changes the answer: any disjoint cover of the triangle merges to
//! the same matrices ([`crate::merge`]), so even a run that lost workers
//! mid-flight — or had them join, leave, rejoin and steal from each other
//! under an injected [`FaultPlan`] — is bit-identical to the
//! single-process engine. Every membership, steal and retry event is
//! counted in the end-of-run [`CoordStats`] and in the coordinator's
//! `/metrics` families (`docs/metrics.md`).

use crate::chaos::{ChaosTransport, FaultPlan};
use crate::merge::{merge_shard_edges, ShardEdges};
use crate::metrics::CoordMetrics;
use crate::plan::{split_range, ShardPlan};
use crate::proto::{self, Assignment, Message, WorkerMode};
use crate::transport::{TcpTransport, Transport};
use crate::worker;
use bytes::frame;
use dangoron::{DangoronConfig, PruningStats};
use sketch::{triangular, SlidingQuery, ThresholdedMatrix};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Read;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tsdata::TimeSeriesMatrix;

/// Why a distributed run could not produce a result. Structured so
/// callers (and the `dangoron-coord` binary's exit paths) can
/// distinguish configuration problems from cluster-death ones.
#[derive(Debug)]
pub enum CoordError {
    /// The TCP listener could not be bound.
    Bind {
        /// The requested listen address.
        addr: String,
        /// The OS error text.
        reason: String,
    },
    /// No worker registered before the admission window closed.
    NoWorkers {
        /// What went wrong.
        reason: String,
    },
    /// Every worker was lost with work outstanding, and (in elastic TCP
    /// mode) no replacement joined within the re-join window.
    NoSurvivors {
        /// Shards still queued when the last worker died.
        pending: usize,
        /// Shards that were in flight on now-dead workers.
        in_flight: usize,
        /// Shards completed before the collapse.
        completed: usize,
    },
    /// One rank interval kept failing until its re-plan budget ran out.
    AttemptsExhausted {
        /// The interval that could not be completed.
        ranks: Range<usize>,
        /// The configured attempt ceiling it exceeded.
        attempts: u32,
    },
    /// Anything else: configuration errors, protocol violations,
    /// engine-side failures of the in-process tiers.
    Internal(String),
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bind { addr, reason } => {
                write!(f, "cannot bind TCP listener on {addr}: {reason}")
            }
            Self::NoWorkers { reason } => write!(f, "no workers: {reason}"),
            Self::NoSurvivors {
                pending,
                in_flight,
                completed,
            } => write!(
                f,
                "every worker died with {pending} shard(s) pending and {in_flight} in flight \
                 ({completed} completed)"
            ),
            Self::AttemptsExhausted { ranks, attempts } => {
                write!(f, "shard {ranks:?} exceeded {attempts} re-plan attempts")
            }
            Self::Internal(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<String> for CoordError {
    fn from(msg: String) -> Self {
        Self::Internal(msg)
    }
}

/// Where the coordinator's workers come from.
#[derive(Debug, Clone)]
pub enum TransportMode {
    /// Bind `127.0.0.1:0` and spawn `dangoron-shard --connect ADDR`
    /// children. The membership is fixed once they are admitted.
    Spawn {
        /// Path to the `dangoron-shard` worker binary.
        worker_bin: PathBuf,
    },
    /// Bind `listen` and accept workers started independently with
    /// `dangoron-shard --connect ADDR`. The membership is elastic:
    /// workers may also connect mid-run.
    Tcp {
        /// Address to bind (e.g. `127.0.0.1:7441`, or port `0` for an
        /// OS-assigned port — then use [`run_with_listener`] to learn it).
        listen: String,
        /// How long to wait for `n_workers` workers before starting with
        /// however many registered (at least one). Also the grace window a
        /// run that lost *every* worker waits for a replacement to join
        /// before giving up.
        accept_timeout: Duration,
    },
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// How workers are reached.
    pub transport: TransportMode,
    /// Number of shards to plan.
    pub n_shards: usize,
    /// Worker links to establish (clamped to the shard count).
    pub n_workers: usize,
    /// Engine threads *inside* each worker process.
    pub worker_threads: usize,
    /// Batch query or streaming replay.
    pub mode: WorkerMode,
    /// How long an outstanding assignment may go **without progress**
    /// before its worker is declared hung and killed.
    pub timeout: Duration,
    /// Deadline for a new link's `Hello` frame, on every link. In spawn
    /// mode it is also the window the children have to register in.
    pub handshake_timeout: Duration,
    /// Crash injection (spawn mode only): this child, in spawn order,
    /// aborts on its first assignment (sets [`worker::FAIL_ENV`] in its
    /// environment) — the replan path's deterministic test hook. TCP
    /// workers are separate processes, so there the operator sets the
    /// environment variable on the worker itself.
    pub kill_worker: Option<usize>,
    /// Upper bound on re-plan generations per rank interval before the
    /// run is abandoned.
    pub max_attempts: u32,
    /// How long an assignment must have been outstanding before an idle
    /// worker may steal its tail. Keeps fast runs steal-free (everything
    /// completes well inside the window) while a genuine straggler —
    /// slow but alive past this age — gets split.
    pub steal_after: Duration,
    /// Fault-injection schedule applied to the coordinator's outgoing
    /// side of every link, in admission order (see [`crate::chaos`]).
    pub chaos: Option<FaultPlan>,
    /// Metric registry the run records into (`None` ⇒ a private one).
    /// Pass the registry mounted in a [`obs::MetricsServer`] to watch the
    /// run live; use a fresh registry per run — counters are cumulative.
    pub registry: Option<Arc<obs::Registry>>,
}

impl CoordinatorConfig {
    /// Spawn-mode defaults: one worker per shard, single-threaded
    /// workers, batch mode, a generous 120 s deadline.
    pub fn new(worker_bin: PathBuf, n_shards: usize) -> Self {
        Self {
            transport: TransportMode::Spawn { worker_bin },
            n_shards,
            n_workers: n_shards,
            worker_threads: 1,
            mode: WorkerMode::Batch,
            timeout: Duration::from_secs(120),
            handshake_timeout: Duration::from_secs(10),
            kill_worker: None,
            max_attempts: 4,
            steal_after: Duration::from_millis(500),
            chaos: None,
            registry: None,
        }
    }

    /// TCP-mode defaults: like [`CoordinatorConfig::new`], but accepting
    /// `n_shards` workers on `listen` (30 s accept window).
    pub fn tcp(listen: impl Into<String>, n_shards: usize) -> Self {
        Self {
            transport: TransportMode::Tcp {
                listen: listen.into(),
                accept_timeout: Duration::from_secs(30),
            },
            ..Self::new(PathBuf::new(), n_shards)
        }
    }
}

/// Per-completed-shard accounting.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The rank interval (post-replan and post-steal intervals can be
    /// finer than the original plan).
    pub ranks: Range<usize>,
    /// Which re-plan generation produced it (0 = original plan; a stolen
    /// tail inherits its victim's generation).
    pub attempt: u32,
    /// Worker-side prepare/open wall seconds.
    pub prepare_s: f64,
    /// Worker-side query/drain wall seconds.
    pub query_s: f64,
    /// The shard's pruning counters.
    pub stats: PruningStats,
    /// Edges the shard contributed.
    pub n_edges: usize,
}

/// Run-level coordinator accounting.
#[derive(Debug, Clone, Default)]
pub struct CoordStats {
    /// Shards in the original plan.
    pub n_shards_planned: usize,
    /// Worker links established at registration.
    pub n_workers: usize,
    /// Re-plan events (worker death, timeout, or worker-reported error).
    pub replans: usize,
    /// Workers lost over the run.
    pub worker_failures: usize,
    /// Workers admitted **after** the initial quorum (elastic TCP mode) —
    /// fresh members and reconnecting ones alike.
    pub late_joins: usize,
    /// `Steal` requests sent to stragglers.
    pub steal_requests: usize,
    /// Steal grants that actually moved work (the stolen tail was
    /// re-enqueued); denials are `steal_requests - steals` at most.
    pub steals: usize,
    /// `Ping` frames sent to workers.
    pub pings_sent: usize,
    /// `Pong` frames received.
    pub pongs: usize,
    /// `Progress` frames received.
    pub progress_frames: usize,
    /// How the run reached its workers: `"tcp"` for [`run`] in either
    /// mode, `"in-process"` for [`run_in_process`].
    pub transport: String,
    /// Assignment frames sent (replans included).
    pub assignments: usize,
    /// Total payload bytes of those slim `Assign` frames.
    pub assign_bytes: u64,
    /// Total payload bytes of the per-worker `Load` frames.
    pub load_bytes: u64,
    /// Stale frames discarded (a worker's reply arriving after the
    /// coordinator re-planned its shard — each one would have been a
    /// double count).
    pub stale_frames: usize,
    /// End-to-end wall seconds (registration → merged matrices).
    pub wall_s: f64,
}

/// The distributed run's output: merged matrices (bit-identical to the
/// single-process engine), summed counters, and the audit trail.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// One finalized matrix per window.
    pub matrices: Vec<ThresholdedMatrix>,
    /// Sum of every shard's [`PruningStats`] — equal to the unsharded
    /// engine's counters.
    pub stats: PruningStats,
    /// Per-shard accounting, in completion order.
    pub shards: Vec<ShardSummary>,
    /// Run-level accounting.
    pub coord: CoordStats,
}

enum Event {
    Msg(usize, Message),
    Closed(usize, String),
    /// A peer completed the handshake on the acceptor.
    Joined(TcpTransport, Box<dyn Read + Send>),
}

struct WorkerHandle {
    transport: Box<dyn Transport>,
    reader: Option<std::thread::JoinHandle<()>>,
    alive: bool,
    /// Last time any frame arrived from this worker — pong, progress,
    /// grant or result.
    last_seen: Instant,
}

impl WorkerHandle {
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.transport.send(payload)
    }

    /// Declares the worker dead: severs the link (which unblocks a reader
    /// stuck in `read()`) and joins the reader thread. Idempotent.
    fn abandon(&mut self) {
        self.alive = false;
        self.transport.kill();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }

    /// Graceful end-of-run: EOF the send half, join the reader.
    fn shutdown(&mut self) {
        if !self.alive {
            self.abandon();
            return;
        }
        self.transport.close_send();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerHandle {
    /// Error-path cleanup: [`run`] shuts workers down explicitly on
    /// success, so a handle still holding its reader thread here means
    /// the run bailed out — kill the peer rather than leak the thread.
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.abandon();
        }
    }
}

#[derive(Debug, Clone)]
struct PendingShard {
    ranks: Range<usize>,
    attempt: u32,
}

/// One in-flight assignment, keyed by worker index in the busy map.
struct Outstanding {
    shard: PendingShard,
    id: u64,
    /// When the assignment was dispatched — the age
    /// [`CoordinatorConfig::steal_after`] is measured against (a
    /// straggler keeps updating `progress_at`, so age-since-dispatch is
    /// the straggler signal, not staleness).
    dispatched_at: Instant,
    /// Last time this assignment demonstrably advanced (assignment time,
    /// then every progress/grant frame). Hung = no advance for the
    /// configured timeout.
    progress_at: Instant,
    /// Highest rank frontier the worker has reported.
    frontier: usize,
    /// A `Steal` is outstanding; don't send another until it resolves.
    steal_sent: bool,
}

impl Outstanding {
    fn remaining(&self) -> usize {
        self.shard.ranks.end.saturating_sub(self.frontier)
    }
}

/// Locates the `dangoron-shard` binary: the `DANGORON_SHARD_BIN`
/// environment variable, then siblings of the current executable (covers
/// `target/<profile>/` for binaries and `target/<profile>/deps/` for test
/// executables).
pub fn default_worker_path() -> Option<PathBuf> {
    let name = format!("dangoron-shard{}", std::env::consts::EXE_SUFFIX);
    if let Ok(p) = std::env::var("DANGORON_SHARD_BIN") {
        let p = PathBuf::from(p);
        if p.exists() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let mut candidates = vec![dir.join(&name)];
    if let Some(up) = dir.parent() {
        candidates.push(up.join(&name));
    }
    candidates.into_iter().find(|c| c.exists())
}

/// Number of windows the merged result must cover for a mode.
pub fn expected_windows(
    mode: WorkerMode,
    engine_cfg: &DangoronConfig,
    data_cols: usize,
    query: &SlidingQuery,
) -> usize {
    match mode {
        WorkerMode::Batch => query.n_windows(),
        WorkerMode::StreamingReplay { .. } => {
            // A streaming session only sees whole basic windows, from
            // column 0.
            let covered = data_cols / engine_cfg.basic_window * engine_cfg.basic_window;
            SlidingQuery {
                start: 0,
                end: covered,
                ..*query
            }
            .n_windows()
        }
    }
}

/// Runs the distributed query across workers reached through the
/// configured transport.
pub fn run(
    cfg: &CoordinatorConfig,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    let addr = match &cfg.transport {
        TransportMode::Spawn { .. } => "127.0.0.1:0",
        TransportMode::Tcp { listen, .. } => listen,
    };
    let listener = TcpListener::bind(addr).map_err(|e| CoordError::Bind {
        addr: addr.to_string(),
        reason: e.to_string(),
    })?;
    run_with_listener(cfg, listener, engine_cfg, data, query)
}

/// Wraps a validated link for duty: lifts the pre-trust limits, applies
/// the chaos schedule for its admission index, ships the `Load` frame
/// and spawns the reader thread. Returns `false` (and buries the link)
/// when the Load cannot be shipped — worker death is tolerated, so it
/// must not cost the run while other links exist.
#[allow(clippy::too_many_arguments)]
fn register_worker(
    mut transport: TcpTransport,
    mut reader: Box<dyn Read + Send>,
    load_payload: &[u8],
    chaos: Option<&FaultPlan>,
    link_seq: &mut usize,
    workers: &mut Vec<WorkerHandle>,
    metrics: &CoordMetrics,
    tx: &mpsc::Sender<Event>,
) -> bool {
    transport.handshake_complete();
    let link = *link_seq;
    *link_seq += 1;
    let mut transport: Box<dyn Transport> = match chaos {
        Some(plan) => Box::new(ChaosTransport::new(
            Box::new(transport),
            plan.for_link(link),
        )),
        None => Box::new(transport),
    };
    if let Err(e) = transport.send(load_payload) {
        eprintln!("dist: dropping a worker at registration (cannot ship the Load frame: {e})");
        transport.kill();
        return false;
    }
    metrics.load_bytes.add(load_payload.len() as u64);
    let idx = workers.len();
    let tx = tx.clone();
    let handle = std::thread::spawn(move || reader_loop(idx, &mut *reader, &tx));
    workers.push(WorkerHandle {
        transport,
        reader: Some(handle),
        alive: true,
        last_seen: Instant::now(),
    });
    true
}

/// The one door every worker link comes through: a thread blocked in
/// `accept()` hands each stream to [`admit`]. Dropping the guard stops
/// and joins the thread, on success and error paths alike — it holds the
/// listener and a channel sender, and must not outlive the run.
struct Acceptor {
    stop: Arc<AtomicBool>,
    /// The listener's address, with a wildcard IP replaced by loopback:
    /// what spawned children dial, and what the stop signal connects to.
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Acceptor {
    fn start(
        listener: TcpListener,
        tx: mpsc::Sender<Event>,
        handshake_timeout: Duration,
        io_timeout: Duration,
    ) -> std::io::Result<Self> {
        let mut addr = listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        Ok(stream) => admit(stream, &tx, handshake_timeout, io_timeout),
                        Err(e) => {
                            eprintln!("dist: TCP accept failed: {e}");
                            break;
                        }
                    }
                }
            })
        };
        Ok(Self {
            stop,
            addr,
            handle: Some(handle),
        })
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            // One connect wakes the blocked accept(). It fails only when
            // the listener is gone, i.e. the thread has already exited.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

/// Readies one accepted stream. The peer is not yet trusted, so its
/// first-frame read is bounded by the handshake timeout as a socket read
/// timeout (lifted at registration) and by [`proto::MAX_HELLO_FRAME`] —
/// and the handshake runs on its **own thread**, so a peer that connects
/// and then says nothing (a load-balancer probe holding the socket open)
/// cannot stall the peers queued behind it. A peer that fails the
/// handshake — a port scanner, a health check, a version-mismatched
/// worker — is dropped without costing a worker slot or the run; one
/// that passes arrives as an [`Event::Joined`].
fn admit(
    stream: TcpStream,
    tx: &mpsc::Sender<Event>,
    handshake_timeout: Duration,
    io_timeout: Duration,
) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "a peer".to_string(), |a| a.to_string());
    let _ = stream.set_read_timeout(Some(handshake_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout.max(Duration::from_secs(1))));
    let mut transport = match TcpTransport::new(stream) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dist: dropping {peer}: {e}");
            return;
        }
    };
    let Some(mut reader) = transport.take_reader() else {
        return;
    };
    let tx = tx.clone();
    std::thread::spawn(move || match handshake(&mut *reader) {
        Ok(()) => {
            // A send failure means the run already ended; the transport
            // drops (and closes the link) on its way out.
            let _ = tx.send(Event::Joined(transport, reader));
        }
        Err(e) => eprintln!("dist: rejecting {peer}: {e}"),
    });
}

/// The spawn-mode children. They dial the coordinator like any TCP
/// worker; this guard only owns the processes. [`Children::wait`] reaps
/// them once their links are closed; on an error path the drop kills,
/// then reaps them.
struct Children(Vec<Child>);

impl Children {
    /// Spawns `n` workers dialing `addr` (none unless `cfg` is spawn
    /// mode).
    fn spawn(cfg: &CoordinatorConfig, n: usize, addr: SocketAddr) -> Result<Self, CoordError> {
        let mut children = Self(Vec::new());
        let TransportMode::Spawn { worker_bin } = &cfg.transport else {
            return Ok(children);
        };
        for w in 0..n {
            let mut cmd = Command::new(worker_bin);
            cmd.arg("--connect")
                .arg(addr.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            if cfg.kill_worker == Some(w) {
                cmd.env(worker::FAIL_ENV, "1");
            }
            let child = cmd
                .spawn()
                .map_err(|e| CoordError::Internal(format!("cannot spawn {worker_bin:?}: {e}")))?;
            children.0.push(child);
        }
        Ok(children)
    }

    fn wait(mut self) {
        for mut c in self.0.drain(..) {
            let _ = c.wait();
        }
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// [`run`] with a pre-bound listener — the caller learns the actual
/// address (port `0` binds) from [`TcpListener::local_addr`] before any
/// worker needs it. In spawn mode the children dial this listener.
pub fn run_with_listener(
    cfg: &CoordinatorConfig,
    listener: TcpListener,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    let t_start = Instant::now();
    let plan = ShardPlan::balanced(data.n_series(), cfg.n_shards);
    if plan.shards().is_empty() {
        return Err(CoordError::Internal(
            "workload has no pairs to shard".into(),
        ));
    }
    let n_workers = cfg.n_workers.clamp(1, plan.shards().len());
    // The admission window; in elastic mode also the grace window a run
    // that lost every worker waits for a replacement.
    let (elastic, window) = match &cfg.transport {
        TransportMode::Tcp { accept_timeout, .. } => (true, *accept_timeout),
        TransportMode::Spawn { .. } => (false, cfg.handshake_timeout),
    };

    // The Load frame is identical for every worker: encode it once,
    // straight from the borrowed matrix.
    let load_payload = proto::encode_load(data);
    if load_payload.len() > proto::MAX_FRAME {
        return Err(CoordError::Internal(format!(
            "workload matrix of {} payload bytes exceeds the {}-byte frame limit",
            load_payload.len(),
            proto::MAX_FRAME
        )));
    }
    // Kept while the membership is open; a fixed one frees it (it is
    // matrix-sized) once the quorum is in.
    let mut load_payload = Some(load_payload);

    let (tx, rx) = mpsc::channel::<Event>();
    let acceptor = Acceptor::start(listener, tx.clone(), cfg.handshake_timeout, cfg.timeout)
        .map_err(|e| CoordError::Internal(format!("cannot read the listener address: {e}")))?;
    let children = Children::spawn(cfg, n_workers, acceptor.addr)?;
    let mut acceptor = Some(acceptor);
    // Set until the initial quorum is in; dispatch waits for it.
    let mut quorum_by = Some(Instant::now() + window);

    // Every counter the run keeps lives in the obs registry; the
    // end-of-run CoordStats is a snapshot of it, so a live scrape and
    // the final report can never disagree.
    let registry = cfg
        .registry
        .clone()
        .unwrap_or_else(|| Arc::new(obs::Registry::new()));
    let metrics = CoordMetrics::new(&registry);
    metrics.shards_planned.set(plan.shards().len() as i64);

    let mut workers: Vec<WorkerHandle> = Vec::with_capacity(n_workers);
    let mut link_seq = 0usize;

    let mut pending: VecDeque<PendingShard> = plan
        .shards()
        .iter()
        .map(|s| PendingShard {
            ranks: s.ranks.clone(),
            attempt: 0,
        })
        .collect();
    let mut busy: HashMap<usize, Outstanding> = HashMap::new();
    let mut next_id: u64 = 0;
    let n_windows = expected_windows(cfg.mode, engine_cfg, data.len(), &query);
    let mut segments: Vec<ShardEdges> = Vec::new();
    let mut summaries: Vec<ShardSummary> = Vec::new();
    let mut stats = PruningStats::default();
    // Ping cadence: a quarter of the liveness timeout, within sane
    // bounds, so a hung worker misses several pings before the deadline.
    let ping_every = (cfg.timeout / 4).clamp(Duration::from_millis(250), Duration::from_secs(5));
    let mut next_ping = Instant::now() + ping_every;
    let mut ping_seq: u64 = 0;
    // Set while zero workers are alive (elastic mode rides out the
    // re-join window before declaring the run dead).
    let mut lost_all_at: Option<Instant> = None;

    let live = |workers: &[WorkerHandle]| workers.iter().filter(|h| h.alive).count();
    let replan = |shard: PendingShard,
                  survivors: usize,
                  pending: &mut VecDeque<PendingShard>,
                  metrics: &CoordMetrics|
     -> Result<(), CoordError> {
        if shard.attempt + 1 > cfg.max_attempts {
            return Err(CoordError::AttemptsExhausted {
                ranks: shard.ranks.clone(),
                attempts: cfg.max_attempts,
            });
        }
        metrics.replans.inc();
        for sub in split_range(shard.ranks.clone(), survivors.max(1)) {
            pending.push_back(PendingShard {
                ranks: sub,
                attempt: shard.attempt + 1,
            });
        }
        Ok(())
    };

    loop {
        // The initial quorum is in once `n_workers` have registered or
        // the window has closed.
        if let Some(by) = quorum_by {
            if workers.len() >= n_workers || Instant::now() >= by {
                quorum_by = None;
                if workers.is_empty() {
                    let hint = if elastic {
                        " — start workers with `dangoron-shard --connect ADDR`"
                    } else {
                        ""
                    };
                    return Err(CoordError::NoWorkers {
                        reason: format!("no worker registered within {window:?}{hint}"),
                    });
                }
                if workers.len() < n_workers {
                    eprintln!(
                        "dist: admission window closed with {}/{n_workers} workers; proceeding",
                        workers.len()
                    );
                }
                metrics.workers.set(workers.len() as i64);
                if !elastic {
                    // A fixed membership: stop admitting and free the
                    // Load frame before the assignment/merge phase.
                    acceptor = None;
                    load_payload = None;
                }
            }
        }
        // Refresh the live-membership gauge once per supervision round —
        // a relaxed store, purely for scrapers.
        metrics.workers_live.set(live(&workers) as i64);

        // Dispatch to every idle live worker, once the quorum is in.
        for w in 0..workers.len() {
            if quorum_by.is_some() || pending.is_empty() {
                break;
            }
            if !workers[w].alive || busy.contains_key(&w) {
                continue;
            }
            let Some(shard) = pending.pop_front() else {
                break;
            };
            let id = next_id;
            next_id += 1;
            let assignment = Assignment {
                shard_id: id,
                ranks: shard.ranks.clone(),
                mode: cfg.mode,
                config: DangoronConfig {
                    threads: cfg.worker_threads,
                    ..engine_cfg.clone()
                },
                query,
            };
            let payload = proto::encode(&Message::Assign(assignment));
            match workers[w].send(&payload) {
                Ok(()) => {
                    metrics.assignments.inc();
                    metrics.assign_bytes.add(payload.len() as u64);
                    busy.insert(
                        w,
                        Outstanding {
                            id,
                            frontier: shard.ranks.start,
                            dispatched_at: Instant::now(),
                            progress_at: Instant::now(),
                            steal_sent: false,
                            shard,
                        },
                    );
                }
                Err(_) => {
                    // Write failure ⇒ the worker is gone.
                    workers[w].abandon();
                    metrics.worker_failures.inc();
                    replan(shard, live(&workers), &mut pending, &metrics)?;
                }
            }
        }

        // Work-stealing: nothing queued, an idle worker waiting, and a
        // straggler still holding a large remaining interval — ask it to
        // give half up. One request at a time per victim; the executor's
        // grant (or the victim's death) resolves it.
        if pending.is_empty() && !busy.is_empty() {
            let idle_exists = workers
                .iter()
                .enumerate()
                .any(|(w, h)| h.alive && !busy.contains_key(&w));
            if idle_exists {
                let now = Instant::now();
                let victim = busy
                    .iter()
                    .filter(|(&w, o)| {
                        workers[w].alive
                            && cfg.mode == WorkerMode::Batch
                            && !o.steal_sent
                            && o.remaining() >= 2
                            && now.duration_since(o.dispatched_at) >= cfg.steal_after
                    })
                    .max_by_key(|(_, o)| o.remaining())
                    .map(|(&w, _)| w);
                if let Some(w) = victim {
                    let id = busy[&w].id;
                    let payload = proto::encode(&Message::Steal { assignment_id: id });
                    match workers[w].send(&payload) {
                        Ok(()) => {
                            if let Some(o) = busy.get_mut(&w) {
                                o.steal_sent = true;
                                metrics.steal_requests.inc();
                            }
                        }
                        Err(_) => {
                            workers[w].abandon();
                            metrics.worker_failures.inc();
                            if let Some(o) = busy.remove(&w) {
                                replan(o.shard, live(&workers), &mut pending, &metrics)?;
                            }
                        }
                    }
                }
            }
        }

        if busy.is_empty() && pending.is_empty() {
            break;
        }
        let now = Instant::now();
        if quorum_by.is_none() && live(&workers) == 0 && busy.is_empty() {
            let no_survivors = || CoordError::NoSurvivors {
                pending: pending.len(),
                in_flight: 0,
                completed: summaries.len(),
            };
            if !elastic {
                return Err(no_survivors());
            }
            // Elastic runs ride out the re-join window: a worker with
            // --reconnect (or a fresh one) may still appear.
            let since = *lost_all_at.get_or_insert(now);
            if now.duration_since(since) >= window {
                return Err(no_survivors());
            }
        } else {
            lost_all_at = None;
        }

        // Heartbeats on a fixed cadence; a ping-write failure is a dead
        // link discovered early.
        if now >= next_ping {
            let payload = proto::encode(&Message::Ping(ping_seq));
            ping_seq += 1;
            next_ping = now + ping_every;
            let mut dead = Vec::new();
            for (w, h) in workers.iter_mut().enumerate() {
                if h.alive {
                    if h.send(&payload).is_ok() {
                        metrics.pings_sent.inc();
                    } else {
                        dead.push(w);
                    }
                }
            }
            for w in dead {
                workers[w].abandon();
                metrics.worker_failures.inc();
                if let Some(o) = busy.remove(&w) {
                    eprintln!(
                        "dist: worker {w} lost (ping write failed); re-planning {:?}",
                        o.shard.ranks
                    );
                    replan(o.shard, live(&workers), &mut pending, &metrics)?;
                }
            }
        }

        // Hung detection: an assignment that has made no progress for
        // the full timeout. (A straggler that keeps reporting progress
        // never trips this — it is stolen from instead.)
        let hung: Vec<usize> = busy
            .iter()
            .filter(|(_, o)| now.duration_since(o.progress_at) >= cfg.timeout)
            .map(|(&w, _)| w)
            .collect();
        for w in hung {
            let Some(o) = busy.remove(&w) else {
                continue;
            };
            workers[w].abandon();
            metrics.worker_failures.inc();
            eprintln!(
                "dist: worker {w} hung (no progress in {:?}); re-planning {:?}",
                cfg.timeout, o.shard.ranks
            );
            replan(o.shard, live(&workers), &mut pending, &metrics)?;
        }
        // Idle workers that stopped answering pings are silently reaped —
        // they hold no work, so nothing re-plans.
        let idle_deadline = cfg.timeout + ping_every * 2;
        for (w, h) in workers.iter_mut().enumerate() {
            if h.alive && !busy.contains_key(&w) && now.duration_since(h.last_seen) >= idle_deadline
            {
                eprintln!("dist: reaping unresponsive idle worker {w}");
                h.abandon();
                metrics.worker_failures.inc();
            }
        }

        // Wait for the next event or the earliest deadline (ping
        // cadence, progress deadlines, the quorum window, the
        // lost-everyone grace window).
        let mut deadline = next_ping;
        for o in busy.values() {
            deadline = deadline.min(o.progress_at + cfg.timeout);
        }
        if let Some(by) = quorum_by {
            deadline = deadline.min(by);
        }
        if let Some(since) = lost_all_at {
            deadline = deadline.min(since + window);
        }
        let wait = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(Event::Joined(mut transport, reader)) => {
                let Some(load) = load_payload.as_deref() else {
                    // The membership is closed: a handshake that
                    // finished after the quorum is turned away.
                    transport.kill();
                    continue;
                };
                if register_worker(
                    transport,
                    reader,
                    load,
                    cfg.chaos.as_ref(),
                    &mut link_seq,
                    &mut workers,
                    &metrics,
                    &tx,
                ) && quorum_by.is_none()
                {
                    metrics.late_joins.inc();
                    eprintln!(
                        "dist: admitted late-joining worker {} ({} alive)",
                        workers.len() - 1,
                        live(&workers)
                    );
                }
            }
            Ok(Event::Msg(w, msg)) => {
                workers[w].last_seen = Instant::now();
                match msg {
                    Message::Result(res) => {
                        // Only the reply to the worker's outstanding
                        // assignment counts. Anything else is a frame the
                        // coordinator already gave up on — a kill racing a
                        // final in-flight result, or a duplicate — and
                        // merging it would double count the shard's edges;
                        // it is discarded by id.
                        match busy.get(&w).map(|o| o.id) {
                            Some(id) if res.shard_id == id => {
                                if let Some((win, _)) =
                                    res.edges.iter().find(|(win, _)| *win as usize >= n_windows)
                                {
                                    return Err(CoordError::Internal(format!(
                                        "worker {w} returned an edge of window {win}; \
                                         the query has {n_windows}"
                                    )));
                                }
                                let Some(o) = busy.remove(&w) else {
                                    continue;
                                };
                                stats.merge(&res.stats);
                                metrics.record_pruning(&res.stats);
                                summaries.push(ShardSummary {
                                    ranks: res.ranks.clone(),
                                    attempt: o.shard.attempt,
                                    prepare_s: res.prepare_s,
                                    query_s: res.query_s,
                                    stats: res.stats.clone(),
                                    n_edges: res.edges.len(),
                                });
                                segments.push((res.ranks, res.edges));
                            }
                            Some(id) if res.shard_id < id => {
                                metrics.stale_frames.inc();
                            }
                            Some(id) => {
                                return Err(CoordError::Internal(format!(
                                    "worker {w} answered assignment {} while {} was outstanding",
                                    res.shard_id, id
                                )));
                            }
                            None => {
                                metrics.stale_frames.inc();
                            }
                        }
                    }
                    Message::Error(id, text) => {
                        // Engine-side failure: the worker survives, the
                        // shard is re-planned (possibly back onto the same
                        // worker). Stale error frames are discarded like
                        // stale results.
                        match busy.get(&w).map(|o| o.id) {
                            Some(outstanding) if id == outstanding => {
                                let Some(o) = busy.remove(&w) else {
                                    continue;
                                };
                                eprintln!("dist: worker {w} reported: {text}");
                                replan(o.shard, live(&workers), &mut pending, &metrics)?;
                            }
                            _ => {
                                metrics.stale_frames.inc();
                            }
                        }
                    }
                    Message::Pong(_) => {
                        metrics.pongs.inc();
                    }
                    Message::Progress {
                        assignment_id,
                        frontier,
                    } => {
                        metrics.progress_frames.inc();
                        if let Some(o) = busy.get_mut(&w) {
                            if o.id == assignment_id {
                                o.progress_at = Instant::now();
                                // Batch frontiers are absolute ranks;
                                // streaming ones are column counts and the
                                // entry is not stealable, so the clamp
                                // only guards the remaining() arithmetic.
                                let f = (frontier as usize)
                                    .clamp(o.shard.ranks.start, o.shard.ranks.end);
                                o.frontier = o.frontier.max(f);
                            }
                        }
                    }
                    Message::StealGrant {
                        assignment_id,
                        new_end,
                    } => match busy.get_mut(&w) {
                        Some(o) if o.id == assignment_id => {
                            o.steal_sent = false;
                            o.progress_at = Instant::now();
                            let new_end = new_end as usize;
                            if new_end > o.shard.ranks.start && new_end < o.shard.ranks.end {
                                // A binding grant: the victim keeps
                                // start..new_end, the tail re-enters the
                                // queue for the next idle worker.
                                let tail = new_end..o.shard.ranks.end;
                                o.shard.ranks.end = new_end;
                                o.frontier = o.frontier.min(new_end);
                                metrics.steals.inc();
                                eprintln!(
                                    "dist: stole {tail:?} from worker {w} (keeps {:?})",
                                    o.shard.ranks
                                );
                                pending.push_back(PendingShard {
                                    ranks: tail,
                                    attempt: o.shard.attempt,
                                });
                            }
                            // new_end == the current end is a denial
                            // (interval nearly exhausted, or a streaming
                            // session): nothing moves.
                        }
                        _ => {
                            metrics.stale_frames.inc();
                        }
                    },
                    msg @ (Message::Assign(_)
                    | Message::Load(_)
                    | Message::Hello(_)
                    | Message::Ping(_)
                    | Message::Steal { .. }) => {
                        return Err(CoordError::Internal(format!(
                            "worker {w} sent a coordinator-side frame: {msg:?}"
                        )));
                    }
                }
            }
            Ok(Event::Closed(w, why)) => {
                if workers[w].alive {
                    workers[w].abandon();
                    metrics.worker_failures.inc();
                    if let Some(o) = busy.remove(&w) {
                        eprintln!(
                            "dist: worker {w} died ({why}); re-planning {:?}",
                            o.shard.ranks
                        );
                        replan(o.shard, live(&workers), &mut pending, &metrics)?;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Deadline work (pings, hung checks, the grace window)
                // happens at the top of the loop.
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Unreachable while this function holds `tx`; kept as a
                // structured error rather than a panic.
                return Err(CoordError::Internal(
                    "coordinator event channel disconnected".into(),
                ));
            }
        }
    }

    drop(acceptor); // stop admitting; join the acceptor thread
    for h in &mut workers {
        h.shutdown();
    }
    children.wait();

    let matrices = merge_shard_edges(
        data.n_series(),
        query.threshold,
        engine_cfg.edge_rule,
        n_windows,
        segments,
    );
    Ok(DistResult {
        matrices,
        stats,
        shards: summaries,
        coord: metrics.snapshot("tcp".to_string(), t_start.elapsed().as_secs_f64()),
    })
}

/// Reads one frame (bounded by [`proto::MAX_HELLO_FRAME`] — the peer is
/// not yet trusted) and validates it with [`proto::check_hello`].
fn handshake(mut reader: &mut (dyn Read + Send)) -> Result<(), String> {
    let payload = frame::read_from(&mut reader, proto::MAX_HELLO_FRAME)
        .map_err(|e| format!("cannot read the handshake frame: {e}"))?
        .ok_or("link closed before the handshake")?;
    proto::check_hello(&payload)
}

/// The per-worker reader thread: frames off the link become events on
/// the coordinator's channel until EOF, damage, or channel teardown.
fn reader_loop(idx: usize, mut reader: &mut (dyn Read + Send), tx: &mpsc::Sender<Event>) {
    loop {
        match frame::read_from(&mut reader, proto::MAX_FRAME) {
            Ok(Some(payload)) => match proto::decode(&payload) {
                Ok(msg) => {
                    if tx.send(Event::Msg(idx, msg)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event::Closed(idx, format!("protocol damage: {e}")));
                    break;
                }
            },
            Ok(None) => {
                let _ = tx.send(Event::Closed(idx, "clean EOF".into()));
                break;
            }
            Err(e) => {
                let _ = tx.send(Event::Closed(idx, e.to_string()));
                break;
            }
        }
    }
}

/// Runs the same shard plan **in-process** (no worker processes): every
/// shard goes through the identical [`worker::execute`] path and the
/// identical merge, sequentially. The harness falls back to this when the
/// worker binary is not built, and tests use it as the ground truth the
/// process tier must reproduce.
pub fn run_in_process(
    n_shards: usize,
    mode: WorkerMode,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    let t_start = Instant::now();
    let plan = ShardPlan::balanced(data.n_series(), n_shards);
    if plan.shards().is_empty() {
        return Err(CoordError::Internal(
            "workload has no pairs to shard".into(),
        ));
    }
    let mut segments: Vec<ShardEdges> = Vec::new();
    let mut summaries = Vec::new();
    let mut stats = PruningStats::default();
    for s in plan.shards() {
        let a = Assignment {
            shard_id: s.id as u64,
            ranks: s.ranks.clone(),
            mode,
            config: engine_cfg.clone(),
            query,
        };
        let r = worker::execute(&a, data)?;
        stats.merge(&r.stats);
        summaries.push(ShardSummary {
            ranks: r.ranks.clone(),
            attempt: 0,
            prepare_s: r.prepare_s,
            query_s: r.query_s,
            stats: r.stats.clone(),
            n_edges: r.edges.len(),
        });
        segments.push((r.ranks, r.edges));
    }
    let n_windows = expected_windows(mode, engine_cfg, data.len(), &query);
    let matrices = merge_shard_edges(
        data.n_series(),
        query.threshold,
        engine_cfg.edge_rule,
        n_windows,
        segments,
    );
    Ok(DistResult {
        matrices,
        stats,
        shards: summaries,
        coord: CoordStats {
            n_shards_planned: plan.shards().len(),
            transport: "in-process".to_string(),
            wall_s: t_start.elapsed().as_secs_f64(),
            ..Default::default()
        },
    })
}

/// The unsharded reference: the whole triangle through the same
/// [`worker::execute`] path (for batch mode this is exactly
/// `Dangoron::prepare` + `run`). The coordinator's `--verify` compares
/// against it bitwise.
pub fn run_single_process(
    mode: WorkerMode,
    engine_cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> Result<DistResult, CoordError> {
    run_in_process(1, mode, engine_cfg, data, query).map(|mut r| {
        debug_assert_eq!(r.shards.len(), 1);
        debug_assert_eq!(r.shards[0].ranks, 0..triangular::count(data.n_series()));
        r.coord.n_shards_planned = 1;
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::windows_bit_identical;
    use dangoron::BoundMode;
    use tsdata::generators;

    fn workload() -> (TimeSeriesMatrix, SlidingQuery, DangoronConfig) {
        let data = generators::clustered_matrix(10, 300, 2, 0.5, 23).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 300,
            window: 60,
            step: 20,
            threshold: 0.7,
        };
        let cfg = DangoronConfig {
            basic_window: 20,
            bound: BoundMode::PaperJump { slack: 0.0 },
            ..Default::default()
        };
        (data, query, cfg)
    }

    #[test]
    fn in_process_sharding_is_invariant_in_shard_count() {
        let (data, query, cfg) = workload();
        let single = run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
        for k in [2usize, 4, 8, 45] {
            let sharded = run_in_process(k, WorkerMode::Batch, &cfg, &data, query).unwrap();
            assert!(
                windows_bit_identical(&sharded.matrices, &single.matrices),
                "k={k}"
            );
            assert_eq!(sharded.stats, single.stats, "k={k}");
        }
    }

    #[test]
    fn in_process_streaming_replay_is_invariant_in_shard_count() {
        let (data, query, cfg) = workload();
        let mode = WorkerMode::StreamingReplay {
            initial_cols: 140,
            chunk_cols: 60,
        };
        let single = run_single_process(mode, &cfg, &data, query).unwrap();
        assert_eq!(
            single.matrices.len(),
            expected_windows(mode, &cfg, data.len(), &query)
        );
        for k in [2usize, 5] {
            let sharded = run_in_process(k, mode, &cfg, &data, query).unwrap();
            assert!(
                windows_bit_identical(&sharded.matrices, &single.matrices),
                "k={k}"
            );
            assert_eq!(sharded.stats, single.stats, "k={k}");
        }
    }

    #[test]
    fn expected_windows_accounts_for_partial_basic_windows() {
        let (_, query, cfg) = workload();
        assert_eq!(
            expected_windows(WorkerMode::Batch, &cfg, 300, &query),
            query.n_windows()
        );
        let stream = WorkerMode::StreamingReplay {
            initial_cols: 100,
            chunk_cols: 50,
        };
        // 310 columns: the last 10 never complete a basic window.
        assert_eq!(
            expected_windows(stream, &cfg, 310, &query),
            expected_windows(stream, &cfg, 300, &query)
        );
        assert_eq!(expected_windows(stream, &cfg, 59, &query), 0);
    }

    #[test]
    fn handshake_rejects_version_and_capability_mismatches() {
        let frame_of = |h: proto::Hello| frame::encode(&proto::encode(&Message::Hello(h)));

        let mut ok: &[u8] = &frame_of(proto::Hello::local());
        let boxed: &mut (dyn Read + Send) = &mut ok;
        handshake(boxed).unwrap();

        // Peers at any other version are refused by name, including the
        // v2–v4 layout that carried a capability word after the version.
        for version in [1, 2, 4, proto::PROTOCOL_VERSION + 1] {
            let current = [&[4u8][..], &version.to_le_bytes()].concat(); // tag 4 = Hello
            let with_caps = [&current[..], &0xfu32.to_le_bytes()].concat();
            for payload in [current, with_caps] {
                let mut link: &[u8] = &frame::encode(&payload);
                let err = handshake(&mut link).unwrap_err();
                assert!(err.contains(&format!("version {version}")), "{err}");
            }
        }

        // A current-version Hello with trailing bytes is rejected.
        let mut payload = proto::encode(&Message::Hello(proto::Hello::local()));
        payload.push(0);
        assert!(handshake(&mut &frame::encode(&payload)[..]).is_err());

        // A non-Hello first frame is rejected.
        let mut wrong: &[u8] = &frame::encode(&proto::encode(&Message::Error(0, "hi".into())));
        assert!(handshake(&mut wrong).is_err());

        // An oversized first frame is rejected by the handshake limit
        // before its payload is even read.
        let mut big: &[u8] = &frame::encode(&[0u8; 4096]);
        assert!(handshake(&mut big).is_err());
    }

    #[test]
    fn coord_error_display_is_structured() {
        let e = CoordError::NoSurvivors {
            pending: 3,
            in_flight: 0,
            completed: 5,
        };
        let s = e.to_string();
        assert!(s.contains("3 shard(s) pending"), "{s}");
        assert!(s.contains("5 completed"), "{s}");
        let e = CoordError::AttemptsExhausted {
            ranks: 10..20,
            attempts: 4,
        };
        assert!(e.to_string().contains("10..20"), "{}", e.to_string());
        let e: CoordError = String::from("plain").into();
        assert_eq!(e.to_string(), "plain");
    }
}
