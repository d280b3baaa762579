//! The daemon side: a registry of named sessions and the per-link frame
//! loop.
//!
//! Concurrency model: the registry's map is behind a `Mutex` held only
//! for map operations; each session sits behind its own `RwLock`, so
//! queries against one session run concurrently (shared queries borrow
//! the engine immutably) while appends and subscriptions take the write
//! half. No lock is ever poisoned-fatal — every acquisition recovers the
//! guard with [`std::sync::PoisonError::into_inner`], so a panicking
//! client thread can never wedge the daemon (`serve_chaos` proves it).
//!
//! Memory accounting: every session's resident bytes
//! ([`crate::session::Session::memory_bytes`]) are cached on its slot;
//! when a budget is set, `Open`/`Append` first evict **idle**
//! least-recently-used sessions to make room, and if the frame still
//! cannot fit it is refused with a structured `ServeError` — that refusal
//! (and the `Appended` ack on success) is the backpressure: a client that
//! waits for its ack can never run the daemon past its budget.

use crate::metrics::ServeMetrics;
use crate::proto::{self, ServeMessage};
use crate::session::Session;
use bytes::frame;
use dist::proto::{check_hello, MAX_HELLO_FRAME};
use sketch::ThresholdedMatrix;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// Socket write patience for replies and deltas: a subscriber that stops
/// draining its socket is cut loose after this long, so one stuck reader
/// can delay — but never indefinitely stall — its session's appends, and
/// never touches other sessions at all.
const WRITE_PATIENCE: Duration = Duration::from_secs(5);

/// Handshake read patience on a not-yet-trusted link.
const HANDSHAKE_PATIENCE: Duration = Duration::from_secs(10);

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read_guard<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_guard<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// One registry entry: the session, its LRU stamp, and its cached
/// resident size (readable without touching the session lock).
pub struct Slot {
    session: RwLock<Session>,
    last_used: AtomicU64,
    mem: AtomicUsize,
}

impl Slot {
    /// Cached resident bytes (updated after every open/append).
    pub fn memory_bytes(&self) -> usize {
        self.mem.load(Ordering::Relaxed)
    }

    /// Runs `f` under the session's read lock — the shared-query path
    /// used by the read-only HTTP surface ([`crate::http`]).
    pub fn read_session<R>(&self, f: impl FnOnce(&Session) -> R) -> R {
        f(&read_guard(&self.session))
    }
}

/// The daemon's session table: named slots, an LRU clock, and an optional
/// memory budget.
pub struct Registry {
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    clock: AtomicU64,
    mem_budget: Option<usize>,
    metrics: ServeMetrics,
}

impl Registry {
    /// An empty registry; `mem_budget` bounds the summed resident bytes
    /// of all sessions (`None` = unbounded).
    pub fn new(mem_budget: Option<usize>) -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            mem_budget,
            metrics: ServeMetrics::new(),
        }
    }

    /// The daemon's metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The obs registry behind [`Registry::metrics`] — mount it into a
    /// [`obs::MetricsServer`] to expose the daemon.
    pub fn obs_registry(&self) -> Arc<obs::Registry> {
        self.metrics.registry()
    }

    /// Refreshes the daemon-wide totals gauges (cheap relaxed stores).
    fn refresh_totals(&self) {
        let slots = lock(&self.slots);
        self.metrics.sessions.set(slots.len() as i64);
        let total: usize = slots.values().map(|s| s.memory_bytes()).sum();
        self.metrics.resident_bytes.set(total as i64);
    }

    fn touch(&self, slot: &Slot) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// Looks up a session and stamps its LRU clock.
    pub fn get(&self, name: &str) -> Option<Arc<Slot>> {
        let slot = lock(&self.slots).get(name).cloned()?;
        self.touch(&slot);
        Some(slot)
    }

    /// Every resident slot (for the link-teardown subscriber sweep).
    pub fn all_slots(&self) -> Vec<Arc<Slot>> {
        lock(&self.slots).values().cloned().collect()
    }

    /// Removes a session by name.
    pub fn evict(&self, name: &str) -> bool {
        let existed = lock(&self.slots).remove(name).is_some();
        if existed {
            self.metrics.evictions_explicit.inc();
            self.metrics.session(name).clear();
            self.refresh_totals();
        }
        existed
    }

    /// Evicts idle least-recently-used sessions (never `keep`) until the
    /// total fits `need` more bytes inside the budget, or nothing idle is
    /// left. Returns whether `need` now fits. A session whose write lock
    /// is held (an in-flight append or subscribe) is busy, not idle, and
    /// is skipped rather than waited on.
    fn make_room(&self, keep: &str, need: usize) -> bool {
        let Some(budget) = self.mem_budget else {
            return true;
        };
        loop {
            let mut slots = lock(&self.slots);
            let total: usize = slots.values().map(|s| s.memory_bytes()).sum();
            if total.saturating_add(need) <= budget {
                return true;
            }
            let victim = slots
                .iter()
                .filter(|(name, slot)| {
                    // Busy means the write lock is *held* right now; a
                    // poisoned-but-free lock is still evictable.
                    name.as_str() != keep
                        && !matches!(
                            slot.session.try_write(),
                            Err(std::sync::TryLockError::WouldBlock)
                        )
                })
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    if let Some(slot) = slots.remove(&name) {
                        self.metrics.evictions_lru.inc();
                        self.metrics.session(&name).clear();
                        eprintln!(
                            "dangoron-serve: evicted idle session '{name}' ({} bytes) for the memory budget",
                            slot.memory_bytes()
                        );
                    }
                }
                None => return false,
            }
        }
    }

    /// Admits a freshly opened session, evicting idle LRU sessions to fit
    /// it under the budget. Refuses duplicates and sessions that cannot
    /// fit even with every idle tenant evicted.
    pub fn open(&self, name: &str, session: Session) -> Result<Arc<Slot>, String> {
        if lock(&self.slots).contains_key(name) {
            return Err(format!("session '{name}' already exists; Evict it first"));
        }
        let mem = session.memory_bytes();
        if !self.make_room(name, mem) {
            self.metrics.refusals.inc();
            return Err(format!(
                "memory budget exhausted: session '{name}' needs {mem} bytes; evict a session or retry later"
            ));
        }
        let covered = session.covered_cols();
        let slot = Arc::new(Slot {
            session: RwLock::new(session),
            last_used: AtomicU64::new(0),
            mem: AtomicUsize::new(mem),
        });
        self.touch(&slot);
        let mut slots = lock(&self.slots);
        if slots.contains_key(name) {
            return Err(format!("session '{name}' already exists; Evict it first"));
        }
        slots.insert(name.to_string(), Arc::clone(&slot));
        drop(slots);
        self.metrics.opens.inc();
        let sm = self.metrics.session(name);
        sm.resident_bytes.set(mem as i64);
        sm.covered_cols.set(covered as i64);
        sm.subscribers.set(0);
        self.refresh_totals();
        Ok(slot)
    }

    /// Pre-append backpressure check: make room for roughly the incoming
    /// columns' bytes. The engine grows by O(incoming) sketch state per
    /// append, so the raw column size is the accounting proxy.
    pub fn admit_append(&self, name: &str, incoming_bytes: usize) -> Result<(), String> {
        if self.make_room(name, incoming_bytes) {
            Ok(())
        } else {
            self.metrics.refusals.inc();
            Err(format!(
                "memory budget exhausted: append of {incoming_bytes} bytes to '{name}' refused; evict a session or retry later"
            ))
        }
    }
}

/// Writes one framed serve message through the link's shared writer.
fn write_frame(writer: &Mutex<TcpStream>, msg: &ServeMessage) -> io::Result<()> {
    let payload = proto::encode(msg);
    let mut out = lock(writer);
    frame::write_to(&mut *out, &payload)
}

/// One client frame, dispatched against the registry. Returns the reply
/// to write, or `Err` only for faults of the *link* (a reply that cannot
/// be encoded does not exist; session-level failures become
/// [`ServeMessage::ServeError`] replies).
fn dispatch(
    registry: &Registry,
    conn_id: u64,
    writer: &Arc<Mutex<TcpStream>>,
    msg: ServeMessage,
) -> ServeMessage {
    let fail = |context: u64, message: String| ServeMessage::ServeError { context, message };
    match msg {
        ServeMessage::Open {
            name,
            window,
            step,
            threshold,
            config,
            data,
        } => match Session::open(data, window, step, threshold, config) {
            Ok(session) => match registry.open(&name, session) {
                Ok(slot) => {
                    let s = read_guard(&slot.session);
                    ServeMessage::Opened {
                        name,
                        covered_cols: s.covered_cols() as u64,
                        memory_bytes: s.memory_bytes() as u64,
                    }
                }
                Err(e) => fail(0, e),
            },
            Err(e) => fail(0, format!("open '{name}': {e:?}")),
        },
        ServeMessage::Append { name, data } => {
            let incoming = data.n_series() * data.len() * std::mem::size_of::<f64>();
            if let Err(e) = registry.admit_append(&name, incoming) {
                return fail(0, e);
            }
            match registry.get(&name) {
                Some(slot) => {
                    let t0 = std::time::Instant::now();
                    let outcome = write_guard(&slot.session).append(&data);
                    registry
                        .metrics
                        .drain_us
                        .observe(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                    match outcome {
                        Ok(out) => {
                            slot.mem.store(out.memory_bytes, Ordering::Relaxed);
                            registry.metrics.appends.inc();
                            let sm = registry.metrics.session(&name);
                            sm.resident_bytes.set(out.memory_bytes as i64);
                            sm.covered_cols.set(out.covered_cols as i64);
                            registry.refresh_totals();
                            ServeMessage::Appended {
                                name,
                                covered_cols: out.covered_cols as u64,
                                windows_closed: out.windows_closed as u64,
                                memory_bytes: out.memory_bytes as u64,
                            }
                        }
                        Err(e) => fail(0, format!("append to '{name}': {e:?}")),
                    }
                }
                None => fail(0, format!("no session named '{name}'")),
            }
        }
        ServeMessage::Query {
            id,
            name,
            window,
            step,
            threshold,
        } => match registry.get(&name) {
            Some(slot) => {
                let t0 = std::time::Instant::now();
                let answer = read_guard(&slot.session).query(window, step, threshold);
                registry
                    .metrics
                    .query_us
                    .observe(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                match answer {
                    Ok((covered, result)) => {
                        registry.metrics.queries.inc();
                        ServeMessage::QueryResult {
                            id,
                            covered_cols: covered as u64,
                            n_windows: result.matrices.len() as u64,
                            edges: ThresholdedMatrix::flatten_windows(&result.matrices),
                        }
                    }
                    Err(e) => fail(id, format!("query '{name}': {e:?}")),
                }
            }
            None => fail(id, format!("no session named '{name}'")),
        },
        ServeMessage::Subscribe { id, name } => match registry.get(&name) {
            Some(slot) => {
                let sink_writer = Arc::clone(writer);
                let next_window = write_guard(&slot.session).subscribe(
                    id,
                    conn_id,
                    Box::new(move |sub_id, w| {
                        let delta = ServeMessage::Delta {
                            id: sub_id,
                            window: w.index as u64,
                            edges: w.matrix.edges().to_vec(),
                        };
                        write_frame(&sink_writer, &delta).is_ok()
                    }),
                );
                registry.metrics.subscribes.inc();
                registry
                    .metrics
                    .session(&name)
                    .subscribers
                    .set(read_guard(&slot.session).n_subscribers() as i64);
                ServeMessage::Subscribed {
                    id,
                    next_window: next_window as u64,
                }
            }
            None => fail(id, format!("no session named '{name}'")),
        },
        ServeMessage::Evict { name } => {
            let existed = registry.evict(&name);
            ServeMessage::Evicted { name, existed }
        }
        ServeMessage::Ping(seq) => ServeMessage::Pong(seq),
        other => fail(0, format!("frame not valid client→daemon: {other:?}")),
    }
}

/// Serves one accepted link: handshake, then the frame loop. A frame that
/// fails to decode gets a `ServeError` and the loop continues — frames
/// are length-delimited, so the stream stays in sync. On link end, every
/// subscription owned by this connection is dropped.
fn handle_link(stream: TcpStream, registry: &Registry, conn_id: u64) -> io::Result<()> {
    stream.set_read_timeout(Some(HANDSHAKE_PATIENCE))?;
    stream.set_write_timeout(Some(WRITE_PATIENCE))?;
    let mut reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));

    let Some(first) = frame::read_from(&mut reader, MAX_HELLO_FRAME)? else {
        return Ok(()); // peer connected and left; nothing to tear down
    };
    if let Err(e) = check_hello(&first) {
        let _ = write_frame(
            &writer,
            &ServeMessage::ServeError {
                context: 0,
                message: e.clone(),
            },
        );
        return Err(io::Error::other(e));
    }
    // The link is trusted; only the write patience stays.
    reader.set_read_timeout(None)?;

    let result = loop {
        match frame::read_from(&mut reader, proto::MAX_FRAME) {
            Ok(Some(payload)) => {
                let reply = match proto::decode(&payload) {
                    Ok(msg) => dispatch(registry, conn_id, &writer, msg),
                    Err(e) => ServeMessage::ServeError {
                        context: 0,
                        message: format!("bad frame: {e}"),
                    },
                };
                if let Err(e) = write_frame(&writer, &reply) {
                    break Err(e); // the link itself is gone
                }
            }
            Ok(None) => break Ok(()), // clean EOF
            Err(e) => break Err(e),
        }
    };
    for slot in registry.all_slots() {
        write_guard(&slot.session).drop_conn(conn_id);
    }
    result
}

/// Accepts links forever (or until `max_links` links have been accepted,
/// then drains them — the CI smoke mode), serving each on its own thread.
/// Per-link faults are logged and never take the daemon down.
pub fn serve(
    listener: TcpListener,
    registry: Arc<Registry>,
    max_links: Option<u64>,
) -> io::Result<()> {
    let mut handles = Vec::new();
    let mut accepted: u64 = 0;
    loop {
        if let Some(max) = max_links {
            if accepted >= max {
                break;
            }
        }
        let (stream, peer) = accept_link(&listener)?;
        accepted += 1;
        let conn_id = accepted;
        let registry = Arc::clone(&registry);
        handles.push(std::thread::spawn(move || {
            if let Err(e) = handle_link(stream, &registry, conn_id) {
                eprintln!("dangoron-serve: link {conn_id} ({peer}): {e}");
            }
        }));
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

/// Accepts one client link with `TCP_NODELAY` on: replies and deltas are
/// frames a client waits on, and Nagle would hold each back until the
/// client's delayed ACK.
fn accept_link(listener: &TcpListener) -> io::Result<(TcpStream, std::net::SocketAddr)> {
    let (stream, peer) = listener.accept()?;
    let _ = stream.set_nodelay(true);
    Ok((stream, peer))
}

/// Binds an ephemeral local port and serves a registry on a background
/// thread — the in-process daemon used by the test suites and the bench
/// harness. Returns the bound address; the thread runs until the process
/// exits (or `max_links` links have come and gone).
pub fn spawn_local(
    registry: Arc<Registry>,
    max_links: Option<u64>,
) -> io::Result<std::net::SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::spawn(move || {
        if let Err(e) = serve(listener, registry, max_links) {
            eprintln!("dangoron-serve: accept loop: {e}");
        }
    });
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use dangoron::DangoronConfig;
    use tsdata::generators;

    fn cfg() -> DangoronConfig {
        DangoronConfig {
            basic_window: 20,
            ..Default::default()
        }
    }

    #[test]
    fn serve_links_run_with_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let client_end = dialed.try_clone().unwrap();
        let _client = ServeClient::over(dialed.try_clone().unwrap(), dialed).unwrap();
        let (daemon_end, _) = accept_link(&listener).unwrap();
        assert!(client_end.nodelay().unwrap());
        assert!(daemon_end.nodelay().unwrap());
    }

    #[test]
    fn open_query_append_evict_roundtrip_over_tcp() {
        let registry = Arc::new(Registry::new(None));
        let addr = spawn_local(Arc::clone(&registry), None).unwrap();
        let mut client = ServeClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();

        let full = generators::clustered_matrix(6, 200, 2, 0.5, 33).unwrap();
        let opened = client
            .open(
                "t",
                &full.slice_columns(0, 80).unwrap(),
                60,
                20,
                0.7,
                &cfg(),
            )
            .unwrap();
        assert_eq!(opened.covered_cols, 80);
        assert!(opened.memory_bytes > 0);
        assert_eq!(registry.all_slots().len(), 1);

        let ack = client
            .append("t", &full.slice_columns(80, 200).unwrap())
            .unwrap();
        assert_eq!(ack.covered_cols, 200);
        assert!(ack.windows_closed > 0);

        let reply = client.query("t", 60, 20, 0.7).unwrap();
        assert_eq!(reply.covered_cols, 200);
        let fresh = dangoron::Dangoron::new(cfg())
            .unwrap()
            .execute(
                &full,
                sketch::SlidingQuery {
                    start: 0,
                    end: 200,
                    window: 60,
                    step: 20,
                    threshold: 0.7,
                },
            )
            .unwrap();
        let matrices = reply.matrices(6, 0.7, cfg().edge_rule);
        assert_eq!(matrices.len(), fresh.matrices.len());
        for (a, b) in matrices.iter().zip(&fresh.matrices) {
            assert_eq!(a.n_edges(), b.n_edges());
            for (ea, eb) in a.edges().iter().zip(b.edges()) {
                assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                assert_eq!(ea.value.to_bits(), eb.value.to_bits());
            }
        }

        assert!(client.evict("t").unwrap());
        assert!(!client.evict("t").unwrap());
        assert!(client.query("t", 60, 20, 0.7).is_err());
    }

    #[test]
    fn duplicate_open_and_unknown_session_yield_structured_errors() {
        let registry = Arc::new(Registry::new(None));
        let addr = spawn_local(registry, None).unwrap();
        let mut client = ServeClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let data = generators::clustered_matrix(4, 80, 2, 0.5, 5).unwrap();
        client.open("dup", &data, 60, 20, 0.7, &cfg()).unwrap();
        let again = client.open("dup", &data, 60, 20, 0.7, &cfg());
        assert!(again.is_err());
        assert!(again.unwrap_err().to_string().contains("already exists"));
        let missing = client.append("ghost", &data);
        assert!(missing.unwrap_err().to_string().contains("no session"));
    }

    #[test]
    fn lru_eviction_frees_idle_sessions_and_backpressure_refuses_the_rest() {
        let data = generators::clustered_matrix(6, 120, 2, 0.5, 7).unwrap();
        let one = Session::open(data.clone(), 60, 20, 0.7, cfg())
            .unwrap()
            .memory_bytes();
        // Budget fits two sessions but not three.
        let registry = Arc::new(Registry::new(Some(one * 2 + one / 2)));
        let addr = spawn_local(Arc::clone(&registry), None).unwrap();
        let mut client = ServeClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        client.open("a", &data, 60, 20, 0.7, &cfg()).unwrap();
        client.open("b", &data, 60, 20, 0.7, &cfg()).unwrap();
        // Touch "b" so "a" is the LRU victim.
        client.query("b", 60, 20, 0.7).unwrap();
        client.open("c", &data, 60, 20, 0.7, &cfg()).unwrap();
        assert_eq!(registry.all_slots().len(), 2, "the LRU session was evicted");
        assert!(registry.get("a").is_none());
        assert!(registry.get("b").is_some());
        // A budget smaller than one session: open is refused outright.
        let tiny = Arc::new(Registry::new(Some(one / 4)));
        let addr = spawn_local(tiny, None).unwrap();
        let mut client = ServeClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let refused = client.open("x", &data, 60, 20, 0.7, &cfg());
        assert!(refused.unwrap_err().to_string().contains("memory budget"));
    }

    #[test]
    fn handshakes_at_another_version_or_bad_frames_are_rejected() {
        let registry = Arc::new(Registry::new(None));
        let addr = spawn_local(registry, None).unwrap();
        // Hellos at v4 and v2 (both carried a capability word): refused
        // with a structured error that names the version.
        for version in [4u32, 2] {
            let stream = TcpStream::connect(addr).unwrap();
            let mut io = (stream.try_clone().unwrap(), stream);
            let hello = [&[4u8][..], &version.to_le_bytes(), &0xfu32.to_le_bytes()].concat();
            frame::write_to(&mut io.1, &hello).unwrap();
            let reply = frame::read_from(&mut io.0, proto::MAX_FRAME)
                .unwrap()
                .unwrap();
            match proto::decode(&reply).unwrap() {
                ServeMessage::ServeError { message, .. } => {
                    assert!(message.contains(&format!("version {version}")), "{message}")
                }
                other => panic!("expected ServeError, got {other:?}"),
            }
        }
        // A garbage post-handshake frame: ServeError, and the link lives on.
        let mut client = ServeClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        client.send_raw_frame(&[250, 1, 2, 3]).unwrap();
        let err = client.read_reply().unwrap_err();
        assert!(err.to_string().contains("bad frame"));
        assert!(
            client.evict("nothing").is_ok(),
            "link survived the bad frame"
        );
    }
}
