//! The `serve-mixed` workload: a `dangoron-serve` child process holds one
//! resident session. Connection 1 is a closed-loop querier cycling six
//! query shapes; connection 2 is an open-loop appender sending six columns
//! every 151 ms, timed from when each append was due.

use crate::report::Report;
use crate::stats::{max, median, ms, per, recall};
use crate::trace::Tracer;
use crate::{edge_set, Options};
use dangoron::{BoundMode, Dangoron, DangoronConfig};
use serve::{AppendAck, QueryReply, Registry, ServeClient, ServeMessage, Session};
use sketch::output::EdgeRule;
use sketch::SlidingQuery;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsdata::TimeSeriesMatrix;

const SESSION: &str = "bench";
/// Hourly samples per basic window (one day).
const BW: usize = 24;
const APPEND_COLS: usize = 6;
/// Each append round-trip takes ~42 ms on loopback (a delayed-ACK stall),
/// so a 75 ms schedule built a growing backlog. At exactly 150 ms the
/// latencies split into two modes 2 ms apart and the median flipped
/// between runs; a period that is no multiple of 2 ms or 5 ms samples
/// every phase of the kernel's timer tick instead.
const APPEND_EVERY: Duration = Duration::from_millis(151);
/// Query shapes as (window, step) in basic windows, and β. The thresholds
/// keep every reply above 64 KiB (≥ 3800 edges of 20 bytes on every seed
/// tried): replies below one loopback segment take a second delayed-ACK
/// stall (~88 ms instead of ~44 ms), so a mix straddling that size made
/// the median RTT depend on the seed.
const SHAPES: [(usize, usize, f64); 6] = [
    (30, 10, 0.85),
    (20, 10, 0.85),
    (40, 10, 0.85),
    (15, 10, 0.85),
    (30, 15, 0.8),
    (20, 15, 0.8),
];

fn config() -> DangoronConfig {
    DangoronConfig {
        basic_window: BW,
        bound: BoundMode::PaperJump { slack: 0.0 },
        threads: 1,
        ..Default::default()
    }
}

/// The daemon under test: a child process, or (smoke runs without the
/// binary) `serve::spawn_local` on a thread of this process.
struct Server {
    addr: String,
    metrics_addr: Option<String>,
    child: Option<Child>,
    local: Option<Arc<Registry>>,
}

impl Server {
    fn start(bin: Option<&PathBuf>) -> Result<Self, String> {
        let Some(bin) = bin else {
            let registry = Arc::new(Registry::new(None));
            let addr = serve::spawn_local(Arc::clone(&registry), None)
                .map_err(|e| format!("spawn_local: {e}"))?;
            return Ok(Self {
                addr: addr.to_string(),
                metrics_addr: None,
                child: None,
                local: Some(registry),
            });
        };
        let (addr, metrics_addr) = (free_port()?, free_port()?);
        let child = Command::new(bin)
            .args(["--listen", &addr, "--metrics-addr", &metrics_addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {bin:?}: {e}"))?;
        Ok(Self {
            addr,
            metrics_addr: Some(metrics_addr),
            child: Some(child),
            local: None,
        })
    }

    /// Dials the daemon, polling every 2 ms until it listens (the client
    /// library's dial loop backs off from 100 ms with jitter, which would
    /// pad `setup_s`).
    fn connect(&self) -> Result<ServeClient, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => {
                    let reader = s.try_clone().map_err(|e| e.to_string())?;
                    return ServeClient::over(reader, s).map_err(|e| e.to_string());
                }
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connect {}: {e}", self.addr))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Mean of a daemon histogram in microseconds, from `/metrics` (or
    /// the in-process registry).
    fn histogram_mean_us(&self, family: &str) -> Result<f64, String> {
        if let Some(reg) = &self.local {
            let h = match family {
                "dangoron_serve_query_us" => &reg.metrics().query_us,
                _ => &reg.metrics().drain_us,
            };
            return Ok(per(h.sum() as f64, h.count() as f64));
        }
        let addr = self.metrics_addr.as_deref().ok_or("no metrics address")?;
        let text = http_get(addr, "/metrics")?;
        let families = obs::expo::parse_prometheus(&text)?;
        let value = |name: String| {
            families
                .iter()
                .flat_map(|f| &f.samples)
                .find(|s| s.name == name)
                .map(|s| s.value)
                .ok_or(format!("/metrics has no {name}"))
        };
        Ok(per(
            value(format!("{family}_sum"))?,
            value(format!("{family}_count"))?,
        ))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A localhost port that was free a moment ago.
fn free_port() -> Result<String, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.to_string())
}

fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::new();
    s.read_to_string(&mut text).map_err(|e| e.to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_string())
}

/// What the load phase measured.
#[derive(Default)]
struct Load {
    /// (start, end, shape, reply) of every query.
    queries: Vec<(Instant, Instant, usize, QueryReply)>,
    /// (due, sent, acked, ack) of every append.
    appends: Vec<(Instant, Instant, Instant, AppendAck)>,
    /// Requests that returned an error.
    errors: u64,
}

/// Runs the workload and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let bin = sibling_binary("dangoron-serve");
    let mut report = Report::new(
        "serve-mixed",
        if bin.is_some() {
            "processes"
        } else {
            "in-process"
        },
    );
    if bin.is_none() && !opts.smoke {
        report.op(false);
        report.check(
            "dangoron-serve is built next to the benchmark",
            false,
            "only smoke runs may fall back to serve::spawn_local".into(),
        );
        return report;
    }
    if let Err(e) = run_into(bin.as_ref(), opts, &mut report) {
        report.op(false);
        report.check("workload completed", false, e);
    }
    report
}

/// A binary built next to this one (`target/<profile>/`, or one level up
/// for test executables in `deps/`).
fn sibling_binary(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    let found = [Some(dir), dir.parent()]
        .into_iter()
        .flatten()
        .map(|d| d.join(&file))
        .find(|p| p.exists());
    found
}

fn input(seed: u64, smoke: bool) -> Result<(TimeSeriesMatrix, usize), String> {
    let (n, days, initial_days) = if smoke { (8, 70, 60) } else { (64, 240, 120) };
    let w = eval::workloads::climate(n, days * BW, 0.9, seed)
        .map_err(|e| format!("climate workload: {e:?}"))?;
    Ok((w.data, initial_days * BW))
}

fn run_into(bin: Option<&PathBuf>, opts: &Options, report: &mut Report) -> Result<(), String> {
    // Set-up: input generation, daemon spawn, connect, session open.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..opts.setup_reps() {
        drop(ready.take());
        let t = Instant::now();
        let (data, initial) = input(opts.seed, opts.smoke)?;
        let server = Server::start(bin)?;
        let mut querier = server.connect()?;
        querier
            .open(
                SESSION,
                &data
                    .slice_columns(0, initial)
                    .map_err(|e| format!("{e:?}"))?,
                30 * BW,
                BW,
                0.9,
                &config(),
            )
            .map_err(|e| format!("open: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((server, querier, data, initial));
    }
    let (server, mut querier, data, initial) = ready.ok_or("no set-up rep")?;
    report.metric("setup_s", median(&setup_s), setup_s.len());

    let n_appends = ((opts.serve_seconds() / APPEND_EVERY.as_secs_f64()) as usize)
        .min((data.len() - initial) / APPEND_COLS)
        .max(1);
    let chunks: Vec<TimeSeriesMatrix> = (0..n_appends)
        .map(|k| {
            let at = initial + k * APPEND_COLS;
            data.slice_columns(at, at + APPEND_COLS)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{e:?}"))?;
    let appender = server.connect()?;
    // Created first so the load's request spans fall after its origin.
    let tracer = Tracer::new();
    let load = drive(&mut querier, appender, &chunks);

    for _ in 0..load.errors {
        report.op(false);
    }
    check_replies(&load, report);
    let last_ack = load.appends.last().map(|a| a.3);
    report.check(
        "every append was absorbed",
        // The sketches cover whole basic windows only.
        last_ack.map(|a| a.covered_cols) == Some((initial + n_appends * APPEND_COLS) / BW * BW)
            && load.appends.len() == n_appends,
        format!("{} of {n_appends} appends acked", load.appends.len()),
    );

    let rtt: Vec<f64> = load.queries.iter().map(|q| ms(q.1 - q.0)).collect();
    let append_ms: Vec<f64> = load.appends.iter().map(|a| ms(a.2 - a.0)).collect();
    // Scraped before the verification queries reach the daemon.
    let server_means = if opts.trace {
        Some((
            server.histogram_mean_us("dangoron_serve_query_us")?,
            server.histogram_mean_us("dangoron_serve_drain_us")?,
        ))
    } else {
        None
    };
    let finals = final_replies(&mut querier)?;
    verify(report, &data, &finals)?;
    if let Some(means) = server_means {
        let twin = (&data, initial, &chunks[..]);
        layer_metrics(report, opts, tracer, &load, &rtt, twin, &finals, means)?;
    } else {
        report.latency("query_ms", &rtt);
        report.latency("ingest_ms", &append_ms);
        let bytes = last_ack.map_or(0, |a| a.memory_bytes);
        report.metric("resident_mb", bytes as f64 / 1e6, 1);
    }
    drop(querier);
    drop(server);
    Ok(())
}

/// The load phase: the appender on a second thread, the querier on this
/// one, both starting on the same instant.
fn drive(
    querier: &mut ServeClient,
    mut appender: ServeClient,
    chunks: &[TimeSeriesMatrix],
) -> Load {
    let start = Instant::now() + Duration::from_millis(20);
    let stop = start + APPEND_EVERY * chunks.len() as u32;
    std::thread::scope(|scope| {
        let append_side = scope.spawn(move || {
            let mut out = Vec::with_capacity(chunks.len());
            let mut errors = 0;
            for (k, chunk) in chunks.iter().enumerate() {
                let due = start + APPEND_EVERY * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                match appender.append(SESSION, chunk) {
                    Ok(ack) => out.push((due, sent, Instant::now(), ack)),
                    Err(_) => errors += 1,
                }
            }
            (out, errors)
        });

        let mut load = Load::default();
        if let Some(wait) = start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut k = 0;
        while Instant::now() < stop {
            let shape = k % SHAPES.len();
            let (w, s, beta) = SHAPES[shape];
            let t0 = Instant::now();
            match querier.query(SESSION, w * BW, s * BW, beta) {
                Ok(reply) => load.queries.push((t0, Instant::now(), shape, reply)),
                Err(_) => load.errors += 1,
            }
            k += 1;
        }
        match append_side.join() {
            Ok((appends, errors)) => {
                load.appends = appends;
                load.errors += errors;
            }
            Err(_) => load.errors += 1,
        }
        load
    })
}

/// Every query counts as an operation; answers of one shape over one
/// covered prefix must be identical.
fn check_replies(load: &Load, report: &mut Report) {
    let mut seen: BTreeMap<(usize, usize), &QueryReply> = BTreeMap::new();
    let mut conflicts = 0;
    for (_, _, shape, reply) in &load.queries {
        let first = *seen.entry((*shape, reply.covered_cols)).or_insert(reply);
        let same = first.edges.len() == reply.edges.len()
            && first.edges.iter().zip(&reply.edges).all(|(a, b)| {
                a.0 == b.0
                    && (a.1.i, a.1.j) == (b.1.i, b.1.j)
                    && a.1.value.to_bits() == b.1.value.to_bits()
            });
        conflicts += usize::from(!same);
        report.op(same);
    }
    for _ in &load.appends {
        report.op(true);
    }
    report.check(
        "answers of one shape over one prefix are identical",
        conflicts == 0,
        format!(
            "{} queries, {} distinct (shape, prefix)",
            load.queries.len(),
            seen.len()
        ),
    );
}

/// Each shape answered by the daemon once the appends are in.
fn final_replies(querier: &mut ServeClient) -> Result<Vec<QueryReply>, String> {
    SHAPES
        .iter()
        .map(|&(w, s, beta)| {
            querier
                .query(SESSION, w * BW, s * BW, beta)
                .map_err(|e| format!("final query: {e}"))
        })
        .collect()
}

/// Compares each final answer bitwise with a one-shot run over the covered
/// prefix, and measures recall against the `Exhaustive` truth.
fn verify(
    report: &mut Report,
    data: &TimeSeriesMatrix,
    finals: &[QueryReply],
) -> Result<(), String> {
    let mut mismatched = 0;
    let (mut hits, mut truths) = (0usize, 0usize);
    for (&(w, s, beta), reply) in SHAPES.iter().zip(finals) {
        let q = SlidingQuery {
            start: 0,
            end: reply.covered_cols,
            window: w * BW,
            step: s * BW,
            threshold: beta,
        };
        let run = |cfg: DangoronConfig| {
            Dangoron::new(cfg)
                .and_then(|e| e.execute(data, q))
                .map_err(|e| format!("one-shot: {e:?}"))
        };
        let fresh = run(config())?;
        let served = reply.matrices(data.n_series(), beta, EdgeRule::Positive);
        mismatched += usize::from(!dist::merge::windows_bit_identical(
            &served,
            &fresh.matrices,
        ));
        let truth = edge_set(
            &run(DangoronConfig {
                bound: BoundMode::Exhaustive,
                ..config()
            })?
            .matrices,
        );
        hits += truth.intersection(&edge_set(&served)).count();
        truths += truth.len();
    }
    report.check(
        "each final answer is bit-identical to a one-shot Dangoron::execute",
        mismatched == 0,
        format!("{mismatched} of {} shapes differ", SHAPES.len()),
    );
    report.metric("recall", recall(hits, truths), SHAPES.len());
    Ok(())
}

/// The traced run's layer numbers: daemon-side means, an in-process
/// `Session` twin replaying the daemon's initial history, chunks and
/// shapes, and the wire codec.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    opts: &Options,
    mut tr: Tracer,
    load: &Load,
    rtt: &[f64],
    (data, initial, chunks): (&TimeSeriesMatrix, usize, &[TimeSeriesMatrix]),
    finals: &[QueryReply],
    (server_query_us, server_drain_us): (f64, f64),
) -> Result<(), String> {
    for (k, (t0, t1, _, _)) in load.queries.iter().enumerate() {
        tr.record("serve.client.query", *t0, *t1, k as u64);
    }
    for (k, (_, sent, acked, _)) in load.appends.iter().enumerate() {
        tr.record("serve.client.append", *sent, *acked, k as u64);
    }

    // The twin: same data, same chunks, one query after each append.
    let err = |e: tsdata::TsError| format!("twin: {e:?}");
    let mut twin = Session::open(
        data.slice_columns(0, initial).map_err(err)?,
        30 * BW,
        BW,
        0.9,
        config(),
    )
    .map_err(err)?;
    for (k, chunk) in chunks.iter().enumerate() {
        tr.set_rep(k as u64);
        tr.time("serve.session.append", || twin.append(chunk))
            .map_err(err)?;
        let (w, s, beta) = SHAPES[k % SHAPES.len()];
        tr.time("serve.session.query", || twin.query(w * BW, s * BW, beta))
            .map_err(err)?;
    }

    // The wire codec on the median-size final answer.
    let mut by_size: Vec<&QueryReply> = finals.iter().collect();
    by_size.sort_by_key(|r| r.edges.len());
    let mid = by_size[by_size.len() / 2];
    let msg = ServeMessage::QueryResult {
        id: 1,
        covered_cols: mid.covered_cols as u64,
        n_windows: mid.n_windows as u64,
        edges: mid.edges.clone(),
    };
    let reps = if opts.smoke { 2 } else { 200 };
    let mut bytes = 0;
    for k in 0..reps {
        tr.set_rep(k);
        let payload = tr.time("serve.proto.encode", || serve::proto::encode(&msg));
        bytes = payload.len();
        tr.time("serve.proto.decode", || serve::proto::decode(&payload))?;
    }

    let (twin_query_ms, n_twin_q) = tr.median_ms("serve.session.query");
    let (twin_append_ms, n_twin_a) = tr.median_ms("serve.session.append");
    let (encode_ms, n_enc) = tr.median_ms("serve.proto.encode");
    let (decode_ms, n_dec) = tr.median_ms("serve.proto.decode");
    let server_query_ms = server_query_us / 1e3;
    let n_queries = load.queries.len();
    report.metric("serve.server.query_us.mean", server_query_us, n_queries);
    report.metric(
        "serve.server.drain_us.mean",
        server_drain_us,
        load.appends.len(),
    );
    report.metric("serve.session.query_ms", twin_query_ms, n_twin_q);
    report.metric("serve.session.append_ms", twin_append_ms, n_twin_a);
    report.metric(
        "serve.transport_ms",
        median(rtt) - server_query_ms,
        n_queries,
    );
    report.metric(
        "serve.lock_wait_ms",
        server_query_ms - twin_query_ms,
        n_twin_q,
    );
    report.metric("serve.proto.encode_us", encode_ms * 1e3, n_enc);
    report.metric("serve.proto.decode_us", decode_ms * 1e3, n_dec);
    report.metric("serve.proto.reply_bytes", bytes as f64, 1);
    report.metric("serve.queries", n_queries as f64, 1);
    report.metric("serve.appends", load.appends.len() as f64, 1);
    let closed: usize = load.appends.iter().map(|a| a.3.windows_closed).sum();
    report.metric("serve.windows_closed", closed as f64, 1);
    let lateness: Vec<f64> = load.appends.iter().map(|a| ms(a.1 - a.0)).collect();
    report.metric(
        "serve.append_lateness_ms.max",
        max(&lateness),
        lateness.len(),
    );
    report.spans = Some(tr);
    Ok(())
}
