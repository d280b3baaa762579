//! The shard worker: the engine-driving side of the `dangoron-shard`
//! process.
//!
//! A worker is a frame loop over any byte link (in the binary, the TCP
//! socket it dialed with `--connect`): write
//! one [`Hello`] handshake frame, then serve — a [`Message::Load`] frame
//! stores the workload matrix for the rest of the link, an
//! [`Assignment`] executes the shard (batch `prepare_shard` +
//! `run_range`, or a sharded streaming replay) against the loaded matrix
//! and writes one [`ShardResult`] frame back — until the coordinator
//! closes the link. Engine-side failures are reported as `Error` frames
//! (the worker survives and can take re-planned shards); transport
//! failures and protocol damage end the serve call (the binary may then
//! re-dial with `--reconnect`).
//!
//! The worker is **two threads**: a reader that
//! answers `Ping` frames immediately and latches `Steal` requests, and
//! an executor that runs assignments in rank *chunks*, emitting a
//! [`Message::Progress`] frontier after each chunk. Between chunks the
//! executor answers a pending steal request with a binding
//! [`Message::StealGrant`]: it picks the split point itself (half the
//! remaining interval), so the boundary can never race the chunk it is
//! executing — the granted tail is work it provably has not started.

use crate::proto::{self, Assignment, Hello, Message, ShardResult, WorkerMode};
use bytes::frame;
use dangoron::{Dangoron, PruningStats, QueryResult, StreamingDangoron};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tsdata::TimeSeriesMatrix;

/// When this environment variable is set (to anything non-empty), the
/// worker aborts with an I/O error upon receiving its first assignment —
/// the deterministic crash-injection hook the coordinator's replan path is
/// tested with, in both the spawn and the TCP mode (where the operator
/// sets it on the worker process).
pub const FAIL_ENV: &str = "DANGORON_SHARD_FAIL";

/// When set to a millisecond count, the worker sleeps that long before
/// *starting* each assignment — no progress flows during the sleep, so
/// this is the deterministic hook for the coordinator's hung-worker
/// (timeout/kill) path. For a worker that is slow but demonstrably alive,
/// use [`CHUNK_DELAY_ENV`] instead.
pub const DELAY_ENV: &str = "DANGORON_SHARD_DELAY_MS";

/// When set (non-empty), the worker writes every `Result` frame **twice**
/// — the deterministic stand-in for the race where a worker's final frame
/// is already in flight when the coordinator gives up on it. The
/// duplicate must be identified as stale and discarded, never
/// double-counted.
pub const DUP_ENV: &str = "DANGORON_SHARD_DUP_RESULT";

/// When set to a millisecond count, the executor sleeps that long before
/// **every rank chunk** — a straggler that keeps reporting progress. The
/// coordinator must *not* kill it (it is slow but alive), and its
/// remaining interval is what the work-stealing path carves up.
pub const CHUNK_DELAY_ENV: &str = "DANGORON_SHARD_CHUNK_DELAY_MS";

/// Overrides the batch executor's chunk width in ranks (default: an
/// eighth of the assignment, at least one rank) — tests force small
/// chunks so progress and steal boundaries appear on small workloads.
pub const CHUNK_RANKS_ENV: &str = "DANGORON_SHARD_CHUNK_RANKS";

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty())
}

fn env_u64(name: &str) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The reader thread's lever on a running execution: latches a steal
/// request for the executor to answer between chunks.
#[derive(Debug, Default)]
pub struct ExecControl {
    steal: AtomicBool,
}

impl ExecControl {
    /// Latches a steal request (reader side).
    pub fn request_steal(&self) {
        self.steal.store(true, Ordering::Release);
    }

    /// Consumes a pending steal request (executor side).
    fn take_steal(&self) -> bool {
        self.steal.swap(false, Ordering::AcqRel)
    }
}

/// One queued assignment on its way to the executor thread.
struct Job {
    a: Assignment,
    data: Arc<TimeSeriesMatrix>,
    ctl: Arc<ExecControl>,
}

fn write_frame<W: Write>(out: &Mutex<W>, msg: &Message) -> io::Result<()> {
    // A poisoned sink means a sibling writer panicked mid-frame; keep
    // writing anyway — the coordinator's hardened decoder treats any
    // torn frame as link damage, which is the correct failure mode.
    let mut g = out
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    frame::write_to(&mut *g, &proto::encode(msg))
}

/// Serves assignments from `input`, writing results to `output`, until a
/// clean end-of-stream. This is the whole body of the `dangoron-shard`
/// binary, kept here so the loop is unit-testable over in-memory pipes.
///
/// The calling thread reads frames (so `Ping`s are answered and `Steal`s
/// latched even mid-execution) and a scoped executor thread runs
/// assignments chunk by chunk, both writing through one mutex-guarded
/// sink.
pub fn serve<R: Read, W: Write + Send>(mut input: R, output: W) -> io::Result<()> {
    let inject_fail = env_flag(FAIL_ENV);
    let dup_result = env_flag(DUP_ENV);
    let delay_ms = env_u64(DELAY_ENV);
    let chunk_delay_ms = env_u64(CHUNK_DELAY_ENV);
    let chunk_ranks = env_u64(CHUNK_RANKS_ENV) as usize;

    let out = Mutex::new(output);
    write_frame(&out, &Message::Hello(Hello::local()))?;

    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Job>();
        let out_ref = &out;
        let exec = s.spawn(move || -> io::Result<()> {
            for job in rx {
                if delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
                let mut emit = |m: &Message| {
                    // A failed control-frame write means the link broke;
                    // the result write below surfaces the error.
                    let _ = write_frame(out_ref, m);
                };
                let reply = match execute_controlled(
                    &job.a,
                    &job.data,
                    &job.ctl,
                    chunk_ranks,
                    Duration::from_millis(chunk_delay_ms),
                    &mut emit,
                ) {
                    Ok(result) => Message::Result(result),
                    Err(e) => Message::Error(job.a.shard_id, e),
                };
                let encoded = proto::encode(&reply);
                {
                    // See write_frame on poisoning: keep writing, the
                    // peer's decoder handles torn frames.
                    let mut g = out_ref
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    frame::write_to(&mut *g, &encoded)?;
                    if dup_result && matches!(reply, Message::Result(_)) {
                        frame::write_to(&mut *g, &encoded)?;
                    }
                }
            }
            Ok(())
        });

        let mut loaded: Option<Arc<TimeSeriesMatrix>> = None;
        let mut current: Option<(u64, Arc<ExecControl>)> = None;
        let reader_res: io::Result<()> = loop {
            let payload = match frame::read_from(&mut input, proto::MAX_FRAME) {
                Ok(Some(p)) => p,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            };
            let msg = match proto::decode(&payload) {
                Ok(m) => m,
                Err(e) => break Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            };
            match msg {
                Message::Load(data) => loaded = Some(Arc::new(data)),
                Message::Ping(seq) => {
                    if let Err(e) = write_frame(&out, &Message::Pong(seq)) {
                        break Err(e);
                    }
                }
                Message::Steal { assignment_id } => {
                    if let Some((id, ctl)) = &current {
                        if *id == assignment_id {
                            ctl.request_steal();
                        }
                    }
                    // A steal for a finished assignment is simply stale;
                    // the coordinator's Result handling already cleared it.
                }
                Message::Assign(a) => {
                    if inject_fail {
                        break Err(io::Error::other(
                            "injected worker failure (DANGORON_SHARD_FAIL)",
                        ));
                    }
                    let Some(data) = &loaded else {
                        let err = Message::Error(
                            a.shard_id,
                            "assignment received before any Load frame".to_string(),
                        );
                        if let Err(e) = write_frame(&out, &err) {
                            break Err(e);
                        }
                        continue;
                    };
                    let ctl = Arc::new(ExecControl::default());
                    current = Some((a.shard_id, ctl.clone()));
                    let job = Job {
                        a,
                        data: data.clone(),
                        ctl,
                    };
                    if tx.send(job).is_err() {
                        break Err(io::Error::other("executor thread ended early"));
                    }
                }
                other => {
                    break Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("worker received a worker-side frame: {other:?}"),
                    ))
                }
            }
        };
        drop(tx);
        let exec_res = exec
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("executor thread panicked")));
        reader_res.and(exec_res)
    })
}

/// Executes one assignment against the loaded matrix, producing the
/// shard's sorted edge buffer and counters: [`execute_controlled`] run as
/// one chunk, with no steal requests and no control frames — what the
/// in-process tier runs.
pub fn execute(a: &Assignment, data: &TimeSeriesMatrix) -> Result<ShardResult, String> {
    let ctl = ExecControl::default();
    execute_controlled(a, data, &ctl, a.ranks.len(), Duration::ZERO, &mut |_| {})
}

/// Executes one assignment with a steal-control handle and a control-frame
/// sink — the path [`serve`] runs. Batch assignments run in rank chunks
/// (progress after each, steal grants between); streaming assignments
/// report per-append progress and deny steals (their rank interval is
/// fixed at session open).
pub fn execute_controlled(
    a: &Assignment,
    data: &TimeSeriesMatrix,
    ctl: &ExecControl,
    chunk_ranks: usize,
    chunk_delay: Duration,
    emit: &mut dyn FnMut(&Message),
) -> Result<ShardResult, String> {
    match a.mode {
        WorkerMode::Batch => execute_batch_chunked(a, data, ctl, chunk_ranks, chunk_delay, emit),
        WorkerMode::StreamingReplay {
            initial_cols,
            chunk_cols,
        } => execute_streaming_reporting(a, data, initial_cols, chunk_cols, ctl, emit),
    }
}

/// The batch executor: one `prepare_shard` over the full assignment, then
/// `run_range` over successive rank chunks. After each chunk the absolute
/// frontier goes out as a `Progress` frame; between chunks a latched steal
/// request is answered with a binding `StealGrant` — the executor keeps
/// the head half of its *remaining* interval and the coordinator
/// re-enqueues the tail. Any chunking is bit-identical to a one-chunk
/// run: sub-splitting one preparation is exactly the shard-invariance
/// contract (proven in `core::engine` and `tests/shard_determinism.rs`).
fn execute_batch_chunked(
    a: &Assignment,
    data: &TimeSeriesMatrix,
    ctl: &ExecControl,
    chunk_ranks: usize,
    chunk_delay: Duration,
    emit: &mut dyn FnMut(&Message),
) -> Result<ShardResult, String> {
    let engine = Dangoron::new(a.config.clone()).map_err(|e| format!("bad config: {e:?}"))?;
    let t = Instant::now();
    let prep = engine
        .prepare_shard(data, a.query, a.ranks.clone())
        .map_err(|e| format!("prepare failed: {e:?}"))?;
    let prepare_s = t.elapsed().as_secs_f64();

    let chunk = if chunk_ranks > 0 {
        chunk_ranks
    } else {
        (a.ranks.len() / 8).max(1)
    };
    let mut stats = PruningStats::default();
    let mut chunks: Vec<QueryResult> = Vec::new();
    let mut query_s = 0.0;
    let mut at = a.ranks.start;
    let mut end = a.ranks.end;
    emit(&Message::Progress {
        assignment_id: a.shard_id,
        frontier: at as u64,
    });
    loop {
        if ctl.take_steal() {
            let remaining = end.saturating_sub(at);
            if remaining >= 2 {
                // Keep the head half, grant the tail. `at` is work not
                // yet started, so the boundary cannot race a chunk.
                end = at + remaining / 2;
            }
            emit(&Message::StealGrant {
                assignment_id: a.shard_id,
                new_end: end as u64,
            });
        }
        if at >= end {
            break;
        }
        let next = (at + chunk).min(end);
        if !chunk_delay.is_zero() {
            std::thread::sleep(chunk_delay);
        }
        let t = Instant::now();
        let result = engine.run_range(&prep, at..next);
        // lint:allow(float-reduction-outside-kernel) -- wall-clock accounting across chunks, not a data-plane reduction
        query_s += t.elapsed().as_secs_f64();
        stats.merge(&result.stats);
        chunks.push(result);
        at = next;
        emit(&Message::Progress {
            assignment_id: a.shard_id,
            frontier: at as u64,
        });
    }
    // The wire layout in one pass: window by window, each window's edges
    // from the chunks in rank order — `(i, j)` order, so any chunking
    // yields the one-chunk buffer.
    let mut edges = Vec::with_capacity(chunks.iter().map(QueryResult::total_edges).sum());
    for w in 0..a.query.n_windows() {
        for c in &chunks {
            edges.extend(c.matrices[w].edges().iter().map(|&e| (w as u32, e)));
        }
    }
    Ok(ShardResult {
        shard_id: a.shard_id,
        ranks: a.ranks.start..end,
        prepare_s,
        query_s,
        stats,
        edges,
    })
}

fn execute_streaming_reporting(
    a: &Assignment,
    data: &TimeSeriesMatrix,
    initial_cols: usize,
    chunk_cols: usize,
    ctl: &ExecControl,
    emit: &mut dyn FnMut(&Message),
) -> Result<ShardResult, String> {
    if chunk_cols == 0 {
        return Err("streaming replay needs a positive chunk width".into());
    }
    let total = data.len();
    let initial_cols = initial_cols.min(total);
    let initial = data
        .slice_columns(0, initial_cols)
        .map_err(|e| format!("bad initial slice: {e:?}"))?;
    let t = Instant::now();
    let mut session = StreamingDangoron::new_sharded(
        initial,
        a.query.window,
        a.query.step,
        a.query.threshold,
        a.config.clone(),
        a.ranks.clone(),
    )
    .map_err(|e| format!("session open failed: {e:?}"))?;
    let prepare_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut windows = session
        .drain_completed()
        .map_err(|e| format!("drain failed: {e:?}"))?;
    let mut at = initial_cols;
    emit(&Message::Progress {
        assignment_id: a.shard_id,
        frontier: at as u64,
    });
    while at < total {
        if ctl.take_steal() {
            // A streaming session's rank interval is fixed at open: deny
            // by granting the unchanged end, which clears the
            // coordinator's outstanding steal request.
            emit(&Message::StealGrant {
                assignment_id: a.shard_id,
                new_end: a.ranks.end as u64,
            });
        }
        let next = (at + chunk_cols).min(total);
        let chunk = data
            .slice_columns(at, next)
            .map_err(|e| format!("bad chunk slice: {e:?}"))?;
        windows.extend(
            session
                .append(&chunk)
                .map_err(|e| format!("append failed: {e:?}"))?,
        );
        at = next;
        emit(&Message::Progress {
            assignment_id: a.shard_id,
            frontier: at as u64,
        });
    }
    let query_s = t.elapsed().as_secs_f64();

    // Drains ascend in window index and each matrix is (i, j)-sorted, so
    // the flattened buffer is already in wire order.
    let total_edges: usize = windows.iter().map(|w| w.matrix.n_edges()).sum();
    let mut edges = Vec::with_capacity(total_edges);
    for cw in &windows {
        edges.extend(cw.matrix.edges().iter().map(|&e| (cw.index as u32, e)));
    }
    Ok(ShardResult {
        shard_id: a.shard_id,
        ranks: a.ranks.clone(),
        prepare_s,
        query_s,
        stats: session.stats().clone(),
        edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangoron::{BoundMode, DangoronConfig};
    use sketch::{SlidingQuery, ThresholdedMatrix};
    use tsdata::generators;

    fn data() -> TimeSeriesMatrix {
        generators::clustered_matrix(8, 300, 2, 0.5, 17).unwrap()
    }

    fn assignment(mode: WorkerMode, ranks: std::ops::Range<usize>) -> Assignment {
        Assignment {
            shard_id: 1,
            ranks,
            mode,
            config: DangoronConfig {
                basic_window: 20,
                bound: BoundMode::Exhaustive,
                ..Default::default()
            },
            query: SlidingQuery {
                start: 0,
                end: 300,
                window: 60,
                step: 20,
                threshold: 0.7,
            },
        }
    }

    fn replies(output: &[u8]) -> Vec<Message> {
        let mut stream: &[u8] = output;
        let mut msgs = Vec::new();
        while let Some(payload) = frame::read_from(&mut stream, proto::MAX_FRAME).unwrap() {
            msgs.push(proto::decode(&payload).unwrap());
        }
        msgs
    }

    fn results(msgs: &[Message]) -> Vec<&ShardResult> {
        msgs.iter()
            .filter_map(|m| match m {
                Message::Result(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn serve_round_trips_batch_and_streaming_over_in_memory_pipes() {
        let mut input = Vec::new();
        for msg in [
            Message::Load(data()),
            Message::Assign(assignment(WorkerMode::Batch, 0..28)),
            Message::Assign(assignment(
                WorkerMode::StreamingReplay {
                    initial_cols: 120,
                    chunk_cols: 60,
                },
                5..20,
            )),
        ] {
            input.extend(frame::encode(&proto::encode(&msg)));
        }
        let mut reader: &[u8] = &input;
        let mut output = Vec::new();
        serve(&mut reader, &mut output).unwrap();

        let msgs = replies(&output);
        match &msgs[0] {
            Message::Hello(h) => assert_eq!(*h, Hello::local()),
            other => panic!("first frame must be the handshake, got {other:?}"),
        }
        // The loop interleaves Progress frames with the results.
        assert!(
            msgs.iter().any(|m| matches!(m, Message::Progress { .. })),
            "serve emitted no progress frames"
        );
        let results = results(&msgs);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].ranks, 0..28);
        assert_eq!(results[0].stats.n_pairs, 28);
        assert!(results[0]
            .edges
            .windows(2)
            .all(|w| { (w[0].0, w[0].1.i, w[0].1.j) < (w[1].0, w[1].1.i, w[1].1.j) }));
        assert_eq!(results[1].ranks, 5..20);
        assert_eq!(results[1].stats.n_pairs % 15, 0, "15 pairs per drain");
    }

    #[test]
    fn chunked_execution_is_bit_identical_to_single_shot() {
        let d = data();
        let a = assignment(WorkerMode::Batch, 3..26);
        // `execute` is itself the chunked executor run as one chunk, so the
        // reference is a direct engine run over the whole interval.
        let engine = Dangoron::new(a.config.clone()).unwrap();
        let prep = engine.prepare_shard(&d, a.query, a.ranks.clone()).unwrap();
        let direct = engine.run_range(&prep, a.ranks.clone());
        let single = ThresholdedMatrix::flatten_windows(&direct.matrices);
        for chunk in [1usize, 2, 5, 23, 100] {
            let chunked = execute_controlled(
                &a,
                &d,
                &ExecControl::default(),
                chunk,
                Duration::ZERO,
                &mut |_| {},
            )
            .unwrap();
            assert_eq!(chunked.ranks, a.ranks, "chunk={chunk}");
            assert_eq!(chunked.stats, direct.stats, "chunk={chunk}");
            assert_eq!(chunked.edges.len(), single.len(), "chunk={chunk}");
            for ((wa, ea), (wb, eb)) in single.iter().zip(&chunked.edges) {
                assert_eq!(wa, wb, "chunk={chunk}");
                assert_eq!((ea.i, ea.j), (eb.i, eb.j), "chunk={chunk}");
                assert_eq!(
                    ea.value.to_bits(),
                    eb.value.to_bits(),
                    "chunk={chunk}: edge value drifted"
                );
            }
        }
    }

    #[test]
    fn steal_grant_shrinks_the_result_to_the_granted_boundary() {
        let d = data();
        let a = assignment(WorkerMode::Batch, 0..28);
        let ctl = ExecControl::default();
        ctl.request_steal(); // latched before the first chunk
        let mut grants = Vec::new();
        let r = execute_controlled(&a, &d, &ctl, 4, Duration::ZERO, &mut |m| {
            if let Message::StealGrant { new_end, .. } = m {
                grants.push(*new_end as usize);
            }
        })
        .unwrap();
        assert_eq!(
            grants,
            vec![14],
            "steal of 0..28 at frontier 0 grants 14..28"
        );
        assert_eq!(r.ranks, 0..14);
        assert_eq!(r.stats.n_pairs, 14);
        // Head + granted tail == the full interval, bitwise.
        let tail = execute(&assignment(WorkerMode::Batch, 14..28), &d).unwrap();
        let full = execute(&a, &d).unwrap();
        assert_eq!(r.stats.n_pairs + tail.stats.n_pairs, full.stats.n_pairs);
        let mut merged = PruningStats::default();
        merged.merge(&r.stats);
        merged.merge(&tail.stats);
        assert_eq!(merged, full.stats);
    }

    #[test]
    fn steal_of_an_exhausted_interval_is_denied() {
        let d = data();
        let a = assignment(WorkerMode::Batch, 0..1);
        let ctl = ExecControl::default();
        ctl.request_steal();
        let mut grants = Vec::new();
        let r = execute_controlled(&a, &d, &ctl, 4, Duration::ZERO, &mut |m| {
            if let Message::StealGrant { new_end, .. } = m {
                grants.push(*new_end as usize);
            }
        })
        .unwrap();
        assert_eq!(grants, vec![1], "denial echoes the unchanged end");
        assert_eq!(r.ranks, 0..1);
    }

    #[test]
    fn pings_are_answered_and_stale_steals_ignored() {
        let mut input = Vec::new();
        for msg in [
            Message::Ping(7),
            Message::Load(data()),
            Message::Steal { assignment_id: 99 }, // no such assignment
            Message::Assign(assignment(WorkerMode::Batch, 0..28)),
            Message::Ping(8),
        ] {
            input.extend(frame::encode(&proto::encode(&msg)));
        }
        let mut reader: &[u8] = &input;
        let mut output = Vec::new();
        serve(&mut reader, &mut output).unwrap();
        let msgs = replies(&output);
        let pongs: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Pong(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(pongs, vec![7, 8]);
        assert_eq!(results(&msgs).len(), 1);
        assert!(
            !msgs.iter().any(|m| matches!(m, Message::StealGrant { .. })),
            "a stale steal must not be granted"
        );
    }

    #[test]
    fn engine_errors_become_error_frames_not_transport_failures() {
        // An out-of-triangle shard interval must come back as an Error
        // message and leave the worker alive for the next assignment.
        let mut input = Vec::new();
        for msg in [
            Message::Load(data()),
            Message::Assign(assignment(WorkerMode::Batch, 0..999)),
            Message::Assign(assignment(WorkerMode::Batch, 0..28)),
        ] {
            input.extend(frame::encode(&proto::encode(&msg)));
        }
        let mut reader: &[u8] = &input;
        let mut output = Vec::new();
        serve(&mut reader, &mut output).unwrap();

        let msgs = replies(&output);
        let errors: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Error(id, _) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(errors, vec![1], "error echoes the assignment id");
        assert_eq!(results(&msgs).len(), 1);
    }

    #[test]
    fn assignment_before_load_is_an_error_frame() {
        let mut input = Vec::new();
        input.extend(frame::encode(&proto::encode(&Message::Assign(assignment(
            WorkerMode::Batch,
            0..28,
        )))));
        let mut reader: &[u8] = &input;
        let mut output = Vec::new();
        serve(&mut reader, &mut output).unwrap();
        let msgs = replies(&output);
        assert_eq!(msgs.len(), 2);
        match &msgs[1] {
            Message::Error(_, text) => assert!(text.contains("Load"), "{text}"),
            other => panic!("expected an Error frame, got {other:?}"),
        }
    }

    #[test]
    fn batch_worker_output_matches_direct_engine_run() {
        let d = data();
        let a = assignment(WorkerMode::Batch, 3..17);
        let r = execute(&a, &d).unwrap();
        let engine = Dangoron::new(a.config.clone()).unwrap();
        let prep = engine.prepare_shard(&d, a.query, 3..17).unwrap();
        let direct = engine.run_range(&prep, 3..17);
        assert_eq!(r.stats, direct.stats);
        assert_eq!(
            r.edges,
            ThresholdedMatrix::flatten_windows(&direct.matrices)
        );
    }
}
