//! The coordinator/worker wire protocol: hand-rolled little-endian
//! message bodies inside the `bytes` shim's length-prefixed frames.
//!
//! Frame layout (see `bytes::frame`): a `u32` LE payload length, then the
//! payload. Every payload starts with a one-byte message tag:
//!
//! | tag | message  | direction          | body |
//! |-----|----------|--------------------|------|
//! | 1   | `Assign` | coordinator→worker | mode, shard id + rank interval, engine config, query — **no matrix**; the worker re-uses its loaded matrix |
//! | 2   | `Result` | worker→coordinator | shard id + rank interval, per-phase wall times, [`PruningStats`], the shard's `(window, edge)` buffer strictly ascending by `(window, i, j)` with every `i < j` (decode rejects anything else) |
//! | 3   | `Error`  | worker→coordinator | echoed shard id + UTF-8 message (the shard is re-planned) |
//! | 4   | `Hello`  | worker→coordinator | handshake: the protocol version, the first frame on any link |
//! | 5   | `Load`   | coordinator→worker | the full column matrix, shipped **once per worker** at registration |
//! | 6   | `Ping`   | coordinator→worker | liveness probe; carries a sequence number |
//! | 7   | `Pong`   | worker→coordinator | echoes the `Ping` sequence number |
//! | 8   | `Progress` | worker→coordinator | per-assignment frontier report: the absolute rank (batch) or column (streaming) the executor has completed up to |
//! | 9   | `Steal`  | coordinator→worker | asks the executor to give up the tail of batch assignment `id` |
//! | 10  | `StealGrant` | worker→coordinator | the executor's answer: it will stop at `new_end` (`new_end == ranks.end` is a denial) — the coordinator re-enqueues `new_end..end` |
//!
//! The matrix travels in `Load`, once per worker, not in every `Assign`:
//! it dominates the frame bytes, so queued and re-planned shards are free
//! of matrix traffic. Both ends of every link are built from this
//! workspace, so the handshake is one version check ([`check_hello`]):
//! a peer at any other [`PROTOCOL_VERSION`] is refused.
//!
//! All integers are `u64`/`u32` LE, all floats `f64` bit patterns —
//! correlation values cross the wire losslessly, which is what lets the
//! coordinator's merged matrices be bit-identical to the single-process
//! engine. With the TCP transport the peer is a *network* peer, so frames
//! are decoded defensively: every count is validated against the bytes
//! actually present **before** any allocation sized by it, unknown tags
//! and truncated bodies return `Err` (never panic), and a payload with
//! trailing bytes after its message is rejected as inconsistent.

use bytes::{Buf, BufMut};
use dangoron::config::{HorizontalConfig, PivotStrategy};
use dangoron::{BoundMode, DangoronConfig, PairStorage, PruningStats};
use sketch::output::{Edge, EdgeRule};
use sketch::SlidingQuery;
use std::ops::Range;
use tsdata::TimeSeriesMatrix;

/// Upper bound on a frame's payload (guards against garbage length
/// prefixes; a 1 GiB frame is far beyond any real workload here).
pub const MAX_FRAME: usize = 1 << 30;

/// Upper bound on the *first* frame of a link — before the handshake is
/// validated the peer is untrusted, and a [`Hello`] payload is 5 bytes,
/// so anything near this limit is hostile or garbage.
pub const MAX_HELLO_FRAME: usize = 64;

/// Version of the wire layout, shared by the shard frames here and the
/// serving tier's session frames (tags 11+, defined in `crates/serve`).
/// Bump it whenever any frame's layout changes: [`check_hello`] refuses
/// every other version.
pub const PROTOCOL_VERSION: u32 = 5;

/// How the worker executes its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerMode {
    /// One `prepare_shard` + `run_range` batch query.
    Batch,
    /// Replay the matrix through a sharded [`dangoron::StreamingDangoron`]:
    /// open over the first `initial_cols` columns, then append
    /// `chunk_cols`-wide slices until the history is exhausted, collecting
    /// every drain.
    StreamingReplay {
        /// Columns the session opens over.
        initial_cols: usize,
        /// Columns per append.
        chunk_cols: usize,
    },
}

/// The peer's side of the handshake: the first frame a worker or serve
/// client writes on any link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The peer's [`PROTOCOL_VERSION`].
    pub version: u32,
}

impl Hello {
    /// The handshake this build sends.
    pub fn local() -> Self {
        Self {
            version: PROTOCOL_VERSION,
        }
    }
}

/// Validates the first frame of a link: a [`Hello`] at exactly
/// [`PROTOCOL_VERSION`]. The version is read before the rest of the body,
/// so a peer at another version is refused by name even when its `Hello`
/// has another layout (v2–v4 carried a capability word after it).
pub fn check_hello(payload: &[u8]) -> Result<(), String> {
    let mut buf = payload;
    let tag = take_u8(&mut buf, "tag")?;
    if tag != TAG_HELLO {
        return Err(format!("expected Hello, got a frame with tag {tag}"));
    }
    let version = take_u32(&mut buf, "version")?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        ));
    }
    if !buf.is_empty() {
        return Err(format!("{} trailing bytes after Hello", buf.len()));
    }
    Ok(())
}

/// A shard assignment shipped to a worker. Slim: the workload matrix
/// travels separately in a [`Message::Load`] frame, once per worker.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Shard id (coordinator bookkeeping, echoed in the result).
    pub shard_id: u64,
    /// The pair-rank interval to walk.
    pub ranks: Range<usize>,
    /// Execution mode.
    pub mode: WorkerMode,
    /// Engine configuration (worker-side thread count included).
    pub config: DangoronConfig,
    /// The sliding query.
    pub query: SlidingQuery,
}

/// A completed shard, streamed back to the coordinator.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Echoed shard id.
    pub shard_id: u64,
    /// Echoed rank interval.
    pub ranks: Range<usize>,
    /// Prepare-phase (or session-open) wall seconds.
    pub prepare_s: f64,
    /// Query (or total drain) wall seconds.
    pub query_s: f64,
    /// The shard's pruning counters.
    pub stats: PruningStats,
    /// The shard's edges, strictly ascending by `(window, i, j)` with every
    /// `i < j` (checked by [`decode`]).
    pub edges: Vec<(u32, Edge)>,
}

/// A protocol message.
#[derive(Debug, Clone)]
pub enum Message {
    /// Coordinator → worker: one shard of work.
    Assign(Assignment),
    /// Coordinator → worker: the workload matrix, once per worker.
    Load(TimeSeriesMatrix),
    /// Worker → coordinator: the link handshake.
    Hello(Hello),
    /// Worker → coordinator: a completed shard.
    Result(ShardResult),
    /// Worker → coordinator: the shard failed engine-side. Carries the
    /// assignment id so a frame that arrives after the coordinator gave
    /// up on it can be identified as stale and discarded.
    Error(u64, String),
    /// Coordinator → worker: liveness probe with a sequence number.
    Ping(u64),
    /// Worker → coordinator: echo of a [`Message::Ping`] sequence
    /// number, written immediately by the worker's reader thread — it
    /// proves the *process* is alive even while the executor grinds.
    Pong(u64),
    /// Worker → coordinator: the executor has completed the
    /// assignment up to `frontier` (an absolute pair rank in batch mode,
    /// an absolute column count in streaming replay). Progress resets the
    /// coordinator's hung-worker deadline: a slow worker that keeps
    /// reporting is *slow but alive*; one that stops is hung.
    Progress {
        /// The assignment being reported on.
        assignment_id: u64,
        /// Absolute frontier the executor has finished through.
        frontier: u64,
    },
    /// Coordinator → worker: asks the executor of `assignment_id` to
    /// give up the tail of its rank interval for an idle worker.
    Steal {
        /// The straggling assignment.
        assignment_id: u64,
    },
    /// Worker → coordinator: the executor's binding answer to a
    /// [`Message::Steal`] — it will stop at `new_end` and its `Result`
    /// will cover exactly `ranks.start..new_end`. `new_end == ranks.end`
    /// is a denial (nothing left worth stealing). The boundary is chosen
    /// by the executor *between chunks*, which is what makes the split
    /// race-free: the two sides of `new_end` are executed exactly once
    /// each, so the merge stays bit-identical.
    StealGrant {
        /// The assignment being shrunk.
        assignment_id: u64,
        /// The new exclusive end of the worker's interval.
        new_end: u64,
    },
}

const TAG_ASSIGN: u8 = 1;
const TAG_RESULT: u8 = 2;
const TAG_ERROR: u8 = 3;
const TAG_HELLO: u8 = 4;
const TAG_LOAD: u8 = 5;
const TAG_PING: u8 = 6;
const TAG_PONG: u8 = 7;
const TAG_PROGRESS: u8 = 8;
const TAG_STEAL: u8 = 9;
const TAG_STEAL_GRANT: u8 = 10;

/// Encodes a message into a frame payload (no length prefix).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        Message::Assign(a) => {
            out.put_u8(TAG_ASSIGN);
            match a.mode {
                WorkerMode::Batch => out.put_u8(0),
                WorkerMode::StreamingReplay {
                    initial_cols,
                    chunk_cols,
                } => {
                    out.put_u8(1);
                    out.put_u64_le(initial_cols as u64);
                    out.put_u64_le(chunk_cols as u64);
                }
            }
            out.put_u64_le(a.shard_id);
            out.put_u64_le(a.ranks.start as u64);
            out.put_u64_le(a.ranks.end as u64);
            encode_config(&mut out, &a.config);
            out.put_u64_le(a.query.start as u64);
            out.put_u64_le(a.query.end as u64);
            out.put_u64_le(a.query.window as u64);
            out.put_u64_le(a.query.step as u64);
            out.put_f64_le(a.query.threshold);
        }
        Message::Load(data) => write_load(&mut out, data),
        Message::Hello(h) => {
            out.put_u8(TAG_HELLO);
            out.put_u32_le(h.version);
        }
        Message::Result(r) => {
            out.put_u8(TAG_RESULT);
            out.put_u64_le(r.shard_id);
            out.put_u64_le(r.ranks.start as u64);
            out.put_u64_le(r.ranks.end as u64);
            out.put_f64_le(r.prepare_s);
            out.put_f64_le(r.query_s);
            encode_stats(&mut out, &r.stats);
            put_window_edges(&mut out, &r.edges);
        }
        Message::Error(shard_id, text) => {
            out.put_u8(TAG_ERROR);
            out.put_u64_le(*shard_id);
            out.put_u64_le(text.len() as u64);
            out.put_slice(text.as_bytes());
        }
        Message::Ping(seq) => {
            out.put_u8(TAG_PING);
            out.put_u64_le(*seq);
        }
        Message::Pong(seq) => {
            out.put_u8(TAG_PONG);
            out.put_u64_le(*seq);
        }
        Message::Progress {
            assignment_id,
            frontier,
        } => {
            out.put_u8(TAG_PROGRESS);
            out.put_u64_le(*assignment_id);
            out.put_u64_le(*frontier);
        }
        Message::Steal { assignment_id } => {
            out.put_u8(TAG_STEAL);
            out.put_u64_le(*assignment_id);
        }
        Message::StealGrant {
            assignment_id,
            new_end,
        } => {
            out.put_u8(TAG_STEAL_GRANT);
            out.put_u64_le(*assignment_id);
            out.put_u64_le(*new_end);
        }
    }
    out
}

/// Encodes a `Load` frame payload straight from a borrowed matrix —
/// what the coordinator ships at registration. Identical bytes to
/// `encode(&Message::Load(data.clone()))` without cloning the matrix
/// just to build the owning enum.
pub fn encode_load(data: &TimeSeriesMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + 8 * data.n_series() * data.len());
    write_load(&mut out, data);
    out
}

fn write_load(out: &mut Vec<u8>, data: &TimeSeriesMatrix) {
    out.put_u8(TAG_LOAD);
    put_matrix(out, data);
}

/// Decodes a frame payload.
///
/// Rejects (with `Err`, never a panic) oversized payloads, unknown tags
/// and worker modes, truncated bodies, counts inconsistent with the bytes
/// actually present, and trailing bytes after the message.
pub fn decode(payload: &[u8]) -> Result<Message, String> {
    if payload.len() > MAX_FRAME {
        return Err(format!(
            "payload of {} bytes exceeds the {MAX_FRAME}-byte frame limit",
            payload.len()
        ));
    }
    let mut buf = payload;
    let tag = take_u8(&mut buf, "tag")?;
    let msg = match tag {
        TAG_ASSIGN => {
            let mode = match take_u8(&mut buf, "mode")? {
                0 => WorkerMode::Batch,
                1 => WorkerMode::StreamingReplay {
                    initial_cols: take_u64(&mut buf, "initial_cols")? as usize,
                    chunk_cols: take_u64(&mut buf, "chunk_cols")? as usize,
                },
                m => return Err(format!("unknown worker mode {m}")),
            };
            let shard_id = take_u64(&mut buf, "shard_id")?;
            let start = take_u64(&mut buf, "rank_start")? as usize;
            let end = take_u64(&mut buf, "rank_end")? as usize;
            let config = decode_config(&mut buf)?;
            let query = SlidingQuery {
                start: take_u64(&mut buf, "query.start")? as usize,
                end: take_u64(&mut buf, "query.end")? as usize,
                window: take_u64(&mut buf, "query.window")? as usize,
                step: take_u64(&mut buf, "query.step")? as usize,
                threshold: take_f64(&mut buf, "query.threshold")?,
            };
            Message::Assign(Assignment {
                shard_id,
                ranks: start..end,
                mode,
                config,
                query,
            })
        }
        TAG_LOAD => Message::Load(take_matrix(&mut buf)?),
        TAG_HELLO => Message::Hello(Hello {
            version: take_u32(&mut buf, "version")?,
        }),
        TAG_RESULT => {
            let shard_id = take_u64(&mut buf, "shard_id")?;
            let start = take_u64(&mut buf, "rank_start")? as usize;
            let end = take_u64(&mut buf, "rank_end")? as usize;
            let prepare_s = take_f64(&mut buf, "prepare_s")?;
            let query_s = take_f64(&mut buf, "query_s")?;
            let stats = decode_stats(&mut buf)?;
            let edges = take_window_edges(&mut buf)?;
            Message::Result(ShardResult {
                shard_id,
                ranks: start..end,
                prepare_s,
                query_s,
                stats,
                edges,
            })
        }
        TAG_ERROR => {
            let shard_id = take_u64(&mut buf, "shard_id")?;
            let len = take_u64(&mut buf, "error length")? as usize;
            need(&buf, len, "error text")?;
            let text = String::from_utf8_lossy(&buf.chunk()[..len]).into_owned();
            buf.advance(len);
            Message::Error(shard_id, text)
        }
        TAG_PING => Message::Ping(take_u64(&mut buf, "ping seq")?),
        TAG_PONG => Message::Pong(take_u64(&mut buf, "pong seq")?),
        TAG_PROGRESS => Message::Progress {
            assignment_id: take_u64(&mut buf, "progress id")?,
            frontier: take_u64(&mut buf, "frontier")?,
        },
        TAG_STEAL => Message::Steal {
            assignment_id: take_u64(&mut buf, "steal id")?,
        },
        TAG_STEAL_GRANT => Message::StealGrant {
            assignment_id: take_u64(&mut buf, "grant id")?,
            new_end: take_u64(&mut buf, "new_end")?,
        },
        t => return Err(format!("unknown message tag {t}")),
    };
    if !buf.is_empty() {
        return Err(format!(
            "{} trailing bytes after a well-formed message",
            buf.len()
        ));
    }
    Ok(msg)
}

pub fn encode_config(out: &mut Vec<u8>, c: &DangoronConfig) {
    out.put_u64_le(c.basic_window as u64);
    match c.bound {
        BoundMode::Exhaustive => {
            out.put_u8(0);
            out.put_f64_le(0.0);
        }
        BoundMode::PaperJump { slack } => {
            out.put_u8(1);
            out.put_f64_le(slack);
        }
    }
    out.put_u8(match c.storage {
        PairStorage::Precomputed => 0,
        PairStorage::OnDemand => 1,
    });
    match &c.horizontal {
        None => out.put_u8(0),
        Some(h) => {
            out.put_u8(1);
            out.put_u64_le(h.n_pivots as u64);
            match &h.strategy {
                PivotStrategy::Evenly => {
                    out.put_u8(0);
                }
                PivotStrategy::Random { seed } => {
                    out.put_u8(1);
                    out.put_u64_le(*seed);
                }
                PivotStrategy::Explicit(list) => {
                    out.put_u8(2);
                    out.put_u64_le(list.len() as u64);
                    for &p in list {
                        out.put_u64_le(p as u64);
                    }
                }
            }
        }
    }
    out.put_u64_le(c.threads as u64);
    out.put_u8(match c.edge_rule {
        EdgeRule::Positive => 0,
        EdgeRule::Absolute => 1,
    });
}

pub fn decode_config(buf: &mut &[u8]) -> Result<DangoronConfig, String> {
    let basic_window = take_u64(buf, "basic_window")? as usize;
    let bound_tag = take_u8(buf, "bound")?;
    let slack = take_f64(buf, "slack")?;
    let bound = match bound_tag {
        0 => BoundMode::Exhaustive,
        1 => BoundMode::PaperJump { slack },
        t => return Err(format!("unknown bound mode {t}")),
    };
    let storage = match take_u8(buf, "storage")? {
        0 => PairStorage::Precomputed,
        1 => PairStorage::OnDemand,
        t => return Err(format!("unknown storage mode {t}")),
    };
    let horizontal = match take_u8(buf, "horizontal flag")? {
        0 => None,
        1 => {
            let n_pivots = take_u64(buf, "n_pivots")? as usize;
            let strategy = match take_u8(buf, "pivot strategy")? {
                0 => PivotStrategy::Evenly,
                1 => PivotStrategy::Random {
                    seed: take_u64(buf, "pivot seed")?,
                },
                2 => {
                    let len = take_u64(buf, "pivot list length")? as usize;
                    let list = take_u64s(buf, len, "pivot list")?;
                    PivotStrategy::Explicit(list.into_iter().map(|p| p as usize).collect())
                }
                t => return Err(format!("unknown pivot strategy {t}")),
            };
            Some(HorizontalConfig { n_pivots, strategy })
        }
        t => return Err(format!("bad horizontal flag {t}")),
    };
    let threads = take_u64(buf, "threads")? as usize;
    let edge_rule = match take_u8(buf, "edge rule")? {
        0 => EdgeRule::Positive,
        1 => EdgeRule::Absolute,
        t => return Err(format!("unknown edge rule {t}")),
    };
    Ok(DangoronConfig {
        basic_window,
        bound,
        storage,
        horizontal,
        threads,
        edge_rule,
    })
}

fn encode_stats(out: &mut Vec<u8>, s: &PruningStats) {
    out.put_u64_le(s.n_pairs);
    out.put_u64_le(s.total_cells);
    out.put_u64_le(s.evaluated);
    out.put_u64_le(s.skipped_by_jump);
    out.put_u64_le(s.pruned_by_triangle);
    out.put_u64_le(s.pairs_skipped_entirely);
    out.put_u64_le(s.jumps);
    out.put_u64_le(s.edges);
    out.put_u64_le(s.jump_length_hist.len() as u64);
    for &b in &s.jump_length_hist {
        out.put_u64_le(b);
    }
}

fn decode_stats(buf: &mut &[u8]) -> Result<PruningStats, String> {
    let mut s = PruningStats {
        n_pairs: take_u64(buf, "n_pairs")?,
        total_cells: take_u64(buf, "total_cells")?,
        evaluated: take_u64(buf, "evaluated")?,
        skipped_by_jump: take_u64(buf, "skipped_by_jump")?,
        pruned_by_triangle: take_u64(buf, "pruned_by_triangle")?,
        pairs_skipped_entirely: take_u64(buf, "pairs_skipped_entirely")?,
        jumps: take_u64(buf, "jumps")?,
        edges: take_u64(buf, "edges")?,
        ..Default::default()
    };
    let hist_len = take_u64(buf, "hist length")? as usize;
    s.jump_length_hist = take_u64s(buf, hist_len, "hist")?;
    Ok(s)
}

pub fn need(buf: &&[u8], n: usize, what: &str) -> Result<(), String> {
    if buf.remaining() < n {
        Err(format!(
            "truncated frame: need {n} bytes for {what}, have {}",
            buf.remaining()
        ))
    } else {
        Ok(())
    }
}

pub fn take_u8(buf: &mut &[u8], what: &str) -> Result<u8, String> {
    need(buf, 1, what)?;
    Ok(buf.get_u8())
}

pub fn take_u32(buf: &mut &[u8], what: &str) -> Result<u32, String> {
    need(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

pub fn take_u64(buf: &mut &[u8], what: &str) -> Result<u64, String> {
    need(buf, 8, what)?;
    Ok(buf.get_u64_le())
}

pub fn take_f64(buf: &mut &[u8], what: &str) -> Result<f64, String> {
    need(buf, 8, what)?;
    Ok(buf.get_f64_le())
}

/// Reads `count` LE `u64`s, validating the count against the bytes
/// actually present **before** allocating — a hostile length field can
/// never size an allocation larger than the received payload.
pub fn take_u64s(buf: &mut &[u8], count: usize, what: &str) -> Result<Vec<u64>, String> {
    need(
        buf,
        count.checked_mul(8).ok_or("element count overflow")?,
        what,
    )?;
    Ok((0..count).map(|_| buf.get_u64_le()).collect())
}

/// [`take_u64s`] for `f64` bit patterns.
pub fn take_f64s(buf: &mut &[u8], count: usize, what: &str) -> Result<Vec<f64>, String> {
    need(
        buf,
        count.checked_mul(8).ok_or("element count overflow")?,
        what,
    )?;
    Ok((0..count).map(|_| buf.get_f64_le()).collect())
}

/// Writes a matrix: its series and column counts as `u64`s, then its
/// row-major cells as `f64`s — the `Load` body, and the serving tier's
/// `Open`/`Append` payload.
pub fn put_matrix(out: &mut Vec<u8>, data: &TimeSeriesMatrix) {
    out.put_u64_le(data.n_series() as u64);
    out.put_u64_le(data.len() as u64);
    for v in data.as_slice() {
        out.put_f64_le(*v);
    }
}

/// Reads a matrix written by [`put_matrix`]; the cell count is checked
/// against the bytes present before it sizes an allocation.
pub fn take_matrix(buf: &mut &[u8]) -> Result<TimeSeriesMatrix, String> {
    let n = take_u64(buf, "n_series")? as usize;
    let cols = take_u64(buf, "n_cols")? as usize;
    let cells = n
        .checked_mul(cols)
        .ok_or_else(|| "matrix dimensions overflow".to_string())?;
    let data = take_f64s(buf, cells, "matrix")?;
    TimeSeriesMatrix::from_flat(n, cols, data).map_err(|e| format!("bad matrix: {e:?}"))
}

/// Writes a `(window, edge)` list: a `u64` count, then 20 bytes per edge —
/// window, `i` and `j` as `u32`s, the value as `f64`. The shard `Result`
/// body and the serving tier's `QueryResult` payload.
pub fn put_window_edges(out: &mut Vec<u8>, edges: &[(u32, Edge)]) {
    out.put_u64_le(edges.len() as u64);
    for (w, e) in edges {
        out.put_u32_le(*w);
        out.put_u32_le(e.i);
        out.put_u32_le(e.j);
        out.put_f64_le(e.value);
    }
}

/// Reads a list written by [`put_window_edges`]. The count is checked
/// against the bytes present before it sizes an allocation, and every
/// edge must lie above the diagonal (`i < j`) in strictly ascending
/// `(window, i, j)` order — the order the merge and its callers rely on.
pub fn take_window_edges(buf: &mut &[u8]) -> Result<Vec<(u32, Edge)>, String> {
    let n_edges = take_u64(buf, "n_edges")? as usize;
    need(
        buf,
        n_edges.checked_mul(20).ok_or("edge bytes overflow")?,
        "edges",
    )?;
    let mut edges: Vec<(u32, Edge)> = Vec::with_capacity(n_edges);
    for k in 0..n_edges {
        let w = buf.get_u32_le();
        let i = buf.get_u32_le();
        let j = buf.get_u32_le();
        let value = buf.get_f64_le();
        if i >= j {
            return Err(format!("edge {k} ({i}, {j}) is not above the diagonal"));
        }
        if edges
            .last()
            .is_some_and(|(pw, p)| (*pw, p.i, p.j) >= (w, i, j))
        {
            return Err(format!("edge {k} breaks the (window, i, j) order"));
        }
        edges.push((w, Edge { i, j, value }));
    }
    Ok(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::generators;

    fn sample_assignment() -> Assignment {
        Assignment {
            shard_id: 3,
            ranks: 10..25,
            mode: WorkerMode::StreamingReplay {
                initial_cols: 100,
                chunk_cols: 40,
            },
            config: DangoronConfig {
                basic_window: 20,
                bound: BoundMode::PaperJump { slack: 0.125 },
                storage: PairStorage::OnDemand,
                horizontal: Some(HorizontalConfig {
                    n_pivots: 3,
                    strategy: PivotStrategy::Explicit(vec![0, 4, 7]),
                }),
                threads: 2,
                edge_rule: EdgeRule::Absolute,
            },
            query: SlidingQuery {
                start: 0,
                end: 200,
                window: 60,
                step: 20,
                threshold: 0.75,
            },
        }
    }

    #[test]
    fn assign_roundtrips() {
        let a = sample_assignment();
        let payload = encode(&Message::Assign(a.clone()));
        match decode(&payload).unwrap() {
            Message::Assign(b) => {
                assert_eq!(b.shard_id, a.shard_id);
                assert_eq!(b.ranks, a.ranks);
                assert_eq!(b.mode, a.mode);
                assert_eq!(b.config, a.config);
                assert_eq!(b.query, a.query);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn load_roundtrips_bitwise() {
        let data = generators::clustered_matrix(8, 200, 2, 0.5, 3).unwrap();
        let payload = encode(&Message::Load(data.clone()));
        assert_eq!(
            payload,
            encode_load(&data),
            "borrowed and owned Load encodings must be byte-identical"
        );
        match decode(&payload).unwrap() {
            Message::Load(b) => {
                assert_eq!(b.n_series(), data.n_series());
                assert_eq!(b.len(), data.len());
                assert_eq!(
                    b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    data.as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                );
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn hello_roundtrips_and_fits_the_handshake_limit() {
        let h = Hello::local();
        let payload = encode(&Message::Hello(h));
        assert!(payload.len() <= MAX_HELLO_FRAME);
        match decode(&payload).unwrap() {
            Message::Hello(b) => {
                assert_eq!(b, h);
                assert_eq!(b.version, PROTOCOL_VERSION);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn result_roundtrips_bitwise() {
        let mut stats = PruningStats::default();
        stats.record_jump(5);
        stats.n_pairs = 15;
        stats.evaluated = 40;
        let r = ShardResult {
            shard_id: 7,
            ranks: 0..15,
            prepare_s: 0.25,
            query_s: 1.5,
            stats: stats.clone(),
            edges: vec![
                (
                    0,
                    Edge {
                        i: 1,
                        j: 2,
                        value: 0.9876543210123,
                    },
                ),
                (
                    3,
                    Edge {
                        i: 0,
                        j: 5,
                        value: -0.25,
                    },
                ),
            ],
        };
        let payload = encode(&Message::Result(r.clone()));
        match decode(&payload).unwrap() {
            Message::Result(b) => {
                assert_eq!(b.shard_id, 7);
                assert_eq!(b.ranks, 0..15);
                assert_eq!(b.stats, stats);
                assert_eq!(b.edges.len(), 2);
                for ((wa, ea), (wb, eb)) in r.edges.iter().zip(&b.edges) {
                    assert_eq!(wa, wb);
                    assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                    assert_eq!(ea.value.to_bits(), eb.value.to_bits());
                }
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn error_roundtrips() {
        let payload = encode(&Message::Error(9, "shard exploded".into()));
        match decode(&payload).unwrap() {
            Message::Error(id, t) => {
                assert_eq!(id, 9);
                assert_eq!(t, "shard exploded");
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn elastic_frames_roundtrip() {
        let frames = [
            Message::Ping(42),
            Message::Pong(42),
            Message::Progress {
                assignment_id: 7,
                frontier: 123_456,
            },
            Message::Steal { assignment_id: 7 },
            Message::StealGrant {
                assignment_id: 7,
                new_end: 99,
            },
        ];
        for msg in frames {
            let payload = encode(&msg);
            // All elastic frames are tiny control frames.
            assert!(payload.len() <= 17, "{msg:?}: {} bytes", payload.len());
            match (decode(&payload).unwrap(), &msg) {
                (Message::Ping(a), Message::Ping(b)) => assert_eq!(a, *b),
                (Message::Pong(a), Message::Pong(b)) => assert_eq!(a, *b),
                (
                    Message::Progress {
                        assignment_id: a,
                        frontier: f,
                    },
                    Message::Progress {
                        assignment_id: b,
                        frontier: g,
                    },
                ) => assert_eq!((a, f), (*b, *g)),
                (Message::Steal { assignment_id: a }, Message::Steal { assignment_id: b }) => {
                    assert_eq!(a, *b)
                }
                (
                    Message::StealGrant {
                        assignment_id: a,
                        new_end: e,
                    },
                    Message::StealGrant {
                        assignment_id: b,
                        new_end: f,
                    },
                ) => assert_eq!((a, e), (*b, *f)),
                (got, want) => panic!("{want:?} decoded as {got:?}"),
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked() {
        let full = encode(&Message::Assign(sample_assignment()));
        // Every strict prefix must decode to Err, never panic.
        for cut in [0usize, 1, 2, 9, 17, 40, full.len() - 1] {
            assert!(decode(&full[..cut]).is_err(), "cut={cut}");
        }
        assert!(decode(&[99]).is_err(), "unknown tag");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in [
            Message::Hello(Hello::local()),
            Message::Error(1, "x".into()),
            Message::Assign(sample_assignment()),
        ] {
            let mut payload = encode(&msg);
            payload.push(0);
            assert!(decode(&payload).is_err(), "{msg:?} accepted trailing byte");
        }
    }

    #[test]
    fn hostile_counts_never_size_allocations() {
        // A Load frame declaring a 2^60-cell matrix but carrying no cells:
        // must fail on the length check, not on an allocation.
        let mut payload = Vec::new();
        payload.put_u8(5); // TAG_LOAD
        payload.put_u64_le(1 << 30);
        payload.put_u64_le(1 << 30);
        assert!(decode(&payload).is_err());
        // Same for a Result frame with a hostile edge count.
        let mut payload = encode(&Message::Result(ShardResult {
            shard_id: 0,
            ranks: 0..1,
            prepare_s: 0.0,
            query_s: 0.0,
            stats: PruningStats::default(),
            edges: vec![],
        }));
        let at = payload.len() - 8; // the trailing n_edges field
        payload[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&payload).is_err());
        // Result edges on or below the diagonal, or out of `(window, i, j)`
        // order, are rejected: the merge relies on that order.
        let e = |w: u32, i: u32, j: u32| (w, Edge { i, j, value: 0.9 });
        let result = |edges: Vec<(u32, Edge)>| {
            encode(&Message::Result(ShardResult {
                shard_id: 0,
                ranks: 0..10,
                prepare_s: 0.0,
                query_s: 0.0,
                stats: PruningStats::default(),
                edges,
            }))
        };
        assert!(decode(&result(vec![e(0, 0, 1), e(2, 0, 1), e(2, 1, 4)])).is_ok());
        for (why, edges) in [
            ("diagonal", vec![e(0, 2, 2)]),
            ("lower triangle", vec![e(1, 3, 1)]),
            ("duplicate", vec![e(1, 0, 1), e(1, 0, 1)]),
            ("windows descend", vec![e(2, 0, 1), e(1, 0, 2)]),
            ("pairs descend", vec![e(1, 0, 2), e(1, 0, 1)]),
        ] {
            assert!(decode(&result(edges)).is_err(), "{why}");
        }
    }
}
