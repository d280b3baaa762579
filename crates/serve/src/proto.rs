//! The serving tier's session frames: tags 11+.
//!
//! Serve frames ride the same length-prefixed `bytes::frame` transport as
//! the shard protocol and reuse its handshake (`Hello`, tag 4), its
//! heartbeats (`Ping`/`Pong`, tags 6–7), and its decode-hardening helpers
//! (`dist::proto::take_*`). `dangoron-serve` admits a client whose
//! `Hello` passes [`dist::proto::check_hello`]; coordinators simply never
//! see these tags.
//!
//! | tag | message       | direction       | body |
//! |-----|---------------|-----------------|------|
//! | 11  | `Open`        | client → daemon | session name, `(window, step, threshold)`, engine config, the initial history matrix |
//! | 12  | `Opened`      | daemon → client | echoed name, columns covered by the sketches, resident bytes |
//! | 13  | `Append`      | client → daemon | session name, the new columns |
//! | 14  | `Appended`    | daemon → client | echoed name, covered columns, windows closed by this append, resident bytes — the ack **is** the backpressure: a client that waits for it can never run ahead of the daemon's memory budget |
//! | 15  | `Query`       | client → daemon | query id, session name, ad-hoc `(window, step, threshold)` |
//! | 16  | `QueryResult` | daemon → client | echoed id, the covered-column prefix the answer is exact for, window count, `(window, edge)` list strictly ascending by `(window, i, j)`, every window below the count and every `i < j` (decode rejects anything else) |
//! | 17  | `Subscribe`   | client → daemon | subscription id, session name |
//! | 18  | `Subscribed`  | daemon → client | echoed id, the first global window index the subscription will deliver (back-fill `0..next_window` with a `Query`) |
//! | 19  | `Delta`       | daemon → client | subscription id, one closed window's index and its edge list strictly ascending by `(i, j)` with every `i < j` (decode rejects anything else) — never a whole matrix re-emit |
//! | 20  | `Evict`       | client → daemon | session name |
//! | 21  | `Evicted`     | daemon → client | echoed name, whether it existed |
//! | 22  | `ServeError`  | daemon → client | the query/subscription id it answers (0 = the link itself), UTF-8 message |
//!
//! Decoding is defensive to the same standard as the shard protocol:
//! every count and length is validated against the bytes actually present
//! before any allocation it sizes, unknown tags and truncated bodies are
//! `Err` (never a panic), and trailing bytes are rejected.

use bytes::{Buf, BufMut};
use dangoron::DangoronConfig;
use dist::proto::{self, Hello, Message};
use sketch::output::Edge;
use tsdata::TimeSeriesMatrix;

pub use dist::proto::{MAX_FRAME, MAX_HELLO_FRAME};

/// Longest session name accepted on the wire — names are map keys, not
/// payloads.
pub const MAX_NAME: usize = 128;

/// Longest `ServeError` text accepted on the wire.
pub const MAX_ERROR_TEXT: usize = 1 << 16;

const TAG_OPEN: u8 = 11;
const TAG_OPENED: u8 = 12;
const TAG_APPEND: u8 = 13;
const TAG_APPENDED: u8 = 14;
const TAG_QUERY: u8 = 15;
const TAG_QUERY_RESULT: u8 = 16;
const TAG_SUBSCRIBE: u8 = 17;
const TAG_SUBSCRIBED: u8 = 18;
const TAG_DELTA: u8 = 19;
const TAG_EVICT: u8 = 20;
const TAG_EVICTED: u8 = 21;
const TAG_SERVE_ERROR: u8 = 22;

/// A serving-tier protocol message.
#[derive(Debug, Clone)]
pub enum ServeMessage {
    /// The link handshake, shared with the shard protocol (tag 4).
    Hello(Hello),
    /// Liveness probe, shared with the shard protocol (tag 6).
    Ping(u64),
    /// Probe echo, shared with the shard protocol (tag 7).
    Pong(u64),
    /// Client → daemon: open a named resident session.
    Open {
        /// Session name (the registry key).
        name: String,
        /// Session window length (columns).
        window: usize,
        /// Session step (columns).
        step: usize,
        /// Session threshold β.
        threshold: f64,
        /// Engine configuration.
        config: DangoronConfig,
        /// The initial history.
        data: TimeSeriesMatrix,
    },
    /// Daemon → client: the session is resident.
    Opened {
        /// Echoed session name.
        name: String,
        /// Columns the resident sketches cover.
        covered_cols: u64,
        /// Resident bytes charged against the memory budget.
        memory_bytes: u64,
    },
    /// Client → daemon: append columns to a named session.
    Append {
        /// Session name.
        name: String,
        /// The new columns.
        data: TimeSeriesMatrix,
    },
    /// Daemon → client: the append is absorbed (the backpressure ack).
    Appended {
        /// Echoed session name.
        name: String,
        /// Columns the resident sketches now cover.
        covered_cols: u64,
        /// Windows this append closed (each also pushed as a `Delta` to
        /// every subscriber).
        windows_closed: u64,
        /// Resident bytes after the append.
        memory_bytes: u64,
    },
    /// Client → daemon: an ad-hoc query against the resident sketches.
    Query {
        /// Client-chosen id echoed in the answer.
        id: u64,
        /// Session name.
        name: String,
        /// Query window (columns).
        window: usize,
        /// Query step (columns).
        step: usize,
        /// Query threshold β.
        threshold: f64,
    },
    /// Daemon → client: a query answer.
    QueryResult {
        /// Echoed query id.
        id: u64,
        /// The column prefix the answer is exact for — verify against a
        /// one-shot run over exactly these columns.
        covered_cols: u64,
        /// Windows in the answer.
        n_windows: u64,
        /// `(window, edge)` pairs, strictly ascending by `(window, i, j)`,
        /// with `window < n_windows` and `i < j` (checked by [`decode`]).
        edges: Vec<(u32, Edge)>,
    },
    /// Client → daemon: push every subsequently closed window's edges.
    Subscribe {
        /// Client-chosen subscription id echoed in every `Delta`.
        id: u64,
        /// Session name.
        name: String,
    },
    /// Daemon → client: the subscription is live.
    Subscribed {
        /// Echoed subscription id.
        id: u64,
        /// First global window index the subscription will deliver;
        /// back-fill `0..next_window` with a `Query`.
        next_window: u64,
    },
    /// Daemon → client: one closed window, as an edge delta.
    Delta {
        /// The subscription this delta belongs to.
        id: u64,
        /// Global window index.
        window: u64,
        /// The window's thresholded edges.
        edges: Vec<Edge>,
    },
    /// Client → daemon: drop a named session.
    Evict {
        /// Session name.
        name: String,
    },
    /// Daemon → client: eviction outcome.
    Evicted {
        /// Echoed session name.
        name: String,
        /// Whether a session by that name was resident.
        existed: bool,
    },
    /// Daemon → client: a structured failure.
    ServeError {
        /// The query/subscription id being answered; 0 when the error is
        /// about the link or a name-addressed frame.
        context: u64,
        /// Human-readable cause.
        message: String,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u64_le(s.len() as u64);
    out.put_slice(s.as_bytes());
}

fn take_str(buf: &mut &[u8], cap: usize, what: &str) -> Result<String, String> {
    let len = proto::take_u64(buf, what)? as usize;
    if len > cap {
        return Err(format!("{what} of {len} bytes exceeds the {cap}-byte cap"));
    }
    proto::need(buf, len, what)?;
    let s = String::from_utf8(buf.chunk()[..len].to_vec())
        .map_err(|_| format!("{what} is not UTF-8"))?;
    buf.advance(len);
    Ok(s)
}

/// Encodes a serve message into a frame payload (no length prefix).
/// `Hello`/`Ping`/`Pong` delegate to the shard protocol so the bytes are
/// identical on both protocols.
pub fn encode(msg: &ServeMessage) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ServeMessage::Hello(h) => return proto::encode(&Message::Hello(*h)),
        ServeMessage::Ping(seq) => return proto::encode(&Message::Ping(*seq)),
        ServeMessage::Pong(seq) => return proto::encode(&Message::Pong(*seq)),
        ServeMessage::Open {
            name,
            window,
            step,
            threshold,
            config,
            data,
        } => {
            out.put_u8(TAG_OPEN);
            put_str(&mut out, name);
            out.put_u64_le(*window as u64);
            out.put_u64_le(*step as u64);
            out.put_f64_le(*threshold);
            proto::encode_config(&mut out, config);
            proto::put_matrix(&mut out, data);
        }
        ServeMessage::Opened {
            name,
            covered_cols,
            memory_bytes,
        } => {
            out.put_u8(TAG_OPENED);
            put_str(&mut out, name);
            out.put_u64_le(*covered_cols);
            out.put_u64_le(*memory_bytes);
        }
        ServeMessage::Append { name, data } => {
            out.put_u8(TAG_APPEND);
            put_str(&mut out, name);
            proto::put_matrix(&mut out, data);
        }
        ServeMessage::Appended {
            name,
            covered_cols,
            windows_closed,
            memory_bytes,
        } => {
            out.put_u8(TAG_APPENDED);
            put_str(&mut out, name);
            out.put_u64_le(*covered_cols);
            out.put_u64_le(*windows_closed);
            out.put_u64_le(*memory_bytes);
        }
        ServeMessage::Query {
            id,
            name,
            window,
            step,
            threshold,
        } => {
            out.put_u8(TAG_QUERY);
            out.put_u64_le(*id);
            put_str(&mut out, name);
            out.put_u64_le(*window as u64);
            out.put_u64_le(*step as u64);
            out.put_f64_le(*threshold);
        }
        ServeMessage::QueryResult {
            id,
            covered_cols,
            n_windows,
            edges,
        } => {
            out.put_u8(TAG_QUERY_RESULT);
            out.put_u64_le(*id);
            out.put_u64_le(*covered_cols);
            out.put_u64_le(*n_windows);
            proto::put_window_edges(&mut out, edges);
        }
        ServeMessage::Subscribe { id, name } => {
            out.put_u8(TAG_SUBSCRIBE);
            out.put_u64_le(*id);
            put_str(&mut out, name);
        }
        ServeMessage::Subscribed { id, next_window } => {
            out.put_u8(TAG_SUBSCRIBED);
            out.put_u64_le(*id);
            out.put_u64_le(*next_window);
        }
        ServeMessage::Delta { id, window, edges } => {
            out.put_u8(TAG_DELTA);
            out.put_u64_le(*id);
            out.put_u64_le(*window);
            out.put_u64_le(edges.len() as u64);
            for e in edges {
                out.put_u32_le(e.i);
                out.put_u32_le(e.j);
                out.put_f64_le(e.value);
            }
        }
        ServeMessage::Evict { name } => {
            out.put_u8(TAG_EVICT);
            put_str(&mut out, name);
        }
        ServeMessage::Evicted { name, existed } => {
            out.put_u8(TAG_EVICTED);
            put_str(&mut out, name);
            out.put_u8(u8::from(*existed));
        }
        ServeMessage::ServeError { context, message } => {
            out.put_u8(TAG_SERVE_ERROR);
            out.put_u64_le(*context);
            put_str(&mut out, message);
        }
    }
    out
}

/// Decodes a frame payload into a serve message.
///
/// Tags ≤ 10 are delegated to [`dist::proto::decode`]; of those, only the
/// shared frames (`Hello`/`Ping`/`Pong`) are legal on a serve link — a
/// shard frame such as `Assign` decodes but is rejected here.
pub fn decode(payload: &[u8]) -> Result<ServeMessage, String> {
    if payload.len() > MAX_FRAME {
        return Err(format!(
            "payload of {} bytes exceeds the {MAX_FRAME}-byte frame limit",
            payload.len()
        ));
    }
    let mut buf = payload;
    let tag = proto::take_u8(&mut buf, "tag")?;
    if tag <= 10 {
        return match proto::decode(payload)? {
            Message::Hello(h) => Ok(ServeMessage::Hello(h)),
            Message::Ping(seq) => Ok(ServeMessage::Ping(seq)),
            Message::Pong(seq) => Ok(ServeMessage::Pong(seq)),
            _ => Err(format!("tag {tag} is a shard frame, not a serve frame")),
        };
    }
    let msg = match tag {
        TAG_OPEN => {
            let name = take_str(&mut buf, MAX_NAME, "session name")?;
            let window = proto::take_u64(&mut buf, "window")? as usize;
            let step = proto::take_u64(&mut buf, "step")? as usize;
            let threshold = proto::take_f64(&mut buf, "threshold")?;
            let config = proto::decode_config(&mut buf)?;
            let data = proto::take_matrix(&mut buf)?;
            ServeMessage::Open {
                name,
                window,
                step,
                threshold,
                config,
                data,
            }
        }
        TAG_OPENED => ServeMessage::Opened {
            name: take_str(&mut buf, MAX_NAME, "session name")?,
            covered_cols: proto::take_u64(&mut buf, "covered_cols")?,
            memory_bytes: proto::take_u64(&mut buf, "memory_bytes")?,
        },
        TAG_APPEND => ServeMessage::Append {
            name: take_str(&mut buf, MAX_NAME, "session name")?,
            data: proto::take_matrix(&mut buf)?,
        },
        TAG_APPENDED => ServeMessage::Appended {
            name: take_str(&mut buf, MAX_NAME, "session name")?,
            covered_cols: proto::take_u64(&mut buf, "covered_cols")?,
            windows_closed: proto::take_u64(&mut buf, "windows_closed")?,
            memory_bytes: proto::take_u64(&mut buf, "memory_bytes")?,
        },
        TAG_QUERY => ServeMessage::Query {
            id: proto::take_u64(&mut buf, "query id")?,
            name: take_str(&mut buf, MAX_NAME, "session name")?,
            window: proto::take_u64(&mut buf, "window")? as usize,
            step: proto::take_u64(&mut buf, "step")? as usize,
            threshold: proto::take_f64(&mut buf, "threshold")?,
        },
        TAG_QUERY_RESULT => {
            let id = proto::take_u64(&mut buf, "query id")?;
            let covered_cols = proto::take_u64(&mut buf, "covered_cols")?;
            let n_windows = proto::take_u64(&mut buf, "n_windows")?;
            let edges = proto::take_window_edges(&mut buf)?;
            // Windows ascend, so the last edge carries the largest one.
            if let Some((w, _)) = edges.last().filter(|(w, _)| u64::from(*w) >= n_windows) {
                return Err(format!("edge in window {w} of {n_windows}"));
            }
            ServeMessage::QueryResult {
                id,
                covered_cols,
                n_windows,
                edges,
            }
        }
        TAG_SUBSCRIBE => ServeMessage::Subscribe {
            id: proto::take_u64(&mut buf, "subscription id")?,
            name: take_str(&mut buf, MAX_NAME, "session name")?,
        },
        TAG_SUBSCRIBED => ServeMessage::Subscribed {
            id: proto::take_u64(&mut buf, "subscription id")?,
            next_window: proto::take_u64(&mut buf, "next_window")?,
        },
        TAG_DELTA => {
            let id = proto::take_u64(&mut buf, "subscription id")?;
            let window = proto::take_u64(&mut buf, "window index")?;
            let n_edges = proto::take_u64(&mut buf, "n_edges")? as usize;
            proto::need(
                &buf,
                n_edges.checked_mul(16).ok_or("edge bytes overflow")?,
                "edges",
            )?;
            let mut edges: Vec<Edge> = Vec::with_capacity(n_edges);
            for k in 0..n_edges {
                let i = buf.get_u32_le();
                let j = buf.get_u32_le();
                let value = buf.get_f64_le();
                if i >= j {
                    return Err(format!("edge {k} ({i}, {j}) is not above the diagonal"));
                }
                if edges.last().is_some_and(|p| (p.i, p.j) >= (i, j)) {
                    return Err(format!("edge {k} breaks the (i, j) order"));
                }
                edges.push(Edge { i, j, value });
            }
            ServeMessage::Delta { id, window, edges }
        }
        TAG_EVICT => ServeMessage::Evict {
            name: take_str(&mut buf, MAX_NAME, "session name")?,
        },
        TAG_EVICTED => ServeMessage::Evicted {
            name: take_str(&mut buf, MAX_NAME, "session name")?,
            existed: proto::take_u8(&mut buf, "existed flag")? != 0,
        },
        TAG_SERVE_ERROR => ServeMessage::ServeError {
            context: proto::take_u64(&mut buf, "error context")?,
            message: take_str(&mut buf, MAX_ERROR_TEXT, "error text")?,
        },
        t => return Err(format!("unknown serve message tag {t}")),
    };
    if !buf.is_empty() {
        return Err(format!(
            "{} trailing bytes after a well-formed serve message",
            buf.len()
        ));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::frame;
    use sketch::output::EdgeRule;
    use tsdata::generators;

    fn sample_edges() -> Vec<(u32, Edge)> {
        vec![
            (
                0,
                Edge {
                    i: 0,
                    j: 3,
                    value: 0.912345678901,
                },
            ),
            (
                2,
                Edge {
                    i: 1,
                    j: 2,
                    value: -0.5,
                },
            ),
        ]
    }

    #[test]
    fn open_roundtrips_bitwise() {
        let data = generators::clustered_matrix(6, 120, 2, 0.5, 11).unwrap();
        let config = DangoronConfig {
            basic_window: 20,
            edge_rule: EdgeRule::Absolute,
            ..Default::default()
        };
        let msg = ServeMessage::Open {
            name: "climate".into(),
            window: 60,
            step: 20,
            threshold: 0.75,
            config: config.clone(),
            data: data.clone(),
        };
        match decode(&encode(&msg)).unwrap() {
            ServeMessage::Open {
                name,
                window,
                step,
                threshold,
                config: c,
                data: d,
            } => {
                assert_eq!(name, "climate");
                assert_eq!((window, step), (60, 20));
                assert_eq!(threshold.to_bits(), 0.75f64.to_bits());
                assert_eq!(c, config);
                assert_eq!(
                    d.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    data.as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                );
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn replies_and_control_frames_roundtrip() {
        let msgs = [
            ServeMessage::Opened {
                name: "s".into(),
                covered_cols: 200,
                memory_bytes: 4096,
            },
            ServeMessage::Appended {
                name: "s".into(),
                covered_cols: 240,
                windows_closed: 2,
                memory_bytes: 5000,
            },
            ServeMessage::Query {
                id: 7,
                name: "s".into(),
                window: 60,
                step: 20,
                threshold: 0.7,
            },
            ServeMessage::Subscribe {
                id: 9,
                name: "s".into(),
            },
            ServeMessage::Subscribed {
                id: 9,
                next_window: 4,
            },
            ServeMessage::Evict { name: "s".into() },
            ServeMessage::Evicted {
                name: "s".into(),
                existed: true,
            },
            ServeMessage::ServeError {
                context: 7,
                message: "no such session".into(),
            },
        ];
        for msg in msgs {
            let reencoded = encode(&decode(&encode(&msg)).unwrap());
            assert_eq!(encode(&msg), reencoded, "{msg:?} roundtrip changed bytes");
        }
    }

    #[test]
    fn query_result_and_delta_roundtrip_bitwise() {
        let msg = ServeMessage::QueryResult {
            id: 3,
            covered_cols: 400,
            n_windows: 17,
            edges: sample_edges(),
        };
        match decode(&encode(&msg)).unwrap() {
            ServeMessage::QueryResult {
                id,
                covered_cols,
                n_windows,
                edges,
            } => {
                assert_eq!((id, covered_cols, n_windows), (3, 400, 17));
                for ((wa, ea), (wb, eb)) in sample_edges().iter().zip(&edges) {
                    assert_eq!(wa, wb);
                    assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                    assert_eq!(ea.value.to_bits(), eb.value.to_bits());
                }
            }
            other => panic!("wrong message: {other:?}"),
        }
        let msg = ServeMessage::Delta {
            id: 9,
            window: 12,
            edges: sample_edges().into_iter().map(|(_, e)| e).collect(),
        };
        match decode(&encode(&msg)).unwrap() {
            ServeMessage::Delta { id, window, edges } => {
                assert_eq!((id, window), (9, 12));
                assert_eq!(edges.len(), 2);
                assert_eq!(edges[0].value.to_bits(), 0.912345678901f64.to_bits());
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn shared_frames_delegate_to_the_shard_protocol() {
        let hello = ServeMessage::Hello(Hello::local());
        let payload = encode(&hello);
        assert_eq!(payload, proto::encode(&Message::Hello(Hello::local())));
        assert!(payload.len() <= MAX_HELLO_FRAME);
        match decode(&payload).unwrap() {
            ServeMessage::Hello(h) => assert_eq!(h, Hello::local()),
            other => panic!("wrong message: {other:?}"),
        }
        for (msg, seq) in [(ServeMessage::Ping(5), 5), (ServeMessage::Pong(6), 6)] {
            match (decode(&encode(&msg)).unwrap(), seq) {
                (ServeMessage::Ping(a), s) | (ServeMessage::Pong(a), s) => assert_eq!(a, s),
                (other, _) => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn shard_frames_are_rejected_on_a_serve_link() {
        let assignish = proto::encode(&Message::Error(1, "boom".into()));
        assert!(decode(&assignish).is_err());
        let load = proto::encode(&Message::Load(
            generators::clustered_matrix(4, 40, 2, 0.5, 1).unwrap(),
        ));
        assert!(decode(&load).is_err());
    }

    #[test]
    fn truncated_and_trailing_frames_are_rejected_not_panicked() {
        let data = generators::clustered_matrix(4, 60, 2, 0.5, 2).unwrap();
        let full = encode(&ServeMessage::Open {
            name: "x".into(),
            window: 40,
            step: 20,
            threshold: 0.5,
            config: DangoronConfig {
                basic_window: 20,
                ..Default::default()
            },
            data,
        });
        for cut in [0usize, 1, 5, 9, 20, full.len() - 1] {
            assert!(decode(&full[..cut]).is_err(), "cut={cut}");
        }
        let mut trailing = encode(&ServeMessage::Evict { name: "x".into() });
        trailing.push(0);
        assert!(decode(&trailing).is_err());
        assert!(decode(&[200]).is_err(), "unknown tag");
    }

    #[test]
    fn query_results_with_misplaced_edges_are_rejected() {
        let e = |w: u32, i: u32, j: u32| (w, Edge { i, j, value: 0.9 });
        let frame = |edges: Vec<(u32, Edge)>| {
            encode(&ServeMessage::QueryResult {
                id: 1,
                covered_cols: 100,
                n_windows: 3,
                edges,
            })
        };
        assert!(decode(&frame(vec![e(0, 0, 1), e(2, 0, 1), e(2, 1, 4)])).is_ok());
        for (why, edges) in [
            ("window = n_windows", vec![e(0, 0, 1), e(3, 0, 1)]),
            ("window ≫ n_windows", vec![e(u32::MAX, 0, 1)]),
            ("diagonal", vec![e(0, 2, 2)]),
            ("lower triangle", vec![e(1, 3, 1)]),
            ("duplicate", vec![e(1, 0, 1), e(1, 0, 1)]),
            ("windows descend", vec![e(2, 0, 1), e(1, 0, 2)]),
            ("pairs descend", vec![e(1, 0, 2), e(1, 0, 1)]),
        ] {
            assert!(decode(&frame(edges)).is_err(), "{why}");
        }
        // A `Delta` carries one window: the same rules on `(i, j)`.
        let delta = |pairs: &[(u32, u32)]| {
            encode(&ServeMessage::Delta {
                id: 1,
                window: 0,
                edges: pairs
                    .iter()
                    .map(|&(i, j)| Edge { i, j, value: 0.9 })
                    .collect(),
            })
        };
        assert!(decode(&delta(&[(0, 1), (0, 2), (1, 4)])).is_ok());
        for (why, pairs) in [
            ("diagonal", &[(2, 2)][..]),
            ("lower triangle", &[(3, 1)]),
            ("duplicate", &[(0, 1), (0, 1)]),
            ("pairs descend", &[(0, 2), (0, 1)]),
        ] {
            assert!(decode(&delta(pairs)).is_err(), "delta: {why}");
        }
    }

    #[test]
    fn query_results_claiming_more_windows_than_asked_are_refused() {
        // The frame itself decodes — nothing is sized by `n_windows` here —
        // so the bound sits in the client, which knows the request.
        let reply = |id: u64, n_windows: u64| {
            encode(&ServeMessage::QueryResult {
                id,
                covered_cols: 100,
                n_windows,
                edges: Vec::new(),
            })
        };
        assert!(decode(&reply(1, 1 << 40)).is_ok());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut daemon, _) = listener.accept().unwrap();
        let mut client =
            crate::client::ServeClient::over(dialed.try_clone().unwrap(), dialed).unwrap();
        // 100 columns, window 60, step 20: at most 3 windows.
        let claims = [3, 4, 1 << 40];
        let fake_daemon = std::thread::spawn(move || {
            frame::read_from(&mut daemon, MAX_FRAME).unwrap().unwrap(); // Hello
            for n_windows in claims {
                let query = frame::read_from(&mut daemon, MAX_FRAME).unwrap().unwrap();
                let Ok(ServeMessage::Query { id, .. }) = decode(&query) else {
                    panic!("expected a Query frame");
                };
                frame::write_to(&mut daemon, &reply(id, n_windows)).unwrap();
            }
        });
        assert_eq!(client.query("s", 60, 20, 0.8).unwrap().n_windows, 3);
        for claim in &claims[1..] {
            let err = client.query("s", 60, 20, 0.8).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{claim}: {err}"
            );
            assert!(err.to_string().contains("at most 3"), "{claim}: {err}");
        }
        fake_daemon.join().unwrap();
    }

    #[test]
    fn hostile_lengths_never_size_allocations() {
        // A name length of 2^40: rejected by the cap before allocation.
        let mut payload = vec![TAG_EVICT];
        payload.put_u64_le(1 << 40);
        assert!(decode(&payload).is_err());
        // A delta with 2^60 claimed edges and no bytes behind them.
        let mut payload = vec![TAG_DELTA];
        payload.put_u64_le(1);
        payload.put_u64_le(0);
        payload.put_u64_le(1 << 60);
        assert!(decode(&payload).is_err());
        // An Open whose matrix claims 2^30 × 2^30 cells.
        let mut payload = vec![TAG_APPEND];
        payload.put_u64_le(1);
        payload.put_slice(b"x");
        payload.put_u64_le(1 << 30);
        payload.put_u64_le(1 << 30);
        assert!(decode(&payload).is_err());
        // A non-UTF-8 name.
        let mut payload = vec![TAG_EVICT];
        payload.put_u64_le(2);
        payload.put_slice(&[0xff, 0xfe]);
        assert!(decode(&payload).is_err());
    }
}
