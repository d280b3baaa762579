//! A synchronous client for a `dangoron-serve` daemon.
//!
//! One TCP link, one outstanding request at a time — but `Delta` frames
//! are *pushed* by the daemon whenever an append (from any client of the
//! session) closes windows, so they can arrive interleaved with request
//! replies. The client queues out-of-band deltas while waiting for a
//! reply and hands them out through [`ServeClient::next_delta`].
//!
//! Dialing reuses the shared [`dist::transport::WorkerIo::connect`]
//! backoff loop, and long-lived clients that must survive a daemon
//! restart wrap their whole conversation in
//! [`dist::transport::serve_with_reconnect`] — the same loop
//! `dangoron-shard --reconnect` uses; the serving tier adds no third
//! copy of it.

use crate::proto::{self, ServeMessage};
use bytes::frame;
use dangoron::DangoronConfig;
use dist::proto::Hello;
use dist::transport::WorkerIo;
use sketch::output::{Edge, EdgeRule};
use sketch::{SlidingQuery, ThresholdedMatrix};
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// The `Opened` ack.
#[derive(Debug, Clone, Copy)]
pub struct OpenAck {
    /// Columns the resident sketches cover.
    pub covered_cols: usize,
    /// Resident bytes the session holds.
    pub memory_bytes: usize,
}

/// The `Appended` backpressure ack.
#[derive(Debug, Clone, Copy)]
pub struct AppendAck {
    /// Columns the resident sketches now cover.
    pub covered_cols: usize,
    /// Windows the append closed.
    pub windows_closed: usize,
    /// Resident bytes after the append.
    pub memory_bytes: usize,
}

/// A query answer, still in wire form.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// The column prefix the answer is exact for.
    pub covered_cols: usize,
    /// Windows in the answer.
    pub n_windows: usize,
    /// `(window, edge)` pairs, sorted by `(window, i, j)`.
    pub edges: Vec<(u32, Edge)>,
}

impl QueryReply {
    /// Reassembles the per-window [`ThresholdedMatrix`] list — bit-
    /// identical to the daemon's, since edge values cross the wire as
    /// `f64` bit patterns.
    pub fn matrices(
        &self,
        n_series: usize,
        threshold: f64,
        rule: EdgeRule,
    ) -> Vec<ThresholdedMatrix> {
        ThresholdedMatrix::assemble_windows(
            n_series,
            threshold,
            rule,
            self.n_windows,
            self.edges.clone(),
        )
    }
}

/// One pushed window delta.
#[derive(Debug, Clone)]
pub struct WindowDelta {
    /// The subscription it belongs to.
    pub sub_id: u64,
    /// Global window index.
    pub window: usize,
    /// The window's edges.
    pub edges: Vec<Edge>,
}

/// A synchronous serve-protocol client.
pub struct ServeClient {
    reader: TcpStream,
    writer: TcpStream,
    next_id: u64,
    pending: VecDeque<WindowDelta>,
}

impl ServeClient {
    /// Dials the daemon (shared backoff loop) and sends the handshake.
    pub fn connect(addr: &str, patience: Duration) -> io::Result<Self> {
        let link = WorkerIo::connect(addr, patience, std::process::id() as u64)?;
        Self::over(link.input, link.output)
    }

    /// Wraps an established stream pair (tests and chaos wrappers), turns
    /// on `TCP_NODELAY` (every frame is a request the daemon waits on) and
    /// sends the handshake.
    pub fn over(reader: TcpStream, writer: TcpStream) -> io::Result<Self> {
        writer.set_nodelay(true)?;
        let mut client = Self {
            reader,
            writer,
            next_id: 0,
            pending: VecDeque::new(),
        };
        client.send(&ServeMessage::Hello(Hello::local()))?;
        Ok(client)
    }

    fn send(&mut self, msg: &ServeMessage) -> io::Result<()> {
        frame::write_to(&mut self.writer, &proto::encode(msg))
    }

    /// Writes raw bytes as one frame — the test suites' malformed-frame
    /// injector.
    pub fn send_raw_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        frame::write_to(&mut self.writer, payload)
    }

    /// Reads the next non-delta frame, queueing any `Delta`s that arrive
    /// first; a `ServeError` reply becomes an `Err`.
    pub fn read_reply(&mut self) -> io::Result<ServeMessage> {
        loop {
            let Some(payload) = frame::read_from(&mut self.reader, proto::MAX_FRAME)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the link",
                ));
            };
            let msg = proto::decode(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            match msg {
                ServeMessage::Delta { id, window, edges } => {
                    self.pending.push_back(WindowDelta {
                        sub_id: id,
                        window: window as usize,
                        edges,
                    });
                }
                ServeMessage::ServeError { context, message } => {
                    return Err(io::Error::other(format!(
                        "serve error (context {context}): {message}"
                    )));
                }
                other => return Ok(other),
            }
        }
    }

    fn request(&mut self, msg: &ServeMessage) -> io::Result<ServeMessage> {
        self.send(msg)?;
        self.read_reply()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Opens a named resident session over `data`.
    pub fn open(
        &mut self,
        name: &str,
        data: &tsdata::TimeSeriesMatrix,
        window: usize,
        step: usize,
        threshold: f64,
        config: &DangoronConfig,
    ) -> io::Result<OpenAck> {
        let reply = self.request(&ServeMessage::Open {
            name: name.to_string(),
            window,
            step,
            threshold,
            config: config.clone(),
            data: data.clone(),
        })?;
        match reply {
            ServeMessage::Opened {
                covered_cols,
                memory_bytes,
                ..
            } => Ok(OpenAck {
                covered_cols: covered_cols as usize,
                memory_bytes: memory_bytes as usize,
            }),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Appends columns and waits for the backpressure ack.
    pub fn append(&mut self, name: &str, data: &tsdata::TimeSeriesMatrix) -> io::Result<AppendAck> {
        let reply = self.request(&ServeMessage::Append {
            name: name.to_string(),
            data: data.clone(),
        })?;
        match reply {
            ServeMessage::Appended {
                covered_cols,
                windows_closed,
                memory_bytes,
                ..
            } => Ok(AppendAck {
                covered_cols: covered_cols as usize,
                windows_closed: windows_closed as usize,
                memory_bytes: memory_bytes as usize,
            }),
            other => Err(unexpected("Appended", &other)),
        }
    }

    /// Runs an ad-hoc query against a resident session.
    pub fn query(
        &mut self,
        name: &str,
        window: usize,
        step: usize,
        threshold: f64,
    ) -> io::Result<QueryReply> {
        let id = self.fresh_id();
        let reply = self.request(&ServeMessage::Query {
            id,
            name: name.to_string(),
            window,
            step,
            threshold,
        })?;
        match reply {
            ServeMessage::QueryResult {
                id: got,
                covered_cols,
                n_windows,
                edges,
            } => {
                if got != id {
                    return Err(io::Error::other(format!(
                        "query id mismatch: sent {id}, got {got}"
                    )));
                }
                // `matrices` allocates one matrix per claimed window, so a
                // claim beyond what this window/step allows over the
                // covered prefix is refused before anything is sized by it.
                // (A step of 0 is never answered; `max(1)` only keeps a
                // hostile reply to one from dividing by zero.)
                let most = SlidingQuery {
                    start: 0,
                    end: covered_cols as usize,
                    window,
                    step: step.max(1),
                    threshold,
                }
                .n_windows();
                if n_windows > most as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "query reply claims {n_windows} windows; window {window}, step {step} \
                             over {covered_cols} columns allow at most {most}"
                        ),
                    ));
                }
                Ok(QueryReply {
                    covered_cols: covered_cols as usize,
                    n_windows: n_windows as usize,
                    edges,
                })
            }
            other => Err(unexpected("QueryResult", &other)),
        }
    }

    /// Subscribes to a session's window deltas. Returns the subscription
    /// id and the first window index the subscription will deliver (back-
    /// fill earlier windows with [`ServeClient::query`]).
    pub fn subscribe(&mut self, name: &str) -> io::Result<(u64, usize)> {
        let id = self.fresh_id();
        let reply = self.request(&ServeMessage::Subscribe {
            id,
            name: name.to_string(),
        })?;
        match reply {
            ServeMessage::Subscribed {
                id: got,
                next_window,
            } => {
                if got != id {
                    return Err(io::Error::other(format!(
                        "subscription id mismatch: sent {id}, got {got}"
                    )));
                }
                Ok((id, next_window as usize))
            }
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    /// The next pushed window delta: a queued one if any, else blocks
    /// reading the link until a `Delta` arrives.
    pub fn next_delta(&mut self) -> io::Result<WindowDelta> {
        if let Some(d) = self.pending.pop_front() {
            return Ok(d);
        }
        loop {
            let Some(payload) = frame::read_from(&mut self.reader, proto::MAX_FRAME)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the link",
                ));
            };
            let msg = proto::decode(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if let ServeMessage::Delta { id, window, edges } = msg {
                return Ok(WindowDelta {
                    sub_id: id,
                    window: window as usize,
                    edges,
                });
            }
            // Any non-delta frame here is unsolicited; skip it.
        }
    }

    /// Drops a named session on the daemon.
    pub fn evict(&mut self, name: &str) -> io::Result<bool> {
        let reply = self.request(&ServeMessage::Evict {
            name: name.to_string(),
        })?;
        match reply {
            ServeMessage::Evicted { existed, .. } => Ok(existed),
            other => Err(unexpected("Evicted", &other)),
        }
    }

    /// Severs the link (both directions) — the test suites' mid-stream
    /// disconnect.
    pub fn disconnect(self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        drop(self.reader);
    }

    /// Reads one raw frame off the link (protocol-level tests).
    pub fn read_raw_frame(&mut self, max_len: usize) -> io::Result<Option<Vec<u8>>> {
        frame::read_from(&mut self.reader, max_len)
    }

    /// Direct access to the read half (timeout control in tests).
    pub fn reader(&self) -> &TcpStream {
        &self.reader
    }
}

fn unexpected(wanted: &str, got: &ServeMessage) -> io::Error {
    io::Error::other(format!("expected {wanted}, got {got:?}"))
}
