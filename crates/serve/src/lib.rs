//! The serving tier: resident multi-tenant correlation sessions.
//!
//! A one-shot `dangoron` run pays the prepare phase — sketch prefixes,
//! pair sketches, Eq. 2 cost prefixes, the pivot table — for every
//! query. But that state is *query-independent*: it depends on the data
//! and the engine config, never on `(window, step, threshold)`. This
//! crate keeps it resident: a [`session::Session`] owns one
//! [`dangoron::StreamingDangoron`], accepts appends, and answers any
//! number of concurrent ad-hoc queries from the shared sketches
//! ([`dangoron::StreamingDangoron::query_shared`]) — each paying only
//! the pruned walk. Subscriptions push per-window edge *deltas* as
//! appends close windows, never re-emitting whole matrices.
//!
//! The `dangoron-serve` daemon ([`server`]) hosts many named sessions
//! with per-session memory accounting, idle-LRU eviction under a budget,
//! and append backpressure (the `Appended` ack). The wire format
//! ([`proto`]) adds session frames (tags 11+) to the shard protocol,
//! layered on the shard tier's transport,
//! handshake, heartbeats, and decode hardening. [`client::ServeClient`]
//! is the synchronous client; it shares the shard tier's dial/backoff
//! and reconnect loops.
//!
//! Determinism contract: a shared query's edges are **bit-identical** to
//! a fresh one-shot run over the covered column prefix, and a
//! subscription's reassembled deltas are bit-identical to the full
//! per-window matrices — `tests/serve_determinism.rs` and this crate's
//! test suites enforce both under concurrency, disconnects, and seeded
//! link chaos.

pub mod client;
pub mod http;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{AppendAck, OpenAck, QueryReply, ServeClient, WindowDelta};
pub use metrics::{ServeMetrics, SessionMetrics};
pub use proto::ServeMessage;
pub use server::{serve, spawn_local, Registry, Slot};
pub use session::{AppendOutcome, Session};
