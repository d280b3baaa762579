//! # dist — the distributed shard tier
//!
//! Scales the Dangoron engines past one process by sharding the
//! **triangular pair-rank space** (the ParCorr-style decomposition): a
//! [`plan::ShardPlan`] cuts `[0, N·(N−1)/2)` into balanced contiguous
//! intervals, a [`coord`]inator ships each interval to a
//! `dangoron-shard` worker *process* over a length-prefixed frame
//! protocol ([`proto`], framing from the `bytes` shim) over TCP
//! ([`transport`]). Every worker dials the coordinator
//! (`dangoron-shard --connect`), whether the coordinator spawned it or it
//! was started independently for `dangoron-coord --listen`, and opens
//! with a protocol-version handshake.
//! The workload matrix ships **once per worker** in a `Load` frame at
//! registration; every `Assign` is a slim rank interval + config, so
//! queued and re-planned shards reuse the loaded matrix. The per-shard
//! sorted edge buffers are reassembled by a pure concatenation merge
//! ([`merge`]) — rank order *is* `(i, j)` order, so no re-sort is needed
//! and the merged matrices are **bit-identical to the single-process
//! engine for any shard count**, including runs where workers died and
//! their intervals were re-planned onto the survivors.
//!
//! The engine side lives in the `dangoron` crate:
//! `Dangoron::prepare_shard`/`run_range` and
//! `StreamingDangoron::new_sharded` restrict execution to a rank
//! interval, so a worker never touches out-of-shard pairs.
//!
//! ```
//! use dangoron::DangoronConfig;
//! use dist::coord::{run_in_process, run_single_process};
//! use dist::merge::windows_bit_identical;
//! use dist::proto::WorkerMode;
//! use sketch::SlidingQuery;
//! use tsdata::generators;
//!
//! let data = generators::clustered_matrix(8, 200, 2, 0.5, 7).unwrap();
//! let query = SlidingQuery { start: 0, end: 200, window: 60, step: 20, threshold: 0.7 };
//! let cfg = DangoronConfig { basic_window: 20, ..Default::default() };
//! let single = run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
//! let sharded = run_in_process(4, WorkerMode::Batch, &cfg, &data, query).unwrap();
//! assert!(windows_bit_identical(&sharded.matrices, &single.matrices));
//! ```

pub mod chaos;
pub mod coord;
pub mod merge;
pub mod metrics;
pub mod plan;
pub mod proto;
pub mod transport;
pub mod worker;

pub use chaos::{ChaosTransport, FaultPlan, LinkFaults};
pub use coord::{
    CoordError, CoordStats, CoordinatorConfig, DistResult, ShardSummary, TransportMode,
};
pub use plan::{Shard, ShardPlan};
pub use proto::WorkerMode;
pub use transport::Transport;
