//! # dangoron — pruned correlation-network construction across sliding windows
//!
//! The paper's primary contribution: compute the sequence of thresholded
//! correlation matrices `C_0 … C_γ` over sliding windows while skipping as
//! much work as the threshold `β` allows.
//!
//! The framework combines three ideas:
//!
//! 1. **Basic-window sketches (Eq. 1)** — per-window statistics are
//!    precomputed once; the exact correlation of any aligned window is
//!    reconstructed in O(1) (crate `sketch`).
//! 2. **Vertical pruning / jumping (Eq. 2, Fig. 2)** — correlation drifts
//!    slowly between adjacent windows. When the current correlation is
//!    below `β`, an upper bound on future windows is derived from the
//!    *departing* basic windows' correlations; binary search over the
//!    monotone bound yields the number of safely skippable windows
//!    ([`bounds`], [`walker`]).
//! 3. **Horizontal pruning** — for a pivot series `z`, the two known
//!    correlations `c_xz`, `c_yz` confine `c_xy` to
//!    `c_xz·c_yz ± √((1−c_xz²)(1−c_yz²))`; pairs whose upper bound stays
//!    below `β` skip exact evaluation entirely ([`pivot`]).
//!
//! Two execution surfaces share one pruned walker ([`walker`]): the batch
//! engine [`Dangoron`] (`prepare` + `run`) and the real-time session
//! [`StreamingDangoron`] (`append` + drain). Results are **deterministic
//! three ways**: bit-identical across thread counts (the `exec`
//! scheduler's ordered merge), across batch and streaming (shared walker +
//! incrementally maintained sketches), and across SIMD/scalar builds (the
//! `kernel` crate's bit-identical backends). `ARCHITECTURE.md` at the
//! repository root walks the full crate graph and data flow.
//!
//! ```
//! use dangoron::{Dangoron, DangoronConfig};
//! use sketch::SlidingQuery;
//! use tsdata::generators;
//!
//! let x = generators::clustered_matrix(8, 256, 2, 0.4, 7).unwrap();
//! let query = SlidingQuery { start: 0, end: 256, window: 64, step: 16, threshold: 0.8 };
//! let engine = Dangoron::new(DangoronConfig { basic_window: 16, ..Default::default() }).unwrap();
//! let result = engine.execute(&x, query).unwrap();
//! assert_eq!(result.matrices.len(), query.n_windows());
//! println!("skip fraction: {:.2}", result.stats.skip_fraction());
//! ```

pub mod bounds;
pub mod config;
pub mod engine;
pub mod pivot;
mod state;
pub mod stats;
pub mod streaming;
pub mod walker;

pub use config::{BoundMode, DangoronConfig, PairStorage, PivotStrategy};
pub use engine::{Dangoron, Prepared, QueryResult};
pub use stats::PruningStats;
pub use streaming::{CompletedWindow, StreamingDangoron};
