//! # sketch — basic-window sketches and the Eq. 1 combiner
//!
//! The substrate shared by Dangoron and the TSUBASA baseline. A series is
//! divided into *basic windows*; per-window statistics (sums, squared sums,
//! pairwise cross sums) are precomputed once, and the exact Pearson
//! correlation of **any** aligned query window is reconstructed from them
//! with the paper's Equation 1 — here implemented in pooled-sums form,
//! which is algebraically identical and exact for unequal window sizes too
//! (see `combine::pearson_eq1_paper_form` for the literal Eq. 1 and the
//! property test showing they agree).
//!
//! Modules:
//! * [`plan`] — query geometry: [`plan::SlidingQuery`] (the paper's
//!   `r, l, η, β`) and [`plan::BasicWindowLayout`] alignment;
//! * [`store`] — per-series prefix-summed basic-window statistics, with
//!   compact binary (de)serialisation, and the transient per-window
//!   moment table [`store::BasicMoments`];
//! * [`pair`] — per-pair cross-product sketches, plus the strip builder
//!   [`pair::build_with`] (four pairs per kernel call, in 16-row blocks
//!   so each strip's rows stay in cache), which hands each strip's
//!   basic-window correlations to a [`pair::StripFinish`] that builds a
//!   per-pair output four lanes at a time (the engine's Eq. 2 costs; this
//!   crate knows nothing of Eq. 2);
//! * [`combine`] — O(1) window correlation from the sketches (Eq. 1);
//! * [`output`] — [`output::ThresholdedMatrix`], the sparse `C_k` the
//!   problem definition asks for;
//! * [`triangular`] — the shared `(i, j) ↔ rank` pair ordering.
//!
//! Every dense accumulation in the prefix builders runs on the `kernel`
//! crate's 4-lane primitives ([`kernel::dot`], [`kernel::dot4_windows`],
//! [`kernel::prefix_sums4`], [`kernel::sum_and_sum_squares`]) whose
//! scalar fallback is bit-identical by contract, so sketches — and everything derived from them — do not
//! depend on the instruction set, the thread count, or batch-vs-streaming
//! construction order.
//!
//! Building the two sketch kinds and reconstructing an exact windowed
//! correlation from them:
//!
//! ```
//! use sketch::{combine, BasicWindowLayout, PairSketch, SketchStore};
//! use tsdata::TimeSeriesMatrix;
//!
//! let x: Vec<f64> = (0..32).map(|t| (t as f64 * 0.4).sin()).collect();
//! let y: Vec<f64> = (0..32).map(|t| (t as f64 * 0.4 + 1.0).sin()).collect();
//! let m = TimeSeriesMatrix::from_rows(vec![x.clone(), y.clone()]).unwrap();
//! let layout = BasicWindowLayout::cover(0, 32, 8).unwrap();
//! let store = SketchStore::build(&m, layout).unwrap(); // Σx, Σx² prefixes
//! let pair = PairSketch::build(&layout, &x, &y).unwrap(); // Σx·y prefix
//! // Exact Pearson correlation over basic windows [1, 4) in O(1):
//! let r = combine::window_correlation(&store, &pair, 0, 1, 1, 4).unwrap();
//! let direct = tsdata::stats::pearson(&x[8..32], &y[8..32]).unwrap();
//! assert!((r - direct).abs() < 1e-9);
//! ```

pub mod combine;
pub mod output;
pub mod pair;
pub mod plan;
pub mod store;
pub mod triangular;

pub use output::ThresholdedMatrix;
pub use pair::PairSketch;
pub use plan::{BasicWindowLayout, SlidingQuery};
pub use store::{BasicMoments, SketchStore};
