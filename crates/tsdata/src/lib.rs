//! # tsdata — time-series data substrate
//!
//! Storage, statistics, synchronization and workload generation for the
//! Dangoron reproduction.
//!
//! The paper assumes a collection of `N` *synchronized* time series of
//! length `L` stored as a matrix `X` ([`TimeSeriesMatrix`]). Real inputs are
//! rarely synchronized, so the paper notes that synchronization "can be
//! achieved through aggregation and interpolation on non-synchronized
//! series" — that pipeline lives in [`sync`]. The NCEI/NOAA USCRN hourly
//! climate format used in the paper's evaluation is parsed by [`uscrn`]; a
//! synthetic drop-in replacement with the same statistical structure is
//! generated by [`climate`], whose module doc gives the substitution
//! rationale.
//!
//! ```
//! use tsdata::{TimeSeriesMatrix, stats};
//!
//! let x = TimeSeriesMatrix::from_rows(vec![
//!     vec![1.0, 2.0, 3.0, 4.0],
//!     vec![2.0, 4.0, 6.0, 8.0],
//! ]).unwrap();
//! let r = stats::pearson(x.row(0), x.row(1)).unwrap();
//! assert!((r - 1.0).abs() < 1e-12);
//! ```

pub mod climate;
pub mod error;
pub mod generators;
pub mod rand_util;
pub mod series;
pub mod stats;
pub mod sync;
pub mod uscrn;

pub use error::TsError;
pub use series::TimeSeriesMatrix;
pub use sync::IrregularSeries;
