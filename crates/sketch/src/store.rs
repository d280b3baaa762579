//! Per-series basic-window statistics with prefix sums.
//!
//! For each series and each basic window the store keeps `Σx` and `Σx²`
//! (equivalent to the paper's per-window mean and σ, but exact under
//! pooling) as *prefix sums over basic windows*, so the statistics of any
//! aligned query window are O(1).

use crate::plan::BasicWindowLayout;
use bytes::{Buf, BufMut};
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// Pooled raw sums of one series over a window: `n`, `Σx`, `Σx²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Number of points pooled.
    pub n: f64,
    /// Sum of values.
    pub sum: f64,
    /// Sum of squared values.
    pub sum_sq: f64,
}

impl WindowStats {
    /// Window mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.sum / self.n
    }

    /// Population variance (clamped at 0 against rounding).
    #[inline]
    pub fn variance(&self) -> f64 {
        (self.sum_sq / self.n - self.mean() * self.mean()).max(0.0)
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Mean and population σ of every series over a span of basic windows,
/// from [`SketchStore::basic_moments`]. A transient table for bulk `c_b`
/// builds ([`PairSketch::basic_correlations`](crate::PairSketch::basic_correlations)):
/// built for one prepare or one append, then dropped.
#[derive(Debug)]
pub struct BasicMoments {
    /// The basic windows covered.
    pub(crate) windows: Range<usize>,
    /// Points per basic window — the `n` of every [`WindowStats`].
    pub(crate) n: f64,
    /// `(mean, σ)` per (series, window), series-major.
    moments: Vec<(f64, f64)>,
}

impl BasicMoments {
    /// `(mean, σ)` of series `i` for each covered basic window, in order.
    #[inline]
    pub(crate) fn series(&self, i: usize) -> &[(f64, f64)] {
        let len = self.windows.len();
        &self.moments[i * len..(i + 1) * len]
    }
}

/// Precomputed basic-window statistics for every series of a matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchStore {
    layout: BasicWindowLayout,
    n_series: usize,
    /// `(count+1)` prefix sums per series, flattened.
    sum_prefix: Vec<f64>,
    /// `(count+1)` prefix sums of squares per series, flattened.
    sum_sq_prefix: Vec<f64>,
}

impl SketchStore {
    /// Builds the store in one O(N·L) pass (sequential).
    pub fn build(x: &TimeSeriesMatrix, layout: BasicWindowLayout) -> Result<Self, TsError> {
        Self::build_with_threads(x, layout, 1)
    }

    /// Builds the store with `threads` workers stealing row chunks.
    ///
    /// Rows are independent; each worker produces whole prefix rows which
    /// are reassembled in series order, so the result is identical for any
    /// thread count.
    pub fn build_with_threads(
        x: &TimeSeriesMatrix,
        layout: BasicWindowLayout,
        threads: usize,
    ) -> Result<Self, TsError> {
        if layout.end() > x.len() {
            return Err(TsError::OutOfRange {
                requested: layout.end(),
                available: x.len(),
            });
        }
        let n = x.n_series();
        let stride = layout.count + 1;
        let rows = exec::par_collect_chunks(n, threads, 1, |range| {
            range
                .map(|i| prefix_row(x.row(i), &layout))
                .collect::<Vec<_>>()
        });
        let mut sum_prefix = Vec::with_capacity(n * stride);
        let mut sum_sq_prefix = Vec::with_capacity(n * stride);
        for (sums, sq) in rows {
            sum_prefix.extend(sums);
            sum_sq_prefix.extend(sq);
        }
        Ok(Self {
            layout,
            n_series: n,
            sum_prefix,
            sum_sq_prefix,
        })
    }

    /// The layout the store was built for.
    #[inline]
    pub fn layout(&self) -> &BasicWindowLayout {
        &self.layout
    }

    /// Number of series covered.
    #[inline]
    pub fn n_series(&self) -> usize {
        self.n_series
    }

    /// Pooled stats of series `i` over basic windows `[b0, b1)` — O(1).
    #[inline]
    pub fn window_stats(&self, i: usize, b0: usize, b1: usize) -> WindowStats {
        debug_assert!(i < self.n_series && b0 < b1 && b1 <= self.layout.count);
        let stride = self.layout.count + 1;
        let base = i * stride;
        WindowStats {
            n: ((b1 - b0) * self.layout.width) as f64,
            sum: self.sum_prefix[base + b1] - self.sum_prefix[base + b0],
            sum_sq: self.sum_sq_prefix[base + b1] - self.sum_sq_prefix[base + b0],
        }
    }

    /// Series `i`'s `(count+1)`-long prefix rows of `Σx` and `Σx²`: entry
    /// `b` pools basic windows `[0, b)`, so [`SketchStore::window_stats`]
    /// over `[b0, b1)` is `row[b1] − row[b0]` in each.
    #[inline]
    pub fn prefix_rows(&self, i: usize) -> (&[f64], &[f64]) {
        let stride = self.layout.count + 1;
        let span = i * stride..(i + 1) * stride;
        (&self.sum_prefix[span.clone()], &self.sum_sq_prefix[span])
    }

    /// Stats of the single basic window `b` of series `i`.
    #[inline]
    pub fn basic_stats(&self, i: usize, b: usize) -> WindowStats {
        self.window_stats(i, b, b + 1)
    }

    /// The [`BasicMoments`] of every series over the basic windows
    /// `windows` — the per-series half of each `c_b`, computed once per
    /// (series, window) for a bulk cost build instead of once per pair.
    pub fn basic_moments(&self, windows: Range<usize>) -> BasicMoments {
        debug_assert!(windows.start <= windows.end && windows.end <= self.layout.count);
        let moments = (0..self.n_series)
            .flat_map(|i| {
                windows.clone().map(move |b| {
                    let s = self.basic_stats(i, b);
                    (s.mean(), s.std_dev())
                })
            })
            .collect();
        BasicMoments {
            windows,
            n: self.layout.width as f64,
            moments,
        }
    }

    /// Extends the store with the basic windows that have become complete
    /// now that the matrix has grown at the right edge. `tail` holds only
    /// the columns from global index `tail_start` onward (`0` for the
    /// whole grown matrix; earlier raw history may have been evicted once
    /// absorbed into the prefix arrays). The layout keeps global indices,
    /// so results are bit-identical to a fresh full-history build.
    ///
    /// Returns the number of basic windows added. Costs O(N·Δ) for the
    /// new columns plus a prefix-array copy — the real-time-update path:
    /// history is never rescanned.
    pub fn append_tail(
        &mut self,
        tail: &TimeSeriesMatrix,
        tail_start: usize,
    ) -> Result<usize, TsError> {
        if tail.n_series() != self.n_series {
            return Err(TsError::DimensionMismatch {
                expected: self.n_series,
                found: tail.n_series(),
            });
        }
        let total_len = tail_start + tail.len();
        if total_len < self.layout.end() {
            return Err(TsError::OutOfRange {
                requested: self.layout.end(),
                available: total_len,
            });
        }
        if tail_start > self.layout.end() {
            return Err(TsError::InvalidParameter(format!(
                "tail starting at column {tail_start} leaves a gap after coverage end {}",
                self.layout.end()
            )));
        }
        let new_count = (total_len - self.layout.origin) / self.layout.width;
        let added = new_count.saturating_sub(self.layout.count);
        if added == 0 {
            return Ok(0);
        }
        let old_count = self.layout.count;
        let old_stride = old_count + 1;
        let new_stride = new_count + 1;
        let mut sum_prefix = vec![0.0; self.n_series * new_stride];
        let mut sum_sq_prefix = vec![0.0; self.n_series * new_stride];
        let new_layout = BasicWindowLayout {
            origin: self.layout.origin,
            width: self.layout.width,
            count: new_count,
        };
        for i in 0..self.n_series {
            let (old_base, new_base) = (i * old_stride, i * new_stride);
            sum_prefix[new_base..new_base + old_stride]
                .copy_from_slice(&self.sum_prefix[old_base..old_base + old_stride]);
            sum_sq_prefix[new_base..new_base + old_stride]
                .copy_from_slice(&self.sum_sq_prefix[old_base..old_base + old_stride]);
            let row = tail.row(i);
            let mut acc = sum_prefix[new_base + old_count];
            let mut acc_sq = sum_sq_prefix[new_base + old_count];
            // Same per-window kernel reduction as `prefix_row`, so an
            // appended store stays bit-identical to a fresh build.
            for b in old_count..new_count {
                let (t0, t1) = new_layout.time_range(b);
                let (s, ss) = kernel::sum_and_sum_squares(&row[t0 - tail_start..t1 - tail_start]);
                acc += s;
                acc_sq += ss;
                sum_prefix[new_base + b + 1] = acc;
                sum_sq_prefix[new_base + b + 1] = acc_sq;
            }
        }
        self.layout = new_layout;
        self.sum_prefix = sum_prefix;
        self.sum_sq_prefix = sum_sq_prefix;
        Ok(added)
    }

    /// Approximate heap footprint in bytes (for the memory experiments).
    pub fn memory_bytes(&self) -> usize {
        (self.sum_prefix.len() + self.sum_sq_prefix.len()) * std::mem::size_of::<f64>()
    }

    /// Serialises the store to a compact little-endian binary frame
    /// (TSUBASA persists sketches so historical queries skip the raw scan;
    /// this is the equivalent facility).
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(40 + (self.sum_prefix.len() + self.sum_sq_prefix.len()) * 8);
        buf.put_u64_le(SKETCH_MAGIC);
        buf.put_u64_le(self.layout.origin as u64);
        buf.put_u64_le(self.layout.width as u64);
        buf.put_u64_le(self.layout.count as u64);
        buf.put_u64_le(self.n_series as u64);
        for &v in &self.sum_prefix {
            buf.put_f64_le(v);
        }
        for &v in &self.sum_sq_prefix {
            buf.put_f64_le(v);
        }
        buf
    }

    /// Inverse of [`SketchStore::serialize`].
    pub fn deserialize(mut data: &[u8]) -> Result<Self, TsError> {
        let err = |msg: &str| TsError::Parse {
            line: 0,
            msg: msg.to_string(),
        };
        if data.remaining() < 40 {
            return Err(err("sketch frame too short"));
        }
        if data.get_u64_le() != SKETCH_MAGIC {
            return Err(err("bad sketch magic"));
        }
        let origin = data.get_u64_le() as usize;
        let width = data.get_u64_le() as usize;
        let count = data.get_u64_le() as usize;
        let n_series = data.get_u64_le() as usize;
        if width < 2 || count == 0 || n_series == 0 {
            return Err(err("corrupt sketch header"));
        }
        let stride = count
            .checked_add(1)
            .and_then(|s| s.checked_mul(n_series))
            .ok_or_else(|| err("sketch header overflow"))?;
        if data.remaining() != stride * 16 {
            return Err(err("sketch frame length mismatch"));
        }
        let mut sum_prefix = Vec::with_capacity(stride);
        for _ in 0..stride {
            sum_prefix.push(data.get_f64_le());
        }
        let mut sum_sq_prefix = Vec::with_capacity(stride);
        for _ in 0..stride {
            sum_sq_prefix.push(data.get_f64_le());
        }
        Ok(Self {
            layout: BasicWindowLayout {
                origin,
                width,
                count,
            },
            n_series,
            sum_prefix,
            sum_sq_prefix,
        })
    }
}

/// One series' `(count+1)`-long prefix rows of `Σx` and `Σx²`.
///
/// Each basic window is one fused [`kernel::sum_and_sum_squares`] pass
/// (SIMD where available, bit-identical striped scalar otherwise); the
/// prefix chain across windows is a sequential add per window, so
/// [`SketchStore::append_tail`] can continue it exactly.
fn prefix_row(row: &[f64], layout: &BasicWindowLayout) -> (Vec<f64>, Vec<f64>) {
    let stride = layout.count + 1;
    let mut sums = Vec::with_capacity(stride);
    let mut sums_sq = Vec::with_capacity(stride);
    sums.push(0.0);
    sums_sq.push(0.0);
    let mut acc = 0.0;
    let mut acc_sq = 0.0;
    for b in 0..layout.count {
        let (t0, t1) = layout.time_range(b);
        let (s, ss) = kernel::sum_and_sum_squares(&row[t0..t1]);
        acc += s; // lint:allow(float-reduction-outside-kernel) -- prefix-sum build: partials are stored; append resumes from the stored tail bit-identically
        acc_sq += ss; // lint:allow(float-reduction-outside-kernel) -- prefix-sum build: partials are stored; append resumes from the stored tail bit-identically
        sums.push(acc);
        sums_sq.push(acc_sq);
    }
    (sums, sums_sq)
}

const SKETCH_MAGIC: u64 = 0x4441_4e47_4f52_4f4e; // "DANGORON"

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::stats;

    fn matrix() -> TimeSeriesMatrix {
        TimeSeriesMatrix::from_rows(vec![
            (0..24)
                .map(|t| (t as f64 * 0.7).sin() + 0.1 * t as f64)
                .collect(),
            (0..24).map(|t| (t as f64 * 0.3).cos() * 2.0).collect(),
            (0..24).map(|t| t as f64).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn window_stats_match_direct_computation() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(0, 24, 4).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        for i in 0..x.n_series() {
            for b0 in 0..layout.count {
                for b1 in (b0 + 1)..=layout.count {
                    let ws = store.window_stats(i, b0, b1);
                    let (t0, _) = layout.time_range(b0);
                    let t1 = layout.origin + b1 * layout.width;
                    let slice = &x.row(i)[t0..t1];
                    let sum: f64 = slice.iter().sum();
                    let sum_sq: f64 = slice.iter().map(|v| v * v).sum();
                    assert!((ws.sum - sum).abs() < 1e-9);
                    assert!((ws.sum_sq - sum_sq).abs() < 1e-9);
                    assert_eq!(ws.n as usize, slice.len());
                    assert!((ws.mean() - stats::mean(slice).unwrap()).abs() < 1e-9);
                    assert!((ws.variance() - stats::variance(slice).unwrap()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn nonzero_origin_layout() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(4, 24, 5).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        let ws = store.basic_stats(2, 0); // series 2 is t → t
                                          // Basic window covers t = 4..9: sum = 4+5+6+7+8 = 30.
        assert!((ws.sum - 30.0).abs() < 1e-12);
    }

    #[test]
    fn build_rejects_layout_beyond_data() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(0, 30, 5).unwrap();
        assert!(SketchStore::build(&x, layout).is_err());
    }

    #[test]
    fn append_matches_fresh_build() {
        // Build on the first 12 columns, then stream the rest in two
        // appends; the result must equal a from-scratch build.
        let full = matrix();
        let prefix = full.slice_columns(0, 12).unwrap();
        let layout_small = BasicWindowLayout::cover(0, 12, 4).unwrap();
        let mut store = SketchStore::build(&prefix, layout_small).unwrap();

        let mut grown = prefix.clone();
        grown
            .append_columns(&full.slice_columns(12, 20).unwrap())
            .unwrap();
        assert_eq!(store.append_tail(&grown, 0).unwrap(), 2);
        grown
            .append_columns(&full.slice_columns(20, 24).unwrap())
            .unwrap();
        assert_eq!(store.append_tail(&grown, 0).unwrap(), 1);

        let fresh = SketchStore::build(&full, BasicWindowLayout::cover(0, 24, 4).unwrap()).unwrap();
        assert_eq!(store, fresh);
        // No new complete window ⇒ no-op.
        assert_eq!(store.append_tail(&grown, 0).unwrap(), 0);
    }

    #[test]
    fn append_tail_matches_full_append() {
        let full = matrix();
        let prefix = full.slice_columns(0, 12).unwrap();
        let layout_small = BasicWindowLayout::cover(0, 12, 4).unwrap();
        let mut a = SketchStore::build(&prefix, layout_small).unwrap();
        let mut b = a.clone();

        let mut grown = prefix.clone();
        grown
            .append_columns(&full.slice_columns(12, 24).unwrap())
            .unwrap();
        assert_eq!(a.append_tail(&grown, 0).unwrap(), 3);
        // Tail-only append of the same columns is bit-identical.
        let tail = full.slice_columns(12, 24).unwrap();
        assert_eq!(b.append_tail(&tail, 12).unwrap(), 3);
        assert_eq!(a, b);
        // A tail starting past the coverage end leaves a gap.
        let gap = full.slice_columns(20, 24).unwrap();
        assert!(b.append_tail(&gap, 40).is_err());
    }

    #[test]
    fn append_validates_input() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(0, 24, 4).unwrap();
        let mut store = SketchStore::build(&x, layout).unwrap();
        // Different series count.
        let other = TimeSeriesMatrix::from_rows(vec![vec![0.0; 30]]).unwrap();
        assert!(store.append_tail(&other, 0).is_err());
        // Shrunk matrix.
        let short = x.slice_columns(0, 8).unwrap();
        assert!(store.append_tail(&short, 0).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(0, 24, 6).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        let bytes = store.serialize();
        let back = SketchStore::deserialize(&bytes).unwrap();
        assert_eq!(store, back);
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(0, 24, 6).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        let mut bytes = store.serialize();
        assert!(SketchStore::deserialize(&bytes[..10]).is_err()); // truncated
        bytes[0] ^= 0xFF; // bad magic
        assert!(SketchStore::deserialize(&bytes).is_err());
        let bytes = store.serialize();
        assert!(SketchStore::deserialize(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(0, 24, 4).unwrap();
        let seq = SketchStore::build(&x, layout).unwrap();
        for threads in [2, 3, 8] {
            let par = SketchStore::build_with_threads(&x, layout, threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn memory_accounting_scales_with_series() {
        let x = matrix();
        let layout = BasicWindowLayout::cover(0, 24, 4).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        assert_eq!(store.memory_bytes(), 2 * 3 * 7 * 8);
        assert_eq!(store.n_series(), 3);
    }
}
