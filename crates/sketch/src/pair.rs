//! Per-pair cross-product sketches.
//!
//! For a pair `(x, y)` the only quantity Eq. 1 needs beyond the per-series
//! stats is the per-basic-window cross sum `Σ x·y` (equivalently the
//! basic-window correlation `c_j` once combined with the per-series
//! moments). Stored as a prefix over basic windows, any aligned window's
//! cross sum is O(1).

use crate::plan::BasicWindowLayout;
use crate::store::{BasicMoments, SketchStore};
use crate::triangular;
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// Cross-product sketch for one ordered pair of series.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSketch {
    /// Prefix sums of per-basic-window `Σ x·y` (length `count + 1`).
    cross_prefix: Vec<f64>,
}

impl PairSketch {
    /// Builds the sketch from the two raw rows in O(L).
    pub fn build(layout: &BasicWindowLayout, x: &[f64], y: &[f64]) -> Result<Self, TsError> {
        if x.len() != y.len() {
            return Err(TsError::DimensionMismatch {
                expected: x.len(),
                found: y.len(),
            });
        }
        if layout.end() > x.len() {
            return Err(TsError::OutOfRange {
                requested: layout.end(),
                available: x.len(),
            });
        }
        let mut sketch = Self::empty(layout.count);
        sketch.extend((0..layout.count).map(|b| {
            let (t0, t1) = layout.time_range(b);
            kernel::dot(&x[t0..t1], &y[t0..t1])
        }));
        Ok(sketch)
    }

    /// A sketch of no basic windows, with room for `count` of them.
    fn empty(count: usize) -> Self {
        let mut cross_prefix = Vec::with_capacity(count + 1);
        cross_prefix.push(0.0);
        Self { cross_prefix }
    }

    /// Appends one prefix entry per basic-window cross sum in `dots`: a
    /// sequential add onto the last entry, the prefix chain every builder
    /// shares (the strips of [`build_with`] run it as one lane of
    /// [`kernel::prefix_sums4`]). Each cross sum is one canonical
    /// [`kernel::dot`] (or a lane of [`kernel::dot4_windows`], which
    /// equals it bit for bit), so built, strip-built and appended
    /// sketches are identical.
    fn extend(&mut self, dots: impl Iterator<Item = f64>) {
        let mut acc = *self.cross_prefix.last().expect("a prefix starts at 0");
        for d in dots {
            acc += d;
            self.cross_prefix.push(acc);
        }
    }

    /// Number of basic windows covered.
    pub fn count(&self) -> usize {
        self.cross_prefix.len() - 1
    }

    /// Resident bytes of the sketch (the prefix chain's backing store) —
    /// the unit a serving tier's per-session memory accounting sums over.
    pub fn memory_bytes(&self) -> usize {
        self.cross_prefix.capacity() * std::mem::size_of::<f64>()
    }

    /// Extends the sketch to cover `layout` (the *grown* layout after a
    /// [`SketchStore::append_tail`]) by reading only the new columns, and
    /// returns the number of basic windows added. `x_tail`/`y_tail` hold
    /// the columns from global index `tail_start` onward (`0` for whole
    /// rows), so callers that evict absorbed raw history can still extend
    /// the sketch. Every new basic window of `layout` must lie within the
    /// tail (`tail_start ≤` the first new window's start column).
    pub fn append_tail(
        &mut self,
        layout: &BasicWindowLayout,
        x_tail: &[f64],
        y_tail: &[f64],
        tail_start: usize,
    ) -> Result<usize, TsError> {
        if x_tail.len() != y_tail.len() {
            return Err(TsError::DimensionMismatch {
                expected: x_tail.len(),
                found: y_tail.len(),
            });
        }
        if layout.end() > tail_start + x_tail.len() {
            return Err(TsError::OutOfRange {
                requested: layout.end(),
                available: tail_start + x_tail.len(),
            });
        }
        let old_count = self.count();
        if layout.count < old_count {
            return Err(TsError::InvalidParameter(
                "grown layout has fewer basic windows than the sketch".into(),
            ));
        }
        if old_count < layout.count {
            let (first_new, _) = layout.time_range(old_count);
            if tail_start > first_new {
                return Err(TsError::OutOfRange {
                    requested: first_new,
                    available: tail_start,
                });
            }
        }
        self.extend((old_count..layout.count).map(|b| {
            let (t0, t1) = layout.time_range(b);
            kernel::dot(
                &x_tail[t0 - tail_start..t1 - tail_start],
                &y_tail[t0 - tail_start..t1 - tail_start],
            )
        }));
        Ok(layout.count - old_count)
    }

    /// The `(count+1)`-long prefix of per-basic-window `Σ x·y`:
    /// [`PairSketch::cross_sum`] over `[b0, b1)` is `prefix[b1] − prefix[b0]`.
    #[inline]
    pub fn cross_prefix(&self) -> &[f64] {
        &self.cross_prefix
    }

    /// `Σ x·y` over basic windows `[b0, b1)` — O(1).
    #[inline]
    pub fn cross_sum(&self, b0: usize, b1: usize) -> f64 {
        debug_assert!(b0 < b1 && b1 < self.cross_prefix.len());
        self.cross_prefix[b1] - self.cross_prefix[b0]
    }

    /// The basic-window correlation `c_b` of the pair (the `c_j` of Eq. 1
    /// and the `c_i` of the Eq. 2 bound), given the owning store and the
    /// two series indices. `None` when either window is constant.
    pub fn basic_correlation(
        &self,
        store: &SketchStore,
        i: usize,
        j: usize,
        b: usize,
    ) -> Option<f64> {
        let sx = store.basic_stats(i, b);
        let sy = store.basic_stats(j, b);
        correlation(
            self.cross_sum(b, b + 1),
            sx.n,
            (sx.mean(), sx.std_dev()),
            (sy.mean(), sy.std_dev()),
        )
    }

    /// [`PairSketch::basic_correlation`] of every basic window `moments`
    /// covers, in order, reading both series' mean and σ from the table
    /// instead of recomputing them — bit-identical, since both evaluate
    /// the same expression on the same moments.
    pub fn basic_correlations<'s>(
        &'s self,
        moments: &'s BasicMoments,
        i: usize,
        j: usize,
    ) -> impl ExactSizeIterator<Item = Option<f64>> + 's {
        let n = moments.n;
        moments
            .windows
            .clone()
            .zip(moments.series(i).iter().zip(moments.series(j)))
            .map(move |(b, (&mx, &my))| correlation(self.cross_sum(b, b + 1), n, mx, my))
    }
}

/// The correlation of one basic window of `n` points from its cross sum
/// and both series' `(mean, σ)`; `None` when either σ is zero. The one
/// `c_b` expression behind [`PairSketch::basic_correlation`],
/// [`PairSketch::basic_correlations`] and the strips of [`build_with`].
/// It divides before it checks, with no branch, so that a strip's four
/// lanes compile to packed divisions; the quotient of a zero `σ` is
/// dropped.
#[inline]
fn correlation(cross: f64, n: f64, (mx, sx): (f64, f64), (my, sy): (f64, f64)) -> Option<f64> {
    let cov = cross / n - mx * my;
    let denom = sx * sy;
    let c = (cov / denom).clamp(-1.0, 1.0);
    if denom <= 0.0 {
        None
    } else {
        Some(c)
    }
}

/// Builds the pair sketch of **every** `i < j` pair of `x`, in
/// [`triangular::rank`] order, with `threads` workers — [`build_with`]
/// over the whole triangle, with nothing to finish.
pub fn build_all(
    layout: &BasicWindowLayout,
    x: &TimeSeriesMatrix,
    threads: usize,
) -> Result<Vec<PairSketch>, TsError> {
    let n_pairs = triangular::count(x.n_series());
    build_range(layout, x, 0..n_pairs, threads)
}

/// Builds the pair sketches of a **contiguous rank interval**
/// `[ranks.start, ranks.end)` of the triangle, in rank order — the shard
/// variant of [`build_all`] used by distributed workers so a worker never
/// touches out-of-shard pairs. [`build_with`] with nothing to finish.
pub fn build_range(
    layout: &BasicWindowLayout,
    x: &TimeSeriesMatrix,
    ranks: Range<usize>,
    threads: usize,
) -> Result<Vec<PairSketch>, TsError> {
    build_with(layout, x, ranks, threads, &()).map(|(sketches, _)| sketches)
}

/// A per-pair output that [`build_with`] builds in the same pass as the
/// pair sketches, from each strip's basic-window correlations, four pairs
/// at a time.
pub trait StripFinish: Sync {
    /// The output kept per pair.
    type Out: Send;
    /// The moments the strip correlations are computed from, covering
    /// every basic window of the layout; `None` builds sketches only, and
    /// [`StripFinish::fill`] is never called.
    fn moments(&self) -> Option<&BasicMoments>;
    /// A pair's output before its first basic window, allocated at its
    /// final size.
    fn empty(&self) -> Self::Out;
    /// Fills the outputs of one strip of pairs `(i, j0 + q)`: `cs[b][q]`
    /// is lane `q`'s `c_b`, bit for bit [`PairSketch::basic_correlation`],
    /// and `slots[q]` its output, `None` for a lane the strip drops.
    /// `lanes` is a work buffer of `cs.len()` rows.
    fn fill(
        &self,
        cs: &[[Option<f64>; 4]],
        lanes: &mut [[f64; 4]],
        slots: [Option<&mut Self::Out>; 4],
    );
}

/// Nothing to finish: sketches only.
impl StripFinish for () {
    type Out = ();
    fn moments(&self) -> Option<&BasicMoments> {
        None
    }
    fn empty(&self) {}
    fn fill(&self, _: &[[Option<f64>; 4]], _: &mut [[f64; 4]], _: [Option<&mut ()>; 4]) {}
}

/// Rows of `x` per block of [`build_with`]: each strip's four `y` rows
/// stay in cache while every row of the block is dotted against them.
const BLOCK_ROWS: usize = 16;

/// Builds the pair sketches of the rank interval `ranks`, and `finish`'s
/// output for each pair in the same pass. Returns both, indexed by
/// `rank − ranks.start`.
///
/// Workers steal chunks of ranks. A chunk first creates every pair's
/// sketch and output, empty and at its final size, in rank order, so
/// allocation order and capacities do not depend on the walk. It then
/// walks its rows in blocks of 16 and each block in strips
/// `(i, j0..j0+4)`: one [`kernel::dot4_windows`] call per row of the
/// block yields every basic-window cross sum of a strip's pairs, so the
/// strip's four `y` rows are fetched once per block and then read from
/// cache, not fetched again for every row. Lanes whose pair lies outside the chunk (`j ≤ i`
/// near the diagonal, or past a cut mid-row) are computed and dropped.
/// Each strip's four cross-sum prefixes run in one [`kernel::prefix_sums4`]
/// pass, and with [`StripFinish::moments`] its four `c_b` per basic
/// window come from the prefix differences, the way
/// [`PairSketch::basic_correlation`] reads them. Each lane equals the
/// per-pair [`kernel::dot`] bit for bit and goes through the same prefix
/// add as [`PairSketch::build`], so the output is identical for any
/// thread count and any interval.
pub fn build_with<S: StripFinish>(
    layout: &BasicWindowLayout,
    x: &TimeSeriesMatrix,
    ranks: Range<usize>,
    threads: usize,
    finish: &S,
) -> Result<(Vec<PairSketch>, Vec<S::Out>), TsError> {
    let n = x.n_series();
    if layout.end() > x.len() {
        return Err(TsError::OutOfRange {
            requested: layout.end(),
            available: x.len(),
        });
    }
    let n_pairs = triangular::count(n);
    if ranks.start > ranks.end || ranks.end > n_pairs {
        return Err(TsError::OutOfRange {
            requested: ranks.end,
            available: n_pairs,
        });
    }
    let moments = finish.moments();
    if let Some(m) = moments {
        assert!(
            m.windows == (0..layout.count),
            "strip moments must cover every basic window"
        );
    }
    let span = layout.origin..layout.end();
    let row = |s: usize| &x.row(s)[span.clone()];
    let built = exec::par_collect_chunks(ranks.len(), threads, 8, |chunk| {
        let mut out: Vec<_> = chunk
            .clone()
            .map(|_| (PairSketch::empty(layout.count), finish.empty()))
            .collect();
        if chunk.is_empty() {
            return out;
        }
        let first = ranks.start + chunk.start;
        let (i0, j_first) = triangular::unrank(first, n);
        let (i1, j_last) = triangular::unrank(ranks.start + chunk.end - 1, n);
        // The chunk's pairs of row `i`: columns `lo..hi`, from slot `at`.
        let row_pairs = |i: usize| {
            let lo = if i == i0 { j_first } else { i + 1 };
            let hi = if i == i1 { j_last + 1 } else { n };
            (lo, hi, triangular::rank(i, lo, n) - first)
        };
        let mut dots = vec![[0.0; 4]; layout.count];
        let mut cs = vec![[None; 4]; layout.count];
        for block in (i0..=i1).step_by(BLOCK_ROWS) {
            let rows = block..(block + BLOCK_ROWS).min(i1 + 1);
            let j_start = rows.clone().map(|i| row_pairs(i).0).min().unwrap_or(n);
            let j_end = rows.clone().map(|i| row_pairs(i).1).max().unwrap_or(n);
            for j0 in (j_start..j_end).step_by(4) {
                // Lanes past the last series repeat it and are dropped.
                let ys = std::array::from_fn(|q| row((j0 + q).min(n - 1)));
                for i in rows.clone() {
                    let (lo, hi, at) = row_pairs(i);
                    let lanes = lo.max(j0) - j0..hi.clamp(j0, j0 + 4) - j0;
                    if lanes.is_empty() {
                        continue;
                    }
                    kernel::dot4_windows(row(i), ys, layout.width, &mut dots);
                    kernel::prefix_sums4([0.0; 4], &mut dots);
                    if let Some(m) = moments {
                        let mx = m.series(i);
                        let my: [&[(f64, f64)]; 4] =
                            std::array::from_fn(|q| m.series((j0 + q).min(n - 1)));
                        let mut prev = [0.0; 4];
                        for (b, (acc, c)) in dots.iter().zip(cs.iter_mut()).enumerate() {
                            *c = std::array::from_fn(|q| {
                                correlation(acc[q] - prev[q], m.n, mx[b], my[q][b])
                            });
                            prev = *acc;
                        }
                    }
                    let slot0 = at + j0 + lanes.start - lo;
                    let mut slots: [Option<&mut S::Out>; 4] = Default::default();
                    for (q, (sketch, done)) in lanes.zip(&mut out[slot0..]) {
                        sketch.cross_prefix.extend(dots.iter().map(|d| d[q]));
                        slots[q] = Some(done);
                    }
                    if moments.is_some() {
                        finish.fill(&cs, &mut dots, slots);
                    }
                }
            }
        }
        out
    });
    Ok(built.into_iter().unzip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::stats;

    fn rows() -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..30)
            .map(|t| (t as f64 * 0.9).sin() + 0.05 * t as f64)
            .collect();
        let y: Vec<f64> = (0..30)
            .map(|t| (t as f64 * 0.9).cos() - 0.02 * t as f64)
            .collect();
        (x, y)
    }

    #[test]
    fn cross_sums_match_direct() {
        let (x, y) = rows();
        let layout = BasicWindowLayout::cover(0, 30, 5).unwrap();
        let p = PairSketch::build(&layout, &x, &y).unwrap();
        assert_eq!(p.count(), 6);
        for b0 in 0..6 {
            for b1 in (b0 + 1)..=6 {
                let direct: f64 = (layout.origin + b0 * 5..layout.origin + b1 * 5)
                    .map(|t| x[t] * y[t])
                    .sum();
                assert!((p.cross_sum(b0, b1) - direct).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn basic_correlation_matches_pearson() {
        let (x, y) = rows();
        let layout = BasicWindowLayout::cover(0, 30, 6).unwrap();
        let m = TimeSeriesMatrix::from_rows(vec![x.clone(), y.clone()]).unwrap();
        let store = SketchStore::build(&m, layout).unwrap();
        let p = PairSketch::build(&layout, &x, &y).unwrap();
        for b in 0..layout.count {
            let (t0, t1) = layout.time_range(b);
            let expected = stats::pearson(&x[t0..t1], &y[t0..t1]).unwrap();
            let got = p.basic_correlation(&store, 0, 1, b).unwrap();
            assert!((got - expected).abs() < 1e-9, "bw {b}: {got} vs {expected}");
        }
    }

    #[test]
    fn constant_window_correlation_is_none() {
        let x = vec![1.0; 12];
        let y: Vec<f64> = (0..12).map(|t| t as f64).collect();
        let layout = BasicWindowLayout::cover(0, 12, 4).unwrap();
        let m = TimeSeriesMatrix::from_rows(vec![x.clone(), y.clone()]).unwrap();
        let store = SketchStore::build(&m, layout).unwrap();
        let p = PairSketch::build(&layout, &x, &y).unwrap();
        assert!(p.basic_correlation(&store, 0, 1, 0).is_none());
    }

    #[test]
    fn append_matches_fresh_build() {
        let (x, y) = rows();
        let small = BasicWindowLayout::cover(0, 15, 5).unwrap();
        let mut p = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        let grown = BasicWindowLayout::cover(0, 30, 5).unwrap();
        assert_eq!(p.append_tail(&grown, &x, &y, 0).unwrap(), 3);
        let fresh = PairSketch::build(&grown, &x, &y).unwrap();
        assert_eq!(p, fresh);
        // Idempotent when nothing new is complete.
        assert_eq!(p.append_tail(&grown, &x, &y, 0).unwrap(), 0);
    }

    #[test]
    fn append_tail_matches_full_append() {
        // Extending from only the new columns (evicted history) must be
        // bit-identical to extending from the full rows.
        let (x, y) = rows();
        let small = BasicWindowLayout::cover(0, 15, 5).unwrap();
        let mut p = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        let grown = BasicWindowLayout::cover(0, 30, 5).unwrap();
        assert_eq!(p.append_tail(&grown, &x[15..], &y[15..], 15).unwrap(), 3);
        let fresh = PairSketch::build(&grown, &x, &y).unwrap();
        assert_eq!(p, fresh);
        // A tail starting after the first new window leaves a gap.
        let mut q = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        assert!(q.append_tail(&grown, &x[20..], &y[20..], 20).is_err());
    }

    #[test]
    fn append_validates() {
        let (x, y) = rows();
        let small = BasicWindowLayout::cover(0, 15, 5).unwrap();
        let mut p = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        let grown = BasicWindowLayout::cover(0, 30, 5).unwrap();
        assert!(p.append_tail(&grown, &x[..20], &y, 0).is_err()); // length mismatch
        assert!(p.append_tail(&grown, &x[..20], &y[..20], 0).is_err()); // too short
        let shrunk = BasicWindowLayout::cover(0, 10, 5).unwrap();
        assert!(p.append_tail(&shrunk, &x, &y, 0).is_err());
    }

    #[test]
    fn build_all_matches_per_pair_builds_at_any_thread_count() {
        // Long rows (40 basic windows of 64) through the strip kernel,
        // against per-pair builds: the 36 pairs make strips of 4 and row
        // ends of 3, 2 and 1 pairs.
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|s| {
                (0..2560)
                    .map(|t| ((t + 3 * s) as f64 * 0.37).sin() + 0.01 * (s as f64))
                    .collect()
            })
            .collect();
        let x = TimeSeriesMatrix::from_rows(rows).unwrap();
        let layout = BasicWindowLayout::cover(0, 2560, 64).unwrap();
        let mut expected = Vec::new();
        for i in 0..9 {
            for j in (i + 1)..9 {
                expected.push(PairSketch::build(&layout, x.row(i), x.row(j)).unwrap());
            }
        }
        for threads in [1, 2, 8] {
            let got = build_all(&layout, &x, threads).unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn build_range_matches_build_all_subslice() {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|s| {
                (0..120)
                    .map(|t| ((t + 5 * s) as f64 * 0.23).sin() + 0.02 * (s as f64))
                    .collect()
            })
            .collect();
        let x = TimeSeriesMatrix::from_rows(rows).unwrap();
        let layout = BasicWindowLayout::cover(0, 120, 10).unwrap();
        let all = build_all(&layout, &x, 1).unwrap();
        let n_pairs = all.len();
        for (start, end) in [
            (0usize, n_pairs),
            (0, 7),
            (7, 8),
            (5, 21),
            (n_pairs, n_pairs),
        ] {
            for threads in [1, 4] {
                let got = build_range(&layout, &x, start..end, threads).unwrap();
                assert_eq!(
                    got,
                    all[start..end],
                    "range {start}..{end} threads={threads}"
                );
            }
        }
        // Out-of-triangle ranges are rejected.
        assert!(build_range(&layout, &x, 0..n_pairs + 1, 1).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..4;
        assert!(build_range(&layout, &x, reversed, 1).is_err());
    }

    #[test]
    fn every_rank_interval_matches_per_pair_builds() {
        // Every start and every length 0..=10 of a 9-series triangle, so
        // strips are cut mid-row, at row ends and at chunk ends with
        // m = 1..=4; at a basic-window width divisible by 4 and one that
        // is not (the kernel's remainder lanes).
        let n = 9;
        for width in [24usize, 10] {
            let len = 5 * width + 3;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|s| {
                    (0..len)
                        .map(|t| ((t * (s + 2)) as f64 * 0.29).cos() - 0.03 * s as f64)
                        .collect()
                })
                .collect();
            let x = TimeSeriesMatrix::from_rows(rows).unwrap();
            let layout = BasicWindowLayout::cover(2, len, width).unwrap();
            let expected: Vec<PairSketch> = (0..triangular::count(n))
                .map(|k| {
                    let (i, j) = triangular::unrank(k, n);
                    PairSketch::build(&layout, x.row(i), x.row(j)).unwrap()
                })
                .collect();
            for start in 0..=expected.len() {
                for end in start..=(start + 10).min(expected.len()) {
                    for threads in [1, 2, 8] {
                        let got = build_range(&layout, &x, start..end, threads).unwrap();
                        assert_eq!(
                            got,
                            expected[start..end],
                            "width={width} ranks {start}..{end} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn build_all_validates_layout() {
        let x = TimeSeriesMatrix::from_rows(vec![vec![0.0; 10], vec![1.0; 10]]).unwrap();
        let layout = BasicWindowLayout::cover(0, 20, 5).unwrap();
        assert!(build_all(&layout, &x, 2).is_err());
    }

    #[test]
    fn build_validates_inputs() {
        let layout = BasicWindowLayout::cover(0, 30, 5).unwrap();
        let x = vec![0.0; 30];
        let y = vec![0.0; 29];
        assert!(PairSketch::build(&layout, &x, &y).is_err());
        let short = vec![0.0; 20];
        assert!(PairSketch::build(&layout, &short, &short).is_err());
    }
}
