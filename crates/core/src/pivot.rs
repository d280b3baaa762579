//! Horizontal (triangle-inequality) pruning support.
//!
//! A pivot series `z` is correlated against *every* series once per window
//! (O(N·γ) sketch combines — linear, not quadratic). For any pair `(x, y)`
//! the PSD-ness of correlation matrices then confines `c_xy` to
//! `c_xz·c_yz ± √((1−c_xz²)(1−c_yz²))`; pairs whose upper bound stays below
//! `β` never need an exact evaluation. Unlike the Eq. 2 jump this bound is
//! unconditional, so horizontal pruning never costs accuracy.
//!
//! The table has two readers, both through [`PivotSet::interval4`]: the
//! [`BoundMode::Exhaustive`](crate::BoundMode::Exhaustive) walk, four
//! windows per block, and the wholesale pair prefilter
//! [`PivotSet::pair_never_edges_in`], which runs only where pair sketches
//! are built on demand. The PaperJump walk reads neither, so it needs no
//! table (see `PairState::pivots_read`).
//!
//! The table is maintained *incrementally*: [`PivotSet::append_windows`]
//! grows it window-by-window from already-updated sketches, which is what
//! lets [`crate::streaming::StreamingDangoron`] prune its exhaustive drains
//! without ever rebuilding pivot state — the per-drain cost stays
//! O(n_pivots · N · Δwindows).

use crate::config::PivotStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch::output::EdgeRule;
use sketch::{combine, triangular, BasicWindowLayout, PairSketch, SketchStore, SlidingQuery};
use tsdata::{TimeSeriesMatrix, TsError};

/// Pivot indices plus their per-window correlations to every series.
#[derive(Debug, Clone)]
pub struct PivotSet {
    /// The pivot series indices.
    pub pivots: Vec<usize>,
    n_series: usize,
    n_windows: usize,
    /// `cols[p·N + s][w]` = corr(pivot p, series s) in window w: one
    /// column of windows per (pivot, series) cell, so four consecutive
    /// windows of one endpoint are contiguous for a pair-major walk
    /// ([`PivotSet::interval4`]) and new windows push onto the column
    /// ends. `NaN` marks undefined (zero-variance) windows, which never
    /// prune.
    cols: Vec<Vec<f64>>,
}

/// Picks pivot indices for a strategy.
pub fn select_pivots(
    strategy: &PivotStrategy,
    n_pivots: usize,
    n_series: usize,
) -> Result<Vec<usize>, TsError> {
    if n_series == 0 {
        return Err(TsError::Empty);
    }
    let k = n_pivots.min(n_series);
    let mut pivots = match strategy {
        PivotStrategy::Evenly => (0..k).map(|p| p * n_series / k).collect::<Vec<_>>(),
        PivotStrategy::Random { seed } => {
            // Seeded partial Fisher–Yates: O(n_series) worst case, unlike
            // rejection sampling which degrades as k → n_series.
            let mut rng = StdRng::seed_from_u64(*seed);
            let mut idx: Vec<usize> = (0..n_series).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n_series);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        }
        PivotStrategy::Explicit(list) => {
            for &p in list {
                if p >= n_series {
                    return Err(TsError::OutOfRange {
                        requested: p,
                        available: n_series,
                    });
                }
            }
            list.clone()
        }
    };
    pivots.sort_unstable();
    pivots.dedup();
    if pivots.is_empty() {
        return Err(TsError::InvalidParameter("no pivots selected".into()));
    }
    Ok(pivots)
}

impl PivotSet {
    /// An empty table (zero windows) — the starting point for sessions
    /// that grow it via [`PivotSet::append_windows`].
    pub fn empty(pivots: Vec<usize>, n_series: usize) -> Self {
        let n_cells = pivots.len() * n_series;
        Self {
            pivots,
            n_series,
            n_windows: 0,
            cols: vec![Vec::new(); n_cells],
        }
    }

    /// Builds pivot-to-all correlations for every window of `query`, with
    /// `threads` workers stealing `(pivot, series)` cells.
    ///
    /// When the caller has already materialised all pair sketches (the
    /// Precomputed storage mode), pass them as `pairs` (in
    /// [`triangular::rank`] order) and the build skips the per-cell O(L)
    /// sketch construction; otherwise each cell builds its own transient
    /// sketch. Cost: `O(n_pivots · N · (L + γ) / threads)`.
    pub fn build(
        x: &TimeSeriesMatrix,
        store: &SketchStore,
        layout: &BasicWindowLayout,
        query: &SlidingQuery,
        pivots: Vec<usize>,
        pairs: Option<&[PairSketch]>,
        threads: usize,
    ) -> Result<Self, TsError> {
        let _timer = obs::stages::span(obs::stages::Stage::PivotBuild);
        let n = x.n_series();
        let n_windows = query.n_windows();
        // Precompute the basic-window range of every window once.
        let mut ranges = Vec::with_capacity(n_windows);
        for w in 0..n_windows {
            let (ws, we) = query.window_range(w);
            ranges.push(layout.window_to_basic(ws, we)?);
        }

        // One column of per-window correlations per (pivot, series) cell —
        // the table's own layout; cells are independent, so workers steal
        // them.
        let cells: Vec<Result<Vec<f64>, TsError>> =
            exec::par_collect_chunks(pivots.len() * n, threads, 1, |range| {
                range
                    .map(|cell| {
                        let (p, s) = (cell / n, cell % n);
                        let z = pivots[p];
                        if s == z {
                            // corr(z, z) = 1 in every window.
                            return Ok(vec![1.0; n_windows]);
                        }
                        let owned;
                        let sketch: &PairSketch = match pairs {
                            Some(all) => &all[triangular::rank(z.min(s), z.max(s), n)],
                            None => {
                                owned = PairSketch::build(layout, x.row(z), x.row(s))?;
                                &owned
                            }
                        };
                        Ok(ranges
                            .iter()
                            .map(|&(b0, b1)| {
                                combine::window_correlation(store, sketch, z, s, b0, b1)
                                    .unwrap_or(f64::NAN)
                            })
                            .collect())
                    })
                    .collect()
            });
        Ok(Self {
            cols: cells.into_iter().collect::<Result<_, _>>()?,
            pivots,
            n_series: n,
            n_windows,
        })
    }

    /// Extends the table to cover `total_windows` windows, computing only
    /// the new windows' pivot-to-all correlations. Window `w` spans basic
    /// windows `[w·step_bw, w·step_bw + ns)`; `corr_of(z, s, b0, b1)`
    /// supplies the exact correlation from the caller's (incrementally
    /// updated) sketches, `NaN` when undefined.
    ///
    /// This is the streaming maintenance path: per append it costs
    /// O(n_pivots · N · Δwindows) sketch combines and never rescans
    /// history.
    pub fn append_windows(
        &mut self,
        total_windows: usize,
        ns: usize,
        step_bw: usize,
        corr_of: impl Fn(usize, usize, usize, usize) -> f64,
    ) {
        let (n, new) = (self.n_series, self.n_windows..total_windows);
        for (cell, col) in self.cols.iter_mut().enumerate() {
            let (z, s) = (self.pivots[cell / n], cell % n);
            col.extend(new.clone().map(|w| {
                let b0 = w * step_bw;
                if s == z {
                    1.0
                } else {
                    corr_of(z, s, b0, b0 + ns)
                }
            }));
        }
        self.n_windows = self.n_windows.max(total_windows);
    }

    /// Number of windows covered.
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    /// Resident bytes of the correlation table.
    pub fn memory_bytes(&self) -> usize {
        let cells: usize = self.cols.iter().map(Vec::capacity).sum();
        cells * std::mem::size_of::<f64>()
    }

    /// Triangle intervals `[lo, hi]` on `c_ij` for the four windows
    /// `w .. w + 4` at once, lane `l` holding window `w + l`: each usable
    /// pivot's two four-window runs go through one
    /// [`kernel::triangle_fold4`], which skips NaN lanes. A pivot that is
    /// `i` or `j` itself is skipped (the bound would be circular), and a
    /// lane no pivot informs stays `(−1, 1)`. Lanes past the table's last
    /// window repeat that window, so a final partial block needs no
    /// special case.
    ///
    /// The fold stops before the next pivot once every lane settles
    /// under `rule` at `beta`: more pivots can only tighten an interval,
    /// so they could not unsettle a lane. Each lane therefore settles
    /// exactly when the intersection over every usable pivot does, and
    /// when some lane does not, every pivot was folded and every lane is
    /// that full intersection — exact in any order (a tie between `±0`
    /// may keep either sign, which no comparison can tell apart).
    ///
    /// `inline(always)` puts it, and the fold, inside each instance of
    /// the exhaustive walk and of the wholesale prefilter, including their
    /// `avx2,fma` ones.
    #[inline(always)]
    pub fn interval4(
        &self,
        i: usize,
        j: usize,
        w: usize,
        rule: EdgeRule,
        beta: f64,
    ) -> ([f64; 4], [f64; 4]) {
        debug_assert!(i < self.n_series && j < self.n_series && w < self.n_windows);
        let (n, last) = (self.n_series, self.n_windows - 1);
        let (mut lo, mut hi) = ([-1.0f64; 4], [1.0f64; 4]);
        for (p, &z) in self.pivots.iter().enumerate() {
            // Using the pivot as one endpoint would be circular.
            if z == i || z == j {
                continue;
            }
            if (0..4).all(|l| settles(rule, beta, lo[l], hi[l])) {
                break;
            }
            let run = |s: usize| -> [f64; 4] {
                let col = &self.cols[p * n + s];
                std::array::from_fn(|l| col[(w + l).min(last)])
            };
            kernel::triangle_fold4(&run(i), &run(j), &mut lo, &mut hi);
        }
        (lo, hi)
    }

    /// Rule-aware pair-level prefilter over windows `[w0, w1)`: true when
    /// none of those windows can produce an edge under `rule` at `beta` —
    /// the walk over that window range can be skipped wholesale.
    ///
    /// Brackets four windows per [`PivotSet::interval4`], the exhaustive
    /// walk's settle-aware fold, so each window settles exactly when the
    /// intersection over every usable pivot settles it; lanes past `w1`
    /// are ignored. On a CPU with AVX2 and FMA it runs compiled for both,
    /// chosen once per call by [`kernel::avx2_active`].
    pub fn pair_never_edges_in(
        &self,
        i: usize,
        j: usize,
        beta: f64,
        rule: EdgeRule,
        w0: usize,
        w1: usize,
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if kernel::avx2_active() {
            // SAFETY: `avx2_active` confirmed that this CPU has AVX2 and
            // FMA (statically or by detection), the only requirement
            // `never_edges_fma` adds.
            return unsafe { self.never_edges_fma(i, j, beta, rule, w0, w1) };
        }
        self.never_edges(i, j, beta, rule, w0, w1)
    }

    /// [`PivotSet::never_edges`] compiled for AVX2+FMA. Sound to call only
    /// on a CPU with AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn never_edges_fma(
        &self,
        i: usize,
        j: usize,
        beta: f64,
        rule: EdgeRule,
        w0: usize,
        w1: usize,
    ) -> bool {
        self.never_edges(i, j, beta, rule, w0, w1)
    }

    /// The body of [`PivotSet::pair_never_edges_in`], `inline(always)`
    /// into each of its instances.
    #[inline(always)]
    fn never_edges(
        &self,
        i: usize,
        j: usize,
        beta: f64,
        rule: EdgeRule,
        w0: usize,
        w1: usize,
    ) -> bool {
        debug_assert!(w1 <= self.n_windows);
        // A plain loop: an iterator adapter's fold would be left out of
        // line, outside the `avx2,fma` instance.
        let mut w = w0;
        while w < w1 {
            let (lo, hi) = self.interval4(i, j, w, rule, beta);
            if !(0..4.min(w1 - w)).all(|l| settles(rule, beta, lo[l], hi[l])) {
                return false;
            }
            w += 4;
        }
        true
    }
}

/// True when the interval `[lo, hi]` on a correlation excludes every
/// value `rule` keeps at `beta` — the triangle settles the window.
#[inline]
pub(crate) fn settles(rule: EdgeRule, beta: f64, lo: f64, hi: f64) -> bool {
    match rule {
        EdgeRule::Positive => hi < beta,
        EdgeRule::Absolute => hi < beta && lo > -beta,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tsdata::generators;

    /// The one-window triangle reference: for each `(c_iz, c_jz)` with
    /// neither NaN, `c_iz·c_jz ± √((1−c_iz²)(1−c_jz²))` clamped to
    /// `[−1, 1]`, intersected over all of them from `(−1, 1)`. The
    /// radicands are the fused `mul_add`s of `kernel::triangle_fold4` and
    /// every clamp and intersection is a compare-select, so a lane of the
    /// fold equals it under `==`.
    pub(crate) fn triangle_reference(cs: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
        let (mut lo, mut hi) = (-1.0f64, 1.0f64);
        for (iz, jz) in cs {
            if iz.is_nan() || jz.is_nan() {
                continue;
            }
            let u = (-iz).mul_add(iz, 1.0);
            let v = (-jz).mul_add(jz, 1.0);
            let rad = (if u > 0.0 { u } else { 0.0 } * if v > 0.0 { v } else { 0.0 }).sqrt();
            let (plo, phi) = (iz * jz - rad, iz * jz + rad);
            if plo > lo {
                lo = plo;
            }
            if phi < hi {
                hi = phi;
            }
        }
        (lo, hi)
    }

    /// [`triangle_reference`] of pair `(i, j)` at window `w` of `pv`, over
    /// every pivot other than `i` and `j`.
    pub(crate) fn window_interval(pv: &PivotSet, i: usize, j: usize, w: usize) -> (f64, f64) {
        let n = pv.n_series;
        triangle_reference(
            pv.pivots
                .iter()
                .enumerate()
                .filter(|&(_, &z)| z != i && z != j)
                .map(|(p, _)| (pv.cols[p * n + i][w], pv.cols[p * n + j][w])),
        )
    }

    fn setup(
        n: usize,
    ) -> (
        TimeSeriesMatrix,
        SketchStore,
        BasicWindowLayout,
        SlidingQuery,
    ) {
        let x = generators::clustered_matrix(n, 240, 2, 0.5, 3).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 240,
            window: 60,
            step: 20,
            threshold: 0.8,
        };
        let layout = BasicWindowLayout::for_query(&query, 20).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        (x, store, layout, query)
    }

    fn build(
        x: &TimeSeriesMatrix,
        store: &SketchStore,
        layout: &BasicWindowLayout,
        query: &SlidingQuery,
        pivots: Vec<usize>,
    ) -> PivotSet {
        PivotSet::build(x, store, layout, query, pivots, None, 1).unwrap()
    }

    /// The table's bits, column by column.
    fn bits(pv: &PivotSet) -> Vec<Vec<u64>> {
        pv.cols
            .iter()
            .map(|col| col.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn select_evenly_and_random() {
        let p = select_pivots(&PivotStrategy::Evenly, 3, 12).unwrap();
        assert_eq!(p, vec![0, 4, 8]);
        let p = select_pivots(&PivotStrategy::Random { seed: 5 }, 3, 12).unwrap();
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|&i| i < 12));
        // Deterministic per seed.
        assert_eq!(
            p,
            select_pivots(&PivotStrategy::Random { seed: 5 }, 3, 12).unwrap()
        );
        // More pivots than series degrades gracefully.
        let p = select_pivots(&PivotStrategy::Evenly, 10, 4).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_random_handles_k_near_n() {
        // The old rejection sampler degenerated here; Fisher–Yates must
        // return all indices, distinct, in O(n).
        for n in [1usize, 2, 7, 50] {
            let p = select_pivots(&PivotStrategy::Random { seed: 42 }, n, n).unwrap();
            assert_eq!(p.len(), n, "n={n}");
            assert_eq!(p, (0..n).collect::<Vec<_>>(), "sorted+deduped, n={n}");
            // k = n − 1 is the classic worst case for rejection sampling.
            if n > 1 {
                let p = select_pivots(&PivotStrategy::Random { seed: 42 }, n - 1, n).unwrap();
                assert_eq!(p.len(), n - 1);
                assert!(p.windows(2).all(|w| w[0] < w[1]), "distinct, n={n}");
            }
        }
    }

    #[test]
    fn select_explicit_validates() {
        let p = select_pivots(&PivotStrategy::Explicit(vec![3, 1, 3]), 2, 5).unwrap();
        assert_eq!(p, vec![1, 3]); // sorted, deduped
        assert!(select_pivots(&PivotStrategy::Explicit(vec![9]), 1, 5).is_err());
    }

    #[test]
    fn pivot_correlations_are_exact() {
        let (x, store, layout, query) = setup(6);
        let pv = build(&x, &store, &layout, &query, vec![0]);
        // Check against direct computation for a few (series, window) cells.
        for s in 1..6 {
            for w in 0..query.n_windows() {
                let (ws, we) = query.window_range(w);
                let direct = tsdata::stats::pearson(&x.row(0)[ws..we], &x.row(s)[ws..we]).unwrap();
                let stored = pv.cols[s][w];
                assert!((direct - stored).abs() < 1e-9, "s={s} w={w}");
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_and_reuses_pairs() {
        let (x, store, layout, query) = setup(9);
        let seq = build(&x, &store, &layout, &query, vec![0, 4]);
        for threads in [2, 8] {
            let par =
                PivotSet::build(&x, &store, &layout, &query, vec![0, 4], None, threads).unwrap();
            assert_eq!(bits(&seq), bits(&par), "threads={threads}");
        }
        // Building from precomputed pair sketches gives the same table.
        let pairs = sketch::pair::build_all(&layout, &x, 1).unwrap();
        let reused =
            PivotSet::build(&x, &store, &layout, &query, vec![0, 4], Some(&pairs), 2).unwrap();
        assert_eq!(bits(&seq), bits(&reused));
    }

    #[test]
    fn append_windows_matches_batch_build() {
        // Growing the table window-by-window from sketches must reproduce
        // the batch build exactly.
        let (x, store, layout, query) = setup(8);
        let batch = build(&x, &store, &layout, &query, vec![0, 4]);
        let pairs = sketch::pair::build_all(&layout, &x, 1).unwrap();
        let ns = layout.windows_per_query(query.window);
        let step_bw = query.step / layout.width;

        let mut grown = PivotSet::empty(vec![0, 4], 8);
        // Two uneven growth steps.
        for total in [2, query.n_windows()] {
            grown.append_windows(total, ns, step_bw, |z, s, b0, b1| {
                let p = &pairs[triangular::rank(z.min(s), z.max(s), 8)];
                combine::window_correlation(&store, p, z, s, b0, b1).unwrap_or(f64::NAN)
            });
        }
        assert_eq!(grown.n_windows(), batch.n_windows());
        assert_eq!(bits(&grown), bits(&batch));
        // Idempotent when nothing new completes.
        let before = bits(&grown);
        grown.append_windows(query.n_windows(), ns, step_bw, |_, _, _, _| f64::NAN);
        assert_eq!(before, bits(&grown));
    }

    #[test]
    fn batch_memory_is_exactly_the_table() {
        // n_pivots · N · n_windows f64s, no slack: the batch build keeps
        // each cell's exactly sized column.
        let (x, store, layout, query) = setup(9);
        for pivots in [vec![0], vec![0, 4, 7]] {
            let k = pivots.len();
            let pv = build(&x, &store, &layout, &query, pivots);
            assert_eq!(pv.memory_bytes(), k * 9 * query.n_windows() * 8);
        }
    }

    /// Six series with NaN pivot windows: series 2 is constant, series 4
    /// is constant in some windows. Pivots 0, 2 and 4 sit inside and
    /// outside the pairs.
    fn nan_lane_table() -> PivotSet {
        let mut rows: Vec<Vec<f64>> = (0..6)
            .map(|s| {
                (0..240)
                    .map(|t| ((t * (s + 2)) as f64 * 0.11).sin() + 0.01 * (s * t) as f64)
                    .collect()
            })
            .collect();
        rows[2] = vec![3.5; 240];
        rows[4][60..120].fill(-1.0);
        let x = TimeSeriesMatrix::from_rows(rows).unwrap();
        let (_, _, layout, query) = setup(6);
        let store = SketchStore::build(&x, layout).unwrap();
        let pv = build(&x, &store, &layout, &query, vec![0, 2, 4]);
        assert!(
            pv.cols[4].iter().any(|v| v.is_nan()),
            "want NaN pivot lanes"
        );
        pv
    }

    #[test]
    fn interval4_lanes_equal_interval() {
        // Every four-window run, with runs overhanging the table's end,
        // whose lanes repeat its last window. β = −∞ settles nothing, so
        // every pivot is folded.
        let pv = nan_lane_table();
        for i in 0..6 {
            for j in (i + 1)..6 {
                for w in 0..pv.n_windows() {
                    let (lo, hi) = pv.interval4(i, j, w, EdgeRule::Positive, f64::NEG_INFINITY);
                    for l in 0..4 {
                        let lane_w = (w + l).min(pv.n_windows() - 1);
                        let (slo, shi) = window_interval(&pv, i, j, lane_w);
                        assert!(lo[l] == slo && hi[l] == shi, "({i},{j}) run {w} lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn settle_aware_interval4_settles_the_lanes_the_full_fold_settles() {
        // Against the full fold over every pivot (`window_interval`):
        // the same lanes settle under both rules at every β, and a run in
        // which some lane does not settle gives every lane the full fold's
        // (lo, hi). The β range makes whole runs settle on their first
        // usable pivot, some lanes of a run settle, and none settle; the
        // clustered table's four pivots each tighten different lanes.
        let (x, store, layout, query) = setup(8);
        let clustered = build(&x, &store, &layout, &query, vec![0, 1, 4, 5]);
        let mut stopped_early = 0;
        for pv in [nan_lane_table(), clustered] {
            let n = pv.n_series;
            for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
                for beta in [0.2, 0.5, 0.8, 0.95, 1.0, 1.5] {
                    for i in 0..n {
                        for j in (i + 1)..n {
                            for w in 0..pv.n_windows() {
                                let (lo, hi) = pv.interval4(i, j, w, rule, beta);
                                let full: [(f64, f64); 4] = std::array::from_fn(|l| {
                                    window_interval(&pv, i, j, (w + l).min(pv.n_windows() - 1))
                                });
                                let what = format!("{rule:?} beta={beta} ({i},{j}) run {w}");
                                let settled: [bool; 4] =
                                    std::array::from_fn(|l| settles(rule, beta, lo[l], hi[l]));
                                for (l, &(flo, fhi)) in full.iter().enumerate() {
                                    assert_eq!(
                                        settled[l],
                                        settles(rule, beta, flo, fhi),
                                        "{what} lane {l}"
                                    );
                                }
                                if settled.contains(&false) {
                                    for (l, &(flo, fhi)) in full.iter().enumerate() {
                                        assert!(lo[l] == flo && hi[l] == fhi, "{what} lane {l}");
                                    }
                                } else if (0..4).any(|l| (lo[l], hi[l]) != full[l]) {
                                    stopped_early += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(stopped_early > 0, "no run stopped before its last pivot");
    }

    #[test]
    fn a_bracket_settles_only_when_the_rule_keeps_none_of_it() {
        // Brackets below, across and above ±β, touching β exactly, and
        // wholly negative ones the absolute rule must keep.
        let beta = 0.5;
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            for (lo, hi) in [
                (-1.0, -0.7),
                (-0.9, 0.2),
                (-0.5, 0.3),
                (-0.3, 0.4),
                (0.1, 0.5),
                (0.6, 1.0),
                (-1.0, 1.0),
            ] {
                let any_kept = (0..=200)
                    .map(|k| lo + (hi - lo) * k as f64 / 200.0)
                    .any(|c| rule.keeps(c, beta));
                assert_eq!(
                    settles(rule, beta, lo, hi),
                    !any_kept,
                    "{rule:?} [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn upper_bound_is_sound_everywhere() {
        let (x, store, layout, query) = setup(8);
        let pv = build(&x, &store, &layout, &query, vec![0, 4]);
        for i in 0..8 {
            for j in (i + 1)..8 {
                for w in 0..query.n_windows() {
                    let (ws, we) = query.window_range(w);
                    let truth =
                        tsdata::stats::pearson(&x.row(i)[ws..we], &x.row(j)[ws..we]).unwrap();
                    let ub = window_interval(&pv, i, j, w).1;
                    assert!(
                        truth <= ub + 1e-9,
                        "pair ({i},{j}) window {w}: {truth} > {ub}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_prefilter_agrees_with_bounds() {
        let (x, store, layout, query) = setup(8);
        let pv = build(&x, &store, &layout, &query, vec![0, 4]);
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    let never = pv.pair_never_edges_in(i, j, 0.8, rule, 0, pv.n_windows());
                    let manual = (0..query.n_windows()).all(|w| {
                        let (lo, hi) = window_interval(&pv, i, j, w);
                        hi < 0.8 && (rule == EdgeRule::Positive || lo > -0.8)
                    });
                    assert_eq!(never, manual, "{rule:?} pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn interval_and_prefilter_are_backend_invariant_on_nan_lanes() {
        // With the kernel dispatcher free (the prefilter's `avx2,fma`
        // instance on such a CPU) and forced to scalar, the prefilter's
        // four-window brackets settle a range exactly when the one-window
        // reference settles each of its windows: every `[w0, w1)` of the
        // ten windows, so partial last blocks too, under both rules.
        let pv = nan_lane_table();
        let nw = pv.n_windows();
        let pairs: Vec<(usize, usize)> = (0..6)
            .flat_map(|i| ((i + 1)..6).map(move |j| (i, j)))
            .collect();
        let mut outcomes = [0usize; 2];
        for forced in [false, true] {
            kernel::force_scalar(forced);
            for &(i, j) in &pairs {
                let brackets: Vec<(f64, f64)> =
                    (0..nw).map(|w| window_interval(&pv, i, j, w)).collect();
                for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
                    for beta in [0.2, 0.5, 0.8, 0.95] {
                        let settled: Vec<bool> = brackets
                            .iter()
                            .map(|&(lo, hi)| settles(rule, beta, lo, hi))
                            .collect();
                        for (w0, w1) in (0..=nw).flat_map(|w0| (w0..=nw).map(move |w1| (w0, w1))) {
                            let never = pv.pair_never_edges_in(i, j, beta, rule, w0, w1);
                            assert_eq!(
                                never,
                                settled[w0..w1].iter().all(|&s| s),
                                "forced={forced} {rule:?} beta={beta} ({i},{j}) [{w0}, {w1})"
                            );
                            outcomes[never as usize] += 1;
                        }
                    }
                }
            }
            kernel::force_scalar(false);
        }
        assert!(outcomes.iter().all(|&n| n > 0), "one outcome never seen");
    }

    #[test]
    fn pruning_actually_fires_on_clustered_data() {
        // Cross-cluster pairs should be prunable with in-cluster pivots.
        let (x, store, layout, query) = setup(10);
        let pv = build(&x, &store, &layout, &query, vec![0, 1]);
        let pruned = (0..10)
            .flat_map(|i| ((i + 1)..10).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                pv.pair_never_edges_in(i, j, 0.95, EdgeRule::Positive, 0, pv.n_windows())
            })
            .count();
        assert!(pruned > 0, "expected at least one wholesale-prunable pair");
    }
}
