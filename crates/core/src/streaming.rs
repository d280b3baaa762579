//! Real-time operation: a session that ingests new columns and emits the
//! newly completed windows' networks.
//!
//! The problem statement's first challenge is "efficiency of network
//! construction **and updates**". [`StreamingDangoron`] owns the growing
//! sketch state — per-series and per-pair prefixes plus, in jump mode,
//! the Eq. 2 departure-cost prefixes — and maintains all of it
//! incrementally: `SketchStore::append_tail`, then one pass per pair that
//! extends its sketch and its cost prefixes, touches only the new columns
//! — history is never rescanned. Each [`StreamingDangoron::append`] is
//! answered with the thresholded matrices of every window that became
//! complete.
//!
//! Both pruning mechanisms of the batch engine apply, one per bound mode:
//!
//! * **vertical jumping** (Eq. 2) over each drain's window suffix, under
//!   [`BoundMode::PaperJump`](crate::BoundMode::PaperJump), and
//! * **horizontal (triangle) pruning** of exhaustive drains via an
//!   incrementally maintained [`PivotSet`]: new windows' pivot-to-all
//!   correlations are extended column-by-column from the already-updated
//!   sketches ([`PivotSet::append_windows`]), so enabling
//!   [`DangoronConfig::horizontal`] costs O(n_pivots · N · Δwindows) per
//!   append — never a rebuild. The triangle bound is unconditional, so
//!   streamed results stay bit-identical to the exhaustive batch engine.
//!
//! The walk itself is the batch engine's pair walk over the same resident
//! pair state (`crate::state::PairState`), shifted into the global window
//! frame by [`WalkGeometry::offset_bw`]; no parallel streaming
//! implementation exists. A session's pair sketches are always resident,
//! so the wholesale pair prefilter — which runs only when a pair sketch
//! would be built on demand — never fires here, and
//! [`PruningStats::pairs_skipped_entirely`] stays zero. An exhaustive drain
//! settles windows with the triangle interval instead; a PaperJump drain
//! reads no pivot table, so a PaperJump session builds none. Raw history is
//! evicted as soon as it is absorbed into the sketch prefixes, so a
//! long-lived session holds O(N·n_b) sketch state plus less than one basic
//! window of raw columns — not the full stream.

use crate::bounds::PairCosts;
use crate::config::DangoronConfig;
use crate::engine::QueryResult;
use crate::pivot::PivotSet;
use crate::state::PairState;
use crate::stats::PruningStats;
use crate::walker::WalkGeometry;
use sketch::{combine, triangular, BasicWindowLayout, PairSketch, SlidingQuery, ThresholdedMatrix};
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// A long-lived streaming session.
///
/// Restrictions relative to the batch engine: pair sketches are always
/// materialised (the streaming state *is* the precomputed sketch set).
/// Horizontal pruning is supported under the exhaustive bound — the pivot
/// table is grown incrementally alongside the sketches.
///
/// ```
/// use dangoron::{DangoronConfig, StreamingDangoron};
/// use tsdata::generators;
///
/// let full = generators::clustered_matrix(6, 200, 2, 0.5, 9).unwrap();
/// let mut session = StreamingDangoron::new(
///     full.slice_columns(0, 80).unwrap(), // initial history
///     60,                                 // window
///     20,                                 // step
///     0.7,                                // threshold β
///     DangoronConfig { basic_window: 20, ..Default::default() },
/// ).unwrap();
/// let mut windows = session.drain_completed().unwrap();
/// windows.extend(session.append(&full.slice_columns(80, 200).unwrap()).unwrap());
/// // Every window the equivalent batch query would emit has streamed out,
/// // and its history buffer stayed below one basic window of raw columns.
/// assert_eq!(windows.len(), session.batch_query().n_windows());
/// assert!(session.history_len() < 20);
/// ```
pub struct StreamingDangoron {
    config: DangoronConfig,
    window: usize,
    step: usize,
    threshold: f64,
    /// Raw columns not yet absorbed into the sketches: global indices
    /// `[tail_start, tail_start + len)`. `None` ⇔ nothing retained.
    /// Invariant: `tail_start + len == total_cols`, and after every
    /// append `len < basic_window` (absorbed history is evicted).
    tail: Option<TimeSeriesMatrix>,
    tail_start: usize,
    total_cols: usize,
    /// Sketch store plus the resident pair sketches and cost prefixes of
    /// the rank interval this session walks — the full triangle for
    /// [`StreamingDangoron::new`], a shard for
    /// [`StreamingDangoron::new_sharded`].
    state: PairState<'static>,
    /// Pivot-pair sketches whose ranks fall **outside** the session's
    /// rank interval, sorted by rank — sharded sessions still need every
    /// (pivot, series) correlation to grow the pivot table. Empty when the
    /// session is unsharded (the main pair set covers them) or keeps no
    /// pivot table. Built and appended with the same kernels as the
    /// main set, so the table stays bit-identical to an unsharded
    /// session's.
    pivot_pairs: Vec<(usize, PairSketch)>,
    pivots: Option<PivotSet>,
    /// Cumulative pruning counters across all drains.
    stats: PruningStats,
    /// Counters of the most recent non-empty drain.
    last_drain_stats: PruningStats,
    emitted_windows: usize,
}

/// One newly completed window: its global index and its network.
#[derive(Debug, Clone)]
pub struct CompletedWindow {
    /// Global window index (consistent with the equivalent batch query).
    pub index: usize,
    /// The thresholded correlation matrix.
    pub matrix: ThresholdedMatrix,
}

impl StreamingDangoron {
    /// Opens a session over the initial history.
    ///
    /// `window`, `step` and `config.basic_window` must satisfy the usual
    /// alignment rules; the initial history may be shorter than one window
    /// (windows start flowing once enough data arrives).
    pub fn new(
        initial: TimeSeriesMatrix,
        window: usize,
        step: usize,
        threshold: f64,
        config: DangoronConfig,
    ) -> Result<Self, TsError> {
        let n_pairs = triangular::count(initial.n_series());
        Self::new_sharded(initial, window, step, threshold, config, 0..n_pairs)
    }

    /// [`StreamingDangoron::new`] restricted to a contiguous pair-rank
    /// shard of the [`triangular`] rank space — the distributed tier's
    /// streaming worker. The session materialises (and incrementally
    /// maintains) only the shard's pair sketches plus, when its drains read
    /// a pivot table, the out-of-shard pivot pairs; drains walk the shard
    /// only. Concatenating the drained edges of a partition of the
    /// triangle is bit-identical to an unsharded session's drains, and the
    /// per-shard stats sum to the unsharded counters.
    pub fn new_sharded(
        initial: TimeSeriesMatrix,
        window: usize,
        step: usize,
        threshold: f64,
        config: DangoronConfig,
        pair_range: Range<usize>,
    ) -> Result<Self, TsError> {
        config.validate()?;
        config.check_geometry(window, step, threshold)?;
        let b = config.basic_window;
        if initial.len() < b {
            return Err(TsError::TooShort {
                need: b,
                got: initial.len(),
            });
        }
        let layout = BasicWindowLayout::cover(0, initial.len(), b)?;
        let state = PairState::build(&initial, layout, pair_range, &config, None)?;
        let n = initial.n_series();
        let total_cols = initial.len();

        // Sharded sessions that keep a pivot table additionally keep the
        // out-of-shard pivot-pair sketches, so the table can keep growing
        // without the full triangle.
        let mut pivot_ranks: Vec<usize> = Vec::new();
        let chosen = match state.walked_pivots(&config)? {
            Some(chosen) => {
                for &z in &chosen {
                    for s in 0..n {
                        if s != z {
                            let p = triangular::rank(z.min(s), z.max(s), n);
                            if !state.ranks().contains(&p) {
                                pivot_ranks.push(p);
                            }
                        }
                    }
                }
                pivot_ranks.sort_unstable();
                pivot_ranks.dedup();
                Some(chosen)
            }
            None => None,
        };
        let pivot_pairs: Vec<(usize, PairSketch)> =
            exec::par_collect_chunks(pivot_ranks.len(), config.threads, 8, |range| {
                range
                    .map(|k| {
                        let p = pivot_ranks[k];
                        let (i, j) = triangular::unrank(p, n);
                        let sketch = PairSketch::build(&layout, initial.row(i), initial.row(j))
                            .expect("layout covers the initial history");
                        (p, sketch)
                    })
                    .collect()
            });

        // Keep only the raw columns the sketches have not absorbed yet.
        let covered = layout.end();
        let (tail, tail_start) = if covered < total_cols {
            (Some(initial.slice_columns(covered, total_cols)?), covered)
        } else {
            (None, total_cols)
        };

        let mut session = Self {
            config,
            window,
            step,
            threshold,
            tail,
            tail_start,
            total_cols,
            state,
            pivot_pairs,
            pivots: None,
            stats: PruningStats::default(),
            last_drain_stats: PruningStats::default(),
            emitted_windows: 0,
        };
        if let Some(chosen) = chosen {
            session.pivots = Some(PivotSet::empty(chosen, n));
            session.extend_pivots();
        }
        Ok(session)
    }

    /// The contiguous pair-rank interval this session walks.
    pub fn pair_range(&self) -> Range<usize> {
        self.state.ranks()
    }

    /// Raw columns currently buffered — only the (partial basic window)
    /// tail the sketches have not absorbed yet, so this stays below
    /// `basic_window` no matter how much data has streamed through.
    pub fn history_len(&self) -> usize {
        self.tail.as_ref().map_or(0, |t| t.len())
    }

    /// Total columns ingested since the session opened (the length of the
    /// equivalent batch history, including any evicted raw columns).
    pub fn ingested_cols(&self) -> usize {
        self.total_cols
    }

    /// Windows already emitted.
    pub fn emitted_windows(&self) -> usize {
        self.emitted_windows
    }

    /// Cumulative pruning counters across every drain so far.
    pub fn stats(&self) -> &PruningStats {
        &self.stats
    }

    /// Pruning counters of the most recent drain that walked new windows.
    pub fn last_drain_stats(&self) -> &PruningStats {
        &self.last_drain_stats
    }

    /// Ingests new columns and returns every window that became complete,
    /// in order. Sketches and the pivot table are extended incrementally
    /// (only the new columns are read); the walk runs only over the new
    /// windows.
    pub fn append(&mut self, new_cols: &TimeSeriesMatrix) -> Result<Vec<CompletedWindow>, TsError> {
        if new_cols.n_series() != self.n_series() {
            return Err(TsError::DimensionMismatch {
                expected: self.n_series(),
                found: new_cols.n_series(),
            });
        }
        match &mut self.tail {
            Some(t) => t.append_columns(new_cols)?,
            None => self.tail = Some(new_cols.clone()),
        }
        self.total_cols += new_cols.len();
        let tail = self.tail.as_ref().expect("tail was just filled");
        let threads = self.config.threads;
        self.state.append_tail(tail, self.tail_start, threads)?;
        // Out-of-shard pivot pairs grow by the same columns.
        let (layout, n) = (*self.state.store().layout(), self.n_series());
        exec::par_chunks_mut(&mut self.pivot_pairs, threads, |_, piece| {
            for (rank, sketch) in piece.iter_mut() {
                let (i, j) = triangular::unrank(*rank, n);
                sketch
                    .append_tail(&layout, tail.row(i), tail.row(j), self.tail_start)
                    .expect("pivot-pair/store layouts kept in lockstep");
            }
        });
        self.extend_pivots();
        self.evict_absorbed();
        self.drain_completed()
    }

    /// The session's own geometry over the whole current history.
    fn geometry(&self) -> WalkGeometry {
        WalkGeometry::for_query(&self.batch_query(), self.config.basic_window)
    }

    /// Grows the pivot table to cover every currently available window,
    /// reading correlations straight from the session's own sketches.
    fn extend_pivots(&mut self) {
        let geo = self.geometry();
        let (state, pivot_pairs, n) = (&self.state, &self.pivot_pairs, self.n_series());
        if let Some(pv) = &mut self.pivots {
            pv.append_windows(geo.n_windows, geo.ns, geo.step_bw, |z, s, b0, b1| {
                let rank = triangular::rank(z.min(s), z.max(s), n);
                let p = state.pair(rank).unwrap_or_else(|| {
                    let k = pivot_pairs
                        .binary_search_by_key(&rank, |(r, _)| *r)
                        .expect("out-of-shard pivot pairs are all materialised");
                    &pivot_pairs[k].1
                });
                combine::window_correlation(state.store(), p, z, s, b0, b1).unwrap_or(f64::NAN)
            });
        }
    }

    /// Drops raw columns the sketch prefixes have absorbed; global column
    /// indices stay stable because the layout keeps its origin.
    fn evict_absorbed(&mut self) {
        let covered = self.state.store().layout().end();
        if covered <= self.tail_start {
            return;
        }
        self.tail = match self.tail.take() {
            Some(t) if covered < self.tail_start + t.len() => Some(
                t.slice_columns(covered - self.tail_start, t.len())
                    .expect("non-empty remainder"),
            ),
            _ => None,
        };
        self.tail_start = covered.min(self.total_cols);
    }

    /// Emits any already-complete windows that have not been emitted yet
    /// (useful right after opening a session over a long history).
    pub fn drain_completed(&mut self) -> Result<Vec<CompletedWindow>, TsError> {
        let whole = self.geometry();
        let first_new = self.emitted_windows;
        if whole.n_windows <= first_new {
            return Ok(Vec::new());
        }
        let _timer = obs::stages::span(obs::stages::Stage::Drain);
        // Walk only the new suffix: a geometry whose local window 0 sits
        // at global window `first_new`.
        let geo = WalkGeometry {
            n_windows: whole.n_windows - first_new,
            offset_bw: first_new * whole.step_bw,
            ..whole
        };
        let result = self.state.walk(
            &self.config,
            self.state.ranks(),
            geo,
            self.threshold,
            self.pivots.as_ref(),
        );
        // Keep both the per-drain counters and the session-cumulative ones.
        self.stats.merge(&result.stats);
        self.last_drain_stats = result.stats;
        let out = result
            .matrices
            .into_iter()
            .enumerate()
            .map(|(k, matrix)| CompletedWindow {
                index: first_new + k,
                matrix,
            })
            .collect();
        self.emitted_windows = whole.n_windows;
        Ok(out)
    }

    /// The equivalent batch query over the whole current history — for
    /// verification and for re-running with different parameters.
    pub fn batch_query(&self) -> SlidingQuery {
        SlidingQuery {
            start: 0,
            end: self.state.store().layout().end(),
            window: self.window,
            step: self.step,
            threshold: self.threshold,
        }
    }

    /// The window length this session drains with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The step this session drains with.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The threshold `β` this session drains with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of series in the session's matrix.
    pub fn n_series(&self) -> usize {
        self.state.store().n_series()
    }

    /// The engine configuration the session was opened with.
    pub fn config(&self) -> &DangoronConfig {
        &self.config
    }

    /// Bytes of resident state: sketch prefixes, pair sketches, Eq. 2
    /// cost prefixes, the pivot table and out-of-shard pivot pairs when
    /// the drains read them, and the unabsorbed raw tail. This
    /// is what a serving tier accounts against its memory budget — it is
    /// the part of the session that grows with the stream.
    pub fn memory_bytes(&self) -> usize {
        let pairs: usize = self
            .state
            .resident()
            .iter()
            .map(PairSketch::memory_bytes)
            .sum();
        let pivot_pairs: usize = self
            .pivot_pairs
            .iter()
            .map(|(_, p)| p.memory_bytes() + std::mem::size_of::<usize>())
            .sum();
        let costs: usize = self.state.costs().iter().map(PairCosts::memory_bytes).sum();
        let pivots = self.pivots.as_ref().map_or(0, PivotSet::memory_bytes);
        let tail = self
            .tail
            .as_ref()
            .map_or(0, |t| t.n_series() * t.len() * std::mem::size_of::<f64>());
        self.state.store().memory_bytes() + pairs + pivot_pairs + costs + pivots + tail
    }

    /// Answers an **ad-hoc** `(window, step, threshold)` query from the
    /// resident sketch state — the serving tier's shared-prepare path.
    ///
    /// Sketch prefixes are query-independent, so a resident session can
    /// answer any aligned query without touching the raw history or
    /// re-paying the prepare phase: this walks the full current history
    /// with the same pair walk the batch engine uses, and the edges are
    /// bit-identical to a fresh [`crate::Dangoron`] run with the same
    /// configuration over the equivalent prefix, in either bound mode:
    /// the triangle bound never changes an edge, and the PaperJump walk
    /// jumps from exact values only, reading no pivot table.
    ///
    /// What is reused from the resident state:
    ///
    /// * the [`sketch::SketchStore`] and every pair sketch — always;
    /// * the Eq. 2 departure-cost prefixes — always in jump mode (they
    ///   depend only on the sketches and the edge rule, not the query
    ///   geometry);
    /// * the pivot table of an exhaustive session — only when
    ///   `(window, step)` equal the session's own geometry (its intervals
    ///   are keyed by the session's window frame); other geometries walk
    ///   without horizontal pruning, so only their counters differ from
    ///   the batch run's.
    ///
    /// `window` and `step` must be multiples of the session's basic
    /// window; sharded sessions (a partial pair range) cannot answer
    /// shared queries — open the session unsharded.
    pub fn query_shared(
        &self,
        window: usize,
        step: usize,
        threshold: f64,
    ) -> Result<QueryResult, TsError> {
        self.config.check_geometry(window, step, threshold)?;
        let ranks = self.state.ranks();
        if ranks != (0..triangular::count(self.n_series())) {
            return Err(TsError::InvalidParameter(format!(
                "shared queries need the full pair triangle; this session holds ranks {}..{}",
                ranks.start, ranks.end
            )));
        }
        let query = SlidingQuery {
            window,
            step,
            threshold,
            ..self.batch_query()
        };
        // The pivot table's intervals are keyed by the *session's* window
        // geometry; reuse it only when the query matches. Skipping it for
        // other geometries cannot change an edge: only the exhaustive walk
        // reads the table (a PaperJump session keeps none), and the
        // triangle bound it applies is exact.
        let pivots = if (window, step) == (self.window, self.step) {
            self.pivots.as_ref()
        } else {
            None
        };
        let geo = WalkGeometry::for_query(&query, self.config.basic_window);
        Ok(self.state.walk(&self.config, ranks, geo, threshold, pivots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BoundMode, HorizontalConfig, PivotStrategy};
    use crate::engine::Dangoron;
    use tsdata::generators;

    fn config(bound: BoundMode) -> DangoronConfig {
        DangoronConfig {
            basic_window: 10,
            bound,
            ..Default::default()
        }
    }

    fn config_with_pivots(bound: BoundMode, n_pivots: usize) -> DangoronConfig {
        DangoronConfig {
            horizontal: Some(HorizontalConfig {
                n_pivots,
                strategy: PivotStrategy::Evenly,
            }),
            ..config(bound)
        }
    }

    fn assert_same_windows(streamed: &[CompletedWindow], batch: &[ThresholdedMatrix]) {
        for cw in streamed {
            let b = &batch[cw.index];
            assert_eq!(cw.matrix.n_edges(), b.n_edges(), "window {}", cw.index);
            for (ea, eb) in cw.matrix.edges().iter().zip(b.edges()) {
                assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                assert_eq!(
                    ea.value.to_bits(),
                    eb.value.to_bits(),
                    "window {} edge ({}, {})",
                    cw.index,
                    ea.i,
                    ea.j
                );
            }
        }
    }

    #[test]
    fn streaming_matches_batch_exhaustive() {
        let full = generators::clustered_matrix(8, 400, 2, 0.5, 3).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();

        let mut collected = session.drain_completed().unwrap();
        // Stream the rest in uneven chunks.
        for (a, b) in [(150usize, 175usize), (175, 280), (280, 297), (297, 400)] {
            let chunk = full.slice_columns(a, b).unwrap();
            collected.extend(session.append(&chunk).unwrap());
        }
        // Indices must be contiguous from 0.
        let idxs: Vec<usize> = collected.iter().map(|c| c.index).collect();
        let expected: Vec<usize> = (0..idxs.len()).collect();
        assert_eq!(idxs, expected);

        // And equal to the batch engine over the full history.
        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let batch = engine.execute(&full, session.batch_query()).unwrap();
        assert_eq!(collected.len(), batch.matrices.len());
        assert_same_windows(&collected, &batch.matrices);
    }

    #[test]
    fn streaming_with_pivots_matches_batch_exhaustive() {
        // Horizontal pruning is lossless: with pivots enabled the streamed
        // windows must still be bit-identical to the exhaustive batch
        // truth, while the triangle counter actually fires.
        let full = generators::clustered_matrix(10, 400, 2, 0.4, 11).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let mut session = StreamingDangoron::new(
            initial,
            80,
            20,
            0.9,
            config_with_pivots(BoundMode::Exhaustive, 2),
        )
        .unwrap();
        let mut collected = session.drain_completed().unwrap();
        for (a, b) in [(150usize, 163usize), (163, 240), (240, 400)] {
            let chunk = full.slice_columns(a, b).unwrap();
            collected.extend(session.append(&chunk).unwrap());
        }
        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let batch = engine.execute(&full, session.batch_query()).unwrap();
        assert_eq!(collected.len(), batch.matrices.len());
        assert_same_windows(&collected, &batch.matrices);
        let s = session.stats();
        assert!(
            s.pruned_by_triangle > 0 || s.pairs_skipped_entirely > 0,
            "horizontal pruning never fired on clustered data: {s:?}"
        );
    }

    #[test]
    fn streamed_stats_with_pivots_equal_batch_stats_under_any_chunking() {
        // A session walks resident pair sketches, so the wholesale
        // prefilter never runs and every window is settled exactly as in
        // the batch walk: the summed counters equal the batch run's,
        // except `n_pairs`, which counts (pair, drain) encounters.
        let full = generators::clustered_matrix(10, 400, 2, 0.4, 11).unwrap();
        let cfg = config_with_pivots(BoundMode::Exhaustive, 2);
        let engine = Dangoron::new(cfg.clone()).unwrap();
        for ends in [
            vec![400],
            vec![163, 240, 400],
            vec![170, 190, 210, 330, 400],
        ] {
            let initial = full.slice_columns(0, 150).unwrap();
            let mut session = StreamingDangoron::new(initial, 80, 20, 0.9, cfg.clone()).unwrap();
            let mut drains = u64::from(!session.drain_completed().unwrap().is_empty());
            let mut at = 150;
            for end in ends.iter().copied() {
                let out = session.append(&full.slice_columns(at, end).unwrap());
                drains += u64::from(!out.unwrap().is_empty());
                at = end;
            }
            let truth = engine.execute(&full, session.batch_query()).unwrap();
            let s = session.stats();
            assert_eq!(s.n_pairs, truth.stats.n_pairs * drains, "ends {ends:?}");
            let summed = PruningStats {
                n_pairs: truth.stats.n_pairs,
                ..s.clone()
            };
            assert_eq!(summed, truth.stats, "ends {ends:?}");
            assert!(truth.stats.pruned_by_triangle > 0, "pivots never fired");
        }
    }

    #[test]
    fn streaming_stats_accumulate_across_drains() {
        let full = generators::clustered_matrix(8, 400, 2, 0.5, 3).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        let mut collected = session.drain_completed().unwrap();
        let after_open = session.stats().clone();
        assert!(after_open.n_pairs > 0, "first drain recorded nothing");
        for (a, b) in [(150usize, 250usize), (250, 400)] {
            let chunk = full.slice_columns(a, b).unwrap();
            collected.extend(session.append(&chunk).unwrap());
        }
        let s = session.stats();
        let n_pairs = 8 * 7 / 2;
        // The 400 columns hold (400 − 80) / 20 + 1 windows, each drained
        // once.
        let total_windows = (400 - 80) / 20 + 1;
        assert_eq!(collected.len(), total_windows);
        // Cumulative accounting: every (pair, new-window) cell of every
        // drain is recorded exactly once.
        assert_eq!(s.total_cells, (n_pairs * total_windows) as u64);
        assert_eq!(s.evaluated, s.total_cells, "exhaustive without pivots");
        assert_eq!(
            s.edges,
            collected
                .iter()
                .map(|c| c.matrix.n_edges() as u64)
                .sum::<u64>()
        );
        // The last-drain view is a component of the cumulative one.
        assert!(session.last_drain_stats().total_cells <= s.total_cells);
        assert!(session.last_drain_stats().total_cells > 0);
    }

    #[test]
    fn raw_history_is_evicted() {
        // Raw columns must be dropped once absorbed into the sketches:
        // the buffered history stays below one basic window while the
        // ingested total keeps growing — and the emitted networks still
        // match the batch engine over the full history.
        let full = generators::clustered_matrix(6, 600, 2, 0.5, 5).unwrap();
        let initial = full.slice_columns(0, 100).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        assert!(session.history_len() < 10, "open did not evict");
        let mut collected = session.drain_completed().unwrap();
        let mut t = 100;
        for chunk_len in [7usize, 23, 40, 104, 13, 96, 200, 17] {
            let chunk = full.slice_columns(t, t + chunk_len).unwrap();
            collected.extend(session.append(&chunk).unwrap());
            t += chunk_len;
            assert!(
                session.history_len() < 10,
                "retained {} raw columns after ingesting {}",
                session.history_len(),
                session.ingested_cols()
            );
            assert_eq!(session.ingested_cols(), t);
        }
        assert_eq!(t, 600);
        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let batch = engine.execute(&full, session.batch_query()).unwrap();
        assert_eq!(collected.len(), batch.matrices.len());
        assert_same_windows(&collected, &batch.matrices);
    }

    #[test]
    fn streaming_jump_mode_emits_subset_of_truth() {
        // PaperJump with pivots, appended in uneven chunks: every window of
        // the equivalent batch query is emitted exactly once, in order,
        // none carries an edge the exact engine does not, and every drained
        // window is bit-equal to a pivot-less session's under the same
        // chunking.
        let full = generators::clustered_matrix(6, 400, 2, 0.5, 9).unwrap();
        let replay = |cfg: DangoronConfig| {
            let initial = full.slice_columns(0, 100).unwrap();
            let mut session = StreamingDangoron::new(initial, 80, 20, 0.85, cfg).unwrap();
            let mut collected = session.drain_completed().unwrap();
            for (a, b) in [(100, 173), (173, 291), (291, 400)] {
                collected.extend(session.append(&full.slice_columns(a, b).unwrap()).unwrap());
            }
            (session, collected)
        };
        let jump = BoundMode::PaperJump { slack: 0.0 };
        let (session, collected) = replay(config_with_pivots(jump, 2));
        let (_, plain) = replay(config(jump));
        let plain: Vec<ThresholdedMatrix> = plain.into_iter().map(|cw| cw.matrix).collect();
        assert_same_windows(&collected, &plain);
        assert_eq!(collected.len(), plain.len());

        let n = session.batch_query().n_windows();
        let indices: Vec<usize> = collected.iter().map(|cw| cw.index).collect();
        assert_eq!(indices, (0..n).collect::<Vec<_>>());
        assert!((0.0..=1.0).contains(&session.stats().skip_fraction()));

        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let truth = engine.execute(&full, session.batch_query()).unwrap();
        for cw in &collected {
            for e in cw.matrix.edges() {
                assert!(
                    truth.matrices[cw.index].contains(e.i as usize, e.j as usize),
                    "spurious streamed edge at window {}",
                    cw.index
                );
            }
        }
    }

    #[test]
    fn sharded_sessions_partition_the_unsharded_drains() {
        // Replay the same chunked stream through k sharded sessions; the
        // concatenated drains must be bit-identical to the unsharded
        // session's and the shard stats must sum to its counters — with
        // horizontal pruning on, exercising the out-of-shard pivot pairs.
        let full = generators::clustered_matrix(9, 400, 2, 0.45, 13).unwrap();
        let n_pairs = 9 * 8 / 2;
        let chunks = [(150usize, 190usize), (190, 300), (300, 400)];
        let cfg = config_with_pivots(BoundMode::Exhaustive, 2);

        let replay = |range: std::ops::Range<usize>| {
            let initial = full.slice_columns(0, 150).unwrap();
            let mut s =
                StreamingDangoron::new_sharded(initial, 80, 20, 0.85, cfg.clone(), range).unwrap();
            let mut out = s.drain_completed().unwrap();
            for (a, b) in chunks {
                out.extend(s.append(&full.slice_columns(a, b).unwrap()).unwrap());
            }
            let stats = s.stats().clone();
            (out, stats)
        };

        let (whole, whole_stats) = replay(0..n_pairs);
        for cuts in [vec![0, 11, n_pairs], vec![0, 1, 12, 13, n_pairs]] {
            let mut flat: Vec<(u32, sketch::output::Edge)> = Vec::new();
            let mut stats = PruningStats::default();
            let mut n_windows = 0;
            for w in cuts.windows(2) {
                let (part, part_stats) = replay(w[0]..w[1]);
                stats.merge(&part_stats);
                n_windows = part.len();
                for cw in part {
                    flat.extend(cw.matrix.edges().iter().map(|&e| (cw.index as u32, e)));
                }
            }
            assert_eq!(n_windows, whole.len(), "cuts {cuts:?}");
            let merged =
                ThresholdedMatrix::assemble_windows(9, 0.85, cfg.edge_rule, whole.len(), flat);
            for (m, cw) in merged.iter().zip(&whole) {
                assert_eq!(m.n_edges(), cw.matrix.n_edges(), "window {}", cw.index);
                for (ea, eb) in m.edges().iter().zip(cw.matrix.edges()) {
                    assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                    assert_eq!(ea.value.to_bits(), eb.value.to_bits());
                }
            }
            assert_eq!(stats, whole_stats, "cuts {cuts:?}");
        }
        // Out-of-triangle shard ranges are rejected.
        let initial = full.slice_columns(0, 150).unwrap();
        assert!(
            StreamingDangoron::new_sharded(initial, 80, 20, 0.85, cfg, 0..n_pairs + 1).is_err()
        );
    }

    #[test]
    fn no_emission_before_first_full_window() {
        let full = generators::clustered_matrix(4, 200, 2, 0.5, 5).unwrap();
        let initial = full.slice_columns(0, 30).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        assert!(session.drain_completed().unwrap().is_empty());
        // 30 + 40 = 70 < 80: still nothing.
        let out = session
            .append(&full.slice_columns(30, 70).unwrap())
            .unwrap();
        assert!(out.is_empty());
        // Crossing 80 emits window 0.
        let out = session
            .append(&full.slice_columns(70, 100).unwrap())
            .unwrap();
        assert_eq!(out[0].index, 0);
        assert_eq!(session.emitted_windows(), out.len());
    }

    #[test]
    fn partial_basic_windows_wait() {
        // Appending 7 columns (less than a basic window) completes nothing
        // new but must not corrupt state.
        let full = generators::clustered_matrix(4, 300, 2, 0.5, 7).unwrap();
        let initial = full.slice_columns(0, 100).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        let before = session.drain_completed().unwrap().len();
        let out = session
            .append(&full.slice_columns(100, 107).unwrap())
            .unwrap();
        assert!(out.is_empty());
        // Completing the basic window continues cleanly.
        let out = session
            .append(&full.slice_columns(107, 140).unwrap())
            .unwrap();
        assert!(!out.is_empty());
        assert_eq!(out[0].index, before);
    }

    fn assert_bitwise(a: &[ThresholdedMatrix], b: &[ThresholdedMatrix]) {
        assert_eq!(a.len(), b.len());
        for (w, (ma, mb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ma.n_edges(), mb.n_edges(), "window {w}");
            for (ea, eb) in ma.edges().iter().zip(mb.edges()) {
                assert_eq!((ea.i, ea.j), (eb.i, eb.j), "window {w}");
                assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "window {w}");
            }
        }
    }

    #[test]
    fn shared_queries_match_fresh_batch_runs() {
        // The serving tier's contract: any aligned (window, step, β) query
        // answered from the resident sketches is bit-identical to a fresh
        // one-shot engine run over the same prefix — including geometries
        // and thresholds the session was never opened with.
        let full = generators::clustered_matrix(8, 400, 2, 0.5, 3).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let cfg = config_with_pivots(BoundMode::Exhaustive, 2);
        let mut session = StreamingDangoron::new(initial, 80, 20, 0.7, cfg.clone()).unwrap();
        session.drain_completed().unwrap();
        for (a, b) in [(150usize, 290usize), (290, 400)] {
            session.append(&full.slice_columns(a, b).unwrap()).unwrap();
            let covered = session.batch_query().end;
            let prefix = full.slice_columns(0, covered).unwrap();
            for (w, s, t) in [(80, 20, 0.7), (60, 20, 0.9), (100, 40, 0.5), (40, 40, 0.8)] {
                let shared = session.query_shared(w, s, t).unwrap();
                let engine = Dangoron::new(cfg.clone()).unwrap();
                let query = SlidingQuery {
                    start: 0,
                    end: covered,
                    window: w,
                    step: s,
                    threshold: t,
                };
                let truth = engine.execute(&prefix, query).unwrap();
                assert_bitwise(&shared.matrices, &truth.matrices);
                if (w, s) == (80, 20) {
                    // At the session's own geometry the walk reads the
                    // same pivot table as the batch run, so the counters
                    // agree too.
                    assert_eq!(shared.stats, truth.stats, "({w}, {s}, {t})");
                }
            }
        }
    }

    #[test]
    fn shared_queries_match_in_jump_mode() {
        // Jump mode is approximate vs the exhaustive truth, but the shared
        // query reuses the resident Eq. 2 cost prefixes — which extend
        // bit-identically to a fresh build — so it must equal a fresh
        // jump-mode engine run exactly.
        let full = generators::clustered_matrix(7, 300, 2, 0.5, 9).unwrap();
        let cfg = config(BoundMode::PaperJump { slack: 0.0 });
        let mut session = StreamingDangoron::new(
            full.slice_columns(0, 120).unwrap(),
            80,
            20,
            0.85,
            cfg.clone(),
        )
        .unwrap();
        session.drain_completed().unwrap();
        session
            .append(&full.slice_columns(120, 300).unwrap())
            .unwrap();
        let covered = session.batch_query().end;
        let prefix = full.slice_columns(0, covered).unwrap();
        for (w, s, t) in [(80, 20, 0.85), (60, 60, 0.7)] {
            let shared = session.query_shared(w, s, t).unwrap();
            let engine = Dangoron::new(cfg.clone()).unwrap();
            let query = SlidingQuery {
                start: 0,
                end: covered,
                window: w,
                step: s,
                threshold: t,
            };
            let truth = engine.execute(&prefix, query).unwrap();
            assert_bitwise(&shared.matrices, &truth.matrices);
        }
    }

    #[test]
    fn shared_query_validation_and_memory_accounting() {
        let full = generators::clustered_matrix(6, 200, 2, 0.5, 5).unwrap();
        let mut session = StreamingDangoron::new(
            full.slice_columns(0, 100).unwrap(),
            80,
            20,
            0.7,
            config(BoundMode::Exhaustive),
        )
        .unwrap();
        // Misaligned or out-of-range parameters are structured errors.
        assert!(session.query_shared(75, 20, 0.5).is_err());
        assert!(session.query_shared(80, 15, 0.5).is_err());
        assert!(session.query_shared(80, 0, 0.5).is_err());
        assert!(session.query_shared(80, 20, 1.5).is_err());
        // A query longer than the history yields zero windows, not an error.
        assert!(session
            .query_shared(200, 20, 0.5)
            .unwrap()
            .matrices
            .is_empty());
        // Memory accounting grows with the stream.
        let before = session.memory_bytes();
        assert!(before > 0);
        session
            .append(&full.slice_columns(100, 200).unwrap())
            .unwrap();
        assert!(session.memory_bytes() > before);
        // Sharded sessions cannot answer shared queries.
        let sharded = StreamingDangoron::new_sharded(
            full.slice_columns(0, 100).unwrap(),
            80,
            20,
            0.7,
            config(BoundMode::Exhaustive),
            0..5,
        )
        .unwrap();
        assert!(sharded.query_shared(80, 20, 0.7).is_err());
    }

    #[test]
    fn memory_counts_a_pivot_table_only_where_drains_read_it() {
        // A PaperJump session reads no pivot table, so opening it with
        // pivots keeps none — and, sharded, no out-of-shard pivot pairs:
        // its bytes equal a pivot-less session's. An exhaustive session
        // still counts its table.
        let full = generators::clustered_matrix(8, 300, 2, 0.5, 5).unwrap();
        let bytes = |cfg: DangoronConfig, ranks: Range<usize>| {
            let mut s = StreamingDangoron::new_sharded(
                full.slice_columns(0, 150).unwrap(),
                80,
                20,
                0.7,
                cfg,
                ranks,
            )
            .unwrap();
            s.append(&full.slice_columns(150, 300).unwrap()).unwrap();
            s.memory_bytes()
        };
        for ranks in [0..28, 3..11] {
            let jump = BoundMode::PaperJump { slack: 0.0 };
            assert_eq!(
                bytes(config_with_pivots(jump, 2), ranks.clone()),
                bytes(config(jump), ranks.clone()),
                "ranks {ranks:?}"
            );
            // Two pivots × eight series × twelve windows of f64s.
            let table = 2 * 8 * 12 * 8;
            assert!(
                bytes(config_with_pivots(BoundMode::Exhaustive, 2), ranks.clone())
                    >= bytes(config(BoundMode::Exhaustive), ranks.clone()) + table,
                "ranks {ranks:?}"
            );
        }
    }

    #[test]
    fn construction_validation() {
        let x = generators::clustered_matrix(4, 100, 2, 0.5, 1).unwrap();
        // Misaligned window.
        assert!(
            StreamingDangoron::new(x.clone(), 75, 20, 0.5, config(BoundMode::Exhaustive)).is_err()
        );
        // Misaligned step.
        assert!(
            StreamingDangoron::new(x.clone(), 80, 15, 0.5, config(BoundMode::Exhaustive)).is_err()
        );
        // Horizontal pruning is supported in sessions.
        let c = config_with_pivots(BoundMode::Exhaustive, 1);
        assert!(StreamingDangoron::new(x.clone(), 80, 20, 0.5, c).is_ok());
        // Mismatched series count on append is rejected.
        let mut session =
            StreamingDangoron::new(x.clone(), 80, 20, 0.5, config(BoundMode::Exhaustive)).unwrap();
        let other = generators::clustered_matrix(3, 40, 1, 0.5, 1).unwrap();
        assert!(session.append(&other).is_err());
        // Too little initial data.
        let tiny = x.slice_columns(0, 5).unwrap();
        assert!(StreamingDangoron::new(tiny, 80, 20, 0.5, config(BoundMode::Exhaustive)).is_err());
    }

    #[test]
    fn absolute_rule_rejects_a_negative_threshold_at_open() {
        // The same geometry/threshold check as batch preparation and
        // shared queries: |c| ≥ β with β < 0 would keep every pair.
        let x = generators::clustered_matrix(4, 100, 2, 0.5, 1).unwrap();
        let cfg = DangoronConfig {
            edge_rule: sketch::output::EdgeRule::Absolute,
            ..config(BoundMode::Exhaustive)
        };
        assert!(StreamingDangoron::new(x.clone(), 80, 20, -0.5, cfg.clone()).is_err());
        assert!(
            StreamingDangoron::new_sharded(x.clone(), 80, 20, -0.5, cfg.clone(), 0..3).is_err()
        );
        let session = StreamingDangoron::new(x, 80, 20, 0.5, cfg).unwrap();
        assert!(session.query_shared(80, 20, -0.5).is_err());
    }
}
