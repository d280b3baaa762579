//! Real-time operation: a session that ingests new columns and emits the
//! newly completed windows' networks.
//!
//! The problem statement's first challenge is "efficiency of network
//! construction **and updates**". [`StreamingDangoron`] owns the growing
//! sketch state — per-series and per-pair prefixes plus, in jump mode,
//! the Eq. 2 departure-cost prefixes — and maintains all of it
//! incrementally (`SketchStore::append_tail` / `PairSketch::append_tail`
//! / `extend_pair_costs` touch only the new columns — history is never
//! rescanned), answering each [`StreamingDangoron::append`] with the
//! thresholded matrices of every window that became complete.
//!
//! Both pruning mechanisms of the batch engine apply:
//!
//! * **vertical jumping** (Eq. 2) over each drain's window suffix, and
//! * **horizontal (triangle) pruning** via an incrementally maintained
//!   [`PivotSet`]: new windows' pivot-to-all correlations are extended
//!   column-by-column from the already-updated sketches
//!   ([`PivotSet::append_windows`]), so enabling
//!   [`DangoronConfig::horizontal`] costs O(n_pivots · N · Δwindows) per
//!   append — never a rebuild. The triangle bound is unconditional, so
//!   streamed results stay bit-identical to the exhaustive batch engine.
//!
//! The walk itself is the batch walker ([`crate::walker::walk_pair`])
//! shifted into the global window frame by [`WalkGeometry::offset_bw`]; no
//! parallel streaming implementation exists. Raw history is evicted as
//! soon as it is absorbed into the sketch prefixes, so a long-lived
//! session holds O(N·n_b) sketch state plus less than one basic window of
//! raw columns — not the full stream.

use crate::bounds::PairCosts;
use crate::config::{BoundMode, DangoronConfig};
use crate::pivot::{select_pivots, PivotSet};
use crate::stats::PruningStats;
use crate::walker::{extend_pair_costs, pair_costs, walk_pair, WalkGeometry};
use sketch::output::Edge;
use sketch::{
    combine, pair, triangular, BasicWindowLayout, PairSketch, SketchStore, SlidingQuery,
    ThresholdedMatrix,
};
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// A long-lived streaming session.
///
/// Restrictions relative to the batch engine: pair sketches are always
/// materialised (the streaming state *is* the precomputed sketch set).
/// Horizontal pruning is supported — the pivot table is grown
/// incrementally alongside the sketches.
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
    n_series: usize,
    /// Raw columns not yet absorbed into the sketches: global indices
    /// `[tail_start, tail_start + len)`. `None` ⇔ nothing retained.
    /// Invariant: `tail_start + len == total_cols`, and after every
    /// append `len < basic_window` (absorbed history is evicted).
    tail: Option<TimeSeriesMatrix>,
    tail_start: usize,
    total_cols: usize,
    store: SketchStore,
    /// The contiguous pair-rank interval this session walks — the full
    /// triangle for [`StreamingDangoron::new`], a shard for
    /// [`StreamingDangoron::new_sharded`]. `pairs`/`deps` are indexed by
    /// `rank − pair_range.start`.
    pair_range: Range<usize>,
    pairs: Vec<PairSketch>,
    /// Per-pair Eq. 2 departure-cost prefixes, maintained incrementally
    /// alongside the pair sketches; empty unless the bound mode jumps.
    deps: Vec<PairCosts>,
    /// Pivot-pair sketches whose ranks fall **outside** `pair_range`,
    /// sorted by rank — sharded sessions still need every (pivot, series)
    /// correlation to grow the pivot table. Empty when the session is
    /// unsharded (the main pair set covers them) or horizontal pruning is
    /// off. Built and appended with the same kernels as the main set, so
    /// the table stays bit-identical to an unsharded session's.
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
    /// maintains) only the shard's pair sketches plus, when horizontal
    /// pruning is on, the out-of-shard pivot pairs; drains walk the shard
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
        let n_pairs_total = triangular::count(initial.n_series());
        if pair_range.start > pair_range.end || pair_range.end > n_pairs_total {
            return Err(TsError::InvalidParameter(format!(
                "pair range {}..{} outside the {} pair ranks",
                pair_range.start, pair_range.end, n_pairs_total
            )));
        }
        let b = config.basic_window;
        if window < 2 || !window.is_multiple_of(b) {
            return Err(TsError::InvalidParameter(format!(
                "window {window} must be a positive multiple of basic window {b}"
            )));
        }
        if step == 0 || !step.is_multiple_of(b) {
            return Err(TsError::InvalidParameter(format!(
                "step {step} must be a positive multiple of basic window {b}"
            )));
        }
        if !(-1.0..=1.0).contains(&threshold) {
            return Err(TsError::InvalidParameter(format!(
                "threshold must be in [-1, 1], got {threshold}"
            )));
        }
        if initial.len() < b {
            return Err(TsError::TooShort {
                need: b,
                got: initial.len(),
            });
        }
        let layout = BasicWindowLayout::cover(0, initial.len(), b)?;
        let store = SketchStore::build_with_threads(&initial, layout, config.threads)?;
        let n = initial.n_series();
        let full_triangle = pair_range == (0..n_pairs_total);
        let pairs = if full_triangle {
            pair::build_all(&layout, &initial, config.threads)?
        } else {
            pair::build_range(&layout, &initial, pair_range.clone(), config.threads)?
        };
        let total_cols = initial.len();

        // Sharded sessions with horizontal pruning additionally keep the
        // out-of-shard pivot-pair sketches, so the pivot table can keep
        // growing without the full triangle.
        let mut pivot_ranks: Vec<usize> = Vec::new();
        let chosen = match &config.horizontal {
            Some(h) => {
                let chosen = select_pivots(&h.strategy, h.n_pivots, n)?;
                for &z in &chosen {
                    for s in 0..n {
                        if s != z {
                            let p = triangular::rank(z.min(s), z.max(s), n);
                            if !pair_range.contains(&p) {
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

        // Jump mode: precompute the Eq. 2 cost prefixes once; appends
        // extend them from the new basic windows only.
        let deps = if matches!(config.bound, BoundMode::PaperJump { .. }) {
            let rule = config.edge_rule;
            let base = pair_range.start;
            exec::par_collect_chunks(pairs.len(), config.threads, 16, |range| {
                range
                    .map(|k| {
                        let (i, j) = triangular::unrank(base + k, n);
                        pair_costs(&store, &pairs[k], i, j, rule)
                    })
                    .collect()
            })
        } else {
            Vec::new()
        };

        // Keep only the raw columns the sketches have not absorbed yet.
        let covered = store.layout().end();
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
            n_series: n,
            tail,
            tail_start,
            total_cols,
            store,
            pair_range,
            pairs,
            deps,
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
        self.pair_range.clone()
    }

    /// Number of windows fully contained in the current history.
    pub fn available_windows(&self) -> usize {
        let covered = self.store.layout().end();
        if covered < self.window {
            0
        } else {
            (covered - self.window) / self.step + 1
        }
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
        if new_cols.n_series() != self.n_series {
            return Err(TsError::DimensionMismatch {
                expected: self.n_series,
                found: new_cols.n_series(),
            });
        }
        match &mut self.tail {
            Some(t) => t.append_columns(new_cols)?,
            None => self.tail = Some(new_cols.clone()),
        }
        self.total_cols += new_cols.len();
        let tail = self.tail.as_ref().expect("tail was just filled");
        self.store.append_tail(tail, self.tail_start)?;
        let layout = *self.store.layout();
        let n = self.n_series;
        // Every pair ingests the same Δ columns — uniform cost — so static
        // per-worker slices are the right schedule here (no stealing
        // overhead). The preconditions of `PairSketch::append_tail` hold
        // by construction once `store.append_tail` succeeded: all rows
        // share the grown length and the layout only ever grows.
        let base = self.pair_range.start;
        exec::par_chunks_mut(&mut self.pairs, self.config.threads, |offset, piece| {
            for (k, pair) in piece.iter_mut().enumerate() {
                let (i, j) = triangular::unrank(base + offset + k, n);
                pair.append_tail(&layout, tail.row(i), tail.row(j), self.tail_start)
                    .expect("pair/store layouts kept in lockstep");
            }
        });
        // Out-of-shard pivot pairs grow by the same columns.
        exec::par_chunks_mut(&mut self.pivot_pairs, self.config.threads, |_, piece| {
            for (rank, sketch) in piece.iter_mut() {
                let (i, j) = triangular::unrank(*rank, n);
                sketch
                    .append_tail(&layout, tail.row(i), tail.row(j), self.tail_start)
                    .expect("pivot-pair/store layouts kept in lockstep");
            }
        });
        // Jump mode: extend the Eq. 2 cost prefixes over the new basic
        // windows only (an extended prefix is bit-identical to a fresh
        // build, so drains keep matching the batch engine).
        let (store, pairs) = (&self.store, &self.pairs);
        exec::par_chunks_mut(&mut self.deps, self.config.threads, |offset, piece| {
            for (k, costs) in piece.iter_mut().enumerate() {
                let (i, j) = triangular::unrank(base + offset + k, n);
                extend_pair_costs(costs, store, &pairs[offset + k], i, j);
            }
        });
        self.extend_pivots();
        self.evict_absorbed();
        self.drain_completed()
    }

    /// Grows the pivot table to cover every currently available window,
    /// reading correlations straight from the session's own sketches.
    fn extend_pivots(&mut self) {
        let total = self.available_windows();
        let (ns, step_bw) = (
            self.window / self.config.basic_window,
            self.step / self.config.basic_window,
        );
        let (pairs, pivot_pairs, store, n) =
            (&self.pairs, &self.pivot_pairs, &self.store, self.n_series);
        let range = &self.pair_range;
        if let Some(pv) = &mut self.pivots {
            pv.append_windows(total, ns, step_bw, |z, s, b0, b1| {
                let rank = triangular::rank(z.min(s), z.max(s), n);
                let p = if range.contains(&rank) {
                    &pairs[rank - range.start]
                } else {
                    let k = pivot_pairs
                        .binary_search_by_key(&rank, |(r, _)| *r)
                        .expect("out-of-shard pivot pairs are all materialised");
                    &pivot_pairs[k].1
                };
                combine::window_correlation(store, p, z, s, b0, b1).unwrap_or(f64::NAN)
            });
        }
    }

    /// Drops raw columns the sketch prefixes have absorbed; global column
    /// indices stay stable because the layout keeps its origin.
    fn evict_absorbed(&mut self) {
        let covered = self.store.layout().end();
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
        let total = self.available_windows();
        if total <= self.emitted_windows {
            return Ok(Vec::new());
        }
        let _timer = obs::stages::span(obs::stages::Stage::Drain);
        let first_new = self.emitted_windows;
        let n = self.n_series;
        let b = self.config.basic_window;
        let ns = self.window / b;
        let step_bw = self.step / b;
        let n_new = total - first_new;

        // Walk only the new suffix with the shared batch walker: a
        // geometry whose local window 0 sits at global window `first_new`.
        let geo = WalkGeometry {
            n_windows: n_new,
            ns,
            step_bw,
            offset_bw: first_new * step_bw,
        };
        let need_dep = matches!(self.config.bound, BoundMode::PaperJump { .. });
        let beta = self.threshold;
        let rule = self.config.edge_rule;
        let pivots = self.pivots.as_ref();

        // Same executor as the batch engine: workers steal pair chunks,
        // accumulate flat (window, edge) buffers, merged lock-free and
        // assembled with one sort-and-partition.
        let n_pairs = self.pairs.len();
        let base = self.pair_range.start;
        let worker_out = exec::run_partitioned(
            n_pairs,
            self.config.threads,
            crate::engine::WALK_GRAIN,
            |_| (Vec::<(u32, Edge)>::new(), PruningStats::default()),
            |(buf, stats), range| {
                for p in range {
                    let (i, j) = triangular::unrank(base + p, n);
                    // Pair-level wholesale prefilter: when no new window of
                    // this pair can produce an edge, skip its walk entirely.
                    if let Some(pv) = pivots {
                        if pv.pair_never_edges_in(i, j, beta, rule, first_new, total) {
                            stats.n_pairs += 1;
                            stats.total_cells += n_new as u64;
                            stats.pairs_skipped_entirely += 1;
                            continue;
                        }
                    }
                    let pair = &self.pairs[p];
                    let dep = need_dep.then(|| &self.deps[p]);
                    walk_pair(
                        &self.store,
                        pair,
                        i,
                        j,
                        geo,
                        beta,
                        rule,
                        self.config.bound,
                        dep,
                        pivots,
                        stats,
                        |w, v| {
                            buf.push((
                                w as u32,
                                Edge {
                                    i: i as u32,
                                    j: j as u32,
                                    value: v,
                                },
                            ))
                        },
                    );
                }
            },
        );
        // Merge the per-worker counters (previously discarded) exactly
        // like the batch engine does, keeping both the per-drain view and
        // the session-cumulative one.
        let mut drain_stats = PruningStats::default();
        let total_edges: usize = worker_out.iter().map(|(buf, _)| buf.len()).sum();
        let mut flat = Vec::with_capacity(total_edges);
        for (buf, s) in worker_out {
            drain_stats.merge(&s);
            flat.extend(buf);
        }
        self.stats.merge(&drain_stats);
        self.last_drain_stats = drain_stats;
        let matrices = ThresholdedMatrix::assemble_windows(n, self.threshold, rule, n_new, flat);
        let out = matrices
            .into_iter()
            .enumerate()
            .map(|(k, matrix)| CompletedWindow {
                index: first_new + k,
                matrix,
            })
            .collect();
        self.emitted_windows = total;
        Ok(out)
    }

    /// The equivalent batch query over the whole current history — for
    /// verification and for re-running with different parameters.
    pub fn batch_query(&self) -> SlidingQuery {
        SlidingQuery {
            start: 0,
            end: self.store.layout().end(),
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
        self.n_series
    }

    /// The engine configuration the session was opened with.
    pub fn config(&self) -> &DangoronConfig {
        &self.config
    }

    /// Bytes of resident state: sketch prefixes, pair sketches, Eq. 2
    /// cost prefixes, the pivot table, and the unabsorbed raw tail. This
    /// is what a serving tier accounts against its memory budget — it is
    /// the part of the session that grows with the stream.
    pub fn memory_bytes(&self) -> usize {
        let pairs: usize = self.pairs.iter().map(PairSketch::memory_bytes).sum();
        let pivot_pairs: usize = self
            .pivot_pairs
            .iter()
            .map(|(_, p)| p.memory_bytes() + std::mem::size_of::<usize>())
            .sum();
        let deps: usize = self.deps.iter().map(PairCosts::memory_bytes).sum();
        let pivots = self.pivots.as_ref().map_or(0, PivotSet::memory_bytes);
        let tail = self
            .tail
            .as_ref()
            .map_or(0, |t| t.n_series() * t.len() * std::mem::size_of::<f64>());
        self.store.memory_bytes() + pairs + pivot_pairs + deps + pivots + tail
    }

    /// Answers an **ad-hoc** `(window, step, threshold)` query from the
    /// resident sketch state — the serving tier's shared-prepare path.
    ///
    /// Sketch prefixes are query-independent, so a resident session can
    /// answer any aligned query without touching the raw history or
    /// re-paying the prepare phase: this walks the full current history
    /// with the same pruned pair walker the batch engine uses, and the
    /// result is bit-identical to a fresh [`crate::Dangoron`] run over
    /// the equivalent prefix (both pruning mechanisms are lossless).
    ///
    /// What is reused from the resident state:
    ///
    /// * the [`SketchStore`] and every pair sketch — always;
    /// * the Eq. 2 departure-cost prefixes — always in jump mode (they
    ///   depend only on the sketches and the edge rule, not the query
    ///   geometry);
    /// * the pivot table — only when `(window, step)` equal the session's
    ///   own geometry (its intervals are keyed by the session's window
    ///   frame); other geometries simply walk without horizontal pruning.
    ///
    /// `window` and `step` must be multiples of the session's basic
    /// window; sharded sessions (a partial pair range) cannot answer
    /// shared queries — open the session unsharded.
    pub fn query_shared(
        &self,
        window: usize,
        step: usize,
        threshold: f64,
    ) -> Result<crate::engine::QueryResult, TsError> {
        let b = self.config.basic_window;
        if window < 2 || !window.is_multiple_of(b) {
            return Err(TsError::InvalidParameter(format!(
                "query window {window} must be a positive multiple of basic window {b}"
            )));
        }
        if step == 0 || !step.is_multiple_of(b) {
            return Err(TsError::InvalidParameter(format!(
                "query step {step} must be a positive multiple of basic window {b}"
            )));
        }
        if !(-1.0..=1.0).contains(&threshold) {
            return Err(TsError::InvalidParameter(format!(
                "threshold must be in [-1, 1], got {threshold}"
            )));
        }
        let rule = self.config.edge_rule;
        if rule == sketch::output::EdgeRule::Absolute && threshold < 0.0 {
            return Err(TsError::InvalidParameter(format!(
                "absolute edge rule needs a non-negative threshold, got {threshold}"
            )));
        }
        let n = self.n_series;
        if self.pair_range != (0..triangular::count(n)) {
            return Err(TsError::InvalidParameter(format!(
                "shared queries need the full pair triangle; this session holds ranks {}..{}",
                self.pair_range.start, self.pair_range.end
            )));
        }
        let covered = self.store.layout().end();
        let n_windows = if covered < window {
            0
        } else {
            (covered - window) / step + 1
        };
        let ns = window / b;
        let step_bw = step / b;
        let geo = WalkGeometry {
            n_windows,
            ns,
            step_bw,
            offset_bw: 0,
        };
        let need_dep = matches!(self.config.bound, BoundMode::PaperJump { .. });
        // The pivot table's intervals are keyed by the *session's* window
        // geometry; reuse it only when the query matches. Skipping it for
        // other geometries is safe — horizontal pruning is lossless, so
        // the edges come out identical either way.
        let pivots = if window == self.window && step == self.step {
            self.pivots.as_ref()
        } else {
            None
        };

        let n_pairs = self.pairs.len();
        let worker_out = exec::run_partitioned(
            n_pairs,
            self.config.threads,
            crate::engine::WALK_GRAIN,
            |_| (Vec::<(u32, Edge)>::new(), PruningStats::default()),
            |(buf, stats), range| {
                for p in range {
                    let (i, j) = triangular::unrank(p, n);
                    if let Some(pv) = pivots {
                        if pv.pair_never_edges_in(i, j, threshold, rule, 0, n_windows) {
                            stats.n_pairs += 1;
                            stats.total_cells += n_windows as u64;
                            stats.pairs_skipped_entirely += 1;
                            continue;
                        }
                    }
                    let pair = &self.pairs[p];
                    let dep = need_dep.then(|| &self.deps[p]);
                    walk_pair(
                        &self.store,
                        pair,
                        i,
                        j,
                        geo,
                        threshold,
                        rule,
                        self.config.bound,
                        dep,
                        pivots,
                        stats,
                        |w, v| {
                            buf.push((
                                w as u32,
                                Edge {
                                    i: i as u32,
                                    j: j as u32,
                                    value: v,
                                },
                            ))
                        },
                    );
                }
            },
        );
        let mut stats = PruningStats::default();
        let total_edges: usize = worker_out.iter().map(|(buf, _)| buf.len()).sum();
        let mut flat = Vec::with_capacity(total_edges);
        for (buf, s) in worker_out {
            stats.merge(&s);
            flat.extend(buf);
        }
        let matrices = ThresholdedMatrix::assemble_windows(n, threshold, rule, n_windows, flat);
        Ok(crate::engine::QueryResult { matrices, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HorizontalConfig, PivotStrategy};
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
        let total_windows = session.available_windows();
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
        // the equivalent batch query is emitted exactly once, in order, and
        // none carries an edge the exact engine does not.
        let full = generators::clustered_matrix(6, 400, 2, 0.5, 9).unwrap();
        let initial = full.slice_columns(0, 100).unwrap();
        let mut session = StreamingDangoron::new(
            initial,
            80,
            20,
            0.85,
            config_with_pivots(BoundMode::PaperJump { slack: 0.0 }, 2),
        )
        .unwrap();
        let mut collected = session.drain_completed().unwrap();
        for (a, b) in [(100, 173), (173, 291), (291, 400)] {
            collected.extend(session.append(&full.slice_columns(a, b).unwrap()).unwrap());
        }

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
        assert_eq!(session.available_windows(), 0);
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
}
