//! The resident pair state every walk reads — one struct behind both the
//! batch [`Prepared`](crate::Prepared) and the streaming session
//! [`StreamingDangoron`](crate::StreamingDangoron).
//!
//! A [`PairState`] holds the per-series sketch store, the contiguous
//! pair-rank interval it covers, that interval's pair sketches (resident,
//! or built per pair from raw rows) and, in jump mode with resident
//! sketches, the Eq. 2 departure-cost prefixes. [`PairState::walk`] is
//! the one driver of [`walk_pair`]: a batch run, a streaming drain and a
//! shared query differ only in the ranks, the [`WalkGeometry`], `β` and
//! the pivot table they pass.
//!
//! **The wholesale pair prefilter** ([`PivotSet::pair_never_edges_in`])
//! follows one rule that depends on the state, not on the caller: it runs
//! only when the pair sketch would be built on demand from raw rows
//! ([`PairStorage::OnDemand`](crate::PairStorage::OnDemand)), where
//! skipping a pair saves that O(L) build. With resident sketches the walk
//! settles the same windows one by one with the triangle interval.

use crate::bounds::PairCosts;
use crate::config::{BoundMode, DangoronConfig};
use crate::engine::QueryResult;
use crate::pivot::PivotSet;
use crate::stats::PruningStats;
use crate::walker::{extend_pair_costs, pair_costs, walk_pair, WalkGeometry};
use sketch::output::Edge;
use sketch::{pair, triangular, BasicWindowLayout, PairSketch, SketchStore, ThresholdedMatrix};
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// Minimum pair-chunk a worker steals at once. Small, because vertical
/// jumping makes per-pair cost wildly non-uniform — a large floor would
/// recreate the static-chunk straggler problem the scheduler exists to
/// avoid; going all the way to 1 pays one atomic per pair on cheap
/// workloads.
const WALK_GRAIN: usize = 8;

/// Where a walk reads each pair's sketch from.
enum PairSketches<'a> {
    /// Materialised for every rank of the interval, indexed by
    /// `rank − ranks.start`.
    Resident(Vec<PairSketch>),
    /// Built per pair inside the walk from the rows of this matrix.
    OnDemand(&'a TimeSeriesMatrix),
}

/// Sketch store, pair-rank interval, pair sketches and Eq. 2 cost
/// prefixes — everything a walk reads besides the pivot table.
pub(crate) struct PairState<'a> {
    store: SketchStore,
    ranks: Range<usize>,
    pairs: PairSketches<'a>,
    /// Per-pair Eq. 2 departure-cost prefixes, indexed like the resident
    /// sketches; `None` unless the sketches are resident and the bound
    /// mode jumps (on-demand walks build each pair's costs transiently).
    costs: Option<Vec<PairCosts>>,
}

impl<'a> PairState<'a> {
    /// Builds the state for the pair ranks `ranks` of `x` over `layout`.
    ///
    /// `on_demand` is `Some(x)` when pair sketches are to be built per
    /// pair during the walk; `None` materialises them — the whole triangle
    /// with the tiled [`pair::build_all`], a shard with
    /// [`pair::build_range`] — followed, in jump mode, by their cost
    /// prefixes, all with workers stealing chunks.
    pub(crate) fn build(
        x: &TimeSeriesMatrix,
        layout: BasicWindowLayout,
        ranks: Range<usize>,
        config: &DangoronConfig,
        on_demand: Option<&'a TimeSeriesMatrix>,
    ) -> Result<Self, TsError> {
        let n = x.n_series();
        let n_pairs = triangular::count(n);
        if ranks.start > ranks.end || ranks.end > n_pairs {
            return Err(TsError::InvalidParameter(format!(
                "pair range {}..{} outside the {} pair ranks",
                ranks.start, ranks.end, n_pairs
            )));
        }
        let threads = config.threads;
        let store = SketchStore::build_with_threads(x, layout, threads)?;
        if let Some(raw) = on_demand {
            return Ok(Self {
                store,
                ranks,
                pairs: PairSketches::OnDemand(raw),
                costs: None,
            });
        }
        let pairs = if ranks == (0..n_pairs) {
            pair::build_all(&layout, x, threads)?
        } else {
            pair::build_range(&layout, x, ranks.clone(), threads)?
        };
        let costs = matches!(config.bound, BoundMode::PaperJump { .. }).then(|| {
            let (rule, base) = (config.edge_rule, ranks.start);
            exec::par_collect_chunks(pairs.len(), threads, 16, |range| {
                range
                    .map(|k| {
                        let (i, j) = triangular::unrank(base + k, n);
                        pair_costs(&store, &pairs[k], i, j, rule)
                    })
                    .collect()
            })
        });
        Ok(Self {
            store,
            ranks,
            pairs: PairSketches::Resident(pairs),
            costs,
        })
    }

    /// The per-series sketch store.
    pub(crate) fn store(&self) -> &SketchStore {
        &self.store
    }

    /// The contiguous pair-rank interval this state covers.
    pub(crate) fn ranks(&self) -> Range<usize> {
        self.ranks.clone()
    }

    /// The resident pair sketches (empty when built on demand).
    pub(crate) fn resident(&self) -> &[PairSketch] {
        match &self.pairs {
            PairSketches::Resident(all) => all,
            PairSketches::OnDemand(_) => &[],
        }
    }

    /// The resident cost prefixes (empty when none are kept).
    pub(crate) fn costs(&self) -> &[PairCosts] {
        self.costs.as_deref().unwrap_or(&[])
    }

    /// The resident sketches when they cover the whole pair triangle, in
    /// [`triangular::rank`] order.
    pub(crate) fn triangle(&self) -> Option<&[PairSketch]> {
        let whole = self.ranks == (0..triangular::count(self.store.n_series()));
        match &self.pairs {
            PairSketches::Resident(all) if whole => Some(all),
            _ => None,
        }
    }

    /// The resident sketch of pair rank `rank`, if this state holds it.
    pub(crate) fn pair(&self, rank: usize) -> Option<&PairSketch> {
        self.resident().get(rank.checked_sub(self.ranks.start)?)
    }

    /// Absorbs the raw `tail` (global columns from `tail_start`) into the
    /// store, every resident pair sketch and the cost prefixes, reading
    /// only the new columns — the streaming maintenance path. An extended
    /// prefix is bit-identical to a fresh build, so drains keep matching
    /// the batch engine.
    pub(crate) fn append_tail(
        &mut self,
        tail: &TimeSeriesMatrix,
        tail_start: usize,
        threads: usize,
    ) -> Result<(), TsError> {
        let Self {
            store,
            ranks,
            pairs,
            costs,
        } = self;
        store.append_tail(tail, tail_start)?;
        let PairSketches::Resident(pairs) = pairs else {
            return Ok(());
        };
        let (layout, n, base) = (*store.layout(), store.n_series(), ranks.start);
        // Every pair ingests the same Δ columns — uniform cost — so static
        // per-worker slices are the right schedule here (no stealing
        // overhead). The preconditions of `PairSketch::append_tail` hold
        // by construction once `store.append_tail` succeeded: all rows
        // share the grown length and the layout only ever grows.
        exec::par_chunks_mut(pairs, threads, |offset, piece| {
            for (k, pair) in piece.iter_mut().enumerate() {
                let (i, j) = triangular::unrank(base + offset + k, n);
                pair.append_tail(&layout, tail.row(i), tail.row(j), tail_start)
                    .expect("pair/store layouts kept in lockstep");
            }
        });
        if let Some(costs) = costs {
            let (store, pairs) = (&*store, &*pairs);
            exec::par_chunks_mut(costs, threads, |offset, piece| {
                for (k, c) in piece.iter_mut().enumerate() {
                    let (i, j) = triangular::unrank(base + offset + k, n);
                    extend_pair_costs(c, store, &pairs[offset + k], i, j);
                }
            });
        }
        Ok(())
    }

    /// Walks the pair ranks `ranks` over `geo` at threshold `beta` on
    /// `config.threads` work-stealing workers and assembles the
    /// per-window matrices — the one pair walk behind batch runs,
    /// streaming drains and shared queries.
    ///
    /// Every stolen chunk fills its own edge buffer, and
    /// [`exec::par_map_chunks`] hands the buffers back in rank order —
    /// `(i, j)` order — so each window reaches the O(E) scatter already
    /// sorted and the output is identical for every thread count.
    /// `pivots`, when given, must cover the geometry's global windows.
    ///
    /// # Panics
    /// Panics when `ranks` is not contained in the state's interval.
    pub(crate) fn walk(
        &self,
        config: &DangoronConfig,
        ranks: Range<usize>,
        geo: WalkGeometry,
        beta: f64,
        pivots: Option<&PivotSet>,
    ) -> QueryResult {
        assert!(
            ranks.start >= self.ranks.start && ranks.end <= self.ranks.end,
            "pair ranks {}..{} outside the prepared interval {}..{}",
            ranks.start,
            ranks.end,
            self.ranks.start,
            self.ranks.end,
        );
        let (n, rule, bound) = (self.store.n_series(), config.edge_rule, config.bound);
        let jumps = matches!(bound, BoundMode::PaperJump { .. });
        let (w0, w1) = (geo.global_window(0), geo.global_window(geo.n_windows));
        let chunks = exec::par_map_chunks(ranks.len(), config.threads, WALK_GRAIN, |local| {
            let (mut buf, mut stats) = (Vec::new(), PruningStats::default());
            for rank in ranks.start + local.start..ranks.start + local.end {
                let (i, j) = triangular::unrank(rank, n);
                let k = rank - self.ranks.start;
                let built;
                let pair = match &self.pairs {
                    PairSketches::Resident(all) => &all[k],
                    PairSketches::OnDemand(x) => {
                        // The wholesale prefilter: skipping the pair saves
                        // its O(L) sketch build.
                        if pivots.is_some_and(|pv| pv.pair_never_edges_in(i, j, beta, rule, w0, w1))
                        {
                            stats.n_pairs += 1;
                            stats.total_cells += geo.n_windows as u64;
                            stats.pairs_skipped_entirely += 1;
                            continue;
                        }
                        built = PairSketch::build(self.store.layout(), x.row(i), x.row(j))
                            .expect("pair geometry validated in prepare");
                        &built
                    }
                };
                let built_costs;
                let costs = match &self.costs {
                    Some(all) => Some(&all[k]),
                    None if jumps => {
                        built_costs = pair_costs(&self.store, pair, i, j, rule);
                        Some(&built_costs)
                    }
                    None => None,
                };
                let (ei, ej) = (i as u32, j as u32);
                walk_pair(
                    &self.store,
                    pair,
                    i,
                    j,
                    geo,
                    beta,
                    rule,
                    bound,
                    costs,
                    pivots,
                    &mut stats,
                    |w, value| {
                        let edge = Edge {
                            i: ei,
                            j: ej,
                            value,
                        };
                        buf.push((w as u32, edge));
                    },
                );
            }
            (buf, stats)
        });
        let mut stats = PruningStats::default();
        chunks.iter().for_each(|(_, s)| stats.merge(s));
        let segments: Vec<&[(u32, Edge)]> = chunks.iter().map(|(buf, _)| buf.as_slice()).collect();
        let matrices =
            ThresholdedMatrix::assemble_segments(n, beta, rule, geo.n_windows, &segments);
        QueryResult { matrices, stats }
    }
}
