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
//! skipping a pair saves that O(L) build. With resident sketches only the
//! [`BoundMode::Exhaustive`] walk reads the pivot table, settling windows
//! four at a time; the PaperJump walk evaluates every window it visits.
//! [`PairState::walked_pivots`] turns that into the one rule for whether a
//! table is built at all.

use crate::bounds::{PairCosts, StripCosts};
use crate::config::{BoundMode, DangoronConfig};
use crate::engine::QueryResult;
use crate::pivot::{select_pivots, PivotSet};
use crate::stats::PruningStats;
use crate::walker::{walk_pair, WalkGeometry};
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
    /// pair during the walk; `None` materialises them with
    /// [`pair::build_with`] (strips of four pairs in 16-row blocks, every
    /// output created empty in rank order first). In jump mode each
    /// strip's cost prefixes are built in the same pass, right after its
    /// sketches, by the four-lane [`StripCosts`] finisher.
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
        let (pairs, costs) = if matches!(config.bound, BoundMode::PaperJump { .. }) {
            // Each strip's cost prefixes are built right after its sketches,
            // from a moment table that computes every series' (mean, σ) once.
            let finish = StripCosts {
                moments: store.basic_moments(0..layout.count),
                n_basic: layout.count,
                rule: config.edge_rule,
            };
            let (pairs, costs) = pair::build_with(&layout, x, ranks.clone(), threads, &finish)?;
            (pairs, Some(costs))
        } else {
            (pair::build_range(&layout, x, ranks.clone(), threads)?, None)
        };
        Ok(Self {
            store,
            ranks,
            pairs: PairSketches::Resident(pairs),
            costs,
        })
    }

    /// The pivots of `config.horizontal` when a walk over this state reads
    /// a pivot table: under [`BoundMode::Exhaustive`], or with on-demand
    /// sketches, where the wholesale prefilter runs. `None` when
    /// horizontal pruning is off or nothing would read the table — a
    /// PaperJump walk over resident sketches — so no table is built there.
    /// The pivots are selected, and an out-of-range explicit list
    /// rejected, either way.
    pub(crate) fn walked_pivots(
        &self,
        config: &DangoronConfig,
    ) -> Result<Option<Vec<usize>>, TsError> {
        let Some(h) = &config.horizontal else {
            return Ok(None);
        };
        let chosen = select_pivots(&h.strategy, h.n_pivots, self.store.n_series())?;
        let read = matches!(config.bound, BoundMode::Exhaustive)
            || matches!(self.pairs, PairSketches::OnDemand(_));
        Ok(read.then_some(chosen))
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
    /// only the new columns — the streaming maintenance path. Each pair's
    /// sketch and costs are extended in one pass, from the moments of the
    /// new basic windows only. An extended prefix is bit-identical to a
    /// fresh build, so drains keep matching the batch engine.
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
        let from = store.layout().count;
        if store.append_tail(tail, tail_start)? == 0 {
            return Ok(());
        }
        let PairSketches::Resident(pairs) = pairs else {
            return Ok(());
        };
        let (layout, n, base) = (*store.layout(), store.n_series(), ranks.start);
        let moments = costs
            .is_some()
            .then(|| store.basic_moments(from..layout.count));
        let mut cost_slots = costs.as_deref_mut().map(|c| c.iter_mut());
        let mut work: Vec<(&mut PairSketch, Option<&mut PairCosts>)> = pairs
            .iter_mut()
            .map(|p| (p, cost_slots.as_mut().and_then(Iterator::next)))
            .collect();
        // Every pair ingests the same Δ columns — uniform cost — so static
        // per-worker slices are the right schedule here (no stealing
        // overhead). The preconditions of `PairSketch::append_tail` hold
        // by construction once `store.append_tail` succeeded: all rows
        // share the grown length and the layout only ever grows.
        exec::par_chunks_mut(&mut work, threads, |offset, piece| {
            for (k, (pair, cost)) in piece.iter_mut().enumerate() {
                let (i, j) = triangular::unrank(base + offset + k, n);
                pair.append_tail(&layout, tail.row(i), tail.row(j), tail_start)
                    .expect("pair/store layouts kept in lockstep");
                if let (Some(cost), Some(moments)) = (cost, &moments) {
                    cost.extend(pair.basic_correlations(moments, i, j));
                }
            }
        });
        Ok(())
    }

    /// Walks the pair ranks `ranks` over `geo` at threshold `beta` on
    /// `config.threads` work-stealing workers and assembles the
    /// per-window matrices — the one pair walk behind batch runs,
    /// streaming drains and shared queries.
    ///
    /// Every stolen chunk pushes each edge straight onto its own list for
    /// that window. A chunk walks ascending ranks and [`walk_pair`] emits
    /// a pair's windows in ascending order, so every list is
    /// `(i, j)`-sorted; [`exec::par_map_chunks`] hands the chunks back in
    /// rank order, and [`ThresholdedMatrix::from_window_lists`]
    /// concatenates each window's lists in that order, so the output is
    /// identical for every thread count. On-demand jump walks build each
    /// pair's Eq. 2 costs from one moment table per walk.
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
        let (w0, w1) = (geo.global_window(0), geo.global_window(geo.n_windows));
        // Jump walks without resident costs build each pair's costs here;
        // every pair shares the series' per-basic-window (mean, σ).
        let moments = (matches!(bound, BoundMode::PaperJump { .. }) && self.costs.is_none())
            .then(|| self.store.basic_moments(0..self.store.layout().count));
        let chunks = exec::par_map_chunks(ranks.len(), config.threads, WALK_GRAIN, |local| {
            let mut windows: Vec<Vec<Edge>> = vec![Vec::new(); geo.n_windows];
            let mut stats = PruningStats::default();
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
                let costs = match (&self.costs, &moments) {
                    (Some(all), _) => Some(&all[k]),
                    (None, Some(m)) => {
                        built_costs =
                            PairCosts::from_correlations(pair.basic_correlations(m, i, j), rule);
                        Some(&built_costs)
                    }
                    (None, None) => None,
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
                        windows[w].push(Edge {
                            i: ei,
                            j: ej,
                            value,
                        })
                    },
                );
            }
            (windows, stats)
        });
        let mut stats = PruningStats::default();
        let lists = chunks
            .into_iter()
            .map(|(windows, s)| {
                stats.merge(&s);
                windows
            })
            .collect();
        let matrices = ThresholdedMatrix::from_window_lists(n, beta, rule, geo.n_windows, lists);
        QueryResult { matrices, stats }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bounds::DepartureCost;
    use crate::walker::pair_costs;
    use sketch::output::EdgeRule;
    use sketch::SlidingQuery;

    pub(crate) const WIDTH: usize = 10;

    /// Seven series over `len` columns. Series 2 is constant throughout,
    /// series 4 is constant in basic windows 1 and 5, and series 5 is
    /// constant (at another level) in basic window 1 too — so some `c_b`
    /// are undefined on one side and some on both.
    pub(crate) fn matrix(len: usize) -> TimeSeriesMatrix {
        let rows = (0..7)
            .map(|s| {
                (0..len)
                    .map(|t| {
                        let b = t / WIDTH;
                        match s {
                            2 => 3.25,
                            4 if b == 1 || b == 5 => -1.5,
                            5 if b == 1 => 0.75,
                            _ => ((t * (s + 2)) as f64 * 0.173).sin() + 0.03 * (s * t) as f64,
                        }
                    })
                    .collect()
            })
            .collect();
        TimeSeriesMatrix::from_rows(rows).unwrap()
    }

    fn config(rule: EdgeRule, threads: usize) -> DangoronConfig {
        DangoronConfig {
            basic_window: WIDTH,
            bound: BoundMode::PaperJump { slack: 0.0 },
            edge_rule: rule,
            threads,
            ..Default::default()
        }
    }

    fn build(
        x: &TimeSeriesMatrix,
        ranks: Range<usize>,
        cfg: &DangoronConfig,
    ) -> PairState<'static> {
        let layout = BasicWindowLayout::cover(0, x.len(), WIDTH).unwrap();
        PairState::build(x, layout, ranks, cfg, None).unwrap()
    }

    /// Bitwise equality, except that any two NaNs agree: Rust leaves the
    /// payload of a NaN result unspecified, and a NaN cell makes NaN
    /// cross sums and costs.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_prefix_bits(got: &DepartureCost, want: &DepartureCost, what: &str) {
        assert_eq!(got.n_basic(), want.n_basic(), "{what}: length");
        for b in 0..=want.n_basic() {
            let (g, w) = (got.cost(0, b), want.cost(0, b));
            assert!(same(g, w), "{what}: prefix entry {b}: {g:e} vs {w:e}");
        }
    }

    fn assert_sketch_bits(got: &PairSketch, want: &PairSketch, what: &str) {
        let (g, w) = (got.cross_prefix(), want.cross_prefix());
        assert_eq!(g.len(), w.len(), "{what}: length");
        for (b, (g, w)) in g.iter().zip(w).enumerate() {
            assert!(
                same(*g, *w),
                "{what}: cross prefix entry {b}: {g:e} vs {w:e}"
            );
        }
    }

    fn assert_costs_bits(got: &PairCosts, want: &PairCosts, what: &str) {
        assert_prefix_bits(&got.upper, &want.upper, what);
        assert_eq!(got.lower.is_some(), want.lower.is_some(), "{what}: lower");
        if let (Some(g), Some(w)) = (&got.lower, &want.lower) {
            assert_prefix_bits(g, w, what);
        }
    }

    /// Checks every resident pair of `state` against a fresh per-pair
    /// sketch build and the public [`pair_costs`].
    fn assert_matches_per_pair_build(state: &PairState<'_>, x: &TimeSeriesMatrix, rule: EdgeRule) {
        let (store, n) = (state.store(), x.n_series());
        assert_eq!(state.costs().len(), state.ranks().len());
        for (k, rank) in state.ranks().enumerate() {
            let (i, j) = triangular::unrank(rank, n);
            let sketch = PairSketch::build(store.layout(), x.row(i), x.row(j)).unwrap();
            let what = format!("{rule:?} rank {rank}");
            assert_sketch_bits(&state.resident()[k], &sketch, &what);
            let want = pair_costs(store, &sketch, i, j, rule);
            assert_costs_bits(&state.costs()[k], &want, &what);
        }
    }

    #[test]
    fn fused_cost_prefixes_match_pair_costs_bitwise() {
        let x = matrix(240);
        let n_pairs = triangular::count(x.n_series());
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            for threads in [1, 2, 8] {
                let cfg = config(rule, threads);
                for ranks in [0..n_pairs, 0..5, 5..6, 3..17, n_pairs - 4..n_pairs, 9..9] {
                    let state = build(&x, ranks, &cfg);
                    assert_matches_per_pair_build(&state, &x, rule);
                }
            }
        }
    }

    /// Forty series over `len` columns — three 16-row blocks of the strip
    /// builder — in basic windows of `width`. Series 2 is constant
    /// throughout, series 4 in basic windows 1 and 5, and series 5 and
    /// 21 in basic window 1 too; series 11 holds a NaN cell, series 23
    /// a `+inf` cell and series 37 a `−inf` cell.
    fn wide_matrix(len: usize, width: usize) -> TimeSeriesMatrix {
        let rows = (0..40)
            .map(|s| {
                (0..len)
                    .map(|t| match (s, t / width, t) {
                        (11, _, 17) => f64::NAN,
                        (23, _, 3) => f64::INFINITY,
                        (37, _, 40) => f64::NEG_INFINITY,
                        (2, _, _) => 3.25,
                        (4, 1 | 5, _) => -1.5,
                        (5 | 21, 1, _) => 0.75,
                        _ => {
                            ((t * (s % 9 + 2)) as f64 * 0.173 + s as f64).sin()
                                + 0.01 * (s * t) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        TimeSeriesMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn blocked_strips_match_per_pair_builds_across_blocks() {
        // Intervals of the 780-pair triangle that start and end mid-row,
        // inside a 16-row block and across its edges (rows 16 and 32),
        // plus the whole triangle; threads 2 and 8 cut them further into
        // stolen chunks. Widths 24 and 10 (the kernel's remainder lanes).
        let n = 40;
        let r = |i, j| triangular::rank(i, j, n);
        let intervals = [
            0..triangular::count(n),
            r(3, 17)..r(3, 30),
            r(3, 17)..r(21, 30),
            r(14, 38)..r(17, 19),
            r(15, 16)..r(33, 36),
            r(31, 32)..r(38, 39) + 1,
        ];
        for width in [24, 10] {
            let x = wide_matrix(12 * width + 7, width);
            let layout = BasicWindowLayout::cover(0, x.len(), width).unwrap();
            for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
                for threads in [1, 2, 8] {
                    let cfg = DangoronConfig {
                        basic_window: width,
                        ..config(rule, threads)
                    };
                    for ranks in intervals.clone() {
                        let state = PairState::build(&x, layout, ranks, &cfg, None).unwrap();
                        assert_matches_per_pair_build(&state, &x, rule);
                    }
                }
            }
        }
    }

    #[test]
    fn fresh_cost_prefixes_are_sized_exactly() {
        let x = matrix(245);
        let n_basic = x.len() / WIDTH;
        let state = build(
            &x,
            0..triangular::count(x.n_series()),
            &config(EdgeRule::Absolute, 2),
        );
        for sketch in state.resident() {
            assert_eq!(sketch.count(), n_basic);
            assert_eq!(
                sketch.memory_bytes(),
                (n_basic + 1) * std::mem::size_of::<f64>()
            );
        }
        for costs in state.costs() {
            let lower = costs
                .lower
                .as_ref()
                .expect("absolute rule keeps a lower prefix");
            for prefix in [&costs.upper, lower] {
                assert_eq!(prefix.n_basic(), n_basic);
                assert_eq!(
                    prefix.memory_bytes(),
                    (n_basic + 1) * std::mem::size_of::<f64>()
                );
            }
        }
    }

    #[test]
    fn appended_cost_prefixes_match_a_fresh_build() {
        let x = matrix(300);
        let n_pairs = triangular::count(x.n_series());
        let chunkings: [&[usize]; 3] = [&[240], &[7, 13, 1, 99, 120], &[10; 24]];
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            for (c, chunks) in chunkings.iter().enumerate() {
                for ranks in [0..n_pairs, 4..15] {
                    let cfg = config(rule, 1 + c);
                    let mut state = build(&x.slice_columns(0, 60).unwrap(), ranks.clone(), &cfg);
                    let mut end = 60;
                    for &chunk in *chunks {
                        end += chunk;
                        // Hand over only what the store has not absorbed yet.
                        let absorbed = state.store().layout().end();
                        let tail = x.slice_columns(absorbed, end).unwrap();
                        state.append_tail(&tail, absorbed, cfg.threads).unwrap();
                    }
                    assert_eq!(end, x.len());
                    let fresh = build(&x, ranks, &cfg);
                    assert_eq!(state.store(), fresh.store());
                    assert_matches_per_pair_build(&state, &x, rule);
                    for (got, want) in state.costs().iter().zip(fresh.costs()) {
                        assert_costs_bits(got, want, &format!("{rule:?} chunking {c}"));
                    }
                }
            }
        }
    }

    /// The walk fixture: `wide_matrix` over 30 basic windows of 10, in
    /// windows of 4 basic windows sliding by 1 (27 windows), at β 0.5.
    fn walk_query() -> (TimeSeriesMatrix, SlidingQuery) {
        let x = wide_matrix(300, WIDTH);
        let query = SlidingQuery {
            start: 0,
            end: x.len(),
            window: 4 * WIDTH,
            step: WIDTH,
            threshold: 0.5,
        };
        (x, query)
    }

    /// The geometry of a drain whose first window is global window `first`.
    fn drain_geometry(query: &SlidingQuery, first: usize) -> WalkGeometry {
        let whole = WalkGeometry::for_query(query, WIDTH);
        WalkGeometry {
            n_windows: whole.n_windows - first,
            offset_bw: first * whole.step_bw,
            ..whole
        }
    }

    /// The per-pair reference walk: every pair of `ranks` gets a fresh
    /// sketch from raw rows and, in jump mode, its costs from
    /// [`pair_costs`]; [`walk_pair`] tags each edge with its window and
    /// [`ThresholdedMatrix::assemble_windows`] sorts them out. `prefilter`
    /// skips pairs wholesale as an on-demand state does.
    #[allow(clippy::too_many_arguments)]
    fn reference_walk(
        store: &SketchStore,
        x: &TimeSeriesMatrix,
        cfg: &DangoronConfig,
        ranks: Range<usize>,
        geo: WalkGeometry,
        beta: f64,
        pivots: Option<&PivotSet>,
        prefilter: bool,
    ) -> QueryResult {
        let (n, rule) = (x.n_series(), cfg.edge_rule);
        let (w0, w1) = (geo.global_window(0), geo.global_window(geo.n_windows));
        let (mut flat, mut stats) = (Vec::new(), PruningStats::default());
        for rank in ranks {
            let (i, j) = triangular::unrank(rank, n);
            if prefilter
                && pivots.is_some_and(|pv| pv.pair_never_edges_in(i, j, beta, rule, w0, w1))
            {
                stats.n_pairs += 1;
                stats.total_cells += geo.n_windows as u64;
                stats.pairs_skipped_entirely += 1;
                continue;
            }
            let pair = PairSketch::build(store.layout(), x.row(i), x.row(j)).unwrap();
            let costs = matches!(cfg.bound, BoundMode::PaperJump { .. })
                .then(|| pair_costs(store, &pair, i, j, rule));
            let (ei, ej) = (i as u32, j as u32);
            walk_pair(
                store,
                &pair,
                i,
                j,
                geo,
                beta,
                rule,
                cfg.bound,
                costs.as_ref(),
                pivots,
                &mut stats,
                |w, value| {
                    flat.push((
                        w as u32,
                        Edge {
                            i: ei,
                            j: ej,
                            value,
                        },
                    ))
                },
            );
        }
        let matrices = ThresholdedMatrix::assemble_windows(n, beta, rule, geo.n_windows, flat);
        QueryResult { matrices, stats }
    }

    /// Every edge of `result` as `(window, i, j, value bits)`.
    fn edge_bits(result: &QueryResult) -> Vec<(u32, u32, u32, u64)> {
        ThresholdedMatrix::flatten_windows(&result.matrices)
            .into_iter()
            .map(|(w, e)| (w, e.i, e.j, e.value.to_bits()))
            .collect()
    }

    #[test]
    fn chunked_walks_equal_a_per_pair_reference() {
        let (x, query) = walk_query();
        let (n, beta) = (x.n_series(), query.threshold);
        let layout = BasicWindowLayout::for_query(&query, WIDTH).unwrap();
        let r = |i, j| triangular::rank(i, j, n);
        let intervals = [0..triangular::count(n), r(3, 17)..r(33, 36)];
        let bounds = [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }];
        for (bound, rule) in bounds
            .into_iter()
            .flat_map(|b| [EdgeRule::Positive, EdgeRule::Absolute].map(|r| (b, r)))
        {
            let cfg = DangoronConfig {
                bound,
                ..config(rule, 2)
            };
            for on_demand in [None, Some(&x)] {
                let state =
                    PairState::build(&x, layout, 0..triangular::count(n), &cfg, on_demand).unwrap();
                let table =
                    PivotSet::build(&x, state.store(), &layout, &query, vec![0, 13, 27], None, 2)
                        .unwrap();
                for pivots in [None, Some(&table)] {
                    for first in [0, 1, 3] {
                        let geo = drain_geometry(&query, first);
                        for ranks in intervals.clone() {
                            let want = reference_walk(
                                state.store(),
                                &x,
                                &cfg,
                                ranks.clone(),
                                geo,
                                beta,
                                pivots,
                                on_demand.is_some(),
                            );
                            assert!(want.total_edges() > 0);
                            for threads in [1, 2, 8] {
                                if threads > 1 {
                                    // Every claim sizes itself from the
                                    // counter it advances, so the walk
                                    // cuts `ranks` into these chunks too.
                                    let chunks = exec::par_map_chunks(
                                        ranks.len(),
                                        threads,
                                        WALK_GRAIN,
                                        |r| r,
                                    );
                                    assert!(chunks.len() >= 20, "{} chunks", chunks.len());
                                }
                                let cfg = DangoronConfig {
                                    threads,
                                    ..cfg.clone()
                                };
                                let got = state.walk(&cfg, ranks.clone(), geo, beta, pivots);
                                let what = format!(
                                    "{bound:?} {rule:?} on-demand {} pivots {} first {first} ranks {ranks:?} threads {threads}",
                                    on_demand.is_some(),
                                    pivots.is_some()
                                );
                                assert_eq!(got.matrices.len(), geo.n_windows, "{what}");
                                assert_eq!(edge_bits(&got), edge_bits(&want), "{what}");
                                assert_eq!(got.stats, want.stats, "{what}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn on_demand_jump_walks_equal_resident_ones() {
        // The on-demand walk builds each pair's Eq. 2 costs from a moment
        // table; the resident state holds the fused prepare's costs. Both
        // read the same `c_b` expression, so edges and counters agree bit
        // for bit. With pivots, the on-demand walk also skips pairs
        // wholesale, which moves those pairs' cells out of the triangle
        // and jump counters (compared cell by cell in
        // `chunked_walks_equal_a_per_pair_reference`).
        let (x, query) = walk_query();
        let (n, beta) = (x.n_series(), query.threshold);
        let layout = BasicWindowLayout::for_query(&query, WIDTH).unwrap();
        let geo = WalkGeometry::for_query(&query, WIDTH);
        let all = 0..triangular::count(n);
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            let cfg = config(rule, 1);
            let resident = PairState::build(&x, layout, all.clone(), &cfg, None).unwrap();
            let on_demand = PairState::build(&x, layout, all.clone(), &cfg, Some(&x)).unwrap();
            assert!(on_demand.costs().is_empty());
            let table = PivotSet::build(
                &x,
                resident.store(),
                &layout,
                &query,
                vec![0, 13, 27],
                None,
                1,
            )
            .unwrap();
            for pivots in [None, Some(&table)] {
                for threads in [1, 2, 8] {
                    let cfg = DangoronConfig {
                        threads,
                        ..cfg.clone()
                    };
                    let want = resident.walk(&cfg, all.clone(), geo, beta, pivots);
                    let got = on_demand.walk(&cfg, all.clone(), geo, beta, pivots);
                    let what = format!("{rule:?} pivots {} threads {threads}", pivots.is_some());
                    assert!(want.stats.jumps > 0, "{what}");
                    assert_eq!(edge_bits(&got), edge_bits(&want), "{what}");
                    if pivots.is_none() {
                        assert_eq!(got.stats, want.stats, "{what}");
                    } else {
                        let (g, w) = (&got.stats, &want.stats);
                        assert_eq!(
                            (g.n_pairs, g.total_cells, g.edges),
                            (w.n_pairs, w.total_cells, w.edges),
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}
