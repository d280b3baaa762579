//! The per-pair window walker — Figure 2's state machine.
//!
//! For one pair the [`BoundMode::PaperJump`] walker visits windows left
//! to right and evaluates each visited window exactly with the O(1) sketch
//! combine. Above-threshold windows emit an edge and advance by one (the
//! network needs the exact value, so no skipping there). Below-threshold
//! windows attempt an Eq. 2 jump from that exact value: binary search for
//! the largest `k` whose bound stays below `β`, skip those `k` windows
//! (Fig. 2's green blocks), land on the next (red block) and re-evaluate
//! exactly. It reads no pivot table, so horizontal pruning cannot move a
//! landing: each landing depends only on the last exact value.
//!
//! In [`BoundMode::Exhaustive`] no window depends on the one before it, so
//! the walk evaluates windows in blocks of four: one
//! [`tsdata::stats::pearson_from_sums4`] forms the four windows'
//! correlations from the prefix rows. It reads no pivot table either: a
//! per-window triangle fold cost more than the four-lane evaluation it
//! would skip, so pivots act only through the wholesale pair prefilter
//! ([`PivotSet::pair_never_edges_in`]) where pair sketches are built on
//! demand.

use crate::bounds::{max_jump, max_jump_absolute, PairCosts};
use crate::config::BoundMode;
use crate::pivot::PivotSet;
use crate::stats::PruningStats;
use sketch::output::EdgeRule;
use sketch::{combine, PairSketch, SketchStore, SlidingQuery};

/// Window-to-basic-window geometry shared by every pair of a query.
///
/// `offset_bw` shifts the whole walk into a global basic-window frame:
/// batch queries walk from the layout origin (`offset_bw = 0`), while a
/// streaming drain walks only the suffix of newly completed windows
/// (`offset_bw = first_new_window · step_bw`). One walker serves both.
#[derive(Debug, Clone, Copy)]
pub struct WalkGeometry {
    /// Number of sliding windows to walk (`γ + 1`, or the suffix length).
    pub n_windows: usize,
    /// Basic windows per query window (`n_s`).
    pub ns: usize,
    /// Basic windows departed per slide (`η / B`).
    pub step_bw: usize,
    /// Basic-window index of local window 0 — a multiple of `step_bw`.
    pub offset_bw: usize,
}

impl WalkGeometry {
    /// The geometry of `query` over basic windows of `width` columns,
    /// walked from the layout origin (`offset_bw = 0`).
    pub(crate) fn for_query(query: &SlidingQuery, width: usize) -> Self {
        Self {
            n_windows: query.n_windows(),
            ns: query.window / width,
            step_bw: query.step / width,
            offset_bw: 0,
        }
    }

    /// First basic-window index of (local) window `w`.
    #[inline]
    pub fn first_bw(&self, w: usize) -> usize {
        self.offset_bw + w * self.step_bw
    }

    /// Basic-window range `[b0, b1)` of (local) window `w`.
    #[inline]
    pub fn bw_range(&self, w: usize) -> (usize, usize) {
        let b0 = self.first_bw(w);
        (b0, b0 + self.ns)
    }

    /// Global window index of local window `w` — the index pivot tables
    /// and emitted matrices are keyed by.
    #[inline]
    pub fn global_window(&self, w: usize) -> usize {
        debug_assert!(self.offset_bw.is_multiple_of(self.step_bw));
        self.offset_bw / self.step_bw + w
    }
}

/// Builds the full [`PairCosts`] for a pair: always the upper-bound
/// prefix, plus the lower-bound prefix when the edge rule needs it.
pub fn pair_costs(
    store: &SketchStore,
    pair: &PairSketch,
    i: usize,
    j: usize,
    rule: EdgeRule,
) -> PairCosts {
    let nb = store.layout().count;
    PairCosts::from_correlations(
        (0..nb).map(|b| pair.basic_correlation(store, i, j, b)),
        rule,
    )
}

/// Windows per block of the exhaustive walk — one lane each.
const LANES: usize = 4;

/// Walks all windows of one pair, calling `emit(window, value)` for every
/// window whose correlation passes `rule` at `beta`, in ascending window
/// order. Counters are recorded into `stats`. `dep` must be given in
/// [`BoundMode::PaperJump`].
///
/// No walk reads `_pivots`: every window either walk visits is evaluated
/// exactly. The parameter stays because the traced rebuild in
/// `benchmark/` passes its pivot table here, and that package changes
/// only with a benchmark upkeep.
#[allow(clippy::too_many_arguments)]
pub fn walk_pair(
    store: &SketchStore,
    pair: &PairSketch,
    i: usize,
    j: usize,
    geo: WalkGeometry,
    beta: f64,
    rule: EdgeRule,
    mode: BoundMode,
    dep: Option<&PairCosts>,
    _pivots: Option<&PivotSet>,
    stats: &mut PruningStats,
    mut emit: impl FnMut(usize, f64),
) {
    stats.n_pairs += 1;
    stats.total_cells += geo.n_windows as u64;

    let slack = match mode {
        BoundMode::Exhaustive => {
            return walk_exhaustive(store, pair, i, j, geo, beta, rule, stats, emit);
        }
        BoundMode::PaperJump { slack } => slack,
    };
    let dep = dep.expect("PaperJump mode requires departure costs");
    let mut w = 0usize;
    while w < geo.n_windows {
        let (b0, b1) = geo.bw_range(w);
        stats.evaluated += 1;
        let Ok(c) = combine::window_correlation(store, pair, i, j, b0, b1) else {
            // Zero-variance window: correlation undefined, no edge, and no
            // jump (the Eq. 2 model does not apply).
            w += 1;
            continue;
        };
        if rule.keeps(c, beta) {
            stats.edges += 1;
            emit(w, c);
            w += 1;
            continue;
        }

        // Below threshold: jump from the exact value.
        let k_max = geo.n_windows - 1 - w;
        let k = match rule {
            EdgeRule::Positive => max_jump(
                c,
                beta,
                slack,
                geo.ns,
                geo.step_bw,
                geo.first_bw(w),
                k_max,
                &dep.upper,
            ),
            EdgeRule::Absolute => max_jump_absolute(
                c,
                beta,
                slack,
                geo.ns,
                geo.step_bw,
                geo.first_bw(w),
                k_max,
                &dep.upper,
                dep.lower
                    .as_ref()
                    .expect("absolute rule requires the lower-bound cost"),
            ),
        };
        if k == 0 {
            w += 1;
        } else {
            stats.record_jump(k);
            w += k + 1;
        }
    }
}

/// The exhaustive walk, four windows per block. Each lane's sums are the
/// ones [`combine::window_correlation`] forms, fed through the same IEEE
/// operations, so every lane is bit-identical to a per-window walk. The
/// last block's lanes past `n_windows` re-read the last window and are
/// ignored, so every window takes this one path. Every window counts as
/// evaluated, and is emitted in ascending order when `rule` keeps it.
#[allow(clippy::too_many_arguments)]
fn walk_exhaustive(
    store: &SketchStore,
    pair: &PairSketch,
    i: usize,
    j: usize,
    geo: WalkGeometry,
    beta: f64,
    rule: EdgeRule,
    stats: &mut PruningStats,
    mut emit: impl FnMut(usize, f64),
) {
    let (sum_i, sq_i) = store.prefix_rows(i);
    let (sum_j, sq_j) = store.prefix_rows(j);
    let cross = pair.cross_prefix();
    let n = (geo.ns * store.layout().width) as f64;
    stats.evaluated += geo.n_windows as u64;
    for w in (0..geo.n_windows).step_by(LANES) {
        let lanes = LANES.min(geo.n_windows - w);
        // The sums `window_correlation` forms, four windows at a time;
        // lanes past `n_windows` re-read the last window.
        let span = |prefix: &[f64]| -> [f64; LANES] {
            std::array::from_fn(|l| {
                let (b0, b1) = geo.bw_range(w + l.min(lanes - 1));
                prefix[b1] - prefix[b0]
            })
        };
        let c = tsdata::stats::pearson_from_sums4(
            n,
            &span(sum_i),
            &span(sum_j),
            &span(sq_i),
            &span(sq_j),
            &span(cross),
        );
        for (l, &c) in c.iter().enumerate().take(lanes) {
            // A zero-variance window is undefined (NaN): no edge.
            if rule.keeps(c, beta) {
                stats.edges += 1;
                emit(w + l, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch::{BasicWindowLayout, SlidingQuery};
    use tsdata::{generators, stats as tstats, TimeSeriesMatrix};

    struct Fixture {
        x: TimeSeriesMatrix,
        store: SketchStore,
        pair: PairSketch,
        query: SlidingQuery,
        geo: WalkGeometry,
    }

    fn fixture(rho: f64, beta: f64) -> Fixture {
        let (a, b) = generators::correlated_pair(400, rho, 21);
        let x = TimeSeriesMatrix::from_rows(vec![a, b]).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 400,
            window: 80,
            step: 20,
            threshold: beta,
        };
        let layout = BasicWindowLayout::for_query(&query, 20).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        let pair = PairSketch::build(&layout, x.row(0), x.row(1)).unwrap();
        let geo = WalkGeometry {
            n_windows: query.n_windows(),
            ns: layout.windows_per_query(query.window),
            step_bw: query.step / layout.width,
            offset_bw: 0,
        };
        Fixture {
            x,
            store,
            pair,
            query,
            geo,
        }
    }

    #[test]
    fn extended_pair_costs_match_a_fresh_build() {
        let f = fixture(0.6, 0.8);
        let head = f.x.slice_columns(0, 140).unwrap();
        let layout = BasicWindowLayout::cover(0, 140, 20).unwrap();
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            let mut store = SketchStore::build(&head, layout).unwrap();
            let mut pair = PairSketch::build(&layout, head.row(0), head.row(1)).unwrap();
            let mut costs = pair_costs(&store, &pair, 0, 1, rule);
            store.append_tail(&f.x, 0).unwrap();
            pair.append_tail(store.layout(), f.x.row(0), f.x.row(1), 0)
                .unwrap();
            let (from, nb) = (costs.upper.n_basic(), store.layout().count);
            costs.extend((from..nb).map(|b| pair.basic_correlation(&store, 0, 1, b)));
            // `Debug` prints each f64 in its shortest round-trip form.
            let fresh = pair_costs(&f.store, &f.pair, 0, 1, rule);
            assert_eq!(format!("{costs:?}"), format!("{fresh:?}"), "{rule:?}");
        }
    }

    fn naive_edges(f: &Fixture) -> Vec<(usize, f64)> {
        (0..f.query.n_windows())
            .filter_map(|w| {
                let (ws, we) = f.query.window_range(w);
                let r = tstats::pearson(&f.x.row(0)[ws..we], &f.x.row(1)[ws..we]).ok()?;
                (r >= f.query.threshold).then_some((w, r))
            })
            .collect()
    }

    #[test]
    fn exhaustive_walk_matches_naive_exactly() {
        for &(rho, beta) in &[(0.9, 0.8), (0.3, 0.5), (0.0, 0.9), (0.95, 0.2)] {
            let f = fixture(rho, beta);
            let mut got = Vec::new();
            let mut stats = PruningStats::default();
            walk_pair(
                &f.store,
                &f.pair,
                0,
                1,
                f.geo,
                beta,
                EdgeRule::Positive,
                BoundMode::Exhaustive,
                None,
                None,
                &mut stats,
                |w, v| got.push((w, v)),
            );
            let expected = naive_edges(&f);
            assert_eq!(got.len(), expected.len(), "rho={rho} beta={beta}");
            for ((gw, gv), (ew, ev)) in got.iter().zip(&expected) {
                assert_eq!(gw, ew);
                assert!((gv - ev).abs() < 1e-9);
            }
            assert_eq!(stats.evaluated, f.geo.n_windows as u64);
            assert_eq!(stats.skipped_by_jump, 0);
        }
    }

    #[test]
    fn jump_mode_emits_subset_with_exact_values() {
        let f = fixture(0.4, 0.85);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut got = Vec::new();
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.85,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |w, v| got.push((w, v)),
        );
        let expected = naive_edges(&f);
        // Every emission must be a true edge with the exact value.
        for (w, v) in &got {
            let found = expected.iter().find(|(ew, _)| ew == w);
            assert!(found.is_some(), "spurious edge at window {w}");
            assert!((found.unwrap().1 - v).abs() < 1e-9);
        }
        // Work accounting must be consistent.
        assert_eq!(
            stats.evaluated + stats.skipped_by_jump,
            f.geo.n_windows as u64
        );
    }

    #[test]
    fn jump_mode_skips_on_uncorrelated_pair() {
        let f = fixture(0.0, 0.9);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.9,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |_, _| {},
        );
        assert!(
            stats.skipped_by_jump > 0,
            "uncorrelated pair at high β should produce jumps: {stats:?}"
        );
        assert!(stats.jumps > 0);
        assert!(stats.mean_jump_length() >= 1.0);
    }

    #[test]
    fn perfectly_correlated_pair_emits_everywhere() {
        let f = fixture(0.999, 0.9);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut got = Vec::new();
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.9,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |w, v| got.push((w, v)),
        );
        assert_eq!(got.len(), f.geo.n_windows);
        assert_eq!(stats.edges, f.geo.n_windows as u64);
        assert_eq!(stats.skipped_by_jump, 0);
    }

    #[test]
    fn zero_variance_pair_is_silent() {
        let flat = vec![5.0; 400];
        let (a, _) = generators::correlated_pair(400, 0.5, 3);
        let x = TimeSeriesMatrix::from_rows(vec![flat, a]).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 400,
            window: 80,
            step: 40,
            threshold: 0.5,
        };
        let layout = BasicWindowLayout::for_query(&query, 40).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        let pair = PairSketch::build(&layout, x.row(0), x.row(1)).unwrap();
        let geo = WalkGeometry {
            n_windows: query.n_windows(),
            ns: 2,
            step_bw: 1,
            offset_bw: 0,
        };
        let dep = pair_costs(&store, &pair, 0, 1, EdgeRule::Positive);
        let mut stats = PruningStats::default();
        let mut emitted = 0;
        walk_pair(
            &store,
            &pair,
            0,
            1,
            geo,
            0.5,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |_, _| emitted += 1,
        );
        assert_eq!(emitted, 0);
        assert_eq!(stats.edges, 0);
    }

    #[test]
    fn offset_walk_equals_suffix_of_full_walk() {
        // The streaming drain walks only new windows via `offset_bw`; its
        // emissions must be exactly the full walk's, shifted. (Exhaustive
        // mode: jump state does not carry across the suffix boundary.)
        let f = fixture(0.85, 0.8);
        let mut full = Vec::new();
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.8,
            EdgeRule::Positive,
            BoundMode::Exhaustive,
            None,
            None,
            &mut stats,
            |w, v| full.push((w, v)),
        );
        for skip in [1usize, 3, 7] {
            let geo = WalkGeometry {
                n_windows: f.geo.n_windows - skip,
                offset_bw: skip * f.geo.step_bw,
                ..f.geo
            };
            assert_eq!(geo.global_window(0), skip);
            let mut got = Vec::new();
            let mut stats = PruningStats::default();
            walk_pair(
                &f.store,
                &f.pair,
                0,
                1,
                geo,
                0.8,
                EdgeRule::Positive,
                BoundMode::Exhaustive,
                None,
                None,
                &mut stats,
                |w, v| got.push((w + skip, v)),
            );
            let expected: Vec<(usize, f64)> =
                full.iter().filter(|(w, _)| *w >= skip).cloned().collect();
            assert_eq!(got, expected, "skip={skip}");
        }
    }

    /// The per-window walk the four-window blocks must reproduce: one
    /// `combine::window_correlation` per window, with no pivot table.
    /// Edges as `(window, bits)`.
    #[allow(clippy::too_many_arguments)]
    fn per_window_oracle(
        store: &SketchStore,
        pair: &PairSketch,
        i: usize,
        j: usize,
        geo: WalkGeometry,
        beta: f64,
        rule: EdgeRule,
    ) -> (Vec<(usize, u64)>, PruningStats) {
        let mut stats = PruningStats {
            n_pairs: 1,
            total_cells: geo.n_windows as u64,
            ..PruningStats::default()
        };
        let mut edges = Vec::new();
        for w in 0..geo.n_windows {
            stats.evaluated += 1;
            let (b0, b1) = geo.bw_range(w);
            if let Ok(c) = combine::window_correlation(store, pair, i, j, b0, b1) {
                if rule.keeps(c, beta) {
                    stats.edges += 1;
                    edges.push((w, c.to_bits()));
                }
            }
        }
        (edges, stats)
    }

    #[test]
    fn exhaustive_lanes_equal_the_per_window_walk() {
        // The state-test fixture: series 2 is constant throughout and
        // series 4/5 are constant in some basic windows, so with one basic
        // window per query window (`ns = 1`) zero-variance windows sit
        // inside blocks next to defined ones, and pivots 2 and 4 carry NaN
        // lanes. The basic-window counts, steps and drain offsets give
        // every `n_windows % 4` class, so the last block is partial in
        // three of them. Each walk is passed two pivot tables and none, and
        // must give the pivot-free result every time: no walk reads the
        // table. The whole sweep runs twice, with the kernel dispatcher
        // free and forced to scalar (the sketches' builds), and both runs
        // must agree.
        let runs: Vec<Walks> = [false, true]
            .into_iter()
            .map(|forced| {
                kernel::force_scalar(forced);
                let run = lanes_against_the_per_window_walk();
                kernel::force_scalar(false);
                run
            })
            .collect();
        assert!(runs[0] == runs[1], "the two backends' walks differ");
    }

    /// Each walk's edges as `(window, bits)`, with its counters.
    type Walks = Vec<(Vec<(usize, u64)>, PruningStats)>;

    /// Every walk of the sweep in [`exhaustive_lanes_equal_the_per_window_walk`],
    /// each checked against [`per_window_oracle`].
    fn lanes_against_the_per_window_walk() -> Walks {
        use crate::state::tests::{matrix, WIDTH};
        let mut runs = Vec::new();
        let mut seen = PruningStats::default();
        let mut mods = [false; 4];
        for nb in [23usize, 24, 25, 26] {
            let x = matrix(nb * WIDTH);
            let layout = BasicWindowLayout::cover(0, nb * WIDTH, WIDTH).unwrap();
            let store = SketchStore::build(&x, layout).unwrap();
            let pairs = sketch::pair::build_all(&layout, &x, 1).unwrap();
            for (ns, step_bw) in [(1usize, 1usize), (3, 1), (3, 2), (4, 2)] {
                let query = SlidingQuery {
                    start: 0,
                    end: nb * WIDTH,
                    window: ns * WIDTH,
                    step: step_bw * WIDTH,
                    threshold: 0.5,
                };
                let tables: Vec<Option<PivotSet>> = [vec![1, 4], vec![2, 5, 6]]
                    .into_iter()
                    .map(|p| {
                        Some(PivotSet::build(&x, &store, &layout, &query, p, None, 1).unwrap())
                    })
                    .chain([None])
                    .collect();
                for skip in [0usize, 1, 3] {
                    let geo = WalkGeometry {
                        n_windows: query.n_windows() - skip,
                        ns,
                        step_bw,
                        offset_bw: skip * step_bw,
                    };
                    mods[geo.n_windows % 4] = true;
                    for (rank, pair) in pairs.iter().enumerate() {
                        let (i, j) = sketch::triangular::unrank(rank, x.n_series());
                        for pivots in tables.iter().map(Option::as_ref) {
                            for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
                                for beta in [0.3, 0.6, 0.9] {
                                    let mut got = Vec::new();
                                    let mut stats = PruningStats::default();
                                    walk_pair(
                                        &store,
                                        pair,
                                        i,
                                        j,
                                        geo,
                                        beta,
                                        rule,
                                        BoundMode::Exhaustive,
                                        None,
                                        pivots,
                                        &mut stats,
                                        |w, v| got.push((w, v.to_bits())),
                                    );
                                    let (want, want_stats) =
                                        per_window_oracle(&store, pair, i, j, geo, beta, rule);
                                    let what = format!(
                                        "nb={nb} ns={ns} step={step_bw} skip={skip} \
                                         ({i},{j}) {rule:?} beta={beta} pivots={}",
                                        pivots.is_some()
                                    );
                                    assert_eq!(got, want, "{what}");
                                    assert_eq!(stats, want_stats, "{what}");
                                    seen.merge(&stats);
                                    runs.push((got, stats));
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(mods, [true; 4], "every n_windows % 4 class walked");
        assert!(seen.evaluated > 0 && seen.edges > 0);
        assert_eq!(seen.pruned_by_triangle, 0);
        runs
    }

    #[test]
    fn larger_slack_never_skips_more() {
        let f = fixture(0.5, 0.8);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut skipped = Vec::new();
        for &slack in &[0.0, 0.1, 0.3] {
            let mut stats = PruningStats::default();
            walk_pair(
                &f.store,
                &f.pair,
                0,
                1,
                f.geo,
                0.8,
                EdgeRule::Positive,
                BoundMode::PaperJump { slack },
                Some(&dep),
                None,
                &mut stats,
                |_, _| {},
            );
            skipped.push(stats.skipped_by_jump);
        }
        assert!(skipped[0] >= skipped[1]);
        assert!(skipped[1] >= skipped[2]);
    }
}
