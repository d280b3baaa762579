//! Pivots never change edges: a configuration with horizontal pruning
//! emits exactly the edges (values bit for bit) of the same configuration
//! without it, on every path that walks pairs, in either bound mode.
//!
//! The triangle bound is exact, and neither walk reads a pivot table: the
//! exhaustive walk evaluates every window and the PaperJump walk jumps
//! only from exact values. So the table can act only through the
//! on-demand wholesale prefilter, which skips pairs that have no edge in
//! any window. Over resident pair sketches pivots are inert, so the
//! `PruningStats` with pivots equal those without too; only on-demand
//! batch paths may move them, and there the prefilter must fire. Swept:
//! both bound modes (PaperJump at slack 0 and 0.05), both edge rules,
//! both storages, 2 and 4 pivots under `Evenly` and `Explicit`, against
//! no pivots, over batch `run`, `run_range` splits, `prepare_shard`
//! workers, chunked streaming drains and `query_shared` at the session's
//! geometry and at a foreign one.

use dangoron::config::{HorizontalConfig, PivotStrategy};
use dangoron::{BoundMode, Dangoron, DangoronConfig, PairStorage, PruningStats, StreamingDangoron};
use sketch::output::EdgeRule;
use sketch::{triangular, SlidingQuery, ThresholdedMatrix};
use tsdata::TimeSeriesMatrix;

const N: usize = 12;
/// Two months of hours: 31 windows of 30 days, one day apart.
const LEN: usize = 24 * 60;
const WINDOW: usize = 720;
const STEP: usize = 24;
const BETA: f64 = 0.9;

/// Every edge as `(window, i, j, value bits)`, sorted by window then pair.
type Edges = Vec<(usize, u32, u32, u64)>;

fn edges(matrices: &[ThresholdedMatrix]) -> Edges {
    let mut out: Edges = matrices
        .iter()
        .enumerate()
        .flat_map(|(w, m)| {
            m.edges()
                .iter()
                .map(move |e| (w, e.i, e.j, e.value.to_bits()))
        })
        .collect();
    out.sort_unstable_by_key(|&(w, i, j, _)| (w, i, j));
    out
}

/// Synthetic hourly climate series: the walks jump, land and emit, and
/// the triangle settles below-threshold windows, so a walk that jumped
/// from a triangle bracket instead of the exact value would land
/// elsewhere and change the edges under every rule, and a walk that
/// settled windows by their brackets would move the counters.
fn data() -> TimeSeriesMatrix {
    eval::workloads::climate(N, LEN, BETA, 2020).unwrap().data
}

fn query(end: usize, window: usize, step: usize) -> SlidingQuery {
    SlidingQuery {
        start: 0,
        end,
        window,
        step,
        threshold: BETA,
    }
}

/// The pivot settings swept, `None` being the reference.
fn pivot_settings() -> Vec<Option<HorizontalConfig>> {
    let mut out = vec![None];
    for k in [2usize, 4] {
        out.push(Some(HorizontalConfig {
            n_pivots: k,
            strategy: PivotStrategy::Evenly,
        }));
        let explicit = [1usize, 6, 7, 10][..k].to_vec();
        out.push(Some(HorizontalConfig {
            n_pivots: k,
            strategy: PivotStrategy::Explicit(explicit),
        }));
    }
    out
}

/// What one path produced: its name, its edges and its counters, and
/// whether it walked on-demand pair sketches (only those may prefilter).
struct Path {
    name: String,
    edges: Edges,
    stats: PruningStats,
    on_demand: bool,
}

/// Every path one configuration walks.
fn all_paths(x: &TimeSeriesMatrix, cfg: &DangoronConfig) -> Vec<Path> {
    let engine = Dangoron::new(cfg.clone()).unwrap();
    let q = query(LEN, WINDOW, STEP);
    let n_pairs = triangular::count(N);
    let batch = cfg.storage == PairStorage::OnDemand;
    let path = |name: String, edges: Edges, stats: PruningStats, on_demand: bool| Path {
        name,
        edges,
        stats,
        on_demand,
    };
    let mut out = Vec::new();

    let prep = engine.prepare(x, q).unwrap();
    let run = engine.run(&prep);
    out.push(path("run".into(), edges(&run.matrices), run.stats, batch));
    for cuts in [vec![0, 17, n_pairs], vec![0, 1, 30, 31, 50, n_pairs]] {
        let (mut split, mut split_stats) = (Edges::new(), PruningStats::default());
        let (mut sharded, mut shard_stats) = (Edges::new(), PruningStats::default());
        for c in cuts.windows(2) {
            let part = engine.run_range(&prep, c[0]..c[1]);
            split.extend(edges(&part.matrices));
            split_stats.merge(&part.stats);
            let shard = engine.prepare_shard(x, q, c[0]..c[1]).unwrap();
            let part = engine.run(&shard);
            sharded.extend(edges(&part.matrices));
            shard_stats.merge(&part.stats);
        }
        split.sort_unstable_by_key(|&(w, i, j, _)| (w, i, j));
        sharded.sort_unstable_by_key(|&(w, i, j, _)| (w, i, j));
        out.push(path(
            format!("run_range {cuts:?}"),
            split,
            split_stats,
            batch,
        ));
        out.push(path(
            format!("prepare_shard {cuts:?}"),
            sharded,
            shard_stats,
            batch,
        ));
    }

    let mut session = StreamingDangoron::new(
        x.slice_columns(0, 760).unwrap(),
        WINDOW,
        STEP,
        BETA,
        cfg.clone(),
    )
    .unwrap();
    let mut drained = session.drain_completed().unwrap();
    for (a, b) in [(760usize, 797usize), (797, 1100), (1100, LEN)] {
        drained.extend(session.append(&x.slice_columns(a, b).unwrap()).unwrap());
    }
    let drains: Vec<ThresholdedMatrix> = drained.into_iter().map(|cw| cw.matrix).collect();
    out.push(path(
        "streaming drains".into(),
        edges(&drains),
        session.stats().clone(),
        false,
    ));
    for (window, step) in [(WINDOW, STEP), (480, 48)] {
        let shared = session.query_shared(window, step, BETA).unwrap();
        // A shared query answers as a fresh batch run with the same
        // configuration does: the same edges, and over resident pairs the
        // same counters.
        let fresh = engine.execute(x, query(LEN, window, step)).unwrap();
        let what = format!("{cfg:?}: query_shared {window}/{step} against a fresh batch run");
        assert_eq!(edges(&shared.matrices), edges(&fresh.matrices), "{what}");
        if !batch {
            assert_eq!(shared.stats, fresh.stats, "{what}");
        }
        out.push(path(
            format!("query_shared {window}/{step}"),
            edges(&shared.matrices),
            shared.stats,
            false,
        ));
    }
    out
}

/// Runs every path of `base` with each pivot setting and holds it to the
/// pivot-less run; returns the number of comparisons.
fn check_pivot_invariance(x: &TimeSeriesMatrix, base: &DangoronConfig) -> usize {
    let want = all_paths(x, base);
    assert!(
        want.iter().all(|p| !p.edges.is_empty()),
        "a path emitted no edges"
    );
    assert!(want
        .iter()
        .all(|p| p.stats.pruned_by_triangle == 0 && p.stats.pairs_skipped_entirely == 0));
    let mut compared = 0;
    for horizontal in pivot_settings().into_iter().skip(1) {
        let cfg = DangoronConfig {
            horizontal,
            ..base.clone()
        };
        let mut skipped = 0;
        for (got, want) in all_paths(x, &cfg).iter().zip(&want) {
            let what = format!("{cfg:?}: {}", got.name);
            assert_eq!(got.edges, want.edges, "{what}");
            assert_eq!(got.stats.pruned_by_triangle, 0, "{what}");
            if got.on_demand {
                skipped += got.stats.pairs_skipped_entirely;
            } else {
                assert_eq!(got.stats, want.stats, "{what}");
            }
            compared += 1;
        }
        if cfg.storage == PairStorage::OnDemand {
            assert!(skipped > 0, "{cfg:?}: the prefilter never fired");
        }
    }
    compared
}

#[test]
fn paper_jump_edges_are_the_same_with_and_without_pivots() {
    let x = data();
    let mut compared = 0;
    for slack in [0.0, 0.05] {
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            for storage in [PairStorage::Precomputed, PairStorage::OnDemand] {
                let base = DangoronConfig {
                    basic_window: 24,
                    bound: BoundMode::PaperJump { slack },
                    storage,
                    edge_rule: rule,
                    ..Default::default()
                };
                compared += check_pivot_invariance(&x, &base);
            }
        }
    }
    assert_eq!(compared, 2 * 2 * 2 * 4 * 8);
}

#[test]
fn exhaustive_edges_and_stats_are_the_same_with_and_without_pivots() {
    let x = data();
    let mut compared = 0;
    for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
        for storage in [PairStorage::Precomputed, PairStorage::OnDemand] {
            let base = DangoronConfig {
                basic_window: 24,
                bound: BoundMode::Exhaustive,
                storage,
                edge_rule: rule,
                ..Default::default()
            };
            compared += check_pivot_invariance(&x, &base);
        }
    }
    assert_eq!(compared, 2 * 2 * 4 * 8);
}
