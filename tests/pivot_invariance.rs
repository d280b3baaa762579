//! Pivots never change edges: under `BoundMode::PaperJump` a configuration
//! with horizontal pruning emits exactly the edges (values bit for bit) of
//! the same configuration without it, on every path that walks pairs.
//!
//! The triangle bound is exact, and the PaperJump walk jumps only from
//! exact values, so the pivot table can reach it only through the
//! on-demand wholesale prefilter, which skips pairs that have no edge in
//! any window. Swept: slack 0 and 0.05, both edge rules, both storages,
//! 2 and 4 pivots under `Evenly` and `Explicit`, against no pivots, over
//! batch `run`, `run_range` splits, `prepare_shard` workers, chunked
//! streaming drains and `query_shared` at the session's geometry and at a
//! foreign one.

use dangoron::config::{HorizontalConfig, PivotStrategy};
use dangoron::{BoundMode, Dangoron, DangoronConfig, PairStorage, StreamingDangoron};
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
/// elsewhere and change the edges under every rule.
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

/// Every edge list one configuration produces, each with its path name.
fn all_paths(x: &TimeSeriesMatrix, cfg: &DangoronConfig) -> Vec<(String, Edges)> {
    let engine = Dangoron::new(cfg.clone()).unwrap();
    let q = query(LEN, WINDOW, STEP);
    let n_pairs = triangular::count(N);
    let mut out = Vec::new();

    let prep = engine.prepare(x, q).unwrap();
    out.push(("run".to_string(), edges(&engine.run(&prep).matrices)));
    for cuts in [vec![0, 17, n_pairs], vec![0, 1, 30, 31, 50, n_pairs]] {
        let mut split = Edges::new();
        let mut sharded = Edges::new();
        for c in cuts.windows(2) {
            split.extend(edges(&engine.run_range(&prep, c[0]..c[1]).matrices));
            let shard = engine.prepare_shard(x, q, c[0]..c[1]).unwrap();
            sharded.extend(edges(&engine.run(&shard).matrices));
        }
        split.sort_unstable_by_key(|&(w, i, j, _)| (w, i, j));
        sharded.sort_unstable_by_key(|&(w, i, j, _)| (w, i, j));
        out.push((format!("run_range {cuts:?}"), split));
        out.push((format!("prepare_shard {cuts:?}"), sharded));
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
    out.push(("streaming drains".to_string(), edges(&drains)));
    for (window, step) in [(WINDOW, STEP), (480, 48)] {
        let shared = session.query_shared(window, step, BETA).unwrap();
        out.push((
            format!("query_shared {window}/{step}"),
            edges(&shared.matrices),
        ));
        // A shared query answers as a fresh batch run with the same
        // configuration does.
        let fresh = engine.execute(x, query(LEN, window, step)).unwrap();
        assert_eq!(
            edges(&shared.matrices),
            edges(&fresh.matrices),
            "{cfg:?}: query_shared {window}/{step} against a fresh batch run"
        );
    }
    out
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
                let want = all_paths(&x, &base);
                assert!(
                    want.iter().all(|(_, e)| !e.is_empty()),
                    "a path emitted no edges"
                );
                for horizontal in pivot_settings().into_iter().skip(1) {
                    let cfg = DangoronConfig {
                        horizontal,
                        ..base.clone()
                    };
                    for ((path, got), (_, want)) in all_paths(&x, &cfg).iter().zip(&want) {
                        assert_eq!(got, want, "{cfg:?}: {path}");
                        compared += 1;
                    }
                }
            }
        }
    }
    assert_eq!(compared, 2 * 2 * 2 * 4 * 8);
}
