//! Shard-count invariance: the distributed tier's determinism contract.
//!
//! Edges (values bit-for-bit), pruning-stat totals, and streaming drains
//! must be identical whether the pair space runs as one piece or as any
//! contiguous partition — 1/2/4/8 balanced shards, cuts at triangle row
//! starts, random cut points, and cuts placed directly adjacent to planned shard
//! boundaries (the off-by-one hot spot).

use dangoron::{BoundMode, DangoronConfig, PruningStats};
use dist::coord::{expected_windows, run_in_process, run_single_process};
use dist::merge::{merge_shard_edges, windows_bit_identical};
use dist::proto::{Assignment, WorkerMode};
use dist::worker;
use dist::ShardPlan;
use proptest::prelude::*;
use sketch::triangular;
use sketch::{SlidingQuery, ThresholdedMatrix};
use tsdata::{generators, TimeSeriesMatrix};

const N_SERIES: usize = 11; // 55 pair ranks
const N_PAIRS: usize = N_SERIES * (N_SERIES - 1) / 2;

fn workload() -> (TimeSeriesMatrix, SlidingQuery) {
    let data = generators::clustered_matrix(N_SERIES, 320, 3, 0.5, 77).unwrap();
    let query = SlidingQuery {
        start: 0,
        end: 320,
        window: 60,
        step: 20,
        threshold: 0.7,
    };
    (data, query)
}

fn engine_cfg(bound: BoundMode) -> DangoronConfig {
    DangoronConfig {
        basic_window: 20,
        bound,
        ..Default::default()
    }
}

/// Runs an explicit partition (given by its interior cut points) through
/// the worker execution path and merges — the exact code real shard
/// processes run.
fn run_cuts(
    cuts: &[usize],
    mode: WorkerMode,
    cfg: &DangoronConfig,
    data: &TimeSeriesMatrix,
    query: SlidingQuery,
) -> (Vec<ThresholdedMatrix>, PruningStats) {
    let mut bounds = vec![0];
    bounds.extend_from_slice(cuts);
    bounds.push(N_PAIRS);
    bounds.sort_unstable();
    bounds.dedup();
    let mut stats = PruningStats::default();
    let mut segments = Vec::new();
    for w in bounds.windows(2) {
        let a = Assignment {
            shard_id: w[0] as u64,
            ranks: w[0]..w[1],
            mode,
            config: cfg.clone(),
            query,
        };
        let r = worker::execute(&a, data).expect("shard execution");
        stats.merge(&r.stats);
        segments.push((r.ranks, r.edges));
    }
    let n_windows = expected_windows(mode, cfg, data.len(), &query);
    let matrices = merge_shard_edges(
        data.n_series(),
        query.threshold,
        cfg.edge_rule,
        n_windows,
        segments,
    );
    (matrices, stats)
}

#[test]
fn batch_is_invariant_across_1_2_4_8_shards() {
    let (data, query) = workload();
    for bound in [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }] {
        let cfg = engine_cfg(bound);
        let single = run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
        assert!(!single.matrices.is_empty());
        for k in [1usize, 2, 4, 8] {
            let sharded = run_in_process(k, WorkerMode::Batch, &cfg, &data, query).unwrap();
            assert!(
                windows_bit_identical(&sharded.matrices, &single.matrices),
                "k={k} {bound:?}: edges differ"
            );
            assert_eq!(
                sharded.stats, single.stats,
                "k={k} {bound:?}: stat totals differ"
            );
        }
    }
}

#[test]
fn streaming_drains_are_invariant_across_1_2_4_8_shards() {
    let (data, query) = workload();
    let mode = WorkerMode::StreamingReplay {
        initial_cols: 140,
        chunk_cols: 60,
    };
    for bound in [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }] {
        let cfg = engine_cfg(bound);
        let single = run_single_process(mode, &cfg, &data, query).unwrap();
        assert!(!single.matrices.is_empty());
        for k in [1usize, 2, 4, 8] {
            let sharded = run_in_process(k, mode, &cfg, &data, query).unwrap();
            assert!(
                windows_bit_identical(&sharded.matrices, &single.matrices),
                "k={k} {bound:?}: streamed drains differ"
            );
            assert_eq!(sharded.stats, single.stats, "k={k} {bound:?}");
        }
    }
}

#[test]
fn cuts_adjacent_to_planned_boundaries_are_safe() {
    // The likely off-by-one bug lives at shard boundaries: a pair rank
    // leaking into (or out of) a neighbouring shard. Take every boundary
    // b of the balanced 4-shard plan, and every triangle row start (where
    // the pair `(i, i + 1)` begins row i), and re-run with cuts at
    // {b−1, b, b+1}: every variant must reproduce the unsharded result,
    // in batch and streaming modes.
    let (data, query) = workload();
    let cfg = engine_cfg(BoundMode::PaperJump { slack: 0.0 });
    let stream = WorkerMode::StreamingReplay {
        initial_cols: 140,
        chunk_cols: 60,
    };
    let mut boundaries: Vec<usize> = ShardPlan::balanced(N_SERIES, 4)
        .shards()
        .iter()
        .skip(1)
        .map(|s| s.ranks.start)
        .chain((1..N_SERIES - 1).map(|i| triangular::rank(i, i + 1, N_SERIES)))
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    assert!(!boundaries.is_empty());

    for mode in [WorkerMode::Batch, stream] {
        let single = run_single_process(mode, &cfg, &data, query).unwrap();
        for &b in &boundaries {
            for cut in [b.saturating_sub(1).max(1), b, (b + 1).min(N_PAIRS - 1)] {
                let (matrices, stats) = run_cuts(&[cut], mode, &cfg, &data, query);
                assert!(
                    windows_bit_identical(&matrices, &single.matrices),
                    "cut at rank {cut} (boundary {b}, {mode:?}) broke the merge"
                );
                assert_eq!(stats, single.stats, "cut {cut} ({mode:?})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random set of interior cut points partitions into the same
    /// result, with horizontal pruning on (exercising the sharded pivot
    /// machinery) and off.
    #[test]
    fn random_partitions_reproduce_the_unsharded_engine(
        cuts in prop::collection::vec(1usize..N_PAIRS, 0..6),
        pivots in proptest::bool::ANY,
    ) {
        let (data, query) = workload();
        let mut cfg = engine_cfg(BoundMode::PaperJump { slack: 0.0 });
        if pivots {
            cfg.horizontal = Some(dangoron::config::HorizontalConfig {
                n_pivots: 2,
                strategy: dangoron::PivotStrategy::Evenly,
            });
            cfg.storage = dangoron::PairStorage::OnDemand;
        }
        let single = run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
        let (matrices, stats) = run_cuts(&cuts, WorkerMode::Batch, &cfg, &data, query);
        prop_assert!(
            windows_bit_identical(&matrices, &single.matrices),
            "cuts {:?} broke bit-identity", &cuts
        );
        prop_assert_eq!(stats, single.stats);
    }

    /// Random streaming partitions: drained windows and cumulative stats
    /// are partition-invariant.
    #[test]
    fn random_streaming_partitions_reproduce_the_unsharded_session(
        cuts in prop::collection::vec(1usize..N_PAIRS, 0..4),
    ) {
        let (data, query) = workload();
        let cfg = engine_cfg(BoundMode::Exhaustive);
        let mode = WorkerMode::StreamingReplay { initial_cols: 140, chunk_cols: 80 };
        let single = run_single_process(mode, &cfg, &data, query).unwrap();
        let (matrices, stats) = run_cuts(&cuts, mode, &cfg, &data, query);
        prop_assert!(windows_bit_identical(&matrices, &single.matrices));
        prop_assert_eq!(stats, single.stats);
    }
}

#[test]
fn chunked_execution_is_partition_invariant() {
    // The v3 worker executes batch assignments in chunks (so it can
    // report progress and answer steals between them). Chunking is pure
    // scheduling: any chunk size over any partition must reproduce the
    // unsharded engine bit-for-bit.
    let (data, query) = workload();
    let cfg = engine_cfg(BoundMode::PaperJump { slack: 0.0 });
    let single = run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    for chunk in [1usize, 3, 8, 64] {
        let mut stats = PruningStats::default();
        let mut segments = Vec::new();
        for w in [0usize, 13, 30, N_PAIRS].windows(2) {
            let a = Assignment {
                shard_id: w[0] as u64,
                ranks: w[0]..w[1],
                mode: WorkerMode::Batch,
                config: cfg.clone(),
                query,
            };
            let r = worker::execute_controlled(
                &a,
                &data,
                &worker::ExecControl::default(),
                chunk,
                std::time::Duration::ZERO,
                &mut |_| {},
            )
            .expect("chunked shard execution");
            stats.merge(&r.stats);
            segments.push((r.ranks, r.edges));
        }
        let n_windows = expected_windows(WorkerMode::Batch, &cfg, data.len(), &query);
        let matrices = merge_shard_edges(
            data.n_series(),
            query.threshold,
            cfg.edge_rule,
            n_windows,
            segments,
        );
        assert!(
            windows_bit_identical(&matrices, &single.matrices),
            "chunk={chunk}: chunked execution changed the edges"
        );
        assert_eq!(stats, single.stats, "chunk={chunk}");
    }
}

#[test]
fn steal_shrink_plus_stolen_tail_reproduce_the_unsharded_engine() {
    // A steal splits one interval into victim head + stolen tail at a
    // boundary the executor picks between chunks. Head and tail are
    // executed by different code paths at different times — their merge
    // must still be the unsharded answer, exactly.
    let (data, query) = workload();
    let cfg = engine_cfg(BoundMode::PaperJump { slack: 0.0 });
    let single = run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    let ctl = worker::ExecControl::default();
    ctl.request_steal(); // latched before the first chunk boundary
    let mut granted = None;
    let a = Assignment {
        shard_id: 1,
        ranks: 0..N_PAIRS,
        mode: WorkerMode::Batch,
        config: cfg.clone(),
        query,
    };
    let victim =
        worker::execute_controlled(&a, &data, &ctl, 7, std::time::Duration::ZERO, &mut |m| {
            if let dist::proto::Message::StealGrant { new_end, .. } = m {
                granted = Some(*new_end as usize);
            }
        })
        .expect("victim execution");
    let new_end = granted.expect("no steal grant emitted");
    assert!(0 < new_end && new_end < N_PAIRS, "grant did not split");
    assert_eq!(victim.ranks, 0..new_end, "result does not honour the grant");
    let tail = worker::execute(
        &Assignment {
            shard_id: 2,
            ranks: new_end..N_PAIRS,
            mode: WorkerMode::Batch,
            config: cfg.clone(),
            query,
        },
        &data,
    )
    .expect("stolen-tail execution");
    let mut stats = PruningStats::default();
    stats.merge(&victim.stats);
    stats.merge(&tail.stats);
    let n_windows = expected_windows(WorkerMode::Batch, &cfg, data.len(), &query);
    let matrices = merge_shard_edges(
        data.n_series(),
        query.threshold,
        cfg.edge_rule,
        n_windows,
        vec![(victim.ranks, victim.edges), (tail.ranks, tail.edges)],
    );
    assert!(
        windows_bit_identical(&matrices, &single.matrices),
        "victim head + stolen tail do not merge to the unsharded result"
    );
    assert_eq!(stats, single.stats, "steal double-counted or lost stats");
}

#[test]
fn rank_space_is_the_sharding_key() {
    // Sanity-pin the contract the whole tier rests on: rank order equals
    // lexicographic (i, j) order, so contiguous rank shards concatenate
    // into sorted edge lists.
    let mut last = None;
    for p in 0..N_PAIRS {
        let (i, j) = triangular::unrank(p, N_SERIES);
        if let Some(prev) = last {
            assert!(prev < (i, j), "rank order is not (i, j) order at {p}");
        }
        last = Some((i, j));
    }
}
