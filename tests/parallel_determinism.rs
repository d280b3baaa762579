//! Parallel determinism: `QueryResult` — edge sets (values bit-for-bit)
//! and pruning counters — must be identical for `threads = 1, 2, 8`, in
//! the batch engine, streaming drains and shared queries, across storage
//! modes, bound modes and edge rules. The work-stealing scheduler hands
//! pairs out non-deterministically; reading the workers' chunks back in
//! rank order must erase that completely.
//!
//! Since the SIMD kernel layer, the contract extends to the instruction
//! set: the dispatched kernels (AVX2+FMA) and the canonical
//! striped scalar fallback are bit-identical, so the engine's output is
//! invariant in the kernel backend too
//! ([`engine_output_is_kernel_backend_invariant`]); CI runs this file
//! with and without `-C target-feature=+avx2,+fma`.

use dangoron::{BoundMode, Dangoron, DangoronConfig, PairStorage, QueryResult, StreamingDangoron};
use sketch::output::EdgeRule;
use sketch::{SlidingQuery, ThresholdedMatrix};
use tsdata::generators;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_bit_identical(a: &[ThresholdedMatrix], b: &[ThresholdedMatrix], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: window count");
    for (w, (ma, mb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ma.n_edges(), mb.n_edges(), "{ctx}: window {w} edge count");
        for (ea, eb) in ma.edges().iter().zip(mb.edges()) {
            assert_eq!((ea.i, ea.j), (eb.i, eb.j), "{ctx}: window {w} indices");
            assert_eq!(
                ea.value.to_bits(),
                eb.value.to_bits(),
                "{ctx}: window {w} edge ({}, {}) value not bit-identical",
                ea.i,
                ea.j
            );
        }
    }
}

fn assert_same_result(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_bit_identical(&a.matrices, &b.matrices, ctx);
    assert_eq!(a.stats, b.stats, "{ctx}: pruning stats diverged");
}

#[test]
fn batch_engine_is_thread_count_invariant() {
    let x = generators::clustered_matrix(16, 480, 4, 0.6, 2024).unwrap();
    let q = SlidingQuery {
        start: 0,
        end: 480,
        window: 80,
        step: 20,
        threshold: 0.7,
    };
    for storage in [PairStorage::Precomputed, PairStorage::OnDemand] {
        for bound in [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }] {
            for edge_rule in [EdgeRule::Positive, EdgeRule::Absolute] {
                let run = |threads| {
                    Dangoron::new(DangoronConfig {
                        basic_window: 20,
                        bound,
                        storage,
                        threads,
                        edge_rule,
                        ..Default::default()
                    })
                    .unwrap()
                    .execute(&x, q)
                    .unwrap()
                };
                let baseline = run(THREAD_COUNTS[0]);
                assert!(baseline.total_edges() > 0, "workload produced no edges");
                for &t in &THREAD_COUNTS[1..] {
                    let got = run(t);
                    let ctx = format!("batch {storage:?}/{bound:?}/{edge_rule:?} threads={t}");
                    assert_same_result(&baseline, &got, &ctx);
                }
            }
        }
    }
}

#[test]
fn batch_engine_with_pivots_is_thread_count_invariant() {
    use dangoron::PivotStrategy;
    let x = generators::clustered_matrix(14, 400, 3, 0.7, 7).unwrap();
    let q = SlidingQuery {
        start: 0,
        end: 400,
        window: 80,
        step: 40,
        threshold: 0.85,
    };
    let run = |threads| {
        Dangoron::new(DangoronConfig {
            basic_window: 20,
            storage: PairStorage::OnDemand,
            horizontal: Some(dangoron::config::HorizontalConfig {
                n_pivots: 3,
                strategy: PivotStrategy::Evenly,
            }),
            threads,
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap()
    };
    let baseline = run(1);
    for &t in &THREAD_COUNTS[1..] {
        assert_same_result(&baseline, &run(t), &format!("pivots threads={t}"));
    }
}

#[test]
fn streaming_engine_is_thread_count_invariant() {
    let full = generators::clustered_matrix(10, 400, 2, 0.5, 99).unwrap();
    for bound in [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }] {
        let run = |threads: usize| {
            let initial = full.slice_columns(0, 150).unwrap();
            let mut session = StreamingDangoron::new(
                initial,
                80,
                20,
                0.7,
                DangoronConfig {
                    basic_window: 10,
                    bound,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut collected = session.drain_completed().unwrap();
            for (a, b) in [(150usize, 220usize), (220, 330), (330, 400)] {
                let chunk = full.slice_columns(a, b).unwrap();
                collected.extend(session.append(&chunk).unwrap());
            }
            collected
        };
        let baseline = run(1);
        assert!(
            baseline.iter().any(|c| c.matrix.n_edges() > 0),
            "stream produced no edges"
        );
        for &t in &THREAD_COUNTS[1..] {
            let got = run(t);
            assert_eq!(baseline.len(), got.len(), "{bound:?} threads={t}");
            for (a, b) in baseline.iter().zip(&got) {
                assert_eq!(a.index, b.index, "{bound:?} threads={t}");
                let ma = std::slice::from_ref(&a.matrix);
                let mb = std::slice::from_ref(&b.matrix);
                assert_bit_identical(ma, mb, &format!("stream {bound:?} threads={t}"));
            }
        }
    }
}

#[test]
fn shared_query_is_thread_count_invariant() {
    // 40 series = 780 pairs: at 8 threads the guided scheduler cuts them
    // into dozens of WALK_GRAIN-floored chunks, so the assembly reads many
    // worker segments back in rank order. The answer must equal a fresh
    // batch run, for the session's own geometry and for an ad-hoc one.
    let x = generators::clustered_matrix(40, 400, 4, 0.6, 4242).unwrap();
    for bound in [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }] {
        let config = |threads| DangoronConfig {
            basic_window: 20,
            bound,
            threads,
            ..Default::default()
        };
        let sessions: Vec<StreamingDangoron> = THREAD_COUNTS
            .iter()
            .map(|&t| StreamingDangoron::new(x.clone(), 80, 20, 0.7, config(t)).unwrap())
            .collect();
        for (window, step) in [(80, 20), (120, 40)] {
            let query = SlidingQuery {
                start: 0,
                end: 400,
                window,
                step,
                threshold: 0.7,
            };
            let batch = Dangoron::new(config(1))
                .unwrap()
                .execute(&x, query)
                .unwrap();
            let baseline = sessions[0].query_shared(window, step, 0.7).unwrap();
            assert!(baseline.total_edges() > 0, "workload produced no edges");
            let ctx = format!("shared {bound:?} ({window}, {step})");
            assert_same_result(&baseline, &batch, &format!("{ctx} vs batch"));
            for (session, t) in sessions.iter().zip(THREAD_COUNTS).skip(1) {
                let got = session.query_shared(window, step, 0.7).unwrap();
                assert_same_result(&baseline, &got, &format!("{ctx} threads={t}"));
            }
        }
    }
}

#[test]
fn streaming_with_pivots_emits_exact_batch_truth() {
    // Horizontal pruning is lossless, so a streaming session with pivots
    // must emit *exactly* the exhaustive batch truth — bit-identical —
    // for every append chunking, both edge rules, and every thread
    // count. Within one chunking the cumulative pruning stats must be
    // invariant in the thread count (across chunkings they legitimately
    // differ: counters record per-drain pair encounters), and the
    // triangle counters must actually fire on clustered data.
    use dangoron::config::HorizontalConfig;
    use dangoron::{PivotStrategy, PruningStats};

    let full = generators::clustered_matrix(12, 420, 3, 0.45, 13).unwrap();
    let chunkings: [&[usize]; 3] = [
        // One big append.
        &[160, 420],
        // Uneven, including sub-basic-window fragments.
        &[160, 167, 240, 253, 420],
        // Step-sized appends.
        &[
            160, 180, 200, 220, 240, 260, 280, 300, 320, 340, 360, 380, 400, 420,
        ],
    ];

    for edge_rule in [EdgeRule::Positive, EdgeRule::Absolute] {
        // The exhaustive batch truth, no pruning at all.
        let truth = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::Exhaustive,
            edge_rule,
            ..Default::default()
        })
        .unwrap()
        .execute(
            &full,
            SlidingQuery {
                start: 0,
                end: 420,
                window: 80,
                step: 20,
                threshold: 0.85,
            },
        )
        .unwrap();

        let mut stats_across_runs: Vec<PruningStats> = Vec::new();
        for (c, chunking) in chunkings.iter().enumerate() {
            for &threads in &THREAD_COUNTS {
                let mut session = StreamingDangoron::new(
                    full.slice_columns(0, chunking[0]).unwrap(),
                    80,
                    20,
                    0.85,
                    DangoronConfig {
                        basic_window: 20,
                        bound: BoundMode::Exhaustive,
                        edge_rule,
                        threads,
                        horizontal: Some(HorizontalConfig {
                            n_pivots: 3,
                            strategy: PivotStrategy::Evenly,
                        }),
                        ..Default::default()
                    },
                )
                .unwrap();
                let mut collected = session.drain_completed().unwrap();
                for pair in chunking.windows(2) {
                    let chunk = full.slice_columns(pair[0], pair[1]).unwrap();
                    collected.extend(session.append(&chunk).unwrap());
                }
                let ctx = format!("pivots {edge_rule:?} chunking#{c} threads={threads}");
                assert_eq!(collected.len(), truth.matrices.len(), "{ctx}: windows");
                let streamed: Vec<ThresholdedMatrix> =
                    collected.iter().map(|cw| cw.matrix.clone()).collect();
                assert_bit_identical(&streamed, &truth.matrices, &ctx);
                let s = session.stats().clone();
                assert!(
                    s.pruned_by_triangle > 0 || s.pairs_skipped_entirely > 0,
                    "{ctx}: horizontal pruning never fired: {s:?}"
                );
                stats_across_runs.push(s);
            }
            // Stats invariant in the thread count (same chunking).
            let base = stats_across_runs.len() - THREAD_COUNTS.len();
            for k in 1..THREAD_COUNTS.len() {
                assert_eq!(
                    stats_across_runs[base],
                    stats_across_runs[base + k],
                    "{edge_rule:?} chunking#{c}: stats diverged across threads"
                );
            }
        }
    }
}

#[test]
fn engine_output_is_kernel_backend_invariant() {
    // Forcing the scalar-striped kernels must not move a single bit of
    // the result — edges, values, or pruning counters — in either
    // engine. (Safe to flip globally even while other tests run: the
    // backends are bit-identical by contract, so concurrent queries can
    // only get slower, never different.)
    let x = generators::clustered_matrix(12, 400, 3, 0.55, 77).unwrap();
    let q = SlidingQuery {
        start: 0,
        end: 400,
        window: 80,
        step: 20,
        threshold: 0.75,
    };
    let run = || {
        Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::PaperJump { slack: 0.0 },
            horizontal: Some(dangoron::config::HorizontalConfig {
                n_pivots: 3,
                strategy: dangoron::PivotStrategy::Evenly,
            }),
            threads: 2,
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap()
    };
    let simd = run();
    assert!(simd.total_edges() > 0, "workload produced no edges");
    kernel::force_scalar(true);
    let scalar = run();
    kernel::force_scalar(false);
    assert_same_result(&simd, &scalar, "kernel backend (batch)");

    let stream = |threads: usize| {
        let initial = x.slice_columns(0, 160).unwrap();
        let mut session = StreamingDangoron::new(
            initial,
            80,
            20,
            0.75,
            DangoronConfig {
                basic_window: 20,
                bound: BoundMode::PaperJump { slack: 0.0 },
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        let mut collected = session.drain_completed().unwrap();
        for (a, b) in [(160usize, 260usize), (260, 400)] {
            collected.extend(session.append(&x.slice_columns(a, b).unwrap()).unwrap());
        }
        collected
    };
    let simd = stream(2);
    kernel::force_scalar(true);
    let scalar = stream(2);
    kernel::force_scalar(false);
    assert_eq!(simd.len(), scalar.len(), "stream window count");
    for (a, b) in simd.iter().zip(&scalar) {
        assert_eq!(a.index, b.index);
        assert_bit_identical(
            std::slice::from_ref(&a.matrix),
            std::slice::from_ref(&b.matrix),
            "kernel backend (stream)",
        );
    }
}

#[test]
fn tsubasa_baseline_is_thread_count_invariant() {
    use baselines::tsubasa::Tsubasa;
    let x = generators::clustered_matrix(12, 300, 3, 0.6, 5).unwrap();
    let q = SlidingQuery {
        start: 0,
        end: 300,
        window: 60,
        step: 20,
        threshold: 0.6,
    };
    let run = |threads| {
        let t = Tsubasa {
            basic_window: 20,
            threads,
        };
        let prep = t.prepare(&x, q).unwrap();
        t.run(&prep)
    };
    let baseline = run(1);
    for &t in &THREAD_COUNTS[1..] {
        assert_bit_identical(&baseline, &run(t), &format!("tsubasa threads={t}"));
    }
}

#[test]
fn prepare_is_thread_count_invariant() {
    // The prepared state (sketch store + pair sketches) drives every
    // downstream number; the parallel strip-wise build must be bit-identical.
    let x = generators::clustered_matrix(12, 360, 3, 0.5, 31).unwrap();
    let q = SlidingQuery {
        start: 0,
        end: 360,
        window: 60,
        step: 20,
        threshold: 0.8,
    };
    let prep = |threads| {
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            threads,
            ..Default::default()
        })
        .unwrap();
        let p = engine.prepare(&x, q).unwrap();
        (engine.run(&p), p.memory_bytes())
    };
    let (r1, m1) = prep(1);
    for &t in &THREAD_COUNTS[1..] {
        let (rt, mt) = prep(t);
        assert_same_result(&r1, &rt, &format!("prepare threads={t}"));
        assert_eq!(m1, mt, "memory accounting threads={t}");
    }
}
