//! `dangoron_stage_merge_us` records exactly one observation per engine
//! query: a batch run, a streaming drain that closes windows, and a shared
//! query each assemble their per-window matrices once. The histogram is
//! process-wide, so this binary holds a single test — no other walk runs
//! while it counts.

use dangoron::{BoundMode, Dangoron, DangoronConfig, StreamingDangoron};
use obs::stages::{global, Stage};
use sketch::SlidingQuery;
use tsdata::generators;

/// Observations of the merge-stage histogram so far.
fn merges() -> u64 {
    global().histogram(Stage::Merge.metric_name(), "").count()
}

/// Observations `f` adds to the merge-stage histogram.
fn merges_during(f: impl FnOnce()) -> u64 {
    let before = merges();
    f();
    merges() - before
}

#[test]
fn every_engine_query_is_one_merge_observation() {
    let x = generators::clustered_matrix(12, 240, 3, 0.6, 5).unwrap();
    let query = SlidingQuery {
        start: 0,
        end: 240,
        window: 60,
        step: 20,
        threshold: 0.6,
    };
    for bound in [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }] {
        for threads in [1, 3] {
            let config = DangoronConfig {
                basic_window: 20,
                bound,
                threads,
                ..Default::default()
            };
            let engine = Dangoron::new(config.clone()).unwrap();
            let prep = engine.prepare(&x, query).unwrap();
            assert_eq!(merges_during(|| drop(engine.run(&prep))), 1);

            let head = x.slice_columns(0, 40).unwrap();
            let mut session = StreamingDangoron::new(head, 60, 20, 0.6, config).unwrap();
            assert_eq!(
                merges_during(|| assert!(session.drain_completed().unwrap().is_empty())),
                0
            );
            let tail = x.slice_columns(40, 240).unwrap();
            let closed = merges_during(|| assert!(!session.append(&tail).unwrap().is_empty()));
            assert_eq!(closed, 1);
            assert_eq!(
                merges_during(|| drop(session.query_shared(60, 20, 0.6).unwrap())),
                1
            );
        }
    }
}
