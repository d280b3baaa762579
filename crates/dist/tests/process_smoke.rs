//! End-to-end tests of the process tier: a real coordinator spawning real
//! `dangoron-shard` worker processes, which dial it back over loopback
//! TCP, verified bitwise against the single-process engine — including
//! the worker-kill/replan path.

use dangoron::{BoundMode, DangoronConfig};
use dist::coord::{self, CoordinatorConfig};
use dist::merge::windows_bit_identical;
use dist::proto::WorkerMode;
use sketch::SlidingQuery;
use std::path::PathBuf;
use std::time::Duration;
use tsdata::generators;
use tsdata::TimeSeriesMatrix;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dangoron-shard"))
}

fn workload() -> (TimeSeriesMatrix, SlidingQuery, DangoronConfig) {
    let data = generators::clustered_matrix(12, 360, 3, 0.5, 41).unwrap();
    let query = SlidingQuery {
        start: 0,
        end: 360,
        window: 60,
        step: 20,
        threshold: 0.7,
    };
    let cfg = DangoronConfig {
        basic_window: 20,
        bound: BoundMode::PaperJump { slack: 0.0 },
        ..Default::default()
    };
    (data, query, cfg)
}

fn coordinator(n_shards: usize, mode: WorkerMode) -> CoordinatorConfig {
    CoordinatorConfig {
        mode,
        timeout: Duration::from_secs(60),
        ..CoordinatorConfig::new(worker_bin(), n_shards)
    }
}

#[test]
fn process_tier_matches_single_process_for_every_shard_count() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    for k in [1usize, 2, 4, 8] {
        let dist = coord::run(&coordinator(k, WorkerMode::Batch), &cfg, &data, query).unwrap();
        assert!(
            windows_bit_identical(&dist.matrices, &single.matrices),
            "k={k}: merged matrices differ from the single-process engine"
        );
        assert_eq!(dist.stats, single.stats, "k={k}: shard stats do not sum");
        // The spawned children form the initial quorum: all k register
        // before dispatch, none counts as a late join.
        assert_eq!(dist.coord.transport, "tcp", "k={k}");
        assert_eq!(dist.coord.n_workers, k, "k={k}");
        assert_eq!(dist.coord.late_joins, 0, "k={k}");
        assert_eq!(dist.coord.replans, 0, "k={k}");
        assert_eq!(dist.coord.worker_failures, 0, "k={k}");
        assert_eq!(dist.shards.len(), k.min(dist.coord.n_shards_planned.max(k)));
    }
}

#[test]
fn killed_worker_is_replanned_onto_survivors_with_identical_result() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    let mut ccfg = coordinator(4, WorkerMode::Batch);
    ccfg.kill_worker = Some(1); // worker 1 aborts on its first assignment
    let dist = coord::run(&ccfg, &cfg, &data, query).unwrap();
    assert!(dist.coord.worker_failures >= 1, "injected kill never fired");
    assert!(dist.coord.replans >= 1, "no re-plan recorded");
    assert!(
        dist.shards.iter().any(|s| s.attempt > 0),
        "no shard carries a retry generation"
    );
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "replanned run differs from the single-process engine"
    );
    assert_eq!(dist.stats, single.stats, "replanned stats do not sum");
}

#[test]
fn streaming_replay_through_processes_matches_single_process() {
    let (data, query, cfg) = workload();
    let mode = WorkerMode::StreamingReplay {
        initial_cols: 160,
        chunk_cols: 60,
    };
    let single = coord::run_single_process(mode, &cfg, &data, query).unwrap();
    let dist = coord::run(&coordinator(4, mode), &cfg, &data, query).unwrap();
    assert!(
        !single.matrices.is_empty(),
        "streaming replay emitted no windows"
    );
    assert!(windows_bit_identical(&dist.matrices, &single.matrices));
    assert_eq!(dist.stats, single.stats);
}

#[test]
fn fewer_workers_than_shards_queue_and_complete() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    let mut ccfg = coordinator(8, WorkerMode::Batch);
    ccfg.n_workers = 3;
    let dist = coord::run(&ccfg, &cfg, &data, query).unwrap();
    assert_eq!(dist.coord.n_workers, 3);
    assert_eq!(dist.shards.len(), 8);
    assert!(windows_bit_identical(&dist.matrices, &single.matrices));
    assert_eq!(dist.stats, single.stats);
}

/// Spawned children that never dial back leave the run without workers:
/// `run` fails with `NoWorkers` once the handshake window closes, and
/// reaps every child it started.
#[cfg(unix)]
#[test]
fn children_that_never_connect_fail_the_run_and_are_reaped() {
    let (data, query, cfg) = workload();
    let ccfg = CoordinatorConfig {
        handshake_timeout: Duration::from_secs(1),
        ..CoordinatorConfig::new("/bin/true".into(), 2)
    };
    let t = std::time::Instant::now();
    let err = coord::run(&ccfg, &cfg, &data, query).expect_err("a run without workers succeeded");
    assert!(
        matches!(err, coord::CoordError::NoWorkers { .. }),
        "unexpected error: {err}"
    );
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "NoWorkers took {:?}",
        t.elapsed()
    );
    // No `true` child of this process is left, running or unreaped.
    // (/proc is Linux's; elsewhere the timing check above stands alone.)
    let me = std::process::id().to_string();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid ...`; comm may hold spaces, so split
        // after its closing parenthesis.
        let Some((head, rest)) = stat.rsplit_once(')') else {
            continue;
        };
        let ppid = rest.split_whitespace().nth(1);
        assert!(
            !(head.ends_with("(true") && ppid == Some(me.as_str())),
            "child left behind: {stat}"
        );
    }
}
