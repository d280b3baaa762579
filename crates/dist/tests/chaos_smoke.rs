//! Chaos smoke: seeded fault storms over the elastic TCP tier. Links
//! are killed mid-run, frames delayed, duplicated and truncated
//! mid-write (see `dist::chaos`); workers reconnect and are re-admitted
//! as new members; lost work is re-planned and straggler tails stolen.
//! Whatever the storm does to the *schedule*, the merged result must
//! stay bit-identical to the single-process engine — the tier's whole
//! determinism contract, under fire.

use dangoron::{BoundMode, DangoronConfig};
use dist::coord::{self, CoordinatorConfig, TransportMode};
use dist::merge::windows_bit_identical;
use dist::proto::WorkerMode;
use dist::FaultPlan;
use sketch::SlidingQuery;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tsdata::generators;
use tsdata::TimeSeriesMatrix;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_dangoron-shard")
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

/// `n` workers dialing `addr`, each allowed `reconnect` re-dials.
fn spawn_workers(addr: &str, n: usize, reconnect: u32) -> Vec<Child> {
    (0..n)
        .map(|_| {
            Command::new(worker_bin())
                .arg("--connect")
                .arg(addr)
                .arg("--reconnect")
                .arg(reconnect.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn dangoron-shard --connect")
        })
        .collect()
}

fn reap(mut children: Vec<Child>) {
    for c in &mut children {
        let _ = c.wait();
    }
}

fn storm_coordinator(n_shards: usize, n_workers: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        transport: TransportMode::Tcp {
            listen: String::new(), // pre-bound listener supplies the socket
            accept_timeout: Duration::from_secs(30),
        },
        n_workers,
        timeout: Duration::from_secs(60),
        // Faulty links burn re-plan generations fast; give the storm
        // headroom the clean tier does not need.
        max_attempts: 12,
        ..CoordinatorConfig::new(Default::default(), n_shards)
    }
}

#[test]
fn seeded_chaos_storms_merge_bit_identically() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    for seed in [7u64, 42, 1337] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let children = spawn_workers(&addr, 3, 6);
        let mut ccfg = storm_coordinator(8, 3);
        ccfg.chaos = Some(FaultPlan::Seeded(seed));
        let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query)
            .unwrap_or_else(|e| panic!("seed {seed}: storm run failed: {e}"));
        reap(children);

        assert!(
            windows_bit_identical(&dist.matrices, &single.matrices),
            "seed {seed}: the storm changed the merged result"
        );
        assert_eq!(dist.stats, single.stats, "seed {seed}: stats do not sum");
    }
}

#[test]
fn explicit_kill_storm_recovers_through_reconnects() {
    // Every initial link dies right after its first assignment; the run
    // survives purely on reconnected identities.
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let children = spawn_workers(&addr, 2, 4);
    let mut ccfg = storm_coordinator(6, 2);
    let cut = dist::LinkFaults {
        kill_after_frames: Some(2),
        ..Default::default()
    };
    ccfg.chaos = Some(FaultPlan::Explicit(vec![cut.clone(), cut]));
    let dist = coord::run_with_listener(&ccfg, listener, &cfg, &data, query).unwrap();
    reap(children);

    assert!(dist.coord.worker_failures >= 2, "the storm never struck");
    assert!(dist.coord.replans >= 2, "lost work was not re-planned");
    // Both initial links die, so finishing *requires* at least one
    // re-admitted identity — but the run may complete before the second
    // re-dial lands, so exactly how many rejoin is a race.
    assert!(
        dist.coord.late_joins >= 1,
        "no reconnected worker was re-admitted"
    );
    assert!(
        windows_bit_identical(&dist.matrices, &single.matrices),
        "kill storm changed the merged result"
    );
    assert_eq!(dist.stats, single.stats);
}
