//! The shard coordinator CLI: plans the pair space, drives
//! `dangoron-shard` workers over the climate workload — by default it
//! spawns them and they dial back over loopback TCP; with `--listen` it
//! waits for workers started independently — merges their sorted edge
//! buffers, and (optionally) verifies the merged result bitwise against
//! the single-process engine — the CI `shard-smoke` and `tcp-smoke`
//! entry point.
//!
//! ```text
//! dangoron-coord [--shards K] [--workers W] [--worker-threads T]
//!                [--n N] [--hours H] [--beta B] [--streaming]
//!                [--verify] [--kill-worker IDX] [--timeout-s S]
//!                [--handshake-timeout-s S] [--max-attempts A]
//!                [--steal-after-ms MS] [--worker-bin PATH]
//!                [--listen ADDR] [--accept-timeout-s S]
//!                [--chaos-seed SEED] [--metrics-addr ADDR]
//!                [--expect-replans R] [--expect-steals S]
//!                [--expect-late-joins J]
//!                [--export-json PATH] [--export-csv PATH] [--export-dot PATH]
//! ```
//!
//! `--listen ADDR` switches to independently started workers: instead
//! of spawning children, the coordinator waits (up to `--accept-timeout-s`, default
//! 30) for `--workers` processes started independently with
//! `dangoron-shard --connect ADDR` — and keeps the door open after that:
//! workers may join mid-run, and dropped workers re-dialing with
//! `--reconnect` are re-admitted as new members. `--verify` exits
//! non-zero unless the merged matrices are bit-identical to the
//! unsharded engine and the shard stats sum to its counters.
//! `--kill-worker IDX` injects a deterministic worker crash in spawn
//! mode (over TCP, set `DANGORON_SHARD_FAIL=1` on a worker process
//! instead); `--chaos-seed SEED` arms the `dist::chaos` fault layer — a
//! seeded, reproducible storm of link kills, delays, duplicated frames
//! and mid-write truncations on the coordinator's outgoing side (the
//! `DANGORON_CHAOS_SEED` environment variable does the same). The
//! `--expect-*` gates exit non-zero unless at least that many re-plan /
//! steal / late-join events happened — the fault-injection legs assert
//! their storm actually exercised those paths. The `--export-*` flags
//! dump the merged temporal network via `network::export`.
//!
//! `--metrics-addr ADDR` (e.g. `127.0.0.1:9090`) starts the embedded
//! `obs` HTTP server for the duration of the run: live coordinator
//! counters and stage timings at `/metrics` (Prometheus text) and
//! `/stats.json`. The end-of-run summary below is a snapshot of the same
//! registry, so a scrape and the stderr report can never disagree.

use dangoron::{BoundMode, DangoronConfig};
use dist::coord::{self, CoordinatorConfig, TransportMode};
use dist::merge::windows_bit_identical;
use dist::proto::WorkerMode;
use dist::FaultPlan;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    shards: usize,
    workers: Option<usize>,
    worker_threads: usize,
    n: usize,
    hours: usize,
    beta: f64,
    streaming: bool,
    verify: bool,
    kill_worker: Option<usize>,
    timeout_s: u64,
    handshake_timeout_s: u64,
    max_attempts: u32,
    steal_after_ms: u64,
    worker_bin: Option<PathBuf>,
    listen: Option<String>,
    accept_timeout_s: u64,
    chaos_seed: Option<u64>,
    expect_replans: Option<usize>,
    expect_steals: Option<usize>,
    expect_late_joins: Option<usize>,
    export_json: Option<PathBuf>,
    export_csv: Option<PathBuf>,
    export_dot: Option<PathBuf>,
    metrics_addr: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        shards: 4,
        workers: None,
        worker_threads: 1,
        n: 32,
        hours: 24 * 90,
        beta: 0.9,
        streaming: false,
        verify: false,
        kill_worker: None,
        timeout_s: 120,
        handshake_timeout_s: 10,
        max_attempts: 4,
        steal_after_ms: 500,
        worker_bin: None,
        listen: None,
        accept_timeout_s: 30,
        chaos_seed: std::env::var("DANGORON_CHAOS_SEED")
            .ok()
            .and_then(|v| v.parse().ok()),
        expect_replans: None,
        expect_steals: None,
        expect_late_joins: None,
        export_json: None,
        export_csv: None,
        export_dot: None,
        metrics_addr: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    let value = |argv: &[String], k: usize, flag: &str| -> Result<String, String> {
        argv.get(k + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while k < argv.len() {
        match argv[k].as_str() {
            "--shards" => args.shards = parse(&value(&argv, k, "--shards")?)?,
            "--workers" => args.workers = Some(parse(&value(&argv, k, "--workers")?)?),
            "--worker-threads" => {
                args.worker_threads = parse(&value(&argv, k, "--worker-threads")?)?
            }
            "--n" => args.n = parse(&value(&argv, k, "--n")?)?,
            "--hours" => args.hours = parse(&value(&argv, k, "--hours")?)?,
            "--beta" => {
                args.beta = value(&argv, k, "--beta")?
                    .parse()
                    .map_err(|e| format!("bad --beta: {e}"))?
            }
            "--kill-worker" => args.kill_worker = Some(parse(&value(&argv, k, "--kill-worker")?)?),
            "--timeout-s" => args.timeout_s = parse(&value(&argv, k, "--timeout-s")?)? as u64,
            "--handshake-timeout-s" => {
                args.handshake_timeout_s = parse(&value(&argv, k, "--handshake-timeout-s")?)? as u64
            }
            "--max-attempts" => {
                args.max_attempts = parse(&value(&argv, k, "--max-attempts")?)? as u32
            }
            "--steal-after-ms" => {
                args.steal_after_ms = parse(&value(&argv, k, "--steal-after-ms")?)? as u64
            }
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    value(&argv, k, "--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("bad --chaos-seed: {e}"))?,
                )
            }
            "--worker-bin" => args.worker_bin = Some(value(&argv, k, "--worker-bin")?.into()),
            "--listen" => args.listen = Some(value(&argv, k, "--listen")?),
            "--accept-timeout-s" => {
                args.accept_timeout_s = parse(&value(&argv, k, "--accept-timeout-s")?)? as u64
            }
            "--expect-replans" => {
                args.expect_replans = Some(parse(&value(&argv, k, "--expect-replans")?)?)
            }
            "--expect-steals" => {
                args.expect_steals = Some(parse(&value(&argv, k, "--expect-steals")?)?)
            }
            "--expect-late-joins" => {
                args.expect_late_joins = Some(parse(&value(&argv, k, "--expect-late-joins")?)?)
            }
            "--export-json" => args.export_json = Some(value(&argv, k, "--export-json")?.into()),
            "--export-csv" => args.export_csv = Some(value(&argv, k, "--export-csv")?.into()),
            "--export-dot" => args.export_dot = Some(value(&argv, k, "--export-dot")?.into()),
            "--metrics-addr" => args.metrics_addr = Some(value(&argv, k, "--metrics-addr")?),
            "--streaming" => {
                args.streaming = true;
                k += 1;
                continue;
            }
            "--verify" => {
                args.verify = true;
                k += 1;
                continue;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        k += 2;
    }
    Ok(args)
}

fn parse(v: &str) -> Result<usize, String> {
    v.parse().map_err(|e| format!("bad number {v:?}: {e}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dangoron-coord: {e}");
            std::process::exit(2);
        }
    };
    let transport = match &args.listen {
        Some(addr) => {
            if args.kill_worker.is_some() {
                eprintln!(
                    "dangoron-coord: --kill-worker only applies to spawned workers; \
                     over TCP, set DANGORON_SHARD_FAIL=1 on a worker process and \
                     use --expect-replans instead"
                );
                std::process::exit(2);
            }
            TransportMode::Tcp {
                listen: addr.clone(),
                accept_timeout: Duration::from_secs(args.accept_timeout_s),
            }
        }
        None => {
            let worker_bin = match args.worker_bin.clone().or_else(coord::default_worker_path) {
                Some(p) => p,
                None => {
                    eprintln!(
                        "dangoron-coord: cannot find the dangoron-shard binary; \
                         build it (cargo build -p dist), pass --worker-bin, or \
                         use --listen for independently started workers"
                    );
                    std::process::exit(2);
                }
            };
            TransportMode::Spawn { worker_bin }
        }
    };

    let w = match eval::workloads::climate(args.n, args.hours, args.beta, 2020) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("dangoron-coord: bad workload: {e:?}");
            std::process::exit(2);
        }
    };
    let engine_cfg = DangoronConfig {
        basic_window: w.basic_window,
        bound: BoundMode::PaperJump { slack: 0.0 },
        ..Default::default()
    };
    let mode = if args.streaming {
        let b = w.basic_window;
        WorkerMode::StreamingReplay {
            initial_cols: ((w.data.len() / 2) / b * b).max(b),
            chunk_cols: 7 * b,
        }
    } else {
        WorkerMode::Batch
    };
    let registry = Arc::new(obs::Registry::new());
    let cfg = CoordinatorConfig {
        transport,
        n_shards: args.shards,
        n_workers: args.workers.unwrap_or(args.shards),
        worker_threads: args.worker_threads,
        mode,
        timeout: Duration::from_secs(args.timeout_s),
        handshake_timeout: Duration::from_secs(args.handshake_timeout_s),
        kill_worker: args.kill_worker,
        max_attempts: args.max_attempts,
        steal_after: Duration::from_millis(args.steal_after_ms),
        chaos: args.chaos_seed.map(FaultPlan::from_seed),
        registry: Some(Arc::clone(&registry)),
    };
    if let Some(seed) = args.chaos_seed {
        eprintln!("dangoron-coord: chaos armed with seed {seed}");
    }
    // Keep the server alive for the whole run; scrapers see the run's
    // registry plus the process-wide stage timers.
    let _metrics_server = match &args.metrics_addr {
        Some(addr) => {
            match obs::MetricsServer::bind(addr, vec![obs::stages::global(), registry], None) {
                Ok(srv) => {
                    eprintln!("dangoron-coord: metrics on http://{}/metrics", srv.addr());
                    Some(srv)
                }
                Err(e) => {
                    eprintln!("dangoron-coord: cannot bind --metrics-addr {addr}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };

    let result = match coord::run(&cfg, &engine_cfg, &w.data, w.query) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dangoron-coord: {e}");
            std::process::exit(1);
        }
    };
    let total_edges: usize = result.matrices.iter().map(|m| m.n_edges()).sum();
    println!(
        "workload {} | transport {} | shards {} | workers {} | windows {} | edges {} | \
         skip {:.3} | replans {} | worker failures {} | wall {:.3}s",
        w.name,
        result.coord.transport,
        result.coord.n_shards_planned,
        result.coord.n_workers,
        result.matrices.len(),
        total_edges,
        result.stats.skip_fraction(),
        result.coord.replans,
        result.coord.worker_failures,
        result.coord.wall_s,
    );
    println!(
        "frames: {} assignments, {} assign bytes, {} load bytes, {} stale frames discarded",
        result.coord.assignments,
        result.coord.assign_bytes,
        result.coord.load_bytes,
        result.coord.stale_frames,
    );
    println!(
        "elastic: {} late joins, {} steals of {} requested, {} pings / {} pongs, \
         {} progress frames",
        result.coord.late_joins,
        result.coord.steals,
        result.coord.steal_requests,
        result.coord.pings_sent,
        result.coord.pongs,
        result.coord.progress_frames,
    );
    for s in &result.shards {
        println!(
            "  shard {:>7}..{:<7} attempt {} | prepare {:.3}s query {:.3}s | edges {}",
            s.ranks.start, s.ranks.end, s.attempt, s.prepare_s, s.query_s, s.n_edges
        );
    }
    if args.kill_worker.is_some() && result.coord.replans == 0 {
        eprintln!("dangoron-coord: --kill-worker was set but no re-plan happened");
        std::process::exit(1);
    }
    if let Some(min) = args.expect_replans {
        if result.coord.replans < min {
            eprintln!(
                "dangoron-coord: expected ≥ {min} re-plans, saw {}",
                result.coord.replans
            );
            std::process::exit(1);
        }
    }
    if let Some(min) = args.expect_steals {
        if result.coord.steals < min {
            eprintln!(
                "dangoron-coord: expected ≥ {min} steals, saw {}",
                result.coord.steals
            );
            std::process::exit(1);
        }
    }
    if let Some(min) = args.expect_late_joins {
        if result.coord.late_joins < min {
            eprintln!(
                "dangoron-coord: expected ≥ {min} late joins, saw {}",
                result.coord.late_joins
            );
            std::process::exit(1);
        }
    }

    if args.verify {
        let single = match coord::run_single_process(mode, &engine_cfg, &w.data, w.query) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("dangoron-coord: verification run failed: {e}");
                std::process::exit(1);
            }
        };
        if !windows_bit_identical(&result.matrices, &single.matrices) {
            eprintln!("dangoron-coord: VERIFY FAILED: merged matrices differ from single-process");
            std::process::exit(1);
        }
        if result.stats != single.stats {
            eprintln!("dangoron-coord: VERIFY FAILED: shard stats do not sum to single-process");
            std::process::exit(1);
        }
        println!(
            "verify: OK — bit-identical to single-process across {} windows",
            result.matrices.len()
        );
    }

    if let Some(path) = &args.export_json {
        write_or_die(path, &network::export::to_temporal_json(&result.matrices));
    }
    if let Some(path) = &args.export_csv {
        write_or_die(path, &network::export::to_temporal_csv(&result.matrices));
    }
    if let Some(path) = &args.export_dot {
        // DOT renders one graph; dump the busiest window (a run always
        // produces at least one, but degrade to a skipped export rather
        // than a panic if that ever changes).
        match result.matrices.iter().max_by_key(|m| m.n_edges()) {
            Some(busiest) => write_or_die(path, &network::export::to_dot(busiest, None)),
            None => eprintln!("dangoron-coord: no windows to export as DOT"),
        }
    }
}

fn write_or_die(path: &PathBuf, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("dangoron-coord: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}
