//! Concurrent-scrape determinism: hammering the embedded metrics
//! surface during a seeded chaos storm must not change a single merged
//! bit. Scrapes are wait-free relaxed reads, so observation is free —
//! this suite is the proof. It also pins two scrape-side contracts:
//! every exposition parses under the strict validator, and counters
//! observed across successive scrapes never decrease.

use dangoron::{BoundMode, DangoronConfig};
use dist::coord::{self, CoordinatorConfig, TransportMode};
use dist::merge::windows_bit_identical;
use dist::proto::WorkerMode;
use dist::FaultPlan;
use sketch::SlidingQuery;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
                .stderr(Stdio::null())
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
            listen: String::new(),
            accept_timeout: Duration::from_secs(30),
        },
        n_workers,
        timeout: Duration::from_secs(60),
        max_attempts: 12,
        ..CoordinatorConfig::new(Default::default(), n_shards)
    }
}

/// One HTTP GET; returns `(status, body)` or None on connection trouble
/// (the server caps concurrent scrapes at a small slot count — a 503 or
/// refused connect under a 4-thread hammer is expected back-pressure).
fn http_get(addr: &str, path: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .lines()
        .next()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    let body = match text.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Some((status, body))
}

/// Extracts the counter samples of a parsed exposition as a
/// `name{labels} -> value` map.
fn counter_values(families: &[obs::expo::Family]) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for fam in families {
        if fam.kind != "counter" {
            continue;
        }
        for s in &fam.samples {
            let mut key = s.name.clone();
            for (k, v) in &s.labels {
                key.push_str(&format!(",{k}={v}"));
            }
            out.insert(key, s.value);
        }
    }
    out
}

#[test]
fn chaos_storm_scraped_from_four_threads_stays_bit_identical() {
    let (data, query, cfg) = workload();
    let single = coord::run_single_process(WorkerMode::Batch, &cfg, &data, query).unwrap();

    // Baseline: the same seeded storm, never scraped.
    let seed = 42u64;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let children = spawn_workers(&addr, 3, 6);
    let mut ccfg = storm_coordinator(8, 3);
    ccfg.chaos = Some(FaultPlan::Seeded(seed));
    let unscraped =
        coord::run_with_listener(&ccfg, listener, &cfg, &data, query).expect("unscraped storm run");
    reap(children);

    // Scraped: identical storm, with a live metrics server mounted and
    // four scrape threads hammering it for the whole run.
    let registry = Arc::new(obs::Registry::new());
    let srv = obs::MetricsServer::bind(
        "127.0.0.1:0",
        vec![obs::stages::global(), Arc::clone(&registry)],
        None,
    )
    .expect("bind metrics server");
    let scrape_addr = srv.addr().to_string();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let children = spawn_workers(&addr, 3, 6);
    let mut ccfg = storm_coordinator(8, 3);
    ccfg.chaos = Some(FaultPlan::Seeded(seed));
    ccfg.registry = Some(Arc::clone(&registry));

    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..4)
        .map(|k| {
            let stop = Arc::clone(&stop);
            let scrape_addr = scrape_addr.clone();
            std::thread::spawn(move || {
                let path = if k % 2 == 0 {
                    "/metrics"
                } else {
                    "/stats.json"
                };
                let mut scrapes = 0u64;
                let mut last_counters: HashMap<String, f64> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    let Some((status, body)) = http_get(&scrape_addr, path) else {
                        continue;
                    };
                    assert!(
                        status == 200 || status == 503,
                        "scraper {k}: unexpected status {status}"
                    );
                    if status != 200 {
                        continue;
                    }
                    scrapes += 1;
                    if path == "/metrics" {
                        let families = obs::expo::parse_prometheus(&body)
                            .unwrap_or_else(|e| panic!("scraper {k}: bad exposition: {e}"));
                        let now = counter_values(&families);
                        for (key, prev) in &last_counters {
                            if let Some(cur) = now.get(key) {
                                assert!(
                                    cur >= prev,
                                    "scraper {k}: counter {key} went backwards: {prev} -> {cur}"
                                );
                            }
                        }
                        last_counters = now;
                    } else {
                        assert!(
                            body.trim_start().starts_with('['),
                            "scraper {k}: /stats.json is not a JSON array"
                        );
                    }
                }
                scrapes
            })
        })
        .collect();

    let scraped =
        coord::run_with_listener(&ccfg, listener, &cfg, &data, query).expect("scraped storm run");
    stop.store(true, Ordering::Relaxed);
    let total_scrapes: u64 = scrapers
        .into_iter()
        .map(|h| h.join().expect("scraper thread"))
        .sum();
    reap(children);

    assert!(total_scrapes > 0, "the hammer never landed a scrape");
    assert!(
        windows_bit_identical(&scraped.matrices, &unscraped.matrices),
        "scraping changed the merged result"
    );
    assert!(
        windows_bit_identical(&scraped.matrices, &single.matrices),
        "scraped storm differs from the single-process engine"
    );
    assert_eq!(scraped.stats, single.stats);

    // The end-of-run CoordStats snapshot is read back from the same
    // registry the scrapers watched: the final exposition must agree.
    let final_text = obs::expo::to_prometheus(&registry.snapshot());
    let families = obs::expo::parse_prometheus(&final_text).expect("final exposition parses");
    let counters = counter_values(&families);
    assert_eq!(
        counters.get("dangoron_coord_replans_total").copied(),
        Some(scraped.coord.replans as f64),
        "registry and CoordStats disagree on replans"
    );
    assert_eq!(
        counters.get("dangoron_coord_assignments_total").copied(),
        Some(scraped.coord.assignments as f64),
        "registry and CoordStats disagree on assignments"
    );
    // The pruning counters count each accepted shard result once, so
    // through the replans and stale frames of the storm they end equal to
    // the merged stats.
    for (family, want) in [
        ("dangoron_coord_cells_total", scraped.stats.total_cells),
        ("dangoron_coord_evaluated_total", scraped.stats.evaluated),
        (
            "dangoron_coord_skipped_by_jump_total",
            scraped.stats.skipped_by_jump,
        ),
        (
            "dangoron_coord_pruned_by_triangle_total",
            scraped.stats.pruned_by_triangle,
        ),
        (
            "dangoron_coord_pairs_skipped_total",
            scraped.stats.pairs_skipped_entirely,
        ),
    ] {
        assert_eq!(
            counters.get(family).copied(),
            Some(want as f64),
            "registry and the merged PruningStats disagree on {family}"
        );
    }
    assert!(scraped.stats.total_cells > 0 && scraped.stats.skipped_by_jump > 0);
}

#[test]
fn clean_run_exposes_a_parsable_exposition_with_stage_timers() {
    // A clean (chaos-free) run through the in-process tier with a
    // registry: every stage-timer family must land in the process-wide
    // registry and the combined exposition must parse strictly.
    let (data, query, cfg) = workload();
    let _ = coord::run_in_process(4, WorkerMode::Batch, &cfg, &data, query).unwrap();

    let stage_text = obs::expo::to_prometheus(&obs::stages::global().snapshot());
    let families = obs::expo::parse_prometheus(&stage_text).expect("stage exposition parses");
    let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
    for required in [
        "dangoron_stage_prepare_us",
        "dangoron_stage_pivot_build_us",
        "dangoron_stage_walk_us",
        "dangoron_stage_merge_us",
        "dangoron_exec_chunk_us",
        "dangoron_exec_steal_attempts_total",
    ] {
        assert!(
            names.contains(&required),
            "missing family {required} in {names:?}"
        );
    }
    // The engine ran, so the walk timer must have observations.
    let walk = families
        .iter()
        .find(|f| f.name == "dangoron_stage_walk_us")
        .unwrap();
    let count = walk
        .samples
        .iter()
        .find(|s| s.name == "dangoron_stage_walk_us_count")
        .expect("histogram _count sample");
    assert!(count.value >= 1.0, "walk stage never observed");
}
