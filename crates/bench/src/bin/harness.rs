//! Experiment harness: regenerates every table/figure of the paper, and
//! records the perf trajectory.
//!
//! ```text
//! harness <exp-id>... [--full]                    # e1 … e13, or `all`
//! harness bench --out FILE [--full] [--shard-records DIR]
//!               [--dist-transport pipes|tcp|tcp-elastic] [--serve]
//! harness merge --out MERGED.json SHARD.json...   # fold per-shard records
//! harness validate [--require-streaming] [--require-kernels]
//!                  [--require-shards] [--require-serve] [--require-obs]
//!                  FILE...
//! harness validate --require-lint-clean LINT_REPORT.json
//!                  # dangoron-lint --json report: schema + zero findings
//! harness scrape ADDR [--path /metrics]        # GET + strict-parse
//! ```
//!
//! Quick scale (default) runs in seconds per experiment; `--full` uses the
//! paper-sized configuration (N up to 512, a full year of hourly data) and
//! takes minutes. `bench` times the E1 workload's prepare and pure-query
//! phases at threads 1/2/4/8 and writes a machine-readable record (see
//! `bench::perf`) so every PR's speedup is comparable to its predecessors;
//! `--shard-records DIR` additionally writes the distributed run's
//! per-shard records, which `merge` folds into one (evaluation counts
//! summed, wall times maxed, `n_shards` recorded, disagreeing `hardware`
//! sections flagged); `--dist-transport tcp` runs the distributed leg
//! over localhost TCP (coordinator listener + `dangoron-shard --connect`
//! workers) instead of spawned stdio pipes, and `tcp-elastic` starts
//! that leg with a single deliberately slow worker, admits a second one
//! mid-run, and steals the straggler's tail — recording `late_joins` /
//! `steals` / `heartbeats` in the `shards` section. `--serve` additionally
//! runs the serving-tier panel — one resident session answering a panel
//! of differently-shaped queries from shared sketches, each answer
//! verified bitwise against a fresh one-shot run — and records the
//! shared-prepare amortisation in the `serve` section. Every bench run
//! ends by scraping the process-wide stage registry into the `obs`
//! section (`harness validate --require-obs` demands it); `scrape`
//! fetches `/metrics` from a live `--metrics-addr` endpoint and checks
//! the exposition under the same strict parser CI uses.

use bench::experiments::{run_experiment, ALL};
use bench::schema::Requires;
use bench::Scale;

fn flag_value(args: &[String], flag: &str) -> Option<Result<String, String>> {
    args.iter()
        .position(|a| a == flag)
        .map(|k| match args.get(k + 1) {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} requires a value")),
        })
}

fn run_bench(args: &[String], scale: Scale) {
    let out_path = match flag_value(args, "--out") {
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        None => {
            eprintln!("error: bench requires --out FILE (it never picks a record name itself)");
            std::process::exit(2);
        }
    };
    let shard_dir = match flag_value(args, "--shard-records") {
        Some(Ok(v)) => Some(v),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        None => None,
    };
    let transport = match flag_value(args, "--dist-transport") {
        Some(Ok(v)) if v == "pipes" => bench::perf::DistTransport::Pipes,
        Some(Ok(v)) if v == "tcp" => bench::perf::DistTransport::Tcp,
        Some(Ok(v)) if v == "tcp-elastic" => bench::perf::DistTransport::TcpElastic,
        Some(Ok(v)) => {
            eprintln!("error: --dist-transport must be `pipes`, `tcp` or `tcp-elastic`, got {v:?}");
            std::process::exit(2);
        }
        Some(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        None => bench::perf::DistTransport::Pipes,
    };
    let (mut record, dist_result, workload) = bench::perf::run_full_with(scale, transport);
    if args.iter().any(|a| a == "--serve") {
        record.serve = Some(bench::perf::serve_sample(&workload));
    }
    if let Some(dir) = shard_dir {
        if let Err(e) = write_shard_records(&dir, &workload, &dist_result) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    let json = record.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}

/// Writes one per-shard record per completed shard of the perf run's
/// distributed leg into `dir` (`shard_0.json`, `shard_1.json`, …) —
/// reusing the run `bench::perf::run_full` already executed.
fn write_shard_records(
    dir: &str,
    w: &eval::workloads::Workload,
    result: &dist::DistResult,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let hardware = bench::perf::HardwareInfo::probe();
    for (k, shard) in result.shards.iter().enumerate() {
        let json = bench::merge::shard_record_json(
            &w.name,
            w.data.n_series(),
            w.data.len(),
            w.query.n_windows(),
            &hardware,
            result.coord.n_shards_planned,
            k,
            shard,
        );
        let path = format!("{dir}/shard_{k}.json");
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn run_merge(args: &[String]) {
    let out_path = match flag_value(args, "--out") {
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        None => {
            eprintln!("error: merge requires --out FILE");
            std::process::exit(2);
        }
    };
    let skip_value_of = ["--out"];
    let mut inputs = Vec::new();
    let mut k = 0;
    let argv: Vec<&String> = args.iter().filter(|a| *a != "merge").collect();
    while k < argv.len() {
        let a = argv[k];
        if skip_value_of.contains(&a.as_str()) {
            k += 2;
            continue;
        }
        if a.starts_with("--") {
            eprintln!("error: unknown merge flag {a}");
            std::process::exit(2);
        }
        match std::fs::read_to_string(a) {
            Ok(json) => inputs.push((a.clone(), json)),
            Err(e) => {
                eprintln!("{a}: cannot read: {e}");
                std::process::exit(1);
            }
        }
        k += 1;
    }
    match bench::merge::merge_records(&inputs) {
        Ok(merged) => {
            if let Err(e) = std::fs::write(&out_path, &merged) {
                eprintln!("error: cannot write {out_path}: {e}");
                std::process::exit(1);
            }
            println!("{merged}");
            eprintln!("merged {} per-shard records into {out_path}", inputs.len());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run_validate(args: &[String]) {
    let lint_clean = args.iter().any(|a| a == "--require-lint-clean");
    let requires = Requires {
        streaming: args.iter().any(|a| a == "--require-streaming"),
        kernels: args.iter().any(|a| a == "--require-kernels"),
        shards: args.iter().any(|a| a == "--require-shards"),
        serve: args.iter().any(|a| a == "--require-serve"),
        obs: args.iter().any(|a| a == "--require-obs"),
    };
    let files: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && *a != "validate")
        .collect();
    if files.is_empty() {
        eprintln!("error: validate needs at least one record file");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in files {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let verdict = if lint_clean {
            bench::schema::validate_lint_report(&json, true)
                .map(|()| "valid dangoron-lint-v2 report, tree lint-clean")
        } else {
            bench::schema::validate(&json, requires).map(|()| "valid dangoron-bench-v1 record")
        };
        match verdict {
            Ok(what) => println!("{path}: {what}"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// `harness scrape ADDR [--path P]`: one HTTP GET against a live
/// `--metrics-addr` endpoint, strict-parsed when the path is `/metrics`.
fn run_scrape(args: &[String]) {
    use std::io::{Read, Write};
    let addr = match args
        .iter()
        .position(|a| a == "scrape")
        .and_then(|k| args.get(k + 1))
    {
        Some(a) if !a.starts_with("--") => a.clone(),
        _ => {
            eprintln!("usage: harness scrape ADDR [--path /metrics]");
            std::process::exit(2);
        }
    };
    let path = match flag_value(args, "--path") {
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        None => "/metrics".to_string(),
    };
    let body = (|| -> Result<String, String> {
        let mut s =
            std::net::TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: harness\r\n\r\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
        let text = String::from_utf8_lossy(&raw).into_owned();
        let status: u16 = text
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("malformed response: {:?}", text.lines().next()))?;
        if status != 200 {
            return Err(format!("GET {path}: HTTP {status}"));
        }
        text.split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .ok_or_else(|| "response has no body".to_string())
    })();
    match body {
        Ok(body) => {
            if path == "/metrics" {
                match obs::expo::parse_prometheus(&body) {
                    Ok(families) => eprintln!(
                        "{addr}{path}: valid exposition, {} families, {} bytes",
                        families.len(),
                        body.len()
                    ),
                    Err(e) => {
                        eprintln!("{addr}{path}: INVALID exposition: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                eprintln!("{addr}{path}: {} bytes", body.len());
            }
            println!("{body}");
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = Scale::from_flag(full);
    if args.iter().any(|a| a == "validate") {
        run_validate(&args);
        return;
    }
    if args.iter().any(|a| a == "scrape") {
        run_scrape(&args);
        return;
    }
    if args.iter().any(|a| a == "merge") {
        run_merge(&args);
        return;
    }
    if args.iter().any(|a| a == "bench") {
        run_bench(&args, scale);
        return;
    }
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();

    let selected: Vec<&str> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ALL.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };

    let mut failed = false;
    for id in selected {
        match run_experiment(id, scale) {
            Some(report) => {
                println!("{report}");
            }
            None => {
                eprintln!("unknown experiment id: {id} (expected e1..e13 or all)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
