//! Experiment harness: regenerates every table/figure of the paper.
//!
//! ```text
//! harness <exp-id>... [--full]                    # e1 … e13 (no e11), or `all`
//! harness validate [--require-lint-clean] LINT_REPORT.json...
//!                  # dangoron-lint --json report: schema (+ zero findings)
//! harness scrape ADDR [--path /metrics]           # GET + strict-parse
//! ```
//!
//! Quick scale (default) runs in seconds per experiment; `--full` uses the
//! paper-sized configuration (N up to 512, a full year of hourly data) and
//! takes minutes. Regression timing lives in `benchmark/` (see
//! `benchmark/BENCHMARK.md`), not here. `validate` checks `dangoron-lint
//! --json` reports (`--require-lint-clean` is the CI lint gate); `scrape`
//! fetches `/metrics` from a live `--metrics-addr` endpoint and checks the
//! exposition under the same strict parser CI uses.

use bench::experiments::{run_experiment, ALL};
use bench::Scale;

fn flag_value(args: &[String], flag: &str) -> Option<Result<String, String>> {
    args.iter()
        .position(|a| a == flag)
        .map(|k| match args.get(k + 1) {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} requires a value")),
        })
}

fn run_validate(args: &[String]) {
    let require_clean = args.iter().any(|a| a == "--require-lint-clean");
    let files: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && *a != "validate")
        .collect();
    if files.is_empty() {
        eprintln!("error: validate needs at least one lint report file");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in files {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|json| bench::schema::validate_lint_report(&json, require_clean));
        match verdict {
            Ok(()) if require_clean => {
                println!("{path}: valid dangoron-lint-v2 report, tree lint-clean")
            }
            Ok(()) => println!("{path}: valid dangoron-lint-v2 report"),
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
                eprintln!("unknown experiment id: {id} (expected e1..e13 except e11, or all)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
