//! The resident session daemon.
//!
//! ```text
//! dangoron-serve --listen ADDR        # accept serve-protocol clients
//!          [--mem-budget-mb N]        # summed resident session bytes;
//!                                     # idle-LRU eviction + append
//!                                     # backpressure keep under it
//!          [--max-links N]            # exit after N links close (CI)
//!          [--metrics-addr ADDR]      # embedded HTTP: /metrics,
//!                                     # /stats.json, /sessions/*/edges
//! ```
//!
//! Each accepted link is served on its own thread; sessions are shared
//! across links by name, so one client can append while others query or
//! subscribe. See `crates/serve` for the protocol and the concurrency
//! model. With `--metrics-addr`, the daemon also serves read-only
//! telemetry over HTTP (`serve::http`, `docs/metrics.md`) — scrapes are
//! wait-free and never perturb session state.

use serve::Registry;
use std::net::TcpListener;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen: Option<String> = None;
    let mut mem_budget_mb: Option<u64> = None;
    let mut max_links: Option<u64> = None;
    let mut metrics_addr: Option<String> = None;
    let value = |args: &[String], k: usize, flag: &str| -> String {
        match args.get(k + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("dangoron-serve: {flag} requires a value");
                std::process::exit(2);
            }
        }
    };
    let parse = |text: String, flag: &str| -> u64 {
        match text.parse() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("dangoron-serve: bad {flag}: {e}");
                std::process::exit(2);
            }
        }
    };
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--listen" => listen = Some(value(&args, k, "--listen")),
            "--mem-budget-mb" => {
                mem_budget_mb = Some(parse(value(&args, k, "--mem-budget-mb"), "--mem-budget-mb"))
            }
            "--max-links" => max_links = Some(parse(value(&args, k, "--max-links"), "--max-links")),
            "--metrics-addr" => metrics_addr = Some(value(&args, k, "--metrics-addr")),
            other => {
                eprintln!("dangoron-serve: unknown flag {other}");
                std::process::exit(2);
            }
        }
        k += 2;
    }
    let Some(addr) = listen else {
        eprintln!(
            "usage: dangoron-serve --listen ADDR [--mem-budget-mb N] [--max-links N] [--metrics-addr ADDR]"
        );
        std::process::exit(2);
    };
    let budget = mem_budget_mb.map(|mb| {
        let bytes = mb
            .checked_mul(1 << 20)
            .and_then(|b| usize::try_from(b).ok());
        bytes.unwrap_or_else(|| {
            eprintln!("dangoron-serve: bad --mem-budget-mb: {mb} MiB overflows the byte count");
            std::process::exit(2);
        })
    });
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dangoron-serve: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "dangoron-serve: listening on {addr} (budget: {})",
        match budget {
            Some(b) => format!("{b} bytes"),
            None => "unbounded".to_string(),
        }
    );
    let registry = Arc::new(Registry::new(budget));
    let _metrics_server = match &metrics_addr {
        Some(maddr) => {
            let mounts = vec![obs::stages::global(), registry.obs_registry()];
            let routes = serve::http::routes(Arc::clone(&registry));
            match obs::MetricsServer::bind(maddr, mounts, Some(routes)) {
                Ok(srv) => {
                    eprintln!("dangoron-serve: metrics on http://{}/metrics", srv.addr());
                    Some(srv)
                }
                Err(e) => {
                    eprintln!("dangoron-serve: cannot bind --metrics-addr {maddr}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };
    if let Err(e) = serve::serve(listener, registry, max_links) {
        eprintln!("dangoron-serve: {e}");
        std::process::exit(1);
    }
}
