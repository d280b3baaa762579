//! The shard worker process: dials a listening `dangoron-coord`, serves
//! `Load`/`Assign` frames with the sharded engines, writing
//! `Result`/`Error` frames back, until the coordinator closes the link.
//! See `dist::proto` for the wire format.
//!
//! ```text
//! dangoron-shard --connect ADDR           # the coordinator's listener
//!            [--connect-timeout-s S]      # dial patience per attempt
//!                                         # (jittered backoff, default 30)
//!            [--reconnect N]              # after a dropped link, re-dial
//!                                         # up to N times and rejoin the
//!                                         # run as a new member
//! ```
//!
//! A coordinator in spawn mode starts its children exactly this way.
//! The worker's first frame is the `Hello` handshake (the protocol
//! version). With `--reconnect`, a worker
//! whose link dies mid-run (coordinator restart, network fault, injected
//! chaos) dials again with the same jittered backoff and — because the
//! coordinator's membership is elastic — is re-admitted as a *new*
//! member: it receives a fresh `Load` and fresh assignments, while its
//! old identity's in-flight work is re-planned and any stale frames are
//! discarded by assignment id.

use std::io;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut connect: Option<String> = None;
    let mut connect_timeout_s: u64 = 30;
    let mut reconnect: u32 = 0;
    let mut k = 0;
    let value = |args: &[String], k: usize, flag: &str| -> String {
        match args.get(k + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("dangoron-shard: {flag} requires a value");
                std::process::exit(2);
            }
        }
    };
    while k < args.len() {
        match args[k].as_str() {
            "--connect" => connect = Some(value(&args, k, "--connect")),
            "--connect-timeout-s" => {
                connect_timeout_s = match value(&args, k, "--connect-timeout-s").parse() {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("dangoron-shard: bad --connect-timeout-s: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--reconnect" => {
                reconnect = match value(&args, k, "--reconnect").parse() {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("dangoron-shard: bad --reconnect: {e}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("dangoron-shard: unknown flag {other}");
                std::process::exit(2);
            }
        }
        k += 2;
    }
    let Some(addr) = connect else {
        eprintln!("dangoron-shard: --connect ADDR is required");
        std::process::exit(2);
    };
    if let Err(e) = serve_tcp(&addr, Duration::from_secs(connect_timeout_s), reconnect) {
        eprintln!("dangoron-shard: {e}");
        std::process::exit(1);
    }
}

/// Dials the coordinator and serves; on a dropped link, re-dials up to
/// `reconnect` times, rejoining the (elastic) run as a new member each
/// time. The dial/retry/backoff loop itself lives in
/// [`dist::transport::serve_with_reconnect`], shared with the serving
/// tier's clients.
fn serve_tcp(addr: &str, patience: Duration, reconnect: u32) -> io::Result<()> {
    dist::transport::serve_with_reconnect(addr, patience, reconnect, "dangoron-shard", |link| {
        // `worker::serve` returns Ok exactly at end-of-file — which is
        // how both a finished coordinator and a link killed while this
        // worker sat idle look from here. Reporting `Eof` lets the
        // reconnect loop's probe dial disambiguate instead of silently
        // exiting mid-run (which strands the coordinator with no
        // survivors).
        dist::worker::serve(link.input, link.output).map(|()| dist::transport::LinkEnd::Eof)
    })
}
