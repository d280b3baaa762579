//! # dangoron-benchmark — the regression benchmark
//!
//! One load-generating process runs the named workloads of
//! [`catalog::WORKLOADS`] against the engine, the `dangoron-serve` daemon
//! and the `dangoron-shard` cluster, checks every output for correctness
//! outside the timed regions, and reports each gated end-to-end metric of
//! [`catalog::END_TO_END`]. A separate traced run (`--trace 1`) times the
//! benchmark's own calls into each layer's public functions and reports
//! the per-layer metrics of [`catalog::PER_LAYER`]. `BENCHMARK.md` in this
//! directory documents the workloads, metrics and how to compare commits.

pub mod catalog;
pub mod dist_load;
pub mod engine;
pub mod json;
pub mod report;
pub mod serve_load;
pub mod stats;
pub mod trace;

use report::Report;
use sketch::ThresholdedMatrix;
use std::collections::BTreeSet;
use std::time::Instant;

/// Settings shared by every workload of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds each workload's measured loop runs for.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Smoke sizes: N ≤ 16, two reps, at most a second of serve load.
    pub smoke: bool,
}

impl Options {
    /// Untimed warm-up requests before a measured loop.
    pub fn warmups(&self) -> usize {
        if self.smoke {
            0
        } else {
            2
        }
    }

    /// How often set-up is repeated; `setup_s` is the median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Seconds of open-loop load for the serve workload.
    pub fn serve_seconds(&self) -> f64 {
        if self.smoke {
            self.seconds.min(1.0)
        } else {
            self.seconds
        }
    }
}

/// How long a closed loop keeps issuing requests.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_reps: usize,
    max_reps: usize,
}

impl Budget {
    /// Starts the clock: at least 5 requests and `opts.seconds` of wall
    /// time, or exactly 2 requests at smoke size.
    pub fn start(opts: &Options) -> Self {
        let (min_reps, max_reps) = if opts.smoke { (2, 2) } else { (5, usize::MAX) };
        Self {
            start: Instant::now(),
            seconds: opts.seconds,
            min_reps,
            max_reps,
        }
    }

    /// Whether another request should run after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_reps
            || (done < self.max_reps && self.start.elapsed().as_secs_f64() < self.seconds)
    }
}

/// A 64-bit FNV-1a hash of every `(window, i, j, value bits)` edge.
pub fn matrices_hash(matrices: &[ThresholdedMatrix]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(matrices.len() as u64);
    for (w, m) in matrices.iter().enumerate() {
        for e in m.edges() {
            feed(w as u64);
            feed((u64::from(e.i) << 32) | u64::from(e.j));
            feed(e.value.to_bits());
        }
    }
    h
}

/// The `(window, i, j)` edge set of a result.
pub fn edge_set(matrices: &[ThresholdedMatrix]) -> BTreeSet<(usize, u32, u32)> {
    matrices
        .iter()
        .enumerate()
        .flat_map(|(w, m)| m.edges().iter().map(move |e| (w, e.i, e.j)))
        .collect()
}

/// Runs one workload by name and completes its metric set.
///
/// # Panics
/// Panics on a name outside [`catalog::WORKLOADS`]; callers validate it.
pub fn run_workload(name: &str, opts: &Options) -> Report {
    let workload = catalog::workload(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut report = match workload.name {
        "serve-mixed" => serve_load::run(opts),
        "dist-shards" => dist_load::run(opts),
        w => engine::run(w, opts),
    };
    report.complete(opts.trace);
    report
}
