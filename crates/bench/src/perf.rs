//! The `BENCH_*.json` perf trajectory: one machine-readable record per PR
//! so every later optimisation is measured against its predecessors.
//!
//! `harness bench [--out BENCH_N.json] [--full]` runs the E1 query-time
//! workload at a ladder of thread counts, timing the prepare phase (sketch
//! building — the paper excludes it from "pure query time" but it
//! dominates offline cost) and the pure query walk separately. The JSON is
//! hand-rolled: serde_json is not an available dependency, and the schema
//! is flat enough that a tiny emitter is clearer than a shim.

use crate::common::dangoron_engine;
use crate::Scale;
use dangoron::config::HorizontalConfig;
use dangoron::{BoundMode, Dangoron, DangoronConfig, StreamingDangoron};
use eval::timing::{measure, speedup, TimingSummary};
use eval::workloads::{self, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Thread counts every perf record samples.
pub const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// One `(threads, timings)` sample of the perf run.
#[derive(Debug, Clone)]
pub struct ThreadSample {
    /// Worker threads used.
    pub threads: usize,
    /// Prepare-phase (sketch build) timing.
    pub prepare: TimingSummary,
    /// Pure-query timing.
    pub query: TimingSummary,
    /// Fraction of cells skipped by pruning.
    pub skip_fraction: f64,
    /// Total edges across all windows (sanity: identical for all rows).
    pub total_edges: usize,
}

/// The streaming-pivots sample: the same workload replayed through a
/// [`StreamingDangoron`] session whose pivot table is maintained
/// incrementally, so horizontal pruning applies on the real-time path.
#[derive(Debug, Clone)]
pub struct StreamingPerf {
    /// Worker threads used.
    pub threads: usize,
    /// Session-open timing (initial sketch + pivot build).
    pub open: TimingSummary,
    /// Total append+drain timing for the whole remaining stream.
    pub drain: TimingSummary,
    /// Windows emitted over the stream.
    pub windows: usize,
    /// Fraction of cells not exactly evaluated (cumulative).
    pub skip_fraction: f64,
    /// Cells settled by the triangle bound.
    pub pruned_by_triangle: u64,
    /// (pair, drain) encounters eliminated wholesale by the prefilter.
    pub pairs_skipped_entirely: u64,
    /// Total edges across all emitted windows.
    pub total_edges: usize,
}

/// The kernel microbenchmark sample: dispatched SIMD kernels against the
/// PR 2 sequential-scalar baselines (see `experiments::e12_kernels`), so
/// the single-core multiplier lands in the perf trajectory alongside the
/// thread-scaling one.
#[derive(Debug, Clone)]
pub struct KernelsPerf {
    /// Backend the dispatcher selected (`avx2+fma`, `neon`, `scalar`).
    pub backend: String,
    /// Input length in `f64` elements.
    pub len: usize,
    /// Dot-product kernel speedup over the PR 2 baseline.
    pub dot_speedup: f64,
    /// Five-moment (window-correlation) kernel speedup.
    pub moments_speedup: f64,
    /// End-to-end `PairSketch::build` prefix-build speedup.
    pub prefix_build_speedup: f64,
}

/// Hardware context embedded in every record, so the machine's limits
/// (1-core containers, missing SIMD) are self-documenting instead of
/// tribal knowledge. Hostname-free by construction: a fixed flag
/// whitelist and one counter (see `exec::hardware`).
#[derive(Debug, Clone)]
pub struct HardwareInfo {
    /// Physical cores (hyperthreads excluded), best effort.
    pub n_physical_cores: usize,
    /// Whitelisted SIMD capability flags.
    pub flags: Vec<String>,
}

impl HardwareInfo {
    /// Probes the running machine.
    pub fn probe() -> Self {
        Self {
            n_physical_cores: exec::hardware::physical_cores(),
            flags: exec::hardware::simd_flags()
                .into_iter()
                .map(str::to_string)
                .collect(),
        }
    }
}

/// The distributed-tier sample: the E13 shard run condensed for the perf
/// trajectory (absent in pre-PR-4 records).
#[derive(Debug, Clone)]
pub struct ShardsPerf {
    /// Shards planned.
    pub n_shards: usize,
    /// Worker processes used (0 in the in-process fallback).
    pub workers: usize,
    /// `"processes"` when real `dangoron-shard` workers ran,
    /// `"in-process"` when the worker binary was unavailable.
    pub mode: String,
    /// Transport the workers were reached over (`"pipe"`, `"tcp"`,
    /// `"in-process"`).
    pub transport: String,
    /// Assignment frames sent (replans included).
    pub assignments: usize,
    /// Total payload bytes of the slim (post-`Load`) `Assign` frames.
    pub assign_bytes: u64,
    /// Total payload bytes of the per-worker `Load` frames.
    pub load_bytes: u64,
    /// Re-plan events over the run.
    pub replans: usize,
    /// Workers admitted after the run started (elastic TCP leg; 0
    /// elsewhere).
    pub late_joins: usize,
    /// Steal grants that moved work off a straggler mid-run.
    pub steals: usize,
    /// Heartbeat pongs received over the run.
    pub heartbeats: usize,
    /// Summed exact evaluations across shards.
    pub evaluated: u64,
    /// Summed (pair, window) cells across shards.
    pub total_cells: u64,
    /// Edges in the merged result.
    pub merged_edges: usize,
    /// Slowest shard prepare, milliseconds.
    pub prepare_ms_max: f64,
    /// Slowest shard query, milliseconds.
    pub query_ms_max: f64,
    /// Coordinator end-to-end wall milliseconds.
    pub coord_ms: f64,
    /// Single-process reference wall milliseconds (prepare + query).
    pub single_process_ms: f64,
    /// Whether the merged matrices matched the single-process engine
    /// bitwise (enforced to `true` by tests and CI; recorded anyway).
    pub bit_identical: bool,
}

/// The serving-tier sample: one resident `serve::Session` answers a panel
/// of differently-shaped `(window, step, threshold)` queries from its
/// shared sketch store, timed against the one-shot path re-paying the
/// prepare phase for every query. The ratio is the amortisation the
/// session layer exists for — and every resident answer is checked
/// bitwise against its one-shot twin before it counts.
#[derive(Debug, Clone)]
pub struct ServePerf {
    /// Distinct `(window, step, threshold)` queries in the panel.
    pub queries: usize,
    /// Session-open wall milliseconds (the one shared prepare).
    pub open_ms: f64,
    /// Total resident `query_shared` wall milliseconds across the panel.
    pub resident_ms: f64,
    /// Total fresh prepare+run wall milliseconds across the same panel.
    pub one_shot_ms: f64,
    /// `one_shot_ms / (open_ms + resident_ms)`.
    pub shared_prepare_speedup: f64,
    /// Resident session bytes after the run (what the daemon's memory
    /// budget would charge).
    pub memory_bytes: usize,
    /// Summed edges across every query's windows.
    pub total_edges: usize,
    /// Whether every resident answer matched its one-shot twin bitwise.
    pub bit_identical: bool,
}

/// The telemetry self-check: after the timed runs, scrape the process-
/// wide stage registry the engine recorded into, render the Prometheus
/// exposition, and strict-parse it back. Proves the obs layer saw the
/// run (the walk and exec counters are non-zero) and that what a real
/// scraper would read is well-formed — without standing up a socket.
#[derive(Debug, Clone)]
pub struct ObsPerf {
    /// Distinct metric families in the parsed exposition.
    pub families: usize,
    /// Registered series (snapshot entries).
    pub series: usize,
    /// Wall milliseconds to snapshot + render the exposition once.
    pub scrape_ms: f64,
    /// Rendered exposition size in bytes.
    pub exposition_bytes: usize,
    /// Whether the strict validating parser accepted the exposition.
    pub exposition_valid: bool,
    /// `dangoron_stage_walk_us` observation count.
    pub walk_observations: u64,
    /// `dangoron_exec_chunk_us` observation count.
    pub exec_chunks: u64,
    /// `dangoron_exec_steal_attempts_total` value.
    pub steal_attempts: u64,
}

/// Scrapes the process-wide stage registry into an [`ObsPerf`].
pub fn obs_sample() -> ObsPerf {
    let registry = obs::stages::global();
    let t = Instant::now();
    let snaps = registry.snapshot();
    let text = obs::expo::to_prometheus(&snaps);
    let scrape_ms = t.elapsed().as_secs_f64() * 1e3;
    let parsed = obs::expo::parse_prometheus(&text);
    let hist_count = |name: &str| -> u64 {
        snaps
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match &s.value {
                obs::metrics::Value::Histogram { count, .. } => Some(*count),
                _ => None,
            })
            .unwrap_or(0)
    };
    let counter = |name: &str| -> u64 {
        snaps
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match &s.value {
                obs::metrics::Value::Counter(v) => Some(*v),
                _ => None,
            })
            .unwrap_or(0)
    };
    ObsPerf {
        families: parsed.as_ref().map(|f| f.len()).unwrap_or(0),
        series: snaps.len(),
        scrape_ms,
        exposition_bytes: text.len(),
        exposition_valid: parsed.is_ok(),
        walk_observations: hist_count("dangoron_stage_walk_us"),
        exec_chunks: hist_count(obs::stages::EXEC_CHUNK_US),
        steal_attempts: counter(obs::stages::EXEC_STEAL_ATTEMPTS),
    }
}

/// A full perf record.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Workload description.
    pub workload: String,
    /// Series count.
    pub n_series: usize,
    /// Series length in columns.
    pub n_cols: usize,
    /// Number of sliding windows.
    pub n_windows: usize,
    /// Hardware threads the machine reports (speedups above this number
    /// are not expected to materialise).
    pub hardware_threads: usize,
    /// Hardware context (physical cores, SIMD flags).
    pub hardware: HardwareInfo,
    /// Per-thread-count samples.
    pub samples: Vec<ThreadSample>,
    /// The streaming-pivots experiment (absent in pre-PR-2 records).
    pub streaming: Option<StreamingPerf>,
    /// The kernel microbenchmark (absent in pre-PR-3 records).
    pub kernels: Option<KernelsPerf>,
    /// The distributed shard tier (absent in pre-PR-4 records).
    pub shards: Option<ShardsPerf>,
    /// The serving tier's shared-prepare amortisation (absent in
    /// pre-PR-8 records; written by `harness bench --serve`).
    pub serve: Option<ServePerf>,
    /// The telemetry scrape self-check (absent in pre-telemetry records).
    pub obs: Option<ObsPerf>,
}

impl PerfRecord {
    /// Query-time speedup of the `threads` sample over the 1-thread one.
    pub fn query_speedup(&self, threads: usize) -> Option<f64> {
        let base = self.samples.iter().find(|s| s.threads == 1)?;
        let cand = self.samples.iter().find(|s| s.threads == threads)?;
        Some(speedup(&base.query, &cand.query))
    }

    /// Prepare-phase speedup of the `threads` sample over the 1-thread one.
    pub fn prepare_speedup(&self, threads: usize) -> Option<f64> {
        let base = self.samples.iter().find(|s| s.threads == 1)?;
        let cand = self.samples.iter().find(|s| s.threads == threads)?;
        Some(speedup(&base.prepare, &cand.prepare))
    }

    /// Renders the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"dangoron-bench-v1\",");
        let _ = writeln!(s, "  \"workload\": {},", json_str(&self.workload));
        let _ = writeln!(s, "  \"n_series\": {},", self.n_series);
        let _ = writeln!(s, "  \"n_cols\": {},", self.n_cols);
        let _ = writeln!(s, "  \"n_windows\": {},", self.n_windows);
        let _ = writeln!(s, "  \"hardware_threads\": {},", self.hardware_threads);
        let flags: Vec<String> = self.hardware.flags.iter().map(|f| json_str(f)).collect();
        let _ = writeln!(
            s,
            "  \"hardware\": {{\"n_physical_cores\": {}, \"flags\": [{}]}},",
            self.hardware.n_physical_cores,
            flags.join(", "),
        );
        if let Some(sh) = &self.shards {
            let _ = writeln!(
                s,
                "  \"shards\": {{\"n_shards\": {}, \"workers\": {}, \"mode\": {}, \
                 \"transport\": {}, \"assignments\": {}, \"assign_bytes\": {}, \
                 \"load_bytes\": {}, \
                 \"replans\": {}, \"late_joins\": {}, \"steals\": {}, \
                 \"heartbeats\": {}, \"evaluated\": {}, \"total_cells\": {}, \
                 \"merged_edges\": {}, \"prepare_ms_max\": {}, \"query_ms_max\": {}, \
                 \"coord_ms\": {}, \"single_process_ms\": {}, \"bit_identical\": {}}},",
                sh.n_shards,
                sh.workers,
                json_str(&sh.mode),
                json_str(&sh.transport),
                sh.assignments,
                sh.assign_bytes,
                sh.load_bytes,
                sh.replans,
                sh.late_joins,
                sh.steals,
                sh.heartbeats,
                sh.evaluated,
                sh.total_cells,
                sh.merged_edges,
                json_num(sh.prepare_ms_max),
                json_num(sh.query_ms_max),
                json_num(sh.coord_ms),
                json_num(sh.single_process_ms),
                sh.bit_identical,
            );
        }
        if let Some(sp) = &self.streaming {
            let _ = writeln!(
                s,
                "  \"streaming_pivots\": {{\"threads\": {}, \
                 \"open_ms\": {{\"median\": {:.6}, \"min\": {:.6}, \"max\": {:.6}}}, \
                 \"drain_ms\": {{\"median\": {:.6}, \"min\": {:.6}, \"max\": {:.6}}}, \
                 \"windows\": {}, \"skip_fraction\": {:.6}, \"pruned_by_triangle\": {}, \
                 \"pairs_skipped_entirely\": {}, \"total_edges\": {}}},",
                sp.threads,
                sp.open.median_ms(),
                sp.open.min.as_secs_f64() * 1e3,
                sp.open.max.as_secs_f64() * 1e3,
                sp.drain.median_ms(),
                sp.drain.min.as_secs_f64() * 1e3,
                sp.drain.max.as_secs_f64() * 1e3,
                sp.windows,
                sp.skip_fraction,
                sp.pruned_by_triangle,
                sp.pairs_skipped_entirely,
                sp.total_edges,
            );
        }
        if let Some(k) = &self.kernels {
            let _ = writeln!(
                s,
                "  \"kernels\": {{\"backend\": {}, \"len\": {}, \
                 \"dot_speedup\": {}, \"moments_speedup\": {}, \
                 \"prefix_build_speedup\": {}}},",
                json_str(&k.backend),
                k.len,
                json_num(k.dot_speedup),
                json_num(k.moments_speedup),
                json_num(k.prefix_build_speedup),
            );
        }
        if let Some(sv) = &self.serve {
            let _ = writeln!(
                s,
                "  \"serve\": {{\"queries\": {}, \"open_ms\": {}, \"resident_ms\": {}, \
                 \"one_shot_ms\": {}, \"shared_prepare_speedup\": {}, \
                 \"memory_bytes\": {}, \"total_edges\": {}, \"bit_identical\": {}}},",
                sv.queries,
                json_num(sv.open_ms),
                json_num(sv.resident_ms),
                json_num(sv.one_shot_ms),
                json_num(sv.shared_prepare_speedup),
                sv.memory_bytes,
                sv.total_edges,
                sv.bit_identical,
            );
        }
        if let Some(o) = &self.obs {
            let _ = writeln!(
                s,
                "  \"obs\": {{\"families\": {}, \"series\": {}, \"scrape_ms\": {}, \
                 \"exposition_bytes\": {}, \"exposition_valid\": {}, \
                 \"walk_observations\": {}, \"exec_chunks\": {}, \
                 \"steal_attempts\": {}}},",
                o.families,
                o.series,
                json_num(o.scrape_ms),
                o.exposition_bytes,
                o.exposition_valid,
                o.walk_observations,
                o.exec_chunks,
                o.steal_attempts,
            );
        }
        let _ = writeln!(s, "  \"samples\": [");
        for (k, smp) in self.samples.iter().enumerate() {
            let comma = if k + 1 < self.samples.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"threads\": {}, \"prepare_ms\": {{\"median\": {:.6}, \"min\": {:.6}, \"max\": {:.6}}}, \
                 \"query_ms\": {{\"median\": {:.6}, \"min\": {:.6}, \"max\": {:.6}}}, \
                 \"skip_fraction\": {:.6}, \"total_edges\": {}, \
                 \"query_speedup_vs_1\": {}, \"prepare_speedup_vs_1\": {}}}{comma}",
                smp.threads,
                smp.prepare.median_ms(),
                smp.prepare.min.as_secs_f64() * 1e3,
                smp.prepare.max.as_secs_f64() * 1e3,
                smp.query.median_ms(),
                smp.query.min.as_secs_f64() * 1e3,
                smp.query.max.as_secs_f64() * 1e3,
                smp.skip_fraction,
                smp.total_edges,
                json_ratio(self.query_speedup(smp.threads)),
                json_ratio(self.prepare_speedup(smp.threads)),
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

/// A ratio as a JSON *number* for schema-required keys: non-finite values
/// (an implausible zero-duration denominator) degrade to `0.0`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "0.0".to_string()
    }
}

/// A speedup ratio as a JSON value: `null` when there is no 1-thread
/// baseline in the ladder (bare `NaN` is not valid JSON).
fn json_ratio(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.4}"),
        _ => "null".to_string(),
    }
}

pub(crate) fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn sample(w: &Workload, engine: &Dangoron, threads: usize, reps: usize) -> ThreadSample {
    let prepare = measure(reps, 1, || {
        let t = Instant::now();
        let p = engine.prepare(&w.data, w.query).expect("valid workload");
        let elapsed = t.elapsed();
        drop(p);
        elapsed
    });
    let prep = engine.prepare(&w.data, w.query).expect("valid workload");
    let result = engine.run(&prep);
    let query = measure(reps, 1, || {
        let t = Instant::now();
        let _ = engine.run(&prep);
        t.elapsed()
    });
    ThreadSample {
        threads,
        prepare,
        query,
        skip_fraction: result.stats.skip_fraction(),
        total_edges: result.total_edges(),
    }
}

fn summarize(mut samples: Vec<Duration>) -> TimingSummary {
    samples.sort_unstable();
    TimingSummary {
        reps: samples.len(),
        median: samples[samples.len() / 2],
        min: samples[0],
        max: *samples.last().expect("at least one rep"),
    }
}

/// Replays the workload through a streaming session with horizontal
/// pruning: open over the first half of the history, then append the rest
/// in week-sized chunks, timing the open and the total drain separately.
fn streaming_sample(w: &Workload, threads: usize, reps: usize) -> StreamingPerf {
    let config = DangoronConfig {
        basic_window: w.basic_window,
        bound: BoundMode::PaperJump { slack: 0.0 },
        horizontal: Some(HorizontalConfig::default()),
        threads,
        ..Default::default()
    };
    let b = w.basic_window;
    let initial_cols = ((w.data.len() / 2) / b * b).max(b);
    let chunk_cols = 7 * b;

    let mut opens = Vec::with_capacity(reps);
    let mut drains = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let initial = w.data.slice_columns(0, initial_cols).expect("slice");
        let t = Instant::now();
        let mut session = StreamingDangoron::new(
            initial,
            w.query.window,
            w.query.step,
            w.query.threshold,
            config.clone(),
        )
        .expect("valid streaming geometry");
        opens.push(t.elapsed());

        let t = Instant::now();
        let mut windows = session.drain_completed().expect("drain").len();
        let mut at = initial_cols;
        while at < w.data.len() {
            let next = (at + chunk_cols).min(w.data.len());
            let chunk = w.data.slice_columns(at, next).expect("chunk");
            windows += session.append(&chunk).expect("append").len();
            at = next;
        }
        drains.push(t.elapsed());
        last = Some((windows, session));
    }
    let (windows, session) = last.expect("at least one rep");
    let s = session.stats();
    StreamingPerf {
        threads,
        open: summarize(opens),
        drain: summarize(drains),
        windows,
        skip_fraction: s.skip_fraction(),
        pruned_by_triangle: s.pruned_by_triangle,
        pairs_skipped_entirely: s.pairs_skipped_entirely,
        total_edges: s.edges as usize,
    }
}

/// Runs the serving-tier panel over the workload: open one resident
/// [`serve::session::Session`], answer a panel of differently-shaped
/// queries from its shared sketches, and time the same panel through the
/// one-shot engine (fresh prepare per query). Each resident answer is
/// verified bitwise against its one-shot twin; the speedup is the
/// shared-prepare amortisation. All query geometries derive from the
/// workload's basic window, so the panel works at any scale.
pub fn serve_sample(w: &Workload) -> ServePerf {
    use serve::session::Session;
    let config = DangoronConfig {
        basic_window: w.basic_window,
        bound: BoundMode::PaperJump { slack: 0.0 },
        ..Default::default()
    };
    let b = w.basic_window;
    let covered = w.data.len() / b * b;
    let data = w.data.slice_columns(0, covered).expect("aligned prefix");
    let beta = w.query.threshold;
    // Interactive-exploration shapes: an analyst sweeping window widths
    // and thresholds over the same resident dataset. Steps are coarse
    // (5–10 basic windows) so each walk is cheap and the panel isolates
    // what the session layer amortises — the per-query prepare.
    let panel: Vec<(usize, usize, f64)> = [
        (30, 10, beta),
        (30, 10, beta - 0.05),
        (30, 10, beta - 0.1),
        (20, 10, beta),
        (20, 10, beta - 0.05),
        (15, 10, beta),
        (10, 10, beta),
        (10, 10, beta - 0.05),
        (40, 10, beta),
        (45, 10, beta - 0.05),
        (60, 10, beta),
        (80, 10, beta - 0.05),
        (30, 15, beta),
        (20, 15, beta - 0.05),
        (15, 15, beta),
        (45, 15, beta),
    ]
    .iter()
    .map(|&(wm, sm, t)| (wm * b, sm * b, t))
    .filter(|&(win, _, _)| win <= covered)
    .collect();

    let t = Instant::now();
    let session = Session::open(
        data.clone(),
        w.query.window.min(covered),
        w.query.step,
        beta,
        config.clone(),
    )
    .expect("resident session");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut resident_ms = 0.0;
    let mut one_shot_ms = 0.0;
    let mut total_edges = 0usize;
    let mut bit_identical = true;
    for &(win, step, threshold) in &panel {
        let t = Instant::now();
        let (exact_to, shared) = session.query(win, step, threshold).expect("shared query");
        resident_ms += t.elapsed().as_secs_f64() * 1e3; // lint:allow(float-reduction-outside-kernel) -- wall-clock accounting, not data

        let one_shot = Dangoron::new(config.clone()).expect("valid config");
        let q = sketch::SlidingQuery {
            start: 0,
            end: exact_to,
            window: win,
            step,
            threshold,
        };
        let t = Instant::now();
        let fresh = one_shot.execute(&data, q).expect("one-shot run");
        one_shot_ms += t.elapsed().as_secs_f64() * 1e3; // lint:allow(float-reduction-outside-kernel) -- wall-clock accounting, not data

        total_edges += shared.matrices.iter().map(|m| m.n_edges()).sum::<usize>();
        bit_identical &= dist::merge::windows_bit_identical(&shared.matrices, &fresh.matrices);
    }
    let amortised = open_ms + resident_ms;
    ServePerf {
        queries: panel.len(),
        open_ms,
        resident_ms,
        one_shot_ms,
        shared_prepare_speedup: if amortised > 0.0 {
            one_shot_ms / amortised
        } else {
            0.0
        },
        memory_bytes: session.memory_bytes(),
        total_edges,
        bit_identical,
    }
}

/// Which transport the perf record's distributed leg exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistTransport {
    /// Spawn `dangoron-shard` children over stdio pipes (falls back to
    /// the in-process tier when the worker binary is not built).
    #[default]
    Pipes,
    /// Localhost TCP: bind an OS-assigned port and start
    /// `dangoron-shard --connect` worker processes against it.
    Tcp,
    /// The elastic TCP leg: start with one deliberately slow worker,
    /// have a second one join mid-run, and let the coordinator steal the
    /// straggler's tail — exercising (and recording) late joins and
    /// steals while still verifying the merged result bitwise.
    TcpElastic,
}

/// Runs the perf ladder and returns the record.
pub fn run(scale: Scale) -> PerfRecord {
    run_full(scale).0
}

/// [`run`], additionally handing back the distributed run's
/// [`dist::DistResult`] and the workload — so `harness bench
/// --shard-records` can write the per-shard records without re-running
/// the (expensive) distributed and single-process reference legs.
pub fn run_full(scale: Scale) -> (PerfRecord, dist::DistResult, Workload) {
    run_full_with(scale, DistTransport::Pipes)
}

/// [`run_full`] with an explicit transport for the distributed leg
/// (`harness bench --dist-transport tcp`).
pub fn run_full_with(
    scale: Scale,
    transport: DistTransport,
) -> (PerfRecord, dist::DistResult, Workload) {
    let (n, hours, reps) = match scale {
        Scale::Quick => (32, 24 * 90, 3),
        Scale::Full => (128, 24 * 365, 5),
    };
    let beta = 0.9;
    let w = workloads::climate(n, hours, beta, 2020).expect("workload");
    let base = dangoron_engine(&w, BoundMode::PaperJump { slack: 0.0 });

    let samples = THREAD_LADDER
        .iter()
        .map(|&threads| {
            let engine = Dangoron::new(DangoronConfig {
                threads,
                ..base.config().clone()
            })
            .expect("valid config");
            sample(&w, &engine, threads, reps)
        })
        .collect();

    let streaming_threads = exec::available_threads().min(*THREAD_LADDER.last().unwrap());
    let streaming = Some(streaming_sample(&w, streaming_threads, reps));
    let kernels = Some(kernels_sample(scale));
    let (shards_perf, dist_result) = shards_sample_with(&w, transport);

    let record = PerfRecord {
        workload: w.name.clone(),
        n_series: n,
        n_cols: w.data.len(),
        n_windows: w.query.n_windows(),
        hardware_threads: exec::available_threads(),
        hardware: HardwareInfo::probe(),
        samples,
        streaming,
        kernels,
        shards: Some(shards_perf),
        // The serving-tier panel is opt-in (`harness bench --serve`): the
        // caller attaches it so plain bench runs stay comparable.
        serve: None,
        // Scraped last: the timed runs above are what fill the stage
        // registry this section self-checks.
        obs: Some(obs_sample()),
    };
    (record, dist_result, w)
}

/// Runs the distributed shard tier over the workload (8 shards queued
/// onto 4 workers, batch mode) and condenses it to the `shards` section —
/// through real `dangoron-shard` worker processes when the binary is
/// built, an in-process fallback otherwise. More shards than workers is
/// deliberate: queued shards reuse the worker's `Load`ed matrix, so
/// `assign_bytes` stays small next to `load_bytes`. Also returns the
/// per-shard summaries so `harness bench --shard-records` can write the
/// per-shard records that `harness merge` consumes.
pub fn shards_sample(w: &Workload) -> (ShardsPerf, dist::DistResult) {
    shards_sample_with(w, DistTransport::Pipes)
}

/// [`shards_sample`] over an explicit transport. The TCP leg binds an
/// OS-assigned localhost port and starts the workers itself with
/// `dangoron-shard --connect`; either leg degrades to the in-process
/// tier when the worker binary is unavailable.
pub fn shards_sample_with(
    w: &Workload,
    transport: DistTransport,
) -> (ShardsPerf, dist::DistResult) {
    use dist::coord;
    use dist::proto::WorkerMode;
    let engine_cfg = DangoronConfig {
        basic_window: w.basic_window,
        bound: BoundMode::PaperJump { slack: 0.0 },
        ..Default::default()
    };
    let n_shards = 8;
    let n_workers = 4;
    let t = Instant::now();
    let single = coord::run_single_process(WorkerMode::Batch, &engine_cfg, &w.data, w.query)
        .expect("single-process reference run");
    let single_process_ms = t.elapsed().as_secs_f64() * 1e3;

    let in_process = || {
        coord::run_in_process(n_shards, WorkerMode::Batch, &engine_cfg, &w.data, w.query)
            .expect("in-process shard run")
    };
    let (result, mode) = match coord::default_worker_path() {
        Some(worker_bin) => {
            let attempt = match transport {
                DistTransport::Pipes => {
                    let cfg = coord::CoordinatorConfig {
                        n_workers,
                        timeout: Duration::from_secs(600),
                        ..coord::CoordinatorConfig::new(worker_bin, n_shards)
                    };
                    coord::run(&cfg, &engine_cfg, &w.data, w.query)
                }
                DistTransport::Tcp => {
                    run_over_tcp(&worker_bin, n_shards, n_workers, &engine_cfg, w)
                }
                DistTransport::TcpElastic => {
                    run_over_tcp_elastic(&worker_bin, n_shards, &engine_cfg, w)
                }
            };
            match attempt {
                Ok(r) => (r, "processes"),
                Err(e) => {
                    eprintln!("shards: process tier failed ({e}); recording in-process run");
                    (in_process(), "in-process")
                }
            }
        }
        None => (in_process(), "in-process"),
    };
    let bit_identical = dist::merge::windows_bit_identical(&result.matrices, &single.matrices)
        && result.stats == single.stats;
    let perf = ShardsPerf {
        n_shards: result.coord.n_shards_planned,
        workers: result.coord.n_workers,
        mode: mode.to_string(),
        transport: if matches!(transport, DistTransport::TcpElastic) && mode == "processes" {
            // The coordinator only knows it spoke TCP; the record keeps
            // what the leg *did* (late join + steal choreography).
            "tcp-elastic".to_string()
        } else {
            result.coord.transport.clone()
        },
        assignments: result.coord.assignments,
        assign_bytes: result.coord.assign_bytes,
        load_bytes: result.coord.load_bytes,
        replans: result.coord.replans,
        late_joins: result.coord.late_joins,
        steals: result.coord.steals,
        heartbeats: result.coord.pongs,
        evaluated: result.stats.evaluated,
        total_cells: result.stats.total_cells,
        merged_edges: result.matrices.iter().map(|m| m.n_edges()).sum(),
        prepare_ms_max: result
            .shards
            .iter()
            .map(|s| s.prepare_s * 1e3)
            .fold(0.0, f64::max),
        query_ms_max: result
            .shards
            .iter()
            .map(|s| s.query_s * 1e3)
            .fold(0.0, f64::max),
        coord_ms: result.coord.wall_s * 1e3,
        single_process_ms,
        bit_identical,
    };
    (perf, result)
}

/// Drives the distributed leg over localhost TCP: binds an OS-assigned
/// port, starts one `dangoron-shard --connect` process per shard, and
/// runs the coordinator against the pre-bound listener — the same path a
/// real multi-machine run takes, minus the network in between.
fn run_over_tcp(
    worker_bin: &std::path::Path,
    n_shards: usize,
    n_workers: usize,
    engine_cfg: &DangoronConfig,
    w: &Workload,
) -> Result<dist::DistResult, dist::CoordError> {
    use std::process::{Command, Stdio};
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| dist::CoordError::Internal(format!("TCP bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| dist::CoordError::Internal(format!("local_addr: {e}")))?
        .to_string();
    let mut children = Vec::new();
    for _ in 0..n_workers {
        let spawned = Command::new(worker_bin)
            .arg("--connect")
            .arg(&addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(c) => children.push(c),
            Err(e) => {
                // Reap the partial set — orphans would retry the dial
                // for ~30 s and then linger as zombies.
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(dist::CoordError::Internal(format!(
                    "spawn {worker_bin:?} --connect: {e}"
                )));
            }
        }
    }
    let cfg = dist::coord::CoordinatorConfig {
        n_workers,
        timeout: Duration::from_secs(600),
        ..dist::coord::CoordinatorConfig::tcp(addr, n_shards)
    };
    let out = dist::coord::run_with_listener(&cfg, listener, engine_cfg, &w.data, w.query);
    for mut c in children {
        if out.is_err() {
            let _ = c.kill();
        }
        let _ = c.wait();
    }
    out
}

/// Drives the elastic distributed leg: the run *starts* with a single
/// deliberately slow worker (a per-chunk delay makes it a straggler that
/// keeps reporting progress), a second worker dials in ~400 ms later and
/// is admitted mid-run, drains the pending queue, and then steals the
/// straggler's remaining tail. The merged result is still verified
/// bitwise by the caller — elasticity must never change the answer.
fn run_over_tcp_elastic(
    worker_bin: &std::path::Path,
    n_shards: usize,
    engine_cfg: &DangoronConfig,
    w: &Workload,
) -> Result<dist::DistResult, dist::CoordError> {
    use std::process::{Command, Stdio};
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| dist::CoordError::Internal(format!("TCP bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| dist::CoordError::Internal(format!("local_addr: {e}")))?
        .to_string();
    // The straggler: fine-grained chunks, each preceded by a sleep — slow
    // but demonstrably alive, so it is stolen from rather than killed.
    let straggler = Command::new(worker_bin)
        .arg("--connect")
        .arg(&addr)
        .env(dist::worker::CHUNK_DELAY_ENV, "300")
        .env(dist::worker::CHUNK_RANKS_ENV, "8")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| dist::CoordError::Internal(format!("spawn {worker_bin:?} --connect: {e}")))?;
    // The late joiner: dials in once the run is already under way.
    let late = {
        let worker_bin = worker_bin.to_path_buf();
        let addr = addr.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            Command::new(&worker_bin)
                .arg("--connect")
                .arg(&addr)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
        })
    };
    let cfg = dist::coord::CoordinatorConfig {
        n_workers: 1, // start as soon as the straggler registers
        timeout: Duration::from_secs(60),
        ..dist::coord::CoordinatorConfig::tcp(addr, n_shards)
    };
    let out = dist::coord::run_with_listener(&cfg, listener, engine_cfg, &w.data, w.query);
    let mut children = vec![straggler];
    if let Ok(Ok(c)) = late.join() {
        children.push(c);
    }
    for mut c in children {
        if out.is_err() {
            let _ = c.kill();
        }
        let _ = c.wait();
    }
    out
}

/// Runs the E12 microbenchmark suite and condenses it to the `kernels`
/// section of the record.
fn kernels_sample(scale: Scale) -> KernelsPerf {
    use crate::experiments::e12_kernels;
    let suite = e12_kernels::measure_suite(scale);
    let pick = |name: &str| -> f64 {
        suite
            .iter()
            .find(|k| k.name == name)
            .map(|k| k.speedup_vs_pr2())
            .unwrap_or(0.0)
    };
    KernelsPerf {
        backend: kernel::active_backend().to_string(),
        len: suite.first().map(|k| k.len).unwrap_or(0),
        dot_speedup: pick("dot"),
        moments_speedup: pick("moments"),
        prefix_build_speedup: pick("prefix-build"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_record() -> PerfRecord {
        // A miniature ladder so the test stays fast.
        let w = workloads::climate_quick(8, 0.9).unwrap();
        let samples = [1usize, 2]
            .iter()
            .map(|&threads| {
                let engine = Dangoron::new(DangoronConfig {
                    basic_window: w.basic_window,
                    threads,
                    ..Default::default()
                })
                .unwrap();
                sample(&w, &engine, threads, 1)
            })
            .collect();
        PerfRecord {
            workload: w.name.clone(),
            n_series: 8,
            n_cols: w.data.len(),
            n_windows: w.query.n_windows(),
            hardware_threads: exec::available_threads(),
            hardware: HardwareInfo::probe(),
            samples,
            streaming: Some(streaming_sample(&w, 1, 1)),
            kernels: Some(KernelsPerf {
                backend: kernel::active_backend().to_string(),
                len: 64,
                dot_speedup: 1.0,
                moments_speedup: 1.0,
                prefix_build_speedup: 1.0,
            }),
            shards: Some(shards_sample(&w).0),
            serve: Some(serve_sample(&w)),
            obs: Some(obs_sample()),
        }
    }

    #[test]
    fn record_is_consistent_and_serialises() {
        let r = tiny_record();
        // Edges identical across thread counts (determinism).
        let edges: Vec<usize> = r.samples.iter().map(|s| s.total_edges).collect();
        assert!(edges.windows(2).all(|w| w[0] == w[1]), "{edges:?}");
        assert!(r.query_speedup(2).is_some());
        assert!(r.prepare_speedup(2).is_some());
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"dangoron-bench-v1\""));
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("query_speedup_vs_1"));
        assert!(json.contains("\"streaming_pivots\""));
        assert!(json.contains("\"pruned_by_triangle\""));
        assert!(json.contains("\"kernels\""));
        assert!(json.contains("\"prefix_build_speedup\""));
        assert!(json.contains("\"hardware\""));
        assert!(json.contains("\"n_physical_cores\""));
        assert!(json.contains("\"shards\""));
        assert!(json.contains("\"merged_edges\""));
        assert!(json.contains("\"serve\""));
        assert!(json.contains("\"shared_prepare_speedup\""));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The shard run must have reproduced the single-process result.
        assert!(r.shards.unwrap().bit_identical);
        // Every resident answer must have matched its one-shot twin.
        let sv = r.serve.unwrap();
        assert!(sv.bit_identical);
        assert!(sv.queries >= 4, "panel too small: {}", sv.queries);
        assert!(sv.one_shot_ms > 0.0 && sv.open_ms > 0.0);
    }

    #[test]
    fn streaming_sample_covers_every_window() {
        // The streamed replay must emit exactly the batch query's windows
        // and produce sane cumulative counters. (Edge totals are compared
        // against batch truth in the core crate's exhaustive-mode tests;
        // jump mode legitimately re-evaluates at drain boundaries.)
        let w = workloads::climate_quick(8, 0.9).unwrap();
        let sp = streaming_sample(&w, 2, 1);
        assert_eq!(sp.windows, w.query.n_windows());
        assert!((0.0..=1.0).contains(&sp.skip_fraction));
        assert!(sp.open.median > Duration::ZERO);
        assert!(sp.drain.median > Duration::ZERO);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
