//! The `dist-shards` workload: the `climate-wide` input through
//! `dist::coord::run` over pipes, 4 shards on 2 spawned `dangoron-shard`
//! workers, one coordinator run at a time.

use crate::engine::{self, walker_counts, Input};
use crate::report::Report;
use crate::stats::{median, ms, per};
use crate::trace::Tracer;
use crate::{matrices_hash, Budget, Options};
use dangoron::{Dangoron, DangoronConfig};
use dist::coord::{self, CoordinatorConfig};
use dist::{DistResult, ShardPlan, WorkerMode};
use sketch::ThresholdedMatrix;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const WORKERS: usize = 2;

/// How the coordinator reaches its workers.
enum Cluster {
    /// Spawned `dangoron-shard` processes over stdio pipes.
    Processes(PathBuf),
    /// `coord::run_in_process` (smoke runs without the worker binary).
    InProcess,
}

impl Cluster {
    fn run(&self, cfg: &DangoronConfig, input: &Input) -> Result<DistResult, String> {
        let out = match self {
            Cluster::Processes(bin) => {
                let ccfg = CoordinatorConfig {
                    n_workers: WORKERS,
                    timeout: Duration::from_secs(60),
                    ..CoordinatorConfig::new(bin.clone(), SHARDS)
                };
                coord::run(&ccfg, cfg, &input.data, input.query)
            }
            Cluster::InProcess => {
                coord::run_in_process(SHARDS, WorkerMode::Batch, cfg, &input.data, input.query)
            }
        };
        out.map_err(|e| e.to_string())
    }
}

/// Runs the workload and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let cluster = match coord::default_worker_path() {
        Some(bin) => Cluster::Processes(bin),
        None => Cluster::InProcess,
    };
    let mode = match cluster {
        Cluster::Processes(_) => "processes",
        Cluster::InProcess => "in-process",
    };
    let mut report = Report::new("dist-shards", mode);
    if matches!(cluster, Cluster::InProcess) && !opts.smoke {
        report.op(false);
        report.check(
            "dangoron-shard is built next to the benchmark",
            false,
            "only smoke runs may fall back to the in-process tier".into(),
        );
        return report;
    }
    if let Err(e) = run_into(&cluster, opts, &mut report) {
        report.op(false);
        report.check("workload completed", false, e);
    }
    report
}

fn run_into(cluster: &Cluster, opts: &Options, report: &mut Report) -> Result<(), String> {
    let (inputs, setup_s) = engine::generate("climate-wide", opts)?;
    report.metric("setup_s", median(&setup_s), setup_s.len());
    let cfg = engine::config("climate-wide");
    let singles = inputs
        .iter()
        .map(|i| coord::run_single_process(WorkerMode::Batch, &cfg, &i.data, i.query))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for k in 0..opts.warmups() {
        cluster.run(&cfg, &inputs[k % inputs.len()])?;
    }
    if opts.trace {
        return traced(cluster, &cfg, &inputs[0], opts, report, &singles[0]);
    }

    let hashes: Vec<u64> = singles.iter().map(|s| matrices_hash(&s.matrices)).collect();
    let mut coord_ms = Vec::new();
    let mut shard_prepare_ms = Vec::new();
    let mut mismatches = 0;
    let mut last = None;
    let budget = Budget::start(opts);
    let mut runs = 0;
    while budget.more(runs) {
        let k = runs % inputs.len();
        runs += 1;
        let t = Instant::now();
        let result = cluster.run(&cfg, &inputs[k]);
        let took = t.elapsed();
        let Ok(result) = result else {
            report.op(false);
            mismatches += 1;
            continue;
        };
        coord_ms.push(ms(took));
        let slowest = result
            .shards
            .iter()
            .map(|s| s.prepare_s)
            .fold(0.0, f64::max);
        shard_prepare_ms.push(slowest * 1e3);
        let same = matrices_hash(&result.matrices) == hashes[k] && result.stats == singles[k].stats;
        mismatches += usize::from(!same);
        report.op(same);
        last = Some((k, result));
    }
    let (k, last) = last.ok_or("no coordinator run succeeded")?;
    report.check(
        "every merged result is bit-identical to coord::run_single_process",
        mismatches == 0 && dist::merge::windows_bit_identical(&last.matrices, &singles[k].matrices),
        format!("{mismatches} of {runs} runs failed or differ"),
    );
    report.latency("query_ms", &coord_ms);
    report.latency("ingest_ms", &shard_prepare_ms);
    report.metric(
        "resident_mb",
        resident_bytes(&cfg, &inputs[0])? as f64 / 1e6,
        1,
    );
    let outputs: Vec<&[ThresholdedMatrix]> = singles.iter().map(|s| &s.matrices[..]).collect();
    engine::verify("climate-wide", &inputs, &outputs, report)
}

/// Bytes the shards hold while prepared: each shard's `Prepared` state
/// (its own sketch store plus its pairs' sketches) and its pairs'
/// departure costs.
fn resident_bytes(cfg: &DangoronConfig, input: &Input) -> Result<usize, String> {
    let engine = Dangoron::new(cfg.clone()).map_err(|e| format!("{e:?}"))?;
    let mut bytes = 0;
    for shard in ShardPlan::balanced(input.data.n_series(), SHARDS).shards() {
        bytes += engine
            .prepare_shard(&input.data, input.query, shard.ranks.clone())
            .map_err(|e| format!("{e:?}"))?
            .memory_bytes();
    }
    let costs = engine::traced_batch(cfg, &input.data, input.query, &mut Tracer::new())?.cost_bytes;
    Ok(bytes + costs)
}

/// The traced run: coordinator runs alternate with the same plan run in
/// process and with the single-process engine, so the coordinator's time
/// splits into compute and transport.
fn traced(
    cluster: &Cluster,
    cfg: &DangoronConfig,
    input: &Input,
    opts: &Options,
    report: &mut Report,
    single: &DistResult,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut shard_max = Vec::new();
    let mut shard_skew = Vec::new();
    let mut last = None;
    let reference_hash = matrices_hash(&single.matrices);
    let budget = Budget::start(opts);
    let mut rep = 0;
    while budget.more(rep) {
        tr.set_rep(rep as u64);
        let result = tr.time("dist.coord.run", || cluster.run(cfg, input));
        let in_process = tr.time("dist.in_process", || {
            coord::run_in_process(SHARDS, WorkerMode::Batch, cfg, &input.data, input.query)
        });
        tr.time("dist.single", || {
            coord::run_single_process(WorkerMode::Batch, cfg, &input.data, input.query)
        })
        .map_err(|e| e.to_string())?;
        tr.time("dist.proto.encode_load", || {
            dist::proto::encode_load(&input.data)
        });
        rep += 1;
        let (Ok(result), Ok(_)) = (result, in_process) else {
            report.op(false);
            continue;
        };
        report.op(matrices_hash(&result.matrices) == reference_hash);
        // Worker-reported time per shard, in whole nanoseconds so the mean
        // is an integer sum.
        let per_shard: Vec<u64> = result
            .shards
            .iter()
            .map(|s| ((s.prepare_s + s.query_s) * 1e9) as u64)
            .collect();
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
        shard_max.push(max / 1e6);
        shard_skew.push(per(max, mean));
        last = Some(result);
    }
    let last = last.ok_or("no coordinator run succeeded")?;
    let (coord_ms, n) = tr.median_ms("dist.coord.run");
    let (in_process_ms, n_in) = tr.median_ms("dist.in_process");
    let (single_ms, n_single) = tr.median_ms("dist.single");
    let (encode_ms, n_encode) = tr.median_ms("dist.proto.encode_load");
    report.metric("dist.in_process_ms", in_process_ms, n_in);
    // The in-process run executes the shards one after another; split
    // evenly over the workers, that is the coordinator's compute floor.
    report.metric(
        "dist.transport_ms",
        coord_ms - in_process_ms / WORKERS as f64,
        n,
    );
    report.metric("dist.single_ms", single_ms, n_single);
    report.metric("dist.speedup", per(single_ms, coord_ms), n);
    report.metric("dist.shard_max_ms", median(&shard_max), shard_max.len());
    report.metric("dist.shard_skew", median(&shard_skew), shard_skew.len());
    report.metric("dist.proto.encode_load_ms", encode_ms, n_encode);
    let c = &last.coord;
    report.metric("dist.load_bytes", c.load_bytes as f64, 1);
    report.metric("dist.assign_bytes", c.assign_bytes as f64, 1);
    report.metric("dist.assignments", c.assignments as f64, 1);
    report.metric("dist.replans", c.replans as f64, 1);
    walker_counts(report, &last.stats);
    report.spans = Some(tr);
    Ok(())
}
