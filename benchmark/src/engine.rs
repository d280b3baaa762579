//! The two in-process engine workloads, `climate-wide` and
//! `cluster-exact`, and the traced rebuild of `prepare` + `run` from the
//! engine's public layer calls.

use crate::report::Report;
use crate::stats::{median, ms, per, recall};
use crate::trace::Tracer;
use crate::{edge_set, matrices_hash, Budget, Options};
use dangoron::bounds::PairCosts;
use dangoron::config::HorizontalConfig;
use dangoron::pivot::{select_pivots, PivotSet};
use dangoron::walker::{pair_costs, walk_pair, WalkGeometry};
use dangoron::{BoundMode, Dangoron, DangoronConfig, PairStorage, PruningStats};
use sketch::output::Edge;
use sketch::{pair, triangular, BasicWindowLayout, SketchStore, SlidingQuery, ThresholdedMatrix};
use std::time::Instant;
use tsdata::TimeSeriesMatrix;

/// The engine's pair-chunk grain (`WALK_GRAIN` in `core/src/engine.rs`).
/// It only changes how pairs are handed to threads, never the result.
const WALK_GRAIN: usize = 8;

/// A generated input: the matrix and the sliding query over it.
pub struct Input {
    /// The series matrix the system under test sees.
    pub data: TimeSeriesMatrix,
    /// The sliding query.
    pub query: SlidingQuery,
}

/// Inputs per engine workload. Requests rotate over them, so a run's
/// numbers average four independently seeded datasets: on one climate
/// dataset the edge count, and with it the query time, moved by up to
/// ±15% with the seed.
pub const INPUTS: u64 = 4;

/// The inputs of `workload` (`climate-wide`, `cluster-exact`;
/// `dist-shards` shares `climate-wide`'s), seeded `INPUTS·seed + k`.
pub fn inputs(workload: &str, seed: u64, smoke: bool) -> Result<Vec<Input>, String> {
    (0..INPUTS)
        .map(|k| input(workload, seed.wrapping_mul(INPUTS).wrapping_add(k), smoke))
        .collect()
}

/// Generates one input of `workload` from `seed`.
fn input(workload: &str, seed: u64, smoke: bool) -> Result<Input, String> {
    let n = if smoke { 16 } else { 256 };
    match workload {
        "cluster-exact" => {
            let len = if smoke { 1440 } else { 2160 };
            let data = tsdata::generators::clustered_matrix(n, len, 4, 0.6, seed)
                .map_err(|e| format!("clustered_matrix: {e:?}"))?;
            let query = SlidingQuery {
                start: 0,
                end: len,
                window: 720,
                step: 24,
                threshold: 0.8,
            };
            Ok(Input { data, query })
        }
        _ => {
            let hours = if smoke { 1440 } else { 4320 };
            let w = eval::workloads::climate(n, hours, 0.9, seed)
                .map_err(|e| format!("climate workload: {e:?}"))?;
            Ok(Input {
                data: w.data,
                query: w.query,
            })
        }
    }
}

/// The engine configuration of `workload`: one thread, precomputed pair
/// sketches, 24-hour basic windows.
pub fn config(workload: &str) -> DangoronConfig {
    let base = DangoronConfig {
        basic_window: 24,
        storage: PairStorage::Precomputed,
        threads: 1,
        ..Default::default()
    };
    match workload {
        "cluster-exact" => DangoronConfig {
            bound: BoundMode::Exhaustive,
            horizontal: Some(HorizontalConfig::default()),
            ..base
        },
        _ => DangoronConfig {
            bound: BoundMode::PaperJump { slack: 0.0 },
            horizontal: None,
            ..base
        },
    }
}

/// The output of a rebuilt batch plus the prepared state's byte counts.
pub struct Rebuilt {
    /// One finalized matrix per window.
    pub matrices: Vec<ThresholdedMatrix>,
    /// The walk's counters.
    pub stats: PruningStats,
    /// Bytes of the pair sketches.
    pub pair_bytes: usize,
    /// Bytes of the Eq. 2 departure-cost prefixes.
    pub cost_bytes: usize,
    /// Bytes of the pivot table.
    pub pivot_bytes: usize,
}

/// Rebuilds `Dangoron::prepare` + `Dangoron::run` over the full pair
/// triangle from the layers' public calls, in the order
/// `core/src/engine.rs` makes them, with a span around each call. The
/// result must be bit-identical to `Dangoron::run`.
pub fn traced_batch(
    cfg: &DangoronConfig,
    x: &TimeSeriesMatrix,
    query: SlidingQuery,
    tr: &mut Tracer,
) -> Result<Rebuilt, String> {
    if cfg.storage != PairStorage::Precomputed {
        return Err("the traced rebuild covers precomputed pair storage only".into());
    }
    let err = |e: tsdata::TsError| format!("{e:?}");
    let threads = cfg.threads;
    let n = x.n_series();
    let n_pairs = triangular::count(n);
    let root = tr.enter("engine.batch");

    let prepare = tr.enter("engine.prepare");
    query.validate(x.len()).map_err(err)?;
    let layout = tr
        .time("sketch.plan.layout", || {
            BasicWindowLayout::for_query(&query, cfg.basic_window)
        })
        .map_err(err)?;
    let store = tr
        .time("sketch.store.build", || {
            SketchStore::build_with_threads(x, layout, threads)
        })
        .map_err(err)?;
    let pairs = tr
        .time("sketch.pair.build", || pair::build_all(&layout, x, threads))
        .map_err(err)?;
    let costs: Option<Vec<PairCosts>> =
        matches!(cfg.bound, BoundMode::PaperJump { .. }).then(|| {
            tr.time("core.walker.pair_costs", || {
                exec::par_collect_chunks(pairs.len(), threads, 16, |range| {
                    range
                        .map(|k| {
                            let (i, j) = triangular::unrank(k, n);
                            pair_costs(&store, &pairs[k], i, j, cfg.edge_rule)
                        })
                        .collect()
                })
            })
        });
    let pivots = match &cfg.horizontal {
        Some(h) => Some(
            tr.time("core.pivot.build", || {
                let chosen = select_pivots(&h.strategy, h.n_pivots, n)?;
                PivotSet::build(x, &store, &layout, &query, chosen, Some(&pairs), threads)
            })
            .map_err(err)?,
        ),
        None => None,
    };
    let geo = WalkGeometry {
        n_windows: query.n_windows(),
        ns: layout.windows_per_query(query.window),
        step_bw: query.step / layout.width,
        offset_bw: 0,
    };
    tr.exit(prepare);

    let run = tr.enter("engine.run");
    let worker_out = tr.time("core.walker.walk", || {
        exec::run_partitioned(
            n_pairs,
            threads,
            WALK_GRAIN,
            |_| (Vec::<(u32, Edge)>::new(), PruningStats::default()),
            |(buf, stats), range| {
                for rank in range {
                    let (i, j) = triangular::unrank(rank, n);
                    walk_pair(
                        &store,
                        &pairs[rank],
                        i,
                        j,
                        geo,
                        query.threshold,
                        cfg.edge_rule,
                        cfg.bound,
                        costs.as_ref().map(|c| &c[rank]),
                        pivots.as_ref(),
                        stats,
                        |w, v| {
                            buf.push((
                                w as u32,
                                Edge {
                                    i: i as u32,
                                    j: j as u32,
                                    value: v,
                                },
                            ))
                        },
                    );
                }
            },
        )
    });
    let (matrices, stats) = tr.time("sketch.output.assemble", || {
        let mut stats = PruningStats::default();
        let total: usize = worker_out.iter().map(|(buf, _)| buf.len()).sum();
        let mut flat = Vec::with_capacity(total);
        for (buf, s) in worker_out {
            stats.merge(&s);
            flat.extend(buf);
        }
        let matrices = ThresholdedMatrix::assemble_windows(
            n,
            query.threshold,
            cfg.edge_rule,
            geo.n_windows,
            flat,
        );
        (matrices, stats)
    });
    tr.exit(run);
    tr.exit(root);

    Ok(Rebuilt {
        matrices,
        stats,
        pair_bytes: pairs.iter().map(|p| p.memory_bytes()).sum(),
        cost_bytes: costs
            .as_ref()
            .map_or(0, |c| c.iter().map(PairCosts::memory_bytes).sum()),
        pivot_bytes: pivots.as_ref().map_or(0, PivotSet::memory_bytes),
    })
}

/// Runs an engine workload and reports its metrics.
pub fn run(workload: &'static str, opts: &Options) -> Report {
    let mut report = Report::new(workload, "in-process");
    if let Err(e) = run_into(workload, opts, &mut report) {
        report.op(false);
        report.check("workload completed", false, e);
    }
    report
}

fn run_into(workload: &'static str, opts: &Options, report: &mut Report) -> Result<(), String> {
    let (inputs, setup_s) = generate(workload, opts)?;
    report.metric("setup_s", median(&setup_s), setup_s.len());
    let cfg = config(workload);
    let engine = Dangoron::new(cfg.clone()).map_err(|e| format!("{e:?}"))?;
    let err = |e: tsdata::TsError| format!("{e:?}");
    for k in 0..opts.warmups() {
        let input = &inputs[k % inputs.len()];
        engine.execute(&input.data, input.query).map_err(err)?;
    }

    // The reference outputs, and the rebuild checked against the first.
    let references = inputs
        .iter()
        .map(|i| engine.execute(&i.data, i.query))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let mut tracer = Tracer::new();
    let rebuilt = traced_batch(&cfg, &inputs[0].data, inputs[0].query, &mut tracer)?;
    report.check(
        "traced rebuild is bit-identical to Dangoron::run",
        dist::merge::windows_bit_identical(&rebuilt.matrices, &references[0].matrices)
            && rebuilt.stats == references[0].stats,
        format!("{} windows", references[0].matrices.len()),
    );

    if opts.trace {
        traced_loop(&engine, &cfg, &inputs[0], opts, report, &rebuilt, tracer)?;
    } else {
        let hashes: Vec<u64> = references
            .iter()
            .map(|r| matrices_hash(&r.matrices))
            .collect();
        timed_loop(&engine, &inputs, &hashes, opts, report, &rebuilt)?;
        let outputs: Vec<&[ThresholdedMatrix]> =
            references.iter().map(|r| &r.matrices[..]).collect();
        verify(workload, &inputs, &outputs, report)?;
    }
    Ok(())
}

/// Generates the inputs `opts.setup_reps()` times and returns the last set
/// with every generation's wall seconds.
pub fn generate(workload: &str, opts: &Options) -> Result<(Vec<Input>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = Vec::new();
    for _ in 0..opts.setup_reps() {
        let t = Instant::now();
        last = inputs(workload, opts.seed, opts.smoke)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last, times))
}

/// The untraced closed loop: `prepare` then `run`, one request at a time,
/// rotating over the inputs.
fn timed_loop(
    engine: &Dangoron,
    inputs: &[Input],
    reference_hashes: &[u64],
    opts: &Options,
    report: &mut Report,
    rebuilt: &Rebuilt,
) -> Result<(), String> {
    let mut ingest = Vec::new();
    let mut query = Vec::new();
    let mut prepared_bytes = 0;
    let mut mismatches = 0;
    let budget = Budget::start(opts);
    while budget.more(query.len()) {
        let k = query.len() % inputs.len();
        let (x, q) = (&inputs[k].data, inputs[k].query);
        let t0 = Instant::now();
        let prep = engine.prepare(x, q).map_err(|e| format!("{e:?}"))?;
        let t1 = Instant::now();
        let out = engine.run(&prep);
        let t2 = Instant::now();
        ingest.push(ms(t1 - t0));
        query.push(ms(t2 - t1));
        prepared_bytes = prep.memory_bytes();
        drop(prep);
        let same = matrices_hash(&out.matrices) == reference_hashes[k];
        mismatches += usize::from(!same);
        report.op(same);
    }
    report.check(
        "every rep's output hash equals its input's reference",
        mismatches == 0,
        format!("{mismatches} of {} reps differ", query.len()),
    );
    report.latency("query_ms", &query);
    report.latency("ingest_ms", &ingest);
    let resident = prepared_bytes + rebuilt.cost_bytes + rebuilt.pivot_bytes;
    report.metric("resident_mb", resident as f64 / 1e6, 1);
    Ok(())
}

/// Checks the outputs of `workload`'s configuration on `inputs` against
/// exact truth, outside every timed region, and reports `recall` over all
/// of them.
pub fn verify(
    workload: &str,
    inputs: &[Input],
    outputs: &[&[ThresholdedMatrix]],
    report: &mut Report,
) -> Result<(), String> {
    let (mut hits, mut truths, mut found_total, mut wrong) = (0, 0, 0, 0);
    for (input, got) in inputs.iter().zip(outputs) {
        let found = edge_set(got);
        let truth = if workload == "cluster-exact" {
            let w = eval::workloads::Workload {
                name: workload.to_string(),
                data: input.data.clone(),
                query: input.query,
                basic_window: 24,
            };
            edge_set(&eval::workloads::ground_truth(&w).map_err(|e| format!("{e:?}"))?)
        } else {
            let exact = Dangoron::new(DangoronConfig {
                bound: BoundMode::Exhaustive,
                ..config(workload)
            })
            .and_then(|e| e.execute(&input.data, input.query))
            .map_err(|e| format!("{e:?}"))?;
            edge_set(&exact.matrices)
        };
        hits += truth.intersection(&found).count();
        truths += truth.len();
        found_total += found.len();
        wrong += found.difference(&truth).count();
    }
    let detail = format!("{found_total} edges found, {truths} true, {wrong} false");
    if workload == "cluster-exact" {
        report.check(
            "F1 = 1.0 against the naive engine",
            hits == truths && wrong == 0,
            detail,
        );
    } else {
        report.check(
            "every PaperJump edge is an Exhaustive edge",
            wrong == 0,
            detail,
        );
    }
    report.metric("recall", recall(hits, truths), inputs.len());
    Ok(())
}

/// The traced run: traced rebuilds alternate with untraced batches, so the
/// difference of their medians is the tracing overhead.
fn traced_loop(
    engine: &Dangoron,
    cfg: &DangoronConfig,
    input: &Input,
    opts: &Options,
    report: &mut Report,
    first: &Rebuilt,
    mut tracer: Tracer,
) -> Result<(), String> {
    let (x, q) = (&input.data, input.query);
    let mut untraced = Vec::new();
    let budget = Budget::start(opts);
    let mut reps = 1;
    let mut mismatches = 0;
    let first_hash = matrices_hash(&first.matrices);
    while budget.more(reps) {
        let t = Instant::now();
        let prep = engine.prepare(x, q).map_err(|e| format!("{e:?}"))?;
        let out = engine.run(&prep);
        untraced.push(ms(t.elapsed()));
        drop(prep);
        report.op(matrices_hash(&out.matrices) == first_hash);
        tracer.set_rep(reps as u64);
        let again = traced_batch(cfg, x, q, &mut tracer)?;
        let same = again.stats == first.stats;
        mismatches += usize::from(!same);
        report.op(same);
        reps += 1;
    }
    report.check(
        "every traced rep reproduces the first one's counters",
        mismatches == 0,
        format!("{mismatches} of {reps} traced reps differ"),
    );

    for (metric, span) in [
        ("sketch.store.build_ms", "sketch.store.build"),
        ("sketch.pair.build_ms", "sketch.pair.build"),
        ("core.walker.pair_costs_ms", "core.walker.pair_costs"),
        ("core.pivot.build_ms", "core.pivot.build"),
        ("core.walker.walk_ms", "core.walker.walk"),
        ("sketch.output.assemble_ms", "sketch.output.assemble"),
    ] {
        let (v, n) = tracer.median_ms(span);
        report.metric(metric, v, n);
    }
    let s = &first.stats;
    let (walk_ms, walk_n) = tracer.median_ms("core.walker.walk");
    let (assemble_ms, assemble_n) = tracer.median_ms("sketch.output.assemble");
    report.metric("sketch.pair.bytes", first.pair_bytes as f64, 1);
    report.metric("core.bounds.pair_costs_bytes", first.cost_bytes as f64, 1);
    report.metric(
        "core.walker.ns_per_eval",
        per(walk_ms * 1e6, s.evaluated as f64),
        walk_n,
    );
    report.metric(
        "sketch.output.ns_per_edge",
        per(assemble_ms * 1e6, s.edges as f64),
        assemble_n,
    );
    walker_counts(report, s);

    // Trace health: the self time of the root and of its prepare/run spans
    // is the time no layer span covers.
    let own = tracer.self_ns();
    let mut total = Vec::new();
    let mut unattributed = Vec::new();
    for sp in tracer.spans().iter().filter(|sp| sp.name == "engine.batch") {
        let mut gap_ns = own[sp.id];
        for child in tracer.spans().iter().filter(|c| c.parent == Some(sp.id)) {
            gap_ns += own[child.id];
        }
        total.push(sp.ms());
        unattributed.push(gap_ns as f64 / 1e6);
    }
    let (total_ms, unattributed_ms) = (median(&total), median(&unattributed));
    report.check(
        "unattributed time is within 10% of the traced total",
        unattributed_ms.abs() <= 0.1 * total_ms,
        format!("{unattributed_ms:.3} of {total_ms:.3} ms"),
    );
    report.metric("trace.total_ms", total_ms, total.len());
    report.metric("trace.unattributed_ms", unattributed_ms, unattributed.len());
    report.metric(
        "trace.overhead_ms",
        total_ms - median(&untraced),
        untraced.len(),
    );
    report.spans = Some(tracer);
    Ok(())
}

/// Reports the walk's exact counters and the ratios derived from them.
pub fn walker_counts(report: &mut Report, s: &PruningStats) {
    let edges = s.edges as f64;
    report.metric("core.walker.cells", s.total_cells as f64, 1);
    report.metric("core.walker.evaluated", s.evaluated as f64, 1);
    report.metric("core.walker.skipped_by_jump", s.skipped_by_jump as f64, 1);
    report.metric(
        "core.walker.pruned_by_triangle",
        s.pruned_by_triangle as f64,
        1,
    );
    report.metric(
        "core.walker.pairs_skipped",
        s.pairs_skipped_entirely as f64,
        1,
    );
    report.metric("core.walker.jumps", s.jumps as f64, 1);
    report.metric("sketch.output.edges", edges, 1);
    report.metric(
        "core.walker.exact_frac",
        per(s.evaluated as f64, s.total_cells as f64),
        1,
    );
    report.metric("core.walker.edge_yield", per(edges, s.evaluated as f64), 1);
}
