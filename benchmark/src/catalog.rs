//! The benchmark's names: workloads, gated end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root declares the same
//! names; `tests/benchmark_names.rs` fails when the two drift apart.

/// One named workload.
pub struct Workload {
    /// Stable name, passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "climate-wide",
        why: "Wide tier N=256 with PaperJump and precomputed pairs: pair sketches, Eq. 2 pair costs and the edge sort dominate (~515k edges).",
    },
    Workload {
        name: "cluster-exact",
        why: "Same engine the opposite way: Exhaustive walk with triangle pruning and almost no edges, so pair costs and the sort are bypassed.",
    },
    Workload {
        name: "serve-mixed",
        why: "A dangoron-serve child under a closed-loop querier and an open-loop appender on one session: wire, session lock, shared-sketch walk.",
    },
    Workload {
        name: "dist-shards",
        why: "The climate-wide input through dist::coord over pipes, 4 shards on 2 spawned workers: spawn, Load transfer, slowest shard, merge.",
    },
];

/// A gated end-to-end metric. Every workload reports every one.
pub struct EndToEnd {
    /// Stable name.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The gated metrics. What each means per workload is in `BENCHMARK.md`.
/// Latencies are gated on a run's 10th percentile (see `Report::latency`).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "query_ms.p10",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_ms.p10",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recall",
        unit: "ratio",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "resident_mb",
        unit: "MB",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric of the traced run (ungated).
pub struct Layer {
    /// Stable name, `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metrics a change to this layer should move.
    pub moves: &'static [&'static str],
    /// The workload where this layer does the most work.
    pub heavy_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [&'static str],
    heavy_on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        heavy_on,
    }
}

const INGEST: &[&str] = &["ingest_ms.p10"];
const QUERY: &[&str] = &["query_ms.p10"];
const QUERY_RECALL: &[&str] = &["query_ms.p10", "recall"];
const INGEST_RESIDENT: &[&str] = &["ingest_ms.p10", "resident_mb"];
const RESIDENT: &[&str] = &["resident_mb"];
const BATCH: &[&str] = &["ingest_ms.p10", "query_ms.p10"];

/// The per-layer metrics. A workload that does not exercise a layer
/// reports it as 0.
pub const PER_LAYER: &[Layer] = &[
    layer(
        "sketch.store.build_ms",
        "ms",
        "lower",
        INGEST,
        "climate-wide",
    ),
    layer(
        "sketch.pair.build_ms",
        "ms",
        "lower",
        INGEST,
        "climate-wide",
    ),
    layer(
        "sketch.pair.bytes",
        "bytes",
        "lower",
        RESIDENT,
        "climate-wide",
    ),
    layer(
        "core.walker.pair_costs_ms",
        "ms",
        "lower",
        INGEST_RESIDENT,
        "climate-wide",
    ),
    layer(
        "core.bounds.pair_costs_bytes",
        "bytes",
        "lower",
        RESIDENT,
        "climate-wide",
    ),
    layer(
        "core.pivot.build_ms",
        "ms",
        "lower",
        INGEST,
        "cluster-exact",
    ),
    layer("core.walker.walk_ms", "ms", "lower", QUERY, "cluster-exact"),
    layer(
        "core.walker.ns_per_eval",
        "ns",
        "lower",
        QUERY,
        "cluster-exact",
    ),
    layer(
        "sketch.output.assemble_ms",
        "ms",
        "lower",
        QUERY,
        "climate-wide",
    ),
    layer(
        "sketch.output.ns_per_edge",
        "ns",
        "lower",
        QUERY,
        "climate-wide",
    ),
    layer("core.walker.cells", "count", "lower", QUERY, "climate-wide"),
    layer(
        "core.walker.evaluated",
        "count",
        "lower",
        QUERY,
        "cluster-exact",
    ),
    layer(
        "core.walker.skipped_by_jump",
        "count",
        "higher",
        QUERY_RECALL,
        "climate-wide",
    ),
    layer(
        "core.walker.pruned_by_triangle",
        "count",
        "higher",
        QUERY,
        "cluster-exact",
    ),
    layer(
        "core.walker.pairs_skipped",
        "count",
        "higher",
        QUERY,
        "cluster-exact",
    ),
    layer(
        "core.walker.jumps",
        "count",
        "higher",
        QUERY_RECALL,
        "climate-wide",
    ),
    layer(
        "sketch.output.edges",
        "count",
        "higher",
        QUERY_RECALL,
        "climate-wide",
    ),
    layer(
        "core.walker.exact_frac",
        "ratio",
        "lower",
        QUERY,
        "cluster-exact",
    ),
    layer(
        "core.walker.edge_yield",
        "ratio",
        "higher",
        QUERY,
        "climate-wide",
    ),
    layer("trace.total_ms", "ms", "lower", BATCH, "climate-wide"),
    layer(
        "trace.unattributed_ms",
        "ms",
        "lower",
        BATCH,
        "climate-wide",
    ),
    layer("trace.overhead_ms", "ms", "lower", BATCH, "climate-wide"),
    layer(
        "serve.server.query_us.mean",
        "us",
        "lower",
        QUERY,
        "serve-mixed",
    ),
    layer(
        "serve.server.drain_us.mean",
        "us",
        "lower",
        INGEST,
        "serve-mixed",
    ),
    layer(
        "serve.session.query_ms",
        "ms",
        "lower",
        QUERY,
        "serve-mixed",
    ),
    layer(
        "serve.session.append_ms",
        "ms",
        "lower",
        INGEST,
        "serve-mixed",
    ),
    layer("serve.transport_ms", "ms", "lower", QUERY, "serve-mixed"),
    layer("serve.lock_wait_ms", "ms", "lower", QUERY, "serve-mixed"),
    layer("serve.proto.encode_us", "us", "lower", QUERY, "serve-mixed"),
    layer("serve.proto.decode_us", "us", "lower", QUERY, "serve-mixed"),
    layer(
        "serve.proto.reply_bytes",
        "bytes",
        "lower",
        QUERY,
        "serve-mixed",
    ),
    layer("serve.queries", "count", "higher", QUERY, "serve-mixed"),
    layer("serve.appends", "count", "higher", INGEST, "serve-mixed"),
    layer(
        "serve.windows_closed",
        "count",
        "higher",
        INGEST,
        "serve-mixed",
    ),
    layer(
        "serve.append_lateness_ms.max",
        "ms",
        "lower",
        INGEST,
        "serve-mixed",
    ),
    layer("dist.in_process_ms", "ms", "lower", QUERY, "dist-shards"),
    layer("dist.transport_ms", "ms", "lower", QUERY, "dist-shards"),
    layer("dist.single_ms", "ms", "lower", QUERY, "dist-shards"),
    layer("dist.speedup", "ratio", "higher", QUERY, "dist-shards"),
    layer("dist.shard_max_ms", "ms", "lower", QUERY, "dist-shards"),
    layer("dist.shard_skew", "ratio", "lower", QUERY, "dist-shards"),
    layer(
        "dist.proto.encode_load_ms",
        "ms",
        "lower",
        QUERY,
        "dist-shards",
    ),
    layer("dist.load_bytes", "bytes", "lower", QUERY, "dist-shards"),
    layer("dist.assign_bytes", "bytes", "lower", QUERY, "dist-shards"),
    layer("dist.assignments", "count", "lower", QUERY, "dist-shards"),
    layer("dist.replans", "count", "lower", QUERY, "dist-shards"),
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The unit of a catalogued metric (end-to-end or per-layer).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// True for a well-formed metric or workload name: 1–64 letters, digits,
/// `_`, `.` or `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
