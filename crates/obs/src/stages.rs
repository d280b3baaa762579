//! Stage timers: wall-time histograms for the engine's pipeline stages.
//!
//! One process-wide registry (under a `OnceLock` — initialise-once, not a
//! lock in the update path; every subsequent access is a shared-reference
//! read) holds a histogram per [`Stage`] plus the exec scheduler's chunk
//! timer and steal counter. Hot paths open a [`StageSpan`] guard and the
//! drop records elapsed microseconds with three relaxed atomic adds —
//! timing a stage can never perturb what it times.

use crate::metrics::{Counter, Histogram};
use crate::registry::Registry;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The pipeline stages with wall-time histograms.
///
/// Stages nest, so their histograms do not sum to a run's wall time:
/// [`Stage::Prepare`] contains the [`Stage::PivotBuild`] of a batch
/// preparation, and [`Stage::Walk`] and [`Stage::Drain`] each contain the
/// [`Stage::Merge`] that assembles their matrices. A shared query
/// (`StreamingDangoron::query_shared`) opens no stage of its own and
/// records only its `Merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A batch preparation, `Dangoron::prepare_shard` (`core::engine`):
    /// sketch store, pair sketches and costs, and, for on-demand pairs
    /// with pivots, the pivot table, whose build it contains.
    Prepare,
    /// Pivot-table construction (`core::pivot`), inside a `Prepare`.
    PivotBuild,
    /// One batch walk, `Dangoron::run_range` (`core::engine`), including
    /// its `Merge`.
    Walk,
    /// Streaming window drain (`core::streaming`), including its `Merge`.
    Drain,
    /// Assembly of the per-window matrices from the walk's chunk lists or
    /// window-tagged edges (`sketch::output`), once per query, drain or
    /// shard merge.
    Merge,
}

impl Stage {
    /// The metric family name for this stage's histogram.
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::Prepare => "dangoron_stage_prepare_us",
            Stage::PivotBuild => "dangoron_stage_pivot_build_us",
            Stage::Walk => "dangoron_stage_walk_us",
            Stage::Drain => "dangoron_stage_drain_us",
            Stage::Merge => "dangoron_stage_merge_us",
        }
    }

    fn help(self) -> &'static str {
        match self {
            Stage::Prepare => "Wall time of prepare (sketch + pivot table) calls, microseconds",
            Stage::PivotBuild => "Wall time of pivot-table builds, microseconds",
            Stage::Walk => "Wall time of correlation walks, microseconds",
            Stage::Drain => "Wall time of streaming window drains, microseconds",
            Stage::Merge => "Wall time of per-window matrix assemblies, microseconds",
        }
    }
}

/// Metric family name for exec's per-chunk wall-time histogram.
pub const EXEC_CHUNK_US: &str = "dangoron_exec_chunk_us";
/// Metric family name for exec's steal-attempt counter.
pub const EXEC_STEAL_ATTEMPTS: &str = "dangoron_exec_steal_attempts_total";

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide stage registry. Mount it into a [`crate::MetricsServer`]
/// alongside per-run registries to expose stage timings.
///
/// Every documented family is registered eagerly on first access, so a
/// scrape sees the full stable-name catalog (`docs/metrics.md`) even for
/// stages the current configuration never runs — e.g. the pivot build is
/// skipped without pruning hints, but its (empty) histogram still shows.
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| {
        let registry = Arc::new(Registry::new());
        for stage in [
            Stage::Prepare,
            Stage::PivotBuild,
            Stage::Walk,
            Stage::Drain,
            Stage::Merge,
        ] {
            registry.histogram(stage.metric_name(), stage.help());
        }
        registry.histogram(
            EXEC_CHUNK_US,
            "Wall time of scheduler chunk executions, microseconds",
        );
        registry.counter(
            EXEC_STEAL_ATTEMPTS,
            "Work-steal attempts observed by the partitioned scheduler",
        );
        registry
    }))
}

/// A drop-guard that records elapsed wall time into the stage histogram.
/// `let _span = obs::stages::span(Stage::Walk);` at the top of the stage.
pub struct StageSpan {
    hist: Histogram,
    start: Instant,
}

/// Opens a timing span for `stage`.
pub fn span(stage: Stage) -> StageSpan {
    let hist = global().histogram(stage.metric_name(), stage.help());
    StageSpan {
        hist,
        start: Instant::now(),
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros();
        self.hist.observe(us.min(u64::MAX as u128) as u64);
    }
}

/// The exec scheduler's per-chunk histogram handle (cache it per run, not
/// per chunk — registration walks the registry list).
pub fn exec_chunk_hist() -> Histogram {
    global().histogram(
        EXEC_CHUNK_US,
        "Wall time of scheduler chunk executions, microseconds",
    )
}

/// The exec scheduler's steal-attempt counter handle.
pub fn exec_steal_counter() -> Counter {
    global().counter(
        EXEC_STEAL_ATTEMPTS,
        "Work-steal attempts observed by the partitioned scheduler",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_global() {
        let before = global()
            .histogram(Stage::Merge.metric_name(), Stage::Merge.help())
            .count();
        {
            let _s = span(Stage::Merge);
        }
        let after = global()
            .histogram(Stage::Merge.metric_name(), Stage::Merge.help())
            .count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn exec_handles_are_shared() {
        let c = exec_steal_counter();
        let base = c.get();
        exec_steal_counter().inc();
        assert_eq!(c.get(), base + 1);
    }
}
