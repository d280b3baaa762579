//! Coordinator telemetry: the single source of truth for run accounting.
//!
//! Every counter the coordinator keeps — assignments, replans, steals,
//! heartbeats, stale frames, payload bytes, and the pruning counters of
//! the shard results it accepts — lives in an [`obs::Registry`]
//! and is updated wait-free as the event happens. The end-of-run
//! [`CoordStats`] report is a *snapshot* of
//! these metrics ([`CoordMetrics::snapshot`]), so the stderr summary, the
//! [`CoordStats`] a caller gets back and a live `/metrics` scrape can
//! never disagree: they all read the same atomics.
//!
//! Metric names are a stable contract documented in `docs/metrics.md`.
//! The registry is expected to be fresh per run (the
//! [`CoordinatorConfig::registry`](crate::coord::CoordinatorConfig)
//! hook exists so `dangoron-coord --metrics-addr` can mount the same
//! registry into its HTTP server); reusing one across runs accumulates
//! counters across them.

use crate::coord::CoordStats;
use dangoron::PruningStats;
use obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// The coordinator's registered metric handles.
pub struct CoordMetrics {
    /// `dangoron_coord_shards_planned` — shards in the original plan.
    pub shards_planned: Gauge,
    /// `dangoron_coord_workers` — links established at registration.
    pub workers: Gauge,
    /// `dangoron_coord_workers_live` — links currently alive.
    pub workers_live: Gauge,
    /// `dangoron_coord_replans_total`.
    pub replans: Counter,
    /// `dangoron_coord_worker_failures_total`.
    pub worker_failures: Counter,
    /// `dangoron_coord_late_joins_total`.
    pub late_joins: Counter,
    /// `dangoron_coord_steal_requests_total`.
    pub steal_requests: Counter,
    /// `dangoron_coord_steals_total`.
    pub steals: Counter,
    /// `dangoron_coord_pings_sent_total`.
    pub pings_sent: Counter,
    /// `dangoron_coord_pongs_total`.
    pub pongs: Counter,
    /// `dangoron_coord_progress_frames_total`.
    pub progress_frames: Counter,
    /// `dangoron_coord_assignments_total`.
    pub assignments: Counter,
    /// `dangoron_coord_assign_bytes_total`.
    pub assign_bytes: Counter,
    /// `dangoron_coord_load_bytes_total`.
    pub load_bytes: Counter,
    /// `dangoron_coord_stale_frames_total`.
    pub stale_frames: Counter,
    /// `dangoron_coord_cells_total`.
    pub cells: Counter,
    /// `dangoron_coord_evaluated_total`.
    pub evaluated: Counter,
    /// `dangoron_coord_skipped_by_jump_total`.
    pub skipped_by_jump: Counter,
    /// `dangoron_coord_pruned_by_triangle_total`.
    pub pruned_by_triangle: Counter,
    /// `dangoron_coord_pairs_skipped_total`.
    pub pairs_skipped: Counter,
}

impl CoordMetrics {
    /// Registers every coordinator metric in `registry` (idempotent —
    /// re-registration returns the existing handles).
    pub fn new(registry: &Arc<Registry>) -> Self {
        Self {
            shards_planned: registry.gauge(
                "dangoron_coord_shards_planned",
                "Shards in the original plan",
            ),
            workers: registry.gauge(
                "dangoron_coord_workers",
                "Worker links established at registration",
            ),
            workers_live: registry.gauge(
                "dangoron_coord_workers_live",
                "Worker links currently alive",
            ),
            replans: registry.counter(
                "dangoron_coord_replans_total",
                "Re-plan events (worker death, timeout, or worker-reported error)",
            ),
            worker_failures: registry.counter(
                "dangoron_coord_worker_failures_total",
                "Workers lost over the run",
            ),
            late_joins: registry.counter(
                "dangoron_coord_late_joins_total",
                "Workers admitted after the run started (elastic TCP mode)",
            ),
            steal_requests: registry.counter(
                "dangoron_coord_steal_requests_total",
                "Steal requests sent to stragglers",
            ),
            steals: registry.counter(
                "dangoron_coord_steals_total",
                "Steal grants that moved work back to the queue",
            ),
            pings_sent: registry.counter(
                "dangoron_coord_pings_sent_total",
                "Ping frames sent to heartbeat-capable workers",
            ),
            pongs: registry.counter("dangoron_coord_pongs_total", "Pong frames received"),
            progress_frames: registry.counter(
                "dangoron_coord_progress_frames_total",
                "Progress frames received",
            ),
            assignments: registry.counter(
                "dangoron_coord_assignments_total",
                "Assignment frames sent (replans included)",
            ),
            assign_bytes: registry.counter(
                "dangoron_coord_assign_bytes_total",
                "Total payload bytes of Assign frames",
            ),
            load_bytes: registry.counter(
                "dangoron_coord_load_bytes_total",
                "Total payload bytes of per-worker Load frames",
            ),
            stale_frames: registry.counter(
                "dangoron_coord_stale_frames_total",
                "Stale frames discarded (replies that arrived after a re-plan)",
            ),
            cells: registry.counter(
                "dangoron_coord_cells_total",
                "(pair, window) cells of the accepted shard results",
            ),
            evaluated: registry.counter(
                "dangoron_coord_evaluated_total",
                "Cells whose exact correlation the accepted shards computed",
            ),
            skipped_by_jump: registry.counter(
                "dangoron_coord_skipped_by_jump_total",
                "Cells the accepted shards skipped with the Eq. 2 jump",
            ),
            pruned_by_triangle: registry.counter(
                "dangoron_coord_pruned_by_triangle_total",
                "Cells the accepted shards settled with the triangle bound",
            ),
            pairs_skipped: registry.counter(
                "dangoron_coord_pairs_skipped_total",
                "Pairs the accepted shards skipped wholesale with the pair prefilter",
            ),
        }
    }

    /// Adds one accepted shard result's pruning counters — the same
    /// [`PruningStats`] the coordinator merges into its result, so the
    /// end-of-run totals equal the merged stats.
    pub fn record_pruning(&self, stats: &PruningStats) {
        self.cells.add(stats.total_cells);
        self.evaluated.add(stats.evaluated);
        self.skipped_by_jump.add(stats.skipped_by_jump);
        self.pruned_by_triangle.add(stats.pruned_by_triangle);
        self.pairs_skipped.add(stats.pairs_skipped_entirely);
    }

    /// The end-of-run [`CoordStats`] report, read back from the registry
    /// so it cannot drift from what a concurrent scrape saw.
    pub fn snapshot(&self, transport: String, wall_s: f64) -> CoordStats {
        CoordStats {
            n_shards_planned: self.shards_planned.get().max(0) as usize,
            n_workers: self.workers.get().max(0) as usize,
            replans: self.replans.get() as usize,
            worker_failures: self.worker_failures.get() as usize,
            late_joins: self.late_joins.get() as usize,
            steal_requests: self.steal_requests.get() as usize,
            steals: self.steals.get() as usize,
            pings_sent: self.pings_sent.get() as usize,
            pongs: self.pongs.get() as usize,
            progress_frames: self.progress_frames.get() as usize,
            transport,
            assignments: self.assignments.get() as usize,
            assign_bytes: self.assign_bytes.get(),
            load_bytes: self.load_bytes.get(),
            stale_frames: self.stale_frames.get() as usize,
            wall_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_back_registered_values() {
        let registry = Arc::new(Registry::new());
        let m = CoordMetrics::new(&registry);
        m.shards_planned.set(4);
        m.workers.set(2);
        m.assignments.add(5);
        m.assign_bytes.add(1234);
        m.stale_frames.inc();
        let stats = m.snapshot("tcp".into(), 1.5);
        assert_eq!(stats.n_shards_planned, 4);
        assert_eq!(stats.n_workers, 2);
        assert_eq!(stats.assignments, 5);
        assert_eq!(stats.assign_bytes, 1234);
        assert_eq!(stats.stale_frames, 1);
        assert_eq!(stats.transport, "tcp");
        assert_eq!(stats.wall_s, 1.5);
        // A second handle set sees the same atomics (idempotent
        // registration — the single-source-of-truth property).
        let m2 = CoordMetrics::new(&registry);
        assert_eq!(m2.assignments.get(), 5);
    }

    #[test]
    fn record_pruning_adds_each_counter() {
        let m = CoordMetrics::new(&Arc::new(Registry::new()));
        let stats = PruningStats {
            total_cells: 100,
            evaluated: 40,
            skipped_by_jump: 30,
            pruned_by_triangle: 20,
            pairs_skipped_entirely: 2,
            ..Default::default()
        };
        m.record_pruning(&stats);
        m.record_pruning(&stats);
        let got = [
            m.cells.get(),
            m.evaluated.get(),
            m.skipped_by_jump.get(),
            m.pruned_by_triangle.get(),
            m.pairs_skipped.get(),
        ];
        assert_eq!(got, [200, 80, 60, 40, 4]);
    }
}
