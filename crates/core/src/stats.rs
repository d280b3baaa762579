//! Pruning statistics — the observability layer behind Figure 2 and the
//! E3/E7 experiments.

use serde::{Deserialize, Serialize};

/// Number of log₂ buckets in the jump-length histogram (bucket `b` counts
/// jumps of length in `[2^b, 2^{b+1})`).
pub const JUMP_BUCKETS: usize = 24;

/// Counters describing how much work a query skipped.
///
/// Batch queries produce one record per run; streaming sessions merge
/// every drain's per-worker counters into a cumulative record
/// (`StreamingDangoron::stats`) and keep the latest drain separately
/// (`last_drain_stats`). In the cumulative view `n_pairs` counts
/// (pair, drain) encounters — each drain walks every pair over its new
/// windows — so `total_cells` still sums to pairs × windows overall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruningStats {
    /// Pairs processed.
    pub n_pairs: u64,
    /// Total `(pair, window)` cells of the problem (`pairs × windows`).
    pub total_cells: u64,
    /// Cells where the exact correlation was computed.
    pub evaluated: u64,
    /// Cells skipped by the Eq. 2 jump.
    pub skipped_by_jump: u64,
    /// Cells where a per-window triangle bound replaced the exact
    /// evaluation: 0 on every path, since no walk reads a pivot table;
    /// kept because `benchmark/` reads it.
    pub pruned_by_triangle: u64,
    /// Pairs eliminated wholesale by the pair-level triangle prefilter
    /// (all walked windows bounded below `β`). The prefilter runs only when
    /// the pair sketch would be built on demand (`PairStorage::OnDemand`),
    /// so this stays zero for precomputed batch runs, streaming drains and
    /// shared queries, whose walks evaluate those cells instead.
    pub pairs_skipped_entirely: u64,
    /// Number of jumps taken.
    pub jumps: u64,
    /// log₂ histogram of jump lengths.
    pub jump_length_hist: Vec<u64>,
    /// Edges emitted across all windows.
    pub edges: u64,
}

impl Default for PruningStats {
    fn default() -> Self {
        Self {
            n_pairs: 0,
            total_cells: 0,
            evaluated: 0,
            skipped_by_jump: 0,
            pruned_by_triangle: 0,
            pairs_skipped_entirely: 0,
            jumps: 0,
            jump_length_hist: vec![0; JUMP_BUCKETS],
            edges: 0,
        }
    }
}

impl PruningStats {
    /// Record one jump of `len` skipped windows.
    pub fn record_jump(&mut self, len: usize) {
        debug_assert!(len >= 1);
        self.jumps += 1;
        self.skipped_by_jump += len as u64;
        let bucket = (usize::BITS - 1 - len.leading_zeros()) as usize;
        self.jump_length_hist[bucket.min(JUMP_BUCKETS - 1)] += 1;
    }

    /// Fold another worker's counters into this one.
    pub fn merge(&mut self, other: &PruningStats) {
        self.n_pairs += other.n_pairs;
        self.total_cells += other.total_cells;
        self.evaluated += other.evaluated;
        self.skipped_by_jump += other.skipped_by_jump;
        self.pruned_by_triangle += other.pruned_by_triangle;
        self.pairs_skipped_entirely += other.pairs_skipped_entirely;
        self.jumps += other.jumps;
        self.edges += other.edges;
        for (a, b) in self
            .jump_length_hist
            .iter_mut()
            .zip(&other.jump_length_hist)
        {
            *a += b;
        }
    }

    /// Fraction of cells *not* exactly evaluated — jumped or
    /// wholesale-skipped — in `[0, 1]`. The headline number of the
    /// Figure 2 experiment.
    pub fn skip_fraction(&self) -> f64 {
        if self.total_cells == 0 {
            return 0.0;
        }
        1.0 - self.evaluated as f64 / self.total_cells as f64
    }

    /// Mean jump length (0 when no jumps happened).
    pub fn mean_jump_length(&self) -> f64 {
        if self.jumps == 0 {
            0.0
        } else {
            self.skipped_by_jump as f64 / self.jumps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_jump_buckets() {
        let mut s = PruningStats::default();
        s.record_jump(1);
        s.record_jump(2);
        s.record_jump(3);
        s.record_jump(8);
        assert_eq!(s.jumps, 4);
        assert_eq!(s.skipped_by_jump, 14);
        assert_eq!(s.jump_length_hist[0], 1); // len 1
        assert_eq!(s.jump_length_hist[1], 2); // len 2–3
        assert_eq!(s.jump_length_hist[3], 1); // len 8–15
        assert_eq!(s.mean_jump_length(), 3.5);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = PruningStats {
            n_pairs: 3,
            total_cells: 30,
            evaluated: 10,
            ..Default::default()
        };
        a.record_jump(4);
        let mut b = PruningStats {
            n_pairs: 2,
            total_cells: 20,
            evaluated: 20,
            edges: 7,
            ..Default::default()
        };
        b.record_jump(4);
        a.merge(&b);
        assert_eq!(a.n_pairs, 5);
        assert_eq!(a.total_cells, 50);
        assert_eq!(a.evaluated, 30);
        assert_eq!(a.edges, 7);
        assert_eq!(a.jumps, 2);
        assert_eq!(a.jump_length_hist[2], 2);
    }

    #[test]
    fn skip_fraction_bounds() {
        let mut s = PruningStats::default();
        assert_eq!(s.skip_fraction(), 0.0);
        s.total_cells = 100;
        s.evaluated = 25;
        assert!((s.skip_fraction() - 0.75).abs() < 1e-12);
        s.evaluated = 100;
        assert_eq!(s.skip_fraction(), 0.0);
        assert_eq!(s.mean_jump_length(), 0.0);
    }
}
