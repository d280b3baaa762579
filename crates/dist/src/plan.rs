//! The shard planner: partitioning the triangular pair-rank space
//! `[0, count(n))` into contiguous shards.
//!
//! The rank space ([`sketch::triangular`]) is the ParCorr-style sharding
//! key: dense, total-ordered, and shared by every engine in the workspace,
//! so a contiguous rank interval is simultaneously a well-defined unit of
//! work, of result (its sorted edge buffer), and of re-planning.
//! [`ShardPlan::balanced`] cuts it by exact area: every shard carries the
//! same number of pairs (±1), cut anywhere in the rank space.

use sketch::triangular;
use std::ops::Range;

/// One planned shard: a contiguous pair-rank interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Stable shard id (plan order).
    pub id: usize,
    /// The pair ranks `[ranks.start, ranks.end)` this shard owns.
    pub ranks: Range<usize>,
}

/// A partition of the pair space into contiguous shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    n_series: usize,
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Exact area-balanced plan: `min(n_shards, count(n))` non-empty
    /// contiguous shards whose pair counts differ by at most one.
    pub fn balanced(n_series: usize, n_shards: usize) -> Self {
        let n_pairs = triangular::count(n_series);
        let shards = split_range(0..n_pairs, n_shards)
            .into_iter()
            .enumerate()
            .map(|(id, ranks)| Shard { id, ranks })
            .collect();
        Self { n_series, shards }
    }

    /// The planned shards, in rank order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Series count the plan was made for.
    pub fn n_series(&self) -> usize {
        self.n_series
    }

    /// Total pairs across all shards.
    pub fn n_pairs(&self) -> usize {
        triangular::count(self.n_series)
    }

    /// Largest / smallest shard pair counts — the balance figure reports
    /// quote.
    pub fn balance(&self) -> (usize, usize) {
        let max = self.shards.iter().map(|s| s.ranks.len()).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.ranks.len()).min().unwrap_or(0);
        (max, min)
    }
}

/// Splits a contiguous rank interval into `k` balanced contiguous
/// sub-intervals (sizes differ by at most one; empty splits are dropped).
/// This is both the [`ShardPlan::balanced`] kernel and the re-planning
/// primitive: a failed shard's interval is re-split across the surviving
/// workers.
pub fn split_range(ranks: Range<usize>, k: usize) -> Vec<Range<usize>> {
    let len = ranks.end.saturating_sub(ranks.start);
    if len == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, len);
    (0..k)
        .map(|s| (ranks.start + s * len / k)..(ranks.start + (s + 1) * len / k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(plan: &ShardPlan) {
        let mut next = 0;
        for (k, s) in plan.shards().iter().enumerate() {
            assert_eq!(s.id, k);
            assert_eq!(s.ranks.start, next, "gap before shard {k}");
            assert!(s.ranks.end > s.ranks.start, "empty shard {k}");
            next = s.ranks.end;
        }
        assert_eq!(next, plan.n_pairs(), "plan does not cover the triangle");
    }

    #[test]
    fn balanced_covers_and_balances() {
        for n in [2usize, 3, 9, 32, 101] {
            for k in [1usize, 2, 3, 4, 8, 17] {
                let plan = ShardPlan::balanced(n, k);
                assert_partition(&plan);
                let (max, min) = plan.balance();
                assert!(max - min <= 1, "n={n} k={k}: {max} vs {min}");
                assert_eq!(plan.shards().len(), k.min(triangular::count(n)));
            }
        }
    }

    #[test]
    fn degenerate_plans() {
        assert!(ShardPlan::balanced(0, 4).shards().is_empty());
        assert!(ShardPlan::balanced(1, 4).shards().is_empty());
        assert_eq!(ShardPlan::balanced(2, 4).shards().len(), 1);
    }

    #[test]
    fn split_range_is_balanced_and_contiguous() {
        let parts = split_range(10..110, 7);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts[0].start, 10);
        assert_eq!(parts.last().unwrap().end, 110);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let sizes: Vec<usize> = parts.iter().map(|r| r.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Degenerate inputs.
        assert!(split_range(5..5, 3).is_empty());
        assert_eq!(split_range(5..7, 8).len(), 2);
    }
}
