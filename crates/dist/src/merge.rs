//! Deterministic assembly of per-shard edge buffers into the final
//! per-window [`ThresholdedMatrix`] sequence.
//!
//! The merge exploits a structural fact: [`sketch::triangular`] rank order
//! **is** lexicographic `(i, j)` order, so for disjoint contiguous rank
//! shards the edges of one window, taken shard-by-shard in rank order, are
//! already globally sorted by `(i, j)`, just as the engine's own chunks
//! are. The merge is therefore one O(E) per-window scatter,
//! [`ThresholdedMatrix::assemble_segments`], over the window-tagged shard
//! buffers in rank order — no tolerance, and bit-identical output to the
//! single-process engine for any shard count (including re-planned,
//! finer-than-planned partitions).

use sketch::output::{Edge, EdgeRule};
use sketch::ThresholdedMatrix;
use std::ops::Range;

/// A shard's contribution: its rank interval and its `(window, edge)`
/// buffer sorted by `(window, i, j)`.
pub type ShardEdges = (Range<usize>, Vec<(u32, Edge)>);

/// Merges disjoint shard buffers into one finalized matrix per window.
///
/// Shards may arrive in any order; they are keyed by their rank interval.
/// Every buffer must hold only edges of pairs inside its interval, tagged
/// with windows below `n_windows` (upheld by the worker).
pub fn merge_shard_edges(
    n_series: usize,
    beta: f64,
    rule: EdgeRule,
    n_windows: usize,
    mut shards: Vec<ShardEdges>,
) -> Vec<ThresholdedMatrix> {
    shards.sort_by_key(|(ranks, _)| ranks.start);
    #[cfg(debug_assertions)]
    for w in shards.windows(2) {
        debug_assert!(
            w[0].0.end <= w[1].0.start,
            "overlapping shard intervals {:?} and {:?}",
            w[0].0,
            w[1].0
        );
    }
    let segments: Vec<&[(u32, Edge)]> = shards.iter().map(|(_, buf)| buf.as_slice()).collect();
    ThresholdedMatrix::assemble_segments(n_series, beta, rule, n_windows, &segments)
}

/// Bitwise equality of two window sequences — the coordinator's `--verify`
/// check against the single-process engine.
pub fn windows_bit_identical(a: &[ThresholdedMatrix], b: &[ThresholdedMatrix]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ma, mb)| {
            ma.n_edges() == mb.n_edges()
                && ma.edges().iter().zip(mb.edges()).all(|(ea, eb)| {
                    (ea.i, ea.j) == (eb.i, eb.j) && ea.value.to_bits() == eb.value.to_bits()
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32, j: u32, v: f64) -> Edge {
        Edge { i, j, value: v }
    }

    #[test]
    fn merge_concatenates_in_rank_order() {
        // n = 4: ranks (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5.
        // Shard A owns ranks 0..3, shard B owns 3..6; pass them reversed.
        let a = (
            0..3usize,
            vec![(0u32, e(0, 1, 0.9)), (0, e(0, 3, 0.8)), (2, e(0, 2, 0.7))],
        );
        let b = (3..6usize, vec![(0u32, e(1, 2, 0.95)), (2, e(2, 3, 0.85))]);
        let ms = merge_shard_edges(4, 0.5, EdgeRule::Positive, 3, vec![b, a]);
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].n_edges(), 3);
        // Sorted by (i, j) across the shard boundary.
        let pairs: Vec<(usize, usize)> = ms[0].edge_pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 3), (1, 2)]);
        assert_eq!(ms[1].n_edges(), 0);
        assert_eq!(ms[2].n_edges(), 2);
        assert_eq!(ms[2].get(0, 2), 0.7);
        assert_eq!(ms[2].get(2, 3), 0.85);
        assert!(windows_bit_identical(&ms, &ms));
        let empty = merge_shard_edges(4, 0.5, EdgeRule::Positive, 3, vec![(0..6, vec![])]);
        assert!(!windows_bit_identical(&ms, &empty));
    }
}
