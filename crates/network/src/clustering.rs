//! Local clustering coefficients — the triangle-closure metrics the
//! neuroscience literature runs on functional-connectivity networks.

use crate::graph::CsrGraph;

/// Local clustering coefficient of node `v`: closed neighbour pairs over
/// all neighbour pairs (0 for degree < 2).
pub fn local_clustering(g: &CsrGraph, v: usize) -> f64 {
    let nbrs = g.neighbors(v);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    for (a_idx, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[a_idx + 1..] {
            if g.has_edge(a as usize, b as usize) {
                closed += 1;
            }
        }
    }
    2.0 * closed as f64 / (d * (d - 1)) as f64
}

/// Average of local clustering coefficients over all nodes
/// (Watts–Strogatz definition; 0 for the empty graph).
pub fn average_clustering(g: &CsrGraph) -> f64 {
    let n = g.n_nodes();
    if n == 0 {
        return 0.0;
    }
    let locals: Vec<f64> = (0..n).map(|v| local_clustering(g, v)).collect();
    kernel::sum(&locals) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch::ThresholdedMatrix;

    fn graph(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
        let mut m = ThresholdedMatrix::new(n, 0.0);
        for &(i, j) in edges {
            m.push(i, j, 0.9);
        }
        m.finalize();
        CsrGraph::from_matrix(&m)
    }

    #[test]
    fn triangle_is_fully_clustered() {
        let g = graph(3, &[(0, 1), (1, 2), (0, 2)]);
        for v in 0..3 {
            assert_eq!(local_clustering(&g, v), 1.0);
        }
        assert_eq!(average_clustering(&g), 1.0);
    }

    #[test]
    fn path_has_zero_clustering() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn known_kite_values() {
        // Triangle 0-1-2 with a pendant 3 attached to 2.
        let g = graph(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(local_clustering(&g, 0), 1.0);
        assert_eq!(local_clustering(&g, 1), 1.0);
        // Node 2 has neighbours {0, 1, 3}: only (0,1) closed of 3 pairs.
        assert!((local_clustering(&g, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 3), 0.0);
        let avg = (1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 4.0;
        assert!((average_clustering(&g) - avg).abs() < 1e-12);
    }

    #[test]
    fn degree_below_two_is_zero() {
        let g = graph(2, &[(0, 1)]);
        assert_eq!(local_clustering(&g, 0), 0.0);
        let empty = CsrGraph::from_matrix(&ThresholdedMatrix::new(0, 0.5));
        assert_eq!(average_clustering(&empty), 0.0);
    }
}
