//! Degree ranking: hubs first.

use crate::graph::CsrGraph;

/// Nodes sorted by decreasing degree (hubs first); ties broken by index.
pub fn hubs(g: &CsrGraph) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g.n_nodes()).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch::ThresholdedMatrix;

    fn star(n: usize) -> CsrGraph {
        let mut m = ThresholdedMatrix::new(n, 0.0);
        for j in 1..n {
            m.push(0, j, 0.9);
        }
        m.finalize();
        CsrGraph::from_matrix(&m)
    }

    #[test]
    fn star_degrees() {
        assert_eq!(hubs(&star(5))[0], 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_matrix(&ThresholdedMatrix::new(3, 0.5));
        assert_eq!(hubs(&g), vec![0, 1, 2]);
    }

    #[test]
    fn hubs_tie_break_by_index() {
        let mut m = ThresholdedMatrix::new(4, 0.0);
        m.push(0, 1, 0.9);
        m.push(2, 3, 0.9);
        m.finalize();
        let g = CsrGraph::from_matrix(&m);
        assert_eq!(hubs(&g), vec![0, 1, 2, 3]);
    }
}
