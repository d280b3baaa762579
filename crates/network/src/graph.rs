//! Compressed sparse row graphs built from thresholded matrices.

use sketch::ThresholdedMatrix;

/// An undirected graph in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    n: usize,
    /// `offsets[v] .. offsets[v+1]` indexes `neighbors` of `v`.
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Builds the graph of one window's thresholded matrix.
    pub fn from_matrix(m: &ThresholdedMatrix) -> Self {
        let n = m.n_series();
        let mut degree = vec![0usize; n];
        for (i, j) in m.edge_pairs() {
            degree[i] += 1;
            degree[j] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let total = *offsets.last().unwrap();
        let mut neighbors = vec![0u32; total];
        let mut cursor = offsets[..n].to_vec();
        for (i, j) in m.edge_pairs() {
            neighbors[cursor[i]] = j as u32;
            cursor[i] += 1;
            neighbors[cursor[j]] = i as u32;
            cursor[j] += 1;
        }
        // Sort each adjacency list for binary-search contains().
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self {
            n,
            offsets,
            neighbors,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor list of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the edge `(u, v)` exists (binary search).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v && self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        let mut m = ThresholdedMatrix::new(5, 0.5);
        m.push(0, 1, 0.9);
        m.push(0, 2, 0.8);
        m.push(1, 2, 0.7);
        m.push(3, 4, 0.6);
        m.finalize();
        CsrGraph::from_matrix(&m)
    }

    #[test]
    fn structure_is_correct() {
        let g = sample();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(4), &[3]);
    }

    #[test]
    fn edges_are_symmetric() {
        let g = sample();
        for u in 0..5 {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v as usize, u), "asymmetric edge {u}-{v}");
            }
        }
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn empty_matrix_gives_empty_graph() {
        let m = ThresholdedMatrix::new(3, 0.9);
        let g = CsrGraph::from_matrix(&m);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert!(g.neighbors(1).is_empty());
    }
}
