//! Connected components via union-find with path halving + union by size.

use crate::graph::CsrGraph;

/// A union-find (disjoint-set) structure over `n` elements.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `v`'s set (path halving).
    pub fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] as usize != v {
            let gp = self.parent[self.parent[v] as usize];
            self.parent[v] = gp;
            v = gp as usize;
        }
        v
    }

    /// Merge the sets of `a` and `b`; returns true when they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }
}

/// Component labelling of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `label[v]` is the 0-based component id of node `v` (ids are dense,
    /// ordered by smallest member).
    pub label: Vec<usize>,
    /// Size of each component, indexed by id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn giant_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Computes connected components of a graph.
pub fn connected_components(g: &CsrGraph) -> Components {
    let n = g.n_nodes();
    let mut uf = UnionFind::new(n);
    for u in 0..n {
        for &v in g.neighbors(u) {
            uf.union(u, v as usize);
        }
    }
    let mut label = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    for v in 0..n {
        let root = uf.find(v);
        if label[root] == usize::MAX {
            label[root] = sizes.len();
            sizes.push(0);
        }
        label[v] = label[root];
        sizes[label[root]] += 1;
    }
    Components { label, sizes }
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
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_ne!(uf.find(3), uf.find(4)); // singletons
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already together
        assert!(uf.union(3, 4));
        assert!(!uf.union(4, 3));
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(3));
        // Two sets remain: one more union merges them, and then none can.
        assert!(uf.union(2, 4));
        assert!((0..5).all(|v| !uf.union(0, v)));
    }

    #[test]
    fn components_of_two_cliques() {
        let g = graph(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 2);
        assert_eq!(c.sizes, vec![3, 3]);
        assert_eq!(c.label[0], c.label[2]);
        assert_eq!(c.label[3], c.label[5]);
        assert_ne!(c.label[0], c.label[3]);
        assert_eq!(c.giant_size(), 3);
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let g = graph(4, &[(0, 1)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.giant_size(), 2);
        assert_eq!(c.sizes.iter().sum::<usize>(), 4);
    }

    #[test]
    fn fully_connected_is_one_component() {
        let edges: Vec<(usize, usize)> = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .collect();
        let g = graph(5, &edges);
        let c = connected_components(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.giant_size(), 5);
    }

    #[test]
    fn labels_are_dense_and_stable() {
        let g = graph(5, &[(3, 4)]);
        let c = connected_components(&g);
        // ids ordered by smallest member: 0, 1, 2 singletons then {3,4}.
        assert_eq!(c.label, vec![0, 1, 2, 3, 3]);
    }
}
