//! The thresholded correlation matrix `C_k` — the problem definition's
//! output, stored sparsely.
//!
//! `C_k` keeps only entries `c_ij ≥ β` (others are zero), so it is a
//! sparse symmetric matrix; we store the strict upper triangle as sorted
//! `(i, j, c)` triples. Each `C_k` *is* the correlation network of window
//! `k`: nodes are series, edges are the retained entries.

use serde::{Deserialize, Serialize};

/// Which correlations count as network edges.
///
/// The problem definition keeps `c ≥ β`; climate analyses frequently need
/// the *anticorrelation* edges too (teleconnection networks), which
/// [`EdgeRule::Absolute`] enables: keep `|c| ≥ β`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EdgeRule {
    /// Keep entries `c ≥ β` (the paper's definition).
    #[default]
    Positive,
    /// Keep entries `|c| ≥ β` (requires `β ≥ 0`).
    Absolute,
}

impl EdgeRule {
    /// Whether a correlation value passes the rule at threshold `beta`.
    #[inline]
    pub fn keeps(self, value: f64, beta: f64) -> bool {
        match self {
            EdgeRule::Positive => value >= beta,
            EdgeRule::Absolute => value.abs() >= beta,
        }
    }
}

/// One retained correlation entry (`i < j`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller series index.
    pub i: u32,
    /// Larger series index.
    pub j: u32,
    /// Pearson correlation value (`≥ β` by construction).
    pub value: f64,
}

/// Sparse thresholded correlation matrix for one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdedMatrix {
    n: usize,
    threshold: f64,
    #[serde(default)]
    rule: EdgeRule,
    entries: Vec<Edge>,
    sorted: bool,
}

impl ThresholdedMatrix {
    /// Empty matrix over `n` series with threshold `beta` (positive rule).
    pub fn new(n: usize, beta: f64) -> Self {
        Self::with_rule(n, beta, EdgeRule::Positive)
    }

    /// Empty matrix with an explicit edge rule.
    pub fn with_rule(n: usize, beta: f64, rule: EdgeRule) -> Self {
        Self {
            n,
            threshold: beta,
            rule,
            entries: Vec::new(),
            sorted: true,
        }
    }

    /// Builds a matrix directly from an already-sorted, already-filtered
    /// edge list — the fast path for engines that build whole per-window
    /// lists instead of pushing edges one by one.
    ///
    /// Every entry must satisfy `i < j < n`, pass `rule` at `beta`, and
    /// the list must be sorted by `(i, j)` (all checked in debug builds).
    pub fn from_sorted_edges(n: usize, beta: f64, rule: EdgeRule, entries: Vec<Edge>) -> Self {
        #[cfg(debug_assertions)]
        {
            for pair in entries.windows(2) {
                debug_assert!(
                    (pair[0].i, pair[0].j) < (pair[1].i, pair[1].j),
                    "from_sorted_edges: entries not strictly sorted"
                );
            }
            for e in &entries {
                debug_assert!((e.i as usize) < (e.j as usize) && (e.j as usize) < n);
                debug_assert!(rule.keeps(e.value, beta));
            }
        }
        Self {
            n,
            threshold: beta,
            rule,
            entries,
            sorted: true,
        }
    }

    /// The edge rule the matrix filters with.
    pub fn rule(&self) -> EdgeRule {
        self.rule
    }

    /// Assembles one finalized matrix per window from a flat, window-tagged
    /// edge buffer: [`ThresholdedMatrix::assemble_segments`] over one
    /// segment.
    pub fn assemble_windows(
        n: usize,
        beta: f64,
        rule: EdgeRule,
        n_windows: usize,
        flat: Vec<(u32, Edge)>,
    ) -> Vec<ThresholdedMatrix> {
        Self::assemble_segments(n, beta, rule, n_windows, &[&flat])
    }

    /// Flattens finalized per-window matrices into the window-tagged form
    /// [`ThresholdedMatrix::assemble_windows`] takes — its inverse. Windows
    /// ascend and each matrix is `(i, j)`-sorted, so the output is sorted
    /// by `(window, i, j)`: the wire order of shard and query results.
    pub fn flatten_windows(matrices: &[ThresholdedMatrix]) -> Vec<(u32, Edge)> {
        let total: usize = matrices.iter().map(|m| m.n_edges()).sum();
        let mut flat = Vec::with_capacity(total);
        for (w, m) in matrices.iter().enumerate() {
            flat.extend(m.edges().iter().map(|&e| (w as u32, e)));
        }
        flat
    }

    /// Assembles one finalized matrix per window from window-tagged edge
    /// segments, in O(E): one pass counts each window's edges, a second
    /// scatters them, segment by segment, into exactly-sized per-window
    /// lists.
    ///
    /// This is the merge of the shard tier, whose buffers arrive
    /// window-tagged off the wire, and of [`Self::assemble_windows`]; the
    /// engines' own walks build per-window lists directly and use
    /// [`Self::from_window_lists`]. When the segments hold ascending pair
    /// ranks — shard buffers taken in rank order — every window arrives
    /// sorted by `(i, j)`, because rank order *is* `(i, j)` order, and the
    /// per-window sort below is a linear run check. Segments in any other
    /// order give the same output: `(window, i, j)` is unique per edge, so
    /// that sort erases the order in which shards produced them.
    ///
    /// # Panics
    /// Panics when an edge is tagged with a window `≥ n_windows`.
    pub fn assemble_segments(
        n: usize,
        beta: f64,
        rule: EdgeRule,
        n_windows: usize,
        segments: &[&[(u32, Edge)]],
    ) -> Vec<ThresholdedMatrix> {
        let _timer = obs::stages::span(obs::stages::Stage::Merge);
        let mut counts = vec![0usize; n_windows];
        for &(w, _) in segments.iter().copied().flatten() {
            match counts.get_mut(w as usize) {
                Some(c) => *c += 1,
                None => panic!("edge tagged with window {w} of {n_windows}"),
            }
        }
        let mut windows: Vec<Vec<Edge>> = counts.into_iter().map(Vec::with_capacity).collect();
        for &(w, e) in segments.iter().copied().flatten() {
            windows[w as usize].push(e);
        }
        windows
            .into_iter()
            .map(|mut edges| {
                edges.sort_unstable_by_key(|e| (e.i, e.j));
                Self::from_sorted_edges(n, beta, rule, edges)
            })
            .collect()
    }

    /// Assembles one finalized matrix per window from per-chunk window
    /// lists: `chunks[c][w]` holds chunk `c`'s edges of window `w`, and
    /// each window's matrix is its lists concatenated in chunk order.
    ///
    /// The collector of the chunked pair walks. A chunk walks ascending
    /// pair ranks, so each of its lists is `(i, j)`-sorted, and chunks in
    /// rank order concatenate to sorted windows — [`Self::from_sorted_edges`]
    /// checks that in debug builds. Each window keeps its first non-empty
    /// list as storage, grown once to the window's total, so a single
    /// chunk (one thread) hands its lists over without a copy.
    ///
    /// # Panics
    /// Panics when a chunk does not hold exactly `n_windows` lists.
    pub fn from_window_lists(
        n: usize,
        beta: f64,
        rule: EdgeRule,
        n_windows: usize,
        mut chunks: Vec<Vec<Vec<Edge>>>,
    ) -> Vec<ThresholdedMatrix> {
        let _timer = obs::stages::span(obs::stages::Stage::Merge);
        for chunk in &chunks {
            assert_eq!(
                chunk.len(),
                n_windows,
                "chunk holds {} window lists for {n_windows} windows",
                chunk.len()
            );
        }
        (0..n_windows)
            .map(|w| {
                let total: usize = chunks.iter().map(|c| c[w].len()).sum();
                let mut lists = chunks
                    .iter_mut()
                    .map(|c| std::mem::take(&mut c[w]))
                    .filter(|l| !l.is_empty());
                let mut edges = lists.next().unwrap_or_default();
                edges.reserve_exact(total - edges.len());
                lists.for_each(|more| edges.extend_from_slice(&more));
                Self::from_sorted_edges(n, beta, rule, edges)
            })
            .collect()
    }

    /// Number of series (matrix order).
    pub fn n_series(&self) -> usize {
        self.n
    }

    /// The threshold `β` the matrix was built with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Record `c_ij = value`. Only values passing the edge rule at `β`
    /// are kept, matching the problem definition (`c < β ⇒ 0` for the
    /// positive rule). Order of `i`/`j` is normalised.
    ///
    /// # Panics
    /// Panics on `i == j` or out-of-range indices.
    pub fn push(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "diagonal entries are implicit");
        assert!(i < self.n && j < self.n, "series index out of range");
        if !self.rule.keeps(value, self.threshold) {
            return;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let edge = Edge {
            i: a as u32,
            j: b as u32,
            value,
        };
        if let Some(last) = self.entries.last() {
            if (last.i, last.j) >= (edge.i, edge.j) {
                self.sorted = false;
            }
        }
        self.entries.push(edge);
    }

    /// Sort entries by `(i, j)` (idempotent); needed before binary-search
    /// lookups. Engines that emit pairs in order never pay for this.
    pub fn finalize(&mut self) {
        if !self.sorted {
            self.entries.sort_by_key(|e| (e.i, e.j));
            self.sorted = true;
        }
    }

    /// Number of retained entries (network edges).
    pub fn n_edges(&self) -> usize {
        self.entries.len()
    }

    /// Retained entries (sorted iff [`ThresholdedMatrix::finalize`] ran or
    /// insertion was ordered).
    pub fn edges(&self) -> &[Edge] {
        &self.entries
    }

    /// `c_ij` (0 when below threshold / absent, 1 on the diagonal).
    ///
    /// # Panics
    /// Panics when the matrix is unsorted (call `finalize` first) or the
    /// indices are out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "series index out of range");
        if i == j {
            return 1.0;
        }
        assert!(self.sorted, "call finalize() before point lookups");
        let (a, b) = if i < j {
            (i as u32, j as u32)
        } else {
            (j as u32, i as u32)
        };
        match self.entries.binary_search_by_key(&(a, b), |e| (e.i, e.j)) {
            Ok(pos) => self.entries[pos].value,
            Err(_) => 0.0,
        }
    }

    /// Whether the pair is connected in this window's network.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i != j && self.get(i, j) != 0.0
    }

    /// Edge density among the `n·(n−1)/2` possible pairs.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.entries.len() as f64 / (self.n * (self.n - 1) / 2) as f64
    }

    /// Iterate over `(i, j)` index pairs of retained edges.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.entries.iter().map(|e| (e.i as usize, e.j as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_applies_threshold_and_normalises_order() {
        let mut m = ThresholdedMatrix::new(4, 0.8);
        m.push(2, 0, 0.9); // reversed order
        m.push(1, 3, 0.79); // below threshold → dropped
        m.push(1, 2, 0.85);
        m.finalize();
        assert_eq!(m.n_edges(), 2);
        assert_eq!(m.get(0, 2), 0.9);
        assert_eq!(m.get(2, 0), 0.9);
        assert_eq!(m.get(1, 3), 0.0);
        assert!(m.contains(1, 2));
        assert!(!m.contains(0, 1));
    }

    #[test]
    fn diagonal_is_one() {
        let m = ThresholdedMatrix::new(3, 0.5);
        assert_eq!(m.get(1, 1), 1.0);
        assert!(!m.contains(1, 1));
    }

    #[test]
    fn ordered_insertion_needs_no_sort() {
        let mut m = ThresholdedMatrix::new(4, 0.0);
        m.push(0, 1, 0.5);
        m.push(0, 2, 0.6);
        m.push(1, 2, 0.7);
        // No finalize() — lookups still work because order was maintained.
        assert_eq!(m.get(1, 2), 0.7);
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn unsorted_lookup_panics() {
        let mut m = ThresholdedMatrix::new(4, 0.0);
        m.push(1, 2, 0.7);
        m.push(0, 1, 0.5);
        m.get(0, 1);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_push_panics() {
        ThresholdedMatrix::new(3, 0.0).push(1, 1, 1.0);
    }

    #[test]
    fn density_and_dense_materialisation() {
        let mut m = ThresholdedMatrix::new(3, 0.5);
        m.push(0, 1, 0.9);
        assert!((m.density() - 1.0 / 3.0).abs() < 1e-12);
        // Point lookups see the matrix as dense and symmetric.
        m.finalize();
        assert_eq!(m.get(0, 1), 0.9);
        assert_eq!(m.get(1, 0), 0.9);
        assert_eq!(m.get(2, 2), 1.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn absolute_rule_keeps_anticorrelations() {
        let mut m = ThresholdedMatrix::with_rule(4, 0.8, EdgeRule::Absolute);
        m.push(0, 1, -0.9); // strong anticorrelation → kept
        m.push(0, 2, 0.85); // strong positive → kept
        m.push(1, 2, -0.5); // weak → dropped
        m.finalize();
        assert_eq!(m.n_edges(), 2);
        assert_eq!(m.get(0, 1), -0.9);
        assert_eq!(m.rule(), EdgeRule::Absolute);
        assert!(EdgeRule::Absolute.keeps(-0.8, 0.8));
        assert!(!EdgeRule::Positive.keeps(-0.8, 0.8));
    }

    #[test]
    fn negative_threshold_keeps_negative_correlations() {
        let mut m = ThresholdedMatrix::new(3, -1.0);
        m.push(0, 1, -0.4);
        m.push(0, 2, 0.2);
        m.finalize();
        assert_eq!(m.n_edges(), 2);
        assert_eq!(m.get(0, 1), -0.4);
    }

    #[test]
    fn from_sorted_edges_is_lookup_ready() {
        let entries = vec![
            Edge {
                i: 0,
                j: 2,
                value: 0.9,
            },
            Edge {
                i: 1,
                j: 3,
                value: -0.85,
            },
        ];
        let m = ThresholdedMatrix::from_sorted_edges(4, 0.8, EdgeRule::Absolute, entries);
        assert_eq!(m.n_edges(), 2);
        assert_eq!(m.get(0, 2), 0.9);
        assert_eq!(m.get(3, 1), -0.85);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.rule(), EdgeRule::Absolute);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly sorted")]
    fn from_sorted_edges_rejects_unsorted_in_debug() {
        let entries = vec![
            Edge {
                i: 1,
                j: 3,
                value: 0.9,
            },
            Edge {
                i: 0,
                j: 2,
                value: 0.9,
            },
        ];
        let _ = ThresholdedMatrix::from_sorted_edges(4, 0.5, EdgeRule::Positive, entries);
    }

    /// Every edge of `ms` as `(window, i, j, value bits)`.
    fn bits(ms: &[ThresholdedMatrix]) -> Vec<(usize, u32, u32, u64)> {
        ms.iter()
            .enumerate()
            .flat_map(|(w, m)| {
                m.edges()
                    .iter()
                    .map(move |e| (w, e.i, e.j, e.value.to_bits()))
            })
            .collect()
    }

    #[test]
    fn assembly_is_independent_of_segment_order() {
        // Pairs walked in rank order, each emitting its windows ascending:
        // the buffer a single worker produces.
        let (n, n_windows) = (7u32, 5);
        let ordered = ranked_edges();
        let mut shuffled = ordered.clone();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for k in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(k, (state % (k as u64 + 1)) as usize);
        }
        assert_ne!(shuffled, ordered);

        let assemble = |flat: Vec<(u32, Edge)>| {
            ThresholdedMatrix::assemble_windows(
                n as usize,
                0.5,
                EdgeRule::Positive,
                n_windows,
                flat,
            )
        };
        let expected = assemble(ordered.clone());
        assert_eq!(expected.len(), n_windows);
        assert_eq!(expected[1].n_edges(), 0);
        assert_eq!(expected[4].n_edges(), 0);
        assert_eq!(bits(&expected).len(), ordered.len());
        for m in &expected {
            assert!(m
                .edges()
                .windows(2)
                .all(|p| (p[0].i, p[0].j) < (p[1].i, p[1].j)));
        }
        assert_eq!(bits(&assemble(shuffled.clone())), bits(&expected));
        // Rank-ordered segments (worker chunks) and shuffled segments.
        for flat in [&ordered, &shuffled] {
            let (a, rest) = flat.split_at(5);
            let (b, c) = rest.split_at(rest.len() / 2);
            let got = ThresholdedMatrix::assemble_segments(
                n as usize,
                0.5,
                EdgeRule::Positive,
                n_windows,
                &[a, &[], b, c],
            );
            assert_eq!(bits(&got), bits(&expected));
        }
    }

    #[test]
    fn assembly_of_no_edges() {
        let none = ThresholdedMatrix::assemble_windows(3, 0.5, EdgeRule::Positive, 0, Vec::new());
        assert!(none.is_empty());
        let empty = ThresholdedMatrix::assemble_segments(3, 0.5, EdgeRule::Positive, 2, &[]);
        assert_eq!(empty.len(), 2);
        assert!(empty.iter().all(|m| m.n_edges() == 0));
    }

    #[test]
    #[should_panic(expected = "window 2 of 2")]
    fn assembly_rejects_out_of_range_windows() {
        let flat = vec![(
            2u32,
            Edge {
                i: 0,
                j: 1,
                value: 0.9,
            },
        )];
        let _ = ThresholdedMatrix::assemble_windows(3, 0.5, EdgeRule::Positive, 2, flat);
    }

    /// The window lists one walk chunk builds from its slice of a
    /// window-tagged buffer.
    fn lists(segment: &[(u32, Edge)], n_windows: usize) -> Vec<Vec<Edge>> {
        let mut lists = vec![Vec::new(); n_windows];
        for &(w, e) in segment {
            lists[w as usize].push(e);
        }
        lists
    }

    /// Pairs of 7 series in rank order, each emitting windows 0, 2 and 3
    /// of 5 (some skipped), so window 1 and the trailing window 4 stay
    /// empty.
    fn ranked_edges() -> Vec<(u32, Edge)> {
        let n = 7u32;
        let mut flat = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                for w in [0u32, 2, 3] {
                    if (i + 2 * j + w) % 3 != 0 {
                        let value = 0.5 + f64::from(i * n + j + w) / 1000.0;
                        flat.push((w, Edge { i, j, value }));
                    }
                }
            }
        }
        flat
    }

    #[test]
    fn window_lists_equal_assembled_segments() {
        let (n, n_windows) = (7, 5);
        let flat = ranked_edges();
        let want =
            ThresholdedMatrix::assemble_segments(n, 0.5, EdgeRule::Positive, n_windows, &[&flat]);
        assert_eq!(want[1].n_edges(), 0);
        assert_eq!(want[4].n_edges(), 0);
        let (a, rest) = flat.split_at(5);
        let (b, c) = rest.split_at(rest.len() / 2);
        let splits: Vec<Vec<&[(u32, Edge)]>> = vec![
            vec![&flat],
            vec![a, &[], b, c],
            vec![&[], &flat, &[]],
            flat.chunks(3).collect(),
            flat.chunks(1).collect(),
        ];
        for segments in splits {
            let chunks = segments.iter().map(|s| lists(s, n_windows)).collect();
            let got =
                ThresholdedMatrix::from_window_lists(n, 0.5, EdgeRule::Positive, n_windows, chunks);
            assert_eq!(bits(&got), bits(&want), "{} chunks", segments.len());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn window_lists_of_no_edges() {
        let none = ThresholdedMatrix::from_window_lists(3, 0.5, EdgeRule::Positive, 0, Vec::new());
        assert!(none.is_empty());
        let windowless = vec![Vec::new(), Vec::new()];
        let none = ThresholdedMatrix::from_window_lists(3, 0.5, EdgeRule::Positive, 0, windowless);
        assert!(none.is_empty());
        let empty = ThresholdedMatrix::from_window_lists(3, 0.5, EdgeRule::Absolute, 2, Vec::new());
        assert_eq!(empty.len(), 2);
        assert!(empty.iter().all(|m| m.n_edges() == 0));
        assert!(empty.iter().all(|m| m.rule() == EdgeRule::Absolute));
    }

    #[test]
    fn a_single_chunk_moves_its_lists() {
        let (n, n_windows, flat) = (7, 5, ranked_edges());
        let chunk = lists(&flat, n_windows);
        let addresses: Vec<*const Edge> = chunk.iter().map(|l| l.as_ptr()).collect();
        let got = ThresholdedMatrix::from_window_lists(
            n,
            0.5,
            EdgeRule::Positive,
            n_windows,
            vec![chunk],
        );
        for (w, (m, &address)) in got.iter().zip(&addresses).enumerate() {
            if m.n_edges() > 0 {
                assert_eq!(m.edges().as_ptr(), address, "window {w} was copied");
            }
        }
        // Across chunks, a window whose edges all sit in one later chunk
        // is moved too.
        let later = lists(&flat, n_windows);
        let address = later[2].as_ptr();
        let chunks = vec![lists(&[], n_windows), later];
        let got =
            ThresholdedMatrix::from_window_lists(n, 0.5, EdgeRule::Positive, n_windows, chunks);
        assert_eq!(got[2].edges().as_ptr(), address);
    }

    #[test]
    #[should_panic(expected = "chunk holds 2 window lists for 3 windows")]
    fn window_lists_reject_a_short_chunk() {
        let chunks = vec![vec![Vec::new(); 3], vec![Vec::new(); 2]];
        let _ = ThresholdedMatrix::from_window_lists(3, 0.5, EdgeRule::Positive, 3, chunks);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly sorted")]
    fn window_lists_out_of_rank_order_are_caught_in_debug() {
        let flat = ranked_edges();
        let (a, b) = flat.split_at(flat.len() / 2);
        let chunks = vec![lists(b, 5), lists(a, 5)];
        let _ = ThresholdedMatrix::from_window_lists(7, 0.5, EdgeRule::Positive, 5, chunks);
    }

    #[test]
    fn edge_pairs_iterator() {
        let mut m = ThresholdedMatrix::new(4, 0.0);
        m.push(0, 3, 0.5);
        m.push(1, 2, 0.6);
        let pairs: Vec<(usize, usize)> = m.edge_pairs().collect();
        assert_eq!(pairs, vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn flatten_windows_inverts_merge() {
        let e = |i: u32, j: u32, value: f64| Edge { i, j, value };
        let flat = vec![(0u32, e(0, 1, 0.9)), (1, e(1, 3, 0.8)), (1, e(2, 3, 0.7))];
        let ms = ThresholdedMatrix::assemble_windows(4, 0.5, EdgeRule::Positive, 3, flat.clone());
        assert_eq!(ms[2].n_edges(), 0);
        assert_eq!(ThresholdedMatrix::flatten_windows(&ms), flat);
    }

    #[test]
    fn serde_roundtrip() {
        let mut m = ThresholdedMatrix::new(4, 0.7);
        m.push(0, 1, 0.75);
        m.finalize();
        let json = serde_json_like(&m);
        assert!(json.contains("0.75"));
    }

    // serde_json is not a dependency; smoke-test Serialize via the debug
    // representation of the serde data model using serde's derive output.
    fn serde_json_like(m: &ThresholdedMatrix) -> String {
        format!("{m:?}")
    }
}
