//! A simple undirected graph with stable, dense vertex identifiers.
//!
//! STUC only ever needs *Gaifman graphs* (co-occurrence graphs of database
//! facts or circuit gates), so the representation is deliberately minimal:
//! vertices are dense `usize` handles, and each vertex keeps its neighbours
//! in a sorted set (`BTreeSet`), beside a count of the edges. Iterating the
//! edges walks each vertex's larger neighbours.

use std::collections::BTreeSet;
use std::fmt;

/// A handle to a vertex of a [`Graph`].
///
/// Identifiers are dense (`0..n`) and never reused within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub usize);

impl VertexId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A finite, simple, undirected graph.
///
/// Self-loops and parallel edges are silently ignored, which is the right
/// behaviour for Gaifman graphs (a fact mentioning the same constant twice
/// does not create a loop).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    /// `adjacency[v]` holds the neighbours of `v`, kept sorted and unique.
    adjacency: Vec<BTreeSet<usize>>,
    /// Number of edges (each unordered pair counted once).
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        Graph {
            adjacency: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Adds a fresh vertex and returns its identifier.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adjacency.push(BTreeSet::new());
        VertexId(self.adjacency.len() - 1)
    }

    /// Ensures vertices `0..n` exist (no-op if the graph is already larger).
    pub fn ensure_vertices(&mut self, n: usize) {
        while self.adjacency.len() < n {
            self.adjacency.push(BTreeSet::new());
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Adds the undirected edge `{u, v}`. Self-loops and duplicates are ignored.
    ///
    /// Returns `true` if a new edge was inserted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a vertex of the graph.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert!(
            u.0 < self.adjacency.len() && v.0 < self.adjacency.len(),
            "edge endpoint out of range"
        );
        if u == v {
            return false;
        }
        let inserted = self.adjacency[u.0].insert(v.0);
        if inserted {
            self.adjacency[v.0].insert(u.0);
            self.edge_count += 1;
        }
        inserted
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u.0 < self.adjacency.len() && self.adjacency[u.0].contains(&v.0)
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v.0].len()
    }

    /// Iterator over the neighbours of `v`, in increasing identifier order.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adjacency[v.0].iter().map(|&u| VertexId(u))
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.adjacency.len()).map(VertexId)
    }

    /// Iterator over all edges, each unordered pair yielded once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, ns)| {
            ns.iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (VertexId(u), VertexId(v)))
        })
    }

    /// Adds edges so that all vertices in `clique` are pairwise adjacent.
    ///
    /// This is how a Gaifman graph is built: every database fact (or circuit
    /// gate together with its inputs) contributes one clique.
    pub fn add_clique(&mut self, clique: &[VertexId]) {
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                self.add_edge(u, v);
            }
        }
    }

    /// Returns the connected components as sorted vertex lists.
    pub fn connected_components(&self) -> Vec<Vec<VertexId>> {
        let n = self.vertex_count();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start];
            seen[start] = true;
            let mut comp = Vec::new();
            while let Some(v) = stack.pop() {
                comp.push(VertexId(v));
                for &u in &self.adjacency[v] {
                    if !seen[u] {
                        seen[u] = true;
                        stack.push(u);
                    }
                }
            }
            comp.sort();
            components.push(comp);
        }
        components
    }

    /// True if the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// Returns an induced subgraph on `keep` together with the mapping from
    /// new vertex identifiers back to the original ones.
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut index = vec![usize::MAX; self.vertex_count()];
        for (new, &old) in keep.iter().enumerate() {
            index[old.0] = new;
        }
        let mut sub = Graph::with_vertices(keep.len());
        for &old in keep {
            for &nb in &self.adjacency[old.0] {
                let nb_new = index[nb];
                if nb_new != usize::MAX {
                    sub.add_edge(VertexId(index[old.0]), VertexId(nb_new));
                }
            }
        }
        (sub, keep.to_vec())
    }

    /// Contracts nothing but returns a deep copy; useful when algorithms need
    /// a scratch graph they can mutate (e.g. elimination).
    pub fn scratch_copy(&self) -> Graph {
        self.clone()
    }

    /// The minimum degree over all vertices, or `None` for the empty graph.
    pub fn min_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(|ns| ns.len()).min()
    }

    /// The maximum degree over all vertices, or `None` for the empty graph.
    pub fn max_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(|ns| ns.len()).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(VertexId(i), VertexId(i + 1));
        }
        g
    }

    #[test]
    fn empty_graph_is_empty() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn add_vertex_returns_dense_ids() {
        let mut g = Graph::new();
        assert_eq!(g.add_vertex(), VertexId(0));
        assert_eq!(g.add_vertex(), VertexId(1));
        assert_eq!(g.add_vertex(), VertexId(2));
        assert_eq!(g.vertex_count(), 3);
    }

    #[test]
    fn add_edge_ignores_self_loops_and_duplicates() {
        let mut g = Graph::with_vertices(2);
        assert!(!g.add_edge(VertexId(0), VertexId(0)));
        assert!(g.add_edge(VertexId(0), VertexId(1)));
        assert!(!g.add_edge(VertexId(1), VertexId(0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(VertexId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = Graph::with_vertices(1);
        g.add_edge(VertexId(0), VertexId(5));
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(VertexId(2), VertexId(3));
        g.add_edge(VertexId(2), VertexId(0));
        g.add_edge(VertexId(2), VertexId(1));
        let ns: Vec<_> = g.neighbors(VertexId(2)).map(|v| v.0).collect();
        assert_eq!(ns, vec![0, 1, 3]);
    }

    #[test]
    fn edges_yielded_once() {
        let g = path(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn clique_adds_all_pairs() {
        let mut g = Graph::with_vertices(4);
        g.add_clique(&[VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.min_degree(), Some(3));
    }

    #[test]
    fn connected_components_of_two_paths() {
        let mut g = Graph::with_vertices(6);
        g.add_edge(VertexId(0), VertexId(1));
        g.add_edge(VertexId(1), VertexId(2));
        g.add_edge(VertexId(3), VertexId(4));
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert!(!g.is_connected());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = path(5);
        let (sub, map) = g.induced_subgraph(&[VertexId(1), VertexId(2), VertexId(4)]);
        assert_eq!(sub.vertex_count(), 3);
        // Only the edge 1-2 survives; 4 is isolated in the subgraph.
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(map, vec![VertexId(1), VertexId(2), VertexId(4)]);
    }

    #[test]
    fn degree_bounds_on_path() {
        let g = path(5);
        assert_eq!(g.min_degree(), Some(1));
        assert_eq!(g.max_degree(), Some(2));
    }
}
