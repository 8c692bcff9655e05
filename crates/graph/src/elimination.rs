//! Elimination orderings and the greedy treewidth heuristics.
//!
//! A classic way to obtain a tree decomposition is to pick an *elimination
//! ordering* of the vertices: repeatedly remove a vertex after turning its
//! neighbourhood into a clique. Each eliminated vertex, together with its
//! neighbourhood at elimination time, becomes a bag; bags are wired into a
//! tree by connecting each bag to the bag of the first later-eliminated
//! vertex it contains. The width obtained this way equals the largest
//! neighbourhood encountered, and the minimum over all orderings is exactly
//! the treewidth.
//!
//! Two standard greedy heuristics choose the ordering:
//!
//! * **min-degree** — eliminate a vertex of minimum current degree;
//! * **min-fill** — eliminate a vertex whose elimination adds the fewest
//!   fill-in edges.
//!
//! Both are cheap and give optimal or near-optimal widths on the tree-like
//! inputs the paper targets; an ablation benchmark (`a1_decomposition_heuristics`)
//! compares them.

use crate::decomposition::{entry_index, TreeDecomposition, NO_PARENT};
use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// Which greedy rule selects the next vertex to eliminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EliminationHeuristic {
    /// Eliminate a vertex of minimum current degree (the default: cheap and
    /// near-optimal on the path/tree-shaped workloads of the paper).
    #[default]
    MinDegree,
    /// Eliminate a vertex whose elimination creates the fewest fill-in edges.
    MinFill,
    /// Eliminate vertices in identifier order (a deliberately poor baseline
    /// used by the ablation benchmark).
    Lexicographic,
}

impl EliminationHeuristic {
    /// All heuristics, for sweeps.
    pub const ALL: [EliminationHeuristic; 3] = [
        EliminationHeuristic::MinDegree,
        EliminationHeuristic::MinFill,
        EliminationHeuristic::Lexicographic,
    ];

    /// Human-readable name (used in benchmark output).
    pub fn name(self) -> &'static str {
        match self {
            EliminationHeuristic::MinDegree => "min-degree",
            EliminationHeuristic::MinFill => "min-fill",
            EliminationHeuristic::Lexicographic => "lexicographic",
        }
    }
}

/// An elimination ordering: a permutation of the graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationOrder(pub Vec<VertexId>);

impl EliminationOrder {
    /// Number of vertices in the ordering.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Computes an elimination ordering of `g` with the given heuristic.
pub fn elimination_order(g: &Graph, heuristic: EliminationHeuristic) -> EliminationOrder {
    match heuristic {
        EliminationHeuristic::MinDegree => min_degree_order(g),
        EliminationHeuristic::MinFill => min_fill_order(g),
        EliminationHeuristic::Lexicographic => EliminationOrder(g.vertices().collect()),
    }
}

/// Min-degree ordering with a lazy binary heap: near-linear on sparse graphs,
/// which is what the Theorem 1 scaling benchmark needs (10⁵-fact instances).
fn min_degree_order(g: &Graph) -> EliminationOrder {
    let order = run_elimination(adjacency_of(g), None, |_, _| {});
    EliminationOrder(order.into_iter().map(|v| VertexId(v as usize)).collect())
}

/// The sorted neighbour lists of `g` in the `u32` form the elimination
/// core reads.
fn adjacency_of(g: &Graph) -> Vec<Vec<u32>> {
    g.vertices()
        .map(|v| g.neighbors(v).map(|u| vertex_u32(u.0)).collect())
        .collect()
}

/// A vertex, or an elimination position, in the `u32` form adjacency
/// lists and bag links store.
fn vertex_u32(v: usize) -> u32 {
    u32::try_from(v).expect("a graph has fewer than 2^32 vertices")
}

/// The elimination core, over sorted, deduplicated neighbour lists that
/// it rewrites in place: eliminates every vertex, in `order` when one is
/// given and by the min-degree rule otherwise, calls `visit(v,
/// neighbourhood)` as each vertex `v` is eliminated, with its (sorted)
/// neighbourhood at that moment, and returns the order.
///
/// The min-degree rule keeps a lazy heap of `(degree, vertex)` entries
/// that may be stale, with every live vertex holding one entry no larger
/// than its current `(degree, vertex)`: a popped entry whose degree no
/// longer matches is pushed back with the current degree, so the vertex
/// eliminated is always the live one of least degree, ties going to the
/// smallest vertex. Eliminated vertices stay in their neighbours' lists
/// until a fill edge rewrites the list, and `degree` counts the live
/// ones: eliminating a leaf of a hub costs O(log n), not a pass over the
/// hub's list.
fn run_elimination(
    mut adjacency: Vec<Vec<u32>>,
    order: Option<&EliminationOrder>,
    mut visit: impl FnMut(u32, &[u32]),
) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = adjacency.len();
    if let Some(order) = order {
        assert_eq!(
            order.len(),
            n,
            "ordering must cover every vertex exactly once"
        );
    }
    let mut degree: Vec<usize> = adjacency.iter().map(Vec::len).collect();
    let mut alive = vec![true; n];
    let mut eliminated = Vec::with_capacity(n);
    // Heap keys pack `(degree, vertex)` into one word, compared as a pair.
    let key = |degree: usize, v: usize| Reverse(((degree as u64) << 32) | v as u64);
    let mut heap: BinaryHeap<Reverse<u64>> = match order {
        Some(_) => BinaryHeap::new(),
        None => (0..n).map(|v| key(degree[v], v)).collect(),
    };
    let (mut neighbours, mut missing) = (Vec::new(), Vec::new());

    while eliminated.len() < n {
        let v = match order {
            Some(order) => order.0[eliminated.len()].0,
            None => {
                let Reverse(entry) = heap.pop().expect("heap exhausted too early");
                let (recorded_degree, v) = ((entry >> 32) as usize, entry as u32 as usize);
                if !alive[v] || degree[v] != recorded_degree {
                    if alive[v] {
                        heap.push(key(degree[v], v));
                    }
                    continue;
                }
                v
            }
        };
        alive[v] = false;
        neighbours.clear();
        neighbours.extend(adjacency[v].iter().copied().filter(|&u| alive[u as usize]));
        adjacency[v] = Vec::new();
        visit(vertex_u32(v), &neighbours);
        // Turn the neighbourhood into a clique: each neighbour loses `v`
        // and gains the others it is not adjacent to yet.
        for &a in &neighbours {
            let list = &mut adjacency[a as usize];
            missing.clear();
            missing.extend(
                neighbours
                    .iter()
                    .copied()
                    .filter(|&u| u != a && list.binary_search(&u).is_err()),
            );
            degree[a as usize] = degree[a as usize] - 1 + missing.len();
            if !missing.is_empty() {
                list.retain(|&u| alive[u as usize]);
                list.extend_from_slice(&missing);
                list.sort_unstable();
            } else if order.is_none() {
                // Only a lower degree needs a fresh entry: an equal or
                // higher one is found through the old entry.
                heap.push(key(degree[a as usize], a as usize));
            }
        }
        eliminated.push(vertex_u32(v));
    }
    eliminated
}

/// The decomposition of the graph with sorted, deduplicated neighbour
/// lists `adjacency`, in one elimination — in `order` when one is given,
/// by the min-degree rule otherwise — written straight into the arena.
/// Each vertex's bag is itself plus its neighbourhood when eliminated,
/// bags are numbered in elimination order, and each bag links to the bag
/// of its neighbour eliminated first; the trees of a disconnected graph
/// are linked at their first bags. This is exactly
/// `decompose_with_order(g, order)` (with `elimination_order(g,
/// MinDegree)` when no order is given), without a second simulation or
/// a set per bag.
pub fn decompose_adjacency(
    adjacency: Vec<Vec<u32>>,
    order: Option<&EliminationOrder>,
) -> TreeDecomposition {
    // Infallible site: an armed Error action is ignored, Panic/Sleep apply.
    stuc_fault::failpoint!("graph-decompose");
    let n = adjacency.len();
    let mut spans = Vec::with_capacity(n);
    let mut vertices: Vec<VertexId> = Vec::with_capacity(2 * n);
    let as_vertex = |&u: &u32| VertexId(u as usize);
    let eliminated = run_elimination(adjacency, order, |v, neighbours| {
        let start = entry_index(vertices.len());
        let at = neighbours.partition_point(|&u| u < v);
        vertices.extend(neighbours[..at].iter().map(as_vertex));
        vertices.push(VertexId(v as usize));
        vertices.extend(neighbours[at..].iter().map(as_vertex));
        spans.push((start, entry_index(vertices.len())));
    });
    let mut position = vec![0u32; n];
    for (i, &v) in eliminated.iter().enumerate() {
        position[v as usize] = vertex_u32(i);
    }
    // Every neighbour at elimination time is eliminated later, so the
    // link goes to the one with the smallest position.
    let links: Vec<u32> = spans
        .iter()
        .enumerate()
        .map(|(i, &(start, end))| {
            vertices[start as usize..end as usize]
                .iter()
                .map(|u| position[u.0])
                .filter(|&p| p as usize != i)
                .min()
                .unwrap_or(NO_PARENT)
        })
        .collect();
    TreeDecomposition::from_elimination(spans, vertices, links)
}

/// Vertex count above which min-fill falls back to the reference BTreeSet
/// implementation: the bitset matrix is O(n²/8) bytes, which stops being a
/// good trade on very large (and then necessarily sparse) graphs.
const MIN_FILL_BITSET_LIMIT: usize = 16_384;

/// Min-fill ordering. Quadratic selection: only re-scores vertices whose
/// neighbourhood changed, but still scans all alive vertices per step, so it
/// is reserved for moderate-size graphs (the ablation compares it to
/// min-degree on exactly such inputs). On those graphs the adjacency is kept
/// as a word-packed bitset matrix, so each fill-in count is O(n²/64)
/// intersection counting instead of O(deg²) `BTreeSet` probes; the computed
/// ordering is identical to [`reference_min_fill_order`].
fn min_fill_order(g: &Graph) -> EliminationOrder {
    let n = g.vertex_count();
    if n > MIN_FILL_BITSET_LIMIT {
        return reference_min_fill_order(g);
    }
    let mut adjacency = BitMatrix::from_graph(g);
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    let mut fill: Vec<usize> = (0..n).map(|v| adjacency.fill_in_count(v)).collect();

    for step in 0..n {
        // Quadratic selection is the one ordering loop that can hold a
        // worker for seconds: when the ambient budget trips, degrade to the
        // identifier-order tail (still a valid elimination order, just
        // lower quality) and let the caller's next fallible checkpoint
        // surface the typed error.
        if step.is_multiple_of(64) && stuc_fault::budget::tripped() {
            order.extend((0..n).filter(|&v| alive[v]).map(VertexId));
            break;
        }
        let next = (0..n)
            .filter(|&v| alive[v])
            .min_by_key(|&v| (fill[v], v))
            .expect("some vertex is alive");
        let affected: Vec<usize> = adjacency.neighbors(next).collect();
        adjacency.eliminate(next, &affected);
        alive[next] = false;
        order.push(VertexId(next));
        // Fill-in counts can change for the eliminated vertex's neighbours and
        // for their neighbours (the 2-hop set): re-score exactly that set.
        let mut to_rescore: BTreeSet<usize> = BTreeSet::new();
        for &u in &affected {
            if alive[u] {
                to_rescore.insert(u);
                to_rescore.extend(adjacency.neighbors(u));
            }
        }
        for u in to_rescore {
            fill[u] = adjacency.fill_in_count(u);
        }
    }
    EliminationOrder(order)
}

/// The original `BTreeSet`-adjacency min-fill implementation, kept as the
/// reference for differential testing: the bitset-backed
/// [`EliminationHeuristic::MinFill`] must produce *identical* orderings
/// (asserted by unit tests and by the `a1_decomposition_heuristics` bench on
/// its seed graphs).
pub fn reference_min_fill_order(g: &Graph) -> EliminationOrder {
    let n = g.vertex_count();
    let mut adjacency: Vec<BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbors(VertexId(v)).map(|u| u.0).collect())
        .collect();
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    let mut fill: Vec<usize> = (0..n).map(|v| fill_in_count(&adjacency, v)).collect();

    for step in 0..n {
        // Same degrade-on-trip fallback as the bitset path, so the two
        // implementations stay order-identical under any budget state.
        if step.is_multiple_of(64) && stuc_fault::budget::tripped() {
            order.extend((0..n).filter(|&v| alive[v]).map(VertexId));
            break;
        }
        let next = (0..n)
            .filter(|&v| alive[v])
            .min_by_key(|&v| (fill[v], v))
            .expect("some vertex is alive");
        let affected: Vec<usize> = adjacency[next].iter().copied().collect();
        eliminate(&mut adjacency, &mut alive, next);
        order.push(VertexId(next));
        let mut to_rescore: BTreeSet<usize> = BTreeSet::new();
        for &u in &affected {
            if alive[u] {
                to_rescore.insert(u);
                to_rescore.extend(adjacency[u].iter().copied().filter(|&w| alive[w]));
            }
        }
        for u in to_rescore {
            fill[u] = fill_in_count(&adjacency, u);
        }
    }
    EliminationOrder(order)
}

/// Word-packed adjacency matrix: row `v` is a bitset over the vertices, so
/// neighbourhood intersections (the inner loop of min-fill scoring) run a
/// word at a time.
struct BitMatrix {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn from_graph(g: &Graph) -> BitMatrix {
        let n = g.vertex_count();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; n * words_per_row];
        for v in 0..n {
            let row = v * words_per_row;
            for u in g.neighbors(VertexId(v)) {
                bits[row + u.0 / 64] |= 1u64 << (u.0 % 64);
            }
        }
        BitMatrix {
            words_per_row,
            bits,
        }
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.bits[v * self.words_per_row..(v + 1) * self.words_per_row]
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(v).iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * 64 + bit)
            })
        })
    }

    /// Number of fill-in edges that eliminating `v` would create: for every
    /// neighbour `a` of `v`, count the neighbours of `v` that are *not*
    /// adjacent to `a` (word-wise `N(v) & !N(a)`, with `a` itself masked
    /// out); every missing pair is counted once from each side.
    fn fill_in_count(&self, v: usize) -> usize {
        let mut missing_ordered = 0usize;
        let row_v = v * self.words_per_row;
        for a in self.neighbors(v) {
            let row_a = a * self.words_per_row;
            for w in 0..self.words_per_row {
                let mut candidates = self.bits[row_v + w] & !self.bits[row_a + w];
                if a / 64 == w {
                    candidates &= !(1u64 << (a % 64));
                }
                missing_ordered += candidates.count_ones() as usize;
            }
        }
        missing_ordered / 2
    }

    /// Eliminates `v` (whose neighbour list is `ns`): connects the
    /// neighbourhood into a clique and removes `v` from every row.
    fn eliminate(&mut self, v: usize, ns: &[usize]) {
        let (v_word, v_bit) = (v / 64, 1u64 << (v % 64));
        let row_v: Vec<u64> = self.row(v).to_vec();
        for &a in ns {
            let row_a = a * self.words_per_row;
            for (w, &word) in row_v.iter().enumerate() {
                self.bits[row_a + w] |= word;
            }
            // No self-loop, and v is gone.
            self.bits[row_a + a / 64] &= !(1u64 << (a % 64));
            self.bits[row_a + v_word] &= !v_bit;
        }
        for w in self.bits[v * self.words_per_row..(v + 1) * self.words_per_row].iter_mut() {
            *w = 0;
        }
    }
}

/// Number of fill-in edges that eliminating `v` would create.
fn fill_in_count(adjacency: &[BTreeSet<usize>], v: usize) -> usize {
    let ns: Vec<usize> = adjacency[v].iter().copied().collect();
    let mut missing = 0;
    for (i, &a) in ns.iter().enumerate() {
        for &b in &ns[i + 1..] {
            if !adjacency[a].contains(&b) {
                missing += 1;
            }
        }
    }
    missing
}

/// Eliminates `v`: connects its neighbourhood into a clique and removes it.
fn eliminate(adjacency: &mut [BTreeSet<usize>], alive: &mut [bool], v: usize) {
    let ns: Vec<usize> = adjacency[v].iter().copied().collect();
    for (i, &a) in ns.iter().enumerate() {
        for &b in &ns[i + 1..] {
            adjacency[a].insert(b);
            adjacency[b].insert(a);
        }
    }
    for &a in &ns {
        adjacency[a].remove(&v);
    }
    adjacency[v].clear();
    alive[v] = false;
}

/// Builds a tree decomposition of `g` from an elimination ordering.
///
/// The resulting decomposition is always valid; its width is the width of the
/// ordering (which is ≥ the treewidth of `g`). This is the reference the one
/// elimination core ([`decompose_adjacency`]) is checked against: it
/// simulates the elimination over `BTreeSet` neighbourhoods and links each
/// bag to its earliest-eliminated neighbour's, and shares only the linking
/// of the resulting forest's trees and its rooting.
pub fn decompose_with_order(g: &Graph, order: &EliminationOrder) -> TreeDecomposition {
    let n = g.vertex_count();
    assert_eq!(
        order.len(),
        n,
        "ordering must cover every vertex exactly once"
    );

    // position[v] = index of v in the elimination order.
    let mut position = vec![usize::MAX; n];
    for (i, v) in order.0.iter().enumerate() {
        position[v.0] = i;
    }

    // Simulate elimination, recording each vertex's neighbourhood at
    // elimination time ("higher neighbours" in the filled graph).
    let mut adjacency: Vec<BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbors(VertexId(v)).map(|u| u.0).collect())
        .collect();
    let mut alive = vec![true; n];
    let (mut spans, mut vertices, mut links) = (Vec::new(), Vec::new(), Vec::new());
    for &v in &order.0 {
        let mut content = adjacency[v.0].clone();
        eliminate(&mut adjacency, &mut alive, v.0);
        // The bag links to the bag of the earliest-eliminated vertex among
        // its strictly later neighbours (the standard clique-tree wiring).
        let later = content.iter().map(|&u| position[u]).min();
        links.push(later.map_or(NO_PARENT, vertex_u32));
        content.insert(v.0);
        let start = entry_index(vertices.len());
        vertices.extend(content.into_iter().map(VertexId));
        spans.push((start, entry_index(vertices.len())));
    }
    TreeDecomposition::from_elimination(spans, vertices, links)
}

/// The width that an elimination ordering yields on `g` (max neighbourhood
/// size at elimination time), without materialising the decomposition.
pub fn order_width(g: &Graph, order: &EliminationOrder) -> usize {
    let n = g.vertex_count();
    let mut adjacency: Vec<BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbors(VertexId(v)).map(|u| u.0).collect())
        .collect();
    let mut alive = vec![true; n];
    let mut width = 0;
    for &v in &order.0 {
        width = width.max(adjacency[v.0].len());
        eliminate(&mut adjacency, &mut alive, v.0);
    }
    width
}

/// Computes a tree decomposition of `g` with the given greedy heuristic.
///
/// This is the main entry point used by the rest of STUC: it feeds `g`
/// into the one elimination core ([`decompose_adjacency`]), after
/// computing the ordering first for the heuristics other than min-degree.
pub fn decompose_with_heuristic(g: &Graph, heuristic: EliminationHeuristic) -> TreeDecomposition {
    let order =
        (heuristic != EliminationHeuristic::MinDegree).then(|| elimination_order(g, heuristic));
    decompose_adjacency(adjacency_of(g), order.as_ref())
}

/// Runs every heuristic and returns the decomposition of smallest width.
pub fn decompose_best_effort(g: &Graph) -> TreeDecomposition {
    EliminationHeuristic::ALL
        .iter()
        .map(|&h| decompose_with_heuristic(g, h))
        .min_by_key(|td| td.width())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_has_width_one() {
        let g = generators::path(10);
        for h in EliminationHeuristic::ALL {
            let td = decompose_with_heuristic(&g, h);
            assert!(
                td.validate(&g).is_ok(),
                "{h:?} produced invalid decomposition"
            );
            assert_eq!(td.width(), 1, "{h:?} on a path");
        }
    }

    #[test]
    fn cycle_has_width_two() {
        let g = generators::cycle(8);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinDegree);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn tree_has_width_one() {
        let g = generators::balanced_binary_tree(4);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinFill);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn complete_graph_has_width_n_minus_one() {
        let g = generators::complete(6);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinFill);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 5);
    }

    #[test]
    fn grid_width_is_at_most_side() {
        // The m×m grid has treewidth exactly m; heuristics should stay close.
        let g = generators::grid(4, 4);
        let td = decompose_best_effort(&g);
        assert!(td.validate(&g).is_ok());
        assert!(
            td.width() >= 4,
            "width {} below the true treewidth",
            td.width()
        );
        assert!(
            td.width() <= 6,
            "width {} too far above the true treewidth",
            td.width()
        );
    }

    #[test]
    fn disconnected_graph_is_handled() {
        let mut g = generators::path(4);
        // Add an isolated component.
        let a = g.add_vertex();
        let b = g.add_vertex();
        g.add_edge(a, b);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinDegree);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn empty_graph_gives_empty_decomposition() {
        let g = Graph::new();
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinFill);
        assert_eq!(td.bag_count(), 0);
        assert!(td.validate(&g).is_ok());
    }

    #[test]
    fn single_vertex_graph() {
        let mut g = Graph::new();
        g.add_vertex();
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinDegree);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 0);
        assert_eq!(td.bag_count(), 1);
    }

    #[test]
    fn order_width_matches_decomposition_width() {
        let g = generators::partial_k_tree(30, 3, 0.3, 42);
        for h in EliminationHeuristic::ALL {
            let order = elimination_order(&g, h);
            let w = order_width(&g, &order);
            let td = decompose_with_order(&g, &order);
            assert_eq!(td.width(), w, "{h:?}");
            assert!(td.validate(&g).is_ok());
        }
    }

    #[test]
    fn partial_k_tree_width_at_most_k_with_good_heuristics() {
        // Partial 2-trees have treewidth ≤ 2 and min-fill recovers that.
        let g = generators::partial_k_tree(40, 2, 0.5, 7);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinFill);
        assert!(td.validate(&g).is_ok());
        assert!(td.width() <= 2, "width {} exceeds 2", td.width());
    }

    #[test]
    #[should_panic(expected = "ordering must cover")]
    fn wrong_length_order_panics() {
        let g = generators::path(3);
        let order = EliminationOrder(vec![VertexId(0)]);
        decompose_with_order(&g, &order);
    }

    #[test]
    fn bitset_min_fill_matches_reference_ordering() {
        let mut disconnected = generators::path(6);
        let a = disconnected.add_vertex();
        let b = disconnected.add_vertex();
        disconnected.add_edge(a, b);
        let graphs = vec![
            Graph::new(),
            generators::path(30),
            generators::cycle(16),
            generators::grid(5, 5),
            generators::star(12),
            generators::balanced_binary_tree(5),
            generators::partial_k_tree(60, 3, 0.4, 9),
            generators::caterpillar(20, 3),
            disconnected,
        ];
        for (i, g) in graphs.iter().enumerate() {
            assert_eq!(
                min_fill_order(g),
                reference_min_fill_order(g),
                "bitset and reference min-fill orders diverge on graph {i}"
            );
        }
    }

    /// The one elimination core gives the oracle composition
    /// `decompose_with_order(g, elimination_order(g, h))` for every
    /// heuristic, bag for bag and parent for parent.
    #[test]
    fn fused_min_degree_decomposition_equals_the_two_pass_oracle() {
        let mut graphs = vec![
            Graph::new(),
            generators::path(1),
            generators::grid(6, 7),
            generators::star(15),
            generators::caterpillar(12, 2),
            generators::complete(7),
        ];
        for seed in 0..12 {
            graphs.push(generators::partial_k_tree(
                50,
                1 + (seed as usize % 4),
                0.5,
                seed,
            ));
            graphs.push(generators::erdos_renyi(40, 0.08, seed));
            graphs.push(generators::random_tree(60, seed));
            // Disconnected pieces: the forest is linked the same way.
            let mut g = generators::erdos_renyi(25, 0.05, seed + 100);
            for _ in 0..3 {
                g.add_vertex();
            }
            graphs.push(g);
        }
        for (i, g) in graphs.iter().enumerate() {
            for h in EliminationHeuristic::ALL {
                let oracle = decompose_with_order(g, &elimination_order(g, h));
                let fused = decompose_with_heuristic(g, h);
                assert_eq!(fused, oracle, "graph {i}, {h:?}");
                assert!(fused.validate(g).is_ok(), "graph {i}, {h:?}");
            }
        }
    }

    #[test]
    fn star_graph_has_width_one() {
        let g = generators::star(9);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinDegree);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 1);
    }
}
