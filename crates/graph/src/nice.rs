//! Nice tree decompositions.
//!
//! Dynamic programming over a tree decomposition is much simpler when the
//! decomposition is *nice*: every node is one of
//!
//! * a **leaf** with an empty bag,
//! * an **introduce** node whose bag adds exactly one vertex to its child's,
//! * a **forget** node whose bag removes exactly one vertex from its child's,
//! * a **join** node with exactly two children carrying the same bag.
//!
//! Every tree decomposition of width `w` can be converted into a nice one of
//! the same width with `O(w · n)` nodes. The weighted-model-counting backend
//! in `stuc-circuit` and the automaton run in `stuc-automata` both consume
//! this form.

use crate::decomposition::{BagId, TreeDecomposition};
use crate::graph::VertexId;

/// The kind of a node in a [`NiceDecomposition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NiceNodeKind {
    /// A leaf with an empty bag.
    Leaf,
    /// Adds `vertex` to the child's bag.
    Introduce { vertex: VertexId, child: usize },
    /// Removes `vertex` from the child's bag.
    Forget { vertex: VertexId, child: usize },
    /// Combines two children with identical bags.
    Join { left: usize, right: usize },
}

/// One node of a nice decomposition: its kind plus its bag content, both
/// borrowed from the decomposition's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NiceNode<'a> {
    /// The structural kind of the node.
    pub kind: NiceNodeKind,
    /// The bag carried by this node, sorted.
    pub bag: &'a [VertexId],
}

/// A nice tree decomposition, stored as a flat arena with an explicit root:
/// one kind per node, and every node's sorted bag as one run of a shared
/// vertex vector (node `i`'s bag is `vertices[bounds[i]..bounds[i + 1]]`).
///
/// Children always have smaller indices than their parents, so iterating
/// `0..len()` visits nodes bottom-up — exactly the order dynamic programs
/// need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiceDecomposition {
    kinds: Vec<NiceNodeKind>,
    bounds: Vec<usize>,
    vertices: Vec<VertexId>,
    root: usize,
}

impl Default for NiceDecomposition {
    fn default() -> Self {
        NiceDecomposition {
            kinds: Vec::new(),
            bounds: vec![0],
            vertices: Vec::new(),
            root: 0,
        }
    }
}

impl NiceDecomposition {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if the decomposition has no nodes.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Index of the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Access a node by index.
    pub fn node(&self, i: usize) -> NiceNode<'_> {
        NiceNode {
            kind: self.kinds[i],
            bag: &self.vertices[self.bounds[i]..self.bounds[i + 1]],
        }
    }

    /// Iterate over `(index, node)` bottom-up (children before parents).
    pub fn iter_bottom_up(&self) -> impl Iterator<Item = (usize, NiceNode<'_>)> {
        (0..self.len()).map(|i| (i, self.node(i)))
    }

    /// The width of the nice decomposition.
    pub fn width(&self) -> usize {
        self.max_bag_len().saturating_sub(1)
    }

    /// Size of the largest bag (width + 1 on non-empty decompositions) —
    /// what sweep-plan construction checks against its dense-table budget.
    pub fn max_bag_len(&self) -> usize {
        self.bounds
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Appends a node and returns its index.
    fn push(&mut self, kind: NiceNodeKind, bag: &[VertexId]) -> usize {
        self.kinds.push(kind);
        self.vertices.extend_from_slice(bag);
        self.bounds.push(self.vertices.len());
        self.kinds.len() - 1
    }

    /// Converts a tree decomposition into nice form, rooted at bag 0 like
    /// the decomposition, with each bag's children taken in increasing
    /// order.
    ///
    /// The result has the same width. If `td` is empty, the result is a
    /// single leaf node so that dynamic programs always have a root to read.
    pub fn from_decomposition(td: &TreeDecomposition) -> Self {
        let mut nice = NiceDecomposition::default();
        let bag_count = td.bag_count();
        if bag_count == 0 {
            nice.root = nice.push(NiceNodeKind::Leaf, &[]);
            return nice;
        }
        let children = td.children();

        // top[b] = index of the nice node whose bag equals bag(b) and which
        // summarises the whole subtree rooted at b.
        let mut top: Vec<usize> = vec![usize::MAX; bag_count];
        let (mut scratch, mut branch_tops) = (Vec::new(), Vec::new());
        // Post-order over bags (children before parents), iteratively so
        // path-shaped decompositions do not exhaust the stack.
        let mut stack = vec![(0usize, false)];
        while let Some((b, expanded)) = stack.pop() {
            if !expanded {
                stack.push((b, true));
                stack.extend(children.get(b).iter().map(|&c| (c, false)));
                continue;
            }
            let bag = td.bag(BagId(b));
            let kids = children.get(b);
            top[b] = if kids.is_empty() {
                // Leaf bag: introduce its vertices one by one above an empty leaf.
                let leaf = nice.push(NiceNodeKind::Leaf, &[]);
                scratch.clear();
                nice.introduce_chain(leaf, &mut scratch, bag)
            } else {
                // One branch per child: forget the child-only vertices then
                // introduce the parent-only vertices; then join the branches.
                branch_tops.clear();
                for &child in kids {
                    debug_assert!(top[child] != usize::MAX, "children processed first");
                    scratch.clear();
                    scratch.extend_from_slice(td.bag(BagId(child)));
                    let after_forget = nice.forget_chain(top[child], &mut scratch, bag);
                    let branch = nice.introduce_chain(after_forget, &mut scratch, bag);
                    branch_tops.push(branch);
                }
                // Fold the branches with binary joins.
                let mut acc = branch_tops[0];
                for &other in &branch_tops[1..] {
                    acc = nice.push(
                        NiceNodeKind::Join {
                            left: acc,
                            right: other,
                        },
                        bag,
                    );
                }
                acc
            };
        }

        nice.root = top[0];
        nice
    }

    /// Adds introduce nodes above `below`, whose bag is `bag`, until the bag
    /// equals `to`; `bag` ends as `to`. Requires `bag ⊆ to`.
    fn introduce_chain(&mut self, below: usize, bag: &mut Vec<VertexId>, to: &[VertexId]) -> usize {
        let mut current = below;
        for &v in to {
            if let Err(at) = bag.binary_search(&v) {
                bag.insert(at, v);
                current = self.push(
                    NiceNodeKind::Introduce {
                        vertex: v,
                        child: current,
                    },
                    bag,
                );
            }
        }
        current
    }

    /// Adds forget nodes above `below`, whose bag is `bag`, removing every
    /// vertex not in `keep`; `bag` ends as its intersection with `keep`.
    fn forget_chain(&mut self, below: usize, bag: &mut Vec<VertexId>, keep: &[VertexId]) -> usize {
        let mut current = below;
        let mut at = 0;
        while at < bag.len() {
            let v = bag[at];
            if keep.binary_search(&v).is_ok() {
                at += 1;
                continue;
            }
            bag.remove(at);
            current = self.push(
                NiceNodeKind::Forget {
                    vertex: v,
                    child: current,
                },
                bag,
            );
        }
        current
    }

    /// Checks internal consistency: child indices precede parents, bags match
    /// the introduce/forget/join constraints. Used by tests.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, node) in self.iter_bottom_up() {
            match &node.kind {
                NiceNodeKind::Leaf => {
                    if !node.bag.is_empty() {
                        return Err(format!("leaf {i} has a non-empty bag"));
                    }
                }
                NiceNodeKind::Introduce { vertex, child } => {
                    if *child >= i {
                        return Err(format!("introduce {i} references later child {child}"));
                    }
                    let mut expected = self.node(*child).bag.to_vec();
                    match expected.binary_search(vertex) {
                        Ok(_) => return Err(format!("introduce {i} re-introduces {vertex}")),
                        Err(at) => expected.insert(at, *vertex),
                    }
                    if expected != node.bag {
                        return Err(format!("introduce {i} bag mismatch"));
                    }
                }
                NiceNodeKind::Forget { vertex, child } => {
                    if *child >= i {
                        return Err(format!("forget {i} references later child {child}"));
                    }
                    let mut expected = self.node(*child).bag.to_vec();
                    match expected.binary_search(vertex) {
                        Ok(at) => expected.remove(at),
                        Err(_) => return Err(format!("forget {i} forgets absent {vertex}")),
                    };
                    if expected != node.bag {
                        return Err(format!("forget {i} bag mismatch"));
                    }
                }
                NiceNodeKind::Join { left, right } => {
                    if *left >= i || *right >= i {
                        return Err(format!("join {i} references a later child"));
                    }
                    if self.node(*left).bag != node.bag || self.node(*right).bag != node.bag {
                        return Err(format!("join {i} children bags differ from its own"));
                    }
                }
            }
        }
        if self.root >= self.len() && !self.is_empty() {
            return Err("root out of range".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::{decompose_with_heuristic, EliminationHeuristic};
    use crate::generators;
    use std::collections::BTreeSet;

    fn nice_of(g: &crate::graph::Graph) -> NiceDecomposition {
        let td = decompose_with_heuristic(g, EliminationHeuristic::MinFill);
        NiceDecomposition::from_decomposition(&td)
    }

    #[test]
    fn empty_decomposition_gives_single_leaf() {
        let td = TreeDecomposition::new();
        let nd = NiceDecomposition::from_decomposition(&td);
        assert_eq!(nd.len(), 1);
        assert!(matches!(nd.node(nd.root()).kind, NiceNodeKind::Leaf));
        assert!(nd.check_consistency().is_ok());
    }

    #[test]
    fn path_nice_decomposition_preserves_width() {
        let g = generators::path(20);
        let nd = nice_of(&g);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 1);
    }

    #[test]
    fn cycle_nice_decomposition_preserves_width() {
        let g = generators::cycle(12);
        let nd = nice_of(&g);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 2);
    }

    #[test]
    fn every_vertex_is_forgotten_or_in_root() {
        // All graph vertices must appear somewhere; here we check that the set
        // of introduced vertices covers the graph.
        let g = generators::balanced_binary_tree(4);
        let nd = nice_of(&g);
        let mut introduced: BTreeSet<VertexId> = BTreeSet::new();
        for (_, node) in nd.iter_bottom_up() {
            if let NiceNodeKind::Introduce { vertex, .. } = node.kind {
                introduced.insert(vertex);
            }
        }
        for v in g.vertices() {
            assert!(introduced.contains(&v), "{v} never introduced");
        }
    }

    #[test]
    fn join_nodes_appear_for_branching_decompositions() {
        let g = generators::star(8);
        let nd = nice_of(&g);
        assert!(nd.check_consistency().is_ok());
        // A star's clique-tree branches at the centre, so joins must appear.
        let has_join = nd
            .iter_bottom_up()
            .any(|(_, n)| matches!(n.kind, NiceNodeKind::Join { .. }));
        assert!(has_join);
    }

    #[test]
    fn bottom_up_order_is_topological() {
        let g = generators::grid(3, 3);
        let nd = nice_of(&g);
        for (i, node) in nd.iter_bottom_up() {
            match node.kind {
                NiceNodeKind::Introduce { child, .. } | NiceNodeKind::Forget { child, .. } => {
                    assert!(child < i)
                }
                NiceNodeKind::Join { left, right } => {
                    assert!(left < i && right < i)
                }
                NiceNodeKind::Leaf => {}
            }
        }
    }

    #[test]
    fn large_path_does_not_overflow_stack() {
        let g = generators::path(20_000);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinDegree);
        let nd = NiceDecomposition::from_decomposition(&td);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 1);
    }

    #[test]
    fn ten_thousand_bag_path_decomposition_converts_iteratively() {
        // Regression guard for the traversal code (the post-order walk and
        // the builder chains): a maximally deep 10k-bag path decomposition
        // must convert without recursing on tree depth. Built by hand so the
        // bag tree is guaranteed to be one long path regardless of what the
        // elimination heuristics produce.
        let n = 10_000;
        let mut td = TreeDecomposition::new();
        let mut previous = None;
        for i in 0..n {
            previous = Some(td.add_bag(previous, [VertexId(i), VertexId(i + 1)]));
        }
        let nd = NiceDecomposition::from_decomposition(&td);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 1);
        assert_eq!(nd.max_bag_len(), 2);
        assert!(nd.len() >= n);
        // Bags are sorted, as sweep-plan construction reads them.
        let root_bag = nd.node(nd.root()).bag;
        assert!(root_bag.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn nice_width_never_exceeds_original() {
        for seed in 0..5 {
            let g = generators::partial_k_tree(25, 3, 0.5, seed);
            let td = decompose_with_heuristic(&g, EliminationHeuristic::MinFill);
            let nd = NiceDecomposition::from_decomposition(&td);
            assert!(nd.check_consistency().is_ok());
            assert!(nd.width() <= td.width());
        }
    }
}
