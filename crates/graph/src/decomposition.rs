//! Tree decompositions: bags, the tree over bags, width, and validation.
//!
//! A *tree decomposition* of a graph `G = (V, E)` is a tree `T` whose nodes
//! carry *bags* (subsets of `V`) such that
//!
//! 1. every vertex of `G` appears in some bag,
//! 2. for every edge `{u, v}` of `G` some bag contains both `u` and `v`, and
//! 3. for every vertex `v`, the bags containing `v` form a connected subtree
//!    of `T` (the *running intersection* property).
//!
//! Its *width* is the maximum bag size minus one; the *treewidth* of `G` is
//! the smallest width over all its decompositions. The paper's Theorems 1
//! and 2 assume the data's decomposition has width bounded by a constant.
//!
//! A [`TreeDecomposition`] is stored rooted at bag 0, as each bag's
//! parent, so it is a tree by construction and every pass over it reads
//! the rooting instead of working it out.

use crate::graph::{Graph, VertexId};
use crate::groups::Groups;
use std::fmt;
use std::sync::OnceLock;

/// A handle to a bag (node) of a [`TreeDecomposition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BagId(pub usize);

impl BagId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for BagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

stuc_errors::stuc_error! {
    /// Why a decomposition is not a valid tree decomposition of a graph.
    #[derive(Clone, PartialEq, Eq)]
    pub enum DecompositionError {
        /// A graph vertex appears in no bag.
        VertexNotCovered(VertexId),
        /// A graph edge is contained in no bag.
        EdgeNotCovered(VertexId, VertexId),
        /// The bags containing this vertex do not form a connected subtree.
        VertexNotConnected(VertexId),
    }
    display {
        Self::VertexNotCovered(v) => "vertex {v} appears in no bag",
        Self::EdgeNotCovered(u, v) => "edge {{{u}, {v}}} is contained in no bag",
        Self::VertexNotConnected(v) => "the bags containing {v} are not connected in the tree",
    }
}

/// A tree decomposition, rooted at bag 0: every bag's sorted content in
/// one arena, and every other bag's parent. It is built bag by bag with
/// [`TreeDecomposition::add_bag`], written whole by the elimination
/// ([`crate::elimination::decompose_adjacency`]) or by
/// [`TreeDecomposition::project`], and its bags always form one tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// Bag `b` is `vertices[spans[b].0..spans[b].1]`, sorted and
    /// deduplicated. The bags lie in order, one after the other, except
    /// while a repair grows them ([`TreeDecomposition::add_to_bag`]).
    spans: Vec<(u32, u32)>,
    vertices: Vec<VertexId>,
    /// `parent[b]`: the parent of bag `b`, [`NO_PARENT`] for bag 0.
    parent: Vec<u32>,
    /// The largest bag's size: bags are only ever added or grown, so it is
    /// kept up to date instead of scanned for. A cold goal reads the width
    /// of the instance's whole decomposition, and a scan over 50k bags
    /// alone would break the flatness of cold anchored goals in `n`.
    max_bag_size: usize,
    /// What [`TreeDecomposition::project`] looks up, built on first use and
    /// dropped by every change to the bags or the tree.
    index: IndexMemo,
}

/// The lookup structure of [`TreeDecomposition::project`]: which bags hold
/// each vertex, each bag's position in depth-first preorder, and, by
/// preorder position, the last position in its subtree (so `a` is an
/// ancestor of `b` exactly when `b`'s position lies in `a`'s range) and its
/// breadth-first rank.
#[derive(Debug)]
struct ProjectionIndex {
    occurrences: Groups<usize>,
    preorder: Vec<u32>,
    subtree_end: Vec<u32>,
    bfs_rank: Vec<u32>,
}

/// The memoised [`ProjectionIndex`] of a decomposition. Invisible like the
/// instance memos: it always compares equal and renders as nothing. A
/// clone starts empty (a copy is usually made to be repaired).
#[derive(Default)]
struct IndexMemo(OnceLock<ProjectionIndex>);

impl Clone for IndexMemo {
    fn clone(&self) -> IndexMemo {
        IndexMemo::default()
    }
}

impl PartialEq for IndexMemo {
    fn eq(&self, _: &IndexMemo) -> bool {
        true
    }
}

impl Eq for IndexMemo {}

impl fmt::Debug for IndexMemo {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        Ok(())
    }
}

/// True when every element of sorted `small` is in sorted `large`.
fn is_sorted_subset<T: Ord>(small: &[T], large: &[T]) -> bool {
    small.len() <= large.len() && small.iter().all(|x| large.binary_search(x).is_ok())
}

impl TreeDecomposition {
    /// Creates an empty decomposition (valid only for the empty graph).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trivial decomposition with a single bag containing all the
    /// vertices of `g`. Always valid; width `n - 1`.
    pub fn trivial(g: &Graph) -> Self {
        let mut td = TreeDecomposition::new();
        td.add_bag(None, g.vertices());
        td
    }

    /// The decomposition an elimination wrote: bag `b` at `spans[b]` in
    /// `vertices`, laid out in order, and each bag's link to a later bag
    /// (`NO_PARENT` for the last bag of each tree of the forest). The
    /// forest is rooted at bag 0 and its trees are linked at their first
    /// bags, each below the previous tree's.
    pub(crate) fn from_elimination(
        spans: Vec<(u32, u32)>,
        vertices: Vec<VertexId>,
        mut parent: Vec<u32>,
    ) -> TreeDecomposition {
        let n = parent.len();
        // Links point to later bags, so a backward pass finds each bag's
        // tree root (its last bag).
        let mut tree_root = vec![0u32; n];
        for b in (0..n).rev() {
            tree_root[b] = match parent[b] {
                NO_PARENT => bag_index(b),
                p => tree_root[p as usize],
            };
        }
        let mut linked = vec![false; n];
        let mut previous = NO_PARENT;
        for (b, &root) in tree_root.iter().enumerate() {
            if std::mem::replace(&mut linked[root as usize], true) {
                continue;
            }
            // `b` is its tree's first bag: reverse the path from it to the
            // tree root, and hang it below the previous tree's first bag.
            let (mut above, mut at) = (previous, bag_index(b));
            while at != NO_PARENT {
                let next = parent[at as usize];
                parent[at as usize] = above;
                (above, at) = (at, next);
            }
            previous = bag_index(b);
        }
        let max_bag_size = spans
            .iter()
            .map(|&(start, end)| (end - start) as usize)
            .max()
            .unwrap_or(0);
        TreeDecomposition {
            spans,
            vertices,
            parent,
            max_bag_size,
            index: IndexMemo::default(),
        }
    }

    /// Adds a bag with the given content below `parent` and returns its
    /// identifier. Only the first bag, the root, has no parent.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a bag, or is `None` for a later bag.
    pub fn add_bag(
        &mut self,
        parent: Option<BagId>,
        content: impl IntoIterator<Item = VertexId>,
    ) -> BagId {
        let parent = match parent {
            Some(p) => {
                assert!(p.0 < self.bag_count(), "parent bag out of range");
                bag_index(p.0)
            }
            None => {
                assert!(self.spans.is_empty(), "only bag 0 has no parent");
                NO_PARENT
            }
        };
        let mut bag: Vec<VertexId> = content.into_iter().collect();
        bag.sort_unstable();
        bag.dedup();
        self.push_bag(parent, &bag)
    }

    /// Appends a bag whose content is already sorted and deduplicated.
    fn push_bag(&mut self, parent: u32, bag: &[VertexId]) -> BagId {
        self.index.0.take();
        let start = entry_index(self.vertices.len());
        self.vertices.extend_from_slice(bag);
        self.spans.push((start, entry_index(self.vertices.len())));
        self.parent.push(parent);
        self.max_bag_size = self.max_bag_size.max(bag.len());
        BagId(self.spans.len() - 1)
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.spans.len()
    }

    /// Adds a vertex to an existing bag (incremental repair); `true` if it
    /// was absent. A bag that does not end the arena moves to its end
    /// first, so this costs O(bag); [`TreeDecomposition::compact`] lays
    /// the bags out in order again.
    ///
    /// # Panics
    ///
    /// Panics if the bag does not exist.
    pub(crate) fn add_to_bag(&mut self, b: BagId, v: VertexId) -> bool {
        let (start, end) = self.span(b);
        let Err(at) = self.vertices[start..end].binary_search(&v) else {
            return false;
        };
        self.index.0.take();
        let start = if end == self.vertices.len() {
            start
        } else {
            self.vertices.extend_from_within(start..end);
            self.vertices.len() - (end - start)
        };
        self.vertices.insert(start + at, v);
        self.spans[b.0] = (entry_index(start), entry_index(self.vertices.len()));
        self.max_bag_size = self.max_bag_size.max(self.vertices.len() - start);
        true
    }

    /// Lays the bags out in order, one after the other, dropping the slots
    /// that bags grown by [`TreeDecomposition::add_to_bag`] left behind.
    pub(crate) fn compact(&mut self) {
        let mut vertices = Vec::with_capacity(self.vertices.len());
        for span in &mut self.spans {
            let start = entry_index(vertices.len());
            vertices.extend_from_slice(&self.vertices[span.0 as usize..span.1 as usize]);
            *span = (start, entry_index(vertices.len()));
        }
        self.vertices = vertices;
    }

    /// Returns a copy of the decomposition with every vertex `v` replaced by
    /// `map[v.0]`. Used when the decomposed graph is renumbered (e.g. the
    /// pcc joint graph shifts its gate vertices when constants are
    /// inserted): an injective remap preserves validity verbatim.
    ///
    /// `map` must be injective on the vertices the bags hold: the bags are
    /// only re-sorted, not deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if a bag contains a vertex outside `map`; in debug builds,
    /// also if `map` sends two vertices of one bag to the same vertex.
    pub fn remap_vertices(&self, map: &[VertexId]) -> TreeDecomposition {
        let mut vertices: Vec<VertexId> = self.vertices.iter().map(|v| map[v.0]).collect();
        for &(start, end) in &self.spans {
            let bag = &mut vertices[start as usize..end as usize];
            bag.sort_unstable();
            debug_assert!(
                bag.windows(2).all(|w| w[0] < w[1]),
                "remap_vertices needs an injective map"
            );
        }
        TreeDecomposition {
            spans: self.spans.clone(),
            vertices,
            parent: self.parent.clone(),
            max_bag_size: self.max_bag_size,
            index: IndexMemo::default(),
        }
    }

    /// Where bag `b` lies in the arena.
    fn span(&self, b: BagId) -> (usize, usize) {
        let (start, end) = self.spans[b.0];
        (start as usize, end as usize)
    }

    /// The content of a bag, sorted.
    pub fn bag(&self, b: BagId) -> &[VertexId] {
        let (start, end) = self.span(b);
        &self.vertices[start..end]
    }

    /// The parent of a bag; `None` for bag 0, the root.
    pub fn parent(&self, b: BagId) -> Option<BagId> {
        Some(self.parent[b.0])
            .filter(|&p| p != NO_PARENT)
            .map(|p| BagId(p as usize))
    }

    /// Every bag's children, in increasing order.
    pub(crate) fn children(&self) -> Groups<usize> {
        Groups::by_key(self.bag_count(), || {
            self.bag_ids()
                .filter_map(|b| self.parent(b).map(|p| (p.0, b.0)))
        })
    }

    /// Iterator over all bag identifiers.
    pub fn bag_ids(&self) -> impl Iterator<Item = BagId> {
        (0..self.spans.len()).map(BagId)
    }

    /// The width of the decomposition: `max |bag| - 1` (`0` when empty).
    pub fn width(&self) -> usize {
        self.max_bag_size().saturating_sub(1)
    }

    /// The largest bag size (width + 1 for non-empty decompositions).
    pub fn max_bag_size(&self) -> usize {
        self.max_bag_size
    }

    /// Checks all three tree-decomposition conditions against `g`.
    ///
    /// Linear in the size of the decomposition plus the graph (times a
    /// `log w` bag lookup). One pass over the bags finds, for every vertex,
    /// the bags containing it whose parent does not (its *tops*): none
    /// means uncovered, more than one means its bags are not connected. An
    /// edge between two vertices with one top each is covered exactly when
    /// one top bag holds the other endpoint (two connected subtrees meet
    /// iff one's top lies in the other); any other edge is looked up
    /// through per-vertex bag lists. The first violation is reported in a
    /// fixed order: the first uncovered vertex, the first uncovered edge
    /// and the first vertex with disconnected occurrences, each in the
    /// graph's iteration order.
    pub fn validate(&self, g: &Graph) -> Result<(), DecompositionError> {
        let n = g.vertex_count();
        let mut tops = vec![0u8; n];
        let mut top_bag = vec![0u32; n];
        for b in self.bag_ids() {
            let parent_bag = self.parent(b).map(|p| self.bag(p));
            for v in self.bag(b) {
                if v.0 < n && parent_bag.is_none_or(|p| p.binary_search(v).is_err()) {
                    tops[v.0] = tops[v.0].saturating_add(1);
                    top_bag[v.0] = bag_index(b.0);
                }
            }
        }
        let holds = |b: u32, v: VertexId| self.bag(BagId(b as usize)).binary_search(&v).is_ok();

        // Condition 1: vertex coverage.
        if let Some(v) = g.vertices().find(|v| tops[v.0] == 0) {
            return Err(DecompositionError::VertexNotCovered(v));
        }

        // Condition 2: edge coverage.
        let mut occurrences = None;
        for (u, v) in g.edges() {
            let covered = if tops[u.0] == 1 && tops[v.0] == 1 {
                holds(top_bag[u.0], v) || holds(top_bag[v.0], u)
            } else {
                let occurrences = occurrences.get_or_insert_with(|| occurrences_of(self, n));
                let (rare, other) = if occurrences.get(u.0).len() <= occurrences.get(v.0).len() {
                    (u, v)
                } else {
                    (v, u)
                };
                occurrences
                    .get(rare.0)
                    .iter()
                    .any(|&b| holds(bag_index(b), other))
            };
            if !covered {
                return Err(DecompositionError::EdgeNotCovered(u, v));
            }
        }

        // Condition 3: running intersection.
        if let Some(v) = g.vertices().find(|v| tops[v.0] > 1) {
            return Err(DecompositionError::VertexNotConnected(v));
        }
        Ok(())
    }

    /// The decomposition restricted to the vertices of `kept` (sorted,
    /// deduplicated): every bag is intersected with them, bags left empty
    /// are dropped, a bag whose content is contained in (or contains) its
    /// kept parent's is merged into it, and the trees left after dropping
    /// are hung below the first kept bag. Bags are taken in breadth-first
    /// order from bag 0.
    ///
    /// The result is a valid decomposition of every subgraph of the
    /// decomposed graph on vertices of `kept`, of width at most this
    /// one's: the bags containing a kept vertex are never emptied, so they
    /// still form a subtree, and merging contracts tree edges. Trees
    /// separated by an emptied bag share no vertex, so any link between
    /// them is valid.
    ///
    /// Runs in O(r log r) for the r bag slots of the kept vertices: it
    /// visits only the bags that hold a kept vertex, found through a
    /// memoised per-vertex index (built in one linear pass on the first
    /// call after a change), and finds each one's nearest such ancestor
    /// with a stack walk in depth-first order.
    pub fn project(&self, kept: &[VertexId]) -> TreeDecomposition {
        debug_assert!(kept.windows(2).all(|w| w[0] < w[1]), "kept must be sorted");
        let mut projected = TreeDecomposition::new();
        if self.spans.is_empty() {
            return projected;
        }
        let index = self.index.0.get_or_init(|| ProjectionIndex::of(self));
        // One `(preorder position, vertex)` slot per kept vertex of each
        // bag holding one: sorted, each touched bag is a run of slots, in
        // preorder, listing its kept content in order.
        let mut slots: Vec<u64> = kept
            .iter()
            .flat_map(|&v| {
                index
                    .occurrences
                    .get(v.0)
                    .iter()
                    .map(move |&b| u64::from(index.preorder[b]) << 32 | vertex_index(v))
            })
            .collect();
        slots.sort_unstable();
        let contents: Vec<VertexId> = slots
            .iter()
            .map(|&slot| VertexId(slot as u32 as usize))
            .collect();
        // touched[i]: a touched bag's preorder position and where its kept
        // content lies in `contents`.
        let mut touched: Vec<(u32, usize, usize)> = Vec::new();
        for run in slots.chunk_by(|a, b| a >> 32 == b >> 32) {
            let start = touched.last().map_or(0, |&(_, _, end)| end);
            touched.push(((run[0] >> 32) as u32, start, start + run.len()));
        }
        // above[i]: the nearest touched ancestor of touched[i], read off
        // the stack of touched bags on the current root path.
        let mut above: Vec<Option<usize>> = Vec::with_capacity(touched.len());
        let mut path: Vec<usize> = Vec::new();
        for (i, &(position, ..)) in touched.iter().enumerate() {
            while path
                .last()
                .is_some_and(|&top| index.subtree_end[touched[top].0 as usize] < position)
            {
                path.pop();
            }
            above.push(path.last().copied());
            path.push(i);
        }
        // into[i]: the projected bag touched[i] was merged into; bags[p]:
        // projected bag p's parent and the touched bag whose content it
        // holds. Parents come before children in breadth-first order.
        let mut order: Vec<u64> = touched
            .iter()
            .enumerate()
            .map(|(i, &(position, ..))| {
                u64::from(index.bfs_rank[position as usize]) << 32 | i as u64
            })
            .collect();
        order.sort_unstable();
        let content = |i: usize| &contents[touched[i].1..touched[i].2];
        let mut into = vec![0usize; touched.len()];
        let mut bags: Vec<(u32, usize)> = Vec::new();
        for i in order.into_iter().map(|key| key as u32 as usize) {
            let above = above[i].map(|a| into[a]);
            into[i] = match above {
                Some(a) if is_sorted_subset(content(i), content(bags[a].1)) => a,
                Some(a) if is_sorted_subset(content(bags[a].1), content(i)) => {
                    bags[a].1 = i;
                    a
                }
                _ => {
                    // A bag with no kept ancestor starts a new tree: hang
                    // it below the first one.
                    let parent = match above {
                        Some(a) => bag_index(a),
                        None if bags.is_empty() => NO_PARENT,
                        None => 0,
                    };
                    bags.push((parent, i));
                    bags.len() - 1
                }
            };
        }
        for (parent, i) in bags {
            projected.push_bag(parent, content(i));
        }
        projected
    }

    /// Returns a bag containing all of `vertices`, if any.
    pub fn find_bag_containing(&self, vertices: &[VertexId]) -> Option<BagId> {
        self.bag_ids().find(|&b| {
            let bag = self.bag(b);
            vertices.iter().all(|v| bag.binary_search(v).is_ok())
        })
    }
}

/// The parent of the root: bag 0's entry in a [`TreeDecomposition`].
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A bag index in the `u32` form parents and the validation arrays store.
fn bag_index(b: usize) -> u32 {
    u32::try_from(b).expect("a decomposition has fewer than 2^32 bags")
}

/// An arena position in the `u32` form bag spans store.
pub(crate) fn entry_index(at: usize) -> u32 {
    u32::try_from(at).expect("a decomposition has fewer than 2^32 bag entries")
}

/// Per-vertex bag lists of a decomposition: the bags containing vertex
/// `v`, in increasing order. Vertices at or beyond `vertex_count` are left
/// out.
fn occurrences_of(td: &TreeDecomposition, vertex_count: usize) -> Groups<usize> {
    Groups::by_key(vertex_count, || {
        td.bag_ids().flat_map(move |b| {
            td.bag(b)
                .iter()
                .map(|v| v.0)
                .filter(move |&v| v < vertex_count)
                .map(move |v| (v, b.0))
        })
    })
}

/// A vertex in the `u32` form projection slots pack.
fn vertex_index(v: VertexId) -> u64 {
    u64::from(u32::try_from(v.0).expect("a decomposition has fewer than 2^32 vertices"))
}

impl ProjectionIndex {
    /// Two linear walks down the bag tree from bag 0: breadth-first for the
    /// ranks, depth-first (children in increasing order) for the preorder,
    /// whose subtree ranges come from the subtree sizes summed bottom-up.
    fn of(td: &TreeDecomposition) -> ProjectionIndex {
        let n = td.bag_count();
        let vertex_count = td
            .bag_ids()
            .filter_map(|b| td.bag(b).last())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0);
        let children = td.children();
        let mut breadth_first = Vec::with_capacity(n);
        breadth_first.push(0usize);
        let mut next = 0;
        while let Some(&b) = breadth_first.get(next) {
            breadth_first.extend_from_slice(children.get(b));
            next += 1;
        }
        let mut rank_of_bag = vec![0u32; n];
        for (rank, &b) in breadth_first.iter().enumerate() {
            rank_of_bag[b] = bag_index(rank);
        }
        let mut depth_first = Vec::with_capacity(n);
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            depth_first.push(b);
            stack.extend(children.get(b).iter().rev());
        }
        let mut subtree_size = vec![1u32; n];
        for &b in depth_first.iter().rev() {
            if let Some(p) = td.parent(BagId(b)) {
                subtree_size[p.0] += subtree_size[b];
            }
        }
        let mut preorder = vec![0u32; n];
        let mut subtree_end = Vec::with_capacity(n);
        let mut bfs_rank = Vec::with_capacity(n);
        for (position, &b) in depth_first.iter().enumerate() {
            preorder[b] = bag_index(position);
            subtree_end.push(bag_index(position) + subtree_size[b] - 1);
            bfs_rank.push(rank_of_bag[b]);
        }
        ProjectionIndex {
            occurrences: occurrences_of(td, vertex_count),
            preorder,
            subtree_end,
            bfs_rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::{decompose_with_heuristic, EliminationHeuristic};
    use crate::generators::{self, SplitMix64};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    /// The decomposition with these bags and parents (`NO_PARENT` for bag
    /// 0), laid out in order.
    fn from_parts(bags: &[Vec<VertexId>], parent: Vec<u32>) -> TreeDecomposition {
        let mut td = TreeDecomposition::new();
        for (bag, &p) in bags.iter().zip(&parent) {
            td.push_bag(p, bag);
        }
        td
    }

    /// Every bag's content and parent.
    fn parts(td: &TreeDecomposition) -> (Vec<Vec<VertexId>>, Vec<u32>) {
        let bags = td.bag_ids().map(|b| td.bag(b).to_vec()).collect();
        (bags, td.parent.clone())
    }

    /// The bag tree's adjacency lists, each in increasing order.
    fn adjacency(td: &TreeDecomposition) -> Vec<Vec<usize>> {
        let mut tree = vec![Vec::new(); td.bag_count()];
        for b in td.bag_ids() {
            if let Some(p) = td.parent(b) {
                tree[b.0].push(p.0);
                tree[p.0].push(b.0);
            }
        }
        for list in &mut tree {
            list.sort_unstable();
        }
        tree
    }

    /// The quadratic validator `validate` replaced: every edge checked
    /// against every bag, and each vertex's bags connected by a search.
    /// Kept as the reference the linear validator must agree with, error
    /// for error.
    fn validate_by_scan(td: &TreeDecomposition, g: &Graph) -> Result<(), DecompositionError> {
        let (bags, _) = parts(td);
        let mut covered = vec![false; g.vertex_count()];
        for bag in &bags {
            for v in bag {
                if v.0 < covered.len() {
                    covered[v.0] = true;
                }
            }
        }
        for v in g.vertices() {
            if !covered[v.0] {
                return Err(DecompositionError::VertexNotCovered(v));
            }
        }
        for (u, v) in g.edges() {
            if !bags.iter().any(|b| b.contains(&u) && b.contains(&v)) {
                return Err(DecompositionError::EdgeNotCovered(u, v));
            }
        }
        let tree = adjacency(td);
        let mut occurrence: HashMap<VertexId, Vec<usize>> = HashMap::new();
        for (i, bag) in bags.iter().enumerate() {
            for &v in bag {
                occurrence.entry(v).or_default().push(i);
            }
        }
        for v in g.vertices() {
            let Some(bags) = occurrence.get(&v) else {
                continue;
            };
            let in_set: HashSet<usize> = bags.iter().copied().collect();
            let mut seen = HashSet::from([bags[0]]);
            let mut queue = VecDeque::from([bags[0]]);
            while let Some(a) = queue.pop_front() {
                for &b in &tree[a] {
                    if in_set.contains(&b) && seen.insert(b) {
                        queue.push_back(b);
                    }
                }
            }
            if seen.len() != in_set.len() {
                return Err(DecompositionError::VertexNotConnected(v));
            }
        }
        Ok(())
    }

    /// The breadth-first projection `project` replaced: every bag visited
    /// and filtered, in one pass from bag 0. Kept as the reference the
    /// indexed projection must reproduce bag for bag and parent for parent.
    fn project_by_scan(
        td: &TreeDecomposition,
        keep: impl Fn(VertexId) -> bool,
    ) -> TreeDecomposition {
        let (mut bags, mut parents): (Vec<Vec<VertexId>>, _) = (Vec::new(), Vec::new());
        if td.bag_count() == 0 {
            return TreeDecomposition::new();
        }
        let tree = adjacency(td);
        // into[b]: the projected bag `b` was merged into, or for an emptied
        // bag the one its nearest kept ancestor was merged into.
        let mut into: Vec<Option<usize>> = vec![None; td.bag_count()];
        let mut seen = vec![false; td.bag_count()];
        let mut queue = VecDeque::from([(0usize, None::<usize>)]);
        seen[0] = true;
        while let Some((b, parent)) = queue.pop_front() {
            let content: Vec<VertexId> = td
                .bag(BagId(b))
                .iter()
                .copied()
                .filter(|&v| keep(v))
                .collect();
            let above = parent.and_then(|p| into[p]);
            into[b] = match above {
                _ if content.is_empty() => above,
                Some(a) if is_sorted_subset(&content, &bags[a]) => Some(a),
                Some(a) if is_sorted_subset(&bags[a], &content) => {
                    bags[a] = content;
                    Some(a)
                }
                _ => {
                    let root = bags.is_empty();
                    bags.push(content);
                    parents.push(if root {
                        NO_PARENT
                    } else {
                        bag_index(above.unwrap_or(0))
                    });
                    Some(bags.len() - 1)
                }
            };
            for &c in &tree[b] {
                if !seen[c] {
                    seen[c] = true;
                    queue.push_back((c, Some(b)));
                }
            }
        }
        from_parts(&bags, parents)
    }

    /// The projection, checked against the scan: same bags in the same
    /// order, same parents.
    fn assert_projects_like_the_scan(td: &TreeDecomposition, keep: &[bool]) {
        let kept: Vec<VertexId> = (0..keep.len()).filter(|&v| keep[v]).map(VertexId).collect();
        let projected = td.project(&kept);
        let reference = project_by_scan(td, |v| keep.get(v.0).copied().unwrap_or(false));
        assert_eq!(projected, reference);
    }

    /// Applies `edits` random corruptions: a vertex dropped from or added
    /// to a bag (sometimes one beyond the graph), a bag moved below
    /// another outside its subtree, or a leaf bag appended.
    fn corrupt(td: &mut TreeDecomposition, vertices: usize, edits: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let (mut bags, mut parents) = parts(td);
        for _ in 0..edits {
            let vertex = VertexId(rng.next_below(vertices + 2));
            if bags.is_empty() {
                bags.push(vec![vertex]);
                parents.push(NO_PARENT);
                continue;
            }
            let b = rng.next_below(bags.len());
            match rng.next_below(4) {
                0 => {
                    if !bags[b].is_empty() {
                        let at = rng.next_below(bags[b].len());
                        bags[b].remove(at);
                    }
                }
                1 => {
                    if let Err(at) = bags[b].binary_search(&vertex) {
                        bags[b].insert(at, vertex);
                    }
                }
                2 => {
                    let below = rng.next_below(bags.len());
                    let mut at = below as u32;
                    while at != NO_PARENT && at as usize != b {
                        at = parents[at as usize];
                    }
                    if b != 0 && at == NO_PARENT {
                        parents[b] = below as u32;
                    }
                }
                _ => {
                    bags.push(vec![vertex]);
                    parents.push(b as u32);
                }
            }
        }
        *td = from_parts(&bags, parents);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The linear validator returns exactly what the scan returns, on
        /// heuristic decompositions of random graphs and on corrupted ones.
        #[test]
        fn linear_validation_agrees_with_the_scan(
            n in 1usize..14,
            p in 0.05f64..0.7,
            seed in 0u64..10_000,
            edits in 0usize..4,
        ) {
            let graph = generators::erdos_renyi(n, p, seed);
            for heuristic in [EliminationHeuristic::MinDegree, EliminationHeuristic::MinFill] {
                let mut td = decompose_with_heuristic(&graph, heuristic);
                prop_assert_eq!(td.validate(&graph), Ok(()));
                corrupt(&mut td, n, edits, seed);
                prop_assert_eq!(td.validate(&graph), validate_by_scan(&td, &graph));
            }
        }

        /// Projecting onto any vertex subset leaves a valid decomposition
        /// of the induced subgraph, never wider than the original, and is
        /// exactly the breadth-first scan's projection — also after
        /// `add_bag`/`add_to_bag` changed a decomposition whose index was
        /// already built.
        #[test]
        fn projections_decompose_induced_subgraphs(
            n in 1usize..16,
            p in 0.05f64..0.6,
            seed in 0u64..10_000,
            keep_probability in 0.0f64..1.0,
        ) {
            let graph = generators::erdos_renyi(n, p, seed);
            let mut rng = SplitMix64::new(seed ^ 0x9e37);
            for heuristic in [EliminationHeuristic::MinDegree, EliminationHeuristic::MinFill] {
                let mut td = decompose_with_heuristic(&graph, heuristic);
                let keep: Vec<bool> = (0..n).map(|_| rng.next_bool(keep_probability)).collect();
                let kept: Vec<VertexId> = graph.vertices().filter(|v| keep[v.0]).collect();
                let projected = td.project(&kept);
                assert_projects_like_the_scan(&td, &keep);
                let (sub, map) = graph.induced_subgraph(&kept);
                let mut renumber = vec![VertexId(usize::MAX); n];
                for (new, old) in map.iter().enumerate() {
                    renumber[old.0] = VertexId(new);
                }
                let renumbered = projected.remap_vertices(&renumber);
                prop_assert_eq!(renumbered.validate(&sub), Ok(()));
                prop_assert!(projected.width() <= td.width());
                prop_assert!(projected.bag_count() <= td.bag_count());

                // Grow the decomposition after its index was built: new
                // leaf bags (some over vertices beyond the graph) and grown
                // bags, moved to the end of the arena.
                for _ in 0..3 {
                    let b = BagId(rng.next_below(td.bag_count()));
                    let v = VertexId(rng.next_below(n + 2));
                    if rng.next_bool(0.5) {
                        td.add_bag(Some(b), [v, VertexId(rng.next_below(n + 2))]);
                    } else {
                        td.add_to_bag(b, v);
                    }
                    let keep: Vec<bool> =
                        (0..n + 2).map(|_| rng.next_bool(keep_probability)).collect();
                    assert_projects_like_the_scan(&td, &keep);
                }
                // Compacting keeps every bag and parent, and lays the arena
                // out as one built bag by bag.
                let (bags, parents) = parts(&td);
                td.compact();
                prop_assert_eq!(td, from_parts(&bags, parents));
            }
        }
    }

    #[test]
    fn projection_merges_contained_bags_and_relinks_separated_trees() {
        // Path 0-1-2-3-4 decomposed as {0,1} {1,2} {2,3} {3,4}. Keeping
        // {0, 1, 3, 4} empties nothing but leaves {1} and {3} inside their
        // neighbours, and no kept vertex links the two halves.
        let td = path_decomposition(5);
        let projected = td.project(&[VertexId(0), VertexId(1), VertexId(3), VertexId(4)]);
        assert_eq!(projected.bag_count(), 2);
        let bags: Vec<Vec<usize>> = projected
            .bag_ids()
            .map(|b| projected.bag(b).iter().map(|v| v.0).collect())
            .collect();
        assert_eq!(bags, vec![vec![0, 1], vec![3, 4]]);
        assert_eq!(projected.parent(BagId(1)), Some(BagId(0)));
        // Keeping nothing leaves nothing.
        assert_eq!(td.project(&[]).bag_count(), 0);
    }

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1));
        }
        g
    }

    fn path_decomposition(n: usize) -> TreeDecomposition {
        // Bags {i, i+1} chained in a path: the canonical width-1 decomposition.
        let mut td = TreeDecomposition::new();
        let mut prev = None;
        for i in 0..n - 1 {
            prev = Some(td.add_bag(prev, [VertexId(i), VertexId(i + 1)]));
        }
        td
    }

    #[test]
    fn trivial_decomposition_is_valid() {
        let g = path_graph(5);
        let td = TreeDecomposition::trivial(&g);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 4);
    }

    #[test]
    fn path_decomposition_is_valid_width_one() {
        let g = path_graph(6);
        let td = path_decomposition(6);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 1);
        assert_eq!(td.max_bag_size(), 2);
        assert_eq!(td.parent(BagId(0)), None);
        assert_eq!(td.parent(BagId(3)), Some(BagId(2)));
    }

    #[test]
    fn missing_vertex_is_detected() {
        let g = path_graph(3);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag(None, [VertexId(0), VertexId(1)]);
        td.add_bag(Some(a), [VertexId(1)]);
        assert_eq!(
            td.validate(&g),
            Err(DecompositionError::VertexNotCovered(VertexId(2)))
        );
    }

    #[test]
    fn missing_edge_is_detected() {
        let g = path_graph(3);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag(None, [VertexId(0), VertexId(1)]);
        td.add_bag(Some(a), [VertexId(2)]);
        assert_eq!(
            td.validate(&g),
            Err(DecompositionError::EdgeNotCovered(VertexId(1), VertexId(2)))
        );
    }

    #[test]
    fn broken_running_intersection_is_detected() {
        let g = path_graph(3);
        let mut td = TreeDecomposition::new();
        // Vertex 0 appears in bags a and c, but b (the middle) does not contain it.
        let a = td.add_bag(None, [VertexId(0), VertexId(1)]);
        let b = td.add_bag(Some(a), [VertexId(1), VertexId(2)]);
        td.add_bag(Some(b), [VertexId(0), VertexId(2)]);
        assert_eq!(
            td.validate(&g),
            Err(DecompositionError::VertexNotConnected(VertexId(0)))
        );
    }

    #[test]
    #[should_panic(expected = "only bag 0 has no parent")]
    fn a_second_root_is_refused() {
        let mut td = TreeDecomposition::new();
        td.add_bag(None, [VertexId(0)]);
        td.add_bag(None, [VertexId(1)]);
    }

    #[test]
    fn grown_bags_move_to_the_end_of_the_arena_until_compacted() {
        let g = path_graph(5);
        let mut td = path_decomposition(5);
        assert!(td.add_to_bag(BagId(1), VertexId(0)));
        assert!(!td.add_to_bag(BagId(1), VertexId(0)));
        assert!(td.add_to_bag(BagId(1), VertexId(3)));
        assert_eq!(td.bag(BagId(1)), [0, 1, 2, 3].map(VertexId));
        assert_eq!(td.width(), 3);
        // Moved once (its two entries copied, one added), then grown in place.
        assert_eq!(td.vertices.len(), 8 + 3 + 1);
        td.compact();
        assert_eq!(td.vertices.len(), 10);
        assert_eq!(td.bag(BagId(1)), [0, 1, 2, 3].map(VertexId));
        assert_eq!(td.bag(BagId(2)), [2, 3].map(VertexId));
        assert!(td.validate(&g).is_ok());
    }

    /// `from_elimination` roots an elimination's forest at bag 0 with its
    /// trees linked at their first bags, in order: the parents a search
    /// from bag 0 finds over the links plus those tree links.
    #[test]
    fn elimination_forests_are_rooted_at_bag_zero() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..300 {
            let n = 1 + rng.next_below(12);
            // Each bag links to a later bag, or to none (its tree's last).
            let links: Vec<u32> = (0..n)
                .map(|b| match n - b - 1 {
                    later if later > 0 && rng.next_bool(0.8) => {
                        bag_index(b + 1 + rng.next_below(later))
                    }
                    _ => NO_PARENT,
                })
                .collect();
            let td =
                TreeDecomposition::from_elimination(vec![(0, 0); n], Vec::new(), links.clone());

            let mut tree = vec![Vec::new(); n];
            for (b, &l) in links.iter().enumerate().filter(|(_, &l)| l != NO_PARENT) {
                tree[b].push(l as usize);
                tree[l as usize].push(b);
            }
            let search = |tree: &[Vec<usize>], from: usize, parent: &mut [u32]| {
                let mut queue = VecDeque::from([from]);
                while let Some(a) = queue.pop_front() {
                    for &b in &tree[a] {
                        if b != from && parent[b] == NO_PARENT {
                            parent[b] = bag_index(a);
                            queue.push_back(b);
                        }
                    }
                }
            };
            let mut component = vec![NO_PARENT; n];
            let mut first_bags = Vec::new();
            for b in 0..n {
                if component[b] == NO_PARENT && !first_bags.contains(&b) {
                    first_bags.push(b);
                    search(&tree, b, &mut component);
                }
            }
            for pair in first_bags.windows(2) {
                tree[pair[0]].push(pair[1]);
                tree[pair[1]].push(pair[0]);
            }
            let mut parent = vec![NO_PARENT; n];
            search(&tree, 0, &mut parent);
            assert_eq!(td.parent, parent, "links {links:?}");
        }
    }

    #[test]
    fn find_bag_containing_works() {
        let td = path_decomposition(5);
        assert_eq!(
            td.find_bag_containing(&[VertexId(2), VertexId(3)]),
            Some(BagId(2))
        );
        assert_eq!(td.find_bag_containing(&[VertexId(0), VertexId(4)]), None);
    }

    #[test]
    fn empty_decomposition_is_valid_for_empty_graph() {
        let g = Graph::new();
        let td = TreeDecomposition::new();
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 0);
    }
}
