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

use crate::graph::{Graph, VertexId};
use crate::groups::Groups;
use std::collections::VecDeque;
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
    /// Why a candidate decomposition is not a valid tree decomposition of a graph.
    #[derive(Clone, PartialEq, Eq)]
    pub enum DecompositionError {
        /// A graph vertex appears in no bag.
        VertexNotCovered(VertexId),
        /// A graph edge is contained in no bag.
        EdgeNotCovered(VertexId, VertexId),
        /// The bags containing this vertex do not form a connected subtree.
        VertexNotConnected(VertexId),
        /// The bag tree contains a cycle or is disconnected.
        NotATree,
        /// A tree edge refers to a bag that does not exist.
        DanglingTreeEdge(BagId, BagId),
    }
    display {
        Self::VertexNotCovered(v) => "vertex {v} appears in no bag",
        Self::EdgeNotCovered(u, v) => "edge {{{u}, {v}}} is contained in no bag",
        Self::VertexNotConnected(v) => "the bags containing {v} are not connected in the tree",
        Self::NotATree => "the bag graph is not a tree",
        Self::DanglingTreeEdge(a, b) => "tree edge ({a}, {b}) refers to a missing bag",
    }
}

/// A tree decomposition: a set of bags and a tree structure over them.
///
/// Bags and tree adjacency are sorted, deduplicated vectors: a few words
/// per bag, read front to back by every pass over the decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// `bags[b]` is the (sorted, deduplicated) content of bag `b`.
    bags: Vec<Vec<VertexId>>,
    /// Adjacency of the bag tree (sorted, deduplicated).
    tree: Vec<Vec<usize>>,
    /// What [`TreeDecomposition::project`] looks up, built on first use and
    /// dropped by every change to the bags or the tree.
    index: IndexMemo,
}

/// The lookup structure of [`TreeDecomposition::project`], with the bag
/// tree rooted at bag 0: which bags hold each vertex, each bag's position
/// in depth-first preorder (`preorder`, [`UNREACHED`] for bags not
/// connected to bag 0), and, by preorder position, the last position in
/// its subtree (so `a` is an ancestor of `b` exactly when `b`'s position
/// lies in `a`'s range) and its breadth-first rank.
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

/// Inserts `value` into the sorted, deduplicated `items`; `true` if it was
/// absent.
fn insert_sorted<T: Ord>(items: &mut Vec<T>, value: T) -> bool {
    match items.binary_search(&value) {
        Ok(_) => false,
        Err(at) => {
            items.insert(at, value);
            true
        }
    }
}

/// True when every element of sorted `small` is in sorted `large`.
fn is_sorted_subset<T: Ord>(small: &[T], large: &[T]) -> bool {
    small.len() <= large.len() && small.iter().all(|x| large.binary_search(x).is_ok())
}

fn sorted_set(content: impl IntoIterator<Item = VertexId>) -> Vec<VertexId> {
    let mut bag: Vec<VertexId> = content.into_iter().collect();
    bag.sort_unstable();
    bag.dedup();
    bag
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
        td.add_bag(g.vertices());
        td
    }

    /// A decomposition from its parts, which must already be in the stored
    /// form: every bag and every tree adjacency list sorted and
    /// deduplicated, and the adjacency symmetric.
    pub(crate) fn from_sorted_parts(
        bags: Vec<Vec<VertexId>>,
        tree: Vec<Vec<usize>>,
    ) -> TreeDecomposition {
        debug_assert_eq!(bags.len(), tree.len());
        debug_assert!(bags.iter().all(|b| b.windows(2).all(|w| w[0] < w[1])));
        debug_assert!(tree.iter().all(|t| t.windows(2).all(|w| w[0] < w[1])));
        TreeDecomposition {
            bags,
            tree,
            index: IndexMemo::default(),
        }
    }

    /// Adds a bag with the given content and returns its identifier.
    pub fn add_bag(&mut self, content: impl IntoIterator<Item = VertexId>) -> BagId {
        self.index.0.take();
        self.bags.push(sorted_set(content));
        self.tree.push(Vec::new());
        BagId(self.bags.len() - 1)
    }

    /// Connects two bags in the tree. Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either bag does not exist.
    pub fn add_tree_edge(&mut self, a: BagId, b: BagId) {
        assert!(
            a.0 < self.bags.len() && b.0 < self.bags.len(),
            "bag out of range"
        );
        if a != b {
            self.index.0.take();
            insert_sorted(&mut self.tree[a.0], b.0);
            insert_sorted(&mut self.tree[b.0], a.0);
        }
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.bags.len()
    }

    /// Adds a vertex to an existing bag (used by incremental repair).
    /// Returns `true` if the vertex was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the bag does not exist.
    pub fn add_to_bag(&mut self, b: BagId, v: VertexId) -> bool {
        self.index.0.take();
        insert_sorted(&mut self.bags[b.0], v)
    }

    /// Returns a copy of the decomposition with every vertex `v` replaced by
    /// `map[v.0]`. Used when the decomposed graph is renumbered (e.g. the
    /// pcc joint graph shifts its gate vertices when constants are
    /// inserted): an injective remap preserves validity verbatim.
    ///
    /// # Panics
    ///
    /// Panics if a bag contains a vertex outside `map`.
    pub fn remap_vertices(&self, map: &[VertexId]) -> TreeDecomposition {
        TreeDecomposition {
            bags: self
                .bags
                .iter()
                .map(|bag| sorted_set(bag.iter().map(|v| map[v.0])))
                .collect(),
            tree: self.tree.clone(),
            index: IndexMemo::default(),
        }
    }

    /// The content of a bag, sorted.
    pub fn bag(&self, b: BagId) -> &[VertexId] {
        &self.bags[b.0]
    }

    /// Iterator over all bag identifiers.
    pub fn bag_ids(&self) -> impl Iterator<Item = BagId> {
        (0..self.bags.len()).map(BagId)
    }

    /// Neighbours of a bag in the tree.
    pub fn tree_neighbors(&self, b: BagId) -> impl Iterator<Item = BagId> + '_ {
        self.tree[b.0].iter().map(|&i| BagId(i))
    }

    /// Iterator over tree edges, each yielded once with `a < b`.
    pub fn tree_edges(&self) -> impl Iterator<Item = (BagId, BagId)> + '_ {
        self.tree.iter().enumerate().flat_map(|(a, ns)| {
            ns.iter()
                .filter(move |&&b| a < b)
                .map(move |&b| (BagId(a), BagId(b)))
        })
    }

    /// The width of the decomposition: `max |bag| - 1` (`0` when empty).
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// The largest bag size (width + 1 for non-empty decompositions).
    pub fn max_bag_size(&self) -> usize {
        self.bags.iter().map(|b| b.len()).max().unwrap_or(0)
    }

    /// Checks all three tree-decomposition conditions against `g`.
    ///
    /// Linear in the size of the decomposition plus the graph (times a
    /// `log w` bag lookup). One pass roots the bag tree; one pass over the
    /// bags finds, for every vertex, the bags containing it whose parent
    /// does not (its *tops*): none means uncovered, more than one means its
    /// bags are not connected. An edge between two vertices with one top
    /// each is covered exactly when one top bag holds the other endpoint
    /// (two connected subtrees meet iff one's top lies in the other); any
    /// other edge is looked up through per-vertex bag lists. The first
    /// violation is reported in a fixed order: tree shape, then the first
    /// uncovered vertex, the first uncovered edge and the first vertex with
    /// disconnected occurrences, each in the graph's iteration order.
    pub fn validate(&self, g: &Graph) -> Result<(), DecompositionError> {
        let parents = self.validate_tree_shape()?;
        let n = g.vertex_count();
        let mut tops = vec![0u8; n];
        let mut top_bag = vec![0u32; n];
        for (b, (bag, &parent)) in self.bags.iter().zip(&parents).enumerate() {
            let parent_bag = (parent != NO_PARENT).then(|| &self.bags[parent as usize]);
            for v in bag {
                if v.0 < n && parent_bag.is_none_or(|p| p.binary_search(v).is_err()) {
                    tops[v.0] = tops[v.0].saturating_add(1);
                    top_bag[v.0] = bag_index(b);
                }
            }
        }
        let holds = |b: usize, v: VertexId| self.bags[b].binary_search(&v).is_ok();

        // Condition 1: vertex coverage.
        if let Some(v) = g.vertices().find(|v| tops[v.0] == 0) {
            return Err(DecompositionError::VertexNotCovered(v));
        }

        // Condition 2: edge coverage.
        let mut occurrences = None;
        for (u, v) in g.edges() {
            let covered = if tops[u.0] == 1 && tops[v.0] == 1 {
                holds(top_bag[u.0] as usize, v) || holds(top_bag[v.0] as usize, u)
            } else {
                let occurrences = occurrences.get_or_insert_with(|| occurrences_of(self, n));
                let (rare, other) = if occurrences.get(u.0).len() <= occurrences.get(v.0).len() {
                    (u, v)
                } else {
                    (v, u)
                };
                occurrences.get(rare.0).iter().any(|&b| holds(b, other))
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

    /// Checks that the bags form one tree, and returns each bag's parent
    /// with the tree rooted at bag 0 ([`NO_PARENT`] for the root).
    fn validate_tree_shape(&self) -> Result<Vec<u32>, DecompositionError> {
        let n = self.bags.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut degree_sum = 0;
        for (a, ns) in self.tree.iter().enumerate() {
            if let Some(&b) = ns.iter().find(|&&b| b >= n) {
                return Err(DecompositionError::DanglingTreeEdge(BagId(a), BagId(b)));
            }
            degree_sum += ns.len();
        }
        // A connected graph on n nodes with n - 1 edges is a tree.
        if degree_sum / 2 != n - 1 {
            return Err(DecompositionError::NotATree);
        }
        let mut parents = vec![NO_PARENT; n];
        let mut stack = vec![0usize];
        let mut count = 1;
        while let Some(a) = stack.pop() {
            for &b in &self.tree[a] {
                if b != 0 && parents[b] == NO_PARENT {
                    parents[b] = bag_index(a);
                    count += 1;
                    stack.push(b);
                }
            }
        }
        if count != n {
            return Err(DecompositionError::NotATree);
        }
        Ok(parents)
    }

    /// Connects the bag tree into a single tree if it currently consists of
    /// several components (e.g. when the decomposed graph was disconnected).
    /// New edges are added between arbitrary representatives; this never
    /// breaks validity because the linked components share no vertices.
    pub fn connect_components(&mut self) {
        let n = self.bags.len();
        if n == 0 {
            return;
        }
        let mut seen = vec![false; n];
        let mut representatives = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            representatives.push(start);
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(a) = queue.pop_front() {
                for &b in &self.tree[a] {
                    if !seen[b] {
                        seen[b] = true;
                        queue.push_back(b);
                    }
                }
            }
        }
        for pair in representatives.windows(2) {
            self.add_tree_edge(BagId(pair[0]), BagId(pair[1]));
        }
    }

    /// The decomposition restricted to the vertices of `kept` (sorted,
    /// deduplicated): every bag is intersected with them, bags left empty
    /// are dropped, a bag whose content is contained in (or contains) its
    /// kept parent's is merged into it, and the trees left after dropping
    /// are linked back into one. Bags are taken in breadth-first order from
    /// bag 0; bags not connected to it are left out.
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
        if self.bags.is_empty() {
            return projected;
        }
        let index = self.index.0.get_or_init(|| ProjectionIndex::of(self));
        // One `(preorder position, vertex)` slot per kept vertex of each
        // bag holding one: sorted, each touched bag is a run of slots, in
        // preorder, listing its kept content in order.
        let mut slots: Vec<u64> = kept
            .iter()
            .flat_map(|&v| {
                index.occurrences.get(v.0).iter().filter_map(move |&b| {
                    let position = index.preorder[b];
                    (position != UNREACHED).then(|| u64::from(position) << 32 | vertex_index(v))
                })
            })
            .collect();
        slots.sort_unstable();
        let mut touched: Vec<(u32, Vec<VertexId>)> = slots
            .chunk_by(|a, b| a >> 32 == b >> 32)
            .map(|run| {
                let content = run.iter().map(|&slot| VertexId(slot as u32 as usize));
                ((run[0] >> 32) as u32, content.collect())
            })
            .collect();
        // above[i]: the nearest touched ancestor of touched[i], read off
        // the stack of touched bags on the current root path.
        let mut above: Vec<Option<usize>> = Vec::with_capacity(touched.len());
        let mut path: Vec<usize> = Vec::new();
        for (i, &(position, _)) in touched.iter().enumerate() {
            while path
                .last()
                .is_some_and(|&top| index.subtree_end[touched[top].0 as usize] < position)
            {
                path.pop();
            }
            above.push(path.last().copied());
            path.push(i);
        }
        // into[i]: the projected bag touched[i] was merged into. Parents
        // come before children in breadth-first order.
        let mut order: Vec<u64> = touched
            .iter()
            .enumerate()
            .map(|(i, &(position, _))| {
                u64::from(index.bfs_rank[position as usize]) << 32 | i as u64
            })
            .collect();
        order.sort_unstable();
        let mut into = vec![0usize; touched.len()];
        for i in order.into_iter().map(|key| key as u32 as usize) {
            let content = std::mem::take(&mut touched[i].1);
            let above = above[i].map(|a| into[a]);
            into[i] = match above {
                Some(a) if is_sorted_subset(&content, &projected.bags[a]) => a,
                Some(a) if is_sorted_subset(&projected.bags[a], &content) => {
                    projected.bags[a] = content;
                    a
                }
                _ => {
                    // Already sorted and deduplicated: no `add_bag` copy.
                    projected.bags.push(content);
                    projected.tree.push(Vec::new());
                    let id = BagId(projected.bags.len() - 1);
                    // A bag with no kept ancestor starts a new tree: hang
                    // it under the first one.
                    projected.add_tree_edge(BagId(above.unwrap_or(0)), id);
                    id.0
                }
            };
        }
        projected
    }

    /// Returns a bag containing all of `vertices`, if any.
    pub fn find_bag_containing(&self, vertices: &[VertexId]) -> Option<BagId> {
        self.bags
            .iter()
            .position(|b| vertices.iter().all(|v| b.binary_search(v).is_ok()))
            .map(BagId)
    }

    /// Returns a root bag and, for every bag, its parent under that rooting
    /// (`None` for the root). Useful for bottom-up dynamic programming.
    pub fn root_at(&self, root: BagId) -> Vec<Option<BagId>> {
        let n = self.bags.len();
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([root.0]);
        seen[root.0] = true;
        while let Some(a) = queue.pop_front() {
            for &b in &self.tree[a] {
                if !seen[b] {
                    seen[b] = true;
                    parent[b] = Some(BagId(a));
                    queue.push_back(b);
                }
            }
        }
        parent
    }
}

/// The parent of the root in [`TreeDecomposition::validate_tree_shape`]
/// and in a [`FlatDecomposition`].
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A bag index in the `u32` form the validation arrays store.
fn bag_index(b: usize) -> u32 {
    u32::try_from(b).expect("a decomposition has fewer than 2^32 bags")
}

/// Per-vertex bag lists of a decomposition: the bags containing vertex
/// `v`, in increasing order. Vertices at or beyond `vertex_count` are left
/// out.
fn occurrences_of(td: &TreeDecomposition, vertex_count: usize) -> Groups<usize> {
    Groups::by_key(vertex_count, || {
        td.bags.iter().enumerate().flat_map(move |(b, bag)| {
            bag.iter()
                .map(|v| v.0)
                .filter(move |&v| v < vertex_count)
                .map(move |v| (v, b))
        })
    })
}

/// The preorder position of bags not connected to bag 0 in
/// [`ProjectionIndex`].
const UNREACHED: u32 = u32::MAX;

/// A vertex in the `u32` form projection slots pack.
fn vertex_index(v: VertexId) -> u64 {
    u64::from(u32::try_from(v.0).expect("a decomposition has fewer than 2^32 vertices"))
}

impl ProjectionIndex {
    /// Two linear passes: a breadth-first search from bag 0 gives the
    /// ranks and the parents, and a depth-first walk over those parents'
    /// tree gives the preorder (so both orders root the same tree,
    /// whatever the bag graph's shape).
    fn of(td: &TreeDecomposition) -> ProjectionIndex {
        let n = td.bags.len();
        let vertex_count = td
            .bags
            .iter()
            .filter_map(|bag| bag.last())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0);
        let mut rank_of_bag = vec![UNREACHED; n];
        let mut parent = vec![NO_PARENT; n];
        let mut queue = VecDeque::from([0usize]);
        rank_of_bag[0] = 0;
        let mut rank = 1;
        while let Some(a) = queue.pop_front() {
            for &b in &td.tree[a] {
                if rank_of_bag[b] == UNREACHED {
                    rank_of_bag[b] = rank;
                    rank += 1;
                    parent[b] = bag_index(a);
                    queue.push_back(b);
                }
            }
        }
        let mut preorder = vec![UNREACHED; n];
        let mut subtree_end = Vec::with_capacity(rank as usize);
        let mut bfs_rank = Vec::with_capacity(rank as usize);
        // (bag, next neighbour position to look at)
        let mut stack = vec![(0usize, 0usize)];
        preorder[0] = 0;
        subtree_end.push(0);
        bfs_rank.push(0);
        while let Some((a, next)) = stack.last_mut() {
            let a = *a;
            let child = td.tree[a][*next..]
                .iter()
                .position(|&b| parent[b] == bag_index(a));
            match child {
                Some(offset) => {
                    let b = td.tree[a][*next + offset];
                    *next += offset + 1;
                    preorder[b] = bag_index(subtree_end.len());
                    subtree_end.push(0);
                    bfs_rank.push(rank_of_bag[b]);
                    stack.push((b, 0));
                }
                None => {
                    subtree_end[preorder[a] as usize] = bag_index(subtree_end.len() - 1);
                    stack.pop();
                }
            }
        }
        ProjectionIndex {
            occurrences: occurrences_of(td, vertex_count),
            preorder,
            subtree_end,
            bfs_rank,
        }
    }
}

/// A tree decomposition in the flat form the elimination core writes
/// ([`crate::elimination::decompose_adjacency`]) and the nice builder reads
/// ([`crate::nice::NiceDecomposition::from_flat`]): bag `b` is
/// `vertices[bounds[b]..bounds[b + 1]]`, sorted, and the bag tree is
/// rooted at bag 0, `parent[b]` naming the parent of bag `b`. Three
/// allocations whatever the bag count, four bytes per bag entry.
#[derive(Debug, Clone)]
pub struct FlatDecomposition {
    bounds: Box<[u32]>,
    vertices: Box<[u32]>,
    parent: Box<[u32]>,
}

impl FlatDecomposition {
    /// The decomposition an elimination wrote: bags in `bounds` and
    /// `vertices`, and each bag's link to a later bag (`NO_PARENT` for the
    /// last bag of each tree of the forest). The forest is rooted at bag 0
    /// and its trees are linked at their first bags, each to the previous
    /// tree's, as [`TreeDecomposition::connect_components`] links them.
    pub(crate) fn from_elimination(
        bounds: Vec<u32>,
        vertices: Vec<u32>,
        mut parent: Vec<u32>,
    ) -> FlatDecomposition {
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
        FlatDecomposition {
            bounds: bounds.into_boxed_slice(),
            vertices: vertices.into_boxed_slice(),
            parent: parent.into_boxed_slice(),
        }
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.parent.len()
    }

    /// The sorted content of bag `b`.
    pub fn bag(&self, b: usize) -> &[u32] {
        &self.vertices[self.bounds[b] as usize..self.bounds[b + 1] as usize]
    }

    /// The parent of bag `b`, with the tree rooted at bag 0.
    pub fn parent(&self, b: usize) -> Option<usize> {
        Some(self.parent[b])
            .filter(|&p| p != NO_PARENT)
            .map(|p| p as usize)
    }

    /// Maximum bag size minus one (0 for an empty decomposition).
    pub fn width(&self) -> usize {
        self.bounds
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// The same decomposition as a [`TreeDecomposition`].
    pub fn to_tree_decomposition(&self) -> TreeDecomposition {
        let n = self.bag_count();
        let bags = (0..n)
            .map(|b| self.bag(b).iter().map(|&v| VertexId(v as usize)).collect())
            .collect();
        let mut tree = vec![Vec::new(); n];
        for b in 0..n {
            if let Some(p) = self.parent(b) {
                tree[b].push(p);
                tree[p].push(b);
            }
        }
        for list in &mut tree {
            list.sort_unstable();
        }
        TreeDecomposition::from_sorted_parts(bags, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::{decompose_with_heuristic, EliminationHeuristic};
    use crate::generators::{self, SplitMix64};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The quadratic validator `validate` replaced: every edge checked
    /// against every bag, and each vertex's bags connected by a search.
    /// Kept as the reference the linear validator must agree with, error
    /// for error.
    fn validate_by_scan(td: &TreeDecomposition, g: &Graph) -> Result<(), DecompositionError> {
        td.validate_tree_shape()?;
        let mut covered = vec![false; g.vertex_count()];
        for bag in &td.bags {
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
            if !td.bags.iter().any(|b| b.contains(&u) && b.contains(&v)) {
                return Err(DecompositionError::EdgeNotCovered(u, v));
            }
        }
        let mut occurrence: HashMap<VertexId, Vec<usize>> = HashMap::new();
        for (i, bag) in td.bags.iter().enumerate() {
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
                for &b in &td.tree[a] {
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
    /// indexed projection must reproduce bag for bag and edge for edge.
    fn project_by_scan(
        td: &TreeDecomposition,
        keep: impl Fn(VertexId) -> bool,
    ) -> TreeDecomposition {
        let mut projected = TreeDecomposition::new();
        if td.bags.is_empty() {
            return projected;
        }
        // into[b]: the projected bag `b` was merged into, or for an emptied
        // bag the one its nearest kept ancestor was merged into.
        let mut into: Vec<Option<usize>> = vec![None; td.bags.len()];
        let mut seen = vec![false; td.bags.len()];
        let mut queue = VecDeque::from([(0usize, None::<usize>)]);
        seen[0] = true;
        while let Some((b, parent)) = queue.pop_front() {
            let content: Vec<VertexId> = td.bags[b].iter().copied().filter(|&v| keep(v)).collect();
            let above = parent.and_then(|p| into[p]);
            into[b] = match above {
                _ if content.is_empty() => above,
                Some(a) if is_sorted_subset(&content, &projected.bags[a]) => Some(a),
                Some(a) if is_sorted_subset(&projected.bags[a], &content) => {
                    projected.bags[a] = content;
                    Some(a)
                }
                _ => {
                    let id = projected.add_bag(content);
                    projected.add_tree_edge(BagId(above.unwrap_or(0)), id);
                    Some(id.0)
                }
            };
            for &c in &td.tree[b] {
                if !seen[c] {
                    seen[c] = true;
                    queue.push_back((c, Some(b)));
                }
            }
        }
        projected
    }

    /// The projection, checked against the scan: same bags in the same
    /// order, same tree edges.
    fn assert_projects_like_the_scan(td: &TreeDecomposition, keep: &[bool]) {
        let kept: Vec<VertexId> = (0..keep.len()).filter(|&v| keep[v]).map(VertexId).collect();
        let projected = td.project(&kept);
        let reference = project_by_scan(td, |v| keep.get(v.0).copied().unwrap_or(false));
        assert_eq!(projected.bags, reference.bags);
        assert_eq!(projected.tree, reference.tree);
    }

    /// Applies `edits` random corruptions: a vertex dropped from or added
    /// to a bag (sometimes one beyond the graph), a tree edge moved, or a
    /// bag appended dangling or linked.
    fn corrupt(td: &mut TreeDecomposition, vertices: usize, edits: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..edits {
            let bags = td.bags.len();
            if bags == 0 {
                td.add_bag([VertexId(rng.next_below(vertices + 2))]);
                continue;
            }
            let b = rng.next_below(bags);
            match rng.next_below(5) {
                0 => {
                    if !td.bags[b].is_empty() {
                        let at = rng.next_below(td.bags[b].len());
                        td.bags[b].remove(at);
                    }
                }
                1 => {
                    td.add_to_bag(BagId(b), VertexId(rng.next_below(vertices + 2)));
                }
                2 => {
                    if let Some(&c) = td.tree[b].first() {
                        td.tree[b].retain(|&x| x != c);
                        td.tree[c].retain(|&x| x != b);
                        td.add_tree_edge(BagId(b), BagId(rng.next_below(bags)));
                    }
                }
                3 => {
                    td.add_tree_edge(BagId(b), BagId(rng.next_below(bags)));
                }
                _ => {
                    let added = td.add_bag([VertexId(rng.next_below(vertices + 1))]);
                    if rng.next_bool(0.5) {
                        td.add_tree_edge(added, BagId(b));
                    }
                }
            }
        }
        // Some edits above write the fields directly.
        td.index = IndexMemo::default();
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
                // leaf bags (some over vertices beyond the graph), grown
                // bags, and a bag left unlinked.
                for _ in 0..3 {
                    let b = BagId(rng.next_below(td.bag_count()));
                    let v = VertexId(rng.next_below(n + 2));
                    match rng.next_below(3) {
                        0 => {
                            let leaf = td.add_bag([v, VertexId(rng.next_below(n + 2))]);
                            td.add_tree_edge(b, leaf);
                        }
                        1 => {
                            td.add_to_bag(b, v);
                        }
                        _ => {
                            td.add_bag([v]);
                        }
                    }
                    let keep: Vec<bool> =
                        (0..n + 2).map(|_| rng.next_bool(keep_probability)).collect();
                    assert_projects_like_the_scan(&td, &keep);
                }
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
        assert_eq!(projected.tree_edges().count(), 1);
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
            let b = td.add_bag([VertexId(i), VertexId(i + 1)]);
            if let Some(p) = prev {
                td.add_tree_edge(p, b);
            }
            prev = Some(b);
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
    }

    #[test]
    fn missing_vertex_is_detected() {
        let g = path_graph(3);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag([VertexId(0), VertexId(1)]);
        let b = td.add_bag([VertexId(1)]);
        td.add_tree_edge(a, b);
        assert_eq!(
            td.validate(&g),
            Err(DecompositionError::VertexNotCovered(VertexId(2)))
        );
    }

    #[test]
    fn missing_edge_is_detected() {
        let g = path_graph(3);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag([VertexId(0), VertexId(1)]);
        let b = td.add_bag([VertexId(2)]);
        td.add_tree_edge(a, b);
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
        let a = td.add_bag([VertexId(0), VertexId(1)]);
        let b = td.add_bag([VertexId(1), VertexId(2)]);
        let c = td.add_bag([VertexId(0), VertexId(2)]);
        td.add_tree_edge(a, b);
        td.add_tree_edge(b, c);
        assert_eq!(
            td.validate(&g),
            Err(DecompositionError::VertexNotConnected(VertexId(0)))
        );
    }

    #[test]
    fn disconnected_bag_tree_is_rejected() {
        let g = path_graph(4);
        let mut td = TreeDecomposition::new();
        td.add_bag([VertexId(0), VertexId(1)]);
        td.add_bag([VertexId(1), VertexId(2)]);
        td.add_bag([VertexId(2), VertexId(3)]);
        // No tree edges at all: 3 bags, 0 edges → not a tree.
        assert_eq!(td.validate(&g), Err(DecompositionError::NotATree));
    }

    #[test]
    fn connect_components_repairs_forest() {
        let g = path_graph(4);
        let mut td = TreeDecomposition::new();
        let a = td.add_bag([VertexId(0), VertexId(1)]);
        let b = td.add_bag([VertexId(1), VertexId(2)]);
        let _c = td.add_bag([VertexId(2), VertexId(3)]);
        td.add_tree_edge(a, b);
        // the third bag is dangling; repair.
        td.connect_components();
        assert!(td.validate(&g).is_err() || td.validate(&g).is_ok());
        // After connecting, the tree shape is fine; running intersection may
        // still fail depending on which representative got linked, but for
        // this instance bag c shares vertex 2 with b only; the representative
        // of c's component is c itself and of the first component is a, so
        // vertex 2's occurrences {b, c} may be disconnected. We only assert
        // the tree shape here.
        assert!(td.validate_tree_shape().is_ok());
    }

    #[test]
    fn root_at_produces_parents() {
        let td = path_decomposition(5);
        let parents = td.root_at(BagId(0));
        assert_eq!(parents[0], None);
        assert_eq!(parents[1], Some(BagId(0)));
        assert_eq!(parents[3], Some(BagId(2)));
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
