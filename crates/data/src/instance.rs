//! Plain relational instances over interned constants.
//!
//! An [`Instance`] is a bag of ground facts `R(c₁, …, cₖ)`. Constants and
//! relation names are interned to dense identifiers so that the structural
//! algorithms (Gaifman graphs, tree decompositions, tree encodings) can work
//! with plain indices.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use stuc_circuit::identity::ContentHasher;
use stuc_graph::graph::{Graph, VertexId};

/// An interned relation name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(pub usize);

/// An interned constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstId(pub usize);

/// The position of a fact within its instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactId(pub usize);

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A ground fact: a relation applied to constants.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    /// The relation symbol.
    pub relation: RelId,
    /// The arguments, in order.
    pub args: Vec<ConstId>,
}

/// A relational instance: interned vocabulary plus a list of facts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Instance {
    relation_names: Vec<String>,
    relation_index: BTreeMap<String, RelId>,
    constant_names: Vec<String>,
    constant_index: BTreeMap<String, ConstId>,
    facts: Vec<Fact>,
    /// Number of facts per relation, indexed by `RelId`.
    relation_sizes: Vec<usize>,
    /// The fact index, Gaifman graph and content identity, each built on
    /// first use and dropped by every change it depends on.
    derived: DerivedMemo,
}

/// The facts of an [`Instance`] by relation and by `(relation, position,
/// constant)`: what a join with some arguments already bound looks up
/// instead of scanning a relation. Built in one linear pass by
/// [`Instance::fact_index`], memoised, and kept up to date by
/// [`Instance::add_fact`] until a removal renumbers the facts.
#[derive(Debug)]
pub struct FactIndex {
    /// The facts of each relation, in id order.
    relation_facts: Vec<Vec<FactId>>,
    /// The occurrences of constant `c` when the index was built are the
    /// entries `constant_starts[c]..constant_starts[c + 1]` of
    /// `occurrence_keys` (`(relation, position)`) and `occurrence_facts`,
    /// sorted by key and then by fact id.
    constant_starts: Vec<usize>,
    occurrence_keys: Vec<(RelId, usize)>,
    occurrence_facts: Vec<FactId>,
    /// Every `(constant, relation, position)` a fact added since the build
    /// holds: its whole run of facts, in id order. It replaces the built
    /// run.
    appended: HashMap<(ConstId, RelId, usize), Vec<FactId>>,
}

impl FactIndex {
    fn build(instance: &Instance) -> FactIndex {
        // Facts by relation, then a counting sort of the argument slots by
        // constant. (`add_fact` takes identifiers that need not be
        // interned, hence the growth check.)
        let mut relation_facts: Vec<Vec<FactId>> = instance
            .relation_sizes
            .iter()
            .map(|&size| Vec::with_capacity(size))
            .collect();
        let mut constant_starts = vec![0usize; instance.constant_count() + 1];
        for (id, fact) in instance.facts() {
            relation_facts[fact.relation.0].push(id);
            for c in &fact.args {
                if constant_starts.len() < c.0 + 2 {
                    constant_starts.resize(c.0 + 2, 0);
                }
                constant_starts[c.0 + 1] += 1;
            }
        }
        for i in 1..constant_starts.len() {
            constant_starts[i] += constant_starts[i - 1];
        }
        // Distributing the argument slots in (relation, position, fact)
        // order leaves every constant's range sorted the same way.
        let mut constant_next = constant_starts.clone();
        let occurrences = constant_starts[constant_starts.len() - 1];
        let mut occurrence_keys = vec![(RelId(0), 0); occurrences];
        let mut occurrence_facts = vec![FactId(0); occurrences];
        for (r, facts) in relation_facts.iter().enumerate() {
            let arity = facts
                .iter()
                .map(|&f| instance.fact(f).args.len())
                .max()
                .unwrap_or(0);
            for position in 0..arity {
                for &f in facts {
                    if let Some(c) = instance.fact(f).args.get(position) {
                        let at = constant_next[c.0];
                        occurrence_keys[at] = (RelId(r), position);
                        occurrence_facts[at] = f;
                        constant_next[c.0] += 1;
                    }
                }
            }
        }
        FactIndex {
            relation_facts,
            constant_starts,
            occurrence_keys,
            occurrence_facts,
            appended: HashMap::new(),
        }
    }

    /// Indexes fact `id`, which must be the instance's newest fact. Costs
    /// O(arity) hash-map pushes, plus a copy of the built run the first
    /// time a `(constant, relation, position)` gains a fact.
    fn append(&mut self, id: FactId, fact: &Fact) {
        if self.relation_facts.len() <= fact.relation.0 {
            self.relation_facts.resize(fact.relation.0 + 1, Vec::new());
        }
        self.relation_facts[fact.relation.0].push(id);
        for (position, &c) in fact.args.iter().enumerate() {
            let key = (c, fact.relation, position);
            if !self.appended.contains_key(&key) {
                let built = self.built_facts_with(fact.relation, position, c).to_vec();
                self.appended.insert(key, built);
            }
            self.appended.get_mut(&key).expect("just inserted").push(id);
        }
    }

    /// The facts of `relation`, in id order.
    pub fn facts_of(&self, relation: RelId) -> &[FactId] {
        self.relation_facts
            .get(relation.0)
            .map_or(&[], Vec::as_slice)
    }

    /// The facts of `relation` whose argument at `position` is `constant`,
    /// in id order.
    pub fn facts_with(&self, relation: RelId, position: usize, constant: ConstId) -> &[FactId] {
        if !self.appended.is_empty() {
            if let Some(run) = self.appended.get(&(constant, relation, position)) {
                return run;
            }
        }
        self.built_facts_with(relation, position, constant)
    }

    /// [`FactIndex::facts_with`] as of the build.
    fn built_facts_with(&self, relation: RelId, position: usize, constant: ConstId) -> &[FactId] {
        let Some(&[start, end]) = self.constant_starts.get(constant.0..constant.0 + 2) else {
            return &[];
        };
        let keys = &self.occurrence_keys[start..end];
        let key = (relation, position);
        let low = keys.partition_point(|&k| k < key);
        let high = low + keys[low..].partition_point(|&k| k == key);
        &self.occurrence_facts[start + low..start + high]
    }
}

/// What an [`Instance`] derives from its content, each part built on first
/// use: the [`FactIndex`], the Gaifman graph and the content identity. Like
/// the content memos of the uncertain representations it is invisible: it
/// always compares equal, renders as nothing and is never hashed.
///
/// Each part follows exactly the changes it depends on: a fact insertion
/// appends to the index and drops the graph and the identity, a fact
/// removal (which renumbers the facts) drops all three, interning a new
/// constant drops the graph (a new vertex) and the identity, interning a
/// new relation name drops the identity. A clone shares the graph and the
/// identity (an `Arc` and a pair, cheap and equal for equal content) but
/// starts without an index (a copy is usually made to be mutated).
#[derive(Default)]
struct DerivedMemo {
    index: OnceLock<FactIndex>,
    graph: OnceLock<Arc<Graph>>,
    identity: OnceLock<(u64, u64)>,
}

impl DerivedMemo {
    fn facts_removed(&mut self) {
        self.index.take();
        self.graph.take();
        self.identity.take();
    }
}

impl Clone for DerivedMemo {
    fn clone(&self) -> DerivedMemo {
        DerivedMemo {
            index: OnceLock::new(),
            graph: self.graph.clone(),
            identity: self.identity.clone(),
        }
    }
}

impl PartialEq for DerivedMemo {
    fn eq(&self, _: &DerivedMemo) -> bool {
        true
    }
}

impl fmt::Debug for DerivedMemo {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        Ok(())
    }
}

/// Hashes the content that determines equality: the interned names and the
/// facts (the name indexes and per-relation counts are functions of them).
impl Hash for Instance {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.relation_names.hash(state);
        self.constant_names.hash(state);
        self.facts.hash(state);
    }
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a relation name.
    pub fn relation(&mut self, name: &str) -> RelId {
        if let Some(&id) = self.relation_index.get(name) {
            return id;
        }
        let id = RelId(self.relation_names.len());
        self.derived.identity.take();
        self.relation_names.push(name.to_string());
        self.relation_index.insert(name.to_string(), id);
        self.relation_sizes.push(0);
        id
    }

    /// Interns a constant name.
    pub fn constant(&mut self, name: &str) -> ConstId {
        if let Some(&id) = self.constant_index.get(name) {
            return id;
        }
        let id = ConstId(self.constant_names.len());
        self.derived.graph.take();
        self.derived.identity.take();
        self.constant_names.push(name.to_string());
        self.constant_index.insert(name.to_string(), id);
        id
    }

    /// Looks up a relation by name without interning.
    pub fn find_relation(&self, name: &str) -> Option<RelId> {
        self.relation_index.get(name).copied()
    }

    /// Looks up a constant by name without interning.
    pub fn find_constant(&self, name: &str) -> Option<ConstId> {
        self.constant_index.get(name).copied()
    }

    /// The name of a relation.
    pub fn relation_name(&self, r: RelId) -> &str {
        &self.relation_names[r.0]
    }

    /// The name of a constant.
    pub fn constant_name(&self, c: ConstId) -> &str {
        &self.constant_names[c.0]
    }

    /// Number of distinct constants.
    pub fn constant_count(&self) -> usize {
        self.constant_names.len()
    }

    /// Number of distinct relation symbols.
    pub fn relation_count(&self) -> usize {
        self.relation_names.len()
    }

    /// Adds a fact from already-interned identifiers and returns its id.
    pub fn add_fact(&mut self, relation: RelId, args: Vec<ConstId>) -> FactId {
        if self.relation_sizes.len() <= relation.0 {
            self.relation_sizes.resize(relation.0 + 1, 0);
        }
        self.relation_sizes[relation.0] += 1;
        self.derived.graph.take();
        self.derived.identity.take();
        self.facts.push(Fact { relation, args });
        let id = FactId(self.facts.len() - 1);
        if let Some(index) = self.derived.index.get_mut() {
            index.append(id, &self.facts[id.0]);
        }
        id
    }

    /// Adds a fact given by names, interning as needed.
    pub fn add_fact_named(&mut self, relation: &str, args: &[&str]) -> FactId {
        let r = self.relation(relation);
        let a = args.iter().map(|s| self.constant(s)).collect();
        self.add_fact(r, a)
    }

    /// Number of facts.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Removes a fact, returning it. Later facts shift down by one, so every
    /// `FactId` greater than `f` now names the next fact — callers that hold
    /// fact identifiers across a removal must renumber them (the incremental
    /// update subsystem does exactly this). Interned constants and relation
    /// names are never removed.
    ///
    /// # Panics
    ///
    /// Panics if the fact does not exist.
    pub fn remove_fact(&mut self, f: FactId) -> Fact {
        let fact = self.facts.remove(f.0);
        self.relation_sizes[fact.relation.0] -= 1;
        self.derived.facts_removed();
        fact
    }

    /// Access a fact by id.
    pub fn fact(&self, f: FactId) -> &Fact {
        &self.facts[f.0]
    }

    /// Iterator over `(id, fact)`.
    pub fn facts(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts.iter().enumerate().map(|(i, f)| (FactId(i), f))
    }

    /// Number of facts of a given relation, kept up to date by every
    /// insertion and removal (O(1), no scan).
    pub fn relation_size(&self, relation: RelId) -> usize {
        self.relation_sizes.get(relation.0).copied().unwrap_or(0)
    }

    /// All fact ids of a given relation, in id order, read from the
    /// [`FactIndex`] (built on the first call after a fact removal).
    pub fn facts_of(&self, relation: RelId) -> &[FactId] {
        self.fact_index().facts_of(relation)
    }

    /// The [`FactIndex`] of the current facts: built in one linear pass on
    /// the first call after a fact removal, kept up to date by insertions,
    /// and shared by every later call (concurrent first calls all get the
    /// one stored index).
    pub fn fact_index(&self) -> &FactIndex {
        self.derived.index.get_or_init(|| FactIndex::build(self))
    }

    /// True while the [`FactIndex`] of the current facts is memoised.
    pub fn is_fact_indexed(&self) -> bool {
        self.derived.index.get().is_some()
    }

    /// True if the instance contains the exact fact.
    pub fn contains(&self, relation: RelId, args: &[ConstId]) -> bool {
        self.find_fact(relation, args).is_some()
    }

    /// The first fact equal to `relation(args)`, by a scan (no index is
    /// built, so it is cheap between fact changes).
    pub fn find_fact(&self, relation: RelId, args: &[ConstId]) -> Option<FactId> {
        self.facts
            .iter()
            .position(|f| f.relation == relation && f.args == args)
            .map(FactId)
    }

    /// Renders a fact for debugging and examples, e.g. `R(a, b)`.
    pub fn render_fact(&self, f: FactId) -> String {
        let fact = self.fact(f);
        let args: Vec<&str> = fact.args.iter().map(|&c| self.constant_name(c)).collect();
        format!("{}({})", self.relation_name(fact.relation), args.join(", "))
    }

    /// The Gaifman graph over *constants*: one vertex per constant, and a
    /// clique over the constants of every fact. Its treewidth is the
    /// treewidth the paper's Theorem 1 refers to ("the treewidth of a TID
    /// \[is\] that of its underlying relational instance").
    pub fn gaifman_graph(&self) -> Graph {
        let mut g = Graph::with_vertices(self.constant_count());
        for fact in &self.facts {
            let clique: Vec<VertexId> = fact
                .args
                .iter()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .map(|c| VertexId(c.0))
                .collect();
            g.add_clique(&clique);
        }
        g
    }

    /// The [`Instance::gaifman_graph`], built on the first call after a
    /// change of the facts or constants and then shared: every later call
    /// returns the same allocation, so `Arc::ptr_eq` between two calls
    /// proves the graph did not change in between.
    pub fn shared_gaifman_graph(&self) -> Arc<Graph> {
        Arc::clone(
            self.derived
                .graph
                .get_or_init(|| Arc::new(self.gaifman_graph())),
        )
    }

    /// The content identity `(primary, check)`: two independently keyed
    /// hashes of the interned names and the facts (see
    /// [`stuc_circuit::identity`]), computed once between changes. The
    /// uncertain representations built on an instance fold this pair into
    /// their own identity instead of rehashing the facts.
    pub fn content_identity(&self) -> (u64, u64) {
        *self.derived.identity.get_or_init(|| {
            let mut hasher = ContentHasher::new("Instance");
            self.hash(&mut hasher);
            hasher.finish_pair()
        })
    }

    /// The *fact graph*: one vertex per fact, with an edge between two facts
    /// that share a constant. Used by the tree-encoding step, which needs to
    /// place facts into bags of a decomposition.
    pub fn fact_graph(&self) -> Graph {
        let mut g = Graph::with_vertices(self.fact_count());
        // Group facts by constant to avoid the quadratic all-pairs scan.
        let mut by_constant: BTreeMap<ConstId, Vec<usize>> = BTreeMap::new();
        for (i, fact) in self.facts.iter().enumerate() {
            for &c in &fact.args {
                by_constant.entry(c).or_default().push(i);
            }
        }
        for (_, fact_ids) in by_constant {
            let clique: Vec<VertexId> = fact_ids
                .iter()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .map(|&i| VertexId(i))
                .collect();
            g.add_clique(&clique);
        }
        g
    }

    /// The set of constants used by a set of facts.
    pub fn constants_of_facts(&self, facts: &[FactId]) -> BTreeSet<ConstId> {
        facts
            .iter()
            .flat_map(|f| self.fact(*f).args.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuc_graph::exact::exact_treewidth;

    fn path_instance(n: usize) -> Instance {
        // R(c0, c1), R(c1, c2), ..., a path: Gaifman graph is a path.
        let mut inst = Instance::new();
        for i in 0..n {
            inst.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)]);
        }
        inst
    }

    #[test]
    fn interning_is_stable() {
        let mut inst = Instance::new();
        let r1 = inst.relation("R");
        let r2 = inst.relation("R");
        assert_eq!(r1, r2);
        let c1 = inst.constant("a");
        let c2 = inst.constant("a");
        assert_eq!(c1, c2);
        assert_eq!(inst.relation_name(r1), "R");
        assert_eq!(inst.constant_name(c1), "a");
    }

    #[test]
    fn add_and_lookup_facts() {
        let mut inst = Instance::new();
        let f = inst.add_fact_named("R", &["a", "b"]);
        assert_eq!(inst.fact_count(), 1);
        assert_eq!(inst.render_fact(f), "R(a, b)");
        let r = inst.find_relation("R").unwrap();
        let a = inst.find_constant("a").unwrap();
        let b = inst.find_constant("b").unwrap();
        assert!(inst.contains(r, &[a, b]));
        assert!(!inst.contains(r, &[b, a]));
    }

    #[test]
    fn facts_of_relation() {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["a", "b"]);
        inst.add_fact_named("S", &["a"]);
        inst.add_fact_named("R", &["b", "c"]);
        let r = inst.find_relation("R").unwrap();
        assert_eq!(inst.facts_of(r).len(), 2);
    }

    #[test]
    fn gaifman_graph_of_path_instance_is_a_path() {
        let inst = path_instance(5);
        let g = inst.gaifman_graph();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(exact_treewidth(&g), Some(1));
    }

    #[test]
    fn gaifman_graph_of_triangle() {
        let mut inst = Instance::new();
        inst.add_fact_named("E", &["a", "b"]);
        inst.add_fact_named("E", &["b", "c"]);
        inst.add_fact_named("E", &["c", "a"]);
        let g = inst.gaifman_graph();
        assert_eq!(exact_treewidth(&g), Some(2));
    }

    #[test]
    fn gaifman_handles_repeated_arguments() {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["a", "a"]);
        let g = inst.gaifman_graph();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn fact_graph_links_facts_sharing_constants() {
        let inst = path_instance(4);
        let g = inst.fact_graph();
        // Consecutive path facts share a constant.
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn fact_graph_of_star_shaped_joins() {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["hub", "x"]);
        inst.add_fact_named("R", &["hub", "y"]);
        inst.add_fact_named("R", &["hub", "z"]);
        let g = inst.fact_graph();
        assert_eq!(g.edge_count(), 3); // all pairs share "hub"
    }

    #[test]
    fn constants_of_facts_collects_all() {
        let mut inst = Instance::new();
        let f0 = inst.add_fact_named("R", &["a", "b"]);
        let f1 = inst.add_fact_named("S", &["b", "c"]);
        let cs = inst.constants_of_facts(&[f0, f1]);
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn ternary_relations_are_supported() {
        let mut inst = Instance::new();
        let f = inst.add_fact_named("T", &["a", "b", "c"]);
        assert_eq!(inst.fact(f).args.len(), 3);
        let g = inst.gaifman_graph();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn fact_index_answers_like_a_scan() {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["a", "b"]);
        inst.add_fact_named("S", &["b"]);
        inst.add_fact_named("R", &["b", "b"]);
        inst.add_fact_named("R", &["a", "c", "b"]);
        inst.add_fact_named("R", &["c", "a"]);
        let index = inst.fact_index();
        for name in ["R", "S"] {
            let relation = inst.find_relation(name).unwrap();
            let of_relation: Vec<FactId> = inst
                .facts()
                .filter(|(_, f)| f.relation == relation)
                .map(|(id, _)| id)
                .collect();
            assert_eq!(index.facts_of(relation), of_relation, "{name}");
            assert_eq!(inst.facts_of(relation), of_relation, "{name}");
            for position in 0..3 {
                for c in 0..inst.constant_count() {
                    let scan: Vec<FactId> = of_relation
                        .iter()
                        .copied()
                        .filter(|&f| inst.fact(f).args.get(position) == Some(&ConstId(c)))
                        .collect();
                    assert_eq!(index.facts_with(relation, position, ConstId(c)), scan);
                }
            }
        }
        assert!(index.facts_of(RelId(9)).is_empty());
        assert!(index.facts_with(RelId(0), 0, ConstId(9)).is_empty());
    }

    #[test]
    fn arity_zero_facts_are_supported() {
        let mut inst = Instance::new();
        let f = inst.add_fact_named("Alarm", &[]);
        assert_eq!(inst.render_fact(f), "Alarm()");
        assert_eq!(inst.gaifman_graph().vertex_count(), 0);
    }
}
