//! Uncertain trees: trees whose node labels depend on Boolean events.
//!
//! An uncertain tree is a labeled tree in which each node carries a small set
//! of independent Boolean variables ("local events") and a table mapping each
//! valuation of those variables to a label. Every global valuation of the
//! events thus defines one ordinary labeled tree — a possible world. PrXML
//! documents with `ind`/`mux` nodes compile to exactly this shape
//! (`stuc-prxml`), as do the bag-labeled tree encodings of bounded-treewidth
//! instances.
//!
//! Two evaluation modes implement the two sides of the paper's argument:
//!
//! * [`UncertainTree::provenance_run`] — the nondeterministic automaton run
//!   producing a *lineage circuit*: one gate per (node, state), OR over
//!   (local valuation, transition) of AND over child gates and event
//!   literals. This is the construction behind Theorem 2.
//! * [`UncertainTree::acceptance_probability`] — the deterministic subset
//!   run: a distribution over *sets of reachable states* is propagated
//!   bottom-up, which is valid because local events are independent and
//!   local to their node. This is the Cohen–Kimelfeld–Sagiv linear-time
//!   algorithm behind the local-uncertainty tractability and Theorem 1.

use crate::bta::BottomUpTreeAutomaton;
use std::collections::{BTreeMap, BTreeSet};
use stuc_circuit::circuit::{Circuit, CircuitError, GateId, VarId};
use stuc_circuit::weights::Weights;

/// Maximum number of local variables per node (the label table has `2^k`
/// entries, and the subset run enumerates them).
pub const MAX_LOCAL_VARIABLES: usize = 16;

/// A node of an [`UncertainTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncertainNode {
    /// The local Boolean variables of this node, in table-index order.
    pub variables: Vec<VarId>,
    /// `labels[m]` is the node label when the local valuation is the bitmask
    /// `m` over `variables` (bit `i` = value of `variables[i]`).
    pub labels: Vec<usize>,
    /// The children, at most two, with smaller indices.
    pub children: Vec<usize>,
}

/// A tree whose node labels depend on independent Boolean events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UncertainTree {
    nodes: Vec<UncertainNode>,
    root: Option<usize>,
}

stuc_errors::stuc_error! {
    /// Errors raised by runs over uncertain trees.
    #[derive(Clone, PartialEq)]
    pub enum UncertainTreeError {
        /// The tree has no root.
        NoRoot,
        /// An event used by a node has no probability.
        Circuit(CircuitError),
    }
    display {
        Self::NoRoot => "uncertain tree has no root",
        Self::Circuit(e) => "{e}",
    }
    from {
        CircuitError => Circuit,
    }
}

impl UncertainTree {
    /// Creates an empty uncertain tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with a fixed (certain) label.
    pub fn add_node(&mut self, label: usize, children: Vec<usize>) -> usize {
        self.add_node_with_variables(Vec::new(), vec![label], children)
    }

    /// Adds a certain leaf.
    pub fn add_leaf(&mut self, label: usize) -> usize {
        self.add_node(label, Vec::new())
    }

    /// Adds a leaf whose label is `label_present` when `variable` is true and
    /// `label_absent` otherwise — the typical encoding of an optional fact.
    pub fn add_leaf_with_variable(
        &mut self,
        variable: VarId,
        label_absent: usize,
        label_present: usize,
    ) -> usize {
        self.add_node_with_variables(
            vec![variable],
            vec![label_absent, label_present],
            Vec::new(),
        )
    }

    /// Adds a node with explicit local variables and a full label table of
    /// size `2^variables.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the table size does not match, too many local variables are
    /// given, more than two children are given, or a child does not exist.
    pub fn add_node_with_variables(
        &mut self,
        variables: Vec<VarId>,
        labels: Vec<usize>,
        children: Vec<usize>,
    ) -> usize {
        assert!(
            variables.len() <= MAX_LOCAL_VARIABLES,
            "too many local variables ({})",
            variables.len()
        );
        assert_eq!(
            labels.len(),
            1 << variables.len(),
            "label table must have 2^k entries"
        );
        assert!(children.len() <= 2, "at most two children");
        for &c in &children {
            assert!(c < self.nodes.len(), "child {c} does not exist yet");
        }
        self.nodes.push(UncertainNode {
            variables,
            labels,
            children,
        });
        self.nodes.len() - 1
    }

    /// Designates the root node.
    pub fn set_root(&mut self, node: usize) {
        assert!(node < self.nodes.len(), "root out of range");
        self.root = Some(node);
    }

    /// The root node.
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, i: usize) -> &UncertainNode {
        &self.nodes[i]
    }

    /// All event variables used anywhere in the tree.
    pub fn variables(&self) -> BTreeSet<VarId> {
        self.nodes
            .iter()
            .flat_map(|n| n.variables.iter().copied())
            .collect()
    }

    /// The certain tree obtained by fixing every event according to the given
    /// valuation (missing events default to false).
    pub fn world(
        &self,
        valuation: &std::collections::BTreeMap<VarId, bool>,
    ) -> crate::tree::LabeledTree {
        let mut tree = crate::tree::LabeledTree::new();
        for node in &self.nodes {
            let mut mask = 0usize;
            for (i, v) in node.variables.iter().enumerate() {
                if valuation.get(v).copied().unwrap_or(false) {
                    mask |= 1 << i;
                }
            }
            tree.add_node(node.labels[mask], node.children.clone());
        }
        if let Some(root) = self.root {
            tree.set_root(root);
        }
        tree
    }

    /// The nondeterministic provenance run: a lineage circuit whose output is
    /// true exactly in the possible worlds accepted by the automaton.
    ///
    /// The circuit has one OR gate per (node, reachable state) pair; each
    /// disjunct is the AND of the local-valuation literals and the children's
    /// state gates for one applicable transition.
    pub fn provenance_run(
        &self,
        automaton: &BottomUpTreeAutomaton,
    ) -> Result<Circuit, UncertainTreeError> {
        let root = self.root.ok_or(UncertainTreeError::NoRoot)?;
        let mut circuit = Circuit::new();
        let false_gate = circuit.add_const(false);
        let true_gate = circuit.add_const(true);
        // state_gates[node][state] = gate meaning "the subtree at node can
        // reach this state".
        let mut state_gates: Vec<Vec<GateId>> = Vec::with_capacity(self.nodes.len());

        for node in &self.nodes {
            let mut input_gates: Vec<(GateId, GateId)> = Vec::new(); // (positive, negative)
            for &v in &node.variables {
                let positive = circuit.add_input(v);
                let negative = circuit.add_not(positive);
                input_gates.push((positive, negative));
            }
            // Disjuncts per state.
            let mut per_state: Vec<Vec<GateId>> = vec![Vec::new(); automaton.state_count];
            for mask in 0..(1usize << node.variables.len()) {
                let label = node.labels[mask];
                // The literal gates for this local valuation.
                let mut literal_gates: Vec<GateId> = Vec::with_capacity(node.variables.len());
                for (i, &(positive, negative)) in input_gates.iter().enumerate() {
                    literal_gates.push(if mask & (1 << i) != 0 {
                        positive
                    } else {
                        negative
                    });
                }
                let valuation_gate = if literal_gates.is_empty() {
                    true_gate
                } else {
                    circuit.add_and(literal_gates.clone())
                };
                match node.children.len() {
                    0 => {
                        if let Some(states) = automaton.leaf_transitions.get(&label) {
                            for &s in states {
                                per_state[s].push(valuation_gate);
                            }
                        }
                    }
                    1 => {
                        let child = node.children[0];
                        #[allow(clippy::needless_range_loop)]
                        for child_state in 0..automaton.state_count {
                            let Some(states) =
                                automaton.unary_transitions.get(&(label, child_state))
                            else {
                                continue;
                            };
                            let child_gate = state_gates[child][child_state];
                            for &s in states {
                                let and = circuit.add_and(vec![valuation_gate, child_gate]);
                                per_state[s].push(and);
                            }
                        }
                    }
                    _ => {
                        let left = node.children[0];
                        let right = node.children[1];
                        for left_state in 0..automaton.state_count {
                            for right_state in 0..automaton.state_count {
                                let Some(states) = automaton.binary_transitions.get(&(
                                    label,
                                    left_state,
                                    right_state,
                                )) else {
                                    continue;
                                };
                                let lg = state_gates[left][left_state];
                                let rg = state_gates[right][right_state];
                                for &s in states {
                                    let and = circuit.add_and(vec![valuation_gate, lg, rg]);
                                    per_state[s].push(and);
                                }
                            }
                        }
                    }
                }
            }
            let gates: Vec<GateId> = per_state
                .into_iter()
                .map(|disjuncts| {
                    if disjuncts.is_empty() {
                        false_gate
                    } else {
                        circuit.add_or(disjuncts)
                    }
                })
                .collect();
            state_gates.push(gates);
        }

        let accepting_gates: Vec<GateId> = automaton
            .accepting
            .iter()
            .map(|&s| state_gates[root][s])
            .collect();
        let output = circuit.add_or(accepting_gates);
        circuit.set_output(output);
        Ok(circuit)
    }

    /// The deterministic subset run: the exact probability that the automaton
    /// accepts, computed in a single bottom-up pass.
    ///
    /// Requires the local events to be globally independent and each to be
    /// local to a single node (which is how the tree is built from PrXML
    /// `ind`/`mux` nodes or from TID tree encodings). Runs in time linear in
    /// the tree for a fixed automaton, which is the Theorem 1 bound.
    pub fn acceptance_probability(
        &self,
        automaton: &BottomUpTreeAutomaton,
        weights: &Weights,
    ) -> Result<f64, UncertainTreeError> {
        let root = self.root.ok_or(UncertainTreeError::NoRoot)?;
        // Validate weights up front.
        for v in self.variables() {
            weights.weight(v, true)?;
        }
        // distributions[node]: map from reachable-state-set to probability.
        let mut distributions: Vec<BTreeMap<Vec<usize>, f64>> =
            Vec::with_capacity(self.nodes.len());

        for node in &self.nodes {
            let mut dist: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
            // Enumerate local valuations with their probabilities.
            for mask in 0..(1usize << node.variables.len()) {
                let mut local_probability = 1.0;
                for (i, &v) in node.variables.iter().enumerate() {
                    local_probability *= weights.weight(v, mask & (1 << i) != 0)?;
                }
                if local_probability == 0.0 {
                    continue;
                }
                let label = node.labels[mask];
                match node.children.len() {
                    0 => {
                        let states = automaton.step(label, &[]);
                        let key: Vec<usize> = states.into_iter().collect();
                        *dist.entry(key).or_insert(0.0) += local_probability;
                    }
                    1 => {
                        let child = &distributions[node.children[0]];
                        for (child_states, &p) in child {
                            let set: BTreeSet<usize> = child_states.iter().copied().collect();
                            let states = automaton.step(label, &[&set]);
                            let key: Vec<usize> = states.into_iter().collect();
                            *dist.entry(key).or_insert(0.0) += local_probability * p;
                        }
                    }
                    _ => {
                        let left = distributions[node.children[0]].clone();
                        let right = &distributions[node.children[1]];
                        for (left_states, &pl) in &left {
                            let lset: BTreeSet<usize> = left_states.iter().copied().collect();
                            for (right_states, &pr) in right {
                                let rset: BTreeSet<usize> = right_states.iter().copied().collect();
                                let states = automaton.step(label, &[&lset, &rset]);
                                let key: Vec<usize> = states.into_iter().collect();
                                *dist.entry(key).or_insert(0.0) += local_probability * pl * pr;
                            }
                        }
                    }
                }
            }
            distributions.push(dist);
        }

        let mut accepted = 0.0;
        for (states, &p) in &distributions[root] {
            if states.iter().any(|s| automaton.accepting.contains(s)) {
                accepted += p;
            }
        }
        Ok(accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use stuc_circuit::compiled::{one_shot_probability, CompiledCircuit};
    use stuc_circuit::enumeration::probability_by_enumeration;

    const ALPHABET: &[usize] = &[0, 1, 2, 3];

    /// A root (label 3) over two uncertain leaves: leaf A is labeled 1 with
    /// probability of `x0`, leaf B is labeled 2 with probability of `x1`
    /// (label 0 otherwise).
    fn two_leaf_tree() -> (UncertainTree, Weights) {
        let mut t = UncertainTree::new();
        let a = t.add_leaf_with_variable(VarId(0), 0, 1);
        let b = t.add_leaf_with_variable(VarId(1), 0, 2);
        let root = t.add_node(3, vec![a, b]);
        t.set_root(root);
        let mut w = Weights::new();
        w.set(VarId(0), 0.4);
        w.set(VarId(1), 0.25);
        (t, w)
    }

    #[test]
    fn worlds_reflect_valuations() {
        let (t, _) = two_leaf_tree();
        let world = t.world(&BTreeMap::from([(VarId(0), true), (VarId(1), false)]));
        assert_eq!(world.node(0).label, 1);
        assert_eq!(world.node(1).label, 0);
    }

    #[test]
    fn probability_of_existence_query() {
        let (t, w) = two_leaf_tree();
        let automaton = BottomUpTreeAutomaton::exists_label(1, ALPHABET);
        let p = t.acceptance_probability(&automaton, &w).unwrap();
        assert!((p - 0.4).abs() < 1e-12);
        let automaton = BottomUpTreeAutomaton::exists_label(2, ALPHABET);
        let p = t.acceptance_probability(&automaton, &w).unwrap();
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn provenance_run_agrees_with_subset_run() {
        let (t, w) = two_leaf_tree();
        for automaton in [
            BottomUpTreeAutomaton::exists_label(1, ALPHABET),
            BottomUpTreeAutomaton::exists_label(2, ALPHABET),
            BottomUpTreeAutomaton::count_label_modulo(0, 2, 1, ALPHABET),
            BottomUpTreeAutomaton::pattern_descendant(3, 1, ALPHABET),
        ] {
            let direct = t.acceptance_probability(&automaton, &w).unwrap();
            let circuit = t.provenance_run(&automaton).unwrap();
            let by_enumeration = probability_by_enumeration(&circuit, &w).unwrap();
            let by_wmc = one_shot_probability(&circuit, &w).unwrap();
            assert!(
                (direct - by_enumeration).abs() < 1e-9,
                "{direct} vs {by_enumeration}"
            );
            assert!((direct - by_wmc).abs() < 1e-9, "{direct} vs {by_wmc}");
        }
    }

    #[test]
    fn conjunction_of_events_via_intersection() {
        let (t, w) = two_leaf_tree();
        let both = BottomUpTreeAutomaton::exists_label(1, ALPHABET)
            .intersection(&BottomUpTreeAutomaton::exists_label(2, ALPHABET));
        let p = t.acceptance_probability(&both, &w).unwrap();
        assert!((p - 0.4 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn larger_chain_probability_matches_enumeration() {
        // A chain of 6 uncertain unary nodes (each labeled 1 when its event
        // holds, 0 otherwise) under a parity automaton.
        let mut t = UncertainTree::new();
        let mut prev: Option<usize> = None;
        for i in 0..6 {
            let children = prev.map(|p| vec![p]).unwrap_or_default();
            let node = t.add_node_with_variables(vec![VarId(i)], vec![0, 1], children);
            prev = Some(node);
        }
        t.set_root(prev.unwrap());
        let w = Weights::uniform((0..6).map(VarId), 0.3);
        let automaton = BottomUpTreeAutomaton::count_label_modulo(1, 2, 0, &[0, 1]);
        let direct = t.acceptance_probability(&automaton, &w).unwrap();
        let circuit = t.provenance_run(&automaton).unwrap();
        let brute = probability_by_enumeration(&circuit, &w).unwrap();
        assert!((direct - brute).abs() < 1e-9);
    }

    #[test]
    fn lineage_circuit_has_bounded_width_on_chains() {
        // The provenance circuit of a fixed automaton over a chain has width
        // independent of the chain length (the Theorem 2 phenomenon).
        let automaton = BottomUpTreeAutomaton::exists_label(1, &[0, 1]);
        let mut widths = Vec::new();
        for n in [10usize, 40, 80] {
            let mut t = UncertainTree::new();
            let mut prev: Option<usize> = None;
            for i in 0..n {
                let children = prev.map(|p| vec![p]).unwrap_or_default();
                prev = Some(t.add_node_with_variables(vec![VarId(i)], vec![0, 1], children));
            }
            t.set_root(prev.unwrap());
            let circuit = t.provenance_run(&automaton).unwrap();
            let compiled = CompiledCircuit::compile(Arc::new(circuit), Default::default());
            widths.push(compiled.unwrap().width());
        }
        assert!(
            widths.iter().all(|&w| w <= widths[0] + 2),
            "widths grew: {widths:?}"
        );
    }

    #[test]
    fn missing_root_is_an_error() {
        let t = UncertainTree::new();
        let automaton = BottomUpTreeAutomaton::exists_label(0, &[0]);
        assert!(matches!(
            t.acceptance_probability(&automaton, &Weights::new()),
            Err(UncertainTreeError::NoRoot)
        ));
    }

    #[test]
    fn missing_weight_is_an_error() {
        let (t, _) = two_leaf_tree();
        let automaton = BottomUpTreeAutomaton::exists_label(1, ALPHABET);
        assert!(matches!(
            t.acceptance_probability(&automaton, &Weights::new()),
            Err(UncertainTreeError::Circuit(_))
        ));
    }

    #[test]
    #[should_panic(expected = "2^k entries")]
    fn wrong_label_table_size_panics() {
        let mut t = UncertainTree::new();
        t.add_node_with_variables(vec![VarId(0)], vec![0], vec![]);
    }
}
