//! Exact probability of a circuit by message passing over a tree
//! decomposition of the circuit graph: the shared vocabulary of the
//! treewidth back-end and its reference sweep.
//!
//! This is the back-end behind Theorems 1 and 2 of the paper: the lineage
//! circuit produced by running a tree automaton over a bounded-treewidth
//! instance itself has bounded treewidth, so its probability "can be computed
//! ... via standard message passing techniques" (Lauritzen–Spiegelhalter).
//!
//! Concretely, the circuit is viewed as a constraint network: every gate is a
//! Boolean variable, and every gate contributes the constraint
//! `gate ⇔ op(inputs)`. The *circuit graph* ([`circuit_graph`]) has one
//! vertex per gate and a clique over `{gate} ∪ inputs(gate)` for every gate,
//! so every constraint scope is a clique and is therefore fully contained in
//! some bag of any tree decomposition. A bottom-up dynamic program over a
//! *nice* decomposition then sums the weights of all gate assignments that
//! respect every constraint and set the output gate to true. Input-variable
//! weights are multiplied in when the corresponding gate is forgotten (or at
//! the root), so each weight is counted exactly once.
//!
//! The running time is `O(2^w · |C| · w)` for width `w`: linear in the
//! circuit for fixed treewidth, which is the tractability the paper claims.
//!
//! The production sweep is the compiled dense-table plan in [`crate::plan`],
//! run through [`crate::compiled::CompiledCircuit`]. The sparse dynamic
//! program in this module is its test oracle, reachable only through
//! [`crate::compiled::CompiledCircuit::run_interpreted`].

use crate::circuit::{Circuit, CircuitError, Gate, GateId, VarId};
use crate::weights::Weights;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use stuc_graph::decomposition::TreeDecomposition;
use stuc_graph::elimination::{decompose_adjacency, elimination_order, EliminationHeuristic};
use stuc_graph::graph::{Graph, VertexId};
use stuc_graph::nice::{NiceDecomposition, NiceNodeKind};

stuc_errors::stuc_error! {
    /// Errors raised by the treewidth-based weighted model counter.
    #[derive(Clone, PartialEq)]
    pub enum WmcError {
        /// The decomposition found for the circuit graph is too wide for the
        /// configured bag-size limit: the instance is not (recognisably)
        /// structurally tractable, so another back-end should be used.
        WidthTooLarge {
            /// Width of the decomposition that was found.
            width: usize,
            /// The configured bag-size limit it exceeds.
            limit: usize,
        },
        /// An underlying circuit error.
        Circuit(CircuitError),
        /// The ambient evaluation budget (deadline or cancellation) tripped
        /// during plan construction or a sweep.
        Budget(stuc_fault::BudgetError),
        /// An injected fault (only produced by armed failpoints under the
        /// `fault-injection` feature; never in production builds).
        Fault(String),
    }
    display {
        Self::WidthTooLarge { width, limit } => "circuit decomposition width {width} exceeds the configured limit {limit}",
        Self::Circuit(e) => "{e}",
        Self::Budget(e) => "{e}",
        Self::Fault(m) => "injected fault: {m}",
    }
    from {
        CircuitError => Circuit,
        stuc_fault::BudgetError => Budget,
    }
}

/// Result of a message-passing run, with structural statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WmcReport {
    /// Probability that the output gate is true.
    pub probability: f64,
    /// Width of the tree decomposition used.
    pub width: usize,
    /// Number of bags in the (non-nice) decomposition.
    pub bag_count: usize,
    /// Number of nodes in the nice decomposition actually traversed.
    pub nice_node_count: usize,
    /// Number of table buffers this run had to (re)allocate. Planned sweeps
    /// reuse a [`crate::plan::SweepArena`] across runs, so steady-state
    /// repeated evaluation reports 0 here; the reference sweep
    /// ([`crate::compiled::CompiledCircuit::run_interpreted`]) allocates one
    /// table per nice node on every run.
    pub table_allocations: usize,
}

/// Builds the *circuit graph*: one vertex per gate, plus a clique over
/// every gate and its inputs. Compilation never builds it (see
/// [`circuit_decomposition`]); it is the structure graph of a PrXML
/// document's presence circuit and the decomposition's test oracle.
pub fn circuit_graph(circuit: &Circuit) -> Graph {
    let mut g = Graph::with_vertices(circuit.len());
    for (id, gate) in circuit.iter() {
        let mut clique: Vec<VertexId> = vec![VertexId(id.0)];
        clique.extend(gate.inputs().iter().map(|x| VertexId(x.0)));
        g.add_clique(&clique);
    }
    g
}

/// The decomposition of a prepared circuit's circuit graph
/// ([`crate::compiled::CompiledCircuit::prepared`]), as the compiled
/// circuit keeps it. The graph is never built: the sorted neighbour
/// lists come from one pass over the gates' inputs (preparing leaves
/// fan-in at most 2, so each gate adds at most a triangle), and the
/// elimination core rewrites them in place while it
/// writes the bags. Heuristics other than min-degree take their ordering
/// from [`circuit_graph`] first.
pub fn circuit_decomposition(
    prepared: &Circuit,
    heuristic: EliminationHeuristic,
) -> TreeDecomposition {
    let vertex = |g: GateId| u32::try_from(g.0).expect("a circuit has fewer than 2^32 gates");
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); prepared.len()];
    let mut clique = Vec::with_capacity(3);
    for (id, gate) in prepared.iter() {
        clique.clear();
        clique.push(vertex(id));
        clique.extend(gate.inputs().iter().map(|&x| vertex(x)));
        for (i, &a) in clique.iter().enumerate() {
            for &b in &clique[i + 1..] {
                if a != b {
                    adjacency[a as usize].push(b);
                    adjacency[b as usize].push(a);
                }
            }
        }
    }
    for list in &mut adjacency {
        list.sort_unstable();
        list.dedup();
    }
    let order = (heuristic != EliminationHeuristic::MinDegree)
        .then(|| elimination_order(&circuit_graph(prepared), heuristic));
    decompose_adjacency(adjacency, order.as_ref())
}

/// Normalises a circuit for message passing: merges duplicate input gates
/// reading the same variable (they must carry the same value and their
/// weight must be counted exactly once) and binarises wide gates.
pub(crate) fn prepare(circuit: &Circuit) -> Circuit {
    let mut deduped = Circuit::new();
    let mut input_of_var: BTreeMap<VarId, GateId> = BTreeMap::new();
    let mut map: Vec<GateId> = Vec::with_capacity(circuit.len());
    for (_, gate) in circuit.iter() {
        let id = match gate {
            Gate::Input(v) => *input_of_var
                .entry(*v)
                .or_insert_with(|| deduped.add_input(*v)),
            Gate::Const(b) => deduped.add_const(*b),
            Gate::And(xs) => {
                let inputs = xs.iter().map(|x| map[x.0]).collect();
                deduped.add_and(inputs)
            }
            Gate::Or(xs) => {
                let inputs = xs.iter().map(|x| map[x.0]).collect();
                deduped.add_or(inputs)
            }
            Gate::Not(x) => deduped.add_not(map[x.0]),
        };
        map.push(id);
    }
    if let Some(out) = circuit.output() {
        deduped.set_output(map[out.0]);
    }
    if deduped.max_fanin() > 2 {
        deduped.binarize()
    } else {
        deduped
    }
}

/// The message-passing dynamic program itself, over an already-built nice
/// decomposition of the circuit graph. Its one caller is
/// [`crate::compiled::CompiledCircuit::run_interpreted`].
///
/// This is the *reference* implementation: sparse `HashMap` tables, bag
/// index vectors and constraint scopes re-derived per node, weights looked
/// up in the `BTreeMap` per entry. The production sweep is the compiled
/// dense-table plan in [`crate::plan`]; differential tests assert the two
/// agree within 1e-9 on random, patched and boundary-width circuits.
pub(crate) fn message_passing(
    circuit: &Circuit,
    weights: &Weights,
    nice: &NiceDecomposition,
    output_gate: usize,
) -> Result<f64, WmcError> {
    // tables[node] maps a bag assignment (bitmask over the sorted bag) to
    // the accumulated weight of all consistent extensions below the node.
    let mut tables: Vec<HashMap<u64, f64>> = Vec::with_capacity(nice.len());

    for (idx, node) in nice.iter_bottom_up() {
        let bag: Vec<usize> = node.bag.iter().map(|v| v.index()).collect();
        let table = match &node.kind {
            NiceNodeKind::Leaf => {
                let mut t = HashMap::new();
                t.insert(0u64, 1.0);
                t
            }
            NiceNodeKind::Introduce { vertex, child } => {
                let child_node = nice.node(*child);
                let child_bag: Vec<usize> = child_node.bag.iter().map(|v| v.index()).collect();
                let v = vertex.index();
                // Constraints newly fully contained in the bag: every gate
                // g whose scope includes v and is a subset of the bag.
                let checks = constraints_to_check(circuit, &bag, v, output_gate);
                let mut t = HashMap::new();
                for (&child_mask, &weight) in &tables[*child] {
                    for value in [false, true] {
                        let mask = extend_assignment(&child_bag, child_mask, &bag, v, value);
                        if checks_pass(circuit, &bag, mask, &checks) {
                            *t.entry(mask).or_insert(0.0) += weight;
                        }
                    }
                }
                t
            }
            NiceNodeKind::Forget { vertex, child } => {
                let child_node = nice.node(*child);
                let child_bag: Vec<usize> = child_node.bag.iter().map(|v| v.index()).collect();
                let v = vertex.index();
                let multiplier = |value: bool| -> Result<f64, WmcError> {
                    match circuit.gate(GateId(v)) {
                        Gate::Input(var) => Ok(weights.weight(*var, value)?),
                        _ => Ok(1.0),
                    }
                };
                let mut t = HashMap::new();
                for (&child_mask, &weight) in &tables[*child] {
                    let position = child_bag
                        .iter()
                        .position(|&g| g == v)
                        .expect("forgotten gate in child bag");
                    let value = child_mask & (1 << position) != 0;
                    let projected = project_assignment(&child_bag, child_mask, &bag);
                    let w = weight * multiplier(value)?;
                    if w != 0.0 {
                        *t.entry(projected).or_insert(0.0) += w;
                    }
                }
                t
            }
            NiceNodeKind::Join { left, right } => {
                let mut t = HashMap::new();
                let (small, large) = if tables[*left].len() <= tables[*right].len() {
                    (&tables[*left], &tables[*right])
                } else {
                    (&tables[*right], &tables[*left])
                };
                for (&mask, &wl) in small {
                    if let Some(&wr) = large.get(&mask) {
                        let w = wl * wr;
                        if w != 0.0 {
                            t.insert(mask, w);
                        }
                    }
                }
                t
            }
        };
        debug_assert_eq!(tables.len(), idx);
        tables.push(table);
    }

    // Root: sum over surviving assignments, multiplying in the weights of
    // input gates still present in the root bag.
    let root = nice.root();
    let root_bag: Vec<usize> = nice.node(root).bag.iter().map(|v| v.index()).collect();
    let mut total = 0.0;
    for (&mask, &weight) in &tables[root] {
        let mut w = weight;
        for (pos, &g) in root_bag.iter().enumerate() {
            if let Gate::Input(var) = circuit.gate(GateId(g)) {
                let value = mask & (1 << pos) != 0;
                w *= weights.weight(*var, value)?;
            }
        }
        total += w;
    }
    Ok(total)
}

/// The constraints (gate ids) that must be checked when `introduced` joins a
/// bag: every gate whose scope (gate + inputs) is contained in the bag and
/// includes the introduced vertex, plus the output-gate truth requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Check {
    /// Gate semantics: `gate == op(inputs)` for the gate at this index.
    GateSemantics(usize),
    /// The designated output gate must be true.
    OutputTrue(usize),
}

fn constraints_to_check(
    circuit: &Circuit,
    bag: &[usize],
    introduced: usize,
    output_gate: usize,
) -> Vec<Check> {
    let in_bag: BTreeSet<usize> = bag.iter().copied().collect();
    let mut checks = Vec::new();
    for &g in bag {
        let gate = circuit.gate(GateId(g));
        if gate.is_leaf() && g != introduced {
            // Leaf scopes are {g}; only relevant when g itself is introduced.
            continue;
        }
        let scope_contains_introduced =
            g == introduced || gate.inputs().iter().any(|x| x.0 == introduced);
        if !scope_contains_introduced {
            continue;
        }
        let scope_in_bag = gate.inputs().iter().all(|x| in_bag.contains(&x.0));
        if scope_in_bag {
            checks.push(Check::GateSemantics(g));
        }
    }
    if introduced == output_gate {
        checks.push(Check::OutputTrue(output_gate));
    }
    checks
}

fn checks_pass(circuit: &Circuit, bag: &[usize], mask: u64, checks: &[Check]) -> bool {
    let value_of = |gate: usize| -> bool {
        let pos = bag.iter().position(|&g| g == gate).expect("gate in bag");
        mask & (1 << pos) != 0
    };
    for check in checks {
        match check {
            Check::OutputTrue(g) => {
                if !value_of(*g) {
                    return false;
                }
            }
            Check::GateSemantics(g) => {
                let gate = circuit.gate(GateId(*g));
                let expected = match gate {
                    Gate::Input(_) => continue, // free variable, no constraint
                    Gate::Const(b) => *b,
                    Gate::And(xs) => xs.iter().all(|x| value_of(x.0)),
                    Gate::Or(xs) => xs.iter().any(|x| value_of(x.0)),
                    Gate::Not(x) => !value_of(x.0),
                };
                if value_of(*g) != expected {
                    return false;
                }
            }
        }
    }
    true
}

/// Extends a child-bag assignment with a value for the introduced vertex,
/// re-indexed to the parent's bag ordering.
fn extend_assignment(
    child_bag: &[usize],
    child_mask: u64,
    bag: &[usize],
    introduced: usize,
    value: bool,
) -> u64 {
    let mut mask = 0u64;
    for (pos, &g) in bag.iter().enumerate() {
        let bit = if g == introduced {
            value
        } else {
            let child_pos = child_bag
                .iter()
                .position(|&x| x == g)
                .expect("gate in child bag");
            child_mask & (1 << child_pos) != 0
        };
        if bit {
            mask |= 1 << pos;
        }
    }
    mask
}

/// Projects a child-bag assignment onto the (smaller) parent bag.
fn project_assignment(child_bag: &[usize], child_mask: u64, bag: &[usize]) -> u64 {
    let mut mask = 0u64;
    for (pos, &g) in bag.iter().enumerate() {
        let child_pos = child_bag
            .iter()
            .position(|&x| x == g)
            .expect("gate in child bag");
        if child_mask & (1 << child_pos) != 0 {
            mask |= 1 << pos;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::circuit::VarId;
    use crate::compiled::{CompiledCircuit, DEFAULT_WIDTH_BUDGET};
    use crate::dpll::DpllCounter;
    use crate::enumeration::probability_by_enumeration;
    use std::sync::Arc;
    use stuc_graph::elimination::EliminationHeuristic;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    fn compile(c: &Circuit, heuristic: EliminationHeuristic) -> CompiledCircuit {
        CompiledCircuit::compile(Arc::new(c.clone()), heuristic).unwrap()
    }

    /// The reference sweep's report, after checking that the planned sweep
    /// answers the same.
    fn reference(c: &Circuit, w: &Weights) -> WmcReport {
        let compiled = compile(c, EliminationHeuristic::MinDegree);
        let report = compiled.run_interpreted(w, DEFAULT_WIDTH_BUDGET).unwrap();
        let planned = compiled.probability(w, DEFAULT_WIDTH_BUDGET).unwrap();
        assert_close(planned, report.probability);
        report
    }

    fn probability(c: &Circuit, w: &Weights) -> f64 {
        reference(c, w).probability
    }

    #[test]
    fn single_variable() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        c.set_output(x);
        let mut w = Weights::new();
        w.set(VarId(0), 0.3);
        assert_close(probability(&c, &w), 0.3);
    }

    #[test]
    fn negated_variable() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let nx = c.add_not(x);
        c.set_output(nx);
        let mut w = Weights::new();
        w.set(VarId(0), 0.3);
        assert_close(probability(&c, &w), 0.7);
    }

    #[test]
    fn and_or_of_independent_variables() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let y = c.add_input(VarId(1));
        let z = c.add_input(VarId(2));
        let and = c.add_and(vec![x, y]);
        let or = c.add_or(vec![and, z]);
        c.set_output(or);
        let w = Weights::uniform([VarId(0), VarId(1), VarId(2)], 0.5);
        // P = 1 - (1 - 0.25)(1 - 0.5) = 0.625
        assert_close(probability(&c, &w), 0.625);
    }

    #[test]
    fn constant_outputs() {
        for value in [true, false] {
            let mut c = Circuit::new();
            let k = c.add_const(value);
            c.set_output(k);
            assert_close(probability(&c, &Weights::new()), f64::from(u8::from(value)));
        }
    }

    #[test]
    fn agrees_with_enumeration_and_dpll_on_random_circuits() {
        for seed in 0..15 {
            let c = builder::random_circuit(10, 18, seed);
            let w = Weights::uniform(c.variables(), 0.4);
            let brute = probability_by_enumeration(&c, &w).unwrap();
            let dpll = DpllCounter::default().probability(&c, &w).unwrap();
            assert_close(probability(&c, &w), brute);
            assert_close(dpll, brute);
        }
    }

    #[test]
    fn agrees_on_monotone_chain_circuits() {
        for n in [1, 2, 5, 8] {
            let c = builder::conjunction_of_disjunctions(n, 2);
            let w = Weights::uniform(c.variables(), 0.7);
            let brute = probability_by_enumeration(&c, &w).unwrap();
            assert_close(probability(&c, &w), brute);
        }
    }

    #[test]
    fn xor_chain_has_bounded_width_and_exact_probability() {
        // XOR chains have pathwidth 2-ish circuit graphs; P(xor of n fair coins) = 0.5.
        let c = builder::xor_chain(16);
        let w = Weights::uniform(c.variables(), 0.5);
        let report = reference(&c, &w);
        assert_close(report.probability, 0.5);
        assert!(
            report.width <= 6,
            "width {} unexpectedly large",
            report.width
        );
    }

    #[test]
    fn width_limit_is_enforced() {
        let c = builder::majority_like_dense_circuit(12, 3);
        let w = Weights::uniform(c.variables(), 0.5);
        let compiled = compile(&c, EliminationHeuristic::MinDegree);
        assert!(matches!(
            compiled.run_interpreted(&w, 2),
            Err(WmcError::WidthTooLarge { .. })
        ));
        assert!(matches!(
            compiled.run(&w, 2),
            Err(WmcError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn shared_subcircuits_are_handled() {
        // (x AND y) appears twice: once directly, once under a NOT; the DAG
        // sharing must not break the count.
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let y = c.add_input(VarId(1));
        let and = c.add_and(vec![x, y]);
        let nand = c.add_not(and);
        let or = c.add_or(vec![and, nand]);
        c.set_output(or);
        let w = Weights::uniform([VarId(0), VarId(1)], 0.5);
        assert_close(probability(&c, &w), 1.0);
    }

    #[test]
    fn report_statistics_are_sensible() {
        let c = builder::conjunction_of_disjunctions(6, 3);
        let w = Weights::uniform(c.variables(), 0.5);
        let report = reference(&c, &w);
        assert!(report.bag_count > 0);
        assert!(report.nice_node_count >= report.bag_count);
        assert_eq!(report.table_allocations, report.nice_node_count);
        assert!(report.probability > 0.0 && report.probability < 1.0);
    }

    #[test]
    fn probability_zero_variables_do_not_contribute() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let y = c.add_input(VarId(1));
        let or = c.add_or(vec![x, y]);
        c.set_output(or);
        let mut w = Weights::new();
        w.set(VarId(0), 0.0);
        w.set(VarId(1), 0.6);
        assert_close(probability(&c, &w), 0.6);
    }

    #[test]
    fn duplicate_input_gates_for_one_variable_are_merged() {
        // Two input gates reading the same variable must be forced equal and
        // weighted once: x AND (NOT x read through a second gate) is false.
        let mut c = Circuit::new();
        let x1 = c.add_input(VarId(0));
        let x2 = c.add_input(VarId(0));
        let nx2 = c.add_not(x2);
        let and = c.add_and(vec![x1, nx2]);
        c.set_output(and);
        let mut w = Weights::new();
        w.set(VarId(0), 0.5);
        assert_close(probability(&c, &w), 0.0);

        // x OR (same x through another gate) has probability P(x), not 1-(1-p)².
        let mut c = Circuit::new();
        let x1 = c.add_input(VarId(0));
        let x2 = c.add_input(VarId(0));
        let or = c.add_or(vec![x1, x2]);
        c.set_output(or);
        assert_close(probability(&c, &w), 0.5);
    }

    #[test]
    fn min_fill_heuristic_agrees() {
        let c = builder::random_circuit(12, 20, 3);
        let w = Weights::uniform(c.variables(), 0.35);
        let min_fill = compile(&c, EliminationHeuristic::MinFill);
        let a = min_fill.run_interpreted(&w, DEFAULT_WIDTH_BUDGET).unwrap();
        assert_close(
            a.probability,
            min_fill.probability(&w, DEFAULT_WIDTH_BUDGET).unwrap(),
        );
        assert_close(a.probability, probability(&c, &w));
    }
}
