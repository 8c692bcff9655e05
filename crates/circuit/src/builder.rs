//! Convenience constructors for circuit shapes used across tests, examples
//! and benchmarks.

use crate::circuit::{Circuit, GateId, VarId};
use stuc_graph::generators::SplitMix64;

/// The conjunction `x0 AND x1 AND … AND x(n-1)` as a single AND gate.
pub fn conjunction(n: usize) -> Circuit {
    let mut c = Circuit::new();
    let inputs: Vec<GateId> = (0..n).map(|i| c.add_input(VarId(i))).collect();
    let and = c.add_and(inputs);
    c.set_output(and);
    c
}

/// The disjunction `x0 OR x1 OR … OR x(n-1)` as a single OR gate.
pub fn disjunction(n: usize) -> Circuit {
    let mut c = Circuit::new();
    let inputs: Vec<GateId> = (0..n).map(|i| c.add_input(VarId(i))).collect();
    let or = c.add_or(inputs);
    c.set_output(or);
    c
}

/// A CNF-shaped monotone circuit: the conjunction of `clauses` disjunctions
/// of `clause_size` fresh variables each. Its circuit graph is a collection
/// of small cliques attached to one AND gate, so it has small treewidth.
pub fn conjunction_of_disjunctions(clauses: usize, clause_size: usize) -> Circuit {
    let mut c = Circuit::new();
    let mut clause_gates = Vec::with_capacity(clauses);
    let mut var = 0;
    for _ in 0..clauses {
        let lits: Vec<GateId> = (0..clause_size)
            .map(|_| {
                let g = c.add_input(VarId(var));
                var += 1;
                g
            })
            .collect();
        clause_gates.push(c.add_or(lits));
    }
    let and = c.add_and(clause_gates);
    c.set_output(and);
    c
}

/// A DNF-shaped monotone circuit: the disjunction of `terms` conjunctions of
/// `term_size` fresh variables each (the lineage shape of a self-join-free CQ
/// on a TID instance).
pub fn disjunction_of_conjunctions(terms: usize, term_size: usize) -> Circuit {
    let mut c = Circuit::new();
    let mut term_gates = Vec::with_capacity(terms);
    let mut var = 0;
    for _ in 0..terms {
        let lits: Vec<GateId> = (0..term_size)
            .map(|_| {
                let g = c.add_input(VarId(var));
                var += 1;
                g
            })
            .collect();
        term_gates.push(c.add_and(lits));
    }
    let or = c.add_or(term_gates);
    c.set_output(or);
    c
}

/// An XOR chain `x0 ⊕ x1 ⊕ … ⊕ x(n-1)` built from AND/OR/NOT gates.
/// Its circuit graph is path-like (bounded treewidth) but the function is
/// highly non-monotone — a good stress test for the exact back-ends.
pub fn xor_chain(n: usize) -> Circuit {
    assert!(n >= 1);
    let mut c = Circuit::new();
    let mut acc = c.add_input(VarId(0));
    for i in 1..n {
        let x = c.add_input(VarId(i));
        let not_acc = c.add_not(acc);
        let not_x = c.add_not(x);
        let left = c.add_and(vec![acc, not_x]);
        let right = c.add_and(vec![not_acc, x]);
        acc = c.add_or(vec![left, right]);
    }
    c.set_output(acc);
    c
}

/// The lineage of the paper's hard query `∃x y  R(x) ∧ S(x,y) ∧ T(y)` on a
/// complete bipartite TID instance with `n` R-facts and `n` T-facts:
/// `OR over (i, j) of (r_i AND s_ij AND t_j)`.
///
/// Variables are laid out as `r_i = i`, `t_j = n + j`, `s_ij = 2n + i·n + j`.
/// Its circuit graph contains a large grid-like structure, so its treewidth
/// grows with `n` — this is the workload of experiment E5.
pub fn rst_bipartite_lineage(n: usize) -> Circuit {
    let mut c = Circuit::new();
    let r: Vec<GateId> = (0..n).map(|i| c.add_input(VarId(i))).collect();
    let t: Vec<GateId> = (0..n).map(|j| c.add_input(VarId(n + j))).collect();
    let mut terms = Vec::with_capacity(n * n);
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in 0..n {
            let s = c.add_input(VarId(2 * n + i * n + j));
            terms.push(c.add_and(vec![r[i], s, t[j]]));
        }
    }
    let or = c.add_or(terms);
    c.set_output(or);
    c
}

/// The lineage of the same query on a *path-shaped* TID instance
/// (`S` only links consecutive elements): `OR over i of (r_i AND s_i AND t_(i+1))`.
/// Its circuit graph has bounded treewidth regardless of `n` — the tractable
/// side of experiment E5.
pub fn rst_path_lineage(n: usize) -> Circuit {
    let mut c = Circuit::new();
    let mut terms = Vec::with_capacity(n);
    for i in 0..n {
        let r = c.add_input(VarId(3 * i));
        let s = c.add_input(VarId(3 * i + 1));
        let t = c.add_input(VarId(3 * i + 2));
        terms.push(c.add_and(vec![r, s, t]));
    }
    let or = c.add_or(terms);
    c.set_output(or);
    c
}

/// A deliberately dense circuit (every variable feeds many gates) whose
/// circuit graph has large treewidth; used to exercise width-limit errors.
pub fn majority_like_dense_circuit(vars: usize, arity: usize) -> Circuit {
    let mut c = Circuit::new();
    let inputs: Vec<GateId> = (0..vars).map(|i| c.add_input(VarId(i))).collect();
    let mut layer = Vec::new();
    for i in 0..vars {
        let picked: Vec<GateId> = (0..arity).map(|k| inputs[(i + k) % vars]).collect();
        layer.push(c.add_and(picked));
    }
    // Second layer mixes everything with everything.
    let mut second = Vec::new();
    for i in 0..vars {
        let picked: Vec<GateId> = (0..arity).map(|k| layer[(i * 7 + k * 3) % vars]).collect();
        second.push(c.add_or(picked));
    }
    let out = c.add_and(second);
    c.set_output(out);
    c
}

/// A random circuit over `vars` variables with `internal` internal gates,
/// each an AND/OR/NOT of previously created gates. Deterministic in `seed`.
pub fn random_circuit(vars: usize, internal: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new();
    let mut pool: Vec<GateId> = (0..vars).map(|i| c.add_input(VarId(i))).collect();
    for _ in 0..internal {
        let kind = rng.next_below(3);
        let gate = match kind {
            0 => {
                let a = pool[rng.next_below(pool.len())];
                let b = pool[rng.next_below(pool.len())];
                c.add_and(vec![a, b])
            }
            1 => {
                let a = pool[rng.next_below(pool.len())];
                let b = pool[rng.next_below(pool.len())];
                c.add_or(vec![a, b])
            }
            _ => {
                let a = pool[rng.next_below(pool.len())];
                c.add_not(a)
            }
        };
        pool.push(gate);
    }
    let out = *pool.last().expect("at least one gate");
    c.set_output(out);
    c
}

/// A read-once "AND of ORs of ANDs" tree over fresh variables, parameterised
/// by fan-out per level; read-once circuits are the easy case for every
/// back-end and serve as the sanity baseline of experiment A2.
pub fn read_once_tree(levels: usize, fanout: usize) -> Circuit {
    fn build(
        c: &mut Circuit,
        level: usize,
        fanout: usize,
        next_var: &mut usize,
        and_level: bool,
    ) -> GateId {
        if level == 0 {
            let g = c.add_input(VarId(*next_var));
            *next_var += 1;
            return g;
        }
        let children: Vec<GateId> = (0..fanout)
            .map(|_| build(c, level - 1, fanout, next_var, !and_level))
            .collect();
        if and_level {
            c.add_and(children)
        } else {
            c.add_or(children)
        }
    }
    let mut c = Circuit::new();
    let mut next_var = 0;
    let root = build(&mut c, levels, fanout, &mut next_var, true);
    c.set_output(root);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::probability_by_enumeration;
    use crate::weights::Weights;

    #[test]
    fn conjunction_probability() {
        let c = conjunction(3);
        let w = Weights::uniform(c.variables(), 0.5);
        let p = probability_by_enumeration(&c, &w).unwrap();
        assert!((p - 0.125).abs() < 1e-12);
    }

    #[test]
    fn disjunction_probability() {
        let c = disjunction(3);
        let w = Weights::uniform(c.variables(), 0.5);
        let p = probability_by_enumeration(&c, &w).unwrap();
        assert!((p - 0.875).abs() < 1e-12);
    }

    #[test]
    fn cnf_and_dnf_have_expected_variable_counts() {
        assert_eq!(conjunction_of_disjunctions(4, 3).variables().len(), 12);
        assert_eq!(disjunction_of_conjunctions(5, 2).variables().len(), 10);
    }

    #[test]
    fn xor_chain_parity() {
        let c = xor_chain(3);
        let w = Weights::uniform(c.variables(), 0.5);
        let p = probability_by_enumeration(&c, &w).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rst_lineages_have_expected_sizes() {
        let bip = rst_bipartite_lineage(3);
        assert_eq!(bip.variables().len(), 3 + 3 + 9);
        let path = rst_path_lineage(4);
        assert_eq!(path.variables().len(), 12);
    }

    #[test]
    fn path_lineage_width_stays_small_while_bipartite_grows() {
        use crate::compiled::CompiledCircuit;
        use std::sync::Arc;
        let width = |c: Circuit| {
            CompiledCircuit::compile(Arc::new(c), Default::default())
                .unwrap()
                .width()
        };
        let small = width(rst_path_lineage(20));
        let large = width(rst_bipartite_lineage(6));
        assert!(small <= 4, "path lineage width {small}");
        assert!(
            large > small,
            "bipartite width {large} should exceed path width {small}"
        );
    }

    #[test]
    fn random_circuit_is_reproducible() {
        let a = random_circuit(8, 12, 5);
        let b = random_circuit(8, 12, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn read_once_tree_shape() {
        let c = read_once_tree(2, 3);
        assert_eq!(c.variables().len(), 9);
        assert!(c.is_monotone());
    }
}
