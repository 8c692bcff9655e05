//! Hierarchical queries and extensional ("safe plan") evaluation on TIDs.
//!
//! The paper contrasts its data-based tractability with the *query*-based
//! dichotomy of Dalvi and Suciu: on arbitrary TID instances, a self-join-free
//! Boolean CQ can be evaluated in polynomial time exactly when it is
//! *hierarchical* (for any two variables, their atom sets are disjoint or
//! nested); otherwise it is `#P`-hard — the canonical example being
//! `∃x y R(x), S(x,y), T(y)` from the paper's introduction.
//!
//! This module implements the hierarchical test and the classic extensional
//! evaluation rules (independent join, independent project) for self-join-
//! free queries. It is the baseline of experiment E5: safe queries are easy
//! for everyone, but for unsafe queries the extensional approach simply gives
//! up, whereas the paper's treewidth-based method still works when the *data*
//! is tree-like.

use crate::cq::{Atom, ConjunctiveQuery, Term};
use std::collections::{BTreeMap, BTreeSet};
use stuc_data::instance::FactId;
use stuc_data::tid::TidInstance;

stuc_errors::stuc_error! {
    /// Why extensional evaluation refused a query.
    #[derive(Clone, PartialEq, Eq)]
    pub enum SafePlanError {
        /// The query has a self-join (two atoms over the same relation), which
        /// the extensional rules do not handle.
        SelfJoin,
        /// The query is not hierarchical, hence unsafe (`#P`-hard in general).
        NotHierarchical,
        /// The query has no atoms.
        EmptyQuery,
    }
    display {
        Self::SelfJoin => "query has a self-join",
        Self::NotHierarchical => "query is not hierarchical (unsafe)",
        Self::EmptyQuery => "query has no atoms",
    }
}

/// True if the self-join-free Boolean CQ is hierarchical: for every pair of
/// variables, their atom sets are disjoint or one contains the other.
pub fn is_hierarchical(query: &ConjunctiveQuery) -> bool {
    let vars: Vec<String> = query.variables().into_iter().collect();
    for (i, x) in vars.iter().enumerate() {
        let ax: BTreeSet<usize> = query.atoms_with_variable(x).into_iter().collect();
        for y in &vars[i + 1..] {
            let ay: BTreeSet<usize> = query.atoms_with_variable(y).into_iter().collect();
            let disjoint = ax.is_disjoint(&ay);
            let nested = ax.is_subset(&ay) || ay.is_subset(&ax);
            if !disjoint && !nested {
                return false;
            }
        }
    }
    true
}

/// Computes the probability of a self-join-free Boolean CQ on a TID instance
/// using the extensional safe-plan rules (independent join / independent
/// project / ground-atom base case).
///
/// Returns an error for self-joins and for non-hierarchical (unsafe) queries;
/// the caller is expected to fall back to an intensional method.
pub fn safe_plan_probability(
    tid: &TidInstance,
    query: &ConjunctiveQuery,
) -> Result<f64, SafePlanError> {
    if query.atoms.is_empty() {
        return Err(SafePlanError::EmptyQuery);
    }
    if !query.is_self_join_free() {
        return Err(SafePlanError::SelfJoin);
    }
    if !is_hierarchical(query) {
        return Err(SafePlanError::NotHierarchical);
    }
    evaluate(tid, &query.atoms)
}

/// One atom of the residual query plus the facts still compatible with its
/// ground positions. Threading these lists through the recursion is what
/// makes the plan near-linear: the independent-project step partitions each
/// atom's facts by the root constant instead of re-scanning the instance for
/// every candidate grounding.
#[derive(Debug, Clone)]
struct AtomTask {
    atom: Atom,
    facts: Vec<FactId>,
}

fn evaluate(tid: &TidInstance, atoms: &[Atom]) -> Result<f64, SafePlanError> {
    let tasks: Vec<AtomTask> = atoms
        .iter()
        .map(|atom| AtomTask {
            atom: atom.clone(),
            facts: compatible_facts(tid, atom),
        })
        .collect();
    evaluate_tasks(tid, &tasks)
}

/// All facts of the atom's relation whose constants agree with the atom's
/// ground positions (repeated variables are *not* checked here; they are
/// enforced when the variable is grounded).
fn compatible_facts(tid: &TidInstance, atom: &Atom) -> Vec<FactId> {
    let Some(relation) = tid.instance().find_relation(&atom.relation) else {
        return Vec::new();
    };
    let wanted: Vec<Option<stuc_data::instance::ConstId>> = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(name) => tid.instance().find_constant(name),
            Term::Var(_) => None,
        })
        .collect();
    let is_ground: Vec<bool> = atom.args.iter().map(|t| t.as_var().is_none()).collect();
    // A ground position naming an unknown constant can never match.
    if is_ground
        .iter()
        .zip(&wanted)
        .any(|(&ground, w)| ground && w.is_none())
    {
        return Vec::new();
    }
    tid.instance()
        .facts_of(relation)
        .iter()
        .copied()
        .filter(|&f| {
            let args = &tid.instance().fact(f).args;
            args.len() == atom.args.len()
                && args
                    .iter()
                    .enumerate()
                    .all(|(i, &c)| !is_ground[i] || wanted[i] == Some(c))
        })
        .collect()
}

fn evaluate_tasks(tid: &TidInstance, tasks: &[AtomTask]) -> Result<f64, SafePlanError> {
    // Base case: all atoms ground → independent existence probabilities.
    if tasks.iter().all(|t| t.atom.variables().is_empty()) {
        let mut p = 1.0;
        for task in tasks {
            p *= ground_task_probability(tid, task);
        }
        return Ok(p);
    }

    // Independent join: split into variable-disjoint components.
    let atoms: Vec<Atom> = tasks.iter().map(|t| t.atom.clone()).collect();
    let components = variable_components(&atoms);
    if components.len() > 1 {
        let mut p = 1.0;
        for component in components {
            let component_tasks: Vec<AtomTask> =
                component.into_iter().map(|i| tasks[i].clone()).collect();
            p *= evaluate_tasks(tid, &component_tasks)?;
        }
        return Ok(p);
    }

    // Independent project: find a root variable occurring in every non-ground atom.
    let non_ground: Vec<usize> = tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.atom.variables().is_empty())
        .map(|(i, _)| i)
        .collect();
    let mut root: Option<String> = None;
    for v in tasks.iter().flat_map(|t| t.atom.variables()) {
        if non_ground
            .iter()
            .all(|&i| tasks[i].atom.variables().contains(&v))
        {
            root = Some(v);
            break;
        }
    }
    let Some(root) = root else {
        // A single connected component with no root variable: not safe.
        return Err(SafePlanError::NotHierarchical);
    };

    // Partition each atom's compatible facts by the constant they put at the
    // root variable's positions (facts with conflicting constants at two
    // root positions can never match and are dropped). `root_occurs[i]`
    // distinguishes "the root is not in this atom" (fact list passes through
    // unchanged) from "the root is in this atom but no fact satisfies its
    // repeated positions" (fact list becomes empty) — conflating the two
    // would smuggle non-matching facts into the grounded subquery.
    let mut by_constant: Vec<BTreeMap<stuc_data::instance::ConstId, Vec<FactId>>> =
        vec![BTreeMap::new(); tasks.len()];
    let mut root_occurs: Vec<bool> = vec![false; tasks.len()];
    for (i, task) in tasks.iter().enumerate() {
        let positions: Vec<usize> = task
            .atom
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_var() == Some(root.as_str()))
            .map(|(p, _)| p)
            .collect();
        if positions.is_empty() {
            continue;
        }
        root_occurs[i] = true;
        for &f in &task.facts {
            let args = &tid.instance().fact(f).args;
            let first = args[positions[0]];
            if positions.iter().all(|&p| args[p] == first) {
                by_constant[i].entry(first).or_default().push(f);
            }
        }
    }
    let candidates: BTreeSet<stuc_data::instance::ConstId> =
        by_constant.iter().flat_map(|m| m.keys().copied()).collect();

    // Independent project: P = 1 - Π_c (1 - P(q[root := c])).
    let mut product = 1.0;
    for constant in candidates {
        let name = tid.instance().constant_name(constant);
        let grounded: Vec<AtomTask> = tasks
            .iter()
            .enumerate()
            .map(|(i, task)| AtomTask {
                atom: substitute(&task.atom, &root, name),
                facts: if root_occurs[i] {
                    by_constant[i].get(&constant).cloned().unwrap_or_default()
                } else {
                    // The root does not occur in this atom (it was ground
                    // already): its fact list is unchanged.
                    task.facts.clone()
                },
            })
            .collect();
        let p = evaluate_tasks(tid, &grounded)?;
        product *= 1.0 - p;
    }
    Ok(1.0 - product)
}

/// Probability that at least one of the task's remaining facts is present
/// (the atom is fully ground, so every remaining fact matches it exactly).
fn ground_task_probability(tid: &TidInstance, task: &AtomTask) -> f64 {
    if task.facts.is_empty() {
        return 0.0;
    }
    let mut none_present = 1.0;
    for &f in &task.facts {
        none_present *= 1.0 - tid.probability(f);
    }
    1.0 - none_present
}

/// Splits atoms into connected components under the "shares a variable"
/// relation; ground atoms each form their own component.
fn variable_components(atoms: &[Atom]) -> Vec<Vec<usize>> {
    let n = atoms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in i + 1..n {
            if !atoms[i].variables().is_disjoint(&atoms[j].variables()) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                parent[a] = b;
            }
        }
    }
    let mut components: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let root = find(&mut parent, i);
        components.entry(root).or_default().push(i);
    }
    components.into_values().collect()
}

/// Substitutes a constant for a variable in an atom.
fn substitute(atom: &Atom, var: &str, constant: &str) -> Atom {
    Atom {
        relation: atom.relation.clone(),
        args: atom
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) if v == var => Term::Const(constant.to_string()),
                other => other.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::tid_lineage;
    use stuc_circuit::enumeration::probability_by_enumeration;

    fn star_tid() -> TidInstance {
        // R(a), R(b), S(a, c), S(b, d)
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a"], 0.5);
        tid.add_fact_named("R", &["b"], 0.25);
        tid.add_fact_named("S", &["a", "c"], 0.8);
        tid.add_fact_named("S", &["b", "d"], 0.4);
        tid
    }

    #[test]
    fn hierarchical_detection() {
        // R(x), S(x, y): at(x) = {0,1}, at(y) = {1} — nested → hierarchical.
        let q = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        assert!(is_hierarchical(&q));
        // The paper's hard query is not hierarchical.
        let q = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        assert!(!is_hierarchical(&q));
        // Variable-disjoint atoms are fine.
        let q = ConjunctiveQuery::parse("R(x), T(y)").unwrap();
        assert!(is_hierarchical(&q));
    }

    #[test]
    fn unsafe_query_is_rejected() {
        let tid = star_tid();
        let q = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        assert_eq!(
            safe_plan_probability(&tid, &q),
            Err(SafePlanError::NotHierarchical)
        );
    }

    #[test]
    fn self_join_is_rejected() {
        let tid = star_tid();
        let q = ConjunctiveQuery::parse("R(x), R(y)").unwrap();
        assert_eq!(
            safe_plan_probability(&tid, &q),
            Err(SafePlanError::SelfJoin)
        );
    }

    #[test]
    fn safe_query_matches_lineage_probability() {
        let tid = star_tid();
        let q = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let extensional = safe_plan_probability(&tid, &q).unwrap();
        let lineage = tid_lineage(&tid, &q);
        let intensional = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!(
            (extensional - intensional).abs() < 1e-12,
            "{extensional} vs {intensional}"
        );
    }

    #[test]
    fn independent_join_of_disjoint_atoms() {
        let tid = star_tid();
        let q = ConjunctiveQuery::parse("R(x), S(y, z)").unwrap();
        let extensional = safe_plan_probability(&tid, &q).unwrap();
        // P(∃x R(x)) = 1 - 0.5·0.75 = 0.625; P(∃yz S(y,z)) = 1 - 0.2·0.6 = 0.88.
        assert!((extensional - 0.625 * 0.88).abs() < 1e-12);
    }

    #[test]
    fn ground_query_probability() {
        let tid = star_tid();
        let q = ConjunctiveQuery::parse("R(\"a\")").unwrap();
        assert!((safe_plan_probability(&tid, &q).unwrap() - 0.5).abs() < 1e-12);
        let q = ConjunctiveQuery::parse("R(\"missing\")").unwrap();
        assert_eq!(safe_plan_probability(&tid, &q).unwrap(), 0.0);
    }

    #[test]
    fn single_atom_existential_query() {
        let tid = star_tid();
        let q = ConjunctiveQuery::parse("S(x, y)").unwrap();
        let p = safe_plan_probability(&tid, &q).unwrap();
        assert!((p - (1.0 - 0.2 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn constants_in_safe_queries() {
        let tid = star_tid();
        let q = ConjunctiveQuery::parse("S(x, \"c\")").unwrap();
        let p = safe_plan_probability(&tid, &q).unwrap();
        assert!((p - 0.8).abs() < 1e-12);
    }

    #[test]
    fn agreement_with_lineage_on_random_hierarchical_queries() {
        // Larger instance, same hierarchical query, several probability
        // settings: extensional and intensional evaluations must agree.
        let mut tid = TidInstance::new();
        for i in 0..4 {
            tid.add_fact_named("R", &[&format!("a{i}")], 0.3 + 0.1 * i as f64);
            for j in 0..3 {
                tid.add_fact_named(
                    "S",
                    &[&format!("a{i}"), &format!("b{j}")],
                    0.2 + 0.05 * j as f64,
                );
            }
        }
        let q = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let extensional = safe_plan_probability(&tid, &q).unwrap();
        let lineage = tid_lineage(&tid, &q);
        let intensional = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!((extensional - intensional).abs() < 1e-9);
    }

    #[test]
    fn empty_query_is_rejected() {
        let tid = star_tid();
        let q = ConjunctiveQuery {
            atoms: vec![],
            free_variables: vec![],
        };
        assert_eq!(
            safe_plan_probability(&tid, &q),
            Err(SafePlanError::EmptyQuery)
        );
    }

    #[test]
    fn repeated_variable_atom_with_no_matching_fact_contributes_zero() {
        // Regression: `R(x, x), S(x)` on {R(a, b), S(a)} — the only R-fact
        // conflicts at the two x-positions, so no grounding satisfies the
        // R-atom and the probability is exactly 0. A fact list passed
        // through unchanged here (instead of emptied) silently yields 0.25.
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a", "b"], 0.5);
        tid.add_fact_named("S", &["a"], 0.5);
        let q = ConjunctiveQuery::parse("R(x, x), S(x)").unwrap();
        let extensional = safe_plan_probability(&tid, &q).unwrap();
        let lineage = tid_lineage(&tid, &q);
        let intensional = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!(
            (extensional - intensional).abs() < 1e-12,
            "{extensional} vs {intensional}"
        );
        assert_eq!(extensional, 0.0);

        // And with a fact that *does* satisfy the repeated positions the
        // plan must count exactly that fact.
        tid.add_fact_named("R", &["a", "a"], 0.25);
        let extensional = safe_plan_probability(&tid, &q).unwrap();
        let lineage = tid_lineage(&tid, &q);
        let intensional = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!(
            (extensional - intensional).abs() < 1e-12,
            "{extensional} vs {intensional}"
        );
        assert!((extensional - 0.25 * 0.5).abs() < 1e-12);
    }
}
