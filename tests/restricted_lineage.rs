//! The Courcelle lineage run walks only what the query can reach: the facts
//! that survive arc consistency and the structure decomposition projected
//! onto their constants. These tests check that the restriction changes
//! nothing about the answer (differential against match enumeration on
//! random small TIDs), that the projection is a valid decomposition of what
//! it keeps, that the index-seeded reach pass keeps no more than a
//! whole-relation seeding and no less than every match, and that an
//! anchored goal's run does not grow with the instance.

use proptest::prelude::*;
use stuc::automata::courcelle::{cq_lineage_circuit, restrict_to_reach};
use stuc::circuit::enumeration::probability_by_enumeration;
use stuc::core::workloads;
use stuc::data::instance::{ConstId, FactId, Instance};
use stuc::data::tid::TidInstance;
use stuc::graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc::graph::graph::{Graph, VertexId};
use stuc::graph::TreeDecomposition;
use stuc::query::cq::{ConjunctiveQuery, Term};
use stuc::query::eval::all_matches;
use stuc::query::lineage::tid_lineage;

/// Bodies covering every shape the restriction must get right.
const BODIES: &[&str] = &[
    // anchored
    "R(\"c0\", x), R(x, y)",
    "S(x), R(x, \"c2\")",
    "R(\"c0\", \"c1\")",
    // unanchored, with self-joins and cycles
    "R(x, y), R(y, z)",
    "R(x, y), S(y)",
    "R(x, y), R(y, x)",
    "R(x, y), R(y, z), R(z, x)",
    // seeded outward from a constant, through shared variables
    "R(\"c0\", x), R(x, y), S(y)",
    "R(x, \"c1\"), R(y, x), R(y, y)",
    // disconnected
    "R(x, y), S(z)",
    "R(\"c2\", x), S(x), R(y, z), S(z)",
    "R(\"c1\", x), R(y, \"c3\")",
    "S(x), S(y), R(\"c4\", z)",
    // repeated variables
    "R(x, x)",
    "R(x, x), S(x)",
    "R(x, y), R(y, y)",
    // absent constant or relation
    "R(\"nowhere\", x)",
    "T(x), R(x, y)",
];

/// A TID over constants `c0..c5` with binary `R` (loops allowed) and unary
/// `S` facts.
fn tid_of(facts: &[(usize, usize, usize, f64)]) -> TidInstance {
    let mut tid = TidInstance::new();
    for &(kind, a, b, p) in facts {
        let (a, b) = (format!("c{a}"), format!("c{b}"));
        if kind < 2 {
            tid.add_fact_named("R", &[&a, &b], p);
        } else {
            tid.add_fact_named("S", &[&a], p);
        }
    }
    tid
}

fn queries() -> Vec<(String, ConjunctiveQuery)> {
    let mut queries: Vec<(String, ConjunctiveQuery)> = BODIES
        .iter()
        .map(|body| (body.to_string(), ConjunctiveQuery::parse(body).unwrap()))
        .collect();
    queries.push(("(empty body)".into(), ConjunctiveQuery::boolean(Vec::new())));
    queries
}

/// The projection, renumbered onto the Gaifman graph of the kept facts
/// alone, must be a valid decomposition of that graph.
fn check_projection(
    tid: &TidInstance,
    kept: &[stuc::data::instance::FactId],
    projected: &TreeDecomposition,
) -> Result<(), String> {
    let instance = tid.instance();
    let mut renumber = vec![usize::MAX; instance.constant_count()];
    let mut constants = 0;
    for &f in kept {
        for c in &instance.fact(f).args {
            if renumber[c.0] == usize::MAX {
                renumber[c.0] = constants;
                constants += 1;
            }
        }
    }
    let mut graph = Graph::with_vertices(constants);
    for &f in kept {
        let mut clique: Vec<VertexId> = instance
            .fact(f)
            .args
            .iter()
            .map(|c| VertexId(renumber[c.0]))
            .collect();
        clique.sort();
        clique.dedup();
        graph.add_clique(&clique);
    }
    let map: Vec<VertexId> = renumber.into_iter().map(VertexId).collect();
    projected
        .remap_vertices(&map)
        .validate(&graph)
        .map_err(|e| e.to_string())
}

/// The reach pass as it was before index seeding, kept as the upper bound
/// of the seeded one: every atom starts from all facts of its relation that
/// fit its arity, constants and repeated variables, followed by the same
/// arc-consistency rounds (at most `atoms + 1`, stopping at a fixpoint or
/// an atom without candidates).
fn reachable_by_scan(instance: &Instance, query: &ConjunctiveQuery) -> Vec<FactId> {
    let variables: Vec<String> = query.variables().into_iter().collect();
    let variable = |name: &str| variables.iter().position(|v| v == name).unwrap();
    let fits = |terms: &[Term], args: &[ConstId]| {
        args.len() == terms.len()
            && terms
                .iter()
                .zip(args)
                .enumerate()
                .all(|(i, (term, c))| match term {
                    Term::Const(name) => instance.find_constant(name) == Some(*c),
                    Term::Var(_) => terms[..i]
                        .iter()
                        .zip(args)
                        .all(|(t, d)| t != term || d == c),
                })
    };
    let mut candidates: Vec<Vec<FactId>> = query
        .atoms
        .iter()
        .map(|atom| {
            instance
                .facts()
                .filter(|(_, fact)| instance.relation_name(fact.relation) == atom.relation)
                .filter(|(_, fact)| fits(&atom.args, &fact.args))
                .map(|(id, _)| id)
                .collect()
        })
        .collect();
    for _ in 0..=query.atoms.len() {
        if candidates.iter().any(Vec::is_empty) {
            break;
        }
        let mut domains: Vec<Option<Vec<ConstId>>> = vec![None; variables.len()];
        for (atom, facts) in query.atoms.iter().zip(&candidates) {
            for (position, term) in atom.args.iter().enumerate() {
                if let Term::Var(name) = term {
                    let offered: Vec<ConstId> = facts
                        .iter()
                        .map(|&f| instance.fact(f).args[position])
                        .collect();
                    let domain = &mut domains[variable(name)];
                    *domain = Some(match domain.take() {
                        None => offered,
                        Some(d) => d.into_iter().filter(|c| offered.contains(c)).collect(),
                    });
                }
            }
        }
        let mut changed = false;
        for (atom, facts) in query.atoms.iter().zip(&mut candidates) {
            let before = facts.len();
            facts.retain(|&f| {
                atom.args
                    .iter()
                    .zip(&instance.fact(f).args)
                    .all(|(term, c)| match term {
                        Term::Var(name) => domains[variable(name)]
                            .as_ref()
                            .is_some_and(|d| d.contains(c)),
                        Term::Const(_) => true,
                    })
            });
            changed |= facts.len() != before;
        }
        if !changed {
            break;
        }
    }
    if candidates.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let mut kept = candidates.concat();
    kept.sort_unstable();
    kept.dedup();
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The index-seeded reach pass keeps a subset of what whole-relation
    /// seeding keeps, and every fact of every match, for every body shape.
    #[test]
    fn seeded_reach_lies_between_the_matches_and_the_scan(
        facts in collection::vec((0usize..3, 0usize..6, 0usize..6, 0.05f64..0.95), 1..12),
    ) {
        let tid = tid_of(&facts);
        let instance = tid.instance();
        let decomposition =
            decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinDegree);
        for (body, query) in queries() {
            let (kept, _) = restrict_to_reach(instance, &decomposition, &query).unwrap();
            let scanned = reachable_by_scan(instance, &query);
            let extra: Vec<&FactId> = kept.iter().filter(|f| !scanned.contains(f)).collect();
            prop_assert!(extra.is_empty(), "{body}: kept {extra:?} beyond the scan's {scanned:?}");
            for found in all_matches(instance, &query) {
                let missed: Vec<&FactId> =
                    found.witnesses.iter().filter(|f| kept.binary_search(f).is_err()).collect();
                prop_assert!(missed.is_empty(), "{body}: match facts {missed:?} not kept in {kept:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The restricted run's lineage has the probability of the
    /// match-enumeration lineage, for every body shape, and the projection
    /// it walks is a valid decomposition of the facts it keeps.
    #[test]
    fn restricted_lineage_agrees_with_enumeration(
        facts in collection::vec((0usize..3, 0usize..6, 0usize..6, 0.05f64..0.95), 1..10),
    ) {
        let tid = tid_of(&facts);
        let weights = tid.fact_weights();
        for heuristic in [EliminationHeuristic::MinDegree, EliminationHeuristic::MinFill] {
            let decomposition = decompose_with_heuristic(&tid.gaifman_graph(), heuristic);
            for (body, query) in queries() {
                let circuit =
                    cq_lineage_circuit(tid.instance(), &decomposition, &query, |f| tid.fact_event(f))
                        .unwrap();
                let restricted = probability_by_enumeration(&circuit, &weights).unwrap();
                let reference =
                    probability_by_enumeration(&tid_lineage(&tid, &query), &weights).unwrap();
                prop_assert!(
                    (restricted - reference).abs() < 1e-9,
                    "{body}: restricted {restricted} vs enumeration {reference}"
                );
                let (kept, projected) =
                    restrict_to_reach(tid.instance(), &decomposition, &query).unwrap();
                let valid = check_projection(&tid, &kept, &projected);
                prop_assert!(valid.is_ok(), "{body}: projection invalid: {valid:?}");
                prop_assert!(projected.width() <= decomposition.width());
            }
        }
    }
}

/// An anchored three-hop goal builds the same raw circuit on a 1k-fact and
/// a 50k-fact path: the run's size depends on what the anchor reaches, not
/// on the instance.
#[test]
fn anchored_raw_gate_count_does_not_grow_with_the_instance() {
    let query = ConjunctiveQuery::parse("R(\"c5\", x), R(x, y), R(y, z)").unwrap();
    let raw_gates = |n: usize| {
        let tid = workloads::path_tid(n, 0.5, 13);
        let decomposition =
            decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinDegree);
        let (kept, _) = restrict_to_reach(tid.instance(), &decomposition, &query).unwrap();
        assert_eq!(kept.len(), 3, "only R(c5,c6), R(c6,c7), R(c7,c8) can match");
        cq_lineage_circuit(tid.instance(), &decomposition, &query, |f| {
            tid.fact_event(f)
        })
        .unwrap()
        .len()
    };
    assert_eq!(raw_gates(1_000), raw_gates(50_000));
}
