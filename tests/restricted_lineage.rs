//! The Courcelle lineage run walks only what the query can reach: the facts
//! that survive arc consistency and the structure decomposition projected
//! onto their constants. These tests check that the restriction changes
//! nothing about the answer (differential against match enumeration on
//! random small TIDs), that the projection is a valid decomposition of what
//! it keeps, and that an anchored goal's run does not grow with the
//! instance.

use proptest::prelude::*;
use stuc::automata::courcelle::{cq_lineage_circuit, restrict_to_reach};
use stuc::circuit::enumeration::probability_by_enumeration;
use stuc::core::workloads;
use stuc::data::tid::TidInstance;
use stuc::graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc::graph::graph::{Graph, VertexId};
use stuc::graph::TreeDecomposition;
use stuc::query::cq::ConjunctiveQuery;
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
    // disconnected
    "R(x, y), S(z)",
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
