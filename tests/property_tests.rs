//! Property-based tests on the core invariants of the workspace:
//! decomposition validity, back-end agreement, semantics preservation of
//! circuit transformations, and possible-world consistency.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stuc::automata::courcelle::cq_lineage_circuit;
use stuc::circuit::builder;
use stuc::circuit::circuit::VarId;
use stuc::circuit::compiled::one_shot_probability;
use stuc::circuit::dpll::DpllCounter;
use stuc::circuit::enumeration::probability_by_enumeration;
use stuc::circuit::weights::Weights;
use stuc::data::tid::TidInstance;
use stuc::graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc::graph::generators;
use stuc::graph::TreeDecomposition;
use stuc::order::porelation::PoRelation;
use stuc::query::cq::ConjunctiveQuery;
use stuc::query::lineage::tid_lineage;

/// The query's probability on `tid` by Theorem 1's pipeline: the lineage
/// run over `td`, counted by the one-shot sweep.
fn tid_probability(tid: &TidInstance, td: &TreeDecomposition, query: &ConjunctiveQuery) -> f64 {
    let circuit = cq_lineage_circuit(tid.instance(), td, query, |f| tid.fact_event(f)).unwrap();
    one_shot_probability(&circuit, &tid.fact_weights()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every heuristic produces a *valid* tree decomposition on random
    /// graphs, and its width is at least the MMD lower bound.
    #[test]
    fn decompositions_are_valid_on_random_graphs(n in 2usize..25, p in 0.05f64..0.6, seed in 0u64..500) {
        let graph = generators::erdos_renyi(n, p, seed);
        for heuristic in EliminationHeuristic::ALL {
            let td = decompose_with_heuristic(&graph, heuristic);
            prop_assert!(td.validate(&graph).is_ok());
            prop_assert!(td.width() >= stuc::graph::exact::mmd_lower_bound(&graph));
        }
    }

    /// The three probability back-ends agree on random circuits.
    #[test]
    fn circuit_backends_agree(vars in 2usize..8, internal in 2usize..16, seed in 0u64..1000, p in 0.05f64..0.95) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let weights = Weights::uniform(circuit.variables(), p);
        let brute = probability_by_enumeration(&circuit, &weights).unwrap();
        let dpll = DpllCounter::default().probability(&circuit, &weights).unwrap();
        let mp = one_shot_probability(&circuit, &weights).unwrap();
        prop_assert!((brute - dpll).abs() < 1e-9, "dpll {dpll} vs brute {brute}");
        prop_assert!((brute - mp).abs() < 1e-9, "wmc {mp} vs brute {brute}");
    }

    /// Binarisation and simplification preserve circuit semantics.
    #[test]
    fn circuit_transformations_preserve_semantics(vars in 1usize..6, internal in 1usize..12, seed in 0u64..1000) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let binarized = circuit.binarize();
        let simplified = circuit.simplify().unwrap();
        let variables: Vec<VarId> = circuit.variables().into_iter().collect();
        for bits in 0..(1u32 << variables.len()) {
            let assignment: BTreeMap<VarId, bool> = variables
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, bits & (1 << i) != 0))
                .collect();
            let reference = circuit.evaluate(&assignment).unwrap();
            prop_assert_eq!(binarized.evaluate(&assignment).unwrap(), reference);
            prop_assert_eq!(simplified.evaluate(&assignment).unwrap(), reference);
        }
    }

    /// The Courcelle pipeline (Theorem 1) agrees with the DNF-lineage method
    /// on random path-shaped TID instances for a self-join query.
    #[test]
    fn theorem1_agrees_with_lineage_on_random_paths(n in 2usize..9, seed in 0u64..300, p in 0.1f64..0.9) {
        let mut tid = TidInstance::new();
        for i in 0..n {
            tid.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)], p);
        }
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let td = decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinFill);
        let exact = tid_probability(&tid, &td, &query);
        let lineage = tid_lineage(&tid, &query);
        let reference = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        prop_assert!((exact - reference).abs() < 1e-9, "{exact} vs {reference}");
        let _ = seed;
    }

    /// Counting linear extensions by dynamic programming matches exhaustive
    /// enumeration on random partial orders.
    #[test]
    fn linear_extension_count_matches_enumeration(n in 1usize..7, edges in proptest::collection::vec((0usize..7, 0usize..7), 0..10)) {
        let mut po = PoRelation::new();
        for i in 0..n {
            po.add_tuple(vec![format!("t{i}")]);
        }
        for (a, b) in edges {
            if a < n && b < n && a != b {
                // Ignore constraints that would create cycles.
                let _ = po.add_order(stuc::order::porelation::ElementId(a), stuc::order::porelation::ElementId(b));
            }
        }
        let counted = po.count_linear_extensions().unwrap();
        let enumerated = po.linear_extensions().unwrap().len() as u64;
        prop_assert_eq!(counted, enumerated);
    }

    /// Probabilities computed by the pipeline are always within [0, 1] and
    /// monotone in the facts' probabilities for monotone queries.
    #[test]
    fn probabilities_are_monotone_in_fact_probabilities(n in 2usize..7, p in 0.1f64..0.45, seed in 0u64..200) {
        let make = |probability: f64| {
            let mut tid = TidInstance::new();
            for i in 0..n {
                tid.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)], probability);
            }
            tid
        };
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let low = make(p);
        let high = make((p * 2.0).min(0.95));
        let td_low = decompose_with_heuristic(&low.gaifman_graph(), EliminationHeuristic::MinDegree);
        let td_high = decompose_with_heuristic(&high.gaifman_graph(), EliminationHeuristic::MinDegree);
        let p_low = tid_probability(&low, &td_low, &query);
        let p_high = tid_probability(&high, &td_high, &query);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p_low));
        prop_assert!(p_high >= p_low - 1e-12, "{p_high} < {p_low}");
        let _ = seed;
    }
}
