//! Lineage circuits of Boolean conjunctive queries.
//!
//! The lineage (Boolean provenance) of a Boolean CQ `q` on an uncertain
//! instance is a circuit over the event variables that is true in exactly the
//! possible worlds where `q` holds: the disjunction, over all homomorphisms
//! of `q` into the instance, of the conjunction of the events (or annotation
//! formulas) of the facts used by the homomorphism.
//!
//! This is the classical "intensional" query evaluation method the paper
//! relates its automaton-based construction to: "our method relates to CQ
//! evaluation methods on probabilistic instances which compute a lineage of
//! the query and evaluate the probability of that lineage." It serves as a
//! general-purpose lineage builder (no treewidth assumption) and as a
//! cross-check for the automaton pipeline in `stuc-core`.

use crate::cq::ConjunctiveQuery;
use crate::eval::all_matches;
use std::collections::BTreeMap;
use stuc_circuit::circuit::{Circuit, GateId};
use stuc_data::cinstance::CInstance;
use stuc_data::instance::FactId;
use stuc_data::pcc::PccInstance;
use stuc_data::tid::TidInstance;

/// The one lineage builder: extends `circuit` with the OR, over the witness
/// lists, of the AND of each list's fact gates (sorted and deduplicated),
/// and makes that OR the output. `fact_gate` adds or names the gate of a
/// fact; it is asked once per fact, in order of first use, and memoised.
pub fn match_lineage(
    mut circuit: Circuit,
    witness_lists: impl IntoIterator<Item = Vec<FactId>>,
    mut fact_gate: impl FnMut(&mut Circuit, FactId) -> GateId,
) -> Circuit {
    let mut gates: BTreeMap<FactId, GateId> = BTreeMap::new();
    let mut disjuncts = Vec::new();
    for witnesses in witness_lists {
        let mut conjuncts: Vec<GateId> = witnesses
            .into_iter()
            .map(|f| *gates.entry(f).or_insert_with(|| fact_gate(&mut circuit, f)))
            .collect();
        conjuncts.sort();
        conjuncts.dedup();
        disjuncts.push(circuit.add_and(conjuncts));
    }
    let output = circuit.add_or(disjuncts);
    circuit.set_output(output);
    circuit
}

/// Builds the lineage circuit of a Boolean CQ on a TID instance.
///
/// Each fact `i` of the TID is represented by the input variable `i`
/// (matching [`TidInstance::fact_event`]); the circuit is the OR over all
/// matches of the AND of the witnesses' variables.
pub fn tid_lineage(tid: &TidInstance, query: &ConjunctiveQuery) -> Circuit {
    let matches = all_matches(tid.instance(), query);
    match_lineage(
        Circuit::new(),
        matches.into_iter().map(|m| m.witnesses),
        |circuit, f| circuit.add_input(tid.fact_event(f)),
    )
}

/// Builds the lineage circuit of a Boolean CQ on a c-instance: the OR over
/// matches of the AND of the witnesses' annotation formulas (compiled into
/// the circuit, shared per fact).
pub fn cinstance_lineage(ci: &CInstance, query: &ConjunctiveQuery) -> Circuit {
    let matches = all_matches(ci.instance(), query);
    match_lineage(
        Circuit::new(),
        matches.into_iter().map(|m| m.witnesses),
        |circuit, f| ci.annotation(f).append_to_circuit(circuit),
    )
}

/// Builds the lineage circuit of a Boolean CQ on a pcc-instance by extending
/// a copy of the shared annotation circuit with the OR-of-ANDs of the
/// matched facts' annotation gates.
pub fn pcc_lineage(pcc: &PccInstance, query: &ConjunctiveQuery) -> Circuit {
    let matches = all_matches(pcc.instance(), query);
    match_lineage(
        pcc.annotation_circuit().clone(),
        matches.into_iter().map(|m| m.witnesses),
        |_, f| pcc.fact_gate(f),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuc_circuit::enumeration::probability_by_enumeration;
    use stuc_circuit::weights::Weights;
    use stuc_data::worlds;

    fn path_tid(n: usize, p: f64) -> TidInstance {
        let mut tid = TidInstance::new();
        for i in 0..n {
            tid.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)], p);
        }
        tid
    }

    #[test]
    fn tid_lineage_of_two_step_path() {
        let tid = path_tid(2, 0.5);
        let q = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let lineage = tid_lineage(&tid, &q);
        let p = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tid_lineage_matches_world_enumeration() {
        let tid = path_tid(4, 0.3);
        let q = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let lineage = tid_lineage(&tid, &q);
        let from_lineage = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        let from_worlds = worlds::tid_query_probability(&tid, |facts| {
            // The query holds when two consecutive path facts are present.
            (0..3).any(|i| {
                facts.contains(&stuc_data::instance::FactId(i))
                    && facts.contains(&stuc_data::instance::FactId(i + 1))
            })
        })
        .unwrap();
        assert!((from_lineage - from_worlds).abs() < 1e-12);
    }

    #[test]
    fn unsatisfiable_query_has_false_lineage() {
        let tid = path_tid(2, 0.5);
        let q = ConjunctiveQuery::parse("Missing(x)").unwrap();
        let lineage = tid_lineage(&tid, &q);
        let p = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert_eq!(p, 0.0);
    }

    /// "Some round trip CDG → MEL → CDG exists".
    fn round_trip_query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse(
            "Trip(\"Paris_CDG\", \"Melbourne_MEL\"), Trip(\"Melbourne_MEL\", \"Paris_CDG\")",
        )
        .unwrap()
    }

    #[test]
    fn cinstance_lineage_on_table1() {
        // "Some round trip CDG → MEL → CDG exists" requires pods (first leg)
        // and pods ∧ ¬stoc (return leg): probability = P(pods) · P(¬stoc).
        let ci = CInstance::table1_example();
        let lineage = cinstance_lineage(&ci, &round_trip_query());
        let pods = ci.events().find("pods").unwrap();
        let stoc = ci.events().find("stoc").unwrap();
        let mut w = Weights::new();
        w.set(pods, 0.8);
        w.set(stoc, 0.3);
        let p = probability_by_enumeration(&lineage, &w).unwrap();
        assert!((p - 0.8 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn cinstance_lineage_agrees_with_world_enumeration() {
        let ci = CInstance::table1_example();
        let q = ConjunctiveQuery::parse("Trip(x, \"Paris_CDG\")").unwrap();
        let lineage = cinstance_lineage(&ci, &q);
        let pods = ci.events().find("pods").unwrap();
        let stoc = ci.events().find("stoc").unwrap();
        let mut w = Weights::new();
        w.set(pods, 0.6);
        w.set(stoc, 0.45);
        let from_lineage = probability_by_enumeration(&lineage, &w).unwrap();

        let pc = ci.clone().with_probabilities(w);
        let cdg = pc.instance().find_constant("Paris_CDG").unwrap();
        let from_worlds = worlds::query_probability(&pc, |facts| {
            facts
                .iter()
                .any(|&f| pc.instance().fact(f).args.get(1) == Some(&cdg))
        })
        .unwrap();
        assert!((from_lineage - from_worlds).abs() < 1e-12);
    }

    /// Two facts correlated by a single trust event.
    fn shared_trust_pcc() -> PccInstance {
        let mut pcc = PccInstance::new();
        let jane = stuc_circuit::circuit::VarId(0);
        let gate = pcc.annotation_circuit_mut().add_input(jane);
        pcc.probabilities_mut().set(jane, 0.9);
        pcc.add_fact_with_gate("PlaceOfBirth", &["manning", "crescent"], gate);
        pcc.add_fact_with_gate("Surname", &["manning", "manning_s"], gate);
        pcc
    }

    #[test]
    fn pcc_lineage_uses_shared_annotations() {
        // The query needing both facts has probability equal to the trust
        // probability.
        let pcc = shared_trust_pcc();
        let q = ConjunctiveQuery::parse("PlaceOfBirth(x, y), Surname(x, z)").unwrap();
        let lineage = pcc_lineage(&pcc, &q);
        let p = probability_by_enumeration(&lineage, pcc.probabilities()).unwrap();
        assert!((p - 0.9).abs() < 1e-12);
    }

    #[test]
    fn lineage_is_monotone_for_tid() {
        let tid = path_tid(3, 0.5);
        let q = ConjunctiveQuery::parse("R(x, y)").unwrap();
        let lineage = tid_lineage(&tid, &q);
        assert!(lineage.is_monotone());
    }

    #[test]
    fn duplicate_witnesses_are_deduplicated() {
        // Query with a repeated atom matching the same fact must not create
        // duplicate conjuncts.
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a", "a"], 0.5);
        let q = ConjunctiveQuery::parse("R(x, x), R(x, x)").unwrap();
        let lineage = tid_lineage(&tid, &q);
        let p = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }

    /// The circuits are pinned gate for gate: a change of match order, gate
    /// order or deduplication shows here even when probabilities agree.
    #[test]
    fn lineage_circuits_are_pinned_gate_for_gate() {
        let ci = CInstance::table1_example();
        assert_eq!(
            format!("{:?}", cinstance_lineage(&ci, &round_trip_query())),
            "Circuit { gates: [Input(VarId(0)), Input(VarId(0)), Input(VarId(1)), Not(GateId(2)), And([GateId(1), GateId(3)]), And([GateId(0), GateId(4)]), Or([GateId(5)])], output: Some(GateId(6)) }"
        );
        let q = ConjunctiveQuery::parse("PlaceOfBirth(x, y), Surname(x, z)").unwrap();
        assert_eq!(
            format!("{:?}", pcc_lineage(&shared_trust_pcc(), &q)),
            "Circuit { gates: [Input(VarId(0)), And([GateId(0)]), Or([GateId(1)])], output: Some(GateId(2)) }"
        );
        let q = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        assert_eq!(
            format!("{:?}", tid_lineage(&path_tid(6, 0.5), &q)),
            "Circuit { gates: [Input(VarId(0)), Input(VarId(1)), And([GateId(0), GateId(1)]), Input(VarId(2)), And([GateId(1), GateId(3)]), Input(VarId(3)), And([GateId(3), GateId(5)]), Input(VarId(4)), And([GateId(5), GateId(7)]), Input(VarId(5)), And([GateId(7), GateId(9)]), Or([GateId(2), GateId(4), GateId(6), GateId(8), GateId(10)])], output: Some(GateId(11)) }"
        );
    }
}
