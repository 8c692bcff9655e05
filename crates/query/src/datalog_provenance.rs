//! Provenance (lineage) circuits for Datalog over uncertain instances.
//!
//! The paper casts its automaton-produced lineages as "provenance circuits
//! \[21\] matching standard definitions of semiring provenance \[28\]", citing
//! the circuits-for-Datalog-provenance line of work. This module provides the
//! classical fixpoint construction of those circuits for positive Datalog
//! programs over tuple-independent and c-instances: every fact of the
//! saturated instance receives a gate whose Boolean function is true in
//! exactly the possible worlds where the fact is derivable.
//!
//! The construction iterates the provenance equations
//! `gate_{i+1}(f) = gate_EDB(f) ∨ ⋁_{instantiations deriving f} ⋀ gate_i(body)`
//! for as many stages as there are intensional facts; since every derivable
//! fact has a proof tree whose intensional depth is bounded by the number of
//! intensional facts, the Boolean function reached at that point is the least
//! fixpoint, even for recursive (e.g. transitive-closure) programs.

use std::collections::BTreeMap;

use crate::cq::ConjunctiveQuery;
use crate::datalog::{DatalogError, DatalogProgram};
use crate::eval::all_matches;
use crate::lineage::match_lineage;
use stuc_circuit::circuit::{Circuit, GateId};
use stuc_data::cinstance::CInstance;
use stuc_data::instance::{FactId, Instance};
use stuc_data::tid::TidInstance;

/// Provenance circuits for every fact of a saturated Datalog instance.
#[derive(Debug, Clone)]
pub struct DatalogProvenance {
    saturated: Instance,
    circuit: Circuit,
    fact_gates: BTreeMap<FactId, GateId>,
}

impl DatalogProvenance {
    /// Builds the provenance of `program` over a tuple-independent instance:
    /// each extensional fact is represented by its own independent event
    /// variable (as in [`TidInstance::fact_event`]).
    pub fn from_tid(tid: &TidInstance, program: &DatalogProgram) -> Result<Self, DatalogError> {
        let mut circuit = Circuit::new();
        let edb_gates: Vec<GateId> = tid
            .instance()
            .facts()
            .map(|(fact, _)| circuit.add_input(tid.fact_event(fact)))
            .collect();
        Self::build(tid.instance(), program, circuit, &edb_gates)
    }

    /// Builds the provenance of `program` over a c-instance: each extensional
    /// fact contributes its annotation formula (compiled into the circuit).
    pub fn from_cinstance(
        cinstance: &CInstance,
        program: &DatalogProgram,
    ) -> Result<Self, DatalogError> {
        let mut circuit = Circuit::new();
        let edb_gates: Vec<GateId> = cinstance
            .instance()
            .facts()
            .map(|(fact, _)| cinstance.annotation(fact).append_to_circuit(&mut circuit))
            .collect();
        Self::build(cinstance.instance(), program, circuit, &edb_gates)
    }

    fn build(
        base: &Instance,
        program: &DatalogProgram,
        mut circuit: Circuit,
        edb_gates: &[GateId],
    ) -> Result<Self, DatalogError> {
        let saturated = program.evaluate(base)?;
        // Gates of the current stage; extensional facts keep their gate
        // throughout, intensional facts start undefined (never derivable yet).
        let mut gates: BTreeMap<FactId, GateId> = base
            .facts()
            .map(|(fact, _)| (fact, edb_gates[fact.0]))
            .collect();
        let intensional: Vec<FactId> = saturated
            .facts()
            .map(|(fact, _)| fact)
            .filter(|fact| fact.0 >= base.fact_count())
            .collect();
        let stages = intensional.len();
        for _ in 0..stages {
            // Collect, per intensional fact, the derivations available with
            // the previous stage's gates.
            let mut disjuncts: BTreeMap<FactId, Vec<GateId>> = BTreeMap::new();
            for rule in program.rules() {
                let body_query = ConjunctiveQuery {
                    atoms: rule.body.clone(),
                    free_variables: vec![],
                };
                for homomorphism in all_matches(&saturated, &body_query) {
                    // The derived head fact under this homomorphism.
                    let Some(head_fact) =
                        instantiated_head(&saturated, rule, &homomorphism.assignment)
                    else {
                        continue;
                    };
                    if head_fact.0 < base.fact_count() {
                        // The head is an extensional fact; its lineage is its
                        // own event, derivations do not add anything.
                        continue;
                    }
                    let mut conjuncts = Vec::with_capacity(homomorphism.witnesses.len());
                    let mut all_defined = true;
                    for &witness in &homomorphism.witnesses {
                        match gates.get(&witness) {
                            Some(&gate) => conjuncts.push(gate),
                            None => {
                                all_defined = false;
                                break;
                            }
                        }
                    }
                    if !all_defined {
                        continue;
                    }
                    conjuncts.sort();
                    conjuncts.dedup();
                    let derivation = circuit.add_and(conjuncts);
                    disjuncts.entry(head_fact).or_default().push(derivation);
                }
            }
            // Install the new stage's gates.
            let mut changed = false;
            for &fact in &intensional {
                if let Some(derivations) = disjuncts.remove(&fact) {
                    let gate = circuit.add_or(derivations);
                    if gates.insert(fact, gate) != Some(gate) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Intensional facts never derived in any stage cannot actually occur;
        // the saturation is over the union of all possible worlds, so give
        // them a constant-false gate for completeness.
        let fact_gates: BTreeMap<FactId, GateId> = saturated
            .facts()
            .map(|(fact, _)| {
                let gate = gates
                    .get(&fact)
                    .copied()
                    .unwrap_or_else(|| circuit.add_const(false));
                (fact, gate)
            })
            .collect();
        Ok(DatalogProvenance {
            saturated,
            circuit,
            fact_gates,
        })
    }

    /// The instance saturated with every fact derivable in *some* possible
    /// world.
    pub fn saturated_instance(&self) -> &Instance {
        &self.saturated
    }

    /// The shared provenance circuit (without an output gate set).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The lineage circuit of one fact of the saturated instance, identified
    /// by relation name and argument constant names. Returns `None` if the
    /// fact is not in the saturated instance (it is derivable in no world).
    pub fn fact_lineage(&self, relation: &str, args: &[&str]) -> Option<Circuit> {
        let relation_id = self.saturated.find_relation(relation)?;
        let argument_ids: Option<Vec<_>> = args
            .iter()
            .map(|a| self.saturated.find_constant(a))
            .collect();
        let argument_ids = argument_ids?;
        let fact = self.saturated.find_fact(relation_id, &argument_ids)?;
        let mut circuit = self.circuit.clone();
        circuit.set_output(self.fact_gates[&fact]);
        Some(circuit)
    }

    /// The lineage circuit of a Boolean conjunctive query over the saturated
    /// instance: the OR over homomorphisms of the AND of the witnesses'
    /// lineage gates. This is how a query mixing extensional and derived
    /// relations is evaluated on the uncertain instance.
    pub fn query_lineage(&self, query: &ConjunctiveQuery) -> Circuit {
        let matches = all_matches(&self.saturated, query);
        match_lineage(
            self.circuit.clone(),
            matches.into_iter().map(|m| m.witnesses),
            |_, witness| self.fact_gates[&witness],
        )
    }
}

/// Resolves the head fact of a rule under a homomorphism of its body, if that
/// fact exists in the saturated instance.
fn instantiated_head(
    saturated: &Instance,
    rule: &crate::datalog::DatalogRule,
    assignment: &BTreeMap<String, stuc_data::instance::ConstId>,
) -> Option<FactId> {
    use crate::cq::Term;
    let relation = saturated.find_relation(&rule.head.relation)?;
    let mut arguments = Vec::with_capacity(rule.head.args.len());
    for term in &rule.head.args {
        match term {
            Term::Const(name) => arguments.push(saturated.find_constant(name)?),
            Term::Var(variable) => arguments.push(*assignment.get(variable)?),
        }
    }
    saturated
        .facts()
        .find(|(_, fact)| fact.relation == relation && fact.args == arguments)
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuc_circuit::compiled::one_shot_probability;
    use stuc_circuit::enumeration::probability_by_enumeration;
    use stuc_circuit::weights::Weights;
    use stuc_data::formula::Formula;

    fn transitive_closure() -> DatalogProgram {
        DatalogProgram::parse(
            "Reach(x, y) :- Edge(x, y)\n\
             Reach(x, z) :- Reach(x, y), Edge(y, z)",
        )
        .unwrap()
    }

    #[test]
    fn path_reachability_probability_is_the_product() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("Edge", &["a", "b"], 0.9);
        tid.add_fact_named("Edge", &["b", "c"], 0.5);
        let provenance = DatalogProvenance::from_tid(&tid, &transitive_closure()).unwrap();
        let lineage = provenance.fact_lineage("Reach", &["a", "c"]).unwrap();
        let p = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!((p - 0.45).abs() < 1e-9);
        let direct = provenance.fact_lineage("Reach", &["a", "b"]).unwrap();
        let p_direct = probability_by_enumeration(&direct, &tid.fact_weights()).unwrap();
        assert!((p_direct - 0.9).abs() < 1e-9);
    }

    #[test]
    fn diamond_reachability_combines_two_independent_paths() {
        // a→b→d and a→c→d, each edge with probability 0.5:
        // P[Reach(a,d)] = 1 − (1 − 0.25)² = 0.4375.
        let mut tid = TidInstance::new();
        for (from, to) in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")] {
            tid.add_fact_named("Edge", &[from, to], 0.5);
        }
        let provenance = DatalogProvenance::from_tid(&tid, &transitive_closure()).unwrap();
        let lineage = provenance.fact_lineage("Reach", &["a", "d"]).unwrap();
        let p = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!((p - 0.4375).abs() < 1e-9);
        // The treewidth back-end agrees with enumeration.
        let p_mp = one_shot_probability(&lineage, &tid.fact_weights()).unwrap();
        assert!((p - p_mp).abs() < 1e-9);
    }

    #[test]
    fn cyclic_programs_converge() {
        // A 2-cycle a⇄b: Reach(a, a) requires both edges.
        let mut tid = TidInstance::new();
        tid.add_fact_named("Edge", &["a", "b"], 0.5);
        tid.add_fact_named("Edge", &["b", "a"], 0.5);
        let provenance = DatalogProvenance::from_tid(&tid, &transitive_closure()).unwrap();
        let lineage = provenance.fact_lineage("Reach", &["a", "a"]).unwrap();
        let p = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!((p - 0.25).abs() < 1e-9);
    }

    #[test]
    fn underivable_facts_have_no_lineage() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("Edge", &["a", "b"], 0.5);
        let provenance = DatalogProvenance::from_tid(&tid, &transitive_closure()).unwrap();
        assert!(provenance.fact_lineage("Reach", &["b", "a"]).is_none());
    }

    #[test]
    fn query_lineage_mixes_edb_and_idb_atoms() {
        // "some node reaches d through an edge into d": Reach(x, y), Edge(y, "d").
        let mut tid = TidInstance::new();
        tid.add_fact_named("Edge", &["a", "b"], 1.0);
        tid.add_fact_named("Edge", &["b", "d"], 0.5);
        let provenance = DatalogProvenance::from_tid(&tid, &transitive_closure()).unwrap();
        let query = ConjunctiveQuery::parse("Reach(x, y), Edge(y, \"d\")").unwrap();
        let lineage = provenance.query_lineage(&query);
        let p = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        // Requires Edge(b, d): probability 0.5 (Reach(a, b) is certain).
        assert!((p - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cinstance_provenance_respects_correlated_annotations() {
        // Both edges carry the same event e: reachability over two hops has
        // probability P(e), not P(e)².
        let mut cinstance = CInstance::new();
        let event = cinstance.events_mut().intern("e");
        cinstance.add_annotated_fact("Edge", &["a", "b"], Formula::Var(event));
        cinstance.add_annotated_fact("Edge", &["b", "c"], Formula::Var(event));
        let provenance =
            DatalogProvenance::from_cinstance(&cinstance, &transitive_closure()).unwrap();
        let lineage = provenance.fact_lineage("Reach", &["a", "c"]).unwrap();
        let mut weights = Weights::new();
        weights.set(event, 0.3);
        let p = probability_by_enumeration(&lineage, &weights).unwrap();
        assert!((p - 0.3).abs() < 1e-9);
    }

    #[test]
    fn saturated_instance_contains_all_possible_derivations() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("Edge", &["a", "b"], 0.1);
        tid.add_fact_named("Edge", &["b", "c"], 0.1);
        let provenance = DatalogProvenance::from_tid(&tid, &transitive_closure()).unwrap();
        // 2 edges + Reach(a,b), Reach(b,c), Reach(a,c).
        assert_eq!(provenance.saturated_instance().fact_count(), 5);
    }
}
