//! Conditioning PrXML documents with constraints.
//!
//! The paper's Section 4 observes that "existing work in the probabilistic
//! XML context has shown that it is tractable to query a document that has
//! been conditioned using a specific language of constraints" (Cohen,
//! Kimelfeld, Sagiv). This module provides such a constraint language over
//! PrXML documents — observed tree patterns, negated patterns, and counting
//! constraints on labels — and computes conditioned query probabilities
//! `P(query | constraint)` by Bayes over lineage circuits, with the naive
//! valuation enumeration available as a cross-check.
//!
//! Conditioning on the value of a named *global event* remains the cheap
//! case (fix its probability to 0 or 1); conditioning on a constraint goes
//! through the circuits and stays exact as long as the probability back-ends
//! accept them — which is the structural-tractability story of the paper,
//! replayed for conditioning.

use std::collections::BTreeMap;

use crate::document::{NodeId, PrXmlDocument};
use crate::queries::{lineage_gate, query_holds_in_world, PrxmlQuery};
use stuc_circuit::circuit::{Circuit, GateId, VarId};
use stuc_circuit::compiled::{one_shot_probability, OneShotError};

/// An observation (constraint) on a PrXML document.
#[derive(Debug, Clone, PartialEq)]
pub enum PrxmlConstraint {
    /// The tree-pattern query was observed to hold.
    Holds(PrxmlQuery),
    /// The tree-pattern query was observed *not* to hold.
    Violated(PrxmlQuery),
    /// At least `min` present nodes carry the label.
    AtLeast {
        /// The node label being counted.
        label: String,
        /// Minimum number of present nodes with that label.
        min: usize,
    },
    /// At most `max` present nodes carry the label.
    AtMost {
        /// The node label being counted.
        label: String,
        /// Maximum number of present nodes with that label.
        max: usize,
    },
    /// All of the listed constraints hold.
    All(Vec<PrxmlConstraint>),
}

stuc_errors::stuc_error! {
    /// Errors raised when conditioning a document.
    #[derive(Clone, PartialEq)]
    pub enum PrxmlConstraintError {
        /// The observation has probability zero: conditioning is undefined.
        ImpossibleObservation,
        /// No probability back-end could evaluate the circuits.
        Probability(String),
        /// A named global event was not found in the document.
        UnknownEvent(String),
    }
    display {
        Self::ImpossibleObservation => "the observed constraint has probability zero",
        Self::Probability(message) => "probability computation failed: {message}",
        Self::UnknownEvent(name) => "unknown global event '{name}'",
    }
}

impl From<OneShotError> for PrxmlConstraintError {
    fn from(e: OneShotError) -> Self {
        PrxmlConstraintError::Probability(e.to_string())
    }
}

/// True if the constraint is satisfied by a given set of present nodes
/// (used by tests and by the enumeration cross-check).
pub fn constraint_holds_in_world(
    doc: &PrXmlDocument,
    constraint: &PrxmlConstraint,
    present: &std::collections::BTreeSet<NodeId>,
) -> bool {
    match constraint {
        PrxmlConstraint::Holds(query) => query_holds_in_world(doc, query, present),
        PrxmlConstraint::Violated(query) => !query_holds_in_world(doc, query, present),
        PrxmlConstraint::AtLeast { label, min } => {
            present.iter().filter(|&&n| doc.label(n) == label).count() >= *min
        }
        PrxmlConstraint::AtMost { label, max } => {
            present.iter().filter(|&&n| doc.label(n) == label).count() <= *max
        }
        PrxmlConstraint::All(parts) => parts
            .iter()
            .all(|part| constraint_holds_in_world(doc, part, present)),
    }
}

/// Appends the constraint's gate to a circuit sharing the document's presence
/// gates, returning the gate that is true exactly in the worlds satisfying
/// the constraint.
fn constraint_gate(
    doc: &PrXmlDocument,
    constraint: &PrxmlConstraint,
    circuit: &mut Circuit,
    node_gates: &[GateId],
) -> GateId {
    match constraint {
        PrxmlConstraint::Holds(query) => lineage_gate(doc, query, circuit, node_gates),
        PrxmlConstraint::Violated(query) => {
            let holds = lineage_gate(doc, query, circuit, node_gates);
            circuit.add_not(holds)
        }
        PrxmlConstraint::AtLeast { label, min } => {
            at_least_gate(doc, label, *min, circuit, node_gates)
        }
        PrxmlConstraint::AtMost { label, max } => {
            let exceeded = at_least_gate(doc, label, *max + 1, circuit, node_gates);
            circuit.add_not(exceeded)
        }
        PrxmlConstraint::All(parts) => {
            let gates: Vec<GateId> = parts
                .iter()
                .map(|part| constraint_gate(doc, part, circuit, node_gates))
                .collect();
            circuit.add_and(gates)
        }
    }
}

/// A monotone threshold gate: "at least `threshold` of the label's nodes are
/// present", built by the textbook counting DP (`reach[j][c]` = at least `c`
/// among the first `j` witnesses).
fn at_least_gate(
    doc: &PrXmlDocument,
    label: &str,
    threshold: usize,
    circuit: &mut Circuit,
    node_gates: &[GateId],
) -> GateId {
    let witnesses: Vec<GateId> = (0..doc.len())
        .filter(|&n| doc.label(NodeId(n)) == label)
        .map(|n| node_gates[n])
        .collect();
    if threshold == 0 {
        return circuit.add_const(true);
    }
    if threshold > witnesses.len() {
        return circuit.add_const(false);
    }
    // reach[c] after processing j witnesses = "at least c of them are present".
    let always = circuit.add_const(true);
    let never = circuit.add_const(false);
    let mut reach: Vec<GateId> = vec![never; threshold + 1];
    reach[0] = always;
    for &witness in &witnesses {
        // Update from high counts to low so each witness is used once.
        for count in (1..=threshold).rev() {
            let with_witness = circuit.add_and(vec![reach[count - 1], witness]);
            reach[count] = circuit.add_or(vec![reach[count], with_witness]);
        }
    }
    reach[threshold]
}

/// The probability that the constraint holds on the document.
pub fn constraint_probability(
    doc: &PrXmlDocument,
    constraint: &PrxmlConstraint,
) -> Result<f64, PrxmlConstraintError> {
    let (mut circuit, node_gates) = doc.presence_circuit();
    let gate = constraint_gate(doc, constraint, &mut circuit, &node_gates);
    circuit.set_output(gate);
    Ok(one_shot_probability(&circuit, doc.probabilities())?)
}

/// The conditioned probability `P(query | constraint)` on the document,
/// computed by Bayes over lineage circuits sharing the presence gates.
pub fn conditioned_query_probability(
    doc: &PrXmlDocument,
    query: &PrxmlQuery,
    constraint: &PrxmlConstraint,
) -> Result<f64, PrxmlConstraintError> {
    let (mut circuit, node_gates) = doc.presence_circuit();
    let query_gate = lineage_gate(doc, query, &mut circuit, &node_gates);
    let observed_gate = constraint_gate(doc, constraint, &mut circuit, &node_gates);

    let mut observation = circuit.clone();
    observation.set_output(observed_gate);
    let evidence = one_shot_probability(&observation, doc.probabilities())?;
    if evidence <= f64::EPSILON {
        return Err(PrxmlConstraintError::ImpossibleObservation);
    }

    let joint_gate = circuit.add_and(vec![query_gate, observed_gate]);
    circuit.set_output(joint_gate);
    let joint = one_shot_probability(&circuit, doc.probabilities())?;
    Ok(joint / evidence)
}

/// The conditioned probability computed by brute-force enumeration of the
/// document's variable valuations (exponential; used as a cross-check).
pub fn conditioned_query_probability_by_enumeration(
    doc: &PrXmlDocument,
    query: &PrxmlQuery,
    constraint: &PrxmlConstraint,
) -> Result<f64, PrxmlConstraintError> {
    let variables: Vec<VarId> = doc.variables().into_iter().collect();
    if variables.len() > 24 {
        return Err(PrxmlConstraintError::Probability(format!(
            "{} variables exceed the enumeration cross-check limit",
            variables.len()
        )));
    }
    let mut evidence = 0.0;
    let mut joint = 0.0;
    for assignment in 0u64..(1u64 << variables.len()) {
        let mut valuation = BTreeMap::new();
        let mut mass = 1.0;
        for (index, &variable) in variables.iter().enumerate() {
            let value = assignment & (1 << index) != 0;
            valuation.insert(variable, value);
            let p = doc.probabilities().get(variable).unwrap_or(0.5);
            mass *= if value { p } else { 1.0 - p };
        }
        if mass == 0.0 {
            continue;
        }
        let present = doc.world_nodes(&valuation);
        if constraint_holds_in_world(doc, constraint, &present) {
            evidence += mass;
            if query_holds_in_world(doc, query, &present) {
                joint += mass;
            }
        }
    }
    if evidence <= f64::EPSILON {
        return Err(PrxmlConstraintError::ImpossibleObservation);
    }
    Ok(joint / evidence)
}

/// Conditions the document on the observed value of a named global event:
/// the cheap conditioning case (the event's probability is set to 1 or 0 and
/// every query probability computed afterwards is conditioned).
pub fn condition_on_event(
    doc: &mut PrXmlDocument,
    event_name: &str,
    value: bool,
) -> Result<VarId, PrxmlConstraintError> {
    let event = doc
        .find_event(event_name)
        .ok_or_else(|| PrxmlConstraintError::UnknownEvent(event_name.to_string()))?;
    doc.probabilities_mut()
        .set(event, if value { 1.0 } else { 0.0 });
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::query_probability;

    fn figure1() -> PrXmlDocument {
        PrXmlDocument::figure1_example()
    }

    #[test]
    fn conditioning_on_a_certain_constraint_changes_nothing() {
        let doc = figure1();
        let query = PrxmlQuery::LabelExists("musician".into());
        let unconditioned = query_probability(&doc, &query).unwrap();
        let conditioned = conditioned_query_probability(
            &doc,
            &query,
            &PrxmlConstraint::Holds(PrxmlQuery::LabelExists("Q298423".into())),
        )
        .unwrap();
        assert!((unconditioned - conditioned).abs() < 1e-9);
    }

    #[test]
    fn observing_a_pattern_makes_it_certain() {
        let doc = figure1();
        let query = PrxmlQuery::LabelExists("musician".into());
        let conditioned =
            conditioned_query_probability(&doc, &query, &PrxmlConstraint::Holds(query.clone()))
                .unwrap();
        assert!((conditioned - 1.0).abs() < 1e-9);
        let excluded =
            conditioned_query_probability(&doc, &query, &PrxmlConstraint::Violated(query.clone()))
                .unwrap();
        assert!(excluded.abs() < 1e-9);
    }

    #[test]
    fn bayes_matches_enumeration_on_figure1() {
        let doc = figure1();
        // Condition on the surname being recorded (an eJane-dependent fact)
        // and ask for the place of birth (also eJane-dependent): the two are
        // perfectly correlated, so the conditioned probability is 1.
        let query = PrxmlQuery::LabelExists("Crescent".into());
        let constraint = PrxmlConstraint::Holds(PrxmlQuery::LabelExists("Manning".into()));
        let exact = conditioned_query_probability(&doc, &query, &constraint).unwrap();
        let enumerated =
            conditioned_query_probability_by_enumeration(&doc, &query, &constraint).unwrap();
        assert!((exact - enumerated).abs() < 1e-9);
        assert!((exact - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditioning_on_unrelated_evidence_matches_enumeration() {
        let doc = figure1();
        // Condition on the occupation being present; ask for the given name
        // being Chelsea (independent parts of the document).
        let query = PrxmlQuery::LabelExists("Chelsea".into());
        let constraint = PrxmlConstraint::Holds(PrxmlQuery::LabelExists("musician".into()));
        let exact = conditioned_query_probability(&doc, &query, &constraint).unwrap();
        let enumerated =
            conditioned_query_probability_by_enumeration(&doc, &query, &constraint).unwrap();
        assert!((exact - enumerated).abs() < 1e-9);
        assert!((exact - 0.6).abs() < 1e-9);
    }

    #[test]
    fn impossible_observations_are_rejected() {
        let doc = figure1();
        let query = PrxmlQuery::LabelExists("musician".into());
        // "Both given names present" is impossible: mux choices are mutually
        // exclusive.
        let constraint = PrxmlConstraint::All(vec![
            PrxmlConstraint::Holds(PrxmlQuery::LabelExists("Chelsea".into())),
            PrxmlConstraint::Holds(PrxmlQuery::LabelExists("Bradley".into())),
        ]);
        assert_eq!(
            conditioned_query_probability(&doc, &query, &constraint),
            Err(PrxmlConstraintError::ImpossibleObservation)
        );
    }

    #[test]
    fn counting_constraints() {
        let doc = figure1();
        // Figure 1 has exactly one node labeled "given name" (always present).
        let at_least_one = PrxmlConstraint::AtLeast {
            label: "given name".into(),
            min: 1,
        };
        let probability = constraint_probability(&doc, &at_least_one).unwrap();
        assert!((probability - 1.0).abs() < 1e-9);
        let at_least_two = PrxmlConstraint::AtLeast {
            label: "given name".into(),
            min: 2,
        };
        assert!(constraint_probability(&doc, &at_least_two).unwrap().abs() < 1e-9);
        let at_most_zero = PrxmlConstraint::AtMost {
            label: "musician".into(),
            max: 0,
        };
        let p_no_musician = constraint_probability(&doc, &at_most_zero).unwrap();
        assert!((p_no_musician - 0.6).abs() < 1e-9);
    }

    #[test]
    fn counting_constraints_on_synthetic_documents() {
        // A root with three independent "claim" children, each present with
        // probability 0.5: P[at least 2 claims] = 0.5 (3·0.125 + 0.125).
        let mut doc = PrXmlDocument::new();
        let root = doc.add_node("root");
        doc.set_root(root);
        for _ in 0..3 {
            let claim = doc.add_node("claim");
            doc.add_ind_child(root, claim, 0.5);
        }
        let constraint = PrxmlConstraint::AtLeast {
            label: "claim".into(),
            min: 2,
        };
        let probability = constraint_probability(&doc, &constraint).unwrap();
        assert!((probability - 0.5).abs() < 1e-9);
        // Conditioning "some claim exists" on "at least 2 claims" is certain.
        let conditioned = conditioned_query_probability(
            &doc,
            &PrxmlQuery::LabelExists("claim".into()),
            &constraint,
        )
        .unwrap();
        assert!((conditioned - 1.0).abs() < 1e-9);
    }

    #[test]
    fn event_conditioning_is_a_weight_update() {
        let mut doc = figure1();
        let query = PrxmlQuery::LabelExists("Manning".into());
        let before = query_probability(&doc, &query).unwrap();
        assert!((before - 0.9).abs() < 1e-9);
        condition_on_event(&mut doc, "eJane", true).unwrap();
        let after = query_probability(&doc, &query).unwrap();
        assert!((after - 1.0).abs() < 1e-9);
        assert!(matches!(
            condition_on_event(&mut doc, "no_such_event", true),
            Err(PrxmlConstraintError::UnknownEvent(_))
        ));
    }
}
