//! Conditioning pc-instances on observations.

use stuc_circuit::circuit::{Circuit, VarId};
use stuc_circuit::compiled::{one_shot_probability, OneShotError};
use stuc_circuit::weights::Weights;
use stuc_data::cinstance::PcInstance;
use stuc_data::instance::FactId;
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::lineage::cinstance_lineage;

stuc_errors::stuc_error! {
    /// Errors raised by conditioning.
    #[derive(Clone, PartialEq)]
    pub enum ConditioningError {
        /// The conditioning observation has probability zero.
        ImpossibleObservation,
        /// A probability computation failed.
        Probability(String),
    }
    display {
        Self::ImpossibleObservation => "the observation has probability zero",
        Self::Probability(e) => "probability computation failed: {e}",
    }
}

impl From<OneShotError> for ConditioningError {
    fn from(e: OneShotError) -> Self {
        ConditioningError::Probability(e.to_string())
    }
}

/// Conditions a pc-instance on the observed value of a named event.
///
/// Because the events of a pc-instance are independent, conditioning on one
/// of them simply fixes its probability to 0 or 1 — the cheap case the paper
/// contrasts with fact-level conditioning. The instance is modified in
/// place.
pub fn condition_on_event(pc: &mut PcInstance, event: VarId, value: bool) {
    pc.probabilities_mut().fix(event, value);
}

/// The probability of a Boolean query *given* that an observation circuit is
/// true: `P(query ∧ observation) / P(observation)`, computed through the
/// lineage back-ends (Bayes).
pub fn conditioned_probability(
    query_lineage: &Circuit,
    observation: &Circuit,
    weights: &Weights,
) -> Result<f64, ConditioningError> {
    let p_observation = one_shot_probability(observation, weights)?;
    if p_observation <= 0.0 {
        return Err(ConditioningError::ImpossibleObservation);
    }
    // Conjoin the two circuits: import the observation into a copy of the
    // query lineage and AND the outputs.
    let mut joint = query_lineage.clone();
    let offset = joint.len();
    for (_, gate) in observation.iter() {
        use stuc_circuit::circuit::{Gate, GateId};
        let remapped = match gate {
            Gate::Input(v) => Gate::Input(*v),
            Gate::Const(b) => Gate::Const(*b),
            Gate::And(xs) => Gate::And(xs.iter().map(|g| GateId(g.0 + offset)).collect()),
            Gate::Or(xs) => Gate::Or(xs.iter().map(|g| GateId(g.0 + offset)).collect()),
            Gate::Not(x) => Gate::Not(GateId(x.0 + offset)),
        };
        // Reconstruct gates through the public API to keep invariants.
        match remapped {
            Gate::Input(v) => {
                joint.add_input(v);
            }
            Gate::Const(b) => {
                joint.add_const(b);
            }
            Gate::And(xs) => {
                joint.add_and(xs);
            }
            Gate::Or(xs) => {
                joint.add_or(xs);
            }
            Gate::Not(x) => {
                joint.add_not(x);
            }
        }
    }
    let query_output = query_lineage.output().expect("query lineage has an output");
    let observation_output = stuc_circuit::circuit::GateId(
        observation.output().expect("observation has an output").0 + offset,
    );
    let and = joint.add_and(vec![query_output, observation_output]);
    joint.set_output(and);
    let p_joint = one_shot_probability(&joint, weights)?;
    Ok(p_joint / p_observation)
}

/// The probability of a Boolean conjunctive query on a pc-instance given the
/// observation that a specific fact is (or is not) present.
///
/// This is the expensive direction of conditioning the paper points out: the
/// observation is the fact's arbitrary annotation formula, so the whole
/// computation is Bayes over lineage circuits.
pub fn conditioned_query_probability(
    pc: &PcInstance,
    query: &ConjunctiveQuery,
    observed_fact: FactId,
    observed_present: bool,
) -> Result<f64, ConditioningError> {
    let query_lineage = cinstance_lineage(pc.cinstance(), query);
    let annotation = pc.cinstance().annotation(observed_fact);
    let mut observation = annotation.to_circuit();
    if !observed_present {
        let output = observation
            .output()
            .expect("annotation circuit has an output");
        let negated = observation.add_not(output);
        observation.set_output(negated);
    }
    conditioned_probability(&query_lineage, &observation, pc.probabilities())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuc_data::cinstance::CInstance;
    use stuc_data::worlds;

    fn table1_pc(p_pods: f64, p_stoc: f64) -> PcInstance {
        let ci = CInstance::table1_example();
        let pods = ci.events().find("pods").unwrap();
        let stoc = ci.events().find("stoc").unwrap();
        let mut w = Weights::new();
        w.set(pods, p_pods);
        w.set(stoc, p_stoc);
        ci.with_probabilities(w)
    }

    #[test]
    fn conditioning_on_event_fixes_probability() {
        let mut pc = table1_pc(0.8, 0.3);
        let pods = pc.cinstance().events().find("pods").unwrap();
        condition_on_event(&mut pc, pods, true);
        assert_eq!(pc.probabilities().get(pods), Some(1.0));
        // The query "some trip to Melbourne exists" is now certain.
        let q = ConjunctiveQuery::parse("Trip(x, \"Melbourne_MEL\")").unwrap();
        let lineage = cinstance_lineage(pc.cinstance(), &q);
        let p = one_shot_probability(&lineage, pc.probabilities()).unwrap();
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fact_conditioning_matches_bayes_by_enumeration() {
        let pc = table1_pc(0.8, 0.3);
        // Observe that the Melbourne → Paris return trip is booked
        // (annotation pods ∧ ¬stoc); ask for the probability that some trip
        // to Portland exists — which is then impossible (stoc is false).
        let q = ConjunctiveQuery::parse("Trip(x, \"Portland_PDX\")").unwrap();
        let p = conditioned_query_probability(&pc, &q, FactId(1), true).unwrap();
        assert!(p.abs() < 1e-9, "got {p}");

        // Observe the same fact absent; compute the same conditional by
        // brute-force Bayes over worlds as a cross-check.
        let p = conditioned_query_probability(&pc, &q, FactId(1), false).unwrap();
        let pdx = pc.instance().find_constant("Portland_PDX").unwrap();
        let joint = worlds::query_probability(&pc, |facts| {
            let observation_absent = !facts.contains(&FactId(1));
            let query_holds = facts
                .iter()
                .any(|&f| pc.instance().fact(f).args.get(1) == Some(&pdx));
            observation_absent && query_holds
        })
        .unwrap();
        let evidence = worlds::query_probability(&pc, |facts| !facts.contains(&FactId(1))).unwrap();
        assert!(
            (p - joint / evidence).abs() < 1e-9,
            "{p} vs {}",
            joint / evidence
        );
    }

    #[test]
    fn impossible_observation_is_reported() {
        let pc = table1_pc(0.0, 0.3);
        // Observing the CDG → MEL trip (annotation pods) is impossible.
        let q = ConjunctiveQuery::parse("Trip(x, y)").unwrap();
        assert_eq!(
            conditioned_query_probability(&pc, &q, FactId(0), true),
            Err(ConditioningError::ImpossibleObservation)
        );
    }

    #[test]
    fn conditioning_on_true_observation_is_identity() {
        let pc = table1_pc(0.6, 0.4);
        let q = ConjunctiveQuery::parse("Trip(x, \"Melbourne_MEL\")").unwrap();
        let lineage = cinstance_lineage(pc.cinstance(), &q);
        let mut tautology = Circuit::new();
        let t = tautology.add_const(true);
        tautology.set_output(t);
        let conditional =
            conditioned_probability(&lineage, &tautology, pc.probabilities()).unwrap();
        let unconditional = one_shot_probability(&lineage, pc.probabilities()).unwrap();
        assert!((conditional - unconditional).abs() < 1e-9);
    }
}
