//! Tuple-independent (TID) probabilistic instances.
//!
//! TID instances are "the simplest kind of probabilistic relational
//! instances: all facts are independently present or absent with a given
//! probability" (paper, Section 1). They are the input formalism of
//! Theorem 1: evaluating a fixed MSO query on bounded-treewidth TIDs is
//! linear-time data complexity.

use crate::cinstance::{CInstance, PcInstance};
use crate::formula::Formula;
use crate::instance::{Fact, FactId, Instance};
use std::hash::Hasher;
use stuc_circuit::circuit::VarId;
use stuc_circuit::identity::ContentMemo;
use stuc_circuit::weights::{validate_probability, ProbabilityError, Weights};
use stuc_graph::graph::Graph;

/// A tuple-independent probabilistic instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TidInstance {
    instance: Instance,
    probabilities: Vec<f64>,
    /// Identity and weight table, derived on first use; every `&mut self`
    /// method resets it.
    memo: ContentMemo,
}

impl TidInstance {
    /// Creates an empty TID instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying relational instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Adds a fact present with probability `p`, given by names.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or not in `[0, 1]`; see
    /// [`TidInstance::try_add_fact_named`] for the non-panicking variant.
    pub fn add_fact_named(&mut self, relation: &str, args: &[&str], p: f64) -> FactId {
        self.try_add_fact_named(relation, args, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a fact present with probability `p`, rejecting NaN and
    /// out-of-range probabilities with an error instead of panicking. On
    /// rejection the instance is left unchanged.
    pub fn try_add_fact_named(
        &mut self,
        relation: &str,
        args: &[&str],
        p: f64,
    ) -> Result<FactId, ProbabilityError> {
        validate_probability(p)?;
        self.memo.reset();
        let id = self.instance.add_fact_named(relation, args);
        self.probabilities.push(p);
        Ok(id)
    }

    /// Adds a certain fact (probability 1).
    pub fn add_certain_fact(&mut self, relation: &str, args: &[&str]) -> FactId {
        self.add_fact_named(relation, args, 1.0)
    }

    /// The probability of a fact.
    pub fn probability(&self, f: FactId) -> f64 {
        self.probabilities[f.0]
    }

    /// Overwrites the probability of a fact (used by conditioning).
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or not in `[0, 1]`; see
    /// [`TidInstance::try_set_probability`] for the non-panicking variant.
    pub fn set_probability(&mut self, f: FactId, p: f64) {
        self.try_set_probability(f, p)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Overwrites the probability of a fact, rejecting NaN and out-of-range
    /// probabilities with an error instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if the fact does not exist (the probability itself never
    /// panics).
    pub fn try_set_probability(&mut self, f: FactId, p: f64) -> Result<(), ProbabilityError> {
        validate_probability(p)?;
        self.memo.reset();
        self.probabilities[f.0] = p;
        Ok(())
    }

    /// Removes a fact and its probability. Later facts shift down by one
    /// (see [`Instance::remove_fact`]), and with them the event variables of
    /// [`TidInstance::fact_event`]: the variable of fact `j > f` becomes
    /// `j - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the fact does not exist.
    pub fn remove_fact(&mut self, f: FactId) -> Fact {
        self.memo.reset();
        self.probabilities.remove(f.0);
        self.instance.remove_fact(f)
    }

    /// Number of facts.
    pub fn fact_count(&self) -> usize {
        self.probabilities.len()
    }

    /// The event variable canonically associated with a fact when the TID is
    /// viewed as a pc-instance: fact `i` uses variable `i`.
    pub fn fact_event(&self, f: FactId) -> VarId {
        VarId(f.0)
    }

    /// The per-fact event probabilities as a weight table (variable `i` is
    /// the presence event of fact `i`), built afresh; see
    /// [`TidInstance::weight_table`] for the memoised one.
    pub fn fact_weights(&self) -> Weights {
        let mut w = Weights::new();
        for (i, &p) in self.probabilities.iter().enumerate() {
            w.set(VarId(i), p);
        }
        w
    }

    /// The per-fact weight table, built once between mutations and lent
    /// out — what the engine sweeps with on every evaluation.
    pub fn weight_table(&self) -> &Weights {
        self.memo.weights(|| self.fact_weights())
    }

    /// The content identity `(primary, check)`: two independently keyed
    /// hashes of the exact probability bits and of the instance's own
    /// memoised identity ([`Instance::content_identity`]), computed once
    /// between mutations (see [`stuc_circuit::identity`]). A reweight
    /// leaves the instance untouched, so it rehashes only the
    /// probabilities.
    pub fn content_identity(&self) -> (u64, u64) {
        self.memo.identity("TidInstance", |h| {
            let (primary, check) = self.instance.content_identity();
            h.write_u64(primary);
            h.write_u64(check);
            for &p in &self.probabilities {
                h.write_f64(p);
            }
        })
    }

    /// The treewidth-relevant structure: the Gaifman graph of the underlying
    /// instance ("defining the treewidth of a TID as that of its underlying
    /// relational instance, forgetting about the probabilities" — Theorem 1).
    pub fn gaifman_graph(&self) -> Graph {
        self.instance.gaifman_graph()
    }

    /// Converts the TID into an equivalent pc-instance: each fact gets a
    /// fresh independent event `f<i>` with the fact's probability.
    pub fn to_pc_instance(&self) -> PcInstance {
        let mut ci = CInstance::new();
        let mut weights = Weights::new();
        for (id, fact) in self.instance.facts() {
            let event_name = format!("f{}", id.0);
            let var = ci.events_mut().intern(&event_name);
            weights.set(var, self.probabilities[id.0]);
            let relation = self.instance.relation_name(fact.relation).to_string();
            let args: Vec<String> = fact
                .args
                .iter()
                .map(|&c| self.instance.constant_name(c).to_string())
                .collect();
            let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
            ci.add_annotated_fact(&relation, &arg_refs, Formula::Var(var));
        }
        ci.with_probabilities(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use stuc_graph::exact::exact_treewidth;

    fn path_tid(n: usize, p: f64) -> TidInstance {
        let mut tid = TidInstance::new();
        for i in 0..n {
            tid.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)], p);
        }
        tid
    }

    #[test]
    fn add_and_read_probabilities() {
        let mut tid = TidInstance::new();
        let f = tid.add_fact_named("R", &["a", "b"], 0.4);
        assert_eq!(tid.probability(f), 0.4);
        assert_eq!(tid.fact_count(), 1);
        tid.set_probability(f, 0.9);
        assert_eq!(tid.probability(f), 0.9);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_panics() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a"], 1.2);
    }

    #[test]
    fn try_variants_reject_nan_and_out_of_range() {
        let mut tid = TidInstance::new();
        assert!(tid.try_add_fact_named("R", &["a"], f64::NAN).is_err());
        assert!(tid.try_add_fact_named("R", &["a"], -0.5).is_err());
        assert_eq!(tid.fact_count(), 0, "rejected facts must not be stored");
        let f = tid.try_add_fact_named("R", &["a"], 0.5).unwrap();
        assert!(tid.try_set_probability(f, f64::NAN).is_err());
        assert!(tid.try_set_probability(f, 2.0).is_err());
        assert_eq!(tid.probability(f), 0.5, "rejected updates must not stick");
        tid.try_set_probability(f, 1.0).unwrap();
        assert_eq!(tid.probability(f), 1.0);
    }

    #[test]
    fn remove_fact_shifts_later_facts() {
        let mut tid = path_tid(3, 0.5);
        tid.set_probability(FactId(2), 0.9);
        let removed = tid.remove_fact(FactId(1));
        assert_eq!(tid.fact_count(), 2);
        assert_eq!(removed.args.len(), 2);
        // The old fact 2 is now fact 1, probability carried along.
        assert_eq!(tid.probability(FactId(1)), 0.9);
    }

    #[test]
    fn certain_fact_has_probability_one() {
        let mut tid = TidInstance::new();
        let f = tid.add_certain_fact("R", &["a"]);
        assert_eq!(tid.probability(f), 1.0);
    }

    #[test]
    fn gaifman_graph_matches_underlying_instance() {
        let tid = path_tid(4, 0.5);
        assert_eq!(exact_treewidth(&tid.gaifman_graph()), Some(1));
    }

    #[test]
    fn conversion_to_pc_instance_preserves_facts_and_probabilities() {
        let tid = path_tid(3, 0.25);
        let pc = tid.to_pc_instance();
        assert_eq!(pc.instance().fact_count(), 3);
        assert_eq!(pc.event_count(), 3);
        assert!(pc.is_fully_weighted());
        for v in pc.cinstance().events().variables() {
            assert_eq!(pc.probabilities().get(v), Some(0.25));
        }
    }

    #[test]
    fn pc_worlds_match_tid_semantics() {
        let tid = path_tid(2, 0.5);
        let pc = tid.to_pc_instance();
        // World where only the first event holds contains only the first fact.
        let valuation: BTreeMap<VarId, bool> =
            [(VarId(0), true), (VarId(1), false)].into_iter().collect();
        let world = pc.cinstance().world(&valuation);
        assert_eq!(world, vec![FactId(0)]);
    }

    #[test]
    fn fact_events_are_dense() {
        let tid = path_tid(3, 0.5);
        assert_eq!(tid.fact_event(FactId(2)), VarId(2));
        let w = tid.fact_weights();
        assert_eq!(w.len(), 3);
    }
}
